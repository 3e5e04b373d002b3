"""The conformance algorithm: per-trace verdicts and corpus-level reports.

Matching is homomorphic: a design span is witnessed by any observed span
whose name and match attributes agree and whose parent chain satisfies the
design parent chain. Witnesses need not be distinct across design spans.
A design span with no parent anchors anywhere in the observed DAG, which
keeps the check robust to wrapper spans added by auto-instrumentation.

Each design trace is compiled once, by :func:`compile_match_plan`, into a
match plan that ``DesignTrace.match_plan`` keeps: its design spans as steps
in parents-first order, each holding its candidate bucket key, its other
match attributes as a tuple, its parent's step index, its non-immediate flag
and its duration bound.

The matcher runs over a whole :class:`~confcheck.model.Partition`, not a
trace at a time: each plan step runs once over the partition's rows. Its
candidates come from a :class:`CandidateIndex`, which buckets the rows by
``(name, service name)``, each bucket in span-id order, built on first use
and shared by every required and disallowed design trace. A step tests its
other match attributes only on the bucket of its own name and
``service.name``, since no other span can pass it. ``_bucket_service`` is the
one rule for a bucket's service on both sides: only an exact ``str`` gets
one. A design span without such a ``service.name`` (possible only in an
unvalidated ``DesignTrace``) takes every span of its name and tests every
match attribute. A child step keeps the candidates whose parent row, or with
a non-immediate parent any ancestor row, is among its parent step's matches;
ancestor walks cache their answer for every row they pass, so each design
span costs one pass over its candidates whatever the traces' depth. Parent
rows never leave their trace, so one step serves every trace at once.

Each trace's witness, slow match and violations are then read from the step
results. :func:`evaluate` is the one witness and duration rule: a design
span's witness in a trace is its smallest-id match there within the
duration bound, and without one its fastest over-budget match. Bounds apply
to the design span being witnessed, not to ancestor hops while validating
its chain, so a slow root is exactly one duration violation instead of a
cascade of structural failures down the tree. A required design trace
reports one violation per unwitnessed span; a disallowed one fires as a
joint pattern, only when every span is witnessed. Those two rules are
``_required_violations`` and ``_disallowed_violations``. The two entry
points that take one trace, ``evaluate`` (witness and slow span ids per
design span) and ``check_trace`` (the verdict), and the DOT renderer run
the same code on a one-trace partition, which
:meth:`~confcheck.model.Partition.from_traces` builds without checking the
trace again.

:func:`check_partitions` checks a corpus with K workers through
:func:`confcheck.runner.run`: each worker reads its own share of the spans
(for ``check``, its group of files, so each file is decoded once), trades
the traces that cross workers' reads with their owners, assembles whole
traces and checks them; only the partial reports and verdicts come back.
:func:`check_corpus` cuts an in-memory corpus into K slices of whole
traces, which never cross.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import eq, floordiv, le, not_, sub
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from .design import DesignTraceSet
from .gcpause import collector_paused
from .model import (
    AttrValue,
    DesignSpan,
    DesignTrace,
    ObservedTrace,
    Partition,
    SERVICE_NAME_KEY,
    SpanId,
    TraceId,
    TraceVerdict,
    Violation,
    ViolationKind,
    attr_values_equal,
)

if TYPE_CHECKING:
    from .runner import Exchange, Reader

__all__ = [
    "ConformanceReport",
    "check_trace",
    "check_corpus",
    "check_partitions",
    "compile_match_plan",
    "evaluate",
    "WorkerExitedError",
]


def _has_matched_ancestor(up: List[int], row: int, matched: "set[int]", reaches: Dict[int, bool]) -> bool:
    """True when some strict ancestor of ``row`` is in ``matched``; ``up`` is
    the partition's parent rows.

    ``reaches`` records the answer for every unmatched row on the walked
    chain, so over one design span each row is walked once."""
    walked: List[int] = []
    current = up[row]
    while current >= 0 and current not in matched and current not in reaches:
        walked.append(current)
        current = up[current]
    # A row where the walk stopped is either matched or already answered.
    found = current >= 0 and reaches.get(current, True)
    if walked:
        reaches.update(dict.fromkeys(walked, found))
    return found


def _bucket_service(value: object) -> Optional[str]:
    """The service part of a candidate bucket key, for an observed span's
    service name and a design span's ``service.name`` alike: the value when
    it is an exact ``str``, else None. An observed span filed under None is
    found only by a plan step without a bucket, which tests every match
    attribute type-strictly."""
    return value if type(value) is str else None


class MatchStep(NamedTuple):
    """One design span of a compiled match plan."""

    span: DesignSpan
    # The (name, service name) candidate bucket, or None when the design
    # span has no bucket service: every span of its name is then a candidate.
    bucket: Optional[Tuple[str, str]]
    # The match attributes the bucket does not already decide.
    attributes: Tuple[Tuple[str, AttrValue], ...]
    # The parent design span's step index, or -1 for a root.
    parent: int
    non_immediate: bool
    max_duration_micros: Optional[int]


class MatchPlan(NamedTuple):
    """A design trace compiled for matching: ``steps`` parents first, and
    ``by_id`` the step indices in design span id order, the order in which
    results are reported."""

    steps: Tuple[MatchStep, ...]
    by_id: Tuple[int, ...]


def compile_match_plan(trace: DesignTrace) -> MatchPlan:
    """Compile ``trace`` for matching. Use ``trace.match_plan``, which
    compiles once. Raises ``ValueError`` on unknown or cyclic design parents."""
    position: Dict[str, int] = {}
    steps: List[MatchStep] = []
    pending = trace.spans_in_order()
    while pending:
        deferred = []
        for span in pending:
            parent_id = span.parent_design_span_id
            if parent_id is not None and parent_id not in position:
                deferred.append(span)
                continue
            service = _bucket_service(span.match_attributes.get(SERVICE_NAME_KEY))
            if service is not None:
                bucket: Optional[Tuple[str, str]] = (span.name, service)
                attributes = tuple(item for item in span.match_attributes.items() if item[0] != SERVICE_NAME_KEY)
            else:
                bucket = None
                attributes = tuple(span.match_attributes.items())
            position[span.design_span_id] = len(steps)
            steps.append(
                MatchStep(
                    span=span,
                    bucket=bucket,
                    attributes=attributes,
                    parent=-1 if parent_id is None else position[parent_id],
                    non_immediate=span.allow_non_immediate_parent,
                    max_duration_micros=span.max_duration_micros,
                )
            )
        if len(deferred) == len(pending):
            raise ValueError(f"design trace {trace.design_trace_id}: unknown or cyclic design parents")
        pending = deferred
    return MatchPlan(steps=tuple(steps), by_id=tuple(position[span_id] for span_id in sorted(position)))


class CandidateIndex:
    """A partition's rows by ``(name, bucket service)``, each bucket in
    span-id order, built on first use; and the partition's trace ids."""

    __slots__ = ("partition", "traces", "_groups", "_by_name", "_buckets")

    def __init__(self, partition: Partition) -> None:
        self.partition = partition
        self.traces = set(partition.trace_ids)
        # Every row by name, in row order, grouped in one pass on first use:
        # the index then costs the same whatever the number of design names.
        self._groups: Optional[Dict[str, List[int]]] = None
        self._by_name: Dict[str, List[int]] = {}
        self._buckets: Dict[Tuple[str, str], List[int]] = {}

    def named(self, name: str) -> List[int]:
        """The rows named ``name``, in span-id order: read, never change."""
        rows = self._by_name.get(name)
        if rows is None:
            groups = self._groups
            if groups is None:
                groups = self._groups = {}
                for row, row_name in enumerate(self.partition.names):
                    group = groups.get(row_name)
                    if group is None:
                        groups[row_name] = [row]
                    else:
                        group.append(row)
            rows = groups.get(name, [])
            rows.sort(key=self.partition.span_ids.__getitem__)
            self._by_name[name] = rows
        return rows

    def bucket(self, key: Tuple[str, str]) -> List[int]:
        """The rows of bucket ``key``, in span-id order: read, never change."""
        rows = self._buckets.get(key)
        if rows is None:
            name, service = key
            services = self.partition.services
            rows = self.named(name)
            named_services = list(map(services.__getitem__, rows))
            rows = list(compress(rows, map(eq, named_services, repeat(service))))
            if not set(map(type, named_services)) <= {str}:
                rows = [row for row in rows if _bucket_service(services[row]) is not None]
            self._buckets[key] = rows
        return rows


def _candidate_index(trace: ObservedTrace) -> CandidateIndex:
    """The candidate index of a one-trace partition of ``trace``."""
    return CandidateIndex(Partition.from_traces([trace]))


def _row_attributes_match(attributes: Iterable[Tuple[str, AttrValue]], part: Partition, row: int) -> bool:
    for key, expected in attributes:
        actual = part.services[row] if key == SERVICE_NAME_KEY else part.attributes[row].get(key)
        if actual is None or not attr_values_equal(expected, actual):
            return False
    return True


def _plan_matches(plan: MatchPlan, index: CandidateIndex) -> List[List[int]]:
    """Every structural match per plan step, as rows in span-id order, over
    every trace of the index's partition.

    Steps run parents first. A step's candidates are its bucket's rows (or,
    without a bucket, every row of its name) that pass its other match
    attributes; a child step keeps those whose parent, or with
    ``non_immediate`` any ancestor, is among its parent step's matches.
    Durations are not consulted, so a slow ancestor never vetoes the chain
    below it. A returned list may be the index's own bucket: read it, never
    change it.
    """
    part = index.partition
    up = part.parent_rows
    matches: List[List[int]] = []
    for design, bucket, attributes, parent, non_immediate, _ in plan.steps:
        candidates = index.bucket(bucket) if bucket is not None else index.named(design.name)
        if attributes and candidates:
            candidates = [row for row in candidates if _row_attributes_match(attributes, part, row)]
        if parent >= 0 and candidates:
            matched = set(matches[parent])
            if not matched:
                candidates = []
            elif non_immediate:
                reaches: Dict[int, bool] = {}
                candidates = [row for row in candidates if _has_matched_ancestor(up, row, matched, reaches)]
            else:
                candidates = list(compress(candidates, map(matched.__contains__, map(up.__getitem__, candidates))))
        matches.append(candidates)
    return matches


# Per design span, in design span id order: the span, and its witness row and
# its slow row (the fastest over-budget match of a trace with no witness),
# each by trace id.
StepOutcome = Tuple[DesignSpan, Dict[TraceId, int], Dict[TraceId, int]]


def _first_by_trace(rows: List[int], trace_ids: List[TraceId]) -> Dict[TraceId, int]:
    """The first of ``rows`` of each trace. Built backwards, so the first
    row of a trace is the last one stored."""
    backwards = rows[::-1]
    return dict(zip(map(trace_ids.__getitem__, backwards), backwards))


def _step_outcomes(plan: MatchPlan, index: CandidateIndex) -> List[StepOutcome]:
    """The one witness and duration rule, over every trace of the index's
    partition at once. Matches are in span-id order, so the first within the
    bound is a trace's witness and the first of its fastest wins a tie."""
    part = index.partition
    trace_ids = part.trace_ids
    matches = _plan_matches(plan, index)
    outcomes: List[StepOutcome] = []
    for position in plan.by_id:
        step = plan.steps[position]
        rows = matches[position]
        bound = step.max_duration_micros
        if bound is None:
            outcomes.append((step.span, _first_by_trace(rows, trace_ids), {}))
            continue
        durations = list(
            map(floordiv, map(sub, map(part.ends.__getitem__, rows), map(part.starts.__getitem__, rows)), repeat(1000))
        )
        within = list(map(le, durations, repeat(bound)))
        witness = _first_by_trace(list(compress(rows, within)), trace_ids)
        fastest: Dict[TraceId, Tuple[int, int]] = {}
        for row, duration in compress(zip(rows, durations), map(not_, within)):
            trace_id = trace_ids[row]
            if trace_id not in witness and (trace_id not in fastest or duration < fastest[trace_id][1]):
                fastest[trace_id] = (row, duration)
        outcomes.append((step.span, witness, {trace_id: row for trace_id, (row, _) in fastest.items()}))
    return outcomes


# Violations by trace id, each trace's in the order they were added.
Found = Dict[TraceId, List[Violation]]


def _required_violations(design_trace: DesignTrace, index: CandidateIndex, found: Found) -> None:
    """Add ``design_trace``'s violations, as a required pattern, to every
    trace of the index's partition that has any: per unwitnessed design
    span, a DurationExceeded violation carrying its slow match, or without
    one a MissingRequired violation."""
    span_ids = index.partition.span_ids
    design_trace_id = design_trace.design_trace_id
    for span, witness, slow in _step_outcomes(design_trace.match_plan, index):
        for trace_id in index.traces.difference(witness):
            row = slow.get(trace_id)
            found.setdefault(trace_id, []).append(
                Violation(ViolationKind.MISSING_REQUIRED, design_trace_id, span.design_span_id)
                if row is None
                else Violation(ViolationKind.DURATION_EXCEEDED, design_trace_id, span.design_span_id, span_ids[row])
            )


def _disallowed_violations(design_trace: DesignTrace, index: CandidateIndex, found: Found) -> None:
    """Add ``design_trace``'s violations, as a disallowed joint pattern, to
    every trace of the index's partition that witnesses all of its design
    spans: one DisallowedPresent violation per design span, carrying its
    witness."""
    span_ids = index.partition.span_ids
    design_trace_id = design_trace.design_trace_id
    outcomes = _step_outcomes(design_trace.match_plan, index)
    fired = index.traces
    for _, witness, _ in outcomes:
        fired = fired.intersection(witness)
    for trace_id in fired:
        found.setdefault(trace_id, []).extend(
            Violation(
                ViolationKind.DISALLOWED_PRESENT, design_trace_id, span.design_span_id, span_ids[witness[trace_id]]
            )
            for span, witness, _ in outcomes
        )


def _violations(design_set: DesignTraceSet, index: CandidateIndex) -> Found:
    """The violations of every non-conformant trace of the index's
    partition, each trace's ordered by (design trace id, design span id)."""
    found: Found = {}
    for design_trace in sorted(design_set.design_traces, key=lambda t: t.design_trace_id):
        rule = _disallowed_violations if design_trace.is_disallowed else _required_violations
        rule(design_trace, index, found)
    return found


Outcome = Tuple[DesignSpan, Optional[SpanId], Optional[SpanId]]


def evaluate(
    design_trace: DesignTrace, trace: ObservedTrace, index: Optional[CandidateIndex] = None
) -> List[Outcome]:
    """The one witness and duration rule: run ``design_trace``'s match plan
    once over ``trace`` and return ``(design span, witness id, slow id)`` per
    design span, in design span id order. The witness is the smallest-id
    structural match within the duration bound, or None. Without a witness,
    slow is the fastest over-budget match (ties to the smaller span id), or
    None when nothing matched structurally. ``index`` is
    ``_candidate_index(trace)``, built here when not given."""
    if index is None:
        index = _candidate_index(trace)
    span_ids = index.partition.span_ids
    outcomes: List[Outcome] = []
    for design_span, witness, slow in _step_outcomes(design_trace.match_plan, index):
        witness_row, slow_row = witness.get(trace.trace_id), slow.get(trace.trace_id)
        outcomes.append(
            (
                design_span,
                None if witness_row is None else span_ids[witness_row],
                None if slow_row is None else span_ids[slow_row],
            )
        )
    return outcomes


def check_trace(design_set: DesignTraceSet, trace: ObservedTrace) -> TraceVerdict:
    """Decide conformance of one observed trace against a validated design
    set. Pure function; violations are ordered by (design trace id, design
    span id) so two invocations agree bit for bit.

    The cyclic collector is paused meanwhile, as for a partition: the check
    builds no reference cycles, so a pass over the caller's heap would cost
    the check time that does not grow with the trace."""
    with collector_paused():
        violations = _violations(design_set, _candidate_index(trace)).get(trace.trace_id, ())
    return TraceVerdict(trace_id=trace.trace_id, violations=tuple(violations))


def _kind_counts(counts: Optional[Mapping[ViolationKind, int]] = None) -> Dict[ViolationKind, int]:
    out = {kind: 0 for kind in ViolationKind}
    if counts:
        out.update(counts)
    return out


@dataclass(frozen=True)
class ConformanceReport:
    """Corpus-level aggregate of per-trace verdicts.

    Reports merge associatively and commutatively, so a corpus may be
    partitioned across any number of workers in any order without changing
    the result.
    """

    total_traces: int = 0
    conformant_traces: int = 0
    violations_by_kind: Mapping[ViolationKind, int] = field(default_factory=_kind_counts)
    traces_by_kind: Mapping[ViolationKind, int] = field(default_factory=_kind_counts)
    violations_by_design_span: Mapping[Tuple[str, str], int] = field(default_factory=dict)

    @property
    def nonconformant_traces(self) -> int:
        return self.total_traces - self.conformant_traces

    @property
    def conformance_percentage(self) -> float:
        """Conformant fraction in [0, 1]; 0.0 for an empty corpus."""
        if self.total_traces == 0:
            return 0.0
        return self.conformant_traces / self.total_traces

    @classmethod
    def from_verdicts(cls, verdicts: Iterable[TraceVerdict]) -> "ConformanceReport":
        total = 0
        conformant = 0
        by_kind = _kind_counts()
        traces_by_kind = _kind_counts()
        by_design_span: Dict[Tuple[str, str], int] = {}
        for verdict in verdicts:
            total += 1
            if verdict.conformant:
                conformant += 1
                continue
            kinds_seen = set()
            for violation in verdict.violations:
                by_kind[violation.kind] += 1
                kinds_seen.add(violation.kind)
                key = (violation.design_trace_id, violation.design_span_id)
                by_design_span[key] = by_design_span.get(key, 0) + 1
            for kind in kinds_seen:
                traces_by_kind[kind] += 1
        return cls(
            total_traces=total,
            conformant_traces=conformant,
            violations_by_kind=by_kind,
            traces_by_kind=traces_by_kind,
            violations_by_design_span=by_design_span,
        )

    def merge(self, other: "ConformanceReport") -> "ConformanceReport":
        by_design_span = dict(self.violations_by_design_span)
        for key, count in other.violations_by_design_span.items():
            by_design_span[key] = by_design_span.get(key, 0) + count
        return ConformanceReport(
            total_traces=self.total_traces + other.total_traces,
            conformant_traces=self.conformant_traces + other.conformant_traces,
            violations_by_kind={
                kind: self.violations_by_kind.get(kind, 0) + other.violations_by_kind.get(kind, 0)
                for kind in ViolationKind
            },
            traces_by_kind={
                kind: self.traces_by_kind.get(kind, 0) + other.traces_by_kind.get(kind, 0)
                for kind in ViolationKind
            },
            violations_by_design_span=by_design_span,
        )


class WorkerExitedError(RuntimeError):
    """A worker process exited (killed by the OOM killer, say) before it
    returned its result, so the check is incomplete."""


PartialCheck = Tuple[ConformanceReport, List[TraceVerdict], int]


def _check_partition(
    design_set: DesignTraceSet, read: Reader, index: int, exchange: Optional["Exchange"]
) -> PartialCheck:
    """The one worker entry point: assemble worker ``index``'s traces by
    :func:`~confcheck.runner.worker_partition`, check all of them at once,
    and return the partial report, the non-conformant verdicts ordered by
    trace id and the number of ingest warnings.

    The cyclic collector is paused meanwhile: reading, exchanging and
    checking allocate millions of objects and build no reference cycles. The caller's state
    comes back once the partial result is built and the partition is
    dropped."""
    from .runner import worker_partition

    with collector_paused():
        partition, warning_count = worker_partition(read, index, exchange)
        candidates = CandidateIndex(partition)
        del partition
        found = _violations(design_set, candidates)
        conformant = len(candidates.traces) - len(found)
        del candidates
        verdicts = [TraceVerdict(trace_id, tuple(found[trace_id])) for trace_id in sorted(found)]
        report = ConformanceReport.from_verdicts(verdicts).merge(
            ConformanceReport(total_traces=conformant, conformant_traces=conformant)
        )
        return report, verdicts, warning_count


def check_partitions(design_set: DesignTraceSet, read: Reader, workers: int) -> PartialCheck:
    """Check the traces that ``workers`` workers read by ``read``, each
    worker in its own process, or in this process when there is one, with
    the traces that cross workers' reads exchanged by
    :func:`confcheck.runner.run`.

    Returns the merged report, the non-conformant verdicts ordered by trace
    id, and the total ingest warning count. The merge is associative and
    commutative, so the result does not depend on which worker finishes
    first.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    # Imported here: only a check runs it. Compiled from source at package
    # import, it raised that import's memory high-water mark by 0.2 MB.
    from . import runner

    results = runner.run(functools.partial(_check_partition, design_set, read), workers)
    report = ConformanceReport()
    nonconformant: List[TraceVerdict] = []
    for partial_report, partial_verdicts, _ in results:
        report = report.merge(partial_report)
        nonconformant.extend(partial_verdicts)
    nonconformant.sort(key=lambda verdict: verdict.trace_id)
    return report, nonconformant, sum(warning_count for _, _, warning_count in results)


def check_corpus(
    design_set: DesignTraceSet,
    traces: Iterable[ObservedTrace],
    workers: int = 1,
) -> Tuple[ConformanceReport, List[TraceVerdict]]:
    """Check an in-memory corpus of traces with distinct trace ids,
    optionally in parallel; ``ValueError`` when two traces share an id.

    The traces, ordered by trace id, are cut into one contiguous partition
    per worker and checked by :func:`check_partitions`. Returns the report
    and the non-conformant verdicts ordered by trace id; both are identical
    for every worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    trace_list = sorted(traces, key=lambda t: t.trace_id)
    trace_ids = [trace.trace_id for trace in trace_list]
    if len(set(trace_ids)) != len(trace_ids):
        raise ValueError("a trace id appears in more than one of the traces")
    del trace_ids
    # A tiny corpus is not worth starting processes for.
    partitions = workers if len(trace_list) >= 2 * workers else 1
    cuts = [len(trace_list) * index // partitions for index in range(partitions + 1)]
    parts = [trace_list[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    report, verdicts, _ = check_partitions(
        design_set, lambda index: (Partition.from_traces(parts[index]), ()), partitions
    )
    return report, verdicts
