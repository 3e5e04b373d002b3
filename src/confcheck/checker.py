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
and its duration bound. A child step's candidates are tested against its
parent step's finished match set, and ancestor walks cache their answer for
every span they pass, so each design span costs one pass over its candidates
whatever the trace's depth.

Candidates come from a per-trace index that buckets the observed spans by
``(name, service name)``, built once per trace and shared by every required
and disallowed design trace. A step tests its other match attributes only
on the bucket of its own name and ``service.name``, since no other span can
pass it. ``_bucket_service`` is the one rule for a bucket's service on both
sides: only an exact ``str`` gets one. A design span without such a
``service.name`` (possible only in an unvalidated ``DesignTrace``) takes
every span of its name and tests every match attribute.

:func:`evaluate` is the one witness and duration rule: one plan run gives each
design span its witness, or else its fastest over-budget match. Bounds apply
to the design span being witnessed, not to ancestor hops while validating its
chain, so a slow root is exactly one duration violation instead of a cascade
of structural failures down the tree. ``check_required`` reports one
violation per unwitnessed span; ``check_disallowed`` fires as a joint
pattern, only when every span is witnessed; ``match_witnesses``,
``check_trace`` and the DOT renderer read the same outcomes.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from .design import DesignTraceSet
from .gcpause import collector_paused
from .model import (
    AttrValue,
    DesignSpan,
    DesignTrace,
    ObservedSpan,
    ObservedTrace,
    SERVICE_NAME_KEY,
    SpanId,
    TraceVerdict,
    Violation,
    ViolationKind,
    attr_values_equal,
)

__all__ = [
    "ConformanceReport",
    "attrs_match",
    "duration_ok",
    "check_required",
    "check_disallowed",
    "check_trace",
    "check_corpus",
    "check_partitions",
    "compile_match_plan",
    "evaluate",
    "match_witnesses",
    "WorkerExitedError",
]


def attrs_match(design: DesignSpan, observed: ObservedSpan) -> bool:
    """True when the observed span's name equals the pattern name and every
    match attribute is present with a type-strict equal value. Extra
    observed attributes never affect the result."""
    return observed.name == design.name and _attributes_match(design.match_attributes.items(), observed)


def _attributes_match(attributes: Iterable[Tuple[str, AttrValue]], observed: ObservedSpan) -> bool:
    for key, expected in attributes:
        actual = observed.lookup_attribute(key)
        if actual is None or not attr_values_equal(expected, actual):
            return False
    return True


def duration_ok(design: DesignSpan, observed: ObservedSpan) -> bool:
    """True when the pattern has no duration bound or the observed duration
    is within it. The bound is inclusive."""
    bound = design.max_duration_micros
    return bound is None or observed.duration_micros <= bound


def _has_matched_ancestor(
    trace: ObservedTrace, span: ObservedSpan, matched_ids: Set[SpanId], reaches: Dict[SpanId, bool]
) -> bool:
    """True when some strict ancestor of ``span`` is in ``matched_ids``.

    ``reaches`` records the answer for every unmatched span on the walked
    chain, so over one design span each observed span is walked once."""
    walked: List[SpanId] = []
    current = trace.parent_of(span)
    while current is not None and current.span_id not in matched_ids and current.span_id not in reaches:
        walked.append(current.span_id)
        current = trace.parent_of(current)
    # A span where the walk stopped is either matched or already answered.
    found = current is not None and reaches.get(current.span_id, True)
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


# Observed spans by (name, bucket service), each bucket in span-id order.
CandidateIndex = Dict[Tuple[str, Optional[str]], List[ObservedSpan]]


def _candidate_index(trace: ObservedTrace) -> CandidateIndex:
    index: CandidateIndex = {}
    spans = trace.spans
    for span_id in sorted(spans):
        span = spans[span_id]
        index.setdefault((span.name, _bucket_service(span.service_name)), []).append(span)
    return index


def _plan_matches(
    plan: MatchPlan, trace: ObservedTrace, index: Optional[CandidateIndex]
) -> List[Sequence[ObservedSpan]]:
    """Every structural match per plan step, in span-id order.

    Steps run parents first. A step's candidates are its bucket's spans (or,
    without a bucket, every span of its name) that pass its other match
    attributes; a child step keeps those whose parent, or with
    ``non_immediate`` any ancestor, is among its parent step's matches.
    Durations are not consulted, so a slow ancestor never vetoes the chain
    below it. A returned sequence may be the index's own bucket: read it,
    never change it.
    """
    if index is None:
        index = _candidate_index(trace)
    matches: List[Sequence[ObservedSpan]] = []
    for design, bucket, attributes, parent, non_immediate, _ in plan.steps:
        if bucket is not None:
            candidates: Sequence[ObservedSpan] = index.get(bucket, ())
        else:
            candidates = sorted(
                (span for (name, _service), spans in index.items() if name == design.name for span in spans),
                key=lambda span: span.span_id,
            )
        if attributes and candidates:
            candidates = [span for span in candidates if _attributes_match(attributes, span)]
        if parent >= 0 and candidates:
            parent_matches = matches[parent]
            if not parent_matches:
                candidates = ()
            else:
                matched_ids = {span.span_id for span in parent_matches}
                if non_immediate:
                    reaches: Dict[SpanId, bool] = {}
                    candidates = [s for s in candidates if _has_matched_ancestor(trace, s, matched_ids, reaches)]
                else:
                    candidates = [s for s in candidates if s.parent_span_id in matched_ids]
        matches.append(candidates)
    return matches


Outcome = Tuple[DesignSpan, Optional[ObservedSpan], Optional[ObservedSpan]]


def evaluate(
    design_trace: DesignTrace, trace: ObservedTrace, index: Optional[CandidateIndex] = None
) -> List[Outcome]:
    """The one witness and duration rule: run ``design_trace``'s match plan
    once over ``trace`` and return ``(design span, witness, slow)`` per
    design span, in design span id order. The witness is the smallest-id
    structural match within the duration bound, or None. Without a witness,
    slow is the fastest over-budget match (ties to the smaller span id), or
    None when nothing matched structurally. ``index`` is the trace's
    candidate index, built here when not given."""
    plan = design_trace.match_plan
    matches = _plan_matches(plan, trace, index)
    outcomes: List[Outcome] = []
    for position in plan.by_id:
        step = plan.steps[position]
        candidates = matches[position]
        bound = step.max_duration_micros
        witness = slow = None
        if bound is None:
            witness = candidates[0] if candidates else None
        else:
            # Candidates are in span-id order, so the first in bound is the
            # witness and the first of the fastest wins a tie.
            fastest = 0
            for span in candidates:
                duration = span.duration_micros
                if duration <= bound:
                    witness, slow = span, None
                    break
                if slow is None or duration < fastest:
                    slow, fastest = span, duration
        outcomes.append((step.span, witness, slow))
    return outcomes


def _required_violations(design_trace: DesignTrace, outcomes: List[Outcome]) -> List[Violation]:
    return [
        Violation(
            kind=ViolationKind.MISSING_REQUIRED if slow is None else ViolationKind.DURATION_EXCEEDED,
            design_trace_id=design_trace.design_trace_id,
            design_span_id=span.design_span_id,
            observed_span_id=None if slow is None else slow.span_id,
        )
        for span, witness, slow in outcomes
        if witness is None
    ]


def _disallowed_violations(design_trace: DesignTrace, outcomes: List[Outcome]) -> List[Violation]:
    for _, witness, _ in outcomes:
        if witness is None:
            return []
    return [
        Violation(
            kind=ViolationKind.DISALLOWED_PRESENT,
            design_trace_id=design_trace.design_trace_id,
            design_span_id=span.design_span_id,
            observed_span_id=witness.span_id,
        )
        for span, witness, _ in outcomes
    ]


def check_required(design_trace: DesignTrace, trace: ObservedTrace) -> List[Violation]:
    """Evaluate one required design trace.

    Per design span: a witness means no violation; a span matched
    structurally but over its duration budget is a DurationExceeded
    violation carrying the fastest such candidate (ties broken by span id);
    no structural match at all is a MissingRequired violation.
    """
    return _required_violations(design_trace, evaluate(design_trace, trace))


def check_disallowed(design_trace: DesignTrace, trace: ObservedTrace) -> List[Violation]:
    """Evaluate one disallowed design trace as a joint pattern.

    Only when every design span in the trace is witnessed does the pattern
    fire, emitting one DisallowedPresent violation per design span with its
    witness. A partial match emits nothing: the root of a disallowed pattern
    typically also matches legitimate behavior.
    """
    return _disallowed_violations(design_trace, evaluate(design_trace, trace))


def check_trace(design_set: DesignTraceSet, trace: ObservedTrace) -> TraceVerdict:
    """Decide conformance of one observed trace against a validated design
    set. Pure function; violations are ordered by (design trace id, design
    span id) so two invocations agree bit for bit."""
    index = _candidate_index(trace)
    violations: List[Violation] = []
    for design_trace in design_set.required_traces:
        violations += _required_violations(design_trace, evaluate(design_trace, trace, index))
    for design_trace in design_set.disallowed_traces:
        violations += _disallowed_violations(design_trace, evaluate(design_trace, trace, index))
    violations.sort(key=lambda v: (v.design_trace_id, v.design_span_id))
    return TraceVerdict(trace_id=trace.trace_id, violations=tuple(violations))


def match_witnesses(design_trace: DesignTrace, trace: ObservedTrace) -> Dict[str, Optional[SpanId]]:
    """The witness per design span (smallest span id within the duration
    bound), or None when the span is unwitnessed, in design span id order."""
    return {
        span.design_span_id: None if witness is None else witness.span_id
        for span, witness, _ in evaluate(design_trace, trace)
    }


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
    """A pool worker process exited (killed by the OOM killer, say) before it
    returned its partition's result, so the check is incomplete."""


# A partition loader maps a partition index to that partition's traces and
# the ingest warnings raised while loading them.
PartitionLoader = Callable[[int], Tuple[Sequence[ObservedTrace], Sequence[object]]]
PartialCheck = Tuple[ConformanceReport, List[TraceVerdict], int]


def _check_partition(design_set: DesignTraceSet, load: PartitionLoader, index: int) -> PartialCheck:
    """The one worker entry point: load partition ``index``, check each of its
    traces, and return the partial report, the non-conformant verdicts and
    the number of ingest warnings.

    The cyclic collector is paused meanwhile: loading and checking allocate
    millions of objects and build no reference cycles. The caller's state
    comes back once the partial result is built and the partition's traces
    are dropped."""
    with collector_paused():
        traces, warnings = load(index)
        verdicts = [check_trace(design_set, trace) for trace in traces]
        del traces
        return (
            ConformanceReport.from_verdicts(verdicts),
            [verdict for verdict in verdicts if not verdict.conformant],
            len(warnings),
        )


# Installed in each pool worker by the initializer: under fork the loader,
# and any corpus it holds, is inherited through copy-on-write memory rather
# than pickled; under spawn it is pickled once per worker.
_WORKER_JOB: Optional[Tuple[DesignTraceSet, PartitionLoader]] = None


def _init_worker(design_set: DesignTraceSet, load: PartitionLoader) -> None:
    global _WORKER_JOB
    _WORKER_JOB = (design_set, load)


def _run_worker(index: int) -> PartialCheck:
    return _check_partition(*_WORKER_JOB, index)


def check_partitions(design_set: DesignTraceSet, load: PartitionLoader, partitions: int) -> PartialCheck:
    """Check ``partitions`` partitions, each loaded and checked by its own
    worker process, or in this process when there is one partition.

    Returns the merged report, the non-conformant verdicts ordered by trace
    id, and the total ingest warning count. The merge is associative and
    commutative, so the result does not depend on which worker finishes
    first.
    """
    if partitions < 1:
        raise ValueError(f"partitions must be a positive integer, got {partitions}")
    if partitions == 1:
        results = [_check_partition(design_set, load, 0)]
    else:
        # Imported here: only a pool needs it, and it is about half of the
        # package's import time.
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(
                max_workers=partitions, initializer=_init_worker, initargs=(design_set, load)
            ) as pool:
                # Frozen objects are skipped by the collector, so a forked
                # worker's collections do not write to, and copy, the pages it
                # inherited. Fork starts every worker on the first submit.
                gc.freeze()
                try:
                    futures = [pool.submit(_run_worker, index) for index in range(partitions)]
                finally:
                    gc.unfreeze()
                results = [future.result() for future in futures]
        except BrokenExecutor as exc:
            raise WorkerExitedError("a worker process exited unexpectedly") from exc
    report = ConformanceReport()
    nonconformant: List[TraceVerdict] = []
    for partial_report, partial_verdicts, _ in results:
        report = report.merge(partial_report)
        nonconformant.extend(partial_verdicts)
    nonconformant.sort(key=lambda verdict: verdict.trace_id)
    return report, nonconformant, sum(warning_count for _, _, warning_count in results)


def _given_partition(parts: Sequence[Sequence[ObservedTrace]], index: int) -> Tuple[Sequence[ObservedTrace], list]:
    return parts[index], []


def check_corpus(
    design_set: DesignTraceSet,
    traces: Iterable[ObservedTrace],
    workers: int = 1,
) -> Tuple[ConformanceReport, List[TraceVerdict]]:
    """Check an in-memory corpus of traces, optionally in parallel.

    The traces, ordered by trace id, are cut into one contiguous partition
    per worker and checked by :func:`check_partitions`. Returns the report
    and the non-conformant verdicts ordered by trace id; both are identical
    for every worker count.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    trace_list = sorted(traces, key=lambda t: t.trace_id)
    # A tiny corpus is not worth starting processes for.
    partitions = workers if len(trace_list) >= 2 * workers else 1
    cuts = [len(trace_list) * index // partitions for index in range(partitions + 1)]
    parts = [trace_list[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    report, verdicts, _ = check_partitions(design_set, functools.partial(_given_partition, parts), partitions)
    return report, verdicts
