"""The conformance algorithm: per-trace verdicts and corpus-level reports.

Matching is homomorphic: a design span is witnessed by any observed span
whose name and match attributes agree and whose parent chain satisfies the
design parent chain. Witnesses need not be distinct across design spans.
A design span with no parent anchors anywhere in the observed DAG, which
keeps the check robust to wrapper spans added by auto-instrumentation.

Matches are resolved once per design trace, parents first: a child design
span's candidates are tested against its parent's finished match set, and
ancestor walks cache their answer for every span they pass, so each design
span costs one pass over its candidates whatever the trace's depth.

Candidates come from a per-trace index that buckets the observed spans by
``(name, service name)``, built once per trace and shared by every required
and disallowed design trace. A design span tests ``attrs_match`` only on
the bucket of its own name and ``service.name`` match attribute, since no
other span can pass it; a design span without that attribute (possible only
in an unvalidated ``DesignTrace``) takes every span of its name.

Duration bounds apply to the design span being witnessed, not to ancestor
hops while validating its chain; a slow root therefore produces exactly one
duration violation instead of cascading structural failures down the tree.

Required design traces report one violation per unsatisfied span. A
disallowed design trace fires as a joint pattern: only when every one of
its spans is witnessed does it emit violations, one per span.
"""

from __future__ import annotations

import functools
import gc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .design import DesignTraceSet
from .model import (
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
    "match_witnesses",
]


def attrs_match(design: DesignSpan, observed: ObservedSpan) -> bool:
    """True when the observed span's name equals the pattern name and every
    match attribute is present with a type-strict equal value. Extra
    observed attributes never affect the result."""
    if observed.name != design.name:
        return False
    for key, expected in design.match_attributes.items():
        actual = observed.lookup_attribute(key)
        if actual is None or not attr_values_equal(expected, actual):
            return False
    return True


def duration_ok(design: DesignSpan, observed: ObservedSpan) -> bool:
    """True when the pattern has no duration bound or the observed duration
    is within it. The bound is inclusive."""
    return design.max_duration_micros is None or observed.duration_micros <= design.max_duration_micros


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


# Observed spans by (name, service name), each bucket in span-id order.
CandidateIndex = Dict[Tuple[str, str], List[ObservedSpan]]


def _candidate_index(trace: ObservedTrace) -> CandidateIndex:
    index: CandidateIndex = {}
    spans = trace.spans
    for span_id in sorted(spans):
        span = spans[span_id]
        index.setdefault((span.name, span.service_name), []).append(span)
    return index


def _candidates(design: DesignSpan, index: CandidateIndex) -> List[ObservedSpan]:
    """The spans that pass ``attrs_match`` for ``design``, in span-id order,
    tested only on the bucket that can hold them."""
    if SERVICE_NAME_KEY in design.match_attributes:
        bucket = index.get((design.name, design.match_attributes[SERVICE_NAME_KEY]), ())
    else:
        bucket = sorted(
            (span for (name, _), spans in index.items() if name == design.name for span in spans),
            key=lambda span: span.span_id,
        )
    return [span for span in bucket if attrs_match(design, span)]


def _structural_matches(
    design_trace: DesignTrace, trace: ObservedTrace, index: Optional[CandidateIndex] = None
) -> Dict[str, List[ObservedSpan]]:
    """Every structural match per design span, in span-id order.

    Design spans resolve parents first. A root's matches are the spans that
    pass ``attrs_match``; a child's are its ``attrs_match`` candidates whose
    parent, or with ``allow_non_immediate_parent`` any ancestor, is among its
    parent's matches. Durations are not consulted, so a slow ancestor never
    vetoes the chain below it.
    """
    if index is None:
        index = _candidate_index(trace)
    matches: Dict[str, List[ObservedSpan]] = {}
    pending = design_trace.spans_in_order()
    while pending:
        deferred: List[DesignSpan] = []
        for design in pending:
            parent_id = design.parent_design_span_id
            if parent_id is not None and parent_id not in matches:
                deferred.append(design)
                continue
            candidates = _candidates(design, index)
            if parent_id is not None:
                matched_ids = {span.span_id for span in matches[parent_id]}
                if design.allow_non_immediate_parent:
                    reaches: Dict[SpanId, bool] = {}
                    candidates = [s for s in candidates if _has_matched_ancestor(trace, s, matched_ids, reaches)]
                else:
                    candidates = [s for s in candidates if s.parent_span_id in matched_ids]
            matches[design.design_span_id] = candidates
        if len(deferred) == len(pending):
            raise ValueError(f"design trace {design_trace.design_trace_id}: unknown or cyclic design parents")
        pending = deferred
    return matches


def check_required(
    design_trace: DesignTrace, trace: ObservedTrace, index: Optional[CandidateIndex] = None
) -> List[Violation]:
    """Evaluate one required design trace.

    Per design span: a strict witness means no violation; a span matched
    structurally but over its duration budget is a DurationExceeded
    violation carrying the fastest such candidate (ties broken by span id);
    no structural witness at all is a MissingRequired violation. ``index``
    is the trace's candidate index, built here when not given.
    """
    matches = _structural_matches(design_trace, trace, index)
    violations: List[Violation] = []
    for design_span in design_trace.spans_in_order():
        candidates = matches[design_span.design_span_id]
        if any(duration_ok(design_span, span) for span in candidates):
            continue
        if candidates:
            witness = min(candidates, key=lambda s: (s.duration_micros, s.span_id))
            violations.append(
                Violation(
                    kind=ViolationKind.DURATION_EXCEEDED,
                    design_trace_id=design_trace.design_trace_id,
                    design_span_id=design_span.design_span_id,
                    observed_span_id=witness.span_id,
                )
            )
        else:
            violations.append(
                Violation(
                    kind=ViolationKind.MISSING_REQUIRED,
                    design_trace_id=design_trace.design_trace_id,
                    design_span_id=design_span.design_span_id,
                )
            )
    return violations


def check_disallowed(
    design_trace: DesignTrace, trace: ObservedTrace, index: Optional[CandidateIndex] = None
) -> List[Violation]:
    """Evaluate one disallowed design trace as a joint pattern.

    Only when every design span in the trace is witnessed does the pattern
    fire, emitting one DisallowedPresent violation per design span with the
    first witness by span id. A partial match emits nothing: the root of a
    disallowed pattern typically also matches legitimate behavior.
    """
    witnesses = match_witnesses(design_trace, trace, index)
    if None in witnesses.values():
        return []
    return [
        Violation(
            kind=ViolationKind.DISALLOWED_PRESENT,
            design_trace_id=design_trace.design_trace_id,
            design_span_id=design_span_id,
            observed_span_id=witness,
        )
        for design_span_id, witness in witnesses.items()
    ]


def check_trace(design_set: DesignTraceSet, trace: ObservedTrace) -> TraceVerdict:
    """Decide conformance of one observed trace against a validated design
    set. Pure function; violations are ordered by (design trace id, design
    span id) so two invocations agree bit for bit."""
    index = _candidate_index(trace)
    violations: List[Violation] = []
    for design_trace in design_set.required_traces:
        violations.extend(check_required(design_trace, trace, index))
    for design_trace in design_set.disallowed_traces:
        violations.extend(check_disallowed(design_trace, trace, index))
    violations.sort(key=lambda v: (v.design_trace_id, v.design_span_id))
    return TraceVerdict(trace_id=trace.trace_id, violations=tuple(violations))


def match_witnesses(
    design_trace: DesignTrace, trace: ObservedTrace, index: Optional[CandidateIndex] = None
) -> Dict[str, Optional[SpanId]]:
    """Strict witness per design span (smallest span id), or None when the
    span is unwitnessed. Used by check_disallowed, for rendering and for
    omission experiments.

    Reads the same parents-first structural matches as check_required, so
    the cost is linear in design spans times observed spans."""
    matches = _structural_matches(design_trace, trace, index)
    return {
        design_span.design_span_id: next(
            (span.span_id for span in matches[design_span.design_span_id] if duration_ok(design_span, span)),
            None,
        )
        for design_span in design_trace.spans_in_order()
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


# A partition loader maps a partition index to that partition's traces and
# the ingest warnings raised while loading them.
PartitionLoader = Callable[[int], Tuple[Sequence[ObservedTrace], Sequence[object]]]
PartialCheck = Tuple[ConformanceReport, List[TraceVerdict], int]


def _check_partition(design_set: DesignTraceSet, load: PartitionLoader, index: int) -> PartialCheck:
    """The one worker entry point: load partition ``index``, check each of its
    traces, and return the partial report, the non-conformant verdicts and
    the number of ingest warnings.

    The cyclic collector is off meanwhile: loading and checking allocate
    millions of objects and build no reference cycles, so its passes would
    find nothing. The caller's collector state is restored on return."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        traces, warnings = load(index)
        verdicts = [check_trace(design_set, trace) for trace in traces]
    finally:
        if was_enabled:
            gc.enable()
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
        with ProcessPoolExecutor(
            max_workers=partitions, initializer=_init_worker, initargs=(design_set, load)
        ) as pool:
            # Frozen objects are skipped by the collector, so a forked worker's
            # collections do not write to, and copy, the pages it inherited.
            # Fork starts every worker on the first submit.
            gc.freeze()
            try:
                futures = [pool.submit(_run_worker, index) for index in range(partitions)]
            finally:
                gc.unfreeze()
            results = [future.result() for future in futures]
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
