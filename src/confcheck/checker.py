"""The conformance algorithm: per-trace verdicts and corpus-level reports.

Matching is homomorphic: a design span is witnessed by any observed span
whose name and match attributes agree and whose parent chain satisfies the
design parent chain. Witnesses need not be distinct across design spans.
A design span with no parent anchors anywhere in the observed DAG, which
keeps the check robust to wrapper spans added by auto-instrumentation.

Duration bounds apply to the design span being witnessed, not to ancestor
hops while validating its chain; a slow root therefore produces exactly one
duration violation instead of cascading structural failures down the tree.

Required design traces report one violation per unsatisfied span. A
disallowed design trace fires as a joint pattern: only when every one of
its spans is witnessed does it emit violations, one per span.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .design import DesignTraceSet
from .model import (
    DesignSpan,
    DesignTrace,
    ObservedSpan,
    ObservedTrace,
    SpanId,
    TraceVerdict,
    Violation,
    ViolationKind,
    attr_values_equal,
)

__all__ = [
    "MatchContext",
    "ConformanceReport",
    "attrs_match",
    "duration_ok",
    "chain_matches",
    "check_required",
    "check_disallowed",
    "check_trace",
    "check_corpus",
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


class MatchContext:
    """Memoized structural-match state for one (design trace, observed trace)
    pair. Entries are consistent with a from-scratch evaluation; the cache
    only avoids re-walking shared ancestor chains."""

    __slots__ = ("design_trace", "observed_trace", "memo")

    def __init__(self, design_trace: DesignTrace, observed_trace: ObservedTrace):
        self.design_trace = design_trace
        self.observed_trace = observed_trace
        self.memo: Dict[Tuple[str, SpanId], bool] = {}

    def structural_match(self, design: DesignSpan, observed: ObservedSpan) -> bool:
        key = (design.design_span_id, observed.span_id)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        result = self._compute(design, observed)
        self.memo[key] = result
        return result

    def _compute(self, design: DesignSpan, observed: ObservedSpan) -> bool:
        if not attrs_match(design, observed):
            return False
        parent_id = design.parent_design_span_id
        if parent_id is None:
            # A parentless pattern anchors anywhere in the observed DAG.
            return True
        parent_design = self.design_trace.spans[parent_id]
        if design.allow_non_immediate_parent:
            for ancestor in self.observed_trace.ancestors_of(observed):
                if self.structural_match(parent_design, ancestor):
                    return True
            return False
        parent = self.observed_trace.parent_of(observed)
        return parent is not None and self.structural_match(parent_design, parent)


def chain_matches(design: DesignSpan, observed: ObservedSpan, ctx: MatchContext) -> bool:
    """Full witness test: structural chain match plus the duration bound of
    the design span under evaluation."""
    return ctx.structural_match(design, observed) and duration_ok(design, observed)


def _span_iteration_order(trace: ObservedTrace) -> List[ObservedSpan]:
    return [trace.spans[span_id] for span_id in sorted(trace.spans)]


def check_required(design_trace: DesignTrace, trace: ObservedTrace) -> List[Violation]:
    """Evaluate one required design trace.

    Per design span: a strict witness means no violation; a span matched
    structurally but over its duration budget is a DurationExceeded
    violation carrying the fastest such candidate (ties broken by span id);
    no structural witness at all is a MissingRequired violation.
    """
    ctx = MatchContext(design_trace, trace)
    observed_spans = _span_iteration_order(trace)
    violations: List[Violation] = []
    for design_span in design_trace.spans_in_order():
        if any(chain_matches(design_span, span, ctx) for span in observed_spans):
            continue
        candidates = [span for span in observed_spans if ctx.structural_match(design_span, span)]
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


def check_disallowed(design_trace: DesignTrace, trace: ObservedTrace) -> List[Violation]:
    """Evaluate one disallowed design trace as a joint pattern.

    Only when every design span in the trace is witnessed does the pattern
    fire, emitting one DisallowedPresent violation per design span with the
    first witness by span id. A partial match emits nothing: the root of a
    disallowed pattern typically also matches legitimate behavior.
    """
    witnesses = match_witnesses(design_trace, trace)
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
    violations: List[Violation] = []
    for design_trace in design_set.required_traces:
        violations.extend(check_required(design_trace, trace))
    for design_trace in design_set.disallowed_traces:
        violations.extend(check_disallowed(design_trace, trace))
    violations.sort(key=lambda v: (v.design_trace_id, v.design_span_id))
    return TraceVerdict(trace_id=trace.trace_id, violations=tuple(violations))


def match_witnesses(design_trace: DesignTrace, trace: ObservedTrace) -> Dict[str, Optional[SpanId]]:
    """Strict witness per design span (smallest span id), or None when the
    span is unwitnessed. Used by check_disallowed, for rendering and for
    omission experiments."""
    ctx = MatchContext(design_trace, trace)
    observed_spans = _span_iteration_order(trace)
    return {
        design_span.design_span_id: next(
            (span.span_id for span in observed_spans if chain_matches(design_span, span, ctx)),
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


# Worker-process state installed by the pool initializer. Under the fork
# start method the corpus crosses into workers through copy-on-write memory
# rather than pickling, which is what makes parallel checking pay off: the
# per-trace check is tens of microseconds, far cheaper than serializing the
# trace it checks.
_WORKER_DESIGN_SET: Optional[DesignTraceSet] = None
_WORKER_TRACES: Optional[Sequence[ObservedTrace]] = None


def _init_worker(design_set: DesignTraceSet, traces: Optional[Sequence[ObservedTrace]]) -> None:
    global _WORKER_DESIGN_SET, _WORKER_TRACES
    _WORKER_DESIGN_SET = design_set
    _WORKER_TRACES = traces


def _check_index_range(bounds: Tuple[int, int]) -> Tuple[ConformanceReport, List[TraceVerdict]]:
    assert _WORKER_DESIGN_SET is not None and _WORKER_TRACES is not None
    start, end = bounds
    verdicts = [check_trace(_WORKER_DESIGN_SET, _WORKER_TRACES[i]) for i in range(start, end)]
    return ConformanceReport.from_verdicts(verdicts), verdicts


def _check_chunk(traces: Sequence[ObservedTrace]) -> Tuple[ConformanceReport, List[TraceVerdict]]:
    assert _WORKER_DESIGN_SET is not None
    verdicts = [check_trace(_WORKER_DESIGN_SET, trace) for trace in traces]
    return ConformanceReport.from_verdicts(verdicts), verdicts


def _fork_context() -> "Optional[multiprocessing.context.BaseContext]":
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def check_corpus(
    design_set: DesignTraceSet,
    traces: Iterable[ObservedTrace],
    workers: int = 1,
) -> Tuple[ConformanceReport, List[TraceVerdict]]:
    """Check a corpus of traces, optionally in parallel.

    Per-trace checks are independent, so the corpus is split into contiguous
    chunks distributed across worker processes and the partial reports are
    merged. The merge is associative and commutative: the report and the
    verdict list are identical for every worker count. Verdicts are returned
    ordered by trace id.

    Where the fork start method exists, workers inherit the corpus through
    shared memory and receive only index ranges; elsewhere the chunks
    themselves are sent, which is correct but slower.
    """
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    trace_list = sorted(traces, key=lambda t: t.trace_id)

    if workers == 1 or len(trace_list) < 2 * workers:
        verdicts = [check_trace(design_set, trace) for trace in trace_list]
        return ConformanceReport.from_verdicts(verdicts), verdicts

    # Several chunks per worker smooths out uneven per-trace cost.
    chunk_size = max(1, -(-len(trace_list) // (workers * 4)))
    bounds = [
        (start, min(start + chunk_size, len(trace_list)))
        for start in range(0, len(trace_list), chunk_size)
    ]
    fork_ctx = _fork_context()
    report = ConformanceReport()
    verdicts: List[TraceVerdict] = []
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=fork_ctx or multiprocessing.get_context(),
        initializer=_init_worker,
        initargs=(design_set, trace_list if fork_ctx is not None else None),
    ) as pool:
        if fork_ctx is not None:
            results = pool.map(_check_index_range, bounds)
        else:
            results = pool.map(_check_chunk, [trace_list[lo:hi] for lo, hi in bounds])
        for partial_report, chunk_verdicts in results:
            report = report.merge(partial_report)
            verdicts.extend(chunk_verdicts)
    return report, verdicts


def default_worker_count() -> int:
    return os.cpu_count() or 1
