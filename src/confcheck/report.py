"""Report rendering: JSON and text summaries, and DOT span graphs.

The JSON schema is stable and machine-readable; the text form is for
terminals. Both are computed from the same report object so their counts
can never disagree.
"""

from __future__ import annotations

from typing import Iterable

from .checker import ConformanceReport, Found, _candidate_index, _disallowed_violations, evaluate
from .design import DesignTraceSet
from .model import ObservedTrace, TraceVerdict, ViolationKind

__all__ = ["report_to_json_dict", "render_text_report", "render_trace_dot"]


def report_to_json_dict(
    report: ConformanceReport,
    verdicts: Iterable[TraceVerdict],
    max_ids: int = 1000,
) -> dict:
    """Assemble the JSON report object.

    ``nonConformantTraceIds`` lists offending trace ids in ascending order,
    capped at ``max_ids`` entries.
    """
    nonconformant_ids = sorted(v.trace_id for v in verdicts if not v.conformant)
    by_design_span = [
        {"designTraceId": trace_id, "designSpanId": span_id, "count": count}
        for (trace_id, span_id), count in sorted(report.violations_by_design_span.items())
    ]
    return {
        "totalTraces": report.total_traces,
        "conformantTraces": report.conformant_traces,
        "nonConformantTraces": report.nonconformant_traces,
        "conformancePercentage": report.conformance_percentage,
        "violationsByKind": {kind.value: report.violations_by_kind.get(kind, 0) for kind in ViolationKind},
        "tracesByKind": {kind.value: report.traces_by_kind.get(kind, 0) for kind in ViolationKind},
        "violationsByDesignSpan": by_design_span,
        "nonConformantTraceIds": nonconformant_ids[:max_ids],
    }


def render_text_report(report: ConformanceReport) -> str:
    """Human-readable report with the conformance percentage and violation
    breakdowns. Percentages are printed with two decimals."""
    lines = [
        f"Traces checked:    {report.total_traces}",
        f"Conformant:        {report.conformant_traces}",
        f"Non-conformant:    {report.nonconformant_traces}",
        f"Conformance:       {report.conformance_percentage * 100:.2f}%",
    ]
    if report.total_traces == 0:
        lines.append("warning: empty corpus, nothing was checked")
    lines.append("")
    lines.append("Violations by kind (violations / traces affected):")
    for kind in ViolationKind:
        lines.append(
            f"  {kind.value:<20} {report.violations_by_kind.get(kind, 0):>10}"
            f" / {report.traces_by_kind.get(kind, 0)}"
        )
    lines.append("")
    lines.append("Violations by design span:")
    if report.violations_by_design_span:
        for (trace_id, span_id), count in sorted(report.violations_by_design_span.items()):
            lines.append(f"  {trace_id}/{span_id:<12} {count:>10}")
    else:
        lines.append("  none")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def render_trace_dot(design_set: DesignTraceSet, trace: ObservedTrace) -> str:
    """Render one observed trace as a DOT digraph with its verdict overlaid.

    Each observed span is a box labeled name, service, duration. Strict
    witnesses of required design spans are outlined green; spans witnessing
    a duration breach are outlined red; spans witnessing a disallowed
    pattern are filled red. Missing required design spans appear as dashed
    ghost nodes carrying the design description. Every style and ghost
    comes from one run of each design trace's match plan over one candidate
    index: :func:`~confcheck.checker.evaluate` for a required design trace,
    and the checker's own disallowed rule for a disallowed one. Nodes are
    emitted in span id order, so identical inputs produce identical bytes.
    """
    index = _candidate_index(trace)
    witnesses, duration_witnesses = set(), set()
    ghosts = []
    # Ghosts in (design trace id, design span id) order, as violations are.
    for design_trace in sorted(design_set.required_traces, key=lambda t: t.design_trace_id):
        outcomes = evaluate(design_trace, trace, index)
        # A ghost hangs off its design parent's witness, or else off the
        # parent's over-budget match.
        anchor_of = {span.design_span_id: witness or slow for span, witness, slow in outcomes}
        for span, witness, slow in outcomes:
            if witness is not None:
                witnesses.add(witness)
            elif slow is not None:
                duration_witnesses.add(slow)
            else:
                anchor = anchor_of.get(span.parent_design_span_id)
                ghosts.append((design_trace.design_trace_id, span, anchor))
    fired: Found = {}
    for design_trace in design_set.disallowed_traces:
        _disallowed_violations(design_trace, index, fired)
    disallowed_witnesses = {violation.observed_span_id for violation in fired.get(trace.trace_id, ())}

    lines = [
        f'digraph "trace_{trace.trace_id}" {{',
        "  rankdir=TB;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for span_id in sorted(trace.spans):
        span = trace.spans[span_id]
        label = "\\n".join(
            _dot_escape(part)
            for part in (span.name, span.service_name, f"{span.duration_micros} us")
        )
        if span_id in disallowed_witnesses:
            style = ', style=filled, fillcolor=red'
        elif span_id in duration_witnesses:
            style = ", color=red"
        elif span_id in witnesses:
            style = ", color=green"
        else:
            style = ""
        lines.append(f'  "{span_id}" [label="{label}"{style}];')

    for design_trace_id, design_span, anchor in ghosts:
        ghost_id = _dot_escape(f"missing_{design_trace_id}_{design_span.design_span_id}")
        label_parts = [f"missing: {design_span.name}"]
        if design_span.description:
            label_parts.append(design_span.description)
        label = "\\n".join(_dot_escape(part) for part in label_parts)
        lines.append(f'  "{ghost_id}" [label="{label}", style=dashed, color=red];')
        if anchor is not None:
            lines.append(f'  "{anchor}" -> "{ghost_id}" [style=dashed];')

    for span_id in sorted(trace.spans):
        span = trace.spans[span_id]
        if span.parent_span_id is not None and span.parent_span_id in trace.spans:
            lines.append(f'  "{span.parent_span_id}" -> "{span_id}";')

    lines.append("}")
    return "\n".join(lines) + "\n"
