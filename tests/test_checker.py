"""Conformance algorithm semantics: matching, chains, verdicts, reports."""

from __future__ import annotations

import pytest

from confcheck.checker import (
    ConformanceReport,
    attrs_match,
    check_corpus,
    check_disallowed,
    check_required,
    check_trace,
    duration_ok,
    match_witnesses,
)
from confcheck.design import DesignTraceSet
from confcheck.model import (
    DesignSpan,
    DesignTrace,
    ObservedSpan,
    ObservedTrace,
    TraceVerdict,
    Violation,
    ViolationKind,
)

TRACE_ID = "0" * 31 + "1"

ROOT = "00000000000000a1"
CLIENT = "00000000000000b2"
MS_REQUEST = "00000000000000c3"
MS_QUERY = "00000000000000d4"
GW_QUERY = "00000000000000e5"
NOISE = "00000000000000f6"


def observed(span_id, name, service, parent=None, duration_micros=1000, attributes=None):
    return ObservedSpan(
        trace_id=TRACE_ID,
        span_id=span_id,
        parent_span_id=parent,
        name=name,
        service_name=service,
        start_time_nanos=0,
        end_time_nanos=duration_micros * 1000,
        attributes=attributes or {},
    )


def gateway_trace(root_duration_micros=120_000, ms_query=True, gw_query=False, extra=()):
    """A trace shaped like the gateway system: root request, client hop,
    microservice request as a non-immediate descendant, optional query spans."""
    spans = [
        observed(ROOT, "aspnet_core.request", "gateway", duration_micros=root_duration_micros),
        observed(CLIENT, "http.client", "gateway", parent=ROOT, duration_micros=90_000),
        observed(MS_REQUEST, "aspnet_core.request", "microservice", parent=CLIENT, duration_micros=80_000),
        observed(NOISE, "serialization", "gateway", parent=ROOT, duration_micros=500),
    ]
    if ms_query:
        spans.append(
            observed(MS_QUERY, "sql_server.query", "microservice", parent=MS_REQUEST, duration_micros=15_000)
        )
    if gw_query:
        spans.append(
            observed(GW_QUERY, "sql_server.query", "gateway", parent=ROOT, duration_micros=20_000)
        )
    spans.extend(extra)
    return ObservedTrace.from_spans(TRACE_ID, spans)


def design(design_set, span_id):
    for trace in design_set.design_traces:
        if span_id in trace.spans:
            return trace, trace.spans[span_id]
    raise KeyError(span_id)


def with_trace_id(trace, new_id):
    return ObservedTrace.from_spans(
        new_id,
        [
            ObservedSpan(
                trace_id=new_id,
                span_id=s.span_id,
                parent_span_id=s.parent_span_id,
                name=s.name,
                service_name=s.service_name,
                start_time_nanos=s.start_time_nanos,
                end_time_nanos=s.end_time_nanos,
                attributes=s.attributes,
            )
            for s in trace.spans.values()
        ],
    )


class TestAttrsMatch:
    def test_name_and_service_match(self, design_set):
        _, span_b = design(design_set, "B")
        target = observed(MS_REQUEST, "aspnet_core.request", "microservice")
        assert attrs_match(span_b, target)

    def test_service_mismatch(self, design_set):
        _, span_b = design(design_set, "B")
        target = observed(ROOT, "aspnet_core.request", "gateway")
        assert not attrs_match(span_b, target)

    def test_missing_required_attribute_key(self):
        pattern = DesignSpan(
            design_span_id="X",
            name="op",
            match_attributes={"service.name": "svc", "http.method": "GET"},
        )
        assert not attrs_match(pattern, observed(ROOT, "op", "svc"))
        assert attrs_match(pattern, observed(ROOT, "op", "svc", attributes={"http.method": "GET"}))

    def test_extra_observed_attributes_ignored(self):
        pattern = DesignSpan(design_span_id="X", name="op", match_attributes={"service.name": "svc"})
        span = observed(ROOT, "op", "svc", attributes={"anything": "else", "n": 4})
        assert attrs_match(pattern, span)

    def test_type_strict_value_comparison(self):
        pattern = DesignSpan(
            design_span_id="X",
            name="op",
            match_attributes={"service.name": "svc", "code": 200},
        )
        assert not attrs_match(pattern, observed(ROOT, "op", "svc", attributes={"code": "200"}))
        assert attrs_match(pattern, observed(ROOT, "op", "svc", attributes={"code": 200}))


class TestDurationOk:
    def test_within_bound(self, design_set):
        _, span_a = design(design_set, "A")
        assert duration_ok(span_a, observed(ROOT, "aspnet_core.request", "gateway", duration_micros=120_000))

    def test_boundary_is_inclusive(self, design_set):
        _, span_a = design(design_set, "A")
        assert duration_ok(span_a, observed(ROOT, "aspnet_core.request", "gateway", duration_micros=500_000))
        assert not duration_ok(
            span_a, observed(ROOT, "aspnet_core.request", "gateway", duration_micros=500_001)
        )

    def test_absent_bound_accepts_anything(self, design_set):
        _, span_b = design(design_set, "B")
        slow = observed(MS_REQUEST, "aspnet_core.request", "microservice", duration_micros=10**9)
        assert duration_ok(span_b, slow)


class TestChainMatches:
    def test_grandparent_chain_satisfies_non_immediate_parent(self, design_set):
        trace = gateway_trace()
        design_trace, span_c = design(design_set, "C")
        assert match_witnesses(design_trace, trace)[span_c.design_span_id] == MS_QUERY

    def test_parentless_pattern_anchors_anywhere(self, design_set):
        nested_root = [
            observed("00000000000000aa", "wrapper", "testapp", duration_micros=200_000),
        ]
        spans = list(gateway_trace(extra=nested_root).spans.values())
        rehung = [
            s if s.span_id != ROOT else ObservedSpan(
                trace_id=TRACE_ID,
                span_id=ROOT,
                parent_span_id="00000000000000aa",
                name=s.name,
                service_name=s.service_name,
                start_time_nanos=s.start_time_nanos,
                end_time_nanos=s.end_time_nanos,
                attributes=s.attributes,
            )
            for s in spans
        ]
        trace = ObservedTrace.from_spans(TRACE_ID, rehung)
        design_trace, span_a = design(design_set, "A")
        assert match_witnesses(design_trace, trace)[span_a.design_span_id] == ROOT

    def test_no_matching_ancestor_fails(self, design_set):
        # A microservice request with no gateway request anywhere above it.
        spans = [
            observed(CLIENT, "http.client", "gateway"),
            observed(MS_REQUEST, "aspnet_core.request", "microservice", parent=CLIENT),
        ]
        trace = ObservedTrace.from_spans(TRACE_ID, spans)
        design_trace, span_b = design(design_set, "B")
        assert match_witnesses(design_trace, trace)[span_b.design_span_id] is None

    def test_immediate_parent_mode_rejects_grandparent(self):
        parent = DesignSpan(design_span_id="P", name="root-op", match_attributes={"service.name": "svc"})
        child = DesignSpan(
            design_span_id="Q",
            name="leaf-op",
            match_attributes={"service.name": "svc"},
            parent_design_span_id="P",
            allow_non_immediate_parent=False,
        )
        design_trace = DesignTrace(design_trace_id="t", spans={"P": parent, "Q": child})
        spans = [
            observed(ROOT, "root-op", "svc"),
            observed(CLIENT, "hop", "svc", parent=ROOT),
            observed(MS_REQUEST, "leaf-op", "svc", parent=CLIENT),
        ]
        trace = ObservedTrace.from_spans(TRACE_ID, spans)
        assert match_witnesses(design_trace, trace)["Q"] is None
        direct = ObservedTrace.from_spans(
            TRACE_ID,
            [observed(ROOT, "root-op", "svc"), observed(CLIENT, "leaf-op", "svc", parent=ROOT)],
        )
        assert match_witnesses(design_trace, direct)["Q"] == CLIENT

    def test_dangling_parent_is_chain_terminal(self):
        parent = DesignSpan(design_span_id="P", name="root-op", match_attributes={"service.name": "svc"})
        child = DesignSpan(
            design_span_id="Q",
            name="leaf-op",
            match_attributes={"service.name": "svc"},
            parent_design_span_id="P",
            allow_non_immediate_parent=True,
        )
        design_trace = DesignTrace(design_trace_id="t", spans={"P": parent, "Q": child})
        trace = ObservedTrace.from_spans(
            TRACE_ID, [observed(ROOT, "leaf-op", "svc", parent="00000000000000ff")]
        )
        assert match_witnesses(design_trace, trace)["Q"] is None

    def test_ancestor_duration_does_not_veto_chain(self, design_set):
        # The root is over its own budget, but budgets bind only the span
        # being witnessed, so the chain under it still matches.
        trace = gateway_trace(root_duration_micros=600_000)
        design_trace, span_b = design(design_set, "B")
        assert match_witnesses(design_trace, trace)[span_b.design_span_id] == MS_REQUEST


    def test_child_listed_before_parent_resolves(self):
        # Design spans resolve parents first, whatever their id order.
        parent = DesignSpan(design_span_id="Z", name="root-op", match_attributes={"service.name": "svc"})
        child = DesignSpan(
            design_span_id="A",
            name="leaf-op",
            match_attributes={"service.name": "svc"},
            parent_design_span_id="Z",
            allow_non_immediate_parent=True,
        )
        design_trace = DesignTrace(design_trace_id="t", spans={"A": child, "Z": parent})
        trace = ObservedTrace.from_spans(
            TRACE_ID,
            [
                observed(ROOT, "root-op", "svc"),
                observed(CLIENT, "hop", "svc", parent=ROOT),
                observed(MS_REQUEST, "leaf-op", "svc", parent=CLIENT),
            ],
        )
        assert match_witnesses(design_trace, trace) == {"A": MS_REQUEST, "Z": ROOT}

    def test_unknown_design_parent_raises(self):
        orphan = DesignSpan(
            design_span_id="Q",
            name="leaf-op",
            match_attributes={"service.name": "svc"},
            parent_design_span_id="missing",
        )
        design_trace = DesignTrace(design_trace_id="t", spans={"Q": orphan})
        trace = ObservedTrace.from_spans(TRACE_ID, [observed(ROOT, "leaf-op", "svc")])
        with pytest.raises(ValueError, match="design trace t"):
            check_required(design_trace, trace)


class TestCheckRequired:
    def required_trace(self, design_set):
        return design_set.required_traces[0]

    def test_conformant_shape_has_no_violations(self, design_set):
        assert check_required(self.required_trace(design_set), gateway_trace()) == []

    def test_slow_root_is_exactly_one_duration_violation(self, design_set):
        violations = check_required(self.required_trace(design_set), gateway_trace(root_duration_micros=600_000))
        assert violations == [
            Violation(
                kind=ViolationKind.DURATION_EXCEEDED,
                design_trace_id="required-flow",
                design_span_id="A",
                observed_span_id=ROOT,
            )
        ]

    def test_missing_query_is_missing_required(self, design_set):
        violations = check_required(self.required_trace(design_set), gateway_trace(ms_query=False))
        assert violations == [
            Violation(
                kind=ViolationKind.MISSING_REQUIRED,
                design_trace_id="required-flow",
                design_span_id="C",
            )
        ]

    def test_duration_witness_prefers_minimal_duration_then_id(self):
        pattern = DesignTrace(
            design_trace_id="t",
            spans={
                "X": DesignSpan(
                    design_span_id="X",
                    name="op",
                    match_attributes={"service.name": "svc"},
                    max_duration_micros=100,
                )
            },
        )
        trace = ObservedTrace.from_spans(
            TRACE_ID,
            [
                observed("00000000000000b2", "op", "svc", duration_micros=300),
                observed("00000000000000a1", "op", "svc", duration_micros=500),
                observed("00000000000000c3", "op", "svc", duration_micros=300),
            ],
        )
        violations = check_required(pattern, trace)
        assert violations[0].observed_span_id == "00000000000000b2"


class TestCheckDisallowed:
    def disallowed_trace(self, design_set):
        return design_set.disallowed_traces[0]

    def test_gateway_query_fires_joint_pattern(self, design_set):
        violations = check_disallowed(self.disallowed_trace(design_set), gateway_trace(gw_query=True))
        assert violations == [
            Violation(
                kind=ViolationKind.DISALLOWED_PRESENT,
                design_trace_id="gateway-db-access",
                design_span_id="D",
                observed_span_id=ROOT,
            ),
            Violation(
                kind=ViolationKind.DISALLOWED_PRESENT,
                design_trace_id="gateway-db-access",
                design_span_id="E",
                observed_span_id=GW_QUERY,
            ),
        ]

    def test_conformant_shape_emits_nothing(self, design_set):
        assert check_disallowed(self.disallowed_trace(design_set), gateway_trace()) == []

    def test_partial_match_does_not_fire(self, design_set):
        # The root matches the disallowed pattern's anchor span, but without
        # a gateway-side query the joint pattern stays silent.
        trace = gateway_trace(gw_query=False)
        assert check_disallowed(self.disallowed_trace(design_set), trace) == []


class TestCheckTrace:
    def test_conformant_fixture(self, design_set, conformant_trace):
        verdict = check_trace(design_set, conformant_trace)
        assert verdict.conformant
        assert verdict.violations == ()

    def test_nonconformant_fixture_exact_violations(self, design_set, nonconformant_trace):
        verdict = check_trace(design_set, nonconformant_trace)
        assert not verdict.conformant
        assert verdict.violations == (
            Violation(
                kind=ViolationKind.DISALLOWED_PRESENT,
                design_trace_id="gateway-db-access",
                design_span_id="D",
                observed_span_id="a1b2c3d4e5f60718",
            ),
            Violation(
                kind=ViolationKind.DISALLOWED_PRESENT,
                design_trace_id="gateway-db-access",
                design_span_id="E",
                observed_span_id="e5f60718293a4b5c",
            ),
            Violation(
                kind=ViolationKind.DURATION_EXCEEDED,
                design_trace_id="required-flow",
                design_span_id="A",
                observed_span_id="a1b2c3d4e5f60718",
            ),
        )

    def test_empty_design_set_is_vacuously_conformant(self):
        empty = DesignTraceSet.of([])
        assert check_trace(empty, gateway_trace(gw_query=True)).conformant

    def test_verdict_is_deterministic(self, design_set):
        trace = gateway_trace(root_duration_micros=600_000, ms_query=False, gw_query=True)
        first = check_trace(design_set, trace)
        second = check_trace(design_set, trace)
        assert first == second
        keys = [(v.design_trace_id, v.design_span_id) for v in first.violations]
        assert keys == sorted(keys)

    def test_match_witnesses_reports_strict_matches(self, design_set):
        witnesses = match_witnesses(design_set.required_traces[0], gateway_trace())
        assert witnesses == {"A": ROOT, "B": MS_REQUEST, "C": MS_QUERY}
        witnesses_slow = match_witnesses(
            design_set.required_traces[0], gateway_trace(root_duration_micros=600_000)
        )
        assert witnesses_slow["A"] is None


class TestCheckCorpus:
    def test_all_conformant_percentage(self, design_set):
        traces = [with_trace_id(gateway_trace(), f"{i + 1:032x}") for i in range(10)]
        report, verdicts = check_corpus(design_set, traces, workers=1)
        assert report.total_traces == 10
        assert report.conformance_percentage == 1.0
        assert verdicts == []

    def test_empty_corpus_degenerate(self, design_set):
        report, verdicts = check_corpus(design_set, [], workers=1)
        assert report.total_traces == 0
        assert report.conformance_percentage == 0.0
        assert verdicts == []

    def test_large_ratio_is_exact_division(self):
        report = ConformanceReport(total_traces=100_000, conformant_traces=81_088)
        assert report.conformance_percentage == 81_088 / 100_000
        assert report.conformance_percentage == 0.81088
        assert report.nonconformant_traces == 18_912

    def test_workers_must_be_positive(self, design_set):
        with pytest.raises(ValueError):
            check_corpus(design_set, [], workers=0)

    def test_report_counts_by_kind_and_span(self, design_set):
        traces = [
            gateway_trace(),
            gateway_trace(root_duration_micros=600_000),
            gateway_trace(ms_query=False, gw_query=True),
        ]
        distinct = [with_trace_id(trace, f"{index + 1:032x}") for index, trace in enumerate(traces)]
        report, verdicts = check_corpus(design_set, distinct, workers=1)
        assert report.total_traces == 3
        assert report.conformant_traces == 1
        assert report.violations_by_kind[ViolationKind.DURATION_EXCEEDED] == 1
        assert report.violations_by_kind[ViolationKind.MISSING_REQUIRED] == 1
        assert report.violations_by_kind[ViolationKind.DISALLOWED_PRESENT] == 2
        assert report.traces_by_kind[ViolationKind.DISALLOWED_PRESENT] == 1
        assert report.violations_by_design_span[("required-flow", "A")] == 1
        assert report.violations_by_design_span[("gateway-db-access", "D")] == 1
        assert [v.trace_id for v in verdicts] == sorted(v.trace_id for v in verdicts)

    def test_merge_identity_and_counts(self):
        empty = ConformanceReport()
        verdict = TraceVerdict(
            trace_id=TRACE_ID,
            violations=(
                Violation(
                    kind=ViolationKind.MISSING_REQUIRED,
                    design_trace_id="dt",
                    design_span_id="A",
                ),
            ),
        )
        single = ConformanceReport.from_verdicts([verdict])
        assert empty.merge(single) == single
        assert single.merge(empty) == single
        doubled = single.merge(single)
        assert doubled.total_traces == 2
        assert doubled.violations_by_kind[ViolationKind.MISSING_REQUIRED] == 2
