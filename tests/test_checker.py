"""Conformance algorithm semantics: matching, chains, verdicts, reports."""

from __future__ import annotations

import dataclasses
import functools
import gc
import random
from importlib import resources

import pytest

import genutil
from confcheck import checker, ingest, runner
from confcheck.checker import ConformanceReport, check_corpus, check_partitions, check_trace, evaluate
from confcheck.design import DesignTraceSet, load_design_set
from confcheck.ingest import serialize_otel_json
from confcheck.model import (
    DesignSpan,
    DesignTrace,
    ObservedSpan,
    ObservedTrace,
    Partition,
    SpanColumns,
    TraceVerdict,
    Violation,
    ViolationKind,
    attr_values_equal,
)
from confcheck.simulator import SimConfig, write_simulated_corpus

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


def witnesses_of(design_trace, trace):
    """The witness span id per design span, or None, in design span id order."""
    return {span.design_span_id: witness for span, witness, _ in evaluate(design_trace, trace)}


def violations_of(design_trace, trace):
    """The violations ``check_trace`` finds in ``trace`` against
    ``design_trace`` alone, which need not be valid."""
    return list(check_trace(DesignTraceSet(design_traces=(design_trace,)), trace).violations)


def alone(pattern, span):
    """``evaluate``'s (witness, slow) for ``pattern`` as the one root span of
    a design trace, in a trace of ``span`` alone."""
    root = dataclasses.replace(pattern, parent_design_span_id=None)
    design_trace = DesignTrace(design_trace_id="alone", spans={root.design_span_id: root})
    [(_, witness, slow)] = evaluate(design_trace, ObservedTrace.from_spans(TRACE_ID, [span]))
    return witness, slow


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
        assert alone(span_b, target) == (MS_REQUEST, None)

    def test_service_mismatch(self, design_set):
        _, span_b = design(design_set, "B")
        target = observed(ROOT, "aspnet_core.request", "gateway")
        assert alone(span_b, target) == (None, None)

    def test_missing_required_attribute_key(self):
        pattern = DesignSpan(
            design_span_id="X",
            name="op",
            match_attributes={"service.name": "svc", "http.method": "GET"},
        )
        assert alone(pattern, observed(ROOT, "op", "svc")) == (None, None)
        assert alone(pattern, observed(ROOT, "op", "svc", attributes={"http.method": "GET"})) == (ROOT, None)

    def test_extra_observed_attributes_ignored(self):
        pattern = DesignSpan(design_span_id="X", name="op", match_attributes={"service.name": "svc"})
        span = observed(ROOT, "op", "svc", attributes={"anything": "else", "n": 4})
        assert alone(pattern, span) == (ROOT, None)

    def test_type_strict_value_comparison(self):
        pattern = DesignSpan(
            design_span_id="X",
            name="op",
            match_attributes={"service.name": "svc", "code": 200},
        )
        assert alone(pattern, observed(ROOT, "op", "svc", attributes={"code": "200"})) == (None, None)
        assert alone(pattern, observed(ROOT, "op", "svc", attributes={"code": 200})) == (ROOT, None)

    def test_service_name_field_wins_over_attribute(self):
        # A span's own service.name attribute cannot spoof its resource.
        pattern = DesignSpan(design_span_id="X", name="op", match_attributes={"service.name": "svc"})
        spoofed = observed(ROOT, "op", "other", attributes={"service.name": "svc"})
        assert alone(pattern, spoofed) == (None, None)
        overridden = observed(ROOT, "op", "svc", attributes={"service.name": "other"})
        assert alone(pattern, overridden) == (ROOT, None)


class TestDurationOk:
    def test_within_bound(self, design_set):
        _, span_a = design(design_set, "A")
        root = observed(ROOT, "aspnet_core.request", "gateway", duration_micros=120_000)
        assert alone(span_a, root) == (ROOT, None)

    def test_boundary_is_inclusive(self, design_set):
        _, span_a = design(design_set, "A")
        at_bound = observed(ROOT, "aspnet_core.request", "gateway", duration_micros=500_000)
        assert alone(span_a, at_bound) == (ROOT, None)
        over_bound = observed(ROOT, "aspnet_core.request", "gateway", duration_micros=500_001)
        assert alone(span_a, over_bound) == (None, ROOT)

    def test_absent_bound_accepts_anything(self, design_set):
        _, span_b = design(design_set, "B")
        slow = observed(MS_REQUEST, "aspnet_core.request", "microservice", duration_micros=10**9)
        assert alone(span_b, slow) == (MS_REQUEST, None)


class TestChainMatches:
    def test_grandparent_chain_satisfies_non_immediate_parent(self, design_set):
        trace = gateway_trace()
        design_trace, span_c = design(design_set, "C")
        assert witnesses_of(design_trace, trace)[span_c.design_span_id] == MS_QUERY

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
        assert witnesses_of(design_trace, trace)[span_a.design_span_id] == ROOT

    def test_no_matching_ancestor_fails(self, design_set):
        # A microservice request with no gateway request anywhere above it.
        spans = [
            observed(CLIENT, "http.client", "gateway"),
            observed(MS_REQUEST, "aspnet_core.request", "microservice", parent=CLIENT),
        ]
        trace = ObservedTrace.from_spans(TRACE_ID, spans)
        design_trace, span_b = design(design_set, "B")
        assert witnesses_of(design_trace, trace)[span_b.design_span_id] is None

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
        assert witnesses_of(design_trace, trace)["Q"] is None
        direct = ObservedTrace.from_spans(
            TRACE_ID,
            [observed(ROOT, "root-op", "svc"), observed(CLIENT, "leaf-op", "svc", parent=ROOT)],
        )
        assert witnesses_of(design_trace, direct)["Q"] == CLIENT

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
        assert witnesses_of(design_trace, trace)["Q"] is None

    def test_ancestor_duration_does_not_veto_chain(self, design_set):
        # The root is over its own budget, but budgets bind only the span
        # being witnessed, so the chain under it still matches.
        trace = gateway_trace(root_duration_micros=600_000)
        design_trace, span_b = design(design_set, "B")
        assert witnesses_of(design_trace, trace)[span_b.design_span_id] == MS_REQUEST


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
        assert witnesses_of(design_trace, trace) == {"A": MS_REQUEST, "Z": ROOT}

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
            violations_of(design_trace, trace)


class TestCheckRequired:
    def required_trace(self, design_set):
        return design_set.required_traces[0]

    def test_conformant_shape_has_no_violations(self, design_set):
        assert violations_of(self.required_trace(design_set), gateway_trace()) == []

    def test_slow_root_is_exactly_one_duration_violation(self, design_set):
        violations = violations_of(self.required_trace(design_set), gateway_trace(root_duration_micros=600_000))
        assert violations == [
            Violation(
                kind=ViolationKind.DURATION_EXCEEDED,
                design_trace_id="required-flow",
                design_span_id="A",
                observed_span_id=ROOT,
            )
        ]

    def test_missing_query_is_missing_required(self, design_set):
        violations = violations_of(self.required_trace(design_set), gateway_trace(ms_query=False))
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
        violations = violations_of(pattern, trace)
        assert violations[0].observed_span_id == "00000000000000b2"


class TestCheckDisallowed:
    def disallowed_trace(self, design_set):
        return design_set.disallowed_traces[0]

    def test_gateway_query_fires_joint_pattern(self, design_set):
        violations = violations_of(self.disallowed_trace(design_set), gateway_trace(gw_query=True))
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
        assert violations_of(self.disallowed_trace(design_set), gateway_trace()) == []

    def test_partial_match_does_not_fire(self, design_set):
        # The root matches the disallowed pattern's anchor span, but without
        # a gateway-side query the joint pattern stays silent.
        trace = gateway_trace(gw_query=False)
        assert violations_of(self.disallowed_trace(design_set), trace) == []


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

    def test_evaluate_reports_strict_witnesses(self, design_set):
        witnesses = witnesses_of(design_set.required_traces[0], gateway_trace())
        assert witnesses == {"A": ROOT, "B": MS_REQUEST, "C": MS_QUERY}
        witnesses_slow = witnesses_of(
            design_set.required_traces[0], gateway_trace(root_duration_micros=600_000)
        )
        assert witnesses_slow["A"] is None


class TestEvaluate:
    """One outcome per design span, in design span id order: (design span,
    witness, slow)."""

    def outcomes(self, design_set, trace):
        return [
            (span.design_span_id, witness, slow)
            for span, witness, slow in evaluate(design_set.required_traces[0], trace)
        ]

    def test_conformant_trace_has_a_witness_per_span(self, design_set):
        assert self.outcomes(design_set, gateway_trace()) == [
            ("A", ROOT, None),
            ("B", MS_REQUEST, None),
            ("C", MS_QUERY, None),
        ]

    def test_slow_root_has_no_witness_and_does_not_veto_its_chain(self, design_set):
        assert self.outcomes(design_set, gateway_trace(root_duration_micros=600_000)) == [
            ("A", None, ROOT),
            ("B", MS_REQUEST, None),
            ("C", MS_QUERY, None),
        ]

    def test_missing_span_has_neither(self, design_set):
        assert self.outcomes(design_set, gateway_trace(ms_query=False))[2] == ("C", None, None)

    def test_a_witness_clears_slow_matches_before_it(self):
        pattern = DesignTrace(
            design_trace_id="t",
            spans={
                "X": DesignSpan(
                    design_span_id="X", name="op", match_attributes={"service.name": "svc"}, max_duration_micros=100
                )
            },
        )
        slow = observed(ROOT, "op", "svc", duration_micros=500)
        fast = observed(NOISE, "op", "svc", duration_micros=50)
        [(span, witness, over)] = evaluate(pattern, ObservedTrace.from_spans(TRACE_ID, [slow, fast]))
        assert (span.design_span_id, witness, over) == ("X", NOISE, None)


def scan_attrs_match(design, observed):
    """The name and every match attribute, type-strictly, with the span's
    service name standing for its ``service.name``."""
    if observed.name != design.name:
        return False
    for key, expected in design.match_attributes.items():
        actual = observed.service_name if key == "service.name" else observed.attributes.get(key)
        if actual is None or not attr_values_equal(expected, actual):
            return False
    return True


def scan_within_bound(design, observed):
    bound = design.max_duration_micros
    return bound is None or observed.duration_micros <= bound


def scan_matches(design_trace, trace):
    """Structural matches per design span by an exhaustive
    ``scan_attrs_match`` scan of every observed span, with full ancestor
    walks."""
    spans = [trace.spans[span_id] for span_id in sorted(trace.spans)]
    matches = {}

    def resolve(design_span):
        if design_span.design_span_id not in matches:
            found = [span for span in spans if scan_attrs_match(design_span, span)]
            if design_span.parent_design_span_id is not None:
                parent_ids = {span.span_id for span in resolve(design_trace.spans[design_span.parent_design_span_id])}
                if design_span.allow_non_immediate_parent:
                    found = [s for s in found if any(a.span_id in parent_ids for a in trace.ancestors_of(s))]
                else:
                    found = [s for s in found if s.parent_span_id in parent_ids]
            matches[design_span.design_span_id] = found
        return matches[design_span.design_span_id]

    for design_span in design_trace.spans.values():
        resolve(design_span)
    return matches


def scan_witnesses(design_trace, trace):
    matches = scan_matches(design_trace, trace)
    return {
        span_id: next(
            (s.span_id for s in matches[span_id] if scan_within_bound(design_trace.spans[span_id], s)), None
        )
        for span_id in sorted(design_trace.spans)
    }


def scan_violations(design_trace, trace):
    """A required design trace: per design span without a match in bound, a
    DurationExceeded violation carrying its fastest match by (duration, span
    id), or a MissingRequired one. A disallowed design trace: when every
    design span has a match in bound, a DisallowedPresent violation per
    design span carrying its first."""
    matches = scan_matches(design_trace, trace)
    design_trace_id = design_trace.design_trace_id
    if design_trace.is_disallowed:
        witnessed = scan_witnesses(design_trace, trace)
        if None in witnessed.values():
            return []
        return [
            Violation(ViolationKind.DISALLOWED_PRESENT, design_trace_id, span_id, witness)
            for span_id, witness in witnessed.items()
        ]
    violations = []
    for span_id in sorted(design_trace.spans):
        design_span = design_trace.spans[span_id]
        if any(scan_within_bound(design_span, s) for s in matches[span_id]):
            continue
        slow = sorted(matches[span_id], key=lambda s: (s.duration_micros, s.span_id))
        kind = ViolationKind.DURATION_EXCEEDED if slow else ViolationKind.MISSING_REQUIRED
        violations.append(Violation(kind, design_trace_id, span_id, slow[0].span_id if slow else None))
    return violations


def scan_outcomes(design_trace, trace):
    """``evaluate``'s outcomes from the exhaustive scan: the first match in
    bound, else the fastest match by (duration, span id), as span ids."""
    matches = scan_matches(design_trace, trace)
    outcomes = []
    for span_id in sorted(design_trace.spans):
        design_span = design_trace.spans[span_id]
        in_bound = [s.span_id for s in matches[span_id] if scan_within_bound(design_span, s)]
        slow = sorted(matches[span_id], key=lambda s: (s.duration_micros, s.span_id))
        if in_bound:
            outcomes.append((design_span, in_bound[0], None))
        else:
            outcomes.append((design_span, None, slow[0].span_id if slow else None))
    return outcomes


def assert_index_equals_scan(design_trace, trace):
    assert evaluate(design_trace, trace) == scan_outcomes(design_trace, trace)
    assert witnesses_of(design_trace, trace) == scan_witnesses(design_trace, trace)
    assert violations_of(design_trace, trace) == scan_violations(design_trace, trace)


class TestCandidateIndex:
    """The (name, service name) candidate index gives exactly what a scan of
    every observed span gives."""

    def test_design_span_without_service_matches_by_name(self):
        # Possible only for an unvalidated DesignTrace.
        pattern = DesignSpan(design_span_id="X", name="aspnet_core.request", match_attributes={})
        design_trace = DesignTrace(design_trace_id="unvalidated", spans={"X": pattern})
        trace = gateway_trace()
        assert_index_equals_scan(design_trace, trace)
        assert witnesses_of(design_trace, trace) == {"X": ROOT}

    def test_design_span_without_service_still_checks_other_attributes(self):
        pattern = DesignSpan(design_span_id="X", name="op", match_attributes={"code": 7})
        design_trace = DesignTrace(design_trace_id="unvalidated", spans={"X": pattern})
        trace = ObservedTrace.from_spans(
            TRACE_ID,
            [observed(NOISE, "op", "b", attributes={"code": 7}), observed(ROOT, "op", "a", attributes={"code": "7"})],
        )
        assert_index_equals_scan(design_trace, trace)
        assert witnesses_of(design_trace, trace) == {"X": NOISE}

    @pytest.mark.parametrize("service", [1, True, 1.0])
    def test_non_string_service_matches_nothing(self, service):
        spans = {
            "S": DesignSpan(design_span_id="S", name="x", match_attributes={"service.name": service}),
            "T": DesignSpan(design_span_id="T", name="x", match_attributes={"service.name": True}),
            "U": DesignSpan(design_span_id="U", name="x", match_attributes={"service.name": 1}),
        }
        design_trace = DesignTrace(design_trace_id="typed", spans=spans)
        trace = ObservedTrace.from_spans(
            TRACE_ID,
            [
                observed(ROOT, "x", "1"),
                observed(CLIENT, "x", "True"),
                observed(MS_REQUEST, "x", "1.0"),
                observed(NOISE, "x", "svc", attributes={"service.name": service}),
            ],
        )
        assert_index_equals_scan(design_trace, trace)
        assert witnesses_of(design_trace, trace) == {"S": None, "T": None, "U": None}

    def test_nan_valued_extra_attribute(self):
        nan = float("nan")
        pattern = DesignSpan(design_span_id="X", name="op", match_attributes={"service.name": "svc", "ratio": nan})
        design_trace = DesignTrace(design_trace_id="nan", spans={"X": pattern})
        trace = ObservedTrace.from_spans(
            TRACE_ID,
            [
                observed(ROOT, "op", "svc", attributes={"ratio": 0.5}),
                observed(CLIENT, "op", "svc", attributes={"ratio": "nan"}),
                observed(NOISE, "op", "svc", attributes={"ratio": nan}),
            ],
        )
        assert_index_equals_scan(design_trace, trace)
        assert witnesses_of(design_trace, trace) == {"X": NOISE}

    def test_bucket_follows_span_id_order_not_insertion_order(self):
        later, earlier = "00000000000000f2", "00000000000000a1"
        bounded = DesignSpan(
            design_span_id="X", name="op", match_attributes={"service.name": "svc"}, max_duration_micros=10
        )
        design_trace = DesignTrace(design_trace_id="order", spans={"X": bounded})
        trace = ObservedTrace.from_spans(
            TRACE_ID, [observed(later, "op", "svc", duration_micros=50), observed(earlier, "op", "svc", duration_micros=50)]
        )
        assert list(trace.spans) == [later, earlier]
        assert_index_equals_scan(design_trace, trace)
        # Equal durations: the DurationExceeded witness is the smaller id.
        assert violations_of(design_trace, trace)[0].observed_span_id == earlier
        unbounded = DesignTrace(
            design_trace_id="order",
            spans={"X": DesignSpan(design_span_id="X", name="op", match_attributes={"service.name": "svc"})},
        )
        assert_index_equals_scan(unbounded, trace)
        assert witnesses_of(unbounded, trace) == {"X": earlier}

    def test_random_instances(self):
        rng = random.Random(20261018)
        for _ in range(300):
            design_set = genutil.random_design_set(rng)
            trace = genutil.random_observed_trace(rng)
            for design_trace in design_set.design_traces:
                assert_index_equals_scan(design_trace, trace)


class TestMatchPlan:
    """Each design trace is compiled once into a parents-first plan."""

    def test_plan_is_compiled_once_per_design_trace(self, monkeypatch):
        design_set = load_design_set(resources.files("confcheck").joinpath("fixtures/table2.design.json").read_bytes())
        compiled = []
        real_compile = checker.compile_match_plan

        def counting_compile(design_trace):
            compiled.append(design_trace.design_trace_id)
            return real_compile(design_trace)

        monkeypatch.setattr(checker, "compile_match_plan", counting_compile)
        trace = gateway_trace(gw_query=True)
        verdicts = {check_trace(design_set, trace) for _ in range(100)}
        assert len(verdicts) == 1
        assert sorted(compiled) == ["gateway-db-access", "required-flow"]

    def test_steps_run_parents_first_and_report_in_id_order(self):
        spans = {
            "a": DesignSpan(
                design_span_id="a", name="child", match_attributes={"service.name": "s"}, parent_design_span_id="z"
            ),
            "z": DesignSpan(design_span_id="z", name="root", match_attributes={"service.name": "s", "k": 1}),
            "m": DesignSpan(design_span_id="m", name="free", match_attributes={}, max_duration_micros=5),
        }
        plan = DesignTrace(design_trace_id="t", spans=spans).match_plan
        assert [step.span.design_span_id for step in plan.steps] == ["m", "z", "a"]
        assert [plan.steps[position].span.design_span_id for position in plan.by_id] == ["a", "m", "z"]
        assert [(step.bucket, step.attributes, step.parent) for step in plan.steps] == [
            (None, (), -1),
            (("root", "s"), (("k", 1),), -1),
            (("child", "s"), (), 1),
        ]
        assert plan.steps[0].max_duration_micros == 5

    def test_str_subclass_services_match_type_strictly(self):
        class Service(str):
            pass

        spans = {
            span_id: DesignSpan(design_span_id=span_id, name="op", match_attributes={"service.name": service})
            for span_id, service in (("exact", "svc"), ("subclass", Service("svc")))
        }
        design_trace = DesignTrace(design_trace_id="typed", spans=spans)
        for services in (("svc", Service("svc")), (Service("svc"), "svc")):
            trace = ObservedTrace.from_spans(
                TRACE_ID, [observed(ROOT, "op", services[0]), observed(NOISE, "op", services[1])]
            )
            assert_index_equals_scan(design_trace, trace)
            witnesses = witnesses_of(design_trace, trace)
            assert sorted(witnesses.values()) == sorted([ROOT, NOISE])

    @pytest.mark.parametrize(
        "parents",
        [{"A": "missing"}, {"A": "B", "B": "A"}, {"A": None, "B": "C", "C": "B"}],
        ids=["unknown", "cycle", "cycle-beside-a-root"],
    )
    def test_unknown_or_cyclic_parents_raise_on_every_call(self, parents):
        spans = {
            span_id: DesignSpan(
                design_span_id=span_id,
                name="aspnet_core.request",
                match_attributes={"service.name": "gateway"},
                parent_design_span_id=parent,
            )
            for span_id, parent in parents.items()
        }
        design_trace = DesignTrace(design_trace_id="broken", spans=spans)
        for check in (violations_of, witnesses_of, violations_of):
            with pytest.raises(ValueError) as excinfo:
                check(design_trace, gateway_trace())
            assert str(excinfo.value) == "design trace broken: unknown or cyclic design parents"


class TestCollectorState:
    """check_partitions runs its reads, exchanges and checks under
    runner.run, with the cyclic collector off, and leaves the caller's
    collector state as it found it."""

    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_state_restored_after_check(self, design_set, collector, partitions):
        traces = [with_trace_id(gateway_trace(), f"{index + 1:032x}") for index in range(4)]
        spans = [span for trace in traces for span in trace.spans.values()]
        seen = []

        def read(index):
            # Each worker reads every other span, unassembled, so at two
            # workers every trace crosses their reads and is exchanged.
            seen.append(gc.isenabled())
            columns = SpanColumns()
            columns.extend_spans(spans[index::partitions])
            return columns, []

        load = functools.partial(runner.worker_partition, read)
        report, verdicts, warnings = check_partitions(design_set, load, partitions)
        assert (report.total_traces, verdicts, warnings) == (4, [], 0)
        assert gc.isenabled() is collector
        if partitions == 1:
            assert seen == [False]

    @pytest.mark.parametrize("partitions", [1, 2])
    def test_state_restored_after_error(self, design_set, collector, partitions):
        def read(index):
            raise ingest.MalformedDocumentError(f"bad partition {index}")

        with pytest.raises(ingest.MalformedDocumentError):
            check_partitions(design_set, functools.partial(runner.worker_partition, read), partitions)
        assert gc.isenabled() is collector


def _loaded_traces_as_columns(directory, index):
    traces, warnings = ingest.load_corpus_dir(directory)
    columns = SpanColumns()
    columns.extend_spans([span for trace in traces for span in trace.spans.values()])
    return columns, warnings


def _read_directory(directory, index):
    return ingest.read_files(sorted(directory.glob("*.json")))


# Columns built from loaded span objects, and columns read from the files, as
# load_corpus_dir and load_partition read them.
LOADERS = {"load_corpus_dir": _loaded_traces_as_columns, "load_partition": _read_directory}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_partition_is_dropped_before_the_collector_returns(design_set, tmp_path, monkeypatch, loader):
    # runner.run re-enables the collector as it returns; were a partition's
    # spans still alive then, the next allocation could start a pass over
    # all of them.
    (tmp_path / "a.json").write_text(
        serialize_otel_json([with_trace_id(gateway_trace(), f"{index + 1:032x}") for index in range(20)])
    )

    def live_spans():
        return sum(1 for obj in gc.get_objects() if type(obj) in (ObservedSpan, Partition))

    was_enabled = gc.isenabled()
    gc.enable()
    before = live_spans()
    alive_at_enable = []
    real_enable = gc.enable

    def counting_enable():
        alive_at_enable.append(live_spans() - before)
        real_enable()

    monkeypatch.setattr(gc, "enable", counting_enable)
    try:
        read = functools.partial(LOADERS[loader], tmp_path)
        report, _, _ = check_partitions(design_set, functools.partial(runner.worker_partition, read), 1)
    finally:
        monkeypatch.undo()
        (gc.enable if was_enabled else gc.disable)()
    assert report.total_traces == 20
    assert alive_at_enable == [0]


@pytest.mark.parametrize("workers", [1, 2])
def test_check_leaves_no_unreachable_objects(design_set, tmp_path, workers):
    # runner.run pauses the cyclic collector for a check, which holds only
    # while the check builds no reference cycles.
    config = SimConfig(seed=7, trace_count=400, p_omit=0.07, p_slow=0.06, p_direct=0.075)
    write_simulated_corpus(config, tmp_path, 100, 2)

    def check():
        read, served = ingest.corpus_reader(tmp_path, workers)
        return check_partitions(design_set, functools.partial(runner.worker_partition, read), served)[0]

    check()  # the first run's imports leave cycles of their own
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert check().total_traces == 400
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


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

    def test_workers_never_trade(self, design_set, monkeypatch):
        # Each worker holds whole traces, so there is nothing to exchange.
        # Forked workers inherit the patch.
        def trade(exchange, columns):
            raise AssertionError("check_corpus traded")

        monkeypatch.setattr(runner.Exchange, "trade", trade)
        traces = [with_trace_id(gateway_trace(), f"{index + 1:032x}") for index in range(6)]
        traces.append(with_trace_id(gateway_trace(root_duration_micros=600_000), f"{7:032x}"))
        report, verdicts = check_corpus(design_set, traces, workers=2)
        assert (report, verdicts) == check_corpus(design_set, traces, workers=1)
        assert (report.total_traces, [verdict.trace_id for verdict in verdicts]) == (7, [f"{7:032x}"])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeated_trace_id_raises_at_any_worker_count(self, design_set, workers):
        # Sorted, two workers would cut the ids a, b, b, c between the b's.
        ids = [f"{index:032x}" for index in (1, 2, 2, 3)]
        traces = [with_trace_id(gateway_trace(), trace_id) for trace_id in ids]
        with pytest.raises(ValueError, match="a trace id appears in more than one of the traces"):
            check_corpus(design_set, traces, workers=workers)

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
