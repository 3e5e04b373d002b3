"""The production checker against the brute-force reference matcher."""

from __future__ import annotations

import random
import time

from confcheck.checker import check_trace, evaluate
from confcheck.design import DesignTraceSet
from confcheck.model import DesignSpan, DesignTrace, ObservedSpan, ObservedTrace, ViolationKind

import genutil
import oracle

TRACE_ID = "0" * 31 + "1"


def deep_gateway_chain(depth, root_lost):
    """A gateway request and client hop over ``depth`` nested microservice
    requests, the deepest issuing a query. With ``root_lost`` the client
    hop's parent is missing from the trace, as when the root was dropped."""

    def span(index, parent, name, service):
        return ObservedSpan(
            trace_id=TRACE_ID,
            span_id=f"{index:016x}",
            parent_span_id=None if parent is None else f"{parent:016x}",
            name=name,
            service_name=service,
            start_time_nanos=0,
            end_time_nanos=1_000_000,
        )

    spans = [span(2, 1, "http.client", "gateway")]
    if not root_lost:
        spans.append(span(1, None, "aspnet_core.request", "gateway"))
    for level in range(depth):
        spans.append(span(level + 3, level + 2, "aspnet_core.request", "microservice"))
    spans.append(span(depth + 3, depth + 2, "sql_server.query", "microservice"))
    return ObservedTrace.from_spans(TRACE_ID, spans)


def test_deep_chain_with_lost_root_checks_in_linear_time(design_set):
    trace = deep_gateway_chain(4000, root_lost=True)
    started = time.perf_counter()
    verdict = check_trace(design_set, trace)
    elapsed = time.perf_counter() - started
    assert [(v.kind, v.design_span_id) for v in verdict.violations] == [
        (ViolationKind.MISSING_REQUIRED, "A"),
        (ViolationKind.MISSING_REQUIRED, "B"),
        (ViolationKind.MISSING_REQUIRED, "C"),
    ]
    assert elapsed < 0.25


def test_deep_chain_with_root_present_conforms(design_set):
    trace = deep_gateway_chain(4000, root_lost=False)
    started = time.perf_counter()
    verdict = check_trace(design_set, trace)
    elapsed = time.perf_counter() - started
    assert verdict.conformant
    assert elapsed < 0.25


def test_randomized_equivalence_small_sample():
    # The full thousand-instance sweep runs in the acceptance suite; this
    # keeps a quick regression signal in the unit run.
    assert oracle.run_equivalence_instances(200, seed=1234) == 200


def test_unmatched_ancestor_chain_rejected_and_oracle_agrees(design_set):
    # A microservice request whose ancestors contain no matching gateway
    # request must not witness the pattern that requires one.
    spans = [
        ObservedSpan(
            trace_id=TRACE_ID,
            span_id="00000000000000b2",
            name="http.client",
            service_name="gateway",
            start_time_nanos=0,
            end_time_nanos=1000,
        ),
        ObservedSpan(
            trace_id=TRACE_ID,
            span_id="00000000000000c3",
            parent_span_id="00000000000000b2",
            name="aspnet_core.request",
            service_name="microservice",
            start_time_nanos=0,
            end_time_nanos=1000,
        ),
    ]
    trace = ObservedTrace.from_spans(TRACE_ID, spans)
    required = design_set.required_traces[0]
    assert {span.design_span_id: witness for span, witness, _ in evaluate(required, trace)}["B"] is None
    assert "00000000000000c3" not in oracle.structural_witnesses(
        required, trace, required.spans["B"]
    )
    assert oracle.oracle_check_trace(design_set, trace) == check_trace(design_set, trace)


def test_partial_disallowed_pattern_silent_and_oracle_agrees(design_set):
    # Only the anchor of the disallowed pattern is present; neither engine
    # may emit a violation for it.
    spans = [
        ObservedSpan(
            trace_id=TRACE_ID,
            span_id="00000000000000a1",
            name="aspnet_core.request",
            service_name="gateway",
            start_time_nanos=0,
            end_time_nanos=1000,
        )
    ]
    trace = ObservedTrace.from_spans(TRACE_ID, spans)
    got = check_trace(design_set, trace)
    want = oracle.oracle_check_trace(design_set, trace)
    assert got == want
    assert all(v.design_trace_id != "gateway-db-access" for v in got.violations)


def test_deep_chain_with_repeated_attributes():
    # Every span looks alike, so chain validation alone decides; this is the
    # worst case for the memoized recursion and easy for the oracle.
    spans = []
    previous = None
    for index in range(8):
        span_id = f"{index + 1:016x}"
        spans.append(
            ObservedSpan(
                trace_id=TRACE_ID,
                span_id=span_id,
                parent_span_id=previous,
                name="op",
                service_name="svc",
                start_time_nanos=0,
                end_time_nanos=1000,
            )
        )
        previous = span_id
    trace = ObservedTrace.from_spans(TRACE_ID, spans)

    design_spans = {}
    parent = None
    for index in range(4):
        span_id = f"d{index}"
        design_spans[span_id] = DesignSpan(
            design_span_id=span_id,
            name="op",
            match_attributes={"service.name": "svc"},
            parent_design_span_id=parent,
            allow_non_immediate_parent=index % 2 == 1,
        )
        parent = span_id
    design_set = DesignTraceSet.of(
        [DesignTrace(design_trace_id="deep", spans=design_spans)]
    )
    assert check_trace(design_set, trace) == oracle.oracle_check_trace(design_set, trace)


def test_equivalence_holds_on_handpicked_seeds(design_set):
    for seed in (0, 1, 7, 99, 2**31):
        rng = random.Random(seed)
        random_set = genutil.random_design_set(rng)
        trace = genutil.random_observed_trace(rng)
        assert check_trace(random_set, trace) == oracle.oracle_check_trace(random_set, trace)
    for root_lost in (False, True):
        trace = deep_gateway_chain(10, root_lost)
        assert check_trace(design_set, trace) == oracle.oracle_check_trace(design_set, trace)
