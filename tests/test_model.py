"""Domain type invariants and the duration derivation."""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcheck.model import (
    CyclicParentChainError,
    DuplicateSpanIdError,
    ObservedSpan,
    ObservedTrace,
    TraceVerdict,
    Violation,
    ViolationKind,
    attr_values_equal,
    parent_cycles,
    validate_span_id,
    validate_trace_id,
)

TRACE_ID = "0" * 31 + "1"


def make_span(span_id="00000000000000a1", parent=None, start=0, end=0, **kwargs):
    defaults = dict(
        trace_id=TRACE_ID,
        span_id=span_id,
        parent_span_id=parent,
        name="op",
        service_name="svc",
        start_time_nanos=start,
        end_time_nanos=end,
    )
    defaults.update(kwargs)
    return ObservedSpan(**defaults)


class TestIds:
    def test_valid_ids_pass(self):
        assert validate_span_id("00000000000000a1") == "00000000000000a1"
        assert validate_trace_id(TRACE_ID) == TRACE_ID

    @pytest.mark.parametrize(
        "bad",
        ["", "abc", "0" * 16, "0" * 15 + "G", "A" * 16, "0" * 17, None, 42],
    )
    def test_bad_span_ids_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_span_id(bad)

    @pytest.mark.parametrize("bad", ["", "0" * 32, "0" * 31 + "x", "0" * 16, "F" * 32])
    def test_bad_trace_ids_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_trace_id(bad)

    # Near misses of a valid id: one upper-case digit, one character short
    # or long, a trailing newline in place of the last digit, and a digit
    # outside ASCII.
    NEAR_MISSES = [
        lambda n: "a" * (n - 1) + "B",
        lambda n: "a" * (n - 1),
        lambda n: "a" * (n + 1),
        lambda n: "a" * n + "\n",
        lambda n: "a" * (n - 1) + "\n",
        lambda n: "a" * (n - 1) + "\u0663",
    ]
    NEAR_MISS_IDS = ["upper-case", "short", "long", "trailing-newline", "newline-for-digit", "arabic-indic-digit"]

    @pytest.mark.parametrize("near_miss", NEAR_MISSES, ids=NEAR_MISS_IDS)
    def test_near_miss_ids_rejected(self, near_miss):
        with pytest.raises(ValueError):
            validate_span_id(near_miss(16))
        with pytest.raises(ValueError):
            validate_trace_id(near_miss(32))
        with pytest.raises(ValueError):
            make_span(span_id=near_miss(16))
        with pytest.raises(ValueError):
            make_span(parent=near_miss(16))
        with pytest.raises(ValueError):
            make_span(trace_id=near_miss(32))


class TestDuration:
    def test_zero_length_span(self):
        assert make_span(start=0, end=0).duration_micros == 0

    def test_half_second_span(self):
        assert make_span(start=0, end=500_000_000).duration_micros == 500_000

    def test_truncates_sub_microsecond_remainder(self):
        assert make_span(start=0, end=1_999).duration_micros == 1

    @given(
        start=st.integers(0, 2**40),
        delta1=st.integers(0, 2**30),
        delta2=st.integers(0, 2**30),
    )
    @settings(max_examples=200)
    def test_monotone_in_end_time(self, start, delta1, delta2):
        lo, hi = sorted((delta1, delta2))
        shorter = make_span(start=start, end=start + lo)
        longer = make_span(start=start, end=start + hi)
        assert shorter.duration_micros <= longer.duration_micros


class TestObservedSpanInvariants:
    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            make_span(start=10, end=9)

    def test_empty_service_rejected(self):
        with pytest.raises(ValueError):
            make_span(service_name="")

    def test_bad_attribute_value_rejected(self):
        with pytest.raises(ValueError):
            make_span(attributes={"k": None})
        with pytest.raises(ValueError):
            make_span(attributes={"k": [1, 2]})
        with pytest.raises(ValueError):
            make_span(attributes={"k": 2**63})

    def test_non_string_attribute_key_rejected(self):
        with pytest.raises(ValueError, match="attribute key must be a string"):
            make_span(attributes={5: "x"})

    def test_bad_link_rejected(self):
        with pytest.raises(ValueError):
            make_span(links=((TRACE_ID, "nothex"),))

    def test_service_name_wins_in_attribute_view(self):
        span = make_span(attributes={"service.name": "spoofed"})
        assert span.lookup_attribute("service.name") == "svc"


ZERO_TRACE = "0" * 32


class TestSlottedSpan:
    def test_span_has_no_instance_dict(self):
        span = make_span()
        assert not hasattr(span, "__dict__")
        assert not hasattr(ObservedTrace.from_spans(TRACE_ID, [span]), "__dict__")

    def test_assigning_a_field_raises(self):
        span = make_span()
        with pytest.raises(dataclasses.FrozenInstanceError):
            span.name = "other"
        trace = ObservedTrace.from_spans(TRACE_ID, [span])
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.trace_id = "0" * 31 + "2"

    def test_pickle_round_trips_span_and_trace(self):
        root = make_span(attributes={"k": 1.5, "ok": True}, links=((TRACE_ID, "00000000000000ff"),))
        child = make_span("00000000000000b2", parent=root.span_id, start=5, end=9)
        orphan = make_span("00000000000000c3", parent="00000000000000dd")
        trace = ObservedTrace.from_spans(TRACE_ID, [root, child, orphan])
        assert pickle.loads(pickle.dumps(root)) == root
        copy = pickle.loads(pickle.dumps(trace))
        assert copy == trace
        assert copy.dangling_parents == frozenset({orphan.span_id})

    def test_str_subclass_ids_pass_as_before(self):
        class Hex(str):
            pass

        span = make_span(Hex("00000000000000a1"), parent=Hex("00000000000000b2"), trace_id=Hex(TRACE_ID))
        assert span.span_id == "00000000000000a1"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"trace_id": ZERO_TRACE}, "trace id must not be all zeros"),
            ({"trace_id": "A" * 32}, "trace id must be 32 lowercase hex chars, got 'AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA'"),
            ({"trace_id": None}, "trace id must be 32 lowercase hex chars, got None"),
            ({"span_id": "0" * 16}, "span id must not be all zeros"),
            ({"span_id": "00000000000000A1"}, "span id must be 16 lowercase hex chars, got '00000000000000A1'"),
            ({"span_id": 161}, "span id must be 16 lowercase hex chars, got 161"),
            ({"parent_span_id": "0" * 16}, "span id must not be all zeros"),
            ({"parent_span_id": "xyz"}, "span id must be 16 lowercase hex chars, got 'xyz'"),
            ({"name": None}, "span name must be a string, got NoneType"),
            ({"service_name": ""}, "service_name must be a non-empty string"),
            ({"service_name": 7}, "service_name must be a non-empty string"),
            ({"start_time_nanos": True}, "start time must be an unsigned 64-bit nanosecond count, got True"),
            ({"start_time_nanos": -1}, "start time must be an unsigned 64-bit nanosecond count, got -1"),
            ({"start_time_nanos": 1.0}, "start time must be an unsigned 64-bit nanosecond count, got 1.0"),
            ({"end_time_nanos": 2**64}, f"end time must be an unsigned 64-bit nanosecond count, got {2**64}"),
            ({"end_time_nanos": "5"}, "end time must be an unsigned 64-bit nanosecond count, got '5'"),
            ({"start_time_nanos": 10, "end_time_nanos": 9}, "span 00000000000000a1: end time 9 precedes start time 10"),
            ({"attributes": {5: "x"}}, "attribute key must be a string, got int"),
            ({"attributes": {"k": None}}, "attribute 'k': unsupported value type NoneType"),
            ({"attributes": {"k": 2**63}}, f"attribute 'k': integer {2**63} outside 64-bit signed range"),
            ({"links": ((TRACE_ID, "nothex"),)}, "span id must be 16 lowercase hex chars, got 'nothex'"),
            ({"links": ((ZERO_TRACE, "00000000000000a1"),)}, "trace id must not be all zeros"),
        ],
    )
    def test_rejections_keep_their_messages(self, fields, message):
        defaults = dict(trace_id=TRACE_ID, span_id="00000000000000a1", name="op", service_name="svc",
                        start_time_nanos=0, end_time_nanos=0)
        defaults.update(fields)
        with pytest.raises(ValueError) as excinfo:
            ObservedSpan(**defaults)
        assert str(excinfo.value) == message


class TestObservedTrace:
    def test_trace_id_mismatch_rejected(self):
        span = make_span()
        with pytest.raises(ValueError):
            ObservedTrace(trace_id="0" * 31 + "2", spans={span.span_id: span})

    def test_map_key_mismatch_rejected(self):
        span = make_span()
        with pytest.raises(ValueError):
            ObservedTrace(trace_id=TRACE_ID, spans={"00000000000000ff": span})

    def test_duplicate_span_ids_rejected_by_from_spans(self):
        span = make_span()
        with pytest.raises(DuplicateSpanIdError):
            ObservedTrace.from_spans(TRACE_ID, [span, span])

    def test_parent_cycle_rejected(self):
        a = make_span(span_id="00000000000000a1", parent="00000000000000b2")
        b = make_span(span_id="00000000000000b2", parent="00000000000000a1")
        with pytest.raises(CyclicParentChainError) as exc:
            ObservedTrace.from_spans(TRACE_ID, [a, b])
        assert str(exc.value) == (
            f"trace {TRACE_ID}: parent chain cycle through 00000000000000a1 -> 00000000000000b2"
        )

    def test_self_parent_rejected(self):
        a = make_span(span_id="00000000000000a1", parent="00000000000000a1")
        with pytest.raises(CyclicParentChainError):
            ObservedTrace.from_spans(TRACE_ID, [a])

    def test_dangling_parents_derived(self):
        a = make_span(span_id="00000000000000a1")
        b = make_span(span_id="00000000000000b2", parent="00000000000000a1")
        c = make_span(span_id="00000000000000c3", parent="00000000000000ee")
        trace = ObservedTrace.from_spans(TRACE_ID, [a, b, c])
        assert trace.dangling_parents == {"00000000000000c3"}
        assert trace.parent_of(c) is None
        assert [s.span_id for s in trace.ancestors_of(b)] == ["00000000000000a1"]


@pytest.mark.parametrize(
    "parents, cycles",
    [
        ({"a": None, "b": "a", "c": "b", "d": "zz"}, []),
        ({"a": "a"}, [["a"]]),
        ({"a": "b", "b": "a", "c": "e", "d": "c", "e": "d"}, [["a", "b"], ["c", "e", "d"]]),
        ({"a": "b", "b": "c", "c": "d", "d": "c"}, [["c", "d"]]),
        ({"b": "a", "a": "b"}, [["b", "a"]]),
    ],
    ids=["forest", "self-parent", "disjoint-cycles", "chain-into-cycle", "mapping-order"],
)
def test_parent_cycles_yields_each_cycle_once_in_walk_order(parents, cycles):
    assert list(parent_cycles(parents)) == cycles


attr_value_strategy = st.one_of(
    st.text(max_size=16),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.booleans(),
)


class TestAttrEquality:
    @given(attr_value_strategy)
    @settings(max_examples=200)
    def test_reflexive(self, value):
        assert attr_values_equal(value, value)

    @given(attr_value_strategy, attr_value_strategy)
    @settings(max_examples=200)
    def test_symmetric(self, a, b):
        assert attr_values_equal(a, b) == attr_values_equal(b, a)

    @given(attr_value_strategy, attr_value_strategy)
    @settings(max_examples=200)
    def test_type_strict(self, a, b):
        if type(a) is not type(b):
            assert not attr_values_equal(a, b)

    def test_known_cross_type_pairs(self):
        assert not attr_values_equal(500, "500")
        assert not attr_values_equal(True, 1)
        assert not attr_values_equal(1, 1.0)
        assert attr_values_equal("500", "500")

    def test_nan_is_reflexive(self):
        assert attr_values_equal(float("nan"), float("nan"))


class TestViolationInvariants:
    def test_missing_required_carries_no_observed_span(self):
        with pytest.raises(ValueError):
            Violation(
                kind=ViolationKind.MISSING_REQUIRED,
                design_trace_id="dt",
                design_span_id="A",
                observed_span_id="00000000000000a1",
            )

    @pytest.mark.parametrize(
        "kind", [ViolationKind.DURATION_EXCEEDED, ViolationKind.DISALLOWED_PRESENT]
    )
    def test_witnessed_kinds_require_observed_span(self, kind):
        with pytest.raises(ValueError):
            Violation(kind=kind, design_trace_id="dt", design_span_id="A")

    def test_verdict_conformance_is_derived(self):
        empty = TraceVerdict(trace_id=TRACE_ID, violations=())
        assert empty.conformant
        violation = Violation(
            kind=ViolationKind.MISSING_REQUIRED, design_trace_id="dt", design_span_id="A"
        )
        assert not TraceVerdict(trace_id=TRACE_ID, violations=(violation,)).conformant
