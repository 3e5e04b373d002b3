"""Domain type invariants and the duration derivation."""

from __future__ import annotations

import dataclasses
import inspect
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genutil
from confcheck.model import (
    _NO_ATTRIBUTES,
    CyclicParentChainError,
    DuplicateSpanIdError,
    ObservedSpan,
    ObservedTrace,
    Partition,
    SpanColumns,
    TraceVerdict,
    Violation,
    ViolationKind,
    attr_values_equal,
    attr_values_valid,
    columns_valid,
    ensure_attr_value,
    parent_cycles,
    parent_ids_valid,
    span_ids_valid,
    times_valid,
    trace_ids_valid,
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


class TestSpanConstructor:
    """``ObservedSpan.__init__`` is the one the dataclass generates, and it
    validates through __post_init__."""

    def test_signature_and_defaults_match_the_fields(self):
        parameters = list(inspect.signature(ObservedSpan).parameters.values())
        assert [p.name for p in parameters] == [f.name for f in dataclasses.fields(ObservedSpan)]
        defaults = {p.name: p.default for p in parameters if p.default is not inspect.Parameter.empty}
        assert defaults.keys() == {"parent_span_id", "attributes", "links"}
        assert defaults["parent_span_id"] is None and defaults["links"] == ()
        attributes = next(f for f in dataclasses.fields(ObservedSpan) if f.name == "attributes")
        assert attributes.default_factory is dict

    def test_each_span_gets_its_own_attribute_dict(self):
        first, second = make_span(), make_span("00000000000000b2")
        assert first.attributes == {} and first.attributes is not second.attributes

    def test_a_row_without_attributes_gives_its_span_a_new_dict(self):
        # Rows without attributes share one empty mapping; a span built from
        # such a row holds a dict of its own, so that changing it changes no
        # row and no other span.
        columns = SpanColumns()
        columns.extend_spans([make_span(), make_span("00000000000000b2")])
        columns.attributes = [_NO_ATTRIBUTES, _NO_ATTRIBUTES]
        first, second = columns.span(0), columns.span(1)
        assert first.attributes == {} and first.attributes is not _NO_ATTRIBUTES
        assert first.attributes is not second.attributes
        first.attributes["k"] = "v"
        assert _NO_ATTRIBUTES == {} and second.attributes == {} and columns.span(1).attributes == {}

    def test_positional_and_keyword_construction_agree(self):
        by_keyword = make_span(parent="00000000000000b2", attributes={"k": 1}, links=((TRACE_ID, "00000000000000ff"),))
        by_position = ObservedSpan(*(getattr(by_keyword, f.name) for f in dataclasses.fields(ObservedSpan)))
        assert by_position == by_keyword
        assert repr(by_position) == repr(by_keyword)

    def test_replace_validates_again(self):
        span = make_span()
        assert dataclasses.replace(span, name="other").name == "other"
        with pytest.raises(ValueError, match="span id must not be all zeros"):
            dataclasses.replace(span, span_id="0" * 16)


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


@given(st.integers(min_value=0, max_value=2**48 - 1))
@settings(max_examples=200, deadline=None)
def test_a_broken_trace_is_named_alike_in_any_span_order(seed):
    """A trace with parent cycles or repeated span ids gives one error, of
    one type and message, for every order of its spans, both built from
    span objects and assembled from columns among another trace's rows: the
    least repeated span id, else the cycle through the least id on any
    cycle, listed from that id."""
    rng = random.Random(seed)
    trace = genutil.random_observed_trace(rng)
    spans = list(trace.spans.values())
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:  # a cycle through one to three spans
            ring = rng.sample(range(len(spans)), rng.randint(1, min(3, len(spans))))
            for position, parent in zip(ring, ring[1:] + ring[:1]):
                spans[position] = dataclasses.replace(spans[position], parent_span_id=spans[parent].span_id)
        else:  # a copy of a span, at times with other fields
            copied = rng.choice(spans)
            spans.append(dataclasses.replace(copied, end_time_nanos=copied.end_time_nanos + rng.randrange(2)))
    other = list(genutil.random_observed_trace(rng).spans.values())

    def errors(order):
        with pytest.raises((CyclicParentChainError, DuplicateSpanIdError)) as by_objects:
            ObservedTrace.from_spans(trace.trace_id, order)
        rows = order + other
        rng.shuffle(rows)
        columns = SpanColumns()
        columns.extend_spans(rows)
        with pytest.raises((CyclicParentChainError, DuplicateSpanIdError)) as by_columns:
            Partition(columns)
        return [(type(error.value), str(error.value)) for error in (by_objects, by_columns)]

    expected = errors(spans)
    assert expected[1] == expected[0]
    ids = [span.span_id for span in spans]
    repeated = {span_id for span_id in ids if ids.count(span_id) > 1}
    named = expected[0][1].split(": ", 1)[1]
    if repeated:
        assert named == f"duplicate span id {min(repeated)}"
    else:
        parents = {span.span_id: span.parent_span_id for span in spans}
        least = min(span_id for cycle in parent_cycles(parents) for span_id in cycle)
        prefix = "parent chain cycle through "
        assert named.startswith(prefix)
        listed = named[len(prefix):].split(" -> ")
        assert listed[0] == least
        assert [parents[span_id] for span_id in listed] == listed[1:] + listed[:1]
    for _ in range(5):
        rng.shuffle(spans)
        assert errors(spans) == expected


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


def _passes(rule, *args) -> bool:
    try:
        rule(*args)
    except ValueError:
        return False
    return True


ID_VALUES = [
    "0123456789abcdef", "00000000000000ff", "0" * 16, "ABCDEF0123456789", "abc", "", "g" * 16, " " + "a" * 15,
    "\u00e9" * 16, TRACE_ID, "0" * 32, "A" * 32, 5, None, True, b"0123456789abcdef",
]
TIME_VALUES = [0, 1, 1000, 2**64 - 1, 2**64, -1, True, 1.5, "3"]
ATTR_VALUES = ["x", "", True, 1.5, float("nan"), 3, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, None, ["x"], b"x"]


class TestColumnRulesAgreeWithScalarRules:
    """Each column rule is True exactly when every value passes its scalar
    rule."""

    @given(st.lists(st.sampled_from(ID_VALUES), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_ids(self, values):
        assert span_ids_valid(values) == all(_passes(validate_span_id, value) for value in values)
        assert trace_ids_valid(values) == all(_passes(validate_trace_id, value) for value in values)
        assert parent_ids_valid(values) == all(value == "" or _passes(validate_span_id, value) for value in values)

    @given(st.lists(st.tuples(st.sampled_from(TIME_VALUES), st.sampled_from(TIME_VALUES)), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_times(self, pairs):
        starts, ends = [start for start, _ in pairs], [end for _, end in pairs]
        assert times_valid(starts, ends) == all(_passes(make_span, "00000000000000a1", None, *pair) for pair in pairs)

    @given(st.lists(st.sampled_from(ATTR_VALUES), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_attribute_values(self, values):
        assert attr_values_valid(values) == all(_passes(ensure_attr_value, "k", value) for value in values)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([TRACE_ID, "0" * 32, "A" * 32, 5, ["x"]]),
                st.sampled_from(["00000000000000a1", "0" * 16, "xyz", 7]),
                st.sampled_from(["", "00000000000000ff", "0" * 16, "xyz", 7]),
                st.sampled_from(["op", "", 5]),
                st.sampled_from(["svc", "", 5]),
                st.sampled_from([(0, 10), (10, 0), (-1, 5), (True, 5)]),
                st.sampled_from([{}, {"k": "v"}, {"k": 2**63}, {5: "v"}, {"k": None}]),
                st.sampled_from([(), ((TRACE_ID, "00000000000000ff"),), (("A" * 32, "00000000000000ff"),)]),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_columns_valid_is_every_span_check(self, rows):
        columns = SpanColumns()
        for trace_id, span_id, parent, name, service, (start, end), attributes, links in rows:
            columns.trace_ids.append(trace_id)
            columns.span_ids.append(span_id)
            columns.parent_ids.append(parent)
            columns.names.append(name)
            columns.services.append(service)
            columns.starts.append(start)
            columns.ends.append(end)
            columns.attributes.append(attributes)
            columns.links.append(links)
        built = all(
            _passes(ObservedSpan, trace_id, span_id, name, service, start, end, parent or None, attributes, links)
            for trace_id, span_id, parent, name, service, (start, end), attributes, links in rows
        )
        assert columns_valid(columns) == built


class TestSplit:
    def columns(self):
        other = "0" * 31 + "2"
        spans = [
            make_span("00000000000000a1", start=1, end=2),
            make_span("00000000000000a2", parent="00000000000000a1", links=((other, "00000000000000b1"),)),
            make_span("00000000000000b1", trace_id=other, name="other", attributes={"k": "v"}),
            make_span("00000000000000b2", trace_id=other, service_name="svc2", links=((TRACE_ID, "00000000000000a1"),)),
            make_span("00000000000000a3", parent="00000000000000a2", end=7),
        ]
        columns = SpanColumns()
        columns.extend_spans(spans)
        return columns

    def test_each_group_gets_its_rows_in_order(self):
        source, reference = self.columns(), self.columns()
        groups = [[3, 0], [], [4, 1, 2]]
        parts = source.split(groups)
        assert len(parts) == len(groups)
        for part, rows in zip(parts, groups):
            assert len(part) == len(rows)
            for slot in SpanColumns.__slots__:
                column = getattr(reference, slot)
                assert getattr(part, slot) == [column[row] for row in rows], slot
            assert [part.span(row) for row in range(len(part))] == [reference.span(row) for row in rows]
        assert parts[0].links == [((TRACE_ID, "00000000000000a1"),), ()]
        assert parts[2].links == [(), (("0" * 31 + "2", "00000000000000b1"),), ()]

    def test_source_is_left_empty(self):
        source = self.columns()
        source.split([[0, 1], [2, 3, 4]])
        assert len(source) == 0
        assert all(getattr(source, slot) == [] for slot in SpanColumns.__slots__)

    def test_an_empty_group_gives_empty_columns(self):
        for part in self.columns().split([[]]) + SpanColumns().split([[], []]):
            assert all(getattr(part, slot) == [] for slot in SpanColumns.__slots__)


class TestPartition:
    def test_parents_resolve_within_their_trace(self):
        other = "0" * 31 + "2"
        spans = [
            make_span("00000000000000a1"),
            make_span("00000000000000a2", parent="00000000000000a1"),
            # Its parent id names a span of another trace: dangling here.
            make_span("00000000000000b1", parent="00000000000000a1", trace_id=other),
        ]
        columns = SpanColumns()
        columns.extend_spans(spans)
        partition = Partition(columns)
        assert partition.parent_rows == [-1, 0, -1]
        assert partition.dangling == [2]
        traces = [ObservedTrace.from_spans(TRACE_ID, spans[:2]), ObservedTrace.from_spans(other, spans[2:])]
        trusted = Partition.from_traces(traces)
        assert trusted.parent_rows == [-1, 0, -1]
        assert trusted.dangling == [2]

    def test_from_traces_resolves_as_the_span_objects(self):
        # Each row's parent row, and each dangling row, is the one that the
        # trace's span objects resolve, assembled by ObservedTrace.from_spans.
        rng = random.Random(20261019)
        dangling = 0
        for _ in range(200):
            traces = genutil.random_corpus(rng)
            partition = Partition.from_traces(traces)
            spans = list(map(partition.span, range(len(partition))))
            assert spans == [span for trace in traces for span in trace.spans.values()]
            grouped = {}
            for span in spans:
                grouped.setdefault(span.trace_id, []).append(span)
            assembled = {trace_id: ObservedTrace.from_spans(trace_id, group) for trace_id, group in grouped.items()}
            rows = {(span.trace_id, span.span_id): row for row, span in enumerate(spans)}
            parents = [assembled[span.trace_id].parent_of(span) for span in spans]
            assert partition.parent_rows == [-1 if parent is None else rows[parent.trace_id, parent.span_id] for parent in parents]
            expected = [rows[trace.trace_id, span_id] for trace in assembled.values() for span_id in trace.dangling_parents]
            assert partition.dangling == sorted(expected, key=lambda row: (spans[row].trace_id, spans[row].span_id))
            dangling += len(expected)
        assert dangling  # the corpora hold dangling parents

    def test_span_ids_repeated_across_traces(self):
        other = "0" * 31 + "2"
        spans = [
            make_span("00000000000000a1", trace_id=other),
            make_span("00000000000000a2", parent="00000000000000a1", trace_id=other),
            make_span("00000000000000a1"),
            make_span("00000000000000a2", parent="00000000000000a1"),
        ]
        columns = SpanColumns()
        columns.extend_spans(spans)
        partition = Partition(columns)
        assert partition.parent_rows == [-1, 0, -1, 2]
        assert partition.dangling == []
        assert [trace.trace_id for trace in partition.traces()] == [TRACE_ID, other]

    @pytest.mark.parametrize(
        "spans, error, message",
        [
            (
                [("00000000000000c1", "00000000000000c2"), ("00000000000000c2", "00000000000000c1")],
                CyclicParentChainError,
                f"trace {TRACE_ID}: parent chain cycle through 00000000000000c1 -> 00000000000000c2",
            ),
            (
                [("00000000000000c1", "00000000000000c1")],
                CyclicParentChainError,
                f"trace {TRACE_ID}: parent chain cycle through 00000000000000c1",
            ),
            (
                [("00000000000000c1", None), ("00000000000000c1", None)],
                DuplicateSpanIdError,
                f"trace {TRACE_ID}: duplicate span id 00000000000000c1",
            ),
        ],
        ids=["cycle", "self-parent", "duplicate"],
    )
    def test_errors_are_named_by_the_trace(self, spans, error, message):
        columns = SpanColumns()
        columns.extend_spans([make_span(span_id, parent=parent) for span_id, parent in spans])
        with pytest.raises(error) as excinfo:
            Partition(columns)
        assert (str(excinfo.value), excinfo.value.trace_id) == (message, TRACE_ID)
        # The error crosses a worker's pipe whole.
        received = pickle.loads(pickle.dumps(excinfo.value))
        assert (type(received), str(received), received.trace_id) == (error, message, TRACE_ID)

    def test_deep_chain_is_acyclic(self):
        ids = [f"{index + 1:016x}" for index in range(3000)]
        spans = [make_span(ids[0])] + [make_span(span_id, parent=parent) for parent, span_id in zip(ids, ids[1:])]
        columns = SpanColumns()
        columns.extend_spans(spans[::-1])
        assert Partition(columns).parent_rows[-1] == -1
