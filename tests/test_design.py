"""Design file loading, validation, duration normalization, and import."""

from __future__ import annotations

import json

import pytest

from confcheck.design import (
    DesignTraceSet,
    DesignValidationError,
    MalformedDesignError,
    UnknownSpanIdError,
    ValidationErrorKind,
    import_design_from_observed,
    load_design_set,
    parse_duration_micros,
    serialize_design_set,
    validate_design_trace,
)
from confcheck.checker import check_trace
from confcheck.model import DesignSpan, DesignTrace, ObservedSpan, ObservedTrace

TRACE_ID = "0" * 31 + "1"


def design_file(spans, trace_id="t1", extra_traces=()):
    return json.dumps({"designTraces": [{"id": trace_id, "spans": spans}, *extra_traces]})


def design_span_json(span_id, parent=None, **design_props):
    return {
        "spanId": span_id,
        "name": "op",
        "parentSpanId": parent,
        "match": {"service.name": "svc"},
        "design": design_props,
    }


class TestDurationParsing:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (500_000, 500_000),
            ("500ms", 500_000),
            ("500 ms", 500_000),
            ("0.5s", 500_000),
            ("750us", 750),
            ("2s", 2_000_000),
            ("1.001ms", 1001),
            # Exact arithmetic: no value is rounded through a float.
            (9007199254740993, 9007199254740993),
            ("11111111111111111111s", 11111111111111111111000000),
            ("9223372036854.775807s", 2**63 - 1),
            pytest.param("9" * 400 + "us", int("9" * 400), id="400-digit-string"),
            pytest.param(10**400, 10**400, id="10**400"),
        ],
    )
    def test_accepted_forms(self, raw, expected):
        assert parse_duration_micros(raw) == expected

    @pytest.mark.parametrize("raw", [0, -5, "0ms", "abc", "1.5us", "5m", True, 2.5, None, "1.0000000001ms"])
    def test_rejected_forms(self, raw):
        with pytest.raises(ValueError):
            parse_duration_micros(raw)

    @pytest.mark.parametrize(
        "raw",
        ["9" * 400 + "us", 10**400, 2**63, "9223372036854.775808s"],
        ids=["400-digit-string", "10**400", "2**63", "2**63-as-seconds"],
    )
    def test_bound_beyond_64_bits_is_a_validation_error(self, raw):
        with pytest.raises(DesignValidationError) as excinfo:
            load_design_set(design_file([design_span_json("A", maxDuration=raw)]))
        [error] = excinfo.value.errors
        assert (error.kind, error.design_span_id) == (ValidationErrorKind.BAD_DURATION, "A")
        assert error.detail == "max duration must be at most 9223372036854775807 microseconds"

    @pytest.mark.parametrize("micros", [9007199254740993, 2**63 - 1])
    def test_large_bound_round_trips(self, micros):
        design_set = load_design_set(design_file([design_span_json("A", maxDuration=micros)]))
        assert design_set.design_traces[0].spans["A"].max_duration_micros == micros
        assert load_design_set(serialize_design_set(design_set)) == design_set


class TestBundledFixture:
    def test_loads_two_traces_five_spans(self, design_set):
        assert len(design_set.design_traces) == 2
        assert sum(len(t.spans) for t in design_set.design_traces) == 5
        assert len(design_set.required_traces) == 1
        assert len(design_set.disallowed_traces) == 1
        required = design_set.required_traces[0]
        assert sorted(required.spans) == ["A", "B", "C"]
        disallowed = design_set.disallowed_traces[0]
        assert sorted(disallowed.spans) == ["D", "E"]

    def test_span_properties(self, design_set):
        spans = {}
        for trace in design_set.design_traces:
            spans.update(trace.spans)
        assert spans["A"].max_duration_micros == 500_000
        assert all(spans[s].max_duration_micros is None for s in "BCDE")
        assert spans["A"].allow_non_immediate_parent is False
        assert all(spans[s].allow_non_immediate_parent for s in "BCDE")
        assert all(not spans[s].is_disallowed for s in "ABC")
        assert all(spans[s].is_disallowed for s in "DE")
        assert spans["B"].parent_design_span_id == "A"
        assert spans["C"].parent_design_span_id == "B"
        assert spans["E"].parent_design_span_id == "D"
        assert spans["A"].match_attributes == {"service.name": "gateway"}
        assert spans["C"].match_attributes == {"service.name": "microservice"}
        assert spans["E"].match_attributes == {"service.name": "gateway"}


class TestLoading:
    def test_duration_suffix_normalized(self):
        loaded = load_design_set(design_file([design_span_json("A", maxDuration="500ms")]))
        assert loaded.design_traces[0].spans["A"].max_duration_micros == 500_000

    def test_defaults_applied(self):
        loaded = load_design_set(design_file([design_span_json("A")]))
        span = loaded.design_traces[0].spans["A"]
        assert span.allow_non_immediate_parent is False
        assert span.is_disallowed is False
        assert span.max_duration_micros is None
        assert span.description is None

    def test_unknown_parent_reported(self):
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(design_file([design_span_json("A", parent="Z")]))
        assert [e.kind for e in exc.value.errors] == [ValidationErrorKind.UNKNOWN_PARENT]

    def test_two_span_cycle_reported_once(self):
        document = design_file(
            [design_span_json("A", parent="B"), design_span_json("B", parent="A")]
        )
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(document)
        assert [e.kind for e in exc.value.errors] == [ValidationErrorKind.PARENT_CYCLE]

    @pytest.mark.parametrize(
        "parents, cycles",
        [
            ({"A": "B", "B": "A", "C": "E", "D": "C", "E": "D"}, [("A", "A, B"), ("C", "C, D, E")]),
            ({"A": "B", "B": "D", "C": "D", "D": "C"}, [("C", "C, D")]),
        ],
        ids=["disjoint-cycles", "chain-into-cycle"],
    )
    def test_each_cycle_reported_at_its_smallest_id(self, parents, cycles):
        document = design_file([design_span_json(span_id, parent) for span_id, parent in parents.items()])
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(document)
        assert [(e.kind, e.design_span_id, e.detail) for e in exc.value.errors] == [
            (ValidationErrorKind.PARENT_CYCLE, anchor, f"parent chain cycle through {ids}")
            for anchor, ids in cycles
        ]

    def test_mixed_flags_reported(self):
        document = design_file(
            [design_span_json("A", isDisallowed=True), design_span_json("B")]
        )
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(document)
        assert [e.kind for e in exc.value.errors] == [ValidationErrorKind.MIXED_DISALLOWED_FLAGS]

    def test_duplicate_span_id_reported(self):
        document = design_file([design_span_json("A"), design_span_json("A")])
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(document)
        assert ValidationErrorKind.DUPLICATE_SPAN_ID in {e.kind for e in exc.value.errors}

    def test_duplicate_trace_id_reported(self):
        document = design_file(
            [design_span_json("A")],
            extra_traces=[{"id": "t1", "spans": [design_span_json("B")]}],
        )
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(document)
        assert ValidationErrorKind.DUPLICATE_TRACE_ID in {e.kind for e in exc.value.errors}

    def test_span_errors_precede_set_errors(self):
        document = design_file(
            [design_span_json("A", parent="Z")],
            extra_traces=[
                {"id": "t1", "spans": [design_span_json("B")]},
                {"id": "t2", "spans": [design_span_json("C", maxDuration="-3ms")]},
            ],
        )
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(document)
        assert [(e.design_trace_id, e.kind) for e in exc.value.errors] == [
            ("t2", ValidationErrorKind.BAD_DURATION),
            ("t1", ValidationErrorKind.UNKNOWN_PARENT),
            ("t1", ValidationErrorKind.DUPLICATE_TRACE_ID),
        ]

    def test_missing_service_name_reported(self):
        span = design_span_json("A")
        span["match"] = {"other": "x"}
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(design_file([span]))
        assert [e.kind for e in exc.value.errors] == [ValidationErrorKind.MISSING_SERVICE_NAME]

    def test_bad_duration_reported(self):
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(design_file([design_span_json("A", maxDuration="-3ms")]))
        assert [e.kind for e in exc.value.errors] == [ValidationErrorKind.BAD_DURATION]

    def test_empty_trace_reported(self):
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(design_file([]))
        assert [e.kind for e in exc.value.errors] == [ValidationErrorKind.EMPTY_TRACE]

    def test_all_problems_reported_in_one_pass(self):
        document = design_file(
            [
                design_span_json("A", parent="Z", maxDuration="0ms"),
                design_span_json("B", isDisallowed=True),
            ]
        )
        with pytest.raises(DesignValidationError) as exc:
            load_design_set(document)
        kinds = {e.kind for e in exc.value.errors}
        assert kinds == {
            ValidationErrorKind.UNKNOWN_PARENT,
            ValidationErrorKind.BAD_DURATION,
            ValidationErrorKind.MIXED_DISALLOWED_FLAGS,
        }

    @pytest.mark.parametrize(
        "document",
        [b"{broken", b"[]", b'{"designTraces": {}}', b'{"designTraces": [{"spans": []}]}'],
    )
    def test_malformed_documents_rejected(self, document):
        with pytest.raises(MalformedDesignError):
            load_design_set(document)

    def test_too_deeply_nested_json_is_malformed(self):
        depth = 200_000
        document = b'{"designTraces": ' + b"[" * depth + b"]" * depth + b"}"
        with pytest.raises(MalformedDesignError, match="nested too deeply"):
            load_design_set(document)


# One wrong field per case: (JSON span key, or "design.<key>" for the design
# block; its JSON value; the DesignSpan keyword; its Python value).
FIELD_TYPE_CASES = [
    ("spanId", 5, "design_span_id", 5),
    ("spanId", "", "design_span_id", ""),
    ("name", 7, "name", 7),
    ("match", ["service.name", "svc"], "match_attributes", [("service.name", "svc")]),
    ("match", {"service.name": ["svc"]}, "match_attributes", {"service.name": ["svc"]}),
    ("parentSpanId", 5, "parent_design_span_id", 5),
    ("design.description", 5, "description", 5),
    ("design.allowNonImmediateParent", "yes", "allow_non_immediate_parent", "yes"),
    ("design.isDisallowed", 1, "is_disallowed", 1),
]


class TestDesignSpanFieldTypes:
    """``DesignSpan`` owns every field's type: built in code it raises
    ``ValueError``; loaded from JSON the same rule raises
    ``MalformedDesignError`` with the trace and span as context."""

    @pytest.mark.parametrize("json_key, json_value, field, value", FIELD_TYPE_CASES)
    def test_loading_wraps_the_span_error(self, json_key, json_value, field, value):
        raw = design_span_json("A")
        if json_key.startswith("design."):
            raw["design"][json_key[len("design."):]] = json_value
        else:
            raw[json_key] = json_value
        label = "A" if json_key != "spanId" else "#0"
        with pytest.raises(MalformedDesignError) as excinfo:
            load_design_set(design_file([raw]))
        assert str(excinfo.value).startswith(f"design trace t1: span {label}: ")

    @pytest.mark.parametrize("json_key, json_value, field, value", FIELD_TYPE_CASES)
    def test_direct_construction_raises(self, json_key, json_value, field, value):
        fields = {"design_span_id": "A", "name": "op", "match_attributes": {"service.name": "svc"}}
        with pytest.raises(ValueError):
            DesignSpan(**{**fields, field: value})

    @pytest.mark.parametrize("value", ["5ms", 1.5, True])
    def test_max_duration_must_be_an_int(self, value):
        with pytest.raises(ValueError):
            DesignSpan(design_span_id="A", name="op", match_attributes={}, max_duration_micros=value)

    def test_second_span_is_labelled_by_position(self):
        raw = design_span_json("B")
        del raw["spanId"]
        with pytest.raises(MalformedDesignError) as excinfo:
            load_design_set(design_file([design_span_json("A"), raw]))
        assert str(excinfo.value).startswith("design trace t1: span #1: ")


class TestDesignTraceId:
    """``DesignTrace`` owns the design trace id rule; loading wraps its error
    with the trace's position."""

    @pytest.mark.parametrize("trace_id", [None, "", 5, ["t1"]], ids=["missing", "empty", "number", "list"])
    def test_loading_wraps_the_trace_error(self, trace_id):
        trace = {"spans": [design_span_json("A")]}
        if trace_id is not None:
            trace["id"] = trace_id
        with pytest.raises(MalformedDesignError) as excinfo:
            load_design_set(json.dumps({"designTraces": [{"id": "t0", "spans": [design_span_json("A")]}, trace]}))
        assert str(excinfo.value) == "designTraces[1]: design_trace_id must be a non-empty string"
        with pytest.raises(ValueError, match="^design_trace_id must be a non-empty string$"):
            DesignTrace(design_trace_id=trace_id, spans={})

    def test_span_of_an_unnamed_design_trace_is_labelled_by_position(self):
        raw = design_span_json("A")
        raw["design"] = 5
        with pytest.raises(MalformedDesignError) as excinfo:
            load_design_set(json.dumps({"designTraces": [{"spans": [raw]}]}))
        assert str(excinfo.value) == "designTraces[0]: span A: design must be an object"


class TestValidateDesignTrace:
    def test_valid_trace_returns_no_errors(self, design_set):
        for trace in design_set.design_traces:
            assert validate_design_trace(trace) == []

    def test_direct_construction_problems_surface(self):
        trace = DesignTrace(
            design_trace_id="t",
            spans={
                "A": DesignSpan(
                    design_span_id="A",
                    name="op",
                    match_attributes={},
                    max_duration_micros=-1,
                )
            },
        )
        kinds = {e.kind for e in validate_design_trace(trace)}
        assert kinds == {
            ValidationErrorKind.MISSING_SERVICE_NAME,
            ValidationErrorKind.BAD_DURATION,
        }


class TestDesignTraceSet:
    def test_duplicate_trace_id_reported(self, design_set):
        trace = design_set.design_traces[0]
        with pytest.raises(DesignValidationError) as exc:
            DesignTraceSet.of([trace, trace])
        assert [(e.design_trace_id, e.kind) for e in exc.value.errors] == [
            (trace.design_trace_id, ValidationErrorKind.DUPLICATE_TRACE_ID),
        ]


def chain_trace():
    root = ObservedSpan(
        trace_id=TRACE_ID,
        span_id="00000000000000a1",
        name="root-op",
        service_name="svc-root",
        start_time_nanos=0,
        end_time_nanos=5000,
    )
    mid = ObservedSpan(
        trace_id=TRACE_ID,
        span_id="00000000000000b2",
        parent_span_id="00000000000000a1",
        name="mid-op",
        service_name="svc-mid",
        start_time_nanos=0,
        end_time_nanos=4000,
    )
    leaf = ObservedSpan(
        trace_id=TRACE_ID,
        span_id="00000000000000c3",
        parent_span_id="00000000000000b2",
        name="leaf-op",
        service_name="svc-leaf",
        start_time_nanos=0,
        end_time_nanos=3000,
    )
    return ObservedTrace.from_spans(TRACE_ID, [root, mid, leaf])


class TestImport:
    def test_full_chain_mirrors_structure(self):
        trace = chain_trace()
        imported = import_design_from_observed(trace, set(trace.spans))
        assert len(imported.spans) == 3
        assert all(not s.allow_non_immediate_parent for s in imported.spans.values())
        assert imported.spans["00000000000000b2"].parent_design_span_id == "00000000000000a1"
        assert imported.spans["00000000000000c3"].parent_design_span_id == "00000000000000b2"
        assert imported.spans["00000000000000a1"].match_attributes == {"service.name": "svc-root"}

    def test_pruned_middle_becomes_non_immediate(self):
        trace = chain_trace()
        imported = import_design_from_observed(
            trace, {"00000000000000a1", "00000000000000c3"}
        )
        assert sorted(imported.spans) == ["00000000000000a1", "00000000000000c3"]
        leaf = imported.spans["00000000000000c3"]
        assert leaf.parent_design_span_id == "00000000000000a1"
        assert leaf.allow_non_immediate_parent is True
        root = imported.spans["00000000000000a1"]
        assert root.parent_design_span_id is None
        assert root.allow_non_immediate_parent is False

    def test_empty_keep_rejected_by_validation(self):
        trace = chain_trace()
        imported = import_design_from_observed(trace, set())
        with pytest.raises(DesignValidationError) as exc:
            DesignTraceSet.of([imported])
        assert [e.kind for e in exc.value.errors] == [ValidationErrorKind.EMPTY_TRACE]

    def test_unknown_keep_id_rejected(self):
        with pytest.raises(UnknownSpanIdError):
            import_design_from_observed(chain_trace(), {"00000000000000ff"})

    def test_source_trace_conforms_to_full_import(self):
        trace = chain_trace()
        imported = import_design_from_observed(trace, set(trace.spans))
        verdict = check_trace(DesignTraceSet.of([imported]), trace)
        assert verdict.conformant

    def test_source_trace_conforms_to_pruned_import(self):
        trace = chain_trace()
        imported = import_design_from_observed(trace, {"00000000000000a1", "00000000000000c3"})
        verdict = check_trace(DesignTraceSet.of([imported]), trace)
        assert verdict.conformant


class TestSerialization:
    def test_round_trip_identity(self, design_set):
        document = serialize_design_set(design_set)
        assert load_design_set(document) == design_set

    def test_serialized_durations_are_integer_micros(self, design_set):
        payload = json.loads(serialize_design_set(design_set))
        span_a = payload["designTraces"][0]["spans"][0]
        assert span_a["design"]["maxDuration"] == 500_000
