"""Parsing of both trace export formats and trace assembly."""

from __future__ import annotations

import functools
import json
import math

import pytest

from confcheck import ingest, model
from confcheck.ingest import (
    CyclicParentChainError,
    DuplicateSpanIdError,
    IngestWarningKind,
    MalformedDocumentError,
    MissingFieldError,
    MissingServiceNameError,
    assemble_traces,
    corpus_reader,
    load_corpus_dir,
    parse_trace_document,
    read_plan,
    serialize_otel_json,
)
from confcheck.checker import check_partitions, matched_attribute_keys
from confcheck.model import ObservedSpan, ObservedTrace, SpanColumns
from confcheck.runner import worker_partition
from confcheck.simulator import SimConfig, write_simulated_corpus

import genutil

TRACE_ID = "00000000000000000000000000000001"


def parse_kept(document, keys):
    """``parse_trace_document`` keeping only the attributes of ``keys``."""
    columns = SpanColumns()
    ingest._read_document(json.loads(document), None, {}, columns, keys)
    return list(map(columns.span, range(len(columns))))


@pytest.fixture()
def json_loads_calls(monkeypatch):
    """Every document ``json.loads`` decodes while the test runs."""
    calls = []
    real_loads = json.loads

    def counting_loads(document, *args, **kwargs):
        calls.append(document)
        return real_loads(document, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)
    return calls


def zipkin_span(**overrides):
    span = {
        "traceId": TRACE_ID,
        "id": "0000000000000001",
        "name": "aspnet_core.request",
        "timestamp": 1000,
        "duration": 500,
        "localEndpoint": {"serviceName": "gateway"},
    }
    span.update(overrides)
    return span


class TestZipkinParsing:
    def test_field_mapping(self):
        spans = parse_trace_document(json.dumps([zipkin_span()]))
        assert len(spans) == 1
        span = spans[0]
        assert span.trace_id == TRACE_ID
        assert span.span_id == "0000000000000001"
        assert span.name == "aspnet_core.request"
        assert span.service_name == "gateway"
        assert span.start_time_nanos == 1_000_000
        assert span.end_time_nanos == 1_500_000
        assert span.parent_span_id is None

    def test_empty_export(self):
        assert parse_trace_document(b"[]") == []

    def test_short_trace_id_left_padded(self):
        spans = parse_trace_document(json.dumps([zipkin_span(traceId="00000000000000a1")]))
        assert spans[0].trace_id == "0000000000000000" + "00000000000000a1"

    def test_tags_become_string_attributes(self):
        spans = parse_trace_document(
            json.dumps([zipkin_span(tags={"http.status_code": "500", "retries": 3})])
        )
        assert spans[0].attributes == {"http.status_code": "500", "retries": "3"}

    def test_parent_id_mapped(self):
        spans = parse_trace_document(
            json.dumps([zipkin_span(id="0000000000000002", parentId="0000000000000001")])
        )
        assert spans[0].parent_span_id == "0000000000000001"

    @pytest.mark.parametrize("parent", ["", "0000000000000000"])
    def test_empty_and_zero_parents_normalize_to_root(self, parent):
        spans = parse_trace_document(json.dumps([zipkin_span(parentId=parent)]))
        assert spans[0].parent_span_id is None

    def test_missing_id_rejected(self):
        raw = zipkin_span()
        del raw["id"]
        with pytest.raises(MissingFieldError):
            parse_trace_document(json.dumps([raw]))

    def test_missing_service_rejected(self):
        with pytest.raises(MissingFieldError):
            parse_trace_document(json.dumps([zipkin_span(localEndpoint={})]))

    def test_non_array_rejected(self):
        with pytest.raises(MalformedDocumentError):
            parse_trace_document(b'{"traceId": "x"}')

    def test_invalid_json_rejected(self):
        with pytest.raises(MalformedDocumentError):
            parse_trace_document(b"{nope")

    def test_too_deeply_nested_json_is_malformed(self):
        depth = 200_000
        with pytest.raises(MalformedDocumentError, match="nested too deeply"):
            parse_trace_document(b"[" * depth + b"]" * depth)

    def test_negative_duration_clamped_with_warning(self):
        warnings = []
        spans = parse_trace_document(json.dumps([zipkin_span(duration=-5)]), warnings)
        assert spans[0].start_time_nanos == spans[0].end_time_nanos == 1_000_000
        assert [w.kind for w in warnings] == [IngestWarningKind.CLAMPED_TIMESTAMP]


def otel_document(spans, service="microservice"):
    return json.dumps(
        {
            "resourceSpans": [
                {
                    "resource": {
                        "attributes": [
                            {"key": "service.name", "value": {"stringValue": service}}
                        ]
                    },
                    "scopeSpans": [{"scope": {"name": "test"}, "spans": spans}],
                }
            ]
        }
    )


def otel_span(**overrides):
    span = {
        "traceId": TRACE_ID,
        "spanId": "0000000000000001",
        "name": "sql_server.query",
        "startTimeUnixNano": "1000000",
        "endTimeUnixNano": "2000000",
    }
    span.update(overrides)
    return span


class TestOtelParsing:
    def test_service_name_from_resource(self):
        spans = parse_trace_document(otel_document([otel_span()]))
        assert len(spans) == 1
        assert spans[0].service_name == "microservice"
        assert spans[0].name == "sql_server.query"
        assert spans[0].start_time_nanos == 1_000_000
        assert spans[0].end_time_nanos == 2_000_000

    def test_empty_parent_span_id_normalizes_to_root(self):
        spans = parse_trace_document(otel_document([otel_span(parentSpanId="")]))
        assert spans[0].parent_span_id is None

    def test_typed_attribute_values_preserved(self):
        spans = parse_trace_document(
            otel_document(
                [
                    otel_span(
                        attributes=[
                            {"key": "retries", "value": {"intValue": "3"}},
                            {"key": "fraction", "value": {"doubleValue": 0.5}},
                            {"key": "cached", "value": {"boolValue": True}},
                            {"key": "verb", "value": {"stringValue": "GET"}},
                        ]
                    )
                ]
            )
        )
        attrs = spans[0].attributes
        assert attrs == {"retries": 3, "fraction": 0.5, "cached": True, "verb": "GET"}
        assert type(attrs["retries"]) is int
        assert type(attrs["cached"]) is bool
        assert type(attrs["fraction"]) is float

    def test_unsupported_attribute_kinds_skipped(self):
        spans = parse_trace_document(
            otel_document(
                [otel_span(attributes=[{"key": "arr", "value": {"arrayValue": {"values": []}}}])]
            )
        )
        assert spans[0].attributes == {}

    def test_missing_service_name_rejected(self):
        document = json.dumps(
            {"resourceSpans": [{"resource": {"attributes": []}, "scopeSpans": []}]}
        )
        with pytest.raises(MissingServiceNameError):
            parse_trace_document(document)

    def test_missing_span_id_rejected(self):
        raw = otel_span()
        del raw["spanId"]
        with pytest.raises(MissingFieldError):
            parse_trace_document(otel_document([raw]))

    def test_integer_timestamps_accepted(self):
        spans = parse_trace_document(
            otel_document([otel_span(startTimeUnixNano=1000000, endTimeUnixNano=2000000)])
        )
        assert spans[0].start_time_nanos == 1_000_000

    def test_links_parsed(self):
        other_trace = "000000000000000000000000000000ff"
        spans = parse_trace_document(
            otel_document(
                [otel_span(links=[{"traceId": other_trace, "spanId": "00000000000000ff"}])]
            )
        )
        assert spans[0].links == ((other_trace, "00000000000000ff"),)

    @pytest.mark.parametrize("key", [5, None, ["k"]])
    def test_non_string_attribute_key_rejected(self, key):
        span = otel_span(attributes=[{"key": key, "value": {"stringValue": "x"}}])
        with pytest.raises(MalformedDocumentError, match="attribute key must be a string"):
            parse_trace_document(otel_document([span]))

    def test_missing_resource_spans_rejected(self):
        with pytest.raises(MalformedDocumentError):
            parse_trace_document(b'{"spans": []}')

    @pytest.mark.parametrize(
        "spans", [None, 7, "spans", {"spanId": "0000000000000001"}], ids=["null", "number", "string", "object"]
    )
    def test_non_list_spans_rejected(self, spans):
        with pytest.raises(MalformedDocumentError, match=r"resourceSpans\[0\]: spans must be a list"):
            parse_trace_document(otel_document(spans))

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"intValue": "x1"}, "intValue 'x1' is not an integer"),
            ({"boolValue": "yes"}, "boolValue must hold a boolean"),
            (5, "attribute value must be an object, got int"),
        ],
    )
    def test_resource_attribute_errors_name_their_entry(self, value, message):
        document = json.loads(otel_document([otel_span()]))
        document["resourceSpans"][0]["resource"]["attributes"].append({"key": "bad", "value": value})
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(json.dumps(document))
        assert str(excinfo.value) == f"resourceSpans[0]: {message}"

    def test_double_beyond_float_range_reads_as_infinity(self):
        # As the JSON float 1e400 and the string "1e400" read.
        span = otel_span(attributes=[{"key": "x", "value": {"doubleValue": 10**400}}])
        [parsed] = parse_trace_document(otel_document([span]))
        assert parsed.attributes["x"] == math.inf

    def test_double_string_beyond_the_digit_limit_is_beyond_float_range(self):
        span = otel_span(attributes=[{"key": "x", "value": {"doubleValue": "1" + "0" * 5000}}])
        [parsed] = parse_trace_document(otel_document([span]))
        assert parsed.attributes["x"] == math.inf

    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("-0", "-0.0"),
            (-0.0, "-0.0"),
            ("0", "0.0"),
            ("-1e400", "-inf"),
            (-(10**400), "-inf"),
            ("-" + "9" * 5000, "-inf"),
        ],
    )
    def test_double_keeps_its_sign(self, raw, expected):
        # A bare JSON -0 is not among these: json.loads gives the integer 0,
        # which reads as 0.0.
        span = otel_span(attributes=[{"key": "x", "value": {"doubleValue": raw}}])
        [parsed] = parse_trace_document(otel_document([span]))
        assert repr(parsed.attributes["x"]) == expected

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "-Infinity", "1.5", "-0.5e-3", "6E+2", "0", "1e400"])
    def test_double_strings_of_proto3_json_read_as_the_number_they_spell(self, raw):
        span = otel_span(attributes=[{"key": "x", "value": {"doubleValue": raw}}])
        [parsed] = parse_trace_document(otel_document([span]))
        value = parsed.attributes["x"]
        assert type(value) is float and (value == float(raw) or raw == "NaN" and value != value)

    @pytest.mark.parametrize("raw", ["nan", "inf", "Inf", " 1.5", "1.5 ", "1_0.5", "1.", ".5", "01", "+1", "0x10", ""])
    def test_other_double_strings_are_malformed(self, raw):
        span = otel_span(attributes=[{"key": "x", "value": {"doubleValue": raw}}])
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(otel_document([span]))
        assert str(excinfo.value) == "span 0000000000000001: doubleValue must hold a number"

    @pytest.mark.parametrize("raw, value", [("-12", -12), ("+12", 12), ("0", 0), (str(-(2**63)), -(2**63))])
    def test_int_value_strings_of_proto3_json_are_read(self, raw, value):
        span = otel_span(attributes=[{"key": "n", "value": {"intValue": raw}}])
        [parsed] = parse_trace_document(otel_document([span]))
        assert parsed.attributes == {"n": value}

    @pytest.mark.parametrize("raw", ["1_0", " 12 ", "\u0661\u0662", "1 2", "-"])
    def test_lax_int_value_strings_are_malformed(self, raw):
        span = otel_span(attributes=[{"key": "n", "value": {"intValue": raw}}])
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(otel_document([span]))
        assert str(excinfo.value) == f"span 0000000000000001: intValue {raw!r} is not an integer"

    @pytest.mark.parametrize("bad_entry_first", [False, True], ids=["span-first", "entry-first"])
    def test_errors_follow_file_order_across_resource_entries(self, bad_entry_first):
        # The layout walk goes an entry at a time: the spans of an entry are
        # read before the next entry is looked at.
        bad_span = json.loads(otel_document([otel_span(spanId="ABC")]))["resourceSpans"][0]
        bad_entry = {"resource": {"attributes": []}, "scopeSpans": []}
        entries = [bad_entry, bad_span] if bad_entry_first else [bad_span, bad_entry]
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(json.dumps({"resourceSpans": entries}))
        if bad_entry_first:
            assert str(excinfo.value) == "resourceSpans[0] lacks a service.name resource attribute"
        else:
            assert str(excinfo.value) == "span ABC: span id must be 16 lowercase hex chars, got 'ABC'"


class TestAutoDetection:
    def test_array_is_zipkin(self):
        spans = parse_trace_document(json.dumps([zipkin_span()]))
        assert spans[0].service_name == "gateway"

    def test_resource_spans_is_otel(self):
        spans = parse_trace_document(otel_document([otel_span()]))
        assert spans[0].service_name == "microservice"

    def test_unknown_shape_rejected(self):
        for document in (b'{"other": 1}', b'{"resourceSpans": 5}', b'{"resourceSpans": {}}', b"7"):
            with pytest.raises(MalformedDocumentError) as excinfo:
                parse_trace_document(document)
            assert str(excinfo.value).startswith("unrecognized trace document: ")

    @pytest.mark.parametrize(
        "document",
        [json.dumps([zipkin_span()]), otel_document([otel_span()])],
        ids=["zipkin", "otel"],
    )
    def test_document_decoded_once(self, document, json_loads_calls):
        assert len(parse_trace_document(document)) == 1
        assert json_loads_calls == [document]


def make_span(span_id, parent=None, trace_id=TRACE_ID):
    return ObservedSpan(
        trace_id=trace_id,
        span_id=span_id,
        parent_span_id=parent,
        name="op",
        service_name="svc",
        start_time_nanos=0,
        end_time_nanos=1000,
    )


class TestAssembly:
    def test_single_chain_assembles_without_warnings(self):
        spans = [
            make_span("0000000000000001"),
            make_span("0000000000000002", parent="0000000000000001"),
            make_span("0000000000000003", parent="0000000000000002"),
        ]
        traces, warnings = assemble_traces(spans)
        assert len(traces) == 1
        assert set(traces[0].spans) == {s.span_id for s in spans}
        assert warnings == []

    def test_grouping_by_trace_id(self):
        other = "00000000000000000000000000000002"
        spans = [
            make_span("0000000000000001"),
            make_span("0000000000000002", parent="0000000000000001"),
            make_span("0000000000000001", trace_id=other),
            make_span("0000000000000002", parent="0000000000000001", trace_id=other),
        ]
        traces, _ = assemble_traces(spans)
        assert [t.trace_id for t in traces] == [TRACE_ID, other]

    def test_dangling_parent_kept_with_warning(self):
        spans = [make_span("0000000000000001", parent="00000000000000ff")]
        traces, warnings = assemble_traces(spans)
        assert len(traces) == 1
        assert traces[0].dangling_parents == {"0000000000000001"}
        assert [w.kind for w in warnings] == [IngestWarningKind.DANGLING_PARENT]
        assert warnings[0].span_id == "0000000000000001"

    def test_duplicate_span_id_raises(self):
        spans = [make_span("0000000000000001"), make_span("0000000000000001")]
        with pytest.raises(DuplicateSpanIdError) as exc:
            assemble_traces(spans)
        assert str(exc.value) == f"trace {TRACE_ID}: duplicate span id 0000000000000001"
        assert DuplicateSpanIdError is model.DuplicateSpanIdError

    def test_parent_cycle_raises(self):
        spans = [
            make_span("0000000000000001", parent="0000000000000002"),
            make_span("0000000000000002", parent="0000000000000001"),
        ]
        with pytest.raises(CyclicParentChainError):
            assemble_traces(spans)

    def test_span_count_is_conserved(self):
        spans = [
            make_span("0000000000000001"),
            make_span("0000000000000002", parent="0000000000000001"),
            make_span("0000000000000003", trace_id="00000000000000000000000000000002"),
        ]
        traces, _ = assemble_traces(spans)
        assert sum(len(t.spans) for t in traces) == len(spans)


class TestSerialization:
    def test_round_trip_preserves_traces(self):
        spans = [
            make_span("0000000000000001"),
            make_span("0000000000000002", parent="0000000000000001"),
        ]
        traces, _ = assemble_traces(spans)
        document = serialize_otel_json(traces)
        reparsed, warnings = assemble_traces(parse_trace_document(document))
        assert reparsed == traces
        assert warnings == []
        assert serialize_otel_json(reparsed) == document

    def test_typed_attributes_survive_round_trip(self):
        span = ObservedSpan(
            trace_id=TRACE_ID,
            span_id="0000000000000001",
            name="op",
            service_name="svc",
            start_time_nanos=5,
            end_time_nanos=10,
            attributes={"i": 3, "f": 0.25, "b": False, "s": "x"},
            links=((TRACE_ID, "00000000000000ff"),),
        )
        trace = ObservedTrace.from_spans(TRACE_ID, [span])
        reparsed, _ = assemble_traces(parse_trace_document(serialize_otel_json([trace])))
        round_tripped = reparsed[0].spans["0000000000000001"]
        assert round_tripped == span
        assert {k: type(v) for k, v in round_tripped.attributes.items()} == {
            "i": int,
            "f": float,
            "b": bool,
            "s": str,
        }


# A file each read error class names: bad JSON, a Zipkin span without a
# traceId, and an OTel resource without service.name.
BAD_FILES = {
    MalformedDocumentError: "{broken",
    MissingFieldError: json.dumps([{key: value for key, value in zipkin_span().items() if key != "traceId"}]),
    MissingServiceNameError: json.dumps(
        {"resourceSpans": [{"resource": {"attributes": []}, "scopeSpans": [{"spans": [otel_span()]}]}]}
    ),
}


class TestCorpusDirectory:
    def test_mixed_formats_combine(self, tmp_path):
        (tmp_path / "zipkin.json").write_text(json.dumps([zipkin_span()]))
        (tmp_path / "otel.json").write_text(
            otel_document([otel_span(traceId="00000000000000000000000000000002")])
        )
        traces, warnings = load_corpus_dir(tmp_path)
        assert len(traces) == 2
        assert warnings == []

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="does not exist"):
            load_corpus_dir(tmp_path / "nope")

    def test_file_is_not_a_directory(self, tmp_path):
        (tmp_path / "trace.json").write_text("[]")
        with pytest.raises(NotADirectoryError, match="trace.json is not a directory"):
            load_corpus_dir(tmp_path / "trace.json")

    def test_each_file_decoded_once(self, tmp_path, json_loads_calls):
        (tmp_path / "zipkin.json").write_text(json.dumps([zipkin_span()]))
        (tmp_path / "otel.json").write_text(
            otel_document([otel_span(traceId="00000000000000000000000000000002")])
        )
        traces, _ = load_corpus_dir(tmp_path)
        assert len(traces) == 2
        assert len(json_loads_calls) == 2

    def test_malformed_file_names_the_file(self, tmp_path):
        for error, text in BAD_FILES.items():
            (tmp_path / "bad.json").write_text(text)
            with pytest.raises(MalformedDocumentError) as exc:
                load_corpus_dir(tmp_path)
            assert type(exc.value) is error
            assert str(exc.value).startswith("bad.json: ")

    def test_a_workers_read_error_keeps_its_class(self, tmp_path, design_set):
        # The second of two files is read by the second of two forked
        # workers, so the error crosses its pipe.
        (tmp_path / "a.json").write_text(json.dumps([zipkin_span()]))
        for error, text in BAD_FILES.items():
            (tmp_path / "bad.json").write_text(text)
            read, workers = corpus_reader(tmp_path, 2)
            assert workers == 2
            with pytest.raises(MalformedDocumentError) as exc:
                check_partitions(design_set, functools.partial(worker_partition, read), workers)
            assert type(exc.value) is error
            assert str(exc.value).startswith("bad.json: ")

    def test_integer_beyond_digit_limit_names_the_file(self, tmp_path):
        # json.loads raises a plain ValueError for an integer of more than
        # 4,300 digits; it is a malformed file like any other.
        (tmp_path / "big.json").write_text(otel_document([otel_span(startTimeUnixNano="DIGITS")]).replace(
            '"DIGITS"', "1" + "0" * 5000
        ))
        with pytest.raises(MalformedDocumentError) as exc:
            load_corpus_dir(tmp_path)
        assert str(exc.value) == "big.json: invalid JSON: an integer has more than 4300 digits"


class TestReadPlan:
    """``read_plan`` cuts the name-sorted files into contiguous ranges of
    about equal size, one per worker and no more than there are files, each
    read whole by its worker."""

    @pytest.mark.parametrize("files", range(1, 8))
    @pytest.mark.parametrize("workers", range(1, 6))
    def test_every_file_and_class_is_read_once(self, files, workers):
        # Every file, and so every trace-id class of its spans, is read by
        # exactly one worker.
        sizes = [100 + (37 * index) % 50 for index in range(files)]
        plan = read_plan(sizes, workers)
        assert len(plan) == max(1, min(files, workers))
        for file in range(files):
            readers = [worker for worker, (lo, hi) in enumerate(plan) if lo <= file < hi]
            assert len(readers) == 1, (file, readers)
        assert [lo for lo, _ in plan] == [0] + [hi for _, hi in plan[:-1]]
        assert plan[-1][1] == files and all(lo < hi for lo, hi in plan)

    def test_groups_balance_bytes(self):
        assert read_plan([300, 100, 100, 100], 2) == [(0, 1), (1, 4)]
        assert read_plan([100, 100, 100, 300], 2) == [(0, 3), (3, 4)]

    def test_one_file_is_read_whole_by_one_worker(self):
        assert read_plan([500], 1) == read_plan([500], 3) == [(0, 1)]

    def test_a_worker_alone_in_its_group_reads_it_whole(self):
        assert read_plan([100, 100, 100], 3) == [(0, 1), (1, 2), (2, 3)]

    def test_no_files(self):
        assert read_plan([], 1) == read_plan([], 2) == [(0, 0)]


class TestFastPathsKeepErrorsAndValues:
    """The normaliser's fast paths hand whatever they do not accept to the
    slow path, so every message and every accepted value is unchanged."""

    def test_timestamp_too_long_for_int_is_a_malformed_document(self):
        digits = "1" * 5000
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(otel_document([otel_span(startTimeUnixNano=digits)]))
        assert str(excinfo.value) == (
            f"span 0000000000000001: startTimeUnixNano '{digits[:59]}... (5002 chars) is not an integer"
        )

    @pytest.mark.parametrize("raw, value", [("+12", 12), ("0012", 12), (12, 12), (None, 0)])
    def test_timestamps_int_accepts_keep_their_values(self, raw, value):
        [span] = parse_trace_document(otel_document([otel_span(startTimeUnixNano=raw, endTimeUnixNano="2000000")]))
        assert span.start_time_nanos == value

    # int() reads each of these but the first three, and proto3 JSON writes
    # none: an integer string is ASCII digits after an optional sign.
    @pytest.mark.parametrize("raw", ["²", "1.5", "", " 12", "1_000", "\u0661\u0662", "12\n", "+", "+-1"])
    def test_timestamps_int_rejects_keep_their_message(self, raw):
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(otel_document([otel_span(endTimeUnixNano=raw)]))
        assert str(excinfo.value) == f"span 0000000000000001: endTimeUnixNano {raw!r} is not an integer"

    def test_zipkin_null_tags_rejected_and_missing_tags_empty(self):
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(json.dumps([zipkin_span(tags=None)]))
        assert str(excinfo.value) == "span 0000000000000001: tags must be an object"
        [span] = parse_trace_document(json.dumps([zipkin_span()]))
        assert span.attributes == {}
        [span] = parse_trace_document(json.dumps([zipkin_span(tags={"code": 200})]))
        assert span.attributes == {"code": "200"}

    def test_null_links_rejected(self):
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(otel_document([otel_span(links=None)]))
        assert str(excinfo.value) == "span 0000000000000001: links must be a list"

    @pytest.mark.parametrize(
        "link, message",
        [
            ({"traceId": "xyz", "spanId": "00000000000000ff"}, "trace id must be 32 lowercase hex chars, got 'xyz'"),
            ({"traceId": TRACE_ID, "spanId": "0" * 16}, "span id must not be all zeros"),
            ({"traceId": TRACE_ID, "spanId": 5}, "span id must be 16 lowercase hex chars, got 5"),
        ],
    )
    def test_a_bad_link_id_names_its_span(self, link, message):
        document = otel_document([otel_span(spanId="00000000000000a1"), otel_span(links=[link])])
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(document)
        assert str(excinfo.value) == "span 0000000000000001: " + message

    def test_attribute_errors_keep_their_span_context(self):
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(otel_document([otel_span(attributes={})]))
        assert str(excinfo.value) == "span 0000000000000001: attributes must be a list"
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(otel_document([otel_span(parentSpanId=7, attributes={})]))
        assert str(excinfo.value) == "span 0000000000000001: parent span id must be a string, got int"

    @pytest.mark.parametrize("trace_id", [5, ["x"], {"a": 1}])
    def test_non_string_trace_id(self, trace_id):
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(otel_document([otel_span(traceId=trace_id)]))
        assert str(excinfo.value) == f"span 0000000000000001: trace id must be 32 lowercase hex chars, got {trace_id!r}"
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(json.dumps([zipkin_span(traceId=trace_id)]))
        assert str(excinfo.value) == "span #0: id and traceId must be strings"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("A" * 32, f"trace id must be 32 lowercase hex chars, got {'A' * 32!r}"),
            ("0" * 32, "trace id must not be all zeros"),
        ],
    )
    def test_bad_trace_id_after_an_accepted_one(self, bad, message):
        spans = [otel_span(), otel_span(spanId="0000000000000002"), otel_span(traceId=bad, spanId="0000000000000003")]
        with pytest.raises(MalformedDocumentError) as excinfo:
            parse_trace_document(otel_document(spans))
        assert str(excinfo.value) == f"span 0000000000000003: {message}"

    def test_str_subclass_trace_id_is_tested(self):
        class Hex(str):
            pass

        assert ObservedSpan(Hex(TRACE_ID), "0000000000000002", "op", "svc", 0, 0).trace_id == TRACE_ID
        with pytest.raises(ValueError) as excinfo:
            ObservedSpan(Hex("A" * 32), "0000000000000003", "op", "svc", 0, 0)
        assert str(excinfo.value) == f"trace id must be 32 lowercase hex chars, got {'A' * 32!r}"

    def test_short_zipkin_id_meets_its_padded_otel_form(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps([zipkin_span(traceId="00000000000000a1")]))
        (tmp_path / "b.json").write_text(
            otel_document(
                [otel_span(traceId="0" * 30 + "a1", spanId="0000000000000002", parentSpanId="0000000000000001")]
            )
        )
        [trace], warnings = load_corpus_dir(tmp_path)
        assert trace.trace_id == "0" * 30 + "a1"
        assert sorted(trace.spans) == ["0000000000000001", "0000000000000002"]
        assert warnings == []


class TestSharedStrings:
    """One load holds one string object per distinct trace id, span name and
    service name."""

    def test_one_trace_id_and_name_object_per_load(self, tmp_path):
        short_id = "00000000000000a1"
        padded_id = short_id.rjust(32, "0")
        (tmp_path / "a.json").write_text(
            json.dumps(
                [
                    zipkin_span(traceId=short_id, id="0000000000000001", name="op"),
                    zipkin_span(traceId=short_id, id="0000000000000002", parentId="0000000000000001", name="op"),
                ]
            )
        )
        (tmp_path / "b.json").write_text(
            otel_document(
                [
                    otel_span(traceId=padded_id, spanId="0000000000000003", parentSpanId="0000000000000001", name="op"),
                    otel_span(traceId=TRACE_ID, spanId="0000000000000004", name="op"),
                ],
                service="gateway",
            )
        )
        traces, _ = load_corpus_dir(tmp_path)
        spans = [span for trace in traces for span in trace.spans.values()]
        assert len(spans) == 4
        padded = [span for span in spans if span.trace_id == padded_id]
        assert len(padded) == 3
        assert len({id(span.trace_id) for span in padded}) == 1
        assert padded[0].trace_id is next(trace.trace_id for trace in traces if trace.trace_id == padded_id)
        assert len({id(span.name) for span in spans}) == 1
        assert len({id(span.service_name) for span in spans}) == 1

    def test_strings_are_shared_within_a_load_not_across_loads(self):
        document = json.dumps([zipkin_span(), zipkin_span(id="0000000000000002")])
        first, second = parse_trace_document(document)
        assert first.trace_id is second.trace_id
        assert first.name is second.name
        [other] = parse_trace_document(json.dumps([zipkin_span()]))
        assert other.trace_id is not first.trace_id


class TestKeptAttributes:
    """Given attribute keys, a read keeps only the attributes of those keys,
    as ``check`` reads with the keys its design matches on; every attribute
    is still checked."""

    def read(self, document, keys):
        return [span.attributes for span in parse_kept(json.dumps(document), keys)]

    def test_otel_keeps_the_given_keys(self):
        attributes = [
            {"key": "a", "value": {"intValue": "1"}},
            {"key": "b", "value": {"stringValue": "x"}},
            {"key": "c", "value": {"boolValue": True}},
        ]
        document = json.loads(otel_document([otel_span(attributes=attributes), otel_span(spanId="00000000000000a2")]))
        assert self.read(document, frozenset({"a", "c", "z"})) == [{"a": 1, "c": True}, {}]
        assert self.read(document, frozenset()) == [{}, {}]

    def test_zipkin_keeps_the_given_tags_as_strings(self):
        document = [zipkin_span(tags={"a": 5, "b": "x"}), zipkin_span(id="0000000000000002", tags={"b": "y"})]
        assert self.read(document, frozenset({"a"})) == [{"a": "5"}, {}]
        assert self.read(document, frozenset({"b"})) == [{"b": "x"}, {"b": "y"}]

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"intValue": str(2**63)}, "attribute 'b': integer 9223372036854775808 outside 64-bit signed range"),
            ({"intValue": "x1"}, "intValue 'x1' is not an integer"),
            ({"boolValue": "yes"}, "boolValue must hold a boolean"),
        ],
    )
    def test_a_bad_value_of_a_dropped_key_fails_the_document(self, value, message):
        attributes = [{"key": "a", "value": {"intValue": "1"}}, {"key": "b", "value": value}]
        document = json.loads(otel_document([otel_span(attributes=attributes)]))
        for keys in (frozenset(), frozenset({"a"})):
            with pytest.raises(MalformedDocumentError) as exc:
                self.read(document, keys)
            assert str(exc.value) == "span 0000000000000001: " + message

    def test_the_bundled_design_keeps_no_attribute(self, tmp_path, design_set):
        otel, zipkin = tmp_path / "otel", tmp_path / "zipkin"
        write_simulated_corpus(SimConfig(seed=3, trace_count=40), otel, 20)
        genutil.zipkin_copy(otel, zipkin)
        keys = matched_attribute_keys(design_set)
        assert keys == frozenset()
        for corpus in (otel, zipkin):
            traces, _ = load_corpus_dir(corpus)
            assert any(span.attributes for trace in traces for span in trace.spans.values())
            read, workers = corpus_reader(corpus, 1, keys)
            partition, _ = worker_partition(read, 0, None)
            assert len(partition) == sum(len(trace.spans) for trace in traces)
            assert all(attributes is model._NO_ATTRIBUTES for attributes in partition.attributes)
