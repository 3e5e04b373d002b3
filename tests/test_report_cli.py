"""Report rendering, DOT graphs, and the command-line interface."""

from __future__ import annotations

import json
import os
import shutil
from importlib import resources

import pytest

from confcheck import ingest, simulator
from confcheck.checker import check_corpus
from confcheck.cli import main
from confcheck.design import load_design_set
from confcheck.model import ObservedSpan, ObservedTrace
from confcheck.report import render_text_report, render_trace_dot, report_to_json_dict

from conftest import FIXTURES_DIR

BUNDLED_DESIGN = str(resources.files("confcheck").joinpath("fixtures/table2.design.json"))

CONFORMANT_ID = "3fa2b9c01d4e8b76a5091f2edc43ab10"
NONCONFORMANT_ID = "4fb3cad12e5f9c87b61a2f3fedc54bc2"


@pytest.fixture()
def fixture_corpus_dir(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(FIXTURES_DIR / "conformant.trace.json", corpus)
    shutil.copy(FIXTURES_DIR / "nonconformant.trace.json", corpus)
    return corpus


@pytest.fixture()
def conformant_corpus_dir(tmp_path):
    corpus = tmp_path / "conformant-corpus"
    corpus.mkdir()
    shutil.copy(FIXTURES_DIR / "conformant.trace.json", corpus)
    return corpus


class TestReportRendering:
    def test_json_schema_keys(self, design_set, conformant_trace, nonconformant_trace):
        report, verdicts = check_corpus(design_set, [conformant_trace, nonconformant_trace])
        payload = report_to_json_dict(report, verdicts)
        assert list(payload) == [
            "totalTraces",
            "conformantTraces",
            "nonConformantTraces",
            "conformancePercentage",
            "violationsByKind",
            "tracesByKind",
            "violationsByDesignSpan",
            "nonConformantTraceIds",
        ]
        assert list(payload["violationsByKind"]) == [
            "missingRequired",
            "durationExceeded",
            "disallowedPresent",
        ]
        assert payload["totalTraces"] == 2
        assert payload["conformantTraces"] == 1
        assert payload["nonConformantTraces"] == 1
        assert payload["conformancePercentage"] == 0.5
        assert payload["violationsByDesignSpan"] == [
            {"designTraceId": "gateway-db-access", "designSpanId": "D", "count": 1},
            {"designTraceId": "gateway-db-access", "designSpanId": "E", "count": 1},
            {"designTraceId": "required-flow", "designSpanId": "A", "count": 1},
        ]
        assert payload["nonConformantTraceIds"] == [NONCONFORMANT_ID]

    def test_max_ids_caps_listing(self, design_set, nonconformant_trace):
        report, verdicts = check_corpus(design_set, [nonconformant_trace])
        payload = report_to_json_dict(report, verdicts, max_ids=0)
        assert payload["nonConformantTraceIds"] == []
        assert payload["nonConformantTraces"] == 1

    def test_text_and_json_share_counts(self, design_set, conformant_trace, nonconformant_trace):
        report, verdicts = check_corpus(design_set, [conformant_trace, nonconformant_trace])
        payload = report_to_json_dict(report, verdicts)
        text = render_text_report(report)
        assert f"Traces checked:    {payload['totalTraces']}" in text
        assert f"Conformant:        {payload['conformantTraces']}" in text
        assert f"Non-conformant:    {payload['nonConformantTraces']}" in text
        assert "Conformance:       50.00%" in text
        for kind, count in payload["violationsByKind"].items():
            assert kind in text
        assert "gateway-db-access/D" in text

    def test_percentage_formatting(self, design_set, conformant_trace):
        report, _ = check_corpus(design_set, [conformant_trace])
        assert "Conformance:       100.00%" in render_text_report(report)

    def test_empty_corpus_flagged(self, design_set):
        report, _ = check_corpus(design_set, [])
        assert "empty corpus" in render_text_report(report)


class TestDotRendering:
    def test_conformant_graph_has_green_chain_and_no_red(self, design_set, conformant_trace):
        dot = render_trace_dot(design_set, conformant_trace)
        assert dot.startswith('digraph "trace_3fa2b9c01d4e8b76a5091f2edc43ab10"')
        assert "red" not in dot
        assert dot.count("color=green") == 3  # root, microservice request, query
        assert '"1a2b3c4d5e6f7a81" -> "2b3c4d5e6f7a8192";' in dot

    def test_nonconformant_graph_marks_witnesses(self, design_set, nonconformant_trace):
        dot = render_trace_dot(design_set, nonconformant_trace)
        # The gateway-side query witnesses the disallowed pattern: filled red.
        assert '"e5f60718293a4b5c" [label="sql_server.query\\ngateway\\n20000 us", style=filled, fillcolor=red];' in dot
        # The root both exceeds its budget and anchors the disallowed pattern;
        # the disallowed fill wins.
        assert '"a1b2c3d4e5f60718" [label="aspnet_core.request\\ngateway\\n600000 us", style=filled, fillcolor=red];' in dot

    def test_missing_span_renders_ghost_node(self, design_set, conformant_trace):
        from confcheck.model import ObservedTrace

        without_query = ObservedTrace.from_spans(
            conformant_trace.trace_id,
            [s for s in conformant_trace.spans.values() if s.name != "sql_server.query"],
        )
        dot = render_trace_dot(design_set, without_query)
        assert '"missing_required-flow_C"' in dot
        assert "style=dashed" in dot
        assert "DB operation" in dot

    def test_dot_output_is_stable(self, design_set, nonconformant_trace):
        assert render_trace_dot(design_set, nonconformant_trace) == render_trace_dot(
            design_set, nonconformant_trace
        )


class TestCheckCommand:
    def test_conformant_corpus_exits_zero(self, conformant_corpus_dir, capsys):
        code = main(["check", BUNDLED_DESIGN, str(conformant_corpus_dir), "--workers", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Conformance:       100.00%" in out

    def test_nonconformant_corpus_exits_one(self, fixture_corpus_dir, capsys):
        code = main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "1"])
        assert code == 1
        assert "Conformance:       50.00%" in capsys.readouterr().out

    def test_json_format_written_to_file(self, fixture_corpus_dir, tmp_path):
        out_file = tmp_path / "report.json"
        code = main(
            [
                "check",
                BUNDLED_DESIGN,
                str(fixture_corpus_dir),
                "--workers",
                "1",
                "--format",
                "json",
                "--out",
                str(out_file),
            ]
        )
        assert code == 1
        payload = json.loads(out_file.read_text())
        assert payload["totalTraces"] == 2
        assert payload["nonConformantTraceIds"] == [NONCONFORMANT_ID]

    def test_missing_design_file_exits_two(self, fixture_corpus_dir, capsys):
        code = main(["check", "/nope/missing.json", str(fixture_corpus_dir)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_design_file_exits_two(self, tmp_path, fixture_corpus_dir, capsys):
        bad = tmp_path / "bad.design.json"
        bad.write_text('{"designTraces": [{"id": "t", "spans": []}]}')
        code = main(["check", str(bad), str(fixture_corpus_dir)])
        assert code == 2

    def test_missing_corpus_dir_exits_two(self, capsys):
        code = main(["check", BUNDLED_DESIGN, "/nope/corpus"])
        assert code == 2

    def test_zero_workers_exits_two(self, fixture_corpus_dir, capsys):
        code = main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "0"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_negative_max_ids_exits_two(self, fixture_corpus_dir, capsys):
        code = main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--max-ids", "-1"])
        assert code == 2

    def test_unwritable_out_exits_two(self, fixture_corpus_dir, tmp_path, capsys):
        out = tmp_path / "missing" / "report.txt"
        code = main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSimulateCommand:
    def test_simulate_writes_corpus(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code = main(
            [
                "simulate",
                str(out_dir),
                "--count",
                "1000",
                "--seed",
                "42",
                "--p-direct",
                "0.1",
                "--traces-per-file",
                "500",
            ]
        )
        assert code == 0
        assert "wrote 1000 traces to 2 file(s)" in capsys.readouterr().out
        assert len(list(out_dir.glob("corpus-*.json"))) == 2

    def test_out_of_range_probability_exits_two(self, tmp_path, capsys):
        code = main(["simulate", str(tmp_path / "x"), "--count", "10", "--p-slow", "1.5"])
        assert code == 2
        assert "probability" in capsys.readouterr().err

    def test_zero_count_exits_two(self, tmp_path):
        assert main(["simulate", str(tmp_path / "x"), "--count", "0"]) == 2

    def test_simulated_corpus_round_trips_through_check(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert main(["simulate", str(out_dir), "--count", "50", "--seed", "5"]) == 0
        code = main(["check", BUNDLED_DESIGN, str(out_dir), "--workers", "1"])
        assert code == 0


class TestGraphCommand:
    def test_graph_writes_dot(self, fixture_corpus_dir, tmp_path):
        out = tmp_path / "trace.dot"
        code = main(
            [
                "graph",
                BUNDLED_DESIGN,
                str(fixture_corpus_dir),
                "--trace-id",
                NONCONFORMANT_ID,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        dot = out.read_text()
        assert "fillcolor=red" in dot

    def test_unknown_trace_id_exits_two(self, fixture_corpus_dir, capsys):
        code = main(
            [
                "graph",
                BUNDLED_DESIGN,
                str(fixture_corpus_dir),
                "--trace-id",
                "f" * 32,
            ]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unwritable_out_exits_two(self, fixture_corpus_dir, tmp_path, capsys):
        out = tmp_path / "missing" / "trace.dot"
        code = main(
            ["graph", BUNDLED_DESIGN, str(fixture_corpus_dir), "--trace-id", NONCONFORMANT_ID, "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestImportDesignCommand:
    def test_full_import_round_trips_through_check(self, conformant_corpus_dir, tmp_path):
        design_out = tmp_path / "imported.design.json"
        code = main(
            [
                "import-design",
                str(conformant_corpus_dir),
                "--trace-id",
                CONFORMANT_ID,
                "--out",
                str(design_out),
            ]
        )
        assert code == 0
        imported = load_design_set(design_out.read_bytes())
        assert len(imported.design_traces) == 1
        assert len(imported.design_traces[0].spans) == 6
        # The source trace conforms to its own imported design.
        assert main(["check", str(design_out), str(conformant_corpus_dir), "--workers", "1"]) == 0

    def test_partial_import_sets_non_immediate_flag(self, conformant_corpus_dir, tmp_path, capsys):
        root = "1a2b3c4d5e6f7a81"
        leaf = "4d5e6f7a81920314"
        code = main(
            [
                "import-design",
                str(conformant_corpus_dir),
                "--trace-id",
                CONFORMANT_ID,
                "--keep",
                root,
                "--keep",
                leaf,
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        spans = {s["spanId"]: s for s in payload["designTraces"][0]["spans"]}
        assert spans[leaf]["parentSpanId"] == root
        assert spans[leaf]["design"]["allowNonImmediateParent"] is True
        assert spans[root]["design"]["allowNonImmediateParent"] is False

    def test_unknown_keep_id_exits_two(self, conformant_corpus_dir, capsys):
        code = main(
            [
                "import-design",
                str(conformant_corpus_dir),
                "--trace-id",
                CONFORMANT_ID,
                "--keep",
                "00000000000000ff",
            ]
        )
        assert code == 2

    def test_unwritable_out_exits_two(self, conformant_corpus_dir, tmp_path, capsys):
        out = tmp_path / "missing" / "imported.design.json"
        code = main(["import-design", str(conformant_corpus_dir), "--trace-id", CONFORMANT_ID, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestMissingOutDirectory:
    @pytest.mark.parametrize(
        "command",
        [
            ["check", BUNDLED_DESIGN, "{corpus}", "--workers", "1"],
            ["graph", BUNDLED_DESIGN, "{corpus}", "--trace-id", NONCONFORMANT_ID],
            ["import-design", "{corpus}", "--trace-id", NONCONFORMANT_ID],
        ],
        ids=["check", "graph", "import-design"],
    )
    def test_fails_before_ingest(self, command, fixture_corpus_dir, tmp_path, monkeypatch, capsys):
        loads = []
        real_load = ingest.load_corpus_dir
        monkeypatch.setattr(
            ingest, "load_corpus_dir", lambda path, *share, **kw: loads.append(path) or real_load(path, *share, **kw)
        )
        argv = [arg.format(corpus=fixture_corpus_dir) for arg in command]
        out = tmp_path / "missing" / "result.out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert loads == []
        # The same command with a writable --out does read the corpus.
        assert main(argv + ["--out", str(tmp_path / "result.out")]) in (0, 1)
        assert loads == [str(fixture_corpus_dir)]


def _otel_file(path, spans, service="microservice"):
    resource = {"attributes": [{"key": "service.name", "value": {"stringValue": service}}]}
    path.write_text(json.dumps({"resourceSpans": [{"resource": resource, "scopeSpans": [{"spans": spans}]}]}))


def _raw_span(trace_id, span_id, parent=None, start="1000", end="2000"):
    span = {"traceId": trace_id, "spanId": span_id, "name": "op", "startTimeUnixNano": start, "endTimeUnixNano": end}
    if parent is not None:
        span["parentSpanId"] = parent
    return span


def _trace_id_in(partitions_by_k):
    """The first trace id whose partition at each K is the one given."""
    for index in range(1, 10_000):
        trace_id = f"{index:032x}"
        if all(ingest._partition_of(trace_id, k) == part for k, part in partitions_by_k.items()):
            return trace_id
    raise AssertionError(f"no trace id lands in {partitions_by_k}")


def _split_traces_corpus(corpus):
    """Simulated traces, each split across an OTel and a Zipkin file, plus
    a span with a missing parent and one whose end precedes its start."""
    traces = simulator.generate_corpus(
        simulator.SimConfig(seed=5, trace_count=40, p_omit=0.2, p_slow=0.2, p_direct=0.2)
    )
    halves = ([], [])
    for trace in traces:
        ids = sorted(trace.spans)
        for half, chosen in zip(halves, (ids[::2], ids[1::2])):
            half.append(ObservedTrace(trace.trace_id, {span_id: trace.spans[span_id] for span_id in chosen}))
    (corpus / "a.json").write_text(ingest.serialize_otel_json(halves[0]))
    zipkin = [
        {
            "traceId": span.trace_id,
            "id": span.span_id,
            **({"parentId": span.parent_span_id} if span.parent_span_id else {}),
            "name": span.name,
            "timestamp": span.start_time_nanos // 1000,
            "duration": span.duration_micros,
            "localEndpoint": {"serviceName": span.service_name},
            "tags": {key: str(value) for key, value in span.attributes.items()},
        }
        for trace in halves[1]
        for span in trace.spans.values()
    ]
    (corpus / "b.json").write_text(json.dumps(zipkin))
    first, last = traces[0].trace_id, traces[-1].trace_id
    _otel_file(
        corpus / "c.json",
        [
            _raw_span(first, "00000000000000d1", parent="00000000000000ee"),
            _raw_span(last, "00000000000000d2", start="5000", end="4000"),
        ],
    )


def _malformed_corpus(corpus):
    shutil.copy(FIXTURES_DIR / "conformant.trace.json", corpus / "a.json")
    (corpus / "m.json").write_text('{"resourceSpans": [')
    shutil.copy(FIXTURES_DIR / "nonconformant.trace.json", corpus / "z.json")


def _deeply_nested_corpus(corpus):
    shutil.copy(FIXTURES_DIR / "conformant.trace.json", corpus / "a.json")
    (corpus / "deep.json").write_text("[" * 200_000 + "]" * 200_000)


def _duplicate_span_corpus(corpus):
    shutil.copy(FIXTURES_DIR / "conformant.trace.json", corpus / "a.json")
    _otel_file(corpus / "b.json", [_raw_span(CONFORMANT_ID, "00000000000000b2", parent="00000000000000b1")])
    _otel_file(corpus / "c.json", [_raw_span(CONFORMANT_ID, "00000000000000b2", end="3000")])


def _parent_cycle_corpus(corpus):
    shutil.copy(FIXTURES_DIR / "nonconformant.trace.json", corpus / "a.json")
    trace_id = _trace_id_in({2: 1})
    _otel_file(corpus / "b.json", [_raw_span(trace_id, "00000000000000c1", parent="00000000000000c2")])
    _otel_file(corpus / "c.json", [_raw_span(trace_id, "00000000000000c2", parent="00000000000000c1")])


def _errors_in_two_partitions_corpus(corpus):
    # The first file's error lies in a later partition than the second
    # file's, so a partition's own error is not the one a serial run names.
    late, early = _trace_id_in({2: 1, 3: 2}), _trace_id_in({2: 0, 3: 0})
    _otel_file(corpus / "a.json", [_raw_span(late, "00000000000000a1", end="soon")])
    _otel_file(
        corpus / "b.json",
        [
            _raw_span(early, "00000000000000a1", parent="00000000000000a2"),
            _raw_span(early, "00000000000000a2", parent="00000000000000a1"),
        ],
    )


class TestPartitionedCheck:
    """``check --workers K`` gives one worker per trace-id partition; its
    output and exit code must not depend on K."""

    CORPORA = {
        "split-traces": (_split_traces_corpus, 1, "warning: 2 ingest warning(s)\n"),
        "malformed-file": (_malformed_corpus, 2, "error: m.json: invalid JSON"),
        "deeply-nested-file": (_deeply_nested_corpus, 2, "error: deep.json: JSON nested too deeply"),
        "duplicate-span-across-files": (
            _duplicate_span_corpus, 2, f"error: trace {CONFORMANT_ID}: duplicate span id 00000000000000b2"
        ),
        "parent-cycle": (_parent_cycle_corpus, 2, "error: trace "),
        "errors-in-two-partitions": (_errors_in_two_partitions_corpus, 2, "error: a.json: span 00000000000000a1"),
    }

    @pytest.mark.parametrize("name", list(CORPORA))
    def test_output_independent_of_worker_count(self, name, tmp_path, capsys):
        build, expected_code, expected_err = self.CORPORA[name]
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        build(corpus)
        for fmt in ("json", "text"):
            runs = []
            for workers in ("1", "2", "3"):
                code = main(["check", BUNDLED_DESIGN, str(corpus), "--format", fmt, "--workers", workers])
                runs.append((code, *capsys.readouterr()))
            assert runs[1] == runs[0] and runs[2] == runs[0]
            code, out, err = runs[0]
            assert code == expected_code
            assert err.startswith(expected_err)
            assert (out == "") == (expected_code == 2)

    def test_dying_worker_is_an_error(self, fixture_corpus_dir, monkeypatch, capsys):
        # A worker killed mid-check (by the OOM killer, say) leaves the check
        # incomplete: exit 2 with an error line, not 1 with a traceback.
        real_load = ingest.load_corpus_dir

        def load(directory, partition=0, partitions=1):
            if partition == 1:
                os._exit(9)
            return real_load(directory, partition, partitions)

        monkeypatch.setattr(ingest, "load_corpus_dir", load)
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: a worker process exited unexpectedly")
        assert "Traceback" not in err

    def test_parent_builds_no_spans(self, fixture_corpus_dir, monkeypatch, capsys):
        built = []
        real_post_init = ObservedSpan.__post_init__
        monkeypatch.setattr(ObservedSpan, "__post_init__", lambda span: built.append(span) or real_post_init(span))
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "2"]) == 1
        assert built == []
        # The same check in process does build them.
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "1"]) == 1
        assert len(built) == 12


class TestValidateDesignCommand:
    def test_valid_design_summary(self, capsys):
        assert main(["validate-design", BUNDLED_DESIGN]) == 0
        out = capsys.readouterr().out
        assert "2 design trace(s), 5 span(s)" in out
        assert "1 required / 1 disallowed" in out

    def test_invalid_design_lists_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.design.json"
        bad.write_text(
            json.dumps(
                {
                    "designTraces": [
                        {
                            "id": "t",
                            "spans": [
                                {
                                    "spanId": "A",
                                    "name": "op",
                                    "parentSpanId": "Z",
                                    "match": {"service.name": "svc"},
                                    "design": {},
                                }
                            ],
                        }
                    ]
                }
            )
        )
        assert main(["validate-design", str(bad)]) == 2
        assert "unknownParent" in capsys.readouterr().err


class TestUsage:
    def test_no_subcommand_exits_two(self, capsys):
        assert main([]) == 2

    def test_workers_env_override(self, monkeypatch):
        from confcheck.cli import _default_workers

        monkeypatch.setenv("CONFCHECK_WORKERS", "3")
        assert _default_workers() == 3
        monkeypatch.setenv("CONFCHECK_WORKERS", "bogus")
        assert _default_workers() >= 1

    def test_invalid_workers_env_warns_only_for_check(self, fixture_corpus_dir, monkeypatch, capsys):
        monkeypatch.setenv("CONFCHECK_WORKERS", "bogus")
        assert main(["validate-design", BUNDLED_DESIGN]) == 0
        assert capsys.readouterr().err == ""
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir)]) == 1
        assert capsys.readouterr().err == "warning: ignoring invalid CONFCHECK_WORKERS='bogus'\n"

    def test_workers_flag_leaves_env_unread(self, fixture_corpus_dir, monkeypatch, capsys):
        monkeypatch.setenv("CONFCHECK_WORKERS", "bogus")
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "1"]) == 1
        assert capsys.readouterr().err == ""
        monkeypatch.setenv("CONFCHECK_WORKERS", "1")
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir)]) == 1
        assert capsys.readouterr().err == ""
