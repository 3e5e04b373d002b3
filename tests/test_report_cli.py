"""Report rendering, DOT graphs, and the command-line interface."""

from __future__ import annotations

import dataclasses
import errno
import gc
import importlib
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import zlib
from importlib import resources
from pathlib import Path

import pytest

from confcheck import checker, ingest, simulator
from confcheck import report as report_module
from confcheck.checker import check_corpus
from confcheck.cli import main
from confcheck.design import DesignTraceSet, load_design_set
from confcheck.model import ObservedSpan, ObservedTrace, Partition, trace_hash_class
from confcheck.report import render_text_report, render_trace_dot, report_to_json_dict

import genutil
from conftest import FIXTURES_DIR
from test_runner import deadline

BUNDLED_DESIGN = str(resources.files("confcheck").joinpath("fixtures/table2.design.json"))

CONFORMANT_ID = "3fa2b9c01d4e8b76a5091f2edc43ab10"
NONCONFORMANT_ID = "4fb3cad12e5f9c87b61a2f3fedc54bc2"


STYLE_TRACE_ID = "0" * 31 + "7"


def style_design_set():
    """Required, duration-bounded and disallowed design traces that together
    give one trace every DOT style; the required traces are listed out of id
    order."""

    def span(span_id, name, service, parent=None, description=None, max_duration=None, disallowed=False):
        return {
            "spanId": span_id,
            "name": name,
            "parentSpanId": parent,
            "match": {"service.name": service},
            "design": {
                "description": description,
                "maxDuration": max_duration,
                "allowNonImmediateParent": True,
                "isDisallowed": disallowed,
            },
        }

    document = {
        "designTraces": [
            {
                "id": "zeta-flow",
                "spans": [
                    span("A", "root", "gateway"),
                    span("B", "mid", "backend", "A", 'calls "mid"'),
                    span("C", "leaf", "backend", "B", "leaf work"),
                ],
            },
            {
                "id": "alpha-budget",
                "spans": [span("S", "slow", "gateway", max_duration=100), span("T", "absent", "gateway")],
            },
            {
                "id": "forbidden",
                "spans": [
                    span("D", "call", "gateway", disallowed=True),
                    span("E", "bad", "gateway", "D", disallowed=True),
                ],
            },
        ]
    }
    return load_design_set(json.dumps(document))


def style_trace():
    """A green root, a disallowed call chain, two over-budget ``slow`` spans
    (the faster is the duration witness), an unstyled span and one with a
    dangling parent."""

    def span(number, name, service, parent=None, duration_micros=1000):
        return ObservedSpan(
            trace_id=STYLE_TRACE_ID,
            span_id=f"{number:016x}",
            parent_span_id=None if parent is None else f"{parent:016x}",
            name=name,
            service_name=service,
            start_time_nanos=0,
            end_time_nanos=duration_micros * 1000,
        )

    return ObservedTrace.from_spans(
        STYLE_TRACE_ID,
        [
            span(1, "root", "gateway"),
            span(2, "call", "gateway", 1),
            span(3, "bad", "gateway", 2),
            span(4, "slow", "gateway", 1, duration_micros=500),
            span(5, "cache.get", "cache", 1),
            span(6, "slow", "gateway", 1, duration_micros=300),
            span(7, "orphan", "gateway", 0xFF),
        ],
    )


# Recorded from an earlier renderer, which read the verdict and the witnesses
# through two separate checker calls; one match run must give the same bytes.
STYLE_TRACE_DOT = """\
digraph "trace_00000000000000000000000000000007" {
  rankdir=TB;
  node [shape=box, fontname="Helvetica"];
  "0000000000000001" [label="root\\ngateway\\n1000 us", color=green];
  "0000000000000002" [label="call\\ngateway\\n1000 us", style=filled, fillcolor=red];
  "0000000000000003" [label="bad\\ngateway\\n1000 us", style=filled, fillcolor=red];
  "0000000000000004" [label="slow\\ngateway\\n500 us"];
  "0000000000000005" [label="cache.get\\ncache\\n1000 us"];
  "0000000000000006" [label="slow\\ngateway\\n300 us", color=red];
  "0000000000000007" [label="orphan\\ngateway\\n1000 us"];
  "missing_alpha-budget_T" [label="missing: absent", style=dashed, color=red];
  "missing_zeta-flow_B" [label="missing: mid\\ncalls \\"mid\\"", style=dashed, color=red];
  "0000000000000001" -> "missing_zeta-flow_B" [style=dashed];
  "missing_zeta-flow_C" [label="missing: leaf\\nleaf work", style=dashed, color=red];
  "0000000000000001" -> "0000000000000002";
  "0000000000000002" -> "0000000000000003";
  "0000000000000001" -> "0000000000000004";
  "0000000000000001" -> "0000000000000005";
  "0000000000000001" -> "0000000000000006";
}
"""


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

    def test_ghost_anchors_at_its_parents_over_budget_match(self, design_set, nonconformant_trace):
        # A 600 ms root and its client span, with no microservice request:
        # the root matches design span A only over budget, and B's ghost
        # hangs off it.
        root, client = "a1b2c3d4e5f60718", "b2c3d4e5f6071829"
        trace = ObservedTrace.from_spans(
            nonconformant_trace.trace_id, [nonconformant_trace.spans[root], nonconformant_trace.spans[client]]
        )
        dot = render_trace_dot(design_set, trace)
        assert f'"{root}" [label="aspnet_core.request\\ngateway\\n600000 us", color=red];' in dot
        assert f'  "{root}" -> "missing_required-flow_B" [style=dashed];\n' in dot
        # C's design parent is itself missing: its ghost has no edge.
        assert '-> "missing_required-flow_C"' not in dot

    def test_ghost_ids_are_escaped(self, design_set, nonconformant_trace):
        # The ghost of B hangs off the over-budget root, C's has no edge; a
        # quote or backslash in a design id must stay inside the quoted id.
        root, client = "a1b2c3d4e5f60718", "b2c3d4e5f6071829"
        trace = ObservedTrace.from_spans(
            nonconformant_trace.trace_id, [nonconformant_trace.spans[root], nonconformant_trace.spans[client]]
        )
        renamed = DesignTraceSet.of(
            dataclasses.replace(design_trace, design_trace_id=design_trace.design_trace_id + '"x\\')
            for design_trace in design_set.design_traces
        )
        lines = render_trace_dot(renamed, trace).splitlines()
        ghost_b, ghost_c = '"missing_required-flow\\"x\\\\_B"', '"missing_required-flow\\"x\\\\_C"'
        assert f'  {ghost_b} [label="missing: aspnet_core.request\\nProcess request", style=dashed, color=red];' in lines
        assert f'  "{root}" -> {ghost_b} [style=dashed];' in lines
        assert f'  {ghost_c} [label="missing: sql_server.query\\nDB operation", style=dashed, color=red];' in lines

    def test_dot_output_is_stable(self, design_set, nonconformant_trace):
        assert render_trace_dot(design_set, nonconformant_trace) == render_trace_dot(
            design_set, nonconformant_trace
        )

    def test_every_style_golden_bytes(self):
        # Green witness, red-outline duration witness, red-fill disallowed
        # witnesses, a ghost anchored at its parent's witness, a ghost whose
        # parent is itself missing, and a ghost of a root design span.
        assert render_trace_dot(style_design_set(), style_trace()) == STYLE_TRACE_DOT

    def test_one_index_and_one_plan_run_per_design_trace(self, monkeypatch):
        design_set = style_design_set()
        trace = style_trace()
        indexed, planned = [], []
        real_index, real_plan = checker._candidate_index, checker._plan_matches

        def counting_index(observed_trace):
            indexed.append(observed_trace.trace_id)
            return real_index(observed_trace)

        def counting_plan(plan, index):
            planned.append(plan.steps[0].span.design_span_id)
            return real_plan(plan, index)

        monkeypatch.setattr(checker, "_candidate_index", counting_index)
        monkeypatch.setattr(report_module, "_candidate_index", counting_index)
        monkeypatch.setattr(checker, "_plan_matches", counting_plan)
        render_trace_dot(design_set, trace)
        assert indexed == [STYLE_TRACE_ID]
        assert sorted(planned) == ["A", "D", "S"]


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

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["check", "graph"])
    def test_missing_corpus_path_is_named_missing(self, command, workers, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(_corpus_command(command, missing, workers)) == 2
        assert capsys.readouterr() == ("", f"error: corpus directory {missing} does not exist\n")

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["check", "graph"])
    def test_corpus_path_that_is_a_file_is_named_a_file(self, command, workers, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        trace_file.write_text("[]")
        assert main(_corpus_command(command, trace_file, workers)) == 2
        assert capsys.readouterr() == ("", f"error: corpus {trace_file} is not a directory\n")

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

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_smaller_run_deletes_the_earlier_runs_extra_files(self, tmp_path, workers, monkeypatch, capsys):
        monkeypatch.setenv("CONFCHECK_WORKERS", workers)
        out_dir = tmp_path / "sim"
        assert main(["simulate", str(out_dir), "--count", "50", "--traces-per-file", "10", "--seed", "1"]) == 0
        assert main(["simulate", str(out_dir), "--count", "20", "--traces-per-file", "10", "--seed", "2"]) == 0
        assert sorted(path.name for path in out_dir.iterdir()) == ["corpus-000000.json", "corpus-000001.json"]
        capsys.readouterr()
        main(["check", BUNDLED_DESIGN, str(out_dir), "--workers", "1", "--format", "json"])
        assert json.loads(capsys.readouterr().out)["totalTraces"] == 20

    def test_other_files_survive_a_rerun(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        out_dir.mkdir()
        kept = ["corpus-latest.json", "corpus-000009.json.bak", "notes.txt", "corpus-000000.txt"]
        for name in kept:
            (out_dir / name).write_text("keep")
        assert main(["simulate", str(out_dir), "--count", "5", "--traces-per-file", "10"]) == 0
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(kept + ["corpus-000000.json"])
        assert all((out_dir / name).read_text() == "keep" for name in kept)

    @pytest.fixture()
    def generated(self, monkeypatch):
        """The index of each trace drawn, in draw order."""
        calls = []
        real_draw_trace = simulator._draw_trace

        def counting_draw_trace(config, index, rows):
            calls.append(index)
            real_draw_trace(config, index, rows)

        monkeypatch.setattr(simulator, "_draw_trace", counting_draw_trace)
        return calls

    def test_each_trace_generated_once_in_order(self, tmp_path, generated, monkeypatch, capsys):
        monkeypatch.setenv("CONFCHECK_WORKERS", "1")
        assert main(["simulate", str(tmp_path / "sim"), "--count", "7", "--traces-per-file", "3"]) == 0
        assert generated == list(range(7))
        assert capsys.readouterr().out.startswith("wrote 7 traces to 3 file(s)")

    @pytest.mark.parametrize("workers", ["2", "3"])
    def test_each_trace_generated_once_by_workers(self, tmp_path, workers, monkeypatch, capsys):
        # The workers log each index they draw to one file, appending a line
        # per call: each index once, and in order within each file.
        log = tmp_path / "generated.log"
        real_draw_trace = simulator._draw_trace

        def logging_draw_trace(config, index, rows):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {index}\n")
            real_draw_trace(config, index, rows)

        monkeypatch.setattr(simulator, "_draw_trace", logging_draw_trace)
        monkeypatch.setenv("CONFCHECK_WORKERS", workers)
        assert main(["simulate", str(tmp_path / "sim"), "--count", "7", "--traces-per-file", "3"]) == 0
        assert capsys.readouterr().out.startswith("wrote 7 traces to 3 file(s)")
        calls = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(index for _, index in calls) == list(range(7))
        for number in range(3):
            in_file = [(pid, index) for pid, index in calls if index // 3 == number]
            assert [index for _, index in in_file] == list(range(3 * number, min(3 * number + 3, 7)))
            assert len({pid for pid, _ in in_file}) == 1 and in_file[0][0] != os.getpid()
        assert len({pid for pid, _ in calls}) == int(workers)

    def test_dying_worker_is_an_error(self, tmp_path, monkeypatch, capsys):
        # A worker killed mid-run leaves the corpus incomplete: exit 2 with
        # an error line, not a traceback.
        real_write_file = simulator._write_file

        def write_file(directory, number, *rest):
            if number == 1:
                os._exit(9)
            real_write_file(directory, number, *rest)

        monkeypatch.setattr(simulator, "_write_file", write_file)
        monkeypatch.setenv("CONFCHECK_WORKERS", "2")
        out_dir = tmp_path / "sim"
        assert main(["simulate", str(out_dir), "--count", "20", "--traces-per-file", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: a worker process exited unexpectedly; the corpus in {out_dir} is incomplete\n"

    def test_a_workers_os_error_is_reported_as_in_process(self, tmp_path, monkeypatch, capsys):
        # The second file's name is taken by a directory, so writing it fails:
        # the same error line and exit code from a worker as in this process.
        runs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / "sim"
            (out_dir / "corpus-000001.json").mkdir(parents=True, exist_ok=True)
            monkeypatch.setenv("CONFCHECK_WORKERS", workers)
            code = main(["simulate", str(out_dir), "--count", "20", "--traces-per-file", "10"])
            runs.append((code, *capsys.readouterr()))
        assert runs[1] == runs[0]
        code, out, err = runs[0]
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 21] Is a directory: ") and "corpus-000001.json" in err

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("per_file, expected_code", [("5", 0), ("0", 2)], ids=["ok", "error"])
    def test_collector_state_restored(self, tmp_path, enabled, per_file, expected_code, capsys):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = main(["simulate", str(tmp_path / "sim"), "--count", "5", "--traces-per-file", per_file])
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert code == expected_code

    @pytest.mark.parametrize("case", ["zero-traces-per-file", "out-dir-is-a-file", "out-dir-under-a-file"])
    def test_bad_output_fails_before_generating(self, case, tmp_path, generated, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out_dir, per_file = {
            "zero-traces-per-file": (tmp_path / "sim", "0"),
            "out-dir-is-a-file": (blocker, "10"),
            "out-dir-under-a-file": (blocker / "sim", "10"),
        }[case]
        code = main(["simulate", str(out_dir), "--count", "20000", "--traces-per-file", per_file])
        out, err = capsys.readouterr()
        assert (code, out, generated) == (2, "", [])
        assert err.startswith("error: ") and "Traceback" not in err
        if case == "zero-traces-per-file":
            assert "traces_per_file must be a positive integer, got 0" in err
            assert not out_dir.exists()


def cut_short(name):
    """An ``open`` for ingest's writer under which writing a file called
    ``name`` stops halfway and fails, as on a full disk; every other file is
    opened as usual."""

    class CutShort:
        def __init__(self, path, mode, **kwargs):
            self.file = open(path, mode, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.file.close()

        def write(self, text):
            self.file.write(text[: len(text) // 2])
            self.file.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    return lambda path, mode="r", **kwargs: (CutShort if Path(path).name == name else open)(path, mode, **kwargs)


class TestDurableOutputs:
    """A file that ``simulate`` or ``--out`` writes holds its old bytes or
    all its new ones: a write that fails midway leaves no part of it."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_failed_simulate_leaves_only_whole_files(self, tmp_path, workers, monkeypatch, capsys):
        monkeypatch.setenv("CONFCHECK_WORKERS", workers)
        out_dir = tmp_path / "sim"
        argv = ["simulate", str(out_dir), "--count", "30", "--traces-per-file", "10"]
        assert main(argv + ["--seed", "1"]) == 0
        before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        monkeypatch.setattr(ingest, "open", cut_short("corpus-000001.json.partial"), raising=False)
        assert main(argv + ["--seed", "2"]) == 2
        assert capsys.readouterr().err.endswith("No space left on device\n")
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(before)
        assert (out_dir / "corpus-000001.json").read_bytes() == before["corpus-000001.json"]
        for path in out_dir.glob("*.json"):
            json.loads(path.read_bytes())

    def test_a_failed_out_write_keeps_the_last_report(self, fixture_corpus_dir, tmp_path, monkeypatch, capsys):
        report = tmp_path / "report.txt"
        report.write_text("the last good report\n")
        monkeypatch.setattr(ingest, "open", cut_short("report.txt.partial"), raising=False)
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "1", "--out", str(report)]) == 2
        assert capsys.readouterr() == ("", "error: [Errno 28] No space left on device\n")
        assert report.read_text() == "the last good report\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus", "report.txt"]

    def test_an_out_file_is_replaced_whole(self, fixture_corpus_dir, tmp_path, capsys):
        argv = ["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "1"]
        assert main(argv) == 1
        expected = capsys.readouterr().out
        report = tmp_path / "report.txt"
        report.write_text("x" * 100_000)
        assert main(argv + ["--out", str(report)]) == 1
        assert report.read_text() == expected
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus", "report.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="os.mkfifo is not available")
    def test_an_out_fifo_is_written_in_place(self, fixture_corpus_dir, tmp_path, capsys):
        argv = ["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "1"]
        assert main(argv) == 1
        expected = capsys.readouterr().out
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        # Opened for reading first, so that opening it for writing does not wait.
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with deadline(30):
                assert main(argv + ["--out", str(fifo)]) == 1
            assert os.read(reader, 1 << 16).decode() == expected
        finally:
            os.close(reader)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["corpus", "report.fifo"]

    def test_an_out_symlink_is_written_through(self, fixture_corpus_dir, tmp_path, capsys):
        argv = ["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "1"]
        assert main(argv) == 1
        expected = capsys.readouterr().out
        (tmp_path / "report.txt").write_text("old")
        link = tmp_path / "latest.txt"
        link.symlink_to("report.txt")
        assert main(argv + ["--out", str(link)]) == 1
        assert link.is_symlink() and (tmp_path / "report.txt").read_text() == expected

    def test_a_rerun_removes_only_its_own_partial_files(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        out_dir.mkdir()
        left = ["corpus-000000.json.partial", "corpus-000007.json.partial"]
        kept = ["corpus-x.json.partial", "other.json.partial", "corpus-000001.json.partial.bak", "corpus-000002.partial"]
        for name in left + kept:
            (out_dir / name).write_text("{")
        (out_dir / "corpus-000003.json.partial").mkdir()
        kept.append("corpus-000003.json.partial")
        assert main(["simulate", str(out_dir), "--count", "5", "--traces-per-file", "10"]) == 0
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(kept + ["corpus-000000.json"])


def _corpus_command(command, corpus, workers):
    """``check`` at ``workers`` workers, or ``graph`` of one trace, of the corpus path ``corpus``."""
    if command == "check":
        return ["check", BUNDLED_DESIGN, str(corpus), "--workers", workers]
    return ["graph", BUNDLED_DESIGN, str(corpus), "--trace-id", NONCONFORMANT_ID]


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

    def test_builds_spans_of_the_named_trace_only(self, fixture_corpus_dir, nonconformant_trace, monkeypatch, capsys):
        built = []
        real_post_init = ObservedSpan.__post_init__
        monkeypatch.setattr(ObservedSpan, "__post_init__", lambda span: built.append(span) or real_post_init(span))
        assert main(["graph", BUNDLED_DESIGN, str(fixture_corpus_dir), "--trace-id", NONCONFORMANT_ID]) == 0
        assert len(built) == len(nonconformant_trace.spans) == 6
        assert {span.trace_id for span in built} == {NONCONFORMANT_ID}

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
        real_read = ingest.read_files
        # Every corpus read at one worker, and that of graph and import-design,
        # reads the files by read_files: logged here by their directory.
        monkeypatch.setattr(
            ingest,
            "read_files",
            lambda paths: loads.extend({str(path.parent) for path in paths}) or real_read(paths),
        )
        argv = [arg.format(corpus=fixture_corpus_dir) for arg in command]
        out = tmp_path / "missing" / "result.out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert loads == []
        # The same command with a writable --out does read the corpus.
        assert main(argv + ["--out", str(tmp_path / "result.out")]) in (0, 1)
        assert loads == [str(fixture_corpus_dir)]


class TestOutNamesNoFile:
    """An ``--out`` that is an existing directory, or empty, cannot be
    written: exit 2 before the corpus is read, not after a whole check."""

    @pytest.mark.parametrize("out", ["directory", "empty"])
    @pytest.mark.parametrize(
        "command",
        [
            ["check", BUNDLED_DESIGN, "{corpus}", "--workers", "1"],
            ["graph", BUNDLED_DESIGN, "{corpus}", "--trace-id", NONCONFORMANT_ID],
            ["import-design", "{corpus}", "--trace-id", NONCONFORMANT_ID],
        ],
        ids=["check", "graph", "import-design"],
    )
    def test_fails_before_ingest(self, command, out, fixture_corpus_dir, tmp_path, monkeypatch, capsys):
        loads = []
        real_read = ingest.read_files
        monkeypatch.setattr(ingest, "read_files", lambda paths: loads.append(paths) or real_read(paths))
        argv = [arg.format(corpus=fixture_corpus_dir) for arg in command]
        if out == "directory":
            expected = f"error: cannot write {tmp_path}: it is a directory\n"
            out = str(tmp_path)
        else:
            expected = "error: --out must name a file, got an empty path\n"
            out = ""
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr() == ("", expected)
        assert loads == []


class TestNonRegularEntries:
    """A ``*.json`` entry of a corpus that is not a regular file, such as a
    directory or a named pipe, is skipped: each command gives what it gives
    for the corpus without that entry, and a pipe is never opened."""

    @pytest.mark.parametrize("entry", ["directory", "fifo"])
    @pytest.mark.parametrize(
        "command",
        [
            ["check", BUNDLED_DESIGN, "{corpus}", "--workers", "1"],
            ["check", BUNDLED_DESIGN, "{corpus}", "--workers", "2"],
            ["graph", BUNDLED_DESIGN, "{corpus}", "--trace-id", NONCONFORMANT_ID],
            ["import-design", "{corpus}", "--trace-id", NONCONFORMANT_ID],
        ],
        ids=["check-1", "check-2", "graph", "import-design"],
    )
    def test_is_skipped(self, command, entry, fixture_corpus_dir, capsys):
        if entry == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("os.mkfifo is not available")
        argv = [arg.format(corpus=fixture_corpus_dir) for arg in command]
        expected = (main(argv), *capsys.readouterr())
        if entry == "directory":
            (fixture_corpus_dir / "sub.json").mkdir()
        else:
            os.mkfifo(fixture_corpus_dir / "pipe.json")
        # Opening a pipe for reading waits for a writer, which never comes.
        with deadline(30):
            assert (main(argv), *capsys.readouterr()) == expected
        assert expected[0] in (0, 1)


def _otel_file(path, spans, service="microservice"):
    resource = {"attributes": [{"key": "service.name", "value": {"stringValue": service}}]}
    path.write_text(json.dumps({"resourceSpans": [{"resource": resource, "scopeSpans": [{"spans": spans}]}]}))


def _raw_span(trace_id, span_id, parent=None, start="1000", end="2000"):
    span = {"traceId": trace_id, "spanId": span_id, "name": "op", "startTimeUnixNano": start, "endTimeUnixNano": end}
    if parent is not None:
        span["parentSpanId"] = parent
    return span


def _trace_id_in(owners_by_k):
    """The first trace id whose owner at each K, the worker its spans go to
    when they lie in different workers' files, is the one given."""
    for index in range(1, 10_000):
        trace_id = f"{index:032x}"
        if all(trace_hash_class(trace_id, k) == owner for k, owner in owners_by_k.items()):
            return trace_id
    raise AssertionError(f"no trace id lands in {owners_by_k}")


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
    # Each file holds an error, and at two and three workers each file has a
    # worker of its own: a.json's error is found as it is read, b.json's (a
    # parent cycle) only as its trace is assembled. a.json's trace would go
    # to a later worker than b.json's, were either split across files.
    late, early = _trace_id_in({2: 1, 3: 2}), _trace_id_in({2: 0, 3: 0})
    _otel_file(corpus / "a.json", [_raw_span(late, "00000000000000a1", end="soon")])
    _otel_file(
        corpus / "b.json",
        [
            _raw_span(early, "00000000000000a1", parent="00000000000000a2"),
            _raw_span(early, "00000000000000a2", parent="00000000000000a1"),
        ],
    )


def _cycles_in_two_partitions_corpus(corpus):
    # A parent cycle in each file, and each file read by its own worker: the
    # first worker's cycle is not the one with the smaller trace id, which a
    # serial run names.
    late, early = "0" * 31 + "2", "0" * 31 + "1"
    for name, trace_id in (("a.json", late), ("b.json", early)):
        _otel_file(
            corpus / name,
            [
                _raw_span(trace_id, "00000000000000c1", parent="00000000000000c2"),
                _raw_span(trace_id, "00000000000000c2", parent="00000000000000c1"),
            ],
        )


def _duplicates_in_two_partitions_corpus(corpus):
    # A duplicate span id in each file, and each file read by its own
    # worker: the first worker's broken trace is not the one with the
    # smaller trace id, which a serial run names.
    late, early = "0" * 31 + "2", "0" * 31 + "1"
    for name, trace_id in (("a.json", late), ("b.json", early)):
        _otel_file(
            corpus / name, [_raw_span(trace_id, "00000000000000d1"), _raw_span(trace_id, "00000000000000d1", end="3000")]
        )


# A parent cycle of three spans, c1 -> c3 -> c2 -> c1.
THREE_CYCLE_PARENTS = {
    "00000000000000c1": "00000000000000c3",
    "00000000000000c2": "00000000000000c1",
    "00000000000000c3": "00000000000000c2",
}


def _cycle_over_three_files_corpus(corpus, rotation):
    # One span of the cycle in each of a.json, b.json and c.json: c1, c2 and
    # c3 turned by ``rotation`` places. Walked from the first span read, or
    # from the first of the owner's own rows, the cycle would be listed from
    # another span as the layout or K changes; it is listed from c1 always.
    span_ids = sorted(THREE_CYCLE_PARENTS)
    span_ids = span_ids[rotation:] + span_ids[:rotation]
    for name, span_id in zip(("a.json", "b.json", "c.json"), span_ids):
        _otel_file(corpus / name, [_raw_span("0" * 31 + "1", span_id, parent=THREE_CYCLE_PARENTS[span_id])])


def _two_duplicates_over_three_files_corpus(corpus):
    # d2 repeats before d1 does in file order, and K=3 reads the copies of
    # d1 first; the least repeated id, d1, is named in every case.
    trace_id = "0" * 31 + "1"
    _otel_file(corpus / "a.json", [_raw_span(trace_id, "00000000000000d1"), _raw_span(trace_id, "00000000000000d2")])
    _otel_file(corpus / "b.json", [_raw_span(trace_id, "00000000000000d2", end="3000")])
    _otel_file(corpus / "c.json", [_raw_span(trace_id, "00000000000000d1", end="3000")])


def _padded_zipkin_ids_corpus(corpus):
    # Each trace has a root in the Zipkin file, with a 16-char id that pads
    # to the OTel one, and a child in the OTel file whose end precedes its
    # start; every tenth child's parent is missing.
    trace_ids = [f"{index:032x}" for index in range(1, 41)]
    roots = [
        {
            "traceId": trace_id.lstrip("0").rjust(16, "0"),
            "id": "0000000000000001",
            "name": "aspnet_core.request",
            "timestamp": 1000,
            "duration": 500,
            "localEndpoint": {"serviceName": "gateway"},
        }
        for trace_id in trace_ids
    ]
    (corpus / "a.json").write_text(json.dumps(roots))
    _otel_file(
        corpus / "b.json",
        [
            _raw_span(
                trace_id,
                "0000000000000002",
                parent="00000000000000ff" if index % 10 == 0 else "0000000000000001",
                start="9",
                end="5",
            )
            for index, trace_id in enumerate(trace_ids)
        ],
    )


def _unreadable_trace_id_corpus(corpus):
    shutil.copy(FIXTURES_DIR / "conformant.trace.json", corpus / "a.json")
    span = {"traceId": None, "id": "0000000000000001", "name": "x", "localEndpoint": {"serviceName": "gateway"}}
    (corpus / "bad.json").write_text(json.dumps([span]))


def _scope_spans_corpus(corpus, spans):
    shutil.copy(FIXTURES_DIR / "conformant.trace.json", corpus / "a.json")
    resource = {"attributes": [{"key": "service.name", "value": {"stringValue": "gateway"}}]}
    document = {"resourceSpans": [{"resource": resource, "scopeSpans": [{"spans": spans}]}]}
    (corpus / "n.json").write_text(json.dumps(document))


def _null_spans_corpus(corpus):
    _scope_spans_corpus(corpus, None)


def _non_list_spans_corpus(corpus):
    _scope_spans_corpus(corpus, 7)


def _attribute_corpus(corpus, name, value_json):
    """The conformant fixture, and file ``name`` with one span whose
    attribute value object is the JSON text ``value_json``."""
    shutil.copy(FIXTURES_DIR / "conformant.trace.json", corpus / "a.json")
    _otel_file(corpus / name, [{**_raw_span(CONFORMANT_ID, "00000000000000e1"), "attributes": "ATTRIBUTES"}])
    text = (corpus / name).read_text()
    (corpus / name).write_text(text.replace('"ATTRIBUTES"', '[{"key": "x", "value": ' + value_json + "}]"))


def _huge_double_corpus(corpus):
    # A JSON integer too large for a float, as a doubleValue: it reads as
    # infinity, and the span matches no design span.
    _attribute_corpus(corpus, "d.json", '{"doubleValue": 1' + "0" * 400 + "}")


# An intValue string of 5,001 digits, which int() refuses: the error echoes
# its first 60 characters and its length, not the whole value.
HUGE_INT_STRING = "1" + "0" * 5000


def _huge_integer_string_corpus(corpus):
    _attribute_corpus(corpus, "i.json", json.dumps({"intValue": HUGE_INT_STRING}))


def _huge_integer_corpus(corpus):
    # A JSON integer longer than the interpreter's 4,300-digit conversion limit.
    _attribute_corpus(corpus, "i.json", '{"intValue": 1' + "0" * 5000 + "}")


def _append_spans(path, spans, service="microservice"):
    """Add a resource entry of ``spans`` to the OTel-layout file ``path``."""
    document = json.loads(path.read_text())
    resource = {"attributes": [{"key": "service.name", "value": {"stringValue": service}}]}
    document["resourceSpans"].append({"resource": resource, "scopeSpans": [{"spans": spans}]})
    path.write_text(json.dumps(document))


def _four_files(corpus, traces):
    """Files a-d of ``traces``: the first 20 whole, five to a file, and each
    of the rest split between a.json and d.json, which lie in different
    file groups at two and at three workers."""
    whole, split = traces[:20], traces[20:]
    parts = {name: whole[index * 5 : index * 5 + 5] for index, name in enumerate("abcd")}
    for trace in split:
        ids = sorted(trace.spans)
        for name, chosen in (("a", ids[::2]), ("d", ids[1::2])):
            parts[name].append(ObservedTrace(trace.trace_id, {span_id: trace.spans[span_id] for span_id in chosen}))
    for name, part in parts.items():
        (corpus / f"{name}.json").write_text(ingest.serialize_otel_json(part))
    return whole, split


def _split_and_whole_corpus(corpus):
    """Whole traces and traces split across file groups, with a dangling
    parent and a clamped span among the whole traces and on each side of
    the split."""
    traces = simulator.generate_corpus(
        simulator.SimConfig(seed=9, trace_count=40, p_omit=0.2, p_slow=0.2, p_direct=0.2)
    )
    whole, split = _four_files(corpus, traces)
    first, second, other = split[0].trace_id, split[1].trace_id, whole[7].trace_id
    _append_spans(
        corpus / "a.json",
        [
            _raw_span(first, "00000000000000d1", parent="00000000000000ee"),
            _raw_span(second, "00000000000000d2", start="5000", end="4000"),
        ],
    )
    _append_spans(
        corpus / "d.json",
        [
            _raw_span(second, "00000000000000d3", parent="00000000000000ef"),
            _raw_span(first, "00000000000000d4", start="5000", end="4000"),
        ],
    )
    _append_spans(
        corpus / "b.json",
        [
            _raw_span(other, "00000000000000d5", parent="00000000000000ef"),
            _raw_span(other, "00000000000000d6", start="5000", end="4000"),
        ],
    )


DUPLICATED_TRACE_ID = "0" * 29 + "d0d"


def _duplicate_span_across_groups_corpus(corpus):
    _four_files(corpus, simulator.generate_corpus(simulator.SimConfig(seed=10, trace_count=24)))
    _append_spans(
        corpus / "a.json",
        [
            _raw_span(DUPLICATED_TRACE_ID, "00000000000000b1"),
            _raw_span(DUPLICATED_TRACE_ID, "00000000000000b2", parent="00000000000000b1"),
        ],
    )
    _append_spans(corpus / "d.json", [_raw_span(DUPLICATED_TRACE_ID, "00000000000000b2", end="3000")])


THREE_CYCLE_ERROR = (
    "error: trace " + "0" * 31 + "1: parent chain cycle through "
    "00000000000000c1 -> 00000000000000c3 -> 00000000000000c2\n"
)


class TestPartitionedCheck:
    """``check --workers K`` gives each worker its own files, read whole;
    the traces that cross workers' files are exchanged. Its output and exit
    code must not depend on K."""

    CORPORA = {
        "split-traces": (_split_traces_corpus, 1, "warning: 2 ingest warning(s)\n"),
        "split-across-groups-and-whole": (_split_and_whole_corpus, 1, "warning: 6 ingest warning(s)\n"),
        "duplicate-span-across-groups": (
            _duplicate_span_across_groups_corpus,
            2,
            f"error: trace {DUPLICATED_TRACE_ID}: duplicate span id 00000000000000b2\n",
        ),
        "malformed-file": (_malformed_corpus, 2, "error: m.json: invalid JSON"),
        "deeply-nested-file": (_deeply_nested_corpus, 2, "error: deep.json: JSON nested too deeply"),
        "duplicate-span-across-files": (
            _duplicate_span_corpus, 2, f"error: trace {CONFORMANT_ID}: duplicate span id 00000000000000b2"
        ),
        "parent-cycle": (_parent_cycle_corpus, 2, "error: trace "),
        "errors-in-two-partitions": (_errors_in_two_partitions_corpus, 2, "error: a.json: span 00000000000000a1"),
        "cycles-in-two-partitions": (
            _cycles_in_two_partitions_corpus, 2, "error: trace " + "0" * 31 + "1: parent chain cycle"
        ),
        "duplicates-in-two-partitions": (
            _duplicates_in_two_partitions_corpus, 2, "error: trace " + "0" * 31 + "1: duplicate span id 00000000000000d1\n"
        ),
        "cycle-over-three-files": (lambda corpus: _cycle_over_three_files_corpus(corpus, 0), 2, THREE_CYCLE_ERROR),
        "cycle-over-three-files-c3-first": (
            lambda corpus: _cycle_over_three_files_corpus(corpus, 2), 2, THREE_CYCLE_ERROR
        ),
        "two-duplicates-over-three-files": (
            _two_duplicates_over_three_files_corpus,
            2,
            "error: trace " + "0" * 31 + "1: duplicate span id 00000000000000d1\n",
        ),
        "padded-zipkin-ids": (_padded_zipkin_ids_corpus, 1, "warning: 44 ingest warning(s)\n"),
        "unreadable-trace-id": (_unreadable_trace_id_corpus, 2, "error: bad.json: span #0 lacks id or traceId\n"),
        "null-spans": (_null_spans_corpus, 2, "error: n.json: resourceSpans[0]: spans must be a list"),
        "non-list-spans": (_non_list_spans_corpus, 2, "error: n.json: resourceSpans[0]: spans must be a list"),
        "double-beyond-float-range": (_huge_double_corpus, 0, ""),
        "integer-beyond-digit-limit": (
            _huge_integer_corpus,
            2,
            "error: i.json: invalid JSON: an integer has more than 4300 digits\n",
        ),
        "integer-string-beyond-digit-limit": (
            _huge_integer_string_corpus,
            2,
            f"error: i.json: span 00000000000000e1: intValue '{HUGE_INT_STRING[:59]}... (5003 chars) is not an integer\n",
        ),
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
        real_read = ingest.read_files
        last = sorted(fixture_corpus_dir.glob("*.json"))[-1]

        def read(paths):
            if last in paths:  # the second worker's files
                os._exit(9)
            return real_read(paths)

        monkeypatch.setattr(ingest, "read_files", read)
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: a worker process exited unexpectedly")
        assert "Traceback" not in err

    def test_worker_exiting_during_the_exchange_is_an_error(self, tmp_path):
        # The first worker to marshal rows for another exits; the other waits
        # for the relay, and must not keep the parent waiting for ever.
        simulated, corpus = tmp_path / "simulated", tmp_path / "corpus"
        assert main(["simulate", str(simulated), "--count", "60", "--seed", "3"]) == 0
        genutil.dealt_copy(simulated, corpus, files=4, seed=4)
        marker = tmp_path / "exited"
        code = (
            "import os, sys\n"
            "from confcheck import cli, runner\n"
            "real_pack = runner._pack\n"
            "def pack(columns):\n"
            "    try:\n"
            f"        os.close(os.open({str(marker)!r}, os.O_CREAT | os.O_EXCL))\n"
            "    except FileExistsError:\n"
            "        return real_pack(columns)\n"
            "    os._exit(9)\n"
            "runner._pack = pack\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        argv = [sys.executable, "-c", code, "check", BUNDLED_DESIGN, str(corpus), "--workers", "2"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert marker.exists()
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: a worker process exited unexpectedly")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_each_file_is_decoded_once(self, workers, tmp_path, monkeypatch, capsys):
        real_load_json = ingest._load_json
        for traces_per_file, file_count in (("10", 6), ("60", 1)):
            corpus, log = tmp_path / f"corpus-{file_count}", tmp_path / f"decoded-{file_count}.txt"
            argv = ["simulate", str(corpus), "--count", "60", "--seed", "2", "--traces-per-file", traces_per_file]
            assert main(argv) == 0
            files = {zlib.crc32(path.read_bytes()): path.name for path in corpus.glob("*.json")}
            assert len(files) == file_count

            def load_json(document, *args):
                with open(log, "a") as out:
                    out.write(f"{os.getpid()} {zlib.crc32(document)}\n")
                return real_load_json(document, *args)

            monkeypatch.setattr(ingest, "_load_json", load_json)
            capsys.readouterr()
            assert main(["check", BUNDLED_DESIGN, str(corpus), "--workers", workers]) in (0, 1)
            decoded = [line.split() for line in log.read_text().splitlines()]
            assert sorted(files[int(crc)] for _, crc in decoded) == sorted(files.values())
            pids = {int(pid) for pid, _ in decoded}
            if workers == "1" or file_count == 1:  # one worker, in this process
                assert pids == {os.getpid()}
            else:
                assert os.getpid() not in pids and len(pids) == int(workers)

    @pytest.mark.parametrize("workers", ["2", "3"])
    def test_a_failing_corpus_is_decoded_once(self, workers, tmp_path, monkeypatch, capsys):
        # A parent cycle in the first and in the last file, read by the first
        # and the last worker: the error comes from the workers' own reads.
        corpus, log = tmp_path / "corpus", tmp_path / "decoded.txt"
        argv = ["simulate", str(corpus), "--count", "60", "--seed", "2", "--traces-per-file", "10"]
        assert main(argv) == 0
        paths = sorted(corpus.glob("*.json"))
        late, early = "0" * 31 + "2", "0" * 31 + "1"
        for path, trace_id in ((paths[0], late), (paths[-1], early)):
            cycle = [
                _raw_span(trace_id, "00000000000000c1", parent="00000000000000c2"),
                _raw_span(trace_id, "00000000000000c2", parent="00000000000000c1"),
            ]
            _append_spans(path, cycle)
        files = {zlib.crc32(path.read_bytes()): path.name for path in paths}
        real_load_json = ingest._load_json

        def load_json(document, *args):
            with open(log, "a") as out:
                out.write(f"{zlib.crc32(document)}\n")
            return real_load_json(document, *args)

        monkeypatch.setattr(ingest, "_load_json", load_json)
        capsys.readouterr()
        assert main(["check", BUNDLED_DESIGN, str(corpus), "--workers", workers]) == 2
        assert capsys.readouterr().err.startswith(f"error: trace {early}: parent chain cycle")
        assert sorted(files[int(crc)] for crc in log.read_text().split()) == sorted(files.values())

    def test_parent_builds_no_spans(self, fixture_corpus_dir, monkeypatch, capsys):
        built, checked = [], []
        real_post_init = ObservedSpan.__post_init__
        monkeypatch.setattr(ObservedSpan, "__post_init__", lambda span: built.append(span) or real_post_init(span))
        real_violations = checker._violations
        monkeypatch.setattr(
            checker,
            "_violations",
            lambda design_set, index: checked.append(len(index.partition)) or real_violations(design_set, index),
        )
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "2"]) == 1
        assert built == []
        assert checked == []
        # The same check in process loads and checks the 12-span partition
        # here, and builds no span either.
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "1"]) == 1
        assert checked == [12]
        assert built == []


class TestInterleavedLayout:
    """Collector batches interleave the spans of many traces in a file. A
    corpus with each file's spans in a seeded shuffle gives the same output
    as the grouped corpus, in either layout and at any worker count."""

    @pytest.fixture(scope="class")
    def corpora(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("interleaved")
        otel = root / "otel"
        argv = ["simulate", str(otel), "--count", "240", "--seed", "7", "--traces-per-file", "80"]
        assert main(argv + ["--p-omit", "0.07", "--p-slow", "0.06", "--p-direct", "0.075"]) == 0
        genutil.zipkin_copy(otel, root / "zipkin")
        genutil.shuffled_copy(otel, root / "otel-shuffled", seed=11)
        genutil.shuffled_copy(root / "zipkin", root / "zipkin-shuffled", seed=12)
        return root

    @pytest.mark.parametrize("layout", ["otel", "zipkin"])
    def test_same_report_as_grouped(self, corpora, layout, capsys):
        capsys.readouterr()
        runs = {}
        for corpus in (layout, f"{layout}-shuffled"):
            for workers in ("1", "2", "3"):
                code = main(["check", BUNDLED_DESIGN, str(corpora / corpus), "--format", "json", "--workers", workers])
                runs[corpus, workers] = (code, *capsys.readouterr())
        first = runs[layout, "1"]
        assert first[0] == 1 and json.loads(first[1])["totalTraces"] == 240
        assert all(run == first for run in runs.values())


class TestColumnPaths:
    """``simulate`` and ``check`` work on columns: they build no span object
    and no partition of trace objects."""

    @pytest.fixture()
    def object_calls(self, monkeypatch):
        """The name of each ``ObservedSpan`` validation and
        ``Partition.from_traces`` call made in this process."""
        calls = []
        real_post_init = ObservedSpan.__post_init__
        real_from_traces = Partition.from_traces.__func__

        def post_init(span):
            calls.append("ObservedSpan")
            real_post_init(span)

        def from_traces(cls, traces):
            calls.append("Partition.from_traces")
            return real_from_traces(cls, traces)

        monkeypatch.setattr(ObservedSpan, "__post_init__", post_init)
        monkeypatch.setattr(Partition, "from_traces", classmethod(from_traces))
        return calls

    def test_simulate_and_check_build_no_span_object(self, tmp_path, design_set, object_calls, monkeypatch, capsys):
        monkeypatch.setenv("CONFCHECK_WORKERS", "1")
        otel, zipkin = tmp_path / "otel", tmp_path / "zipkin"
        argv = ["simulate", str(otel), "--count", "300", "--seed", "7", "--traces-per-file", "100"]
        assert main(argv + ["--p-omit", "0.07", "--p-slow", "0.06", "--p-direct", "0.075"]) == 0
        assert capsys.readouterr().out.startswith("wrote 300 traces to 3 file(s)")
        assert object_calls == []
        genutil.zipkin_copy(otel, zipkin)
        for corpus in (otel, zipkin):
            assert main(["check", BUNDLED_DESIGN, str(corpus), "--format", "json", "--workers", "1"]) == 1
            assert json.loads(capsys.readouterr().out)["totalTraces"] == 300
            assert object_calls == []
        # The spies see the object paths: one trace built and checked on its own.
        trace = simulator.generate_trace(simulator.SimConfig(seed=7, trace_count=1), 0)
        checker.check_trace(design_set, trace)
        assert object_calls.count("ObservedSpan") == len(trace.spans)
        assert object_calls.count("Partition.from_traces") == 1


def test_serial_runs_do_not_import_the_process_pool():
    # Only --workers > 1 starts processes; importing their modules costs
    # every run. Nor does the CLI load a confcheck module before a command
    # asks for it.
    modules = ("concurrent.futures", "multiprocessing", "confcheck.runner")
    code = (
        f"import sys, confcheck.cli; print([m in sys.modules for m in {modules!r}]); "
        "print(sorted(m for m in sys.modules if m.startswith('confcheck')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[False, False, False]\n['confcheck', 'confcheck.cli']\n"


def loaded_modules(code, *argv, **env):
    """The ``confcheck`` modules, and ``hashlib`` and ``multiprocessing`` if
    loaded, that a fresh interpreter holds once it has run ``code`` with
    ``argv``; ``env`` is added to its environment."""
    report = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.startswith('confcheck'))"
    report += " + [m for m in ('hashlib', 'multiprocessing') if m in sys.modules]), file=sys.stderr)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    argv = [sys.executable, "-c", f"{code}\n{report}", *map(str, argv)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    return set(json.loads(done.stderr.splitlines()[-1]))


# A command runs through main in a fresh interpreter, at one worker, so
# every module it uses is loaded in that process.
RUN_MAIN = "import sys; from confcheck.cli import main; main(sys.argv[1:])"


class TestModuleLoads:
    """Each entry point loads only the confcheck modules it runs."""

    def test_importing_the_package_loads_no_module(self):
        assert loaded_modules("import confcheck") == {"confcheck"}

    def test_loading_a_design_loads_design_and_model(self):
        code = "import sys, confcheck; confcheck.load_design_set(open(sys.argv[1], 'rb').read())"
        assert loaded_modules(code, BUNDLED_DESIGN) == {"confcheck", "confcheck.design", "confcheck.model"}

    def test_a_sim_config_loads_simulator_and_model(self):
        code = "import confcheck; confcheck.SimConfig(seed=1, trace_count=2, p_omit=0.5)"
        assert loaded_modules(code) == {"confcheck", "confcheck.model", "confcheck.simulator"}

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_check_loads_no_simulator_and_no_hashlib(self, fixture_corpus_dir, output):
        argv = ["check", BUNDLED_DESIGN, fixture_corpus_dir, "--format", output, "--workers", "1"]
        assert loaded_modules(RUN_MAIN, *argv) == {
            "confcheck",
            *(f"confcheck.{name}" for name in ("checker", "cli", "design", "gcpause", "ingest", "model", "report", "runner")),
        }

    def test_simulate_loads_no_checker_design_or_report(self, tmp_path):
        loaded = loaded_modules(RUN_MAIN, "simulate", tmp_path, "--count", "3", CONFCHECK_WORKERS="1")
        assert len(list(tmp_path.iterdir())) == 1
        assert loaded == {
            "confcheck",
            *(f"confcheck.{name}" for name in ("cli", "gcpause", "ingest", "model", "runner", "simulator")),
            "hashlib",
        }

    def test_a_parallel_check_loads_no_multiprocessing(self, fixture_corpus_dir):
        # The fixture corpus holds two files, so two workers run.
        argv = ["check", BUNDLED_DESIGN, fixture_corpus_dir, "--workers", "2"]
        assert loaded_modules(RUN_MAIN, *argv) == {
            "confcheck",
            *(f"confcheck.{name}" for name in ("checker", "cli", "design", "gcpause", "ingest", "model", "report", "runner")),
        }

    def test_a_parallel_simulate_loads_no_multiprocessing(self, tmp_path):
        argv = ["simulate", tmp_path, "--count", "3", "--traces-per-file", "1"]
        loaded = loaded_modules(RUN_MAIN, *argv, CONFCHECK_WORKERS="2")
        assert len(list(tmp_path.iterdir())) == 3
        # Only the workers draw traces, so only they load hashlib.
        assert loaded == {
            "confcheck",
            *(f"confcheck.{name}" for name in ("cli", "gcpause", "ingest", "model", "runner", "simulator")),
        }

    def test_import_design_loads_design_ingest_and_model(self, fixture_corpus_dir):
        argv = ["import-design", fixture_corpus_dir, "--trace-id", CONFORMANT_ID]
        expected = {"confcheck", "confcheck.cli", "confcheck.design", "confcheck.ingest", "confcheck.model"}
        assert loaded_modules(RUN_MAIN, *argv) == expected

    def test_validate_design_loads_design_and_model(self):
        expected = {"confcheck", "confcheck.cli", "confcheck.design", "confcheck.model"}
        assert loaded_modules(RUN_MAIN, "validate-design", BUNDLED_DESIGN) == expected


def test_the_entry_point_exits_with_the_commands_status(fixture_corpus_dir, conformant_corpus_dir):
    # entrypoint freezes the heap before it exits: the status, and the
    # output still buffered in stdout, reach the caller.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)
    runs = [
        (0, ["check", BUNDLED_DESIGN, conformant_corpus_dir, "--workers", "1"], "Conformance:       100.00%"),
        (1, ["check", BUNDLED_DESIGN, fixture_corpus_dir, "--workers", "2"], "Conformance:       50.00%"),
        (2, ["check", BUNDLED_DESIGN], ""),
    ]
    for status, argv, shown in runs:
        command = [sys.executable, "-m", "confcheck.cli", *map(str, argv)]
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == status, done.stderr
        assert shown in done.stdout
        assert ("usage: " in done.stderr) == (status == 2)


class TestLazyExports:
    """``import confcheck`` imports each exported name from its module on
    first use, and the package behaves as if it had imported them all."""

    def test_each_export_is_its_modules_object(self):
        import confcheck

        for name in confcheck.__all__:
            module = importlib.import_module(f"confcheck.{confcheck._EXPORTS[name]}")
            assert getattr(confcheck, name) is getattr(module, name)
            assert name in vars(confcheck)

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from confcheck import *", namespace)
        namespace.pop("__builtins__")
        import confcheck

        assert sorted(namespace) == sorted(confcheck.__all__)
        assert all(namespace[name] is getattr(confcheck, name) for name in namespace)

    def test_dir_lists_every_export(self):
        import confcheck

        assert set(confcheck.__all__) <= set(dir(confcheck))
        assert {"__all__", "__version__"} <= set(dir(confcheck))

    def test_an_unknown_name_is_an_attribute_error(self):
        import confcheck

        with pytest.raises(AttributeError, match="module 'confcheck' has no attribute 'check_partitions'"):
            confcheck.check_partitions
        assert not hasattr(confcheck, "no_such_name")

    def test_the_checkers_worker_exited_error_is_the_runners(self):
        from confcheck import model, runner

        assert checker.WorkerExitedError is model.WorkerExitedError
        assert runner.WorkerExitedError is checker.WorkerExitedError


def test_every_exported_name_resolves():
    # An export list that still names a deleted definition fails here, not
    # at a user's ``from confcheck import *``.
    package = importlib.import_module("confcheck")
    modules = [package]
    modules += [importlib.import_module(f"confcheck.{info.name}") for info in pkgutil.iter_modules(package.__path__)]
    exported = [(module.__name__, name) for module in modules for name in getattr(module, "__all__", ())]
    assert "check_trace" in {name for module, name in exported if module == "confcheck"}
    assert [(module, name) for module, name in exported if not hasattr(sys.modules[module], name)] == []


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


class TestLongDesignIds:
    """Design trace and span ids in error locations are echoed, capped at 80
    characters."""

    LONG = "s" * 200
    CAPPED = f"{'s' * 60}... (200 chars)"

    def test_duplicate_span_id_line(self, tmp_path, capsys):
        span = {"spanId": self.LONG, "name": "op", "match": {"service.name": "svc"}}
        path = tmp_path / "long.design.json"
        path.write_text(json.dumps({"designTraces": [{"id": "t", "spans": [span, span]}]}))
        assert main(["validate-design", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: t/{self.CAPPED}: duplicateSpanId: span id '{'s' * 59}... (202 chars) appears more than once\n"
        )
        assert len(err.encode()) == 210

    def test_design_trace_label(self, tmp_path, capsys):
        span = {"spanId": "A", "name": "op", "match": {"service.name": "svc"}, "design": 5}
        path = tmp_path / "long.design.json"
        path.write_text(json.dumps({"designTraces": [{"id": self.LONG, "spans": [span]}]}))
        assert main(["validate-design", str(path)]) == 2
        assert capsys.readouterr().err == f"error: design trace {self.CAPPED}: span A: design must be an object\n"


class TestOversizedIntegerDesign:
    """A design file whose JSON holds an integer past the interpreter's digit
    limit is invalid JSON, as it is in a trace file."""

    @pytest.fixture()
    def design_path(self, tmp_path):
        path = tmp_path / "huge.design.json"
        path.write_text(
            '{"designTraces": [{"id": "t", "spans": [{"spanId": "A", "name": "op", '
            '"match": {"service.name": "svc", "n": ' + "1" * 5001 + "}}]}]}"
        )
        return path

    def test_validate_design(self, design_path, capsys):
        assert main(["validate-design", str(design_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: invalid JSON: an integer has more than 4300 digits\n"

    def test_check(self, design_path, fixture_corpus_dir, capsys):
        assert main(["check", str(design_path), str(fixture_corpus_dir), "--workers", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: invalid JSON: an integer has more than 4300 digits\n"


class TestOverflowingDuration:
    """A duration too large for the checker's 64-bit bound is a validation
    error: exit 2 and one ``error:`` line, not a traceback."""

    @pytest.fixture(params=['"' + "9" * 400 + 'us"', str(10**400)], ids=["suffixed", "integer"])
    def design_path(self, request, tmp_path):
        path = tmp_path / "long.design.json"
        path.write_text(
            '{"designTraces": [{"id": "t", "spans": [{"spanId": "A", "name": "op", '
            '"match": {"service.name": "svc"}, "design": {"maxDuration": ' + request.param + "}}]}]}"
        )
        return path

    MESSAGE = "t/A: badDuration: max duration must be at most 9223372036854775807 microseconds\n"

    def test_validate_design(self, design_path, capsys):
        assert main(["validate-design", str(design_path)]) == 2
        assert capsys.readouterr() == ("", "error: " + self.MESSAGE)

    def test_check(self, design_path, fixture_corpus_dir, capsys):
        assert main(["check", str(design_path), str(fixture_corpus_dir), "--workers", "1"]) == 2
        assert capsys.readouterr() == ("", "error: " + self.MESSAGE)


class TestUsage:
    def test_no_subcommand_exits_two(self, capsys):
        assert main([]) == 2

    def test_workers_env_override(self, monkeypatch):
        from confcheck.cli import _default_workers

        monkeypatch.setenv("CONFCHECK_WORKERS", "3")
        assert _default_workers() == 3
        monkeypatch.setenv("CONFCHECK_WORKERS", "bogus")
        assert _default_workers() >= 1

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        from confcheck.cli import _default_workers

        monkeypatch.delenv("CONFCHECK_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _default_workers() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3, 5}, raising=False)
        assert _default_workers() == 3
        monkeypatch.setenv("CONFCHECK_WORKERS", "2")
        assert _default_workers() == 2

    def test_default_workers_without_affinity_use_the_cpu_count(self, monkeypatch):
        from confcheck.cli import _default_workers

        monkeypatch.delenv("CONFCHECK_WORKERS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _default_workers() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _default_workers() == 1

    def test_invalid_workers_env_warns_only_for_check_and_simulate(
        self, fixture_corpus_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("CONFCHECK_WORKERS", "bogus")
        assert main(["validate-design", BUNDLED_DESIGN]) == 0
        assert capsys.readouterr().err == ""
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir)]) == 1
        assert capsys.readouterr().err == "warning: ignoring invalid CONFCHECK_WORKERS='bogus'\n"
        assert main(["simulate", str(tmp_path / "sim"), "--count", "5"]) == 0
        assert capsys.readouterr().err == "warning: ignoring invalid CONFCHECK_WORKERS='bogus'\n"

    def test_workers_flag_leaves_env_unread(self, fixture_corpus_dir, monkeypatch, capsys):
        monkeypatch.setenv("CONFCHECK_WORKERS", "bogus")
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir), "--workers", "1"]) == 1
        assert capsys.readouterr().err == ""
        monkeypatch.setenv("CONFCHECK_WORKERS", "1")
        assert main(["check", BUNDLED_DESIGN, str(fixture_corpus_dir)]) == 1
        assert capsys.readouterr().err == ""
