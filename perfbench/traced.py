"""The traced run: the workload's pipeline in process, one span per call
into a confcheck layer.

Spans are kept in memory and written at the end in the OTel layout that
confcheck ingests, one trace per run, with the layer (module) as the
service. ``layers.design.json`` requires one span of every layer under the
run root, so ``confcheck check`` on the file shows the tracer covered them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

import inputs

def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Records (id, parent, name, layer, start, end, attributes) per span."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[str] = []
        self._epoch_ns = time.time_ns() - time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, layer: str, **attributes):
        span_id = f"{len(self.spans) + 1:016x}"
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (span_id, parent, name, layer, start, end, attributes)

    def seconds(self, layer: str, name: str) -> float:
        return sum(s[5] - s[4] for s in self.spans if s[3] == layer and s[2] == name) / 1e9

    def durations_us(self, layer: str, name: str) -> List[float]:
        return [(s[5] - s[4]) / 1e3 for s in self.spans if s[3] == layer and s[2] == name]

    def write_otel(self, path: Path, trace_key: str) -> None:
        trace_id = hashlib.blake2b(trace_key.encode(), digest_size=16).hexdigest()
        by_layer: Dict[str, list] = {}
        for span_id, parent, name, layer, start, end, attributes in self.spans:
            out = {"traceId": trace_id, "spanId": span_id}
            if parent is not None:
                out["parentSpanId"] = parent
            out.update(
                name=name,
                startTimeUnixNano=str(self._epoch_ns + start),
                endTimeUnixNano=str(self._epoch_ns + end),
                attributes=[{"key": k, "value": {"stringValue": str(v)}} for k, v in attributes.items()],
            )
            by_layer.setdefault(layer, []).append(out)
        document = {
            "resourceSpans": [
                {
                    "resource": {"attributes": [{"key": "service.name", "value": {"stringValue": layer}}]},
                    "scopeSpans": [{"scope": {"name": "perfbench"}, "spans": spans}],
                }
                for layer, spans in sorted(by_layer.items())
            ]
        }
        path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")


class NullTracer(Tracer):
    """Same calls, nothing recorded: the untraced pass."""

    @contextmanager
    def span(self, name: str, layer: str, **attributes):
        yield


def span_cost_us(calls: int = 20_000) -> float:
    """What recording one empty span costs; times the span count, it bounds
    the tracing overhead without the host's drift between two passes."""
    tracer = Tracer()
    started = time.perf_counter()
    for _ in range(calls):
        with tracer.span("probe", "perfbench"):
            pass
    return (time.perf_counter() - started) * 1e6 / calls


def tail_percentile(samples: List[float]) -> float:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond
    it; with fewer than 100 samples, the largest sample."""
    ordered = sorted(samples)
    for q in (0.999, 0.99, 0.9):
        if len(ordered) * (1 - q) >= 10:
            return ordered[min(len(ordered) - 1, int(q * len(ordered)))]
    return ordered[-1]


def check_pipeline(tracer: Tracer, design_path: Path, corpus: Path, workers: int, expected: dict, notes: dict) -> None:
    """What ``confcheck check --format json`` does, call by call, plus the
    serial per-trace checks and the aggregate timed on their own."""
    from confcheck import checker, design, ingest, model, report

    with tracer.span("load_design_set", "design"):
        design_set = design.load_design_set(design_path.read_bytes())
    warnings: list = []
    spans: list = []
    files = sorted(corpus.glob("*.json"))
    for path in files:
        with tracer.span("read_bytes", "ingest", file=path.name):
            data = path.read_bytes()
        with tracer.span("parse_trace_document", "ingest", file=path.name):
            spans.extend(ingest.parse_trace_document(data, warnings))
        notes["ingest.bytes"] = notes.get("ingest.bytes", 0) + len(data)
    with tracer.span("assemble_traces", "ingest"):
        traces, assembly_warnings = ingest.assemble_traces(spans)
    warnings.extend(assembly_warnings)
    notes["ingest.rss_mb"] = max_rss_mb()
    notes.update({"ingest.files": len(files), "ingest.spans": len(spans), "ingest.warnings": len(warnings)})

    with tracer.span("ObservedSpan", "model", calls=len(spans)):
        for s in spans:
            model.ObservedSpan(
                trace_id=s.trace_id, span_id=s.span_id, name=s.name, service_name=s.service_name,
                start_time_nanos=s.start_time_nanos, end_time_nanos=s.end_time_nanos,
                parent_span_id=s.parent_span_id, attributes=s.attributes, links=s.links,
            )

    with tracer.span("check_corpus", "checker", workers=workers):
        corpus_report, verdicts = checker.check_corpus(design_set, traces, workers=workers)
    notes["checker.rss_mb"] = max_rss_mb()
    with tracer.span("report_to_json_dict", "report"):
        payload = report.report_to_json_dict(corpus_report, verdicts)
        json.dumps(payload, indent=2)
    inputs.compare_report(payload, expected)

    with tracer.span("check_trace_serial", "checker", traces=len(traces)):
        for trace in traces:
            with tracer.span("check_trace", "checker"):
                checker.check_trace(design_set, trace)
    with tracer.span("from_verdicts", "checker"):
        checker.ConformanceReport.from_verdicts(verdicts)
    notes["checker.traces"] = len(traces)
    notes["checker.violations"] = sum(len(v.violations) for v in verdicts)
    notes["traces"] = traces


def simulate_pipeline(tracer: Tracer, seed: int, count: int, per_file: int, out: Path) -> None:
    """What ``confcheck simulate`` does, with the serializer timed on its own."""
    from confcheck import ingest, simulator

    with tracer.span("generate_corpus", "simulator", traces=count):
        traces = simulator.generate_corpus(inputs.sim_config(seed, count))
    with tracer.span("serialize_otel_json", "ingest"):
        for first in range(0, len(traces), per_file):
            ingest.serialize_otel_json(traces[first : first + per_file])
    with tracer.span("write_corpus", "simulator", traces_per_file=per_file):
        simulator.write_corpus(traces, out, per_file)


def run_pipeline(tracer: Tracer, job: dict) -> dict:
    """One pass of the workload's pipeline. Every workload calls every layer:
    check workloads also generate (gateway) or re-write (large-traces) their
    corpus, and ``simulate`` checks what it wrote, which is the paper's
    simulate-then-check pipeline."""
    from confcheck import ingest, simulator

    notes: dict = {}
    scratch = Path(job["scratch"])
    out = scratch / "corpus"
    design_path, expected, workers = Path(job["design"]), job["expected"], job["workers"]
    with tracer.span("bench.run", "perfbench", workload=job["workload"], seed=job["seed"]):
        if job["kind"] == "simulate":
            simulate_pipeline(tracer, job["seed"], job["traces"], job["per_file"], out)
            check_pipeline(tracer, design_path, out, workers, expected, notes)
        elif job["fmt"] == "large":
            check_pipeline(tracer, design_path, Path(job["corpus"]), workers, expected, notes)
            with tracer.span("serialize_otel_json", "ingest"):
                ingest.serialize_otel_json(notes["traces"])
            with tracer.span("write_corpus", "simulator", traces_per_file=job["per_file"]):
                simulator.write_corpus(notes["traces"], out, job["per_file"])
        else:
            check_pipeline(tracer, design_path, Path(job["corpus"]), workers, expected, notes)
            simulate_pipeline(tracer, job["seed"], job["traces"], job["per_file"], out)
            # In-process generation must reproduce the corpus `confcheck simulate` wrote.
            for path in sorted(Path(job["otel"]).glob("*.json")):
                inputs.require(
                    (out / path.name).read_bytes() == path.read_bytes(),
                    f"generate_corpus + write_corpus differ from `confcheck simulate` in {path.name}",
                )
    return notes


def layer_metrics(tracer: Tracer, job: dict, notes: dict) -> Dict[str, tuple]:
    t = tracer.seconds
    per_call = tracer.durations_us("checker", "check_trace")
    check_trace_s = t("checker", "check_trace")
    # The calls the timed command makes: `confcheck simulate` on that
    # workload, `confcheck check` on the others.
    if job["kind"] == "simulate":
        command_calls = (("simulator", "generate_corpus"), ("simulator", "write_corpus"))
    else:
        command_calls = (
            ("design", "load_design_set"), ("ingest", "read_bytes"), ("ingest", "parse_trace_document"),
            ("ingest", "assemble_traces"), ("checker", "check_corpus"), ("report", "report_to_json_dict"),
        )
    return {
        "design.load_s": (t("design", "load_design_set"), "s"),
        "ingest.read_s": (t("ingest", "read_bytes"), "s"),
        "ingest.parse_s": (t("ingest", "parse_trace_document"), "s"),
        "ingest.assemble_s": (t("ingest", "assemble_traces"), "s"),
        "ingest.rss_mb": (notes["ingest.rss_mb"], "MB"),
        "ingest.serialize_s": (t("ingest", "serialize_otel_json"), "s"),
        "model.span_new_us": (t("model", "ObservedSpan") * 1e6 / notes["ingest.spans"], "us"),
        "checker.trace_us_p50": (statistics.median(per_call), "us"),
        "checker.trace_us_tail": (tail_percentile(per_call), "us"),
        "checker.trace_samples": (len(per_call), "count"),
        "checker.check_trace_s": (check_trace_s, "s"),
        "checker.check_corpus_s": (t("checker", "check_corpus"), "s"),
        "checker.pool_overhead_s": (t("checker", "check_corpus") - check_trace_s / job["workers"], "s"),
        "checker.aggregate_s": (t("checker", "from_verdicts"), "s"),
        "checker.rss_mb": (notes["checker.rss_mb"], "MB"),
        "report.render_s": (t("report", "report_to_json_dict"), "s"),
        "simulator.generate_s": (t("simulator", "generate_corpus"), "s"),
        "simulator.write_s": (t("simulator", "write_corpus"), "s"),
        "ingest.files": (notes["ingest.files"], "count"),
        "ingest.bytes": (notes["ingest.bytes"], "count"),
        "ingest.spans": (notes["ingest.spans"], "count"),
        "ingest.warnings": (notes["ingest.warnings"], "count"),
        "checker.traces": (notes["checker.traces"], "count"),
        "checker.violations": (notes["checker.violations"], "count"),
        "command_s": (sum(t(layer, name) for layer, name in command_calls), "s"),
    }


def main(job_path: str) -> None:
    """Run one pass in a fresh interpreter, so its memory figures are its
    own. Prints ``{"total_s": ..., "metrics": ...}`` as the last line."""
    job = json.loads(Path(job_path).read_text())
    traced = job["mode"] == "traced"
    tracer = Tracer() if traced else NullTracer()
    started = time.perf_counter()
    notes = run_pipeline(tracer, job)
    total_s = time.perf_counter() - started
    result: dict = {"total_s": total_s}
    if traced:
        result["metrics"] = layer_metrics(tracer, job, notes)
        result["metrics"]["trace.spans"] = (len(tracer.spans), "count")
        result["metrics"]["trace.span_cost_us"] = (span_cost_us(), "us")
        tracer.write_otel(Path(job["trace_file"]), f"{job['workload']}:{job['seed']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
