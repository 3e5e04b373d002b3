"""confcheck pipeline benchmark.

Runs confcheck's own ``check`` and ``simulate`` commands as child processes
on generated workloads, checks every output against expectations computed
apart from the checker, and prints one JSON result line. Run from the
repository root:

    python3 perfbench/run.py --workload gateway-otel --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --steady 10 --sets 2 --workload large-traces

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes one traced in-process run and reports the per-layer
metrics. See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import inputs
from inputs import LargeShape, Mismatch, require

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DESIGN = SRC / "confcheck" / "fixtures" / "table2.design.json"
LAYER_DESIGN = BENCH / "layers.design.json"
WORK = BENCH / ".work"
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "check" or "simulate"
    fmt: str  # input layout: "otel", "zipkin" or "large"
    traces: int  # gateway corpus size, or traces per simulate call
    per_file: int
    workers: int
    large: Optional[LargeShape] = None


def workloads(smoke: bool) -> Dict[str, Workload]:
    """The four workloads; ``smoke`` shrinks every input to seconds of work."""
    gateway = 300 if smoke else 6000
    per_file = 100 if smoke else 1000
    large = (
        LargeShape((20, 40, 60, 80, 100, 120), (30, 60), (20,), (40,), (60,), 2)
        if smoke
        else LargeShape(
            (50, 100, 150, 200, 400, 800) * 3, (250, 500, 750, 1000, 1250, 1500),
            (50, 200, 800), (100, 400, 800), (150, 200, 400), 4,
        )
    )
    return {
        w.name: w
        for w in (
            Workload("gateway-otel", "check", "otel", gateway, per_file, NPROC),
            Workload("gateway-zipkin", "check", "zipkin", gateway, per_file, 1),
            Workload("large-traces", "check", "large", len(large.complete_depths) + len(large.partial_depths),
                     large.traces_per_file, 1, large),
            Workload("simulate", "simulate", "otel", 200 if smoke else 4000, per_file, 1),
        )
    }


@dataclass
class Prepared:
    seed: int
    corpus: Path  # the files `check` reads; for `simulate`, the reference output
    expected: dict  # the `check --format json` report the corpus must give
    spans: int
    warnings: int  # ingest warnings `check` must report
    reference: bytes  # what every operation's output must equal byte for byte
    otel: Optional[Path] = None  # the simulated OTel corpus of the gateway workloads


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CONFCHECK_WORKERS", None)
    return env


def cli(*args) -> List[str]:
    return [sys.executable, "-m", "confcheck.cli", *map(str, args)]


def run_program(*args) -> None:
    """Run a confcheck command outside the timed region; it must exit 0."""
    done = subprocess.run(cli(*args), cwd=ROOT, env=child_env(), capture_output=True, text=True)
    require(done.returncode == 0, f"confcheck {args[0]} exited {done.returncode}: {done.stderr.strip()}")


def digest(directory: Path) -> bytes:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.json")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.digest()


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float

    def at_reference_pace(self, pace_s: float) -> "Sample":
        scale = REFERENCE_PACE_S / pace_s
        return Sample(self.wall_s * scale, self.cpu_s * scale, self.rss_mb)


# The host's CPU speed drifts by up to a third in phases of seconds to
# minutes, and CPU time drifts with wall time, so a timing alone says as
# much about the host as about confcheck. Each launch is therefore
# bracketed by a fixed piece of interpreter work, timed just before and
# just after it, and its wall and CPU times are scaled by REFERENCE_PACE_S
# over the mean of the two: the times the launch would take on a host that
# does that work in REFERENCE_PACE_S. The work is benchmark code shaped
# like confcheck's own (decode an OTel document, build span objects, walk
# ancestor chains, encode a result), so the host slows both alike, while a
# change to confcheck moves the launch and not the pace.
REFERENCE_PACE_S = 0.016
PACE_TRIES = 3


class PaceSpan:
    __slots__ = ("span_id", "parent", "name", "attributes", "duration")

    def __init__(self, raw: dict):
        self.span_id = raw["spanId"]
        self.parent = raw["parentSpanId"]
        self.name = raw["name"]
        self.attributes = {a["key"]: a["value"]["stringValue"] for a in raw["attributes"]}
        self.duration = int(raw["endTimeUnixNano"]) - int(raw["startTimeUnixNano"])


class HostPace:
    """Times a fixed piece of work, the same for every seed and commit."""

    def __init__(self) -> None:
        rng = random.Random(0)
        spans = [
            {
                "traceId": f"{rng.getrandbits(128):032x}", "spanId": f"{i:016x}",
                "parentSpanId": f"{rng.randrange(max(i, 1)):016x}",
                "name": rng.choice((inputs.REQUEST, inputs.QUERY, inputs.CLIENT)),
                "startTimeUnixNano": str(rng.getrandbits(60)), "endTimeUnixNano": str(rng.getrandbits(60)),
                "attributes": [{"key": "service.name", "value": {"stringValue": rng.choice((inputs.GATEWAY, inputs.MICROSERVICE))}}],
            }
            for i in range(1200)
        ]
        self.document = json.dumps({"resourceSpans": [{"scopeSpans": [{"spans": spans}]}]})

    def work(self) -> str:
        decoded = json.loads(self.document)["resourceSpans"][0]["scopeSpans"][0]["spans"]
        spans = {raw["spanId"]: PaceSpan(raw) for raw in decoded}
        found = 0
        for span in spans.values():
            ancestor, depth = spans.get(span.parent), 0
            while ancestor is not None and ancestor is not span and depth < 30:
                found += ancestor.name == span.name and ancestor.attributes["service.name"] == inputs.GATEWAY
                ancestor, depth = spans.get(ancestor.parent), depth + 1
        return json.dumps([found, sorted((s.span_id, s.name, s.duration) for s in spans.values())])

    def __call__(self) -> float:
        """Seconds the work takes now: the mean of PACE_TRIES tries."""
        started = time.perf_counter()
        for _ in range(PACE_TRIES):
            self.work()
        return (time.perf_counter() - started) / PACE_TRIES


def run_child(argv: List[str], stderr_path: Path) -> "tuple[int, Sample]":
    """Launch, wait and take the child's rusage from wait4: its own CPU and
    that of the workers it reaped, and the peak RSS of the largest."""
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        process = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(process.pid, 0)
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def check_argv(spec: Workload, corpus: Path, out: Path) -> List[str]:
    return cli("check", DESIGN, corpus, "--format", "json", "--out", out, "--workers", spec.workers)


def simulate_argv(spec: Workload, seed: int, out: Path) -> List[str]:
    return cli(*inputs.simulate_args(out, seed, spec.traces, spec.per_file))


def checked_report(spec: Workload, prep: Prepared, corpus: Path, work: Path) -> "tuple[bytes, Sample]":
    """Run `check` once and hold its exit code, report and warnings to the
    expectations."""
    out, err = work / "report.json", work / "stderr.txt"
    code, sample = run_child(check_argv(spec, corpus, out), err)
    expect_code = 1 if prep.expected["nonConformantTraces"] else 0
    require(code == expect_code, f"check exited {code}, expected {expect_code}: {err.read_text().strip()}")
    report = out.read_bytes()
    inputs.compare_report(json.loads(report), prep.expected)
    stderr = err.read_text()
    if prep.warnings:
        require(f"warning: {prep.warnings} ingest warning(s)" in stderr, f"expected {prep.warnings} ingest warnings, got {stderr!r}")
    else:
        require("ingest warning" not in stderr, f"unexpected ingest warnings: {stderr!r}")
    return report, sample


def prepare(spec: Workload, seed: int, work: Path) -> Prepared:
    """Make the workload's inputs and expectations. Nothing here is timed."""
    if spec.fmt == "large":
        corpus = work / "large"
        expected, spans = inputs.write_large_traces(corpus, seed, spec.large)
        prep = Prepared(seed, corpus, inputs.expected_report(expected), spans, len(spec.large.partial_depths), b"")
        prep.reference, _ = checked_report(spec, prep, corpus, work)
        return prep

    otel = work / "otel"
    run_program(*inputs.simulate_args(otel, seed, spec.traces, spec.per_file))
    expected, spans = inputs.expect_simulated(otel, seed, spec.traces)
    prep = Prepared(seed, otel, inputs.expected_report(expected), spans, 0, b"", otel)
    if spec.kind == "simulate":
        prep.reference = digest(otel)
        return prep
    if spec.fmt == "zipkin":
        zipkin = work / "zipkin"
        inputs.write_zipkin_copy(otel, zipkin)
        raw = inputs.read_corpus(zipkin)
        require(inputs.topology_expectations(raw) == expected, "the Zipkin copy implies other violations")
        require(sum(map(len, raw.values())) == spans, "the Zipkin copy holds another span count")
        prep.corpus = zipkin
        # The OTel and Zipkin copies of one corpus must give the same report.
        otel_report, _ = checked_report(spec, prep, otel, work)
        prep.reference = otel_report
    else:
        prep.reference, _ = checked_report(spec, prep, otel, work)
    return prep


def operation(spec: Workload, prep: Prepared, work: Path) -> Sample:
    """One timed command, with its output checked."""
    if spec.kind == "simulate":
        out = work / "sim-out"
        code, sample = run_child(simulate_argv(spec, prep.seed, out), work / "stderr.txt")
        require(code == 0, f"simulate exited {code}: {(work / 'stderr.txt').read_text().strip()}")
        require(digest(out) == prep.reference, "two simulate runs with one seed wrote different bytes")
        shutil.rmtree(out)
        return sample
    report, sample = checked_report(spec, prep, prep.corpus, work)
    require(report == prep.reference, "the report differs from the reference run's")
    return sample


def setup_argv(spec: Workload, prep: Prepared) -> List[str]:
    """A fresh interpreter that imports confcheck and loads and validates the
    design file (``simulate``: builds the SimConfig)."""
    if spec.kind == "simulate":
        code = (
            "import sys, confcheck; confcheck.SimConfig(seed=int(sys.argv[1]), trace_count=int(sys.argv[2]), "
            f"p_omit={inputs.P_OMIT}, p_slow={inputs.P_SLOW}, p_direct={inputs.P_DIRECT})"
        )
        return [sys.executable, "-c", code, str(prep.seed), str(spec.traces)]
    code = "import sys, confcheck; from pathlib import Path; confcheck.load_design_set(Path(sys.argv[1]).read_bytes())"
    return [sys.executable, "-c", code, str(DESIGN)]


def end_to_end(spec: Workload, prep: Prepared, seconds: float, work: Path) -> dict:
    """Whole rounds until ``seconds`` have passed. A round is one set-up
    launch and one timed command, each scaled to the reference pace by the
    pace work timed on either side of it; each metric is the median over
    rounds.
    The host's speed drifts over tens of seconds, so set-up is sampled once
    per round across the whole run rather than in a burst at its start."""
    setups: List[float] = []
    samples: List[Sample] = []
    raw: List[Sample] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    host_pace = HostPace()
    pace = host_pace()
    while True:
        attempted += 1
        try:
            status, setup = run_child(setup_argv(spec, prep), work / "setup-stderr.txt")
            require(status == 0, f"set-up exited {status}: {(work / 'setup-stderr.txt').read_text().strip()}")
            pace_between = host_pace()
            sample = operation(spec, prep, work)
            pace_after = host_pace()
            setups.append(setup.at_reference_pace((pace + pace_between) / 2).wall_s)
            samples.append(sample.at_reference_pace((pace_between + pace_after) / 2))
            raw.append(sample)
            pace = pace_after
        except Mismatch as exc:
            failed += 1
            print(f"operation failed: {exc}", file=sys.stderr)
            pace = host_pace()
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    if samples:
        metrics = {
            "spans_per_s": {"value": statistics.median(prep.spans / s.wall_s for s in samples), "unit": "spans/s"},
            "cpu_s": {"value": statistics.median(s.cpu_s for s in samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s.rss_mb for s in samples), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        print(f"{spec.name}: {len(samples)} timed rounds, {prep.spans} spans each; unscaled medians "
              f"{statistics.median(prep.spans / s.wall_s for s in raw):.0f} spans/s, "
              f"{statistics.median(s.cpu_s for s in raw):.3f} s CPU", file=sys.stderr)
    return {"correct": failed == 0 and bool(samples), "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(spec: Workload, prep: Prepared, work: Path) -> dict:
    """The per-layer metrics: an untraced and a traced in-process pass, each
    in a fresh interpreter, then `confcheck check` of the trace file against
    the layer design."""
    trace_file = work / "trace" / f"{spec.name}-{prep.seed}.json"
    trace_file.parent.mkdir()
    job = {
        "workload": spec.name, "kind": spec.kind, "fmt": spec.fmt, "traces": spec.traces,
        "per_file": spec.per_file, "workers": spec.workers, "seed": prep.seed, "design": str(DESIGN),
        "corpus": str(prep.corpus), "otel": str(prep.otel), "expected": prep.expected,
        "trace_file": str(trace_file),
    }
    results = {}
    for mode in ("untraced", "traced"):
        job.update(mode=mode, scratch=str(work / f"pass-{mode}"))
        job_path = work / f"{mode}.json"
        job_path.write_text(json.dumps(job))
        done = subprocess.run(
            [sys.executable, str(BENCH / "traced.py"), str(job_path)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
        )
        require(done.returncode == 0, f"{mode} pass failed: {done.stderr.strip()[-2000:]}")
        results[mode] = json.loads(done.stdout.strip().splitlines()[-1])
    run_program("check", LAYER_DESIGN, trace_file.parent)

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in results["traced"]["metrics"].items()}
    metrics["trace.overhead_s"] = {"value": results["traced"]["total_s"] - results["untraced"]["total_s"], "unit": "s"}
    value = {name: m["value"] for name, m in metrics.items()}
    if spec.name == "gateway-otel":
        share = (value["ingest.parse_s"] + value["ingest.assemble_s"]) / value["command_s"]
        print(f"gateway-otel: parse + assemble take {share:.0%} of the in-process check", file=sys.stderr)
    elif spec.name == "large-traces":
        share = value["checker.check_trace_s"] / value["command_s"]
        print(f"large-traces: check_trace takes {share:.0%} of the in-process check", file=sys.stderr)
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}


def run_once(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{spec.name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        prep = prepare(spec, seed, work)
        return traced(spec, prep, work) if trace else end_to_end(spec, prep, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it


def smoke() -> int:
    """Every workload on tiny inputs: one checked operation and one traced
    run each, with every correctness check."""
    ok = True
    for spec in workloads(smoke=True).values():
        started = time.perf_counter()
        try:
            result = run_once(spec, 1, 0, trace=False)
            result_traced = run_once(spec, 1, 0, trace=True)
            passed = result["correct"] and result_traced["correct"]
        except Mismatch as exc:
            passed = False
            print(f"{spec.name}: {exc}", file=sys.stderr)
        ok &= passed
        print(f"{spec.name}: {'ok' if passed else 'FAILED'} in {time.perf_counter() - started:.1f} s")
    return 0 if ok else 1


def steady(runs: int, sets: int, names: List[str], seconds: Optional[int]) -> int:
    """Run each workload ``runs`` times per set, each with its own seed, and
    print every end-to-end metric's median, quartiles and spread next to its
    bound; with two sets, also how far the second median moved."""
    sys.stdout.reconfigure(line_buffering=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = seconds or bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    for name in names:
        medians = []
        for set_index in range(sets):
            results = []
            for k in range(runs):
                seed = set_index * runs + k + 1
                done = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True,
                )
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{name} seed {seed}: exit {done.returncode}: {done.stderr.strip()[-1000:]}")
                    return 1
                results.append(json.loads(lines[-1]))
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"{name} set {set_index + 1}: {attempted} operations, {failed} failed, "
                  f"all correct: {all(r['correct'] for r in results)}")
            set_medians = {}
            for metric, spec in specs.items():
                values = [r["metrics"][metric]["value"] for r in results]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                set_medians[metric] = median
                verdict = "steady" if spread < spec["bound"] / 3 else "WIDE"
                print(f"  {metric:12} median {median:12.6g} {spec['unit']:8} q1 {q1:12.6g} q3 {q3:12.6g} "
                      f"spread {spread:6.3f}  bound {spec['bound']}  {verdict}")
                print("    runs: " + " ".join(f"{v:.4g}" for v in values))
            medians.append(set_medians)
        for later in medians[1:]:
            for metric, spec in specs.items():
                change = (later[metric] - medians[0][metric]) / medians[0][metric]
                worse = change if spec["better"] == "lower" else -change
                print(f"  {metric:12} set 1 -> later set: worse by {worse:+.3f} (bound {spec['bound']})"
                      f"  {'ok' if worse <= spec['bound'] else 'OVER BOUND'}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(workloads(smoke=False)))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="all workloads on tiny inputs")
    parser.add_argument("--steady", type=int, metavar="RUNS", help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    # The benchmark measures the confcheck of the checkout it sits in.
    if not (SRC / "confcheck" / "__init__.py").is_file():
        print(f"error: no confcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import confcheck

    if Path(confcheck.__file__).resolve().parent != SRC / "confcheck":
        print(f"error: imported confcheck from {confcheck.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    if args.smoke:
        return smoke()
    names = args.workload or list(workloads(smoke=False))
    if args.steady:
        return steady(args.steady, args.sets, names, args.seconds)
    if len(names) != 1 or args.seconds is None:
        parser.error("a measured run needs one --workload and --seconds")
    try:
        result = run_once(workloads(smoke=False)[names[0]], args.seed, args.seconds, bool(args.trace))
    except Mismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
