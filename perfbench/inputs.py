"""Workload inputs and the expectations they must produce.

Every input is made from the seed alone, before anything is timed. The
expectations are derived without the checker: the gateway corpus is read
back with stdlib ``json`` and judged by three topology rules, and each
``large-traces`` trace carries the violations it was built to have.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

GATEWAY = "gateway"
MICROSERVICE = "microservice"
REQUEST = "aspnet_core.request"
QUERY = "sql_server.query"
CLIENT = "http.client"
ROOT_BUDGET_US = 500_000

# The paper's case-study deviation rates: omitted backend query, slow root,
# gateway-side query.
P_OMIT, P_SLOW, P_DIRECT = 0.07, 0.06, 0.075

# Violations as (design trace id, design span id, kind), named the way the
# bundled table2 design set and the JSON report name them.
MISSING_C = ("required-flow", "C", "missingRequired")
SLOW_A = ("required-flow", "A", "durationExceeded")
DIRECT_D = ("gateway-db-access", "D", "disallowedPresent")
DIRECT_E = ("gateway-db-access", "E", "disallowedPresent")
PARTIAL = (
    ("required-flow", "A", "missingRequired"),
    ("required-flow", "B", "missingRequired"),
    ("required-flow", "C", "missingRequired"),
)
KINDS = ("missingRequired", "durationExceeded", "disallowedPresent")
MAX_IDS = 1000  # the CLI's default cap on nonConformantTraceIds

Expected = Dict[str, Tuple[Tuple[str, str, str], ...]]


class Mismatch(Exception):
    """An output differs from what the inputs require."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


@dataclass(frozen=True)
class RawSpan:
    trace_id: str
    span_id: str
    parent: "str | None"
    name: str
    service: str
    start_us: int
    duration_us: int


# ---------------------------------------------------------------- reading


def read_otel_file(path: Path) -> List[RawSpan]:
    spans = []
    for entry in json.loads(path.read_bytes())["resourceSpans"]:
        service = next(
            a["value"]["stringValue"]
            for a in entry["resource"]["attributes"]
            if a["key"] == "service.name"
        )
        for scope in entry["scopeSpans"]:
            for raw in scope["spans"]:
                start = int(raw["startTimeUnixNano"])
                end = int(raw["endTimeUnixNano"])
                spans.append(
                    RawSpan(
                        raw["traceId"], raw["spanId"], raw.get("parentSpanId"), raw["name"],
                        service, start // 1000, (end - start) // 1000,
                    )
                )
    return spans


def read_zipkin_file(path: Path) -> List[RawSpan]:
    return [
        RawSpan(
            raw["traceId"], raw["id"], raw.get("parentId"), raw["name"],
            raw["localEndpoint"]["serviceName"], raw["timestamp"], raw["duration"],
        )
        for raw in json.loads(path.read_bytes())
    ]


def read_corpus(directory: Path) -> Dict[str, List[RawSpan]]:
    """Spans grouped by trace id, from every ``*.json`` file of either layout."""
    traces: Dict[str, List[RawSpan]] = {}
    for path in sorted(directory.glob("*.json")):
        reader = read_zipkin_file if path.read_bytes()[:1] == b"[" else read_otel_file
        for span in reader(path):
            traces.setdefault(span.trace_id, []).append(span)
    return traces


# ---------------------------------------------------------------- gateway


def gateway_flags(spans: Sequence[RawSpan]) -> Tuple[bool, bool, bool]:
    """(omit, slow, direct) of one gateway trace, by the topology rules:
    no microservice query, a gateway root over budget, a gateway query."""
    omit = not any(s.name == QUERY and s.service == MICROSERVICE for s in spans)
    slow = any(
        s.name == REQUEST and s.service == GATEWAY and s.parent is None and s.duration_us > ROOT_BUDGET_US
        for s in spans
    )
    direct = any(s.name == QUERY and s.service == GATEWAY for s in spans)
    return omit, slow, direct


def violations_for_flags(omit: bool, slow: bool, direct: bool) -> Tuple[Tuple[str, str, str], ...]:
    found = []
    if slow:
        found.append(SLOW_A)
    if omit:
        found.append(MISSING_C)
    if direct:
        found += [DIRECT_D, DIRECT_E]
    return tuple(sorted(found))


def topology_expectations(raw: Dict[str, List[RawSpan]]) -> Expected:
    return {trace_id: violations_for_flags(*gateway_flags(spans)) for trace_id, spans in raw.items()}


def sim_config(seed: int, count: int):
    from confcheck.simulator import SimConfig

    return SimConfig(seed=seed, trace_count=count, p_omit=P_OMIT, p_slow=P_SLOW, p_direct=P_DIRECT)


def simulate_args(out_dir: Path, seed: int, count: int, per_file: int) -> List[str]:
    return [
        "simulate", str(out_dir), "--count", str(count), "--seed", str(seed),
        "--p-omit", str(P_OMIT), "--p-slow", str(P_SLOW), "--p-direct", str(P_DIRECT),
        "--traces-per-file", str(per_file),
    ]


def within_sigmas(count: int, n: int, p: float, sigmas: float = 5.0) -> bool:
    return abs(count - n * p) <= sigmas * math.sqrt(n * p * (1 - p)) + 1


def expect_simulated(directory: Path, seed: int, count: int) -> Tuple[Expected, int]:
    """Check a simulated corpus against the simulator's own draws. Returns
    each trace's expected violations and the corpus's span count.

    Per trace, the flags read off the files must equal
    ``simulator.deviation_flags`` and the span count must equal that of
    ``generate_trace``; every deviation count and the conformant count must
    lie within 5 sigma of the configured rates. Five, not three: the
    benchmark runs on arbitrary seeds, and a three-sigma gate would fail by
    chance on about one seed in 370.
    """
    from confcheck.simulator import deviation_flags, generate_trace

    config = sim_config(seed, count)
    raw = read_corpus(directory)
    require(len(raw) == count, f"corpus holds {len(raw)} traces, expected {count}")
    expected: Expected = {}
    totals = [0, 0, 0]
    conformant = 0
    for index in range(count):
        generated = generate_trace(config, index)
        spans = raw.get(generated.trace_id)
        require(spans is not None, f"trace {generated.trace_id} (index {index}) is missing")
        require(
            len(spans) == len(generated.spans),
            f"trace {generated.trace_id}: {len(spans)} spans, expected {len(generated.spans)}",
        )
        flags = gateway_flags(spans)
        require(
            flags == deviation_flags(config, index),
            f"trace {generated.trace_id}: topology gives {flags}, simulator drew {deviation_flags(config, index)}",
        )
        for k, flag in enumerate(flags):
            totals[k] += flag
        conformant += not any(flags)
        expected[generated.trace_id] = violations_for_flags(*flags)
    for label, total, p in zip(("omit", "slow", "direct"), totals, (P_OMIT, P_SLOW, P_DIRECT)):
        require(within_sigmas(total, count, p), f"{total} {label} deviations in {count} traces at p={p}")
    p_ok = (1 - P_OMIT) * (1 - P_SLOW) * (1 - P_DIRECT)
    require(within_sigmas(conformant, count, p_ok), f"{conformant}/{count} conformant, expected about {p_ok:.4f}")
    return expected, sum(len(spans) for spans in raw.values())


def write_zipkin_copy(source: Path, target: Path) -> None:
    """Rewrite every OTel-layout file of ``source`` as a Zipkin v2 array in
    ``target``: microsecond timestamps, string tags, one file per file."""
    target.mkdir(parents=True)
    for path in sorted(source.glob("*.json")):
        out = []
        for entry in json.loads(path.read_bytes())["resourceSpans"]:
            service = entry["resource"]["attributes"][0]["value"]["stringValue"]
            for scope in entry["scopeSpans"]:
                for raw in scope["spans"]:
                    start = int(raw["startTimeUnixNano"])
                    end = int(raw["endTimeUnixNano"])
                    span = {"traceId": raw["traceId"], "id": raw["spanId"]}
                    if "parentSpanId" in raw:
                        span["parentId"] = raw["parentSpanId"]
                    span.update(
                        name=raw["name"],
                        timestamp=start // 1000,
                        duration=(end - start) // 1000,
                        localEndpoint={"serviceName": service},
                        tags={a["key"]: str(next(iter(a["value"].values()))) for a in raw.get("attributes", [])},
                    )
                    out.append(span)
        (target / path.name).write_text(json.dumps(out, separators=(",", ":")), encoding="utf-8")


# ---------------------------------------------------------------- large traces


@dataclass(frozen=True)
class LargeShape:
    """Make-up of the ``large-traces`` corpus: one complete trace per entry
    of ``complete_depths``, one partial trace per entry of
    ``partial_depths``, and the depths of the complete traces that get each
    deviation. The seed orders the traces within each file and draws ids,
    durations and where the queries hang, so every seed gives the same span
    count, the same files by size and nearly the same matcher work."""

    complete_depths: Tuple[int, ...]
    partial_depths: Tuple[int, ...]
    omit_depths: Tuple[int, ...]
    slow_depths: Tuple[int, ...]
    direct_depths: Tuple[int, ...]
    traces_per_file: int


def _hex(rng: random.Random, n_bytes: int, used: set) -> str:
    while True:
        value = rng.getrandbits(8 * n_bytes)
        text = f"{value:0{2 * n_bytes}x}"
        if value and text not in used:
            used.add(text)
            return text


def _span_json(trace_id, span_id, parent, name, start_ns, duration_us, attributes=()):
    out = {"traceId": trace_id, "spanId": span_id}
    if parent is not None:
        out["parentSpanId"] = parent
    out.update(
        name=name,
        startTimeUnixNano=str(start_ns),
        endTimeUnixNano=str(start_ns + duration_us * 1000),
    )
    if attributes:
        out["attributes"] = [{"key": k, "value": {"stringValue": v}} for k, v in attributes]
    return out


def _large_trace(rng, used, index, depth, partial, deviation):
    """Spans of one deep trace, keyed by service, and its violations.

    A gateway root and client span sit over a chain of ``depth`` nested
    microservice request spans. A third of the chain spans have no query
    below them, a third one and a third two (``depth`` queries in all), the
    deepest at least one. A partial trace loses its root, so the client
    span's parent is absent.
    """
    omit, slow, direct = (deviation == kind for kind in ("omit", "slow", "direct"))
    trace_id = _hex(rng, 16, used)
    start = 1_700_000_000 * 10**9 + index * 10**10
    root_us = rng.randint(500_001, 900_000) if slow else rng.randint(50_000, 400_000)
    by_service: Dict[str, list] = {GATEWAY: [], MICROSERVICE: []}
    root_id, client_id = _hex(rng, 8, used), _hex(rng, 8, used)
    if not partial:
        by_service[GATEWAY].append(
            _span_json(trace_id, root_id, None, REQUEST, start, root_us, [("http.method", "GET")])
        )
    by_service[GATEWAY].append(_span_json(trace_id, client_id, root_id, CLIENT, start + 1000, root_us // 2))
    if direct:
        by_service[GATEWAY].append(
            _span_json(trace_id, _hex(rng, 8, used), root_id, QUERY, start + 2000, 5_000, [("db.system", "mssql")])
        )
    fanouts = [0] * (depth // 3) + [2] * (depth // 3) + [1] * (depth - 2 * (depth // 3))
    rng.shuffle(fanouts)
    if fanouts[-1] == 0:
        swap = next(i for i, f in enumerate(fanouts) if f)
        fanouts[-1], fanouts[swap] = fanouts[swap], 0
    parent = client_id
    for level in range(depth):
        span_id = _hex(rng, 8, used)
        level_start = start + (level + 2) * 1000
        by_service[MICROSERVICE].append(_span_json(trace_id, span_id, parent, REQUEST, level_start, 1_000))
        for _ in range(0 if omit else fanouts[level]):
            by_service[MICROSERVICE].append(
                _span_json(trace_id, _hex(rng, 8, used), span_id, QUERY, level_start + 500, 200, [("db.system", "mssql")])
            )
        parent = span_id
    violations = PARTIAL if partial else violations_for_flags(omit, slow, direct)
    return trace_id, by_service, tuple(sorted(violations))


def write_large_traces(directory: Path, seed: int, shape: LargeShape) -> Tuple[Expected, int]:
    """Write the ``large-traces`` corpus in the OTel layout. Returns each
    trace's violations by construction and the total span count."""
    rng = random.Random(f"large-traces:{seed}")
    complete = [[depth, None] for depth in shape.complete_depths]
    for kind, depths in (("omit", shape.omit_depths), ("slow", shape.slow_depths), ("direct", shape.direct_depths)):
        for depth in depths:
            next(t for t in complete if t[0] == depth and t[1] is None)[1] = kind
    plan = [(depth, True, None) for depth in shape.partial_depths] + [(d, False, k) for d, k in complete]
    # Traces go to files round-robin and the files keep their order, so every
    # seed gives `check` the same files in the same order: the peak memory
    # depends on which file is decoded when the most spans are held.
    n_files = -(-len(plan) // shape.traces_per_file)
    files = [plan[k::n_files] for k in range(n_files)]
    for traces in files:
        rng.shuffle(traces)
    used: set = set()
    expected: Expected = {}
    span_count = 0
    directory.mkdir(parents=True)
    for file_index, traces in enumerate(files):
        services: Dict[str, list] = {GATEWAY: [], MICROSERVICE: []}
        for position, trace in enumerate(traces):
            index = file_index * shape.traces_per_file + position
            trace_id, by_service, violations = _large_trace(rng, used, index, *trace)
            expected[trace_id] = violations
            for service, spans in by_service.items():
                services[service].extend(spans)
                span_count += len(spans)
        document = {
            "resourceSpans": [
                {
                    "resource": {"attributes": [{"key": "service.name", "value": {"stringValue": service}}]},
                    "scopeSpans": [{"scope": {"name": "perfbench"}, "spans": spans}],
                }
                for service, spans in services.items()
            ]
        }
        (directory / f"large-{file_index:04d}.json").write_text(
            json.dumps(document, separators=(",", ":")), encoding="utf-8"
        )
    return expected, span_count


# ---------------------------------------------------------------- reports


def expected_report(expected: Expected) -> dict:
    """The ``check --format json`` report that per-trace violations imply."""
    by_kind = dict.fromkeys(KINDS, 0)
    traces_by_kind = dict.fromkeys(KINDS, 0)
    by_span: Dict[Tuple[str, str], int] = {}
    offenders = []
    for trace_id, violations in expected.items():
        if not violations:
            continue
        offenders.append(trace_id)
        for design_trace, design_span, kind in violations:
            by_kind[kind] += 1
            by_span[(design_trace, design_span)] = by_span.get((design_trace, design_span), 0) + 1
        for kind in {kind for _, _, kind in violations}:
            traces_by_kind[kind] += 1
    total = len(expected)
    conformant = total - len(offenders)
    return {
        "totalTraces": total,
        "conformantTraces": conformant,
        "nonConformantTraces": len(offenders),
        "conformancePercentage": conformant / total if total else 0.0,
        "violationsByKind": by_kind,
        "tracesByKind": traces_by_kind,
        "violationsByDesignSpan": [
            {"designTraceId": t, "designSpanId": s, "count": c} for (t, s), c in sorted(by_span.items())
        ],
        "nonConformantTraceIds": sorted(offenders)[:MAX_IDS],
    }


def compare_report(actual: dict, expected: dict) -> None:
    for key in expected:
        require(actual.get(key) == expected[key], f"report field {key}: {actual.get(key)!r:.300} != {expected[key]!r:.300}")
    require(set(actual) == set(expected), f"report fields {sorted(actual)} != {sorted(expected)}")
