"""Random instance builders shared by the oracle-equivalence and property
tests, trace documents with a catalogue of faults to inject into them, and
corpus layout copies. Everything is driven by an explicit random.Random so
failures are reproducible from a single seed.

The name/service/attribute pools deliberately overlap between observed and
design generators so matches, near-misses, and type-strict mismatches all
occur with useful frequency.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from confcheck.design import DesignTraceSet
from confcheck.ingest import serialize_otel_json
from confcheck.model import DesignSpan, DesignTrace, ObservedSpan, ObservedTrace

NAME_POOL = ("alpha.request", "beta.query", "gamma.task")
SERVICE_POOL = ("svc-a", "svc-b")
ATTR_KEYS = ("http.method", "retries", "cached")
ATTR_VALUES = ("GET", "POST", 3, 2.5, True)

# Durations straddle the design bounds below, covering both sides of each
# boundary and the boundary itself.
DURATION_POOL_MICROS = (0, 100, 450_000, 500_000, 500_001, 750_000)
MAX_DURATION_POOL = (100, 500_000, 600_000)


def random_span_id(rng: random.Random) -> str:
    return f"{rng.randrange(1, 2**64):016x}"


def random_trace_id(rng: random.Random) -> str:
    return f"{rng.randrange(1, 2**128):032x}"


def random_observed_span(
    rng: random.Random,
    trace_id: str,
    span_id: str,
    parent_span_id: Optional[str],
) -> ObservedSpan:
    start = rng.randrange(0, 10**15)
    duration = rng.choice(DURATION_POOL_MICROS)
    attributes = {}
    if rng.random() < 0.5:
        attributes[rng.choice(ATTR_KEYS)] = rng.choice(ATTR_VALUES)
    return ObservedSpan(
        trace_id=trace_id,
        span_id=span_id,
        parent_span_id=parent_span_id,
        name=rng.choice(NAME_POOL),
        service_name=rng.choice(SERVICE_POOL),
        start_time_nanos=start,
        end_time_nanos=start + duration * 1000,
        attributes=attributes,
    )


def random_observed_trace(rng: random.Random, max_spans: int = 8) -> ObservedTrace:
    trace_id = random_trace_id(rng)
    span_count = rng.randint(1, max_spans)
    spans: List[ObservedSpan] = []
    ids: List[str] = []
    for _ in range(span_count):
        span_id = random_span_id(rng)
        while span_id in ids:
            span_id = random_span_id(rng)
        parent: Optional[str] = None
        roll = rng.random()
        if ids and roll < 0.7:
            parent = rng.choice(ids)  # acyclic: parents come from earlier spans
        elif roll < 0.8:
            parent = random_span_id(rng)  # dangling reference
        spans.append(random_observed_span(rng, trace_id, span_id, parent))
        ids.append(span_id)
    return ObservedTrace.from_spans(trace_id, spans)


def random_design_trace(
    rng: random.Random,
    design_trace_id: str,
    disallowed: bool,
    max_spans: int = 4,
) -> DesignTrace:
    span_count = rng.randint(1, max_spans)
    spans = {}
    ids: List[str] = []
    for index in range(span_count):
        span_id = f"d{index}"
        parent = rng.choice(ids) if ids and rng.random() < 0.6 else None
        match = {"service.name": rng.choice(SERVICE_POOL)}
        if rng.random() < 0.3:
            match[rng.choice(ATTR_KEYS)] = rng.choice(ATTR_VALUES)
        spans[span_id] = DesignSpan(
            design_span_id=span_id,
            name=rng.choice(NAME_POOL),
            match_attributes=match,
            parent_design_span_id=parent,
            max_duration_micros=rng.choice(MAX_DURATION_POOL) if rng.random() < 0.4 else None,
            allow_non_immediate_parent=rng.random() < 0.5,
            is_disallowed=disallowed,
        )
        ids.append(span_id)
    return DesignTrace(design_trace_id=design_trace_id, spans=spans)


def random_design_set(rng: random.Random, max_traces: int = 3) -> DesignTraceSet:
    trace_count = rng.randint(1, max_traces)
    traces = [
        random_design_trace(rng, f"dt{index}", disallowed=rng.random() < 0.4)
        for index in range(trace_count)
    ]
    return DesignTraceSet.of(traces)


def random_corpus(rng: random.Random, max_traces: int = 6) -> List[ObservedTrace]:
    return [random_observed_trace(rng) for _ in range(rng.randint(0, max_traces))]


# ------------------------------------------------------------ trace documents


def random_trace_document(rng: random.Random, zipkin: bool) -> object:
    """A valid decoded trace document of 1-4 random traces, in the Zipkin v2
    layout or the OTel one, with the quirks valid exports have: roots with
    an empty or all-zero parent id, spans without a name, ends before their
    start (clamped at ingest), links (OTel), 16-char trace ids and
    non-string tags (Zipkin)."""
    traces = [random_observed_trace(rng, max_spans=5) for _ in range(rng.randint(1, 4))]
    document = json.loads(serialize_otel_json(traces))
    entries = document["resourceSpans"]
    for entry in entries:
        for span in entry["scopeSpans"][0]["spans"]:
            roll = rng.random()
            if "parentSpanId" not in span and roll < 0.3:
                span["parentSpanId"] = rng.choice(("", "0" * 16))
            if rng.random() < 0.1:
                del span["name"]
            if rng.random() < 0.1:
                span["startTimeUnixNano"], span["endTimeUnixNano"] = span["endTimeUnixNano"], span["startTimeUnixNano"]
            if not zipkin and rng.random() < 0.1:
                span["links"] = [{"traceId": random_trace_id(rng), "spanId": random_span_id(rng)}]
            if not zipkin and rng.random() < 0.1:
                # A value kind outside the four scalar ones, which ingest ignores.
                span.setdefault("attributes", []).insert(0, {"key": "list", "value": {"arrayValue": {"values": []}}})
            if rng.random() < 0.05:
                del span["startTimeUnixNano"]
    if not zipkin:
        return document
    short_ids = {trace.trace_id: f"{rng.randrange(1, 2**64):016x}" for trace in traces if rng.random() < 0.3}
    spans = []
    for entry in entries:
        service = entry["resource"]["attributes"][0]["value"]["stringValue"]
        for raw in entry["scopeSpans"][0]["spans"]:
            start = int(raw.get("startTimeUnixNano", 0)) // 1000
            span = {"traceId": short_ids.get(raw["traceId"], raw["traceId"]), "id": raw["spanId"]}
            if "parentSpanId" in raw:
                span["parentId"] = raw["parentSpanId"]
            if "name" in raw:
                span["name"] = raw["name"]
            span.update(
                timestamp=start,
                duration=int(raw["endTimeUnixNano"]) // 1000 - start,
                localEndpoint={"serviceName": service},
            )
            attributes = raw.get("attributes", [])
            if attributes or rng.random() < 0.5:
                span["tags"] = {a["key"]: next(iter(a["value"].values())) for a in attributes}
            spans.append(span)
    rng.shuffle(spans)
    return spans


def _span_lists(document: object) -> List[List[dict]]:
    """The lists that hold the span objects of a decoded document."""
    if isinstance(document, list):
        return [document]
    return [entry["scopeSpans"][0]["spans"] for entry in document["resourceSpans"]]


# Faults, after the error cases of ``test_ingest.py``: each makes a document
# invalid, at ingest or (duplicate span and parent cycle) at assembly. A bad
# layout breaks the document around its spans: an OTel resource entry that
# is no object, lacks service.name or has no scopeSpans list, at any entry;
# a Zipkin span that is no object or lacks its localEndpoint.
FAULTS = ("bad id", "non-string field", "bad time", "bad attribute", "duplicate span", "parent cycle", "bad layout")


def inject_fault(rng: random.Random, document: object, fault: str) -> None:
    """Make one ``fault`` in a document of ``random_trace_document``."""
    holder = rng.choice([spans for spans in _span_lists(document) if spans])
    span = rng.choice(holder)
    zipkin = isinstance(document, list)
    span_id_key, parent_key = ("id", "parentId") if zipkin else ("spanId", "parentSpanId")
    if fault == "bad id":
        key, value = rng.choice(
            [
                (span_id_key, "ABCDEF0123456789"),
                (span_id_key, "abc"),
                (span_id_key, "0" * 16),
                ("traceId", "A" * 32),
                ("traceId", "0" * 32),
                (parent_key, 7),
                (parent_key, "xyz"),
            ]
        )
        span[key] = value
    elif fault == "non-string field":
        key = rng.choice(["name", span_id_key, "traceId"])
        span[key] = rng.choice([5, ["x"], None] if key == "name" else [5, ["x"]])
    elif fault == "bad time":
        if zipkin:
            span[rng.choice(["timestamp", "duration"])] = rng.choice(["soon", True, 1.5, 2**62])
        else:
            span[rng.choice(["startTimeUnixNano", "endTimeUnixNano"])] = rng.choice(["soon", True, "1.5", str(2**64)])
    elif fault == "bad attribute":
        if zipkin:
            span["tags"] = rng.choice([None, ["x"], "x"])
        else:
            span["attributes"] = rng.choice(
                [
                    {},
                    [{"key": "k", "value": {"intValue": "x1"}}],
                    [{"key": 5, "value": {"stringValue": "x"}}],
                    [{"key": "k", "value": 5}],
                    [{"key": "k", "value": {"intValue": str(2**63)}}],
                    [{"key": "k", "value": {"boolValue": "yes"}}],
                ]
            )
    elif fault == "duplicate span":
        holder.insert(rng.randrange(len(holder) + 1), dict(span))
    elif fault == "parent cycle":
        same_trace = [
            other for spans in _span_lists(document) for other in spans
            if other["traceId"] == span["traceId"] and other is not span
        ]
        if same_trace:
            other = rng.choice(same_trace)
            span[parent_key], other[parent_key] = other[span_id_key], span[span_id_key]
        else:
            span[parent_key] = span[span_id_key]
    elif fault == "bad layout":
        if zipkin:
            position = rng.randrange(len(document))
            if rng.random() < 0.5:
                document[position] = rng.choice(["x", 5, None, [document[position]]])
            else:
                del document[position]["localEndpoint"]
        else:
            entries = document["resourceSpans"]
            position = rng.randrange(len(entries))
            variant = rng.choice(["not an object", "no service.name", "scopeSpans not a list"])
            if variant == "not an object":
                entries[position] = rng.choice(["x", 5, None, [entries[position]]])
            elif variant == "no service.name":
                entries[position]["resource"]["attributes"][0]["key"] = "service"
            else:
                entries[position]["scopeSpans"] = rng.choice([{}, "x", 5])
    else:
        raise ValueError(f"unknown fault {fault!r}")


# ------------------------------------------------------------ corpus layouts


def zipkin_copy(source: Path, target: Path) -> None:
    """Rewrite each OTel-layout file of ``source`` as a Zipkin v2 array in
    ``target``: microsecond times, string tags, one file per file."""
    target.mkdir()
    for path in sorted(source.glob("*.json")):
        spans = []
        for entry in json.loads(path.read_bytes())["resourceSpans"]:
            service = entry["resource"]["attributes"][0]["value"]["stringValue"]
            for raw in entry["scopeSpans"][0]["spans"]:
                start = int(raw["startTimeUnixNano"]) // 1000
                span = {"traceId": raw["traceId"], "id": raw["spanId"]}
                if "parentSpanId" in raw:
                    span["parentId"] = raw["parentSpanId"]
                span.update(
                    name=raw["name"],
                    timestamp=start,
                    duration=int(raw["endTimeUnixNano"]) // 1000 - start,
                    localEndpoint={"serviceName": service},
                    tags={a["key"]: str(next(iter(a["value"].values()))) for a in raw.get("attributes", [])},
                )
                spans.append(span)
        (target / path.name).write_text(json.dumps(spans))


def shuffled_copy(source: Path, target: Path, seed: int) -> None:
    """Copy each file of ``source`` to ``target`` with its spans in a seeded
    shuffle (within each resource entry, for the OTel layout), so the spans
    of its traces interleave as collector batches do."""
    rng = random.Random(seed)
    target.mkdir()
    for path in sorted(source.glob("*.json")):
        document = json.loads(path.read_bytes())
        for spans in _span_lists(document):
            rng.shuffle(spans)
        (target / path.name).write_text(json.dumps(document))


def dealt_copy(source: Path, target: Path, files: int, seed: int) -> None:
    """Copy the OTel-layout corpus ``source`` into ``files`` files in
    ``target`` with each trace's spans shuffled and dealt over them from a
    seeded first file, so a trace of n spans lies in min(n, ``files``)
    files. With ``files`` = 1 it is a one-file copy."""
    rng = random.Random(seed)
    target.mkdir()
    traces: Dict[str, List[Tuple[str, dict]]] = {}
    for path in sorted(source.glob("*.json")):
        for entry in json.loads(path.read_bytes())["resourceSpans"]:
            service = entry["resource"]["attributes"][0]["value"]["stringValue"]
            for scope in entry["scopeSpans"]:
                for raw in scope["spans"]:
                    traces.setdefault(raw["traceId"], []).append((service, raw))
    dealt: List[Dict[str, List[dict]]] = [{} for _ in range(files)]
    for spans in traces.values():
        rng.shuffle(spans)
        first = rng.randrange(files)
        for offset, (service, raw) in enumerate(spans):
            dealt[(first + offset) % files].setdefault(service, []).append(raw)
    for index, by_service in enumerate(dealt):
        entries = [
            {
                "resource": {"attributes": [{"key": "service.name", "value": {"stringValue": service}}]},
                "scopeSpans": [{"spans": spans}],
            }
            for service, spans in sorted(by_service.items())
        ]
        (target / f"dealt-{index:03d}.json").write_text(json.dumps({"resourceSpans": entries}))
