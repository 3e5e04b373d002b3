"""The reference OTel serializer: each span as a dict, the whole document
through ``json.dumps``.

``confcheck.ingest.serialize_otel_json`` writes each span's JSON text
itself; it must give these bytes for every input.
"""

from __future__ import annotations

import json
from typing import Iterable

from confcheck.model import SERVICE_NAME_KEY, AttrValue, ObservedSpan, ObservedTrace


def _attr_value_to_json(value: AttrValue) -> dict:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, str):
        return {"stringValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    return {"doubleValue": value}


def _span_to_json(span: ObservedSpan) -> dict:
    out: dict = {"traceId": span.trace_id, "spanId": span.span_id}
    if span.parent_span_id is not None:
        out["parentSpanId"] = span.parent_span_id
    out["name"] = span.name
    out["startTimeUnixNano"] = str(span.start_time_nanos)
    out["endTimeUnixNano"] = str(span.end_time_nanos)
    if span.attributes:
        out["attributes"] = [
            {"key": key, "value": _attr_value_to_json(span.attributes[key])} for key in sorted(span.attributes)
        ]
    if span.links:
        out["links"] = [{"traceId": t, "spanId": s} for t, s in span.links]
    return out


def reference_serialize_otel_json(traces: Iterable[ObservedTrace]) -> str:
    by_service: "dict[str, list[ObservedSpan]]" = {}
    for trace in traces:
        for span in trace.spans.values():
            by_service.setdefault(span.service_name, []).append(span)
    resource_entries = []
    for service_name in sorted(by_service):
        service_spans = sorted(by_service[service_name], key=lambda s: (s.trace_id, s.span_id))
        resource_entries.append(
            {
                "resource": {"attributes": [{"key": SERVICE_NAME_KEY, "value": {"stringValue": service_name}}]},
                "scopeSpans": [{"scope": {"name": "confcheck"}, "spans": [_span_to_json(s) for s in service_spans]}],
            }
        )
    return json.dumps({"resourceSpans": resource_entries}, separators=(",", ":"))
