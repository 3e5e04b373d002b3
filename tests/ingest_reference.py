"""The reference trace reader: each span read and checked on its own, in
file order, so the first error of a document is the first one met.

``confcheck.ingest.parse_trace_document`` reads a document a column at a
time; it must give these spans and warnings, or this error (class and
text), for every document. Every message here is its own copy, so a
message changed in ``confcheck.ingest`` fails the comparison. The span
object's own rules are ``ObservedSpan``'s, the one copy of them.
"""

from __future__ import annotations

import json
import re
from typing import Callable, Iterator, List, Optional, Tuple

from confcheck.ingest import (
    IngestWarning,
    IngestWarningKind,
    MalformedDocumentError,
    MissingFieldError,
    MissingServiceNameError,
)
from confcheck.model import ObservedSpan, echo

# trace id (padded), span id, name, service name, start and end nanoseconds,
# the raw parent id, the attributes (the raw OTel list, or None, when the
# builder is given a decoder) and the links.
Record = Tuple[object, object, object, object, int, int, object, object, tuple]

_DOUBLE_TEXT = r"NaN|-?Infinity|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"


def _label(span_id: object) -> str:
    return f"span {echo(span_id, str)}"


def _decimal(text: str) -> bool:
    """ASCII decimal digits after an optional sign, as proto3 JSON writes an
    integer (an empty string passes; ``int`` rejects it)."""
    if not text:
        return True
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def _integer(raw: "str | int") -> Optional[int]:
    if isinstance(raw, int) or _decimal(raw):
        try:
            return int(raw)
        except ValueError:
            pass
    return None


def _normalize_parent_id(raw: object) -> Optional[str]:
    if raw is None:
        return None
    if not isinstance(raw, str):
        raise MalformedDocumentError(f"parent span id must be a string, got {type(raw).__name__}")
    if not raw.strip("0"):
        return None
    return raw


def _attr_value(value: object) -> object:
    if not isinstance(value, dict):
        raise MalformedDocumentError(f"attribute value must be an object, got {type(value).__name__}")
    if "stringValue" in value:
        if not isinstance(value["stringValue"], str):
            raise MalformedDocumentError("stringValue must hold a string")
        return value["stringValue"]
    if "boolValue" in value:
        if not isinstance(value["boolValue"], bool):
            raise MalformedDocumentError("boolValue must hold a boolean")
        return value["boolValue"]
    if "intValue" in value:
        raw = value["intValue"]
        if isinstance(raw, bool) or not isinstance(raw, (str, int)):
            raise MalformedDocumentError("intValue must hold an integer or its string form")
        number = _integer(raw)
        if number is None:
            raise MalformedDocumentError(f"intValue {echo(raw)} is not an integer")
        return number
    if "doubleValue" in value:
        raw = value["doubleValue"]
        if isinstance(raw, str) and re.fullmatch(_DOUBLE_TEXT, raw):
            return float(raw)
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise MalformedDocumentError("doubleValue must hold a number")
        try:
            return float(raw)
        except OverflowError:
            return float("inf") if raw > 0 else float("-inf")
    return None


def _attributes(raw_attrs: object) -> dict:
    if raw_attrs is None:
        return {}
    if not isinstance(raw_attrs, list):
        raise MalformedDocumentError("attributes must be a list")
    attributes = {}
    for entry in raw_attrs:
        if not isinstance(entry, dict) or "key" not in entry:
            raise MalformedDocumentError("attribute entries must be objects with a key")
        if not isinstance(entry["key"], str):
            raise MalformedDocumentError(f"attribute key must be a string, got {type(entry['key']).__name__}")
        value = _attr_value(entry.get("value", {}))
        if value is not None:
            attributes[entry["key"]] = value
    return attributes


def _build_spans(
    records: Iterator[Record], warnings: List[IngestWarning], decode: Optional[Callable[[object], dict]] = None
) -> List[ObservedSpan]:
    spans = []
    for trace_id, span_id, name, service_name, start, end, parent_id, attributes, links in records:
        if end < start:
            warnings.append(
                IngestWarning(
                    IngestWarningKind.CLAMPED_TIMESTAMP,
                    trace_id,
                    span_id,
                    f"end time {end} precedes start time {start}; clamped to start",
                )
            )
            end = start
        try:
            parent_id = _normalize_parent_id(parent_id)
            if decode is not None:
                attributes = decode(attributes)
            spans.append(ObservedSpan(trace_id, span_id, name, service_name, start, end, parent_id, attributes, links))
        except ValueError as exc:
            raise MalformedDocumentError(f"{_label(span_id)}: {exc}") from exc
    return spans


def _zipkin_records(data: list) -> Iterator[Record]:
    for index, raw in enumerate(data):
        if not isinstance(raw, dict):
            raise MalformedDocumentError(f"span #{index} is not an object")
        trace_id, span_id = raw.get("traceId"), raw.get("id")
        if not trace_id or not span_id:
            raise MissingFieldError(f"span #{index} lacks id or traceId")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            raise MalformedDocumentError(f"span #{index}: id and traceId must be strings")
        endpoint = raw.get("localEndpoint")
        service_name = endpoint.get("serviceName") if isinstance(endpoint, dict) else None
        if not service_name:
            raise MissingFieldError(f"{_label(span_id)} lacks localEndpoint.serviceName")
        timestamp, duration = raw.get("timestamp", 0), raw.get("duration", 0)
        if isinstance(timestamp, bool) or not isinstance(timestamp, int):
            raise MalformedDocumentError(f"{_label(span_id)}: timestamp must be an integer")
        if isinstance(duration, bool) or not isinstance(duration, int):
            raise MalformedDocumentError(f"{_label(span_id)}: duration must be an integer")
        tags = raw.get("tags", {})
        if not isinstance(tags, dict):
            raise MalformedDocumentError(f"{_label(span_id)}: tags must be an object")
        yield (
            trace_id.rjust(32, "0"),
            span_id,
            raw.get("name", ""),
            service_name,
            timestamp * 1000,
            (timestamp + duration) * 1000,
            raw.get("parentId"),
            {key: value if isinstance(value, str) else str(value) for key, value in tags.items()},
            (),
        )


def _time(raw: object, field: str, span_id: object) -> int:
    if raw is None:
        return 0
    if isinstance(raw, bool):
        raise MalformedDocumentError(f"{_label(span_id)}: {field} must be an integer")
    if isinstance(raw, (str, int)):
        number = _integer(raw)
        if number is None:
            raise MalformedDocumentError(f"{_label(span_id)}: {field} {echo(raw)} is not an integer")
        return number
    raise MalformedDocumentError(f"{_label(span_id)}: {field} must be an integer or string")


def _links(links: object, span_id: object) -> tuple:
    if not isinstance(links, list):
        raise MalformedDocumentError(f"{_label(span_id)}: links must be a list")
    for link in links:
        if not isinstance(link, dict) or "traceId" not in link or "spanId" not in link:
            raise MalformedDocumentError(f"{_label(span_id)}: links must carry traceId and spanId")
    return tuple((link["traceId"], link["spanId"]) for link in links)


def _otel_records(data: dict) -> Iterator[Record]:
    for index, entry in enumerate(data["resourceSpans"]):
        if not isinstance(entry, dict):
            raise MalformedDocumentError(f"resourceSpans[{index}] is not an object")
        resource = entry.get("resource", {})
        if not isinstance(resource, dict):
            raise MalformedDocumentError(f"resourceSpans[{index}]: resource must be an object")
        try:
            service_name = _attributes(resource.get("attributes")).get("service.name")
        except MalformedDocumentError as exc:
            raise MalformedDocumentError(f"resourceSpans[{index}]: {exc}") from exc
        if not isinstance(service_name, str) or not service_name:
            raise MissingServiceNameError(f"resourceSpans[{index}] lacks a service.name resource attribute")
        scope_spans = entry.get("scopeSpans", [])
        if not isinstance(scope_spans, list):
            raise MalformedDocumentError(f"resourceSpans[{index}]: scopeSpans must be a list")
        for scope in scope_spans:
            if not isinstance(scope, dict):
                raise MalformedDocumentError(f"resourceSpans[{index}]: scopeSpans entries must be objects")
            raw_spans = scope.get("spans", [])
            if not isinstance(raw_spans, list):
                raise MalformedDocumentError(f"resourceSpans[{index}]: spans must be a list")
            for raw in raw_spans:
                if not isinstance(raw, dict):
                    raise MalformedDocumentError("span entries must be objects")
                trace_id, span_id = raw.get("traceId"), raw.get("spanId")
                if not trace_id or not span_id:
                    raise MissingFieldError("a span lacks spanId or traceId")
                start = _time(raw.get("startTimeUnixNano"), "startTimeUnixNano", span_id)
                end = _time(raw.get("endTimeUnixNano"), "endTimeUnixNano", span_id)
                yield (
                    trace_id,
                    span_id,
                    raw.get("name", ""),
                    service_name,
                    start,
                    end,
                    raw.get("parentSpanId"),
                    raw.get("attributes"),
                    _links(raw["links"], span_id) if "links" in raw else (),
                )


def reference_parse(text: "str | bytes", warnings: List[IngestWarning]) -> List[ObservedSpan]:
    """The spans of a trace document, read one at a time; the clamp warnings
    of the spans read are added to ``warnings``."""
    data = json.loads(text)
    if isinstance(data, list):
        return _build_spans(_zipkin_records(data), warnings)
    if isinstance(data, dict) and isinstance(data.get("resourceSpans"), list):
        return _build_spans(_otel_records(data), warnings, _attributes)
    raise MalformedDocumentError(
        "unrecognized trace document: expected a Zipkin v2 array or an object with resourceSpans"
    )
