"""Ingestion of exported trace files.

Two file formats are understood: Zipkin v2 JSON (a top-level array of span
objects) and an OpenTelemetry-style resource-grouped layout (a top-level
object with a ``resourceSpans`` array). The latter is also the canonical
storage format this package writes, so ``parse_trace_document`` and
``serialize_otel_json`` round-trip exactly.

``parse_trace_document`` is the one entry for a document; ``load_corpus_dir``
reads a directory of them through the same path. A document's JSON is
decoded once, and ``_document_spans`` alone decides its layout from the
decoded value. Each format reader, ``_zipkin_records`` or ``_otel_records``,
only reads its layout: it yields one plain record of span fields per span,
and one normaliser, ``_build_spans``, turns records into
:class:`~confcheck.model.ObservedSpan`, span by span, so errors keep their
file order. It clamps end times, normalizes parent ids and decodes span
attributes. Within one load it shares one string object per distinct trace
id (after Zipkin padding), span name and service name, which saves memory.
``assemble_traces`` groups normalized spans into per-trace DAGs.

Each error context is added once, where it is known: ``load_corpus_dir``
prefixes the file name, ``_otel_records`` prefixes ``resourceSpans[i]:`` to a
resource entry's errors (its attributes' among them), and ``_build_spans``
prefixes ``span S:`` to a span's; a reader prefixes ``span S:`` itself only to
the fields it reads (times, links, Zipkin tags). The attribute decoders add no
context. A message shows an input value through :func:`~confcheck.model.echo`.

``load_corpus_dir`` can load one of K partitions of a corpus: it still
decodes every file, but normalizes and assembles only the spans whose trace
id hashes to that partition, so K processes can each ingest and check their
own share of the traces without sending spans to one another.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from .model import (
    AttrValue,
    CyclicParentChainError,
    DuplicateSpanIdError,
    ObservedSpan,
    ObservedTrace,
    SERVICE_NAME_KEY,
    SpanId,
    TRACE_ID_LENGTH,
    TraceId,
    echo,
)

__all__ = [
    "IngestWarning",
    "IngestWarningKind",
    "MalformedDocumentError",
    "MissingFieldError",
    "MissingServiceNameError",
    "DuplicateSpanIdError",
    "CyclicParentChainError",
    "parse_trace_document",
    "assemble_traces",
    "serialize_otel_json",
    "load_corpus_dir",
]


class MalformedDocumentError(ValueError):
    """The document is not valid JSON or does not have the expected shape."""


class MissingFieldError(MalformedDocumentError):
    """A span object lacks a field required to identify or place it."""


class MissingServiceNameError(MalformedDocumentError):
    """A resource entry lacks the service.name attribute, which means the
    export came from an uninstrumented resource."""


class IngestWarningKind(Enum):
    DANGLING_PARENT = "danglingParent"
    CLAMPED_TIMESTAMP = "clampedTimestamp"


@dataclass(frozen=True)
class IngestWarning:
    kind: IngestWarningKind
    trace_id: TraceId
    span_id: SpanId
    detail: str


def _normalize_parent_id(raw: object) -> Optional[str]:
    # Empty-string and all-zero parent ids both mean "root" in real exports.
    if raw is None:
        return None
    if not isinstance(raw, str):
        raise MalformedDocumentError(f"parent span id must be a string, got {type(raw).__name__}")
    if not raw.strip("0"):
        return None
    return raw


def _pad_trace_id(raw: str) -> str:
    return raw.rjust(TRACE_ID_LENGTH, "0")


# A parser's ``share`` is (partition, partitions): it normalizes only the
# spans of that partition. None normalizes every span.
_Share = Optional[Tuple[int, int]]

# One span as a format parser reads it, in ObservedSpan's positional order:
# trace id (padded), span id, name, service name, start and end nanoseconds,
# the raw parent id, the attributes (the raw OTel list, or None, when the
# builder is given a decoder) and the links.
_Record = Tuple[object, object, object, object, int, int, object, object, tuple]


def _partition_of(raw_trace_id: object, partitions: int) -> int:
    """The partition, of ``partitions``, that normalizes a span with this raw
    trace id: a stable hash of the padded id, so a trace's spans meet in one
    partition whichever files hold them. An id that cannot be read goes to
    partition 0, which then raises its error."""
    if not isinstance(raw_trace_id, str) or not raw_trace_id:
        return 0
    return zlib.crc32(_pad_trace_id(raw_trace_id).encode("utf-8", "surrogatepass")) % partitions


def _load_json(document: "bytes | str", error: "type[ValueError]" = MalformedDocumentError) -> object:
    """Decode a trace or design document, raising each decode failure as ``error``."""
    try:
        return json.loads(document)
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError, and the plain ValueError of an
        # integer longer than the interpreter's digit limit.
        raise error(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"JSON nested too deeply: {exc}") from exc


def _clamped_end(
    start: int,
    end: int,
    trace_id: object,
    span_id: object,
    warnings: "Optional[list[IngestWarning]]",
) -> int:
    if warnings is not None:
        warnings.append(
            IngestWarning(
                kind=IngestWarningKind.CLAMPED_TIMESTAMP,
                trace_id=trace_id,
                span_id=span_id,
                detail=f"end time {end} precedes start time {start}; clamped to start",
            )
        )
    return start


def _span_label(span_id: object) -> str:
    """The ``span S`` that prefixes a span's errors."""
    return f"span {echo(span_id, str)}"


def _build_spans(
    records: Iterable[_Record],
    warnings: "Optional[list[IngestWarning]]",
    strings: dict,
    decode_attributes: Optional[Callable[[object], dict]] = None,
) -> List[ObservedSpan]:
    """The one normaliser: turn a reader's records into spans, one at a time,
    so a reader's own errors and the spans' errors keep their file order.

    ``strings`` is the load's dict of shared strings: every span of a load
    with an equal trace id, name or service name holds the same string
    object. An end time before the start is clamped to it, with a
    warning. The parent id is normalized, and with ``decode_attributes`` the
    raw attributes decoded, inside the span's error context: a ``ValueError``
    of either or of the span itself becomes ``MalformedDocumentError("span
    S: ...")``, the one place that prefixes it."""
    share = strings.setdefault
    spans: List[ObservedSpan] = []
    append = spans.append
    for trace_id, span_id, name, service_name, start, end, parent_id, attributes, links in records:
        if type(trace_id) is str:
            trace_id = share(trace_id, trace_id)
        if type(name) is str:
            name = share(name, name)
        if type(service_name) is str:
            service_name = share(service_name, service_name)
        if end < start:
            end = _clamped_end(start, end, trace_id, span_id, warnings)
        try:
            if parent_id is not None:
                parent_id = _normalize_parent_id(parent_id)
            if decode_attributes is not None:
                attributes = {} if attributes is None else decode_attributes(attributes)
            append(ObservedSpan(trace_id, span_id, name, service_name, start, end, parent_id, attributes, links))
        except ValueError as exc:
            raise MalformedDocumentError(f"{_span_label(span_id)}: {exc}") from exc
    return spans


def _zipkin_records(data: list, share: _Share) -> Iterator[_Record]:
    """The spans of a Zipkin v2 array as records.

    Zipkin timestamps and durations are in microseconds and are converted to
    nanoseconds. Trace ids shorter than 32 chars are left-padded with zeros
    (Zipkin permits 64-bit trace ids). Tags become string-typed attributes,
    matching Zipkin's string-only tag model.
    """
    for index, raw in enumerate(data):
        if not isinstance(raw, dict):
            raise MalformedDocumentError(f"span #{index} is not an object")
        get = raw.get
        raw_trace_id = get("traceId")
        if share is not None and _partition_of(raw_trace_id, share[1]) != share[0]:
            continue
        raw_span_id = get("id")
        if not raw_trace_id or not raw_span_id:
            raise MissingFieldError(f"span #{index} lacks id or traceId")
        if not isinstance(raw_trace_id, str) or not isinstance(raw_span_id, str):
            raise MalformedDocumentError(f"span #{index}: id and traceId must be strings")
        trace_id = raw_trace_id if len(raw_trace_id) >= TRACE_ID_LENGTH else _pad_trace_id(raw_trace_id)

        endpoint = get("localEndpoint")
        service_name = endpoint.get("serviceName") if isinstance(endpoint, dict) else None
        if not service_name:
            raise MissingFieldError(f"{_span_label(raw_span_id)} lacks localEndpoint.serviceName")

        timestamp_micros = get("timestamp", 0)
        duration_micros = get("duration", 0)
        if isinstance(timestamp_micros, bool) or not isinstance(timestamp_micros, int):
            raise MalformedDocumentError(f"{_span_label(raw_span_id)}: timestamp must be an integer")
        if isinstance(duration_micros, bool) or not isinstance(duration_micros, int):
            raise MalformedDocumentError(f"{_span_label(raw_span_id)}: duration must be an integer")

        tags = get("tags", {})
        if not isinstance(tags, dict):
            raise MalformedDocumentError(f"{_span_label(raw_span_id)}: tags must be an object")
        attributes = {key: value if isinstance(value, str) else str(value) for key, value in tags.items()}
        yield (
            trace_id,
            raw_span_id,
            get("name", ""),
            service_name,
            timestamp_micros * 1000,
            (timestamp_micros + duration_micros) * 1000,
            get("parentId"),
            attributes,
            (),
        )


def _attr_value_from_json(value: object) -> Optional[AttrValue]:
    """Decode one OTel-style attribute value object. Returns None for value
    kinds outside the four scalar types (arrays, kvlists), which are ignored."""
    if not isinstance(value, dict):
        raise MalformedDocumentError(f"attribute value must be an object, got {type(value).__name__}")
    if "stringValue" in value:
        raw = value["stringValue"]
        if not isinstance(raw, str):
            raise MalformedDocumentError("stringValue must hold a string")
        return raw
    if "boolValue" in value:
        raw = value["boolValue"]
        if not isinstance(raw, bool):
            raise MalformedDocumentError("boolValue must hold a boolean")
        return raw
    if "intValue" in value:
        raw = value["intValue"]
        # Protobuf JSON encodes 64-bit integers as strings; plain numbers
        # appear in hand-written files.
        if isinstance(raw, bool) or not isinstance(raw, (str, int)):
            raise MalformedDocumentError("intValue must hold an integer or its string form")
        try:
            return int(raw)
        except ValueError as exc:
            raise MalformedDocumentError(f"intValue {echo(raw)} is not an integer") from exc
    if "doubleValue" in value:
        raw = value["doubleValue"]
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise MalformedDocumentError("doubleValue must hold a number")
        try:
            return float(raw)
        except OverflowError as exc:
            raise MalformedDocumentError("doubleValue is outside the float range") from exc
    return None


def _attrs_from_json(raw_attrs: object) -> dict:
    """Decode an OTel-style attribute list; None is no attributes."""
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
        value = _attr_value_from_json(entry.get("value", {}))
        if value is not None:
            attributes[entry["key"]] = value
    return attributes


def _time_from_json(raw: object, field_name: str, span_id: object) -> int:
    if raw is None:
        return 0
    if isinstance(raw, bool):
        raise MalformedDocumentError(f"{_span_label(span_id)}: {field_name} must be an integer")
    if isinstance(raw, (str, int)):
        try:
            return int(raw)
        except ValueError as exc:
            raise MalformedDocumentError(
                f"{_span_label(span_id)}: {field_name} {echo(raw)} is not an integer"
            ) from exc
    raise MalformedDocumentError(f"{_span_label(span_id)}: {field_name} must be an integer or string")


def _links_from_json(links: object, span_id: object) -> Tuple[Tuple[object, object], ...]:
    if not isinstance(links, list):
        raise MalformedDocumentError(f"{_span_label(span_id)}: links must be a list")
    for link in links:
        if not isinstance(link, dict) or "traceId" not in link or "spanId" not in link:
            raise MalformedDocumentError(f"{_span_label(span_id)}: links must carry traceId and spanId")
    return tuple((link["traceId"], link["spanId"]) for link in links)


def _otel_records(data: dict, share: _Share) -> Iterator[_Record]:
    """The spans of an OTel-layout document as records whose attributes are
    the raw list, for ``_build_spans`` to decode with ``_attrs_from_json``.

    Each ``resourceSpans`` entry must carry a ``service.name`` resource
    attribute; every span under it inherits that service name. Typed
    attribute values are preserved.
    """
    for entry_index, entry in enumerate(data["resourceSpans"]):
        if not isinstance(entry, dict):
            raise MalformedDocumentError(f"resourceSpans[{entry_index}] is not an object")
        resource = entry.get("resource", {})
        if not isinstance(resource, dict):
            raise MalformedDocumentError(f"resourceSpans[{entry_index}]: resource must be an object")
        try:
            resource_attrs = _attrs_from_json(resource.get("attributes"))
        except MalformedDocumentError as exc:
            raise MalformedDocumentError(f"resourceSpans[{entry_index}]: {exc}") from exc
        service_name = resource_attrs.get(SERVICE_NAME_KEY)
        if not isinstance(service_name, str) or not service_name:
            raise MissingServiceNameError(
                f"resourceSpans[{entry_index}] lacks a service.name resource attribute"
            )

        scope_spans = entry.get("scopeSpans", [])
        if not isinstance(scope_spans, list):
            raise MalformedDocumentError(f"resourceSpans[{entry_index}]: scopeSpans must be a list")
        for scope_entry in scope_spans:
            if not isinstance(scope_entry, dict):
                raise MalformedDocumentError(f"resourceSpans[{entry_index}]: scopeSpans entries must be objects")
            raw_spans = scope_entry.get("spans", [])
            if not isinstance(raw_spans, list):
                raise MalformedDocumentError(f"resourceSpans[{entry_index}]: spans must be a list")
            for raw in raw_spans:
                if not isinstance(raw, dict):
                    raise MalformedDocumentError("span entries must be objects")
                get = raw.get
                trace_id = get("traceId")
                if share is not None and _partition_of(trace_id, share[1]) != share[0]:
                    continue
                span_id = get("spanId")
                if not trace_id or not span_id:
                    raise MissingFieldError("a span lacks spanId or traceId")
                start = _time_from_json(get("startTimeUnixNano"), "startTimeUnixNano", span_id)
                end = _time_from_json(get("endTimeUnixNano"), "endTimeUnixNano", span_id)
                yield (
                    trace_id,
                    span_id,
                    get("name", ""),
                    service_name,
                    start,
                    end,
                    get("parentSpanId"),
                    get("attributes"),
                    _links_from_json(raw["links"], span_id) if "links" in raw else (),
                )


def parse_trace_document(
    document: "bytes | str",
    warnings: "Optional[list[IngestWarning]]" = None,
) -> List[ObservedSpan]:
    """Parse a trace export of either supported format, auto-detected by the
    top-level JSON shape: an array is Zipkin v2, an object with a
    ``resourceSpans`` array is the OTel-style layout."""
    return _document_spans(_load_json(document), warnings)


def _document_spans(
    data: object,
    warnings: "Optional[list[IngestWarning]]",
    share: _Share = None,
    strings: Optional[dict] = None,
) -> List[ObservedSpan]:
    """The spans of one decoded document, of the partition ``share`` names;
    ``strings`` is the load's dict of shared strings (a new one when None).
    The one layout check: the readers take the layout as given."""
    if strings is None:
        strings = {}
    if isinstance(data, list):
        return _build_spans(_zipkin_records(data, share), warnings, strings)
    if isinstance(data, dict) and isinstance(data.get("resourceSpans"), list):
        return _build_spans(_otel_records(data, share), warnings, strings, _attrs_from_json)
    raise MalformedDocumentError(
        "unrecognized trace document: expected a Zipkin v2 array or an object with resourceSpans"
    )


def assemble_traces(spans: Iterable[ObservedSpan]) -> Tuple[List[ObservedTrace], List[IngestWarning]]:
    """Group spans by trace id into ObservedTrace DAGs.

    Spans whose parent is absent from their group are kept and reported via
    DanglingParent warnings; they act as chain terminals during ancestor
    walks. Output traces are sorted by trace id and the result does not
    depend on input span order.

    Raises DuplicateSpanIdError when two spans share (trace id, span id) and
    CyclicParentChainError when parent references loop.
    """
    grouped: "dict[TraceId, list[ObservedSpan]]" = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)

    traces = []
    warnings: List[IngestWarning] = []
    for trace_id in sorted(grouped):
        trace = ObservedTrace.from_spans(trace_id, grouped[trace_id])
        traces.append(trace)
        for span_id in sorted(trace.dangling_parents):
            parent_id = trace.spans[span_id].parent_span_id
            warnings.append(
                IngestWarning(
                    kind=IngestWarningKind.DANGLING_PARENT,
                    trace_id=trace_id,
                    span_id=span_id,
                    detail=f"parent span {parent_id} is not present in the trace",
                )
            )
    return traces, warnings


def _attr_value_to_json(value: AttrValue) -> dict:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, str):
        return {"stringValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    return {"doubleValue": value}


def _attrs_to_json(attributes: "dict | object") -> list:
    return [
        {"key": key, "value": _attr_value_to_json(attributes[key])}
        for key in sorted(attributes)
    ]


def _span_to_json(span: ObservedSpan) -> dict:
    out: dict = {"traceId": span.trace_id, "spanId": span.span_id}
    if span.parent_span_id is not None:
        out["parentSpanId"] = span.parent_span_id
    out["name"] = span.name
    out["startTimeUnixNano"] = str(span.start_time_nanos)
    out["endTimeUnixNano"] = str(span.end_time_nanos)
    if span.attributes:
        out["attributes"] = _attrs_to_json(span.attributes)
    if span.links:
        out["links"] = [{"traceId": t, "spanId": s} for t, s in span.links]
    return out


def serialize_otel_json(traces: Iterable[ObservedTrace]) -> str:
    """Serialize traces to the canonical OTel-style layout.

    Spans are grouped into one resource entry per service name; entries are
    sorted by service name and spans by (trace id, span id), so identical
    inputs always produce identical bytes.
    """
    by_service: "dict[str, list[ObservedSpan]]" = {}
    for trace in traces:
        for span in trace.spans.values():
            by_service.setdefault(span.service_name, []).append(span)

    resource_entries = []
    for service_name in sorted(by_service):
        service_spans = sorted(by_service[service_name], key=lambda s: (s.trace_id, s.span_id))
        resource_entries.append(
            {
                "resource": {
                    "attributes": [
                        {"key": SERVICE_NAME_KEY, "value": {"stringValue": service_name}}
                    ]
                },
                "scopeSpans": [
                    {
                        "scope": {"name": "confcheck"},
                        "spans": [_span_to_json(span) for span in service_spans],
                    }
                ],
            }
        )
    return json.dumps({"resourceSpans": resource_entries}, separators=(",", ":"))


def load_corpus_dir(
    directory: "Path | str", partition: int = 0, partitions: int = 1
) -> Tuple[List[ObservedTrace], List[IngestWarning]]:
    """Ingest every ``*.json`` file in a directory, auto-detecting formats,
    and assemble the combined span set into traces.

    With ``partitions`` > 1, only the traces whose id hashes to
    ``partition`` are assembled, with only their warnings. Every file is
    still decoded, so a document-level error is raised by every partition
    and a span-level error by the partition that holds the span; the
    ``partitions`` loads together check everything a single load checks.
    """
    if not 0 <= partition < partitions:
        raise ValueError(f"partition {partition} is outside 0..{partitions - 1}")
    share = (partition, partitions) if partitions > 1 else None
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"corpus directory {directory} does not exist")
    warnings: List[IngestWarning] = []
    spans: List[ObservedSpan] = []
    strings: dict = {}
    for path in sorted(directory.glob("*.json")):
        try:
            spans.extend(_document_spans(_load_json(path.read_bytes()), warnings, share, strings))
        except MalformedDocumentError as exc:
            raise MalformedDocumentError(f"{path.name}: {exc}") from exc
    traces, assembly_warnings = assemble_traces(spans)
    warnings.extend(assembly_warnings)
    return traces, warnings
