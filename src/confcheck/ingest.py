"""Ingestion of exported trace files.

Two file formats are understood: Zipkin v2 JSON (a top-level array of span
objects) and an OpenTelemetry-style resource-grouped layout (a top-level
object with a ``resourceSpans`` array). The latter is also the canonical
storage format this package writes, so ``parse_trace_document`` and
``serialize_otel_json`` round-trip exactly. There is one OTel serializer,
``_otel_text``, over rows: it writes the spans of a
:class:`~confcheck.model.SpanColumns` whose rows pass the column rules,
building no dict per span, with the json module's own string escaper and
float spelling, and gives the bytes that ``json.dumps`` gives for the same
document of dicts. ``serialize_otel_json`` gives it the spans of traces as
rows; ``simulate`` gives it the rows it draws.

``load_partition`` reads a directory of documents into a
:class:`~confcheck.model.Partition`: spans as columns, one list per field,
with no span object built. A document's JSON is decoded once, and
``_layout`` alone decides its layout from the decoded value. Its column
reader, ``_zipkin_columns`` or ``_otel_columns``, pulls each field of every
span into a column with C-level calls such as ``map(dict.get, spans,
repeat("traceId"))``; end times before their start are clamped, with a
warning, and :func:`~confcheck.model.columns_valid` then checks every
per-span rule a column at a time, each distinct trace id once. Only the
column read shares strings: within one load it keeps one string object per
distinct trace id (after Zipkin padding), span name and service name, which
saves memory.

Errors are named by the record path, not the column read. A document that
breaks any column rule is read again by its record reader,
``_zipkin_records`` or ``_otel_records``, and the one per-record
normaliser, ``_build_spans``, which builds an
:class:`~confcheck.model.ObservedSpan` per span in file order and so raises
the first error of the file; valid input that the column read does not
take gives the same spans that way. Both OTel readers walk the resource
entries and their span lists through one generator, ``_otel_batches``, and
a column read rejects a document on the error of any decoder it shares with
the record path. :func:`assemble_partition` then assembles the
columns, and the partition names a duplicate span id or a parent cycle
through :meth:`~confcheck.model.ObservedTrace.from_spans` on the offending
trace. Span objects are built only when asked for: ``parse_trace_document``
returns them, ``load_corpus_dir`` builds the partition's
:class:`~confcheck.model.ObservedTrace` objects, and ``assemble_traces``
groups span objects into traces, each of which checks its own spans.

Each error context is added once, where it is known: ``read_files``
prefixes the file name, ``_otel_batches`` prefixes ``resourceSpans[i]:`` to a
resource entry's errors (its attributes' among them), and ``_build_spans``
prefixes ``span S:`` to a span's; a reader prefixes ``span S:`` itself only to
the fields it reads (times, links, Zipkin tags). The attribute decoders add no
context. A message shows an input value through :func:`~confcheck.model.echo`.

Every corpus read is ``read_files``, unassembled columns and their clamp
warnings, then ``assemble_partition``: ``load_partition`` reads a whole
directory so, and each of ``check``'s workers the files that
``corpus_reader`` gives it by :func:`read_plan`. The name-sorted files are
cut into K = max(1, min(files, workers)) contiguous groups of about equal
size, one per worker, the rule ``simulate`` follows too; each file is so
decoded once, and a one-file corpus is read in this process. A trace whose
spans lie in files that different workers read is exchanged by
:mod:`confcheck.runner` before the worker assembles it.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, eq, is_not, lt, not_
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .model import (
    _NO_ATTRIBUTES,
    _load_json,
    AttrValue,
    CyclicParentChainError,
    DuplicateSpanIdError,
    ObservedSpan,
    ObservedTrace,
    Partition,
    SERVICE_NAME_KEY,
    SpanColumns,
    SpanId,
    TRACE_ID_LENGTH,
    TraceId,
    columns_valid,
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
    "load_partition",
    "assemble_partition",
    "corpus_reader",
    "read_plan",
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


# One span as a format parser reads it, in ObservedSpan's positional order:
# trace id (padded), span id, name, service name, start and end nanoseconds,
# the raw parent id, the attributes (the raw OTel list, or None, when the
# builder is given a decoder) and the links.
_Record = Tuple[object, object, object, object, int, int, object, object, tuple]


def _clamp_warning(start: int, end: int, trace_id: object, span_id: object) -> IngestWarning:
    return IngestWarning(
        kind=IngestWarningKind.CLAMPED_TIMESTAMP,
        trace_id=trace_id,
        span_id=span_id,
        detail=f"end time {end} precedes start time {start}; clamped to start",
    )


def _span_label(span_id: object) -> str:
    """The ``span S`` that prefixes a span's errors."""
    return f"span {echo(span_id, str)}"


def _build_spans(
    records: Iterable[_Record],
    warnings: "Optional[list[IngestWarning]]",
    decode_attributes: Optional[Callable[[object], dict]] = None,
) -> List[ObservedSpan]:
    """The one normaliser: turn a reader's records into spans, one at a time,
    so a reader's own errors and the spans' errors keep their file order.

    An end time before the start is clamped to it, with a warning. The
    parent id is normalized, and with ``decode_attributes`` the raw
    attributes decoded, inside the span's error context: a ``ValueError`` of
    either or of the span itself becomes ``MalformedDocumentError("span S:
    ...")``, the one place that prefixes it."""
    spans: List[ObservedSpan] = []
    append = spans.append
    for trace_id, span_id, name, service_name, start, end, parent_id, attributes, links in records:
        if end < start:
            if warnings is not None:
                warnings.append(_clamp_warning(start, end, trace_id, span_id))
            end = start
        try:
            if parent_id is not None:
                parent_id = _normalize_parent_id(parent_id)
            if decode_attributes is not None:
                attributes = {} if attributes is None else decode_attributes(attributes)
            append(ObservedSpan(trace_id, span_id, name, service_name, start, end, parent_id, attributes, links))
        except ValueError as exc:
            raise MalformedDocumentError(f"{_span_label(span_id)}: {exc}") from exc
    return spans


def _zipkin_records(data: list) -> Iterator[_Record]:
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
        raw_span_id = get("id")
        if not raw_trace_id or not raw_span_id:
            raise MissingFieldError(f"span #{index} lacks id or traceId")
        if not isinstance(raw_trace_id, str) or not isinstance(raw_span_id, str):
            raise MalformedDocumentError(f"span #{index}: id and traceId must be strings")

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
        yield (
            _pad_trace_id(raw_trace_id),
            raw_span_id,
            get("name", ""),
            service_name,
            timestamp_micros * 1000,
            (timestamp_micros + duration_micros) * 1000,
            get("parentId"),
            _string_tags(tags),
            (),
        )


def _string_tags(tags: dict) -> dict:
    """Zipkin tags as attributes, each value as its string."""
    return {key: value if isinstance(value, str) else str(value) for key, value in tags.items()}


_DECIMAL_DIGITS = b"0123456789"


def _decimal(texts: Sequence[str]) -> bool:
    """Whether every string of ``texts`` is an integer as proto3 JSON writes
    one: ASCII decimal digits after an optional sign. ``int()`` alone also
    reads ``"1_000"``, ``" 12 "`` and other scripts' digits. An empty string
    passes here, and ``int()`` rejects it. The strings are tested as one
    joined text, and one at a time only when that holds a non-digit."""
    joined = "".join(texts)
    if joined.isascii() and not joined.encode().translate(None, _DECIMAL_DIGITS):
        return True
    unsigned = (text[1:] if text[:1] in ("+", "-") else text for text in texts)
    return all(digits.isascii() and digits.isdigit() for digits in unsigned)


# A double as proto3 JSON may give it in a string: NaN, an infinity, or a
# JSON number. Each is read by float(), which rounds it correctly, never
# raises, gives an infinity beyond the float range and keeps the sign of
# "-0". Compiled on first use, by re's own cache, not at every import.
_DOUBLE_TEXT = r"NaN|-?Infinity|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_INFINITY = float("inf")


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
        if isinstance(raw, int) or _decimal([raw]):
            try:
                return int(raw)
            except ValueError:
                pass
        raise MalformedDocumentError(f"intValue {echo(raw)} is not an integer")
    if "doubleValue" in value:
        raw = value["doubleValue"]
        if isinstance(raw, str) and re.fullmatch(_DOUBLE_TEXT, raw):
            return float(raw)
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise MalformedDocumentError("doubleValue must hold a number")
        try:
            return float(raw)
        except OverflowError:  # a JSON integer beyond the float range, as "1e400" would read
            return _INFINITY if raw > 0 else -_INFINITY
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
        if isinstance(raw, int) or _decimal([raw]):
            try:
                return int(raw)
            except ValueError:
                pass
        raise MalformedDocumentError(f"{_span_label(span_id)}: {field_name} {echo(raw)} is not an integer")
    raise MalformedDocumentError(f"{_span_label(span_id)}: {field_name} must be an integer or string")


def _links_from_json(links: object, span_id: object) -> Tuple[Tuple[object, object], ...]:
    if not isinstance(links, list):
        raise MalformedDocumentError(f"{_span_label(span_id)}: links must be a list")
    for link in links:
        if not isinstance(link, dict) or "traceId" not in link or "spanId" not in link:
            raise MalformedDocumentError(f"{_span_label(span_id)}: links must carry traceId and spanId")
    return tuple((link["traceId"], link["spanId"]) for link in links)


def _otel_batches(data: dict) -> Iterator[Tuple[str, list]]:
    """The one walk of the OTel layout: each ``spans`` list of the document,
    in file order, with the service name of its resource entry.

    Each ``resourceSpans`` entry must carry a ``service.name`` resource
    attribute; every span under it inherits that service name.
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
            yield service_name, raw_spans


def _otel_records(data: dict) -> Iterator[_Record]:
    """The spans of an OTel-layout document as records whose attributes are
    the raw list, for ``_build_spans`` to decode with ``_attrs_from_json``.
    Typed attribute values are preserved."""
    for service_name, raw_spans in _otel_batches(data):
        for raw in raw_spans:
            if not isinstance(raw, dict):
                raise MalformedDocumentError("span entries must be objects")
            get = raw.get
            trace_id = get("traceId")
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


# The column reads. Each returns the columns its record reader and
# ``_build_spans`` would give, before clamping, or None when a span breaks a
# rule of the reader; ``_read_document`` clamps and checks the rest.

_NONE_TYPE = type(None)


def _of_types(values: list, types: "set[type]") -> bool:
    return set(map(type, values)) <= types


def _parent_column(raw: list) -> Optional[list]:
    """Raw parent ids as ``_normalize_parent_id`` reads them, with ``""`` for
    a root (an absent, null, empty or all-zero id); None when one is neither
    a string nor null."""
    if _of_types(raw, {str}) and set(map(len, raw)) <= {0, 16} and "0" * 16 not in raw:
        return raw
    if not _of_types(raw, {str, _NONE_TYPE}):
        return None
    return [_normalize_parent_id(value) or "" for value in raw]


_MICROS = 1000  # nanoseconds


def _zipkin_columns(data: list, strings: dict) -> Optional[SpanColumns]:
    """``_zipkin_records`` a column at a time."""
    if not _of_types(data, {dict}):
        return None
    get = dict.get
    raw_trace_ids = list(map(get, data, repeat("traceId")))
    if not _of_types(raw_trace_ids, {str}):
        return None
    endpoints = list(map(get, data, repeat("localEndpoint")))
    names = list(map(get, data, repeat("name"), repeat("")))
    timestamps = list(map(get, data, repeat("timestamp"), repeat(0)))
    durations = list(map(get, data, repeat("duration"), repeat(0)))
    tags = list(map(get, data, repeat("tags"), repeat(_NO_ATTRIBUTES)))
    if not (
        _of_types(endpoints, {dict})
        and _of_types(names, {str})
        and _of_types(timestamps, {int})
        and _of_types(durations, {int})
        and _of_types(tags, {dict})
    ):
        return None
    services = list(map(get, endpoints, repeat("serviceName")))
    parent_ids = _parent_column(list(map(get, data, repeat("parentId"), repeat(""))))
    if parent_ids is None or not _of_types(services, {str}):
        return None
    if _of_types(list(chain.from_iterable(map(dict.values, tags))), {str}):
        # Kept as decoded; an empty one is dropped, to hold less memory.
        tags = [tag or _NO_ATTRIBUTES for tag in tags]
    else:
        tags = list(map(_string_tags, tags))
    share_string = strings.setdefault
    trace_ids = list(map(str.rjust, raw_trace_ids, repeat(TRACE_ID_LENGTH), repeat("0")))
    columns = SpanColumns()
    columns.trace_ids = list(map(share_string, trace_ids, trace_ids))
    columns.span_ids = list(map(get, data, repeat("id")))
    columns.parent_ids = parent_ids
    columns.names = list(map(share_string, names, names))
    columns.services = list(map(share_string, services, services))
    columns.starts = list(map(_MICROS.__mul__, timestamps))
    columns.ends = list(map(_MICROS.__mul__, map(add, timestamps, durations)))
    columns.attributes = tags
    columns.links = [()] * len(data)
    return columns


def _otel_times(raw: list) -> Optional[List[int]]:
    """``_time_from_json`` over a column: null is 0."""
    types = set(map(type, raw))
    if not types <= {str, int, _NONE_TYPE}:
        return None
    if _NONE_TYPE in types:
        raw = [0 if value is None else value for value in raw]
    if not _decimal(raw if types == {str} else [value for value in raw if type(value) is str]):
        return None
    try:
        return list(map(int, raw))
    except ValueError:
        return None


def _attr_values_from_json(values: list) -> Optional[list]:
    """``_attr_value_from_json`` over a column, None for an error. String and
    integer values, each an object of one key, are read a column at a
    time."""
    if _of_types(values, {dict}) and set(map(len, values)) <= {1}:
        kinds = list(map(next, map(iter, values)))
        decoded = list(map(dict.__getitem__, values, kinds))
        integer = list(map(eq, kinds, repeat("intValue")))
        if set(kinds) <= {"stringValue", "intValue"} and _of_types(list(compress(decoded, map(not_, integer))), {str}):
            rows = list(compress(range(len(decoded)), integer))
            raw = list(map(decoded.__getitem__, rows))
            if not _of_types(raw, {str, int}) or not _decimal([value for value in raw if type(value) is str]):
                return None
            try:
                for row, number in zip(rows, map(int, raw)):
                    decoded[row] = number
            except ValueError:
                return None
            return decoded
    try:
        return [_attr_value_from_json(value) for value in values]
    except MalformedDocumentError:
        return None


def _otel_attributes(raw: list) -> Optional[list]:
    """``_attrs_from_json`` over a column of raw attribute lists (None for
    none), as one dict per span, ``_NO_ATTRIBUTES`` for none."""
    column = [_NO_ATTRIBUTES] * len(raw)
    rows = list(compress(range(len(raw)), map(is_not, raw, repeat(None))))
    if not rows:
        return column
    lists = list(map(raw.__getitem__, rows))
    if not _of_types(lists, {list}):
        return None
    entries = list(chain.from_iterable(lists))
    if not _of_types(entries, {dict}):
        return None
    keys = list(map(dict.get, entries, repeat("key")))
    if not _of_types(keys, {str}):
        return None
    values = _attr_values_from_json(list(map(dict.get, entries, repeat("value"), repeat({}))))
    if values is None:
        return None
    pairs = zip(keys, values)
    skip = None in values  # value kinds outside the four scalar types are ignored
    for row, count in zip(rows, map(len, lists)):
        entries = islice(pairs, count)
        column[row] = {key: value for key, value in entries if value is not None} if skip else dict(entries)
    return column


def _otel_columns(data: dict, strings: dict) -> Optional[SpanColumns]:
    """``_otel_records`` a column at a time."""
    try:
        batches = list(_otel_batches(data))
    except MalformedDocumentError:
        return None
    share_string = strings.setdefault
    spans: list = []
    services: list = []
    for service, raw_spans in batches:
        if not _of_types(raw_spans, {dict}):
            return None
        spans += raw_spans
        services += repeat(share_string(service, service), len(raw_spans))
    get = dict.get
    trace_ids = list(map(get, spans, repeat("traceId")))
    names = list(map(get, spans, repeat("name"), repeat("")))
    if not (_of_types(trace_ids, {str}) and _of_types(names, {str})):
        return None
    starts = _otel_times(list(map(get, spans, repeat("startTimeUnixNano"))))
    ends = _otel_times(list(map(get, spans, repeat("endTimeUnixNano"))))
    parent_ids = _parent_column(list(map(get, spans, repeat("parentSpanId"), repeat(""))))
    attributes = _otel_attributes(list(map(get, spans, repeat("attributes"))))
    if starts is None or ends is None or parent_ids is None or attributes is None:
        return None
    links = [()] * len(spans)
    for row in compress(range(len(spans)), map(dict.__contains__, spans, repeat("links"))):
        try:
            links[row] = _links_from_json(spans[row]["links"], spans[row].get("spanId"))
        except MalformedDocumentError:
            return None
    columns = SpanColumns()
    columns.trace_ids = list(map(share_string, trace_ids, trace_ids))
    columns.span_ids = list(map(get, spans, repeat("spanId")))
    columns.parent_ids = parent_ids
    columns.names = list(map(share_string, names, names))
    columns.services = services
    columns.starts = starts
    columns.ends = ends
    columns.attributes = attributes
    columns.links = links
    return columns


def _clamp_and_check(columns: SpanColumns, warnings: "Optional[list[IngestWarning]]") -> bool:
    """Clamp each end time before its start to the start, and check every
    span of a column read: True, with a warning per clamp added to
    ``warnings``, when every span passes."""
    starts, ends = columns.starts, columns.ends
    late = list(compress(range(len(starts)), map(lt, ends, starts)))
    clamps = [_clamp_warning(starts[row], ends[row], columns.trace_ids[row], columns.span_ids[row]) for row in late]
    for row in late:
        ends[row] = starts[row]
    if not columns_valid(columns):
        return False
    if warnings is not None:
        warnings += clamps
    return True


def _layout(data: object) -> "tuple[Callable, Callable, Optional[Callable[[object], dict]]]":
    """The one layout check: a decoded document's column reader, record
    reader and raw-attribute decoder. A list is Zipkin v2; an object whose
    ``resourceSpans`` is a list is the OTel-style layout."""
    if isinstance(data, list):
        return _zipkin_columns, _zipkin_records, None
    if isinstance(data, dict) and isinstance(data.get("resourceSpans"), list):
        return _otel_columns, _otel_records, _attrs_from_json
    raise MalformedDocumentError(
        "unrecognized trace document: expected a Zipkin v2 array or an object with resourceSpans"
    )


def _document_spans(data: object, warnings: "Optional[list[IngestWarning]]") -> List[ObservedSpan]:
    """The record path: the spans of one decoded document, built and checked
    one at a time, so the first error in file order is the one raised."""
    _, read_records, decode_attributes = _layout(data)
    return _build_spans(read_records(data), warnings, decode_attributes)


def _read_document(
    data: object, warnings: "Optional[list[IngestWarning]]", strings: dict, columns: SpanColumns
) -> None:
    """Append the spans of one decoded document to ``columns``: by the
    column read when every span passes every rule, else by the record path,
    which raises the document's first error or, for valid input the column
    read does not take, gives its spans."""
    read = _layout(data)[0](data, strings)
    if read is not None and _clamp_and_check(read, warnings):
        columns.extend(read)
    else:
        columns.extend_spans(_document_spans(data, warnings))


def parse_trace_document(
    document: "bytes | str",
    warnings: "Optional[list[IngestWarning]]" = None,
) -> List[ObservedSpan]:
    """Parse a trace export of either supported format, auto-detected by the
    top-level JSON shape: an array is Zipkin v2, an object with a
    ``resourceSpans`` array is the OTel-style layout."""
    columns = SpanColumns()
    _read_document(_load_json(document, MalformedDocumentError), warnings, {}, columns)
    return list(map(columns.span, range(len(columns))))


def _dangling_warning(trace_id: TraceId, span_id: SpanId, parent_id: SpanId) -> IngestWarning:
    return IngestWarning(
        kind=IngestWarningKind.DANGLING_PARENT,
        trace_id=trace_id,
        span_id=span_id,
        detail=f"parent span {parent_id} is not present in the trace",
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
    grouped: Dict[TraceId, List[ObservedSpan]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    traces = [ObservedTrace.from_spans(trace_id, grouped[trace_id]) for trace_id in sorted(grouped)]
    warnings = [
        _dangling_warning(trace.trace_id, span_id, trace.spans[span_id].parent_span_id)
        for trace in traces
        for span_id in sorted(trace.dangling_parents)
    ]
    return traces, warnings


# The JSON text of a string: json.dumps's own escaper, which writes each
# character outside printable ASCII, and each quote and backslash, escaped.
_encode = encode_basestring_ascii
# A resource entry's text before its service name, and between that name and
# its first span.
_RESOURCE_HEAD = '{"resource":{"attributes":[{"key":' + _encode(SERVICE_NAME_KEY) + ',"value":{"stringValue":'
_SCOPE_HEAD = '}}]},"scopeSpans":[{"scope":{"name":"confcheck"},"spans":['


def _float_text(value: float) -> str:
    """``value`` as ``json.dumps`` writes a float."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _attribute_text(key: str, value: AttrValue) -> str:
    if isinstance(value, bool):
        typed = '{"boolValue":true}' if value else '{"boolValue":false}'
    elif isinstance(value, str):
        typed = '{"stringValue":' + _encode(value) + "}"
    elif isinstance(value, int):
        typed = '{"intValue":' + _encode(str(value)) + "}"
    else:
        typed = '{"doubleValue":' + _float_text(value) + "}"
    return '{"key":' + _encode(key) + ',"value":' + typed + "}"


def _attributes_text(attributes: Mapping[str, AttrValue]) -> str:
    return ',"attributes":[' + ",".join([_attribute_text(key, attributes[key]) for key in sorted(attributes)]) + "]"


def _links_text(links: Tuple[Tuple[TraceId, SpanId], ...]) -> str:
    return ',"links":[' + ",".join(['{"traceId":"' + t + '","spanId":"' + s + '"}' for t, s in links]) + "]"


def _otel_text(columns: SpanColumns) -> str:
    """The one OTel serializer: the spans of ``columns``, whose rows pass
    :func:`~confcheck.model.columns_valid`, in the canonical OTel-style
    layout. Their ids and times are written unescaped, as the column rules
    have checked the ids to be lowercase hex and the times to be unsigned
    integers. The spans' parent, attribute and link text is made a column
    at a time, and each distinct name escaped once."""
    trace_ids, span_ids, services = columns.trace_ids, columns.span_ids, columns.services
    names = {name: _encode(name) for name in set(columns.names)}
    texts = [
        # One span's JSON object; its parent text closes the span id.
        f'{{"traceId":"{trace_id}","spanId":"{span_id}{parent},"name":{name},'
        f'"startTimeUnixNano":"{start}","endTimeUnixNano":"{end}"{attributes}{links}}}'
        for trace_id, span_id, parent, name, start, end, attributes, links in zip(
            trace_ids,
            span_ids,
            ['","parentSpanId":"' + parent + '"' if parent else '"' for parent in columns.parent_ids],
            map(names.__getitem__, columns.names),
            columns.starts,
            columns.ends,
            [_attributes_text(attributes) if attributes else "" for attributes in columns.attributes],
            [_links_text(links) if links else "" for links in columns.links],
        )
    ]
    # Every trace id has one length, so joined to its span id it sorts in
    # (trace id, span id) order; a stable sort by service then groups them.
    keys = list(map(add, trace_ids, span_ids))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    del keys
    order.sort(key=services.__getitem__)
    entries = [
        _RESOURCE_HEAD + _encode(service) + _SCOPE_HEAD + ",".join(map(texts.__getitem__, rows)) + "]}]}"
        for service, rows in groupby(order, services.__getitem__)
    ]
    # Each span's text is now in its entry: not held a second time below.
    del texts
    return '{"resourceSpans":[' + ",".join(entries) + "]}"


def serialize_otel_json(traces: Iterable[ObservedTrace]) -> str:
    """Serialize traces to the canonical OTel-style layout.

    Spans are grouped into one resource entry per service name; entries are
    sorted by service name and spans by (trace id, span id), so identical
    inputs always produce identical bytes. The text is what ``json.dumps``
    writes with ``separators=(",", ":")`` for the same document of dicts,
    but it is written from the spans' columns, with no dict built.
    """
    columns = SpanColumns()
    columns.extend_spans([span for trace in traces for span in trace.spans.values()])
    return _otel_text(columns)


def _corpus_files(directory: "Path | str") -> List[Path]:
    """The ``*.json`` regular files of a corpus directory, in name order:
    a directory, pipe or other entry of that name is skipped."""
    directory = Path(directory)
    if not directory.is_dir():
        if directory.exists():
            raise NotADirectoryError(f"corpus {directory} is not a directory")
        raise FileNotFoundError(f"corpus directory {directory} does not exist")
    return sorted(path for path in directory.glob("*.json") if path.is_file())


def _write_whole(path: "Path | str", text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8 so that the name never holds part
    of it: the text goes to ``<path>.partial`` in the same directory, which
    ``os.replace`` then moves onto ``path``. If the write fails, the partial
    file is removed and a file already at ``path`` is left as it was. A path
    that names an existing entry other than a regular file (a FIFO, a device
    such as ``/dev/stdout``, a symbolic link) is written in place."""
    try:
        in_place = not stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        Path(path).write_text(text, encoding="utf-8")
        return
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as file:
            file.write(text)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(partial)
        raise


def read_files(paths: Sequence[Path]) -> Tuple[SpanColumns, List[IngestWarning]]:
    """The spans of ``paths`` as columns that pass every span rule,
    unassembled, and their clamp warnings. A file's errors are prefixed with
    its name."""
    warnings: List[IngestWarning] = []
    columns = SpanColumns()
    strings: dict = {}
    for path in paths:
        try:
            _read_document(_load_json(path.read_bytes(), MalformedDocumentError), warnings, strings, columns)
        except MalformedDocumentError as exc:
            raise MalformedDocumentError(f"{path.name}: {exc}") from exc
    return columns, warnings


def assemble_partition(columns: SpanColumns) -> Tuple[Partition, List[IngestWarning]]:
    """The one assembly of read columns: their
    :class:`~confcheck.model.Partition`, which raises on a duplicate span id
    or a parent cycle, and a warning per span whose parent is not in its
    trace."""
    partition = Partition(columns)
    return partition, [
        _dangling_warning(partition.trace_ids[row], partition.span_ids[row], partition.parent_ids[row])
        for row in partition.dangling
    ]


def load_partition(directory: "Path | str") -> Tuple[Partition, List[IngestWarning]]:
    """Ingest every ``*.json`` regular file in a directory, auto-detecting formats,
    into one assembled :class:`~confcheck.model.Partition`, building no span
    object, and the ingest warnings."""
    columns, warnings = read_files(_corpus_files(directory))
    partition, dangling = assemble_partition(columns)
    return partition, warnings + dangling


def read_plan(sizes: Sequence[int], workers: int) -> List[Tuple[int, int]]:
    """The range ``[lo, hi)`` of the name-sorted files of ``sizes`` bytes
    that each worker reads whole: max(1, min(files, ``workers``)) contiguous
    ranges of about equal size, so that every file is read by exactly one
    worker and none is left without a file. No files are one empty range."""
    groups = max(1, min(len(sizes), workers))
    ends = [0]
    for size in sizes:
        ends.append(ends[-1] + size)
    cuts = [0]
    for group in range(1, groups):
        # The file boundary nearest an equal share, leaving a file for each
        # group to come.
        target = ends[-1] * group / groups
        bounds = range(cuts[-1] + 1, len(sizes) - (groups - group) + 1)
        cuts.append(min(bounds, key=lambda cut: abs(ends[cut] - target)))
    cuts.append(len(sizes))
    return list(zip(cuts, cuts[1:]))


def corpus_reader(
    directory: "Path | str", workers: int
) -> Tuple[Callable[[int], Tuple[SpanColumns, List[IngestWarning]]], int]:
    """The reader of a corpus directory for
    :func:`~confcheck.runner.worker_partition`, and the number K of workers
    it serves, at most ``workers``: each worker's files by :func:`read_plan`,
    read by :func:`read_files` and unassembled, for the runner to exchange
    the traces that cross workers' files and assemble."""
    paths = _corpus_files(directory)
    plan = read_plan([path.stat().st_size for path in paths], workers)

    def read(worker: int) -> Tuple[SpanColumns, List[IngestWarning]]:
        lo, hi = plan[worker]
        return read_files(paths[lo:hi])

    return read, len(plan)


def load_corpus_dir(directory: "Path | str") -> Tuple[List[ObservedTrace], List[IngestWarning]]:
    """:func:`load_partition` with the traces built: every trace of the
    directory ordered by trace id, and the ingest warnings."""
    partition, warnings = load_partition(directory)
    return partition.traces(), warnings
