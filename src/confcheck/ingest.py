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
``_layout`` alone decides its layout from the decoded value and gives its
one reader, ``_zipkin_columns`` or ``_otel_columns``, which pulls each field
of every span into a column with C-level calls such as ``map(dict.get,
spans, repeat("traceId"))``. Within one load, each document's columns keep
one string object per distinct trace id (after Zipkin padding), span name
and service name once they read clean, which saves memory.

The reader names a document's first error in file order itself. Each rule
(a type or shape check, a decimal time, parent normalisation, an attribute
or link decode) is a fast pass over a whole column; only when that fails
does it find its first bad span, and it raises that span's message, which
is written once, in the rule. The rules run in the order in which a span's
fields are checked, and ``_read_rows`` reads the spans before a rule's bad
span again, so that a later rule's error on an earlier span wins. The
reader also runs the rules of a span object that its passes do not settle,
each once, on the column it has just read, by their column forms in
:mod:`confcheck.model`: the id rules (the trace id rule once per distinct
id), the 64-bit range of an integer attribute and the ids of the links.
End times before their start are then clamped, with a warning, and the
64-bit time range is tested. No rule is tested twice, and only when one of
those fails does :func:`~confcheck.model.first_span_error` name the first
span that breaks a rule, by its span object's own message.

``check`` reads with the attribute keys that its design matches on
(:func:`~confcheck.checker.matched_attribute_keys`), which ``corpus_reader``
hands to ``read_files``: each span then keeps only the attributes of those
keys, and the shared ``_NO_ATTRIBUTES`` when it has none, but every
attribute is still read and checked. Every other read keeps every attribute.

:func:`assemble_partition` then assembles the columns, and the partition
names a duplicate span id or a parent cycle through
:meth:`~confcheck.model.ObservedTrace.from_spans` on the offending trace.
Span objects are built only when asked for: ``parse_trace_document``
returns them, ``load_corpus_dir`` builds the partition's
:class:`~confcheck.model.ObservedTrace` objects, and ``assemble_traces``
groups span objects into traces, each of which checks its own spans.

Each error context is added once, where it is known: ``read_files``
prefixes the file name, ``_otel_spans`` prefixes ``resourceSpans[i]:`` to a
resource entry's errors (its attributes' among them), and a span's rule
prefixes ``span S:`` to the span's (Zipkin ``span #i`` where the span has no
id to show). The value decoders add no context. A message shows an input
value through :func:`~confcheck.model.echo`.

Every corpus read is ``read_files``, unassembled columns and their clamp
warnings, then ``assemble_partition``: ``load_partition`` reads a whole
directory so, and each of ``check``'s workers the files that
``corpus_reader``'s reader gives it by :func:`read_plan`. That is the one
rule for the number K of workers, which ``simulate`` and ``check_corpus``
follow too: the name-sorted files are cut into K = max(1, min(files,
workers)) contiguous groups of about equal size, one per worker, and K is 1
where the platform has no ``os.fork``. Each file is so decoded once, and a
one-file corpus is read in this process. The reader trades a trace whose
spans lie in files that different workers read through the worker's
:class:`~confcheck.runner.Exchange`, so that each worker holds whole traces,
which :func:`~confcheck.checker.check_partitions` then assembles.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, count, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, eq, is_, is_not, lt, not_
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
    attr_values_valid,
    echo,
    first_span_error,
    links_valid,
    parent_ids_valid,
    span_ids_valid,
    times_in_range,
    trace_ids_valid,
)

if TYPE_CHECKING:
    from .checker import Reader
    from .runner import Exchange

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


# A document's reader: its first ``end`` spans as columns, and whether they
# pass every span rule; ``_RowError`` when one breaks a rule of the reader's
# own, with its own message.
_Reader = Callable[[int], "tuple[SpanColumns, bool]"]


class _RowError(Exception):
    """A reader rule's error, raised as ``_RowError(row, error)`` at the
    first row (a span, in file order) that breaks the rule. A row before it
    may break a later rule, so it is the document's error only once those
    rows read clean: see ``_read_rows``."""


def _first_false(flags: Iterable[object]) -> Optional[int]:
    return next(compress(count(), map(not_, flags)), None)


def _require(
    good: Iterable[object], message: str, span_ids: Sequence[object] = (), error: type = MalformedDocumentError
) -> None:
    """Raise ``error(message)`` at the first row whose ``good`` is false, if
    any: ``{row}`` in ``message`` is that row, ``{span}`` its ``span S``."""
    row = _first_false(good)
    if row is not None:
        span = _span_label(span_ids[row]) if span_ids else None
        raise _RowError(row, error(message.format(row=row, span=span)))


def _each_row(
    decode: Callable[[object], object], values: Iterable[object], span_ids: list, rows: Optional[Iterable[int]] = None
) -> list:
    """``decode`` of each value, a span at a time: the first
    ``MalformedDocumentError`` is raised at its row, as ``span S: ...``.
    ``rows`` are the rows of the values, by default 0, 1, 2, ..."""
    decoded = []
    for row, value in zip(count() if rows is None else rows, values):
        try:
            decoded.append(decode(value))
        except MalformedDocumentError as exc:
            raise _RowError(row, MalformedDocumentError(f"{_span_label(span_ids[row])}: {exc}")) from None
    return decoded


_NONE_TYPE = type(None)


def _of_types(values: Sequence[object], types: "set[type]") -> bool:
    return set(map(type, values)) <= types


def _cut(columns: "tuple[list, ...]", texts: int) -> "tuple[tuple[list, ...], bool]":
    """The rows of ``columns`` through the first where one of the first
    ``texts`` columns, span fields that must be strings, holds no string,
    and whether no row does. That row's span object cannot build, so its
    error, or an earlier row's, is the document's, and no later row is
    read."""
    if all(map(_of_types, columns[:texts], repeat({str}))):
        return columns, True
    end = _first_false(map(_of_types, zip(*columns[:texts]), repeat({str}))) + 1
    return tuple(column[:end] for column in columns), False


def _normalize_parent_id(raw: object) -> Optional[str]:
    # Empty-string and all-zero parent ids both mean "root" in real exports.
    if raw is None:
        return None
    if not isinstance(raw, str):
        raise MalformedDocumentError(f"parent span id must be a string, got {type(raw).__name__}")
    if not raw.strip("0"):
        return None
    return raw


def _parent_column(raw: list, span_ids: list) -> "tuple[list, bool]":
    """Raw parent ids as ``_normalize_parent_id`` reads them, with ``""`` for
    a root (an absent, null, empty or all-zero id), and whether they pass
    :func:`~confcheck.model.parent_ids_valid`. Ids that pass it are kept as
    they are, as the rule admits no other root than ``""``."""
    if parent_ids_valid(raw):
        return raw, True
    parent_ids = _each_row(lambda value: _normalize_parent_id(value) or "", raw, span_ids)
    return parent_ids, parent_ids_valid(parent_ids)


def _tag_text(value: object) -> str:
    """A Zipkin tag value as its string."""
    return value if isinstance(value, str) else str(value)


def _string_tags(tags: dict) -> dict:
    """Zipkin tags as attributes, each value as its string."""
    return {key: _tag_text(value) for key, value in tags.items()}


def _tag_column(tags: list, keys: Optional[AbstractSet[str]]) -> list:
    """A column of Zipkin tag objects as attributes, one dict per span,
    ``_NO_ATTRIBUTES`` for none; given ``keys``, only the tags of those
    keys. A tag breaks no rule, as each value is taken as its string."""
    if keys is None:
        if _of_types(list(chain.from_iterable(map(dict.values, tags))), {str}):
            # Kept as decoded; an empty one is dropped, to hold less memory.
            return [tag or _NO_ATTRIBUTES for tag in tags]
        return list(map(_string_tags, tags))
    column = [_NO_ATTRIBUTES] * len(tags)
    for key in sorted(keys):
        for row in compress(range(len(tags)), map(dict.__contains__, tags, repeat(key))):
            if column[row] is _NO_ATTRIBUTES:
                column[row] = {}
            column[row][key] = _tag_text(tags[row][key])
    return column


_MICROS = 1000  # nanoseconds


def _zipkin_columns(spans: list, keys: Optional[AbstractSet[str]]) -> "tuple[SpanColumns, bool]":
    """The spans of a Zipkin v2 array, with only the tags of ``keys`` when
    given, and whether they pass every span rule (see ``_read_rows``).

    Zipkin timestamps and durations are in microseconds and are converted to
    nanoseconds. Trace ids shorter than 32 chars are left-padded with zeros
    (Zipkin permits 64-bit trace ids). Tags become string-typed attributes,
    matching Zipkin's string-only tag model.
    """
    if not _of_types(spans, {dict}):
        _require(map(isinstance, spans, repeat(dict)), "span #{row} is not an object")
    get = dict.get
    trace_ids = list(map(get, spans, repeat("traceId")))
    span_ids = list(map(get, spans, repeat("id")))
    span_ids_ok = span_ids_valid(span_ids)  # valid span ids are non-empty strings
    if not (span_ids_ok and _of_types(trace_ids, {str}) and all(trace_ids)):
        _require(map(all, zip(trace_ids, span_ids)), "span #{row} lacks id or traceId", error=MissingFieldError)
        _require(map(_of_types, zip(trace_ids, span_ids), repeat({str})), "span #{row}: id and traceId must be strings")
    endpoints = list(map(get, spans, repeat("localEndpoint")))
    if _of_types(endpoints, {dict}):
        services = list(map(get, endpoints, repeat("serviceName")))
    else:
        services = [endpoint.get("serviceName") if type(endpoint) is dict else None for endpoint in endpoints]
    if not all(services):
        _require(services, "{span} lacks localEndpoint.serviceName", span_ids, MissingFieldError)
    names = list(map(get, spans, repeat("name"), repeat("")))
    (names, services, spans, trace_ids, span_ids), texts_ok = _cut((names, services, spans, trace_ids, span_ids), 2)
    timestamps = list(map(get, spans, repeat("timestamp"), repeat(0)))
    durations = list(map(get, spans, repeat("duration"), repeat(0)))
    for field, times in (("timestamp", timestamps), ("duration", durations)):
        if not _of_types(times, {int}):
            _require(map(is_, map(type, times), repeat(int)), "{span}: " + field + " must be an integer", span_ids)
    tags = list(map(get, spans, repeat("tags"), repeat(_NO_ATTRIBUTES)))
    if not _of_types(tags, {dict}):
        _require(map(isinstance, tags, repeat(dict)), "{span}: tags must be an object", span_ids)
    parent_ids, parent_ids_ok = _parent_column(list(map(get, spans, repeat("parentId"), repeat(""))), span_ids)
    columns = SpanColumns()
    columns.trace_ids = list(map(str.rjust, trace_ids, repeat(TRACE_ID_LENGTH), repeat("0")))
    columns.span_ids = span_ids
    columns.parent_ids = parent_ids
    columns.names = names
    columns.services = services
    columns.starts = list(map(_MICROS.__mul__, timestamps))
    columns.ends = list(map(_MICROS.__mul__, map(add, timestamps, durations)))
    columns.attributes = _tag_column(tags, keys)
    columns.links = [()] * len(spans)
    valid = texts_ok and span_ids_ok and parent_ids_ok and trace_ids_valid(set(columns.trace_ids))
    return columns, valid


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


def _integer(raw: "str | int") -> Optional[int]:
    """An integer as it is, or the integer a string spells as proto3 JSON
    writes one; None for any other string."""
    if isinstance(raw, int) or _decimal([raw]):
        try:
            return int(raw)
        except ValueError:
            pass
    return None


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


def _time_value(raw: object, field: str) -> int:
    """One OTel time, a span at a time: null is 0."""
    if raw is None:
        return 0
    if isinstance(raw, bool):
        raise MalformedDocumentError(f"{field} must be an integer")
    if not isinstance(raw, (str, int)):
        raise MalformedDocumentError(f"{field} must be an integer or string")
    number = _integer(raw)
    if number is None:
        raise MalformedDocumentError(f"{field} {echo(raw)} is not an integer")
    return number


def _otel_times(spans: list, field: str, span_ids: list) -> List[int]:
    """The ``field`` time of each span, as ``_time_value`` reads it."""
    raw = list(map(dict.get, spans, repeat(field)))
    types = set(map(type, raw))
    if types <= {str, int, _NONE_TYPE}:
        values = [0 if value is None else value for value in raw] if _NONE_TYPE in types else raw
        if _decimal(values if types == {str} else [value for value in values if type(value) is str]):
            try:
                return list(map(int, values))
            except ValueError:
                pass
    return _each_row(lambda value: _time_value(value, field), raw, span_ids)


def _links_from_json(links: object) -> Tuple[Tuple[object, object], ...]:
    if not isinstance(links, list):
        raise MalformedDocumentError("links must be a list")
    for link in links:
        if not isinstance(link, dict) or "traceId" not in link or "spanId" not in link:
            raise MalformedDocumentError("links must carry traceId and spanId")
    return tuple((link["traceId"], link["spanId"]) for link in links)


def _attr_values_from_json(values: list) -> "Optional[tuple[list, bool]]":
    """``_attr_value_from_json`` over a column, and whether the values it
    gives (None, for an ignored kind, aside) pass
    :func:`~confcheck.model.attr_values_valid`; None for an error. String
    and integer values, each an object of one key, are read a column at a
    time, and only their integers are tested."""
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
                numbers = list(map(int, raw))
            except ValueError:
                return None
            for row, number in zip(rows, numbers):
                decoded[row] = number
            return decoded, attr_values_valid(numbers)
    try:
        decoded = [_attr_value_from_json(value) for value in values]
    except MalformedDocumentError:
        return None
    return decoded, attr_values_valid([value for value in decoded if value is not None])


def _attribute_column(raw: list, keys: Optional[AbstractSet[str]]) -> "Optional[tuple[list, bool]]":
    """``_attrs_from_json`` over a column of raw attribute lists (None for
    none), as one dict per span, ``_NO_ATTRIBUTES`` for none, and whether
    every value passes :func:`~confcheck.model.attr_values_valid`; None when
    a list breaks a rule. Given ``keys``, a dict holds only the attributes
    of those keys, unless a value fails that rule: every attribute is then
    kept, for the span's own rule to name."""
    column = [_NO_ATTRIBUTES] * len(raw)
    rows = list(compress(range(len(raw)), map(is_not, raw, repeat(None))))
    if not rows:
        return column, True
    lists = list(map(raw.__getitem__, rows))
    if not _of_types(lists, {list}):
        return None
    entries = list(chain.from_iterable(lists))
    if not _of_types(entries, {dict}):
        return None
    names = list(map(dict.get, entries, repeat("key")))
    if not _of_types(names, {str}):
        return None
    decoded = _attr_values_from_json(list(map(dict.get, entries, repeat("value"), repeat({}))))
    if decoded is None:
        return None
    values, valid = decoded
    sizes = list(map(len, lists))
    if keys is None or not valid:
        skip = None in values  # value kinds outside the four scalar types are ignored
        pairs = zip(names, values)
        for row, size in zip(rows, sizes):
            entries = islice(pairs, size)
            column[row] = {key: value for key, value in entries if value is not None} if skip else dict(entries)
    elif keys:
        owners = list(chain.from_iterable(map(repeat, rows, sizes)))
        for entry in compress(range(len(names)), map(keys.__contains__, names)):
            if values[entry] is not None:
                row = owners[entry]
                if column[row] is _NO_ATTRIBUTES:
                    column[row] = {}
                column[row][names[entry]] = values[entry]
    return column, valid


def _otel_spans(data: dict) -> "tuple[list, list, Optional[MalformedDocumentError]]":
    """The one walk of the OTel layout: the span objects of the document, in
    file order, the service name of each, and the error of the first
    resource entry that breaks the layout, which follows those spans in file
    order, or None.

    Each ``resourceSpans`` entry must carry a ``service.name`` resource
    attribute; every span under it inherits that service name.
    """
    spans: list = []
    services: list = []
    try:
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
                raise MissingServiceNameError(f"resourceSpans[{entry_index}] lacks a service.name resource attribute")

            scope_spans = entry.get("scopeSpans", [])
            if not isinstance(scope_spans, list):
                raise MalformedDocumentError(f"resourceSpans[{entry_index}]: scopeSpans must be a list")
            for scope_entry in scope_spans:
                if not isinstance(scope_entry, dict):
                    raise MalformedDocumentError(f"resourceSpans[{entry_index}]: scopeSpans entries must be objects")
                raw_spans = scope_entry.get("spans", [])
                if not isinstance(raw_spans, list):
                    raise MalformedDocumentError(f"resourceSpans[{entry_index}]: spans must be a list")
                spans += raw_spans
                services += repeat(service_name, len(raw_spans))
    except MalformedDocumentError as exc:
        return spans, services, exc
    return spans, services, None


def _otel_columns(
    spans: list, services: list, keys: Optional[AbstractSet[str]]
) -> "tuple[SpanColumns, bool]":
    """The spans of an OTel-layout document, as ``_otel_spans`` gives them,
    with their service names and only the attributes of ``keys`` when given,
    and whether they pass every span rule (see ``_read_rows``). Typed
    attribute values are preserved."""
    if not _of_types(spans, {dict}):
        _require(map(isinstance, spans, repeat(dict)), "span entries must be objects")
    get = dict.get
    trace_ids = list(map(get, spans, repeat("traceId")))
    span_ids = list(map(get, spans, repeat("spanId")))
    if not (all(trace_ids) and all(span_ids)):
        _require(map(all, zip(trace_ids, span_ids)), "a span lacks spanId or traceId", error=MissingFieldError)
    names = list(map(get, spans, repeat("name"), repeat("")))
    (trace_ids, names, spans, services, span_ids), texts_ok = _cut((trace_ids, names, spans, services, span_ids), 2)
    starts = _otel_times(spans, "startTimeUnixNano", span_ids)
    ends = _otel_times(spans, "endTimeUnixNano", span_ids)
    links = [()] * len(spans)
    rows = list(compress(range(len(spans)), map(dict.__contains__, spans, repeat("links"))))
    linked = _each_row(_links_from_json, [spans[row]["links"] for row in rows], span_ids, rows)
    for row, pairs in zip(rows, linked):
        links[row] = pairs
    parent_ids, parent_ids_ok = _parent_column(list(map(get, spans, repeat("parentSpanId"), repeat(""))), span_ids)
    raw_attributes = list(map(get, spans, repeat("attributes")))
    read = _attribute_column(raw_attributes, keys)
    # The span-at-a-time decode raises the first bad list's error.
    attributes, attributes_ok = read or (_each_row(_attrs_from_json, raw_attributes, span_ids), False)
    columns = SpanColumns()
    columns.trace_ids = trace_ids
    columns.span_ids = span_ids
    columns.parent_ids = parent_ids
    columns.names = names
    columns.services = services
    columns.starts = starts
    columns.ends = ends
    columns.attributes = attributes
    columns.links = links
    valid = (
        texts_ok
        and parent_ids_ok
        and attributes_ok
        and span_ids_valid(span_ids)
        and trace_ids_valid(set(trace_ids))
        and links_valid(linked)
    )
    return columns, valid


def _clamp_and_check(columns: SpanColumns, valid: bool) -> List[IngestWarning]:
    """Clamp each end time before its start to the start, and return the
    clamp warnings of a column read once every span would build its span
    object: its reader found every other rule to hold (``valid``), and the
    times are within 64 bits. Else raise the error of the first span that
    would not, as ``span S: ...``."""
    starts, ends = columns.starts, columns.ends
    late = list(compress(range(len(starts)), map(lt, ends, starts)))
    clamps = [_clamp_warning(starts[row], ends[row], columns.trace_ids[row], columns.span_ids[row]) for row in late]
    for row in late:
        ends[row] = starts[row]
    failure = None if valid and times_in_range(starts, ends) else first_span_error(columns)
    if failure is not None:
        row, error = failure
        raise MalformedDocumentError(f"{_span_label(columns.span_ids[row])}: {error}") from error
    return clamps


def _read_rows(read: _Reader, end: int) -> "tuple[SpanColumns, List[IngestWarning]]":
    """The columns of a document's first ``end`` spans, by its reader
    ``read``, and their clamp warnings, once every span passes every rule;
    else raise the error of the first span in file order that breaks one.

    A rule that fails at row ``r`` raises ``_RowError``; the spans before
    ``r`` are then read again, as a later rule may fail on one of them. A
    rule that passes on some spans passes on every run of them from the
    first, so each rule fails once at most, and a document is read at most
    once per rule, plus once. The span objects' rules (ids, times,
    attribute values and links) come last and need no second read: the
    reader tests each on its whole column and says whether all hold, and
    only when one does not does :func:`~confcheck.model.first_span_error`
    name the first span that breaks one, as every span before it has passed
    every rule."""
    try:
        columns, valid = read(end)
    except _RowError as fault:
        row, error = fault.args
    else:
        return columns, _clamp_and_check(columns, valid)
    _read_rows(read, row)
    raise error


def _layout(
    data: object, keys: Optional[AbstractSet[str]]
) -> "tuple[_Reader, int, Optional[MalformedDocumentError]]":
    """The one layout check: a decoded document's reader, which reads its
    first ``end`` spans into columns, with only the attributes of ``keys``
    when given; its span count; and the error of its layout that follows
    those spans in file order, or None. A list is Zipkin v2; an object whose
    ``resourceSpans`` is a list is the OTel-style layout."""
    if isinstance(data, list):
        return (lambda end: _zipkin_columns(data[:end], keys)), len(data), None
    if isinstance(data, dict) and isinstance(data.get("resourceSpans"), list):
        spans, services, error = _otel_spans(data)
        return (lambda end: _otel_columns(spans[:end], services[:end], keys)), len(spans), error
    raise MalformedDocumentError(
        "unrecognized trace document: expected a Zipkin v2 array or an object with resourceSpans"
    )


def _read_document(
    data: object,
    warnings: "Optional[list[IngestWarning]]",
    strings: dict,
    columns: SpanColumns,
    keys: Optional[AbstractSet[str]] = None,
) -> None:
    """Append the spans of one decoded document to ``columns``, with only
    the attributes of ``keys`` when given, and their clamp warnings to
    ``warnings``, when every span passes every rule; else raise the
    document's first error in file order. Trace ids, names and services are
    kept as one string object per distinct string in ``strings``."""
    read, spans, layout_error = _layout(data, keys)
    read, clamps = _read_rows(read, spans)
    if layout_error is not None:
        raise layout_error
    for slot in ("trace_ids", "names", "services"):
        values = getattr(read, slot)
        setattr(read, slot, list(map(strings.setdefault, values, values)))
    columns.extend(read)
    if warnings is not None:
        warnings += clamps


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
    return _otel_text(SpanColumns.of_traces(traces))


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


def read_files(
    paths: Sequence[Path], keys: Optional[AbstractSet[str]] = None
) -> Tuple[SpanColumns, List[IngestWarning]]:
    """The spans of ``paths`` as columns that pass every span rule,
    unassembled, and their clamp warnings. Given ``keys``, a span keeps only
    its attributes of those keys; every attribute is still checked. A file's
    error is raised with its class kept and its text prefixed with the
    file's name."""
    warnings: List[IngestWarning] = []
    columns = SpanColumns()
    strings: dict = {}
    for path in paths:
        try:
            # The decoded document is held by no name here, so it is freed
            # before the next file is decoded.
            _read_document(_load_json(path.read_bytes(), MalformedDocumentError), warnings, strings, columns, keys)
        except MalformedDocumentError as exc:
            raise type(exc)(f"{path.name}: {exc}") from exc
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
    """The one rule for the number K of workers, and what each does: the
    range ``[lo, hi)`` of the items of ``sizes`` (name-sorted files of that
    many bytes, or traces of that many spans) that each worker takes whole.
    K = max(1, min(items, ``workers``)), but 1 where the platform has no
    ``os.fork``, by which every further worker starts; the ranges are
    contiguous and of about equal size, so that every item is taken by
    exactly one worker and none is left without one. No items are one empty
    range."""
    groups = max(1, min(len(sizes), workers if hasattr(os, "fork") else 1))
    ends = [0]
    for size in sizes:
        ends.append(ends[-1] + size)
    cuts = [0]
    for group in range(1, groups):
        # The item boundary nearest an equal share, leaving an item for each
        # group to come.
        target = ends[-1] * group / groups
        bounds = range(cuts[-1] + 1, len(sizes) - (groups - group) + 1)
        cuts.append(min(bounds, key=lambda cut: abs(ends[cut] - target)))
    cuts.append(len(sizes))
    return list(zip(cuts, cuts[1:]))


def corpus_reader(
    directory: "Path | str", workers: int, keys: Optional[AbstractSet[str]] = None
) -> "tuple[Reader, int]":
    """The reader of a corpus directory for
    :func:`~confcheck.checker.check_partitions`, and the number K of workers
    it serves, by :func:`read_plan`. Worker ``index`` reads its files by
    :func:`read_files`, with only the attributes of ``keys`` when given, and
    then, given an exchange, trades the traces that cross workers' files
    with their owners; it returns the rows of its whole traces, unassembled,
    and its clamp warning count."""
    paths = _corpus_files(directory)
    plan = read_plan([path.stat().st_size for path in paths], workers)

    def read(index: int, exchange: "Optional[Exchange]") -> Tuple[SpanColumns, int]:
        columns, warnings = read_files(paths[slice(*plan[index])], keys)
        count = len(warnings)
        del warnings  # dropped before the exchange
        return (columns if exchange is None else exchange.trade(columns)), count

    return read, len(plan)


def load_corpus_dir(directory: "Path | str") -> Tuple[List[ObservedTrace], List[IngestWarning]]:
    """:func:`load_partition` with the traces built: every trace of the
    directory ordered by trace id, and the ingest warnings."""
    partition, warnings = load_partition(directory)
    return partition.traces(), warnings
