"""Shared domain model: observed spans and traces, design spans and traces,
violations, and per-trace verdicts.

Every type here is immutable after construction and safe to share across
worker processes. Observed-side types enforce their invariants at
construction time. On the design side, ``DesignSpan`` owns the type of each
of its fields and raises ``ValueError`` on the first wrong one;
:func:`confcheck.design.validate_design_trace` owns the rules that span
several fields or spans (parents that resolve, no parent cycles, one
disallowed flag per trace) and the value rules a design file may break
more than once (service.name present, durations positive and within 64
bits), so that a design file with several such problems is reported in
full rather than failing on the first one.

The observed types are slotted dataclasses: an ``ObservedSpan`` or
``ObservedTrace`` has no ``__dict__``. On 64-bit CPython 3.11 a span object
takes 104 bytes instead of 152 (its field values aside). ``ObservedSpan``'s
one validation hook, ``__post_init__``, checks the trace, span and parent
ids by calling :func:`validate_trace_id` and :func:`validate_span_id`, so
each id rule is written once.

``DesignTrace.match_plan`` keeps the checker's compiled match plan of the
trace, built on first use.

``SpanColumns`` and ``Partition`` hold spans without a span object each: one
list per field, one entry per span (a struct of arrays). Every per-span rule
of ``ObservedSpan`` has a column form next to its scalar form
(:func:`span_ids_valid` beside :func:`validate_span_id`, and so on), which
checks a whole column in a few C-level passes; a string column's one
``"".join`` is both its string check and, for ids, the text of its hex
check. :func:`columns_valid` runs them all, checking each distinct trace id
once, and :func:`first_span_error` names the first row that breaks one by
the message its span object raises. The trace reader in
:mod:`confcheck.ingest` runs each column form once, on the column it reads,
where its own passes do not already settle the rule, and calls
:func:`first_span_error` only when one fails. A ``Partition`` is
assembled columns: each span's parent resolved to a row, dangling parents
listed, and duplicate span ids and parent cycles rejected. Those errors are
named by :meth:`ObservedTrace.from_spans` on the offending trace, so their
messages are the span objects' own. Span and trace objects are built from
a partition only when asked for.
"""

from __future__ import annotations

import functools
import json
import sys
import zlib
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, repeat
from operator import attrgetter, eq, is_, le, lt, ne
from typing import (
    TYPE_CHECKING, Callable, Collection, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

if TYPE_CHECKING:
    from .checker import MatchPlan

AttrValue = Union[str, int, float, bool]

SpanId = str
TraceId = str

SERVICE_NAME_KEY = "service.name"

SPAN_ID_LENGTH = 16
TRACE_ID_LENGTH = 32

_LOWER_HEX = "0123456789abcdef"
_LOWER_HEX_BYTES = _LOWER_HEX.encode()

_ZERO_SPAN_ID = "0" * SPAN_ID_LENGTH
_ZERO_TRACE_ID = "0" * TRACE_ID_LENGTH

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_UINT64_MAX = 2**64 - 1


def echo(value: object, form: "Callable[[object], str]" = repr) -> str:
    """An input value as an error message shows it: ``form(value)`` (its repr
    by default) when that is at most 80 characters long, else its first 60
    characters, ``...`` and its length."""
    text = form(value)
    if len(text) <= 80:
        return text
    return f"{text[:60]}... ({len(text)} chars)"


def _load_json(document: "bytes | str", error: "type[ValueError]") -> object:
    """Decode a trace or design document, raising each decode failure as ``error``."""
    try:
        return json.loads(document)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"invalid JSON: {exc}") from exc
    except ValueError as exc:
        # The plain ValueError of an integer longer than the interpreter's
        # digit limit, whose own text differs between Python versions.
        raise error(f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise error(f"JSON nested too deeply: {exc}") from exc


def trace_hash_class(trace_id: str, classes: int) -> int:
    """The hash class, of ``classes``, of a (padded) trace id: a stable
    ``crc32``, so a trace's spans land in one class whichever file or
    process holds them."""
    return zlib.crc32(trace_id.encode("utf-8", "surrogatepass")) % classes


class BrokenTraceError(ValueError):
    """A trace that cannot be assembled; ``args`` are its id and the problem."""

    trace_id = property(lambda error: error.args[0])

    def __str__(self) -> str:
        return f"trace {self.args[0]}: {self.args[1]}"


class CyclicParentChainError(BrokenTraceError):
    """Parent references within a single trace form a cycle."""


class DuplicateSpanIdError(BrokenTraceError):
    """Two spans share the same (trace id, span id); the export is corrupt."""


class WorkerExitedError(RuntimeError):
    """A worker process exited (killed by the OOM killer, say) before it
    returned its result, so the run is incomplete."""


def parent_cycles(parents: Mapping[str, Optional[str]]) -> Iterator[List[str]]:
    """Yield each cycle of parent links once, as its ids in walk order.

    ``parents`` maps every id to its parent id, or to None for a root; a
    parent id that is not a key ends the walk like a root does. Walks start
    in the mapping's order, and each id is walked at most once, so a chain
    that runs into a cycle yields only the ids on the cycle itself.
    """
    done: set = set()
    for start in parents:
        if start in done:
            continue
        path: List[str] = []
        on_path: set = set()
        current: Optional[str] = start
        while current is not None and current in parents and current not in done:
            if current in on_path:
                yield path[path.index(current):]
                break
            path.append(current)
            on_path.add(current)
            current = parents[current]
        done.update(path)


def _validate_hex_id(value: object, what: str, length: int, zero: str) -> str:
    if not isinstance(value, str) or len(value) != length or value.strip(_LOWER_HEX):
        raise ValueError(f"{what} id must be {length} lowercase hex chars, got {echo(value)}")
    if value == zero:
        raise ValueError(f"{what} id must not be all zeros")
    return value


def validate_span_id(value: str) -> str:
    """Return ``value`` if it is a valid span id, else raise ``ValueError``.

    Span ids are 16 lowercase hex characters (8 bytes) and never all-zero.
    """
    return _validate_hex_id(value, "span", SPAN_ID_LENGTH, _ZERO_SPAN_ID)


def validate_trace_id(value: str) -> str:
    """Return ``value`` if it is a valid trace id, else raise ``ValueError``.

    Trace ids are 32 lowercase hex characters (16 bytes) and never all-zero.
    """
    return _validate_hex_id(value, "trace", TRACE_ID_LENGTH, _ZERO_TRACE_ID)


def _all_lower_hex(text: str) -> bool:
    """``not text.strip(_LOWER_HEX)`` as one byte-table pass: True when every
    character of ``text`` is a lowercase hex digit."""
    return text.isascii() and not text.encode().translate(None, _LOWER_HEX_BYTES)


def _all_str(values: Iterable[object]) -> bool:
    """Every value a string: one ``"".join``, which raises on any other."""
    try:
        "".join(values)
    except TypeError:
        return False
    return True


def _all_int(values: Sequence[object]) -> bool:
    """Every value an ``int`` and none a ``bool``."""
    types = set(map(type, values))
    return types <= {int} or (bool not in types and all(map(isinstance, values, repeat(int))))


def _hex_ids_valid(values: Collection[object], lengths: "set[int]", zero: str) -> bool:
    # One join is both the string check and the text of the hex check.
    try:
        joined = "".join(values)
    except TypeError:  # a value that is no string
        return False
    return set(map(len, values)) <= lengths and _all_lower_hex(joined) and zero not in values


def span_ids_valid(values: Sequence[object]) -> bool:
    """The column form of :func:`validate_span_id`: True when every value
    passes it."""
    return _hex_ids_valid(values, {SPAN_ID_LENGTH}, _ZERO_SPAN_ID)


def parent_ids_valid(values: Sequence[object]) -> bool:
    """The column form of the parent id rule, with ``""`` for no parent: True
    when every value is ``""`` or passes :func:`validate_span_id`."""
    return _hex_ids_valid(values, {0, SPAN_ID_LENGTH}, _ZERO_SPAN_ID)


def trace_ids_valid(values: Sequence[object]) -> bool:
    """The column form of :func:`validate_trace_id`: True when every value
    passes it."""
    return _hex_ids_valid(values, {TRACE_ID_LENGTH}, _ZERO_TRACE_ID)


def times_in_range(starts: Sequence[int], ends: Sequence[int]) -> bool:
    """The 64-bit part of ``ObservedSpan``'s time rule, on integer columns in
    which no end precedes its start: True when every start and end is an
    unsigned 64-bit nanosecond count."""
    return not starts or (min(starts) >= 0 and max(ends) <= _UINT64_MAX)


def times_valid(starts: Sequence[object], ends: Sequence[object]) -> bool:
    """The column form of ``ObservedSpan``'s time rule: True when every start
    and end is an unsigned 64-bit nanosecond count and no end precedes its
    start."""
    return _all_int(starts) and _all_int(ends) and not any(map(lt, ends, starts)) and times_in_range(starts, ends)


def ensure_attr_value(key: str, value: object) -> AttrValue:
    """Validate a single attribute value and return it.

    Allowed types are str, bool, 64-bit signed int, and float. ``bool`` is
    checked before ``int`` because it is an ``int`` subclass in Python but a
    distinct attribute type here.
    """
    if isinstance(value, bool) or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise ValueError(f"attribute {echo(key)}: integer {echo(value)} outside 64-bit signed range")
        return value
    raise ValueError(f"attribute {echo(key)}: unsupported value type {type(value).__name__}")


def attr_values_valid(values: Sequence[object]) -> bool:
    """The column form of :func:`ensure_attr_value`: True when every value
    passes it."""
    types = set(map(type, values))
    if types <= {str, bool, float}:
        return True
    if types <= {str, bool, float, int}:
        integers = list(compress(values, map(is_, map(type, values), repeat(int))))
        return _INT64_MIN <= min(integers) and max(integers) <= _INT64_MAX
    try:
        for value in values:
            ensure_attr_value("", value)
    except ValueError:
        return False
    return True


def links_valid(links: Iterable[Tuple[Tuple[object, object], ...]]) -> bool:
    """The column form of ``ObservedSpan``'s link rule, over every (trace id,
    span id) pair of a column of link tuples: True when each pair passes
    :func:`validate_trace_id` and :func:`validate_span_id`."""
    pairs = list(chain.from_iterable(links))
    return trace_ids_valid([pair[0] for pair in pairs]) and span_ids_valid([pair[1] for pair in pairs])


def attr_values_equal(a: AttrValue, b: AttrValue) -> bool:
    """Type-strict attribute equality.

    The integer 500 never equals the string "500", True never equals 1, and
    1 never equals 1.0. NaN compares equal to itself so the relation stays
    reflexive.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and a != a:
        return b != b
    return a == b


# The one empty attribute mapping that ``SpanColumns`` rows share; never
# changed, and never held by a span object.
_NO_ATTRIBUTES: "Mapping[str, AttrValue]" = {}


@dataclass(frozen=True, slots=True)
class ObservedSpan:
    """One recorded operation, as exported by a running system.

    The checker matches the columns of a :class:`Partition`, not span
    objects; there, a design span's ``service.name`` is compared with
    ``service_name``, never with a same-named attribute, so that resource
    identity cannot be spoofed per span."""

    trace_id: TraceId
    span_id: SpanId
    name: str
    service_name: str
    start_time_nanos: int
    end_time_nanos: int
    parent_span_id: Optional[SpanId] = None
    attributes: Mapping[str, AttrValue] = field(default_factory=dict)
    links: Tuple[Tuple[TraceId, SpanId], ...] = ()

    def __post_init__(self) -> None:
        # The ids go through the validators themselves, not an inlined fast
        # test of their rules, so that each id rule is written once.
        validate_trace_id(self.trace_id)
        validate_span_id(self.span_id)
        if self.parent_span_id is not None:
            validate_span_id(self.parent_span_id)
        if not isinstance(self.name, str):
            raise ValueError(f"span name must be a string, got {type(self.name).__name__}")
        if not self.service_name or not isinstance(self.service_name, str):
            raise ValueError("service_name must be a non-empty string")
        start = self.start_time_nanos
        end = self.end_time_nanos
        if not isinstance(start, int) or isinstance(start, bool) or not 0 <= start <= _UINT64_MAX:
            raise ValueError(f"start time must be an unsigned 64-bit nanosecond count, got {echo(start)}")
        if not isinstance(end, int) or isinstance(end, bool) or not 0 <= end <= _UINT64_MAX:
            raise ValueError(f"end time must be an unsigned 64-bit nanosecond count, got {echo(end)}")
        if end < start:
            raise ValueError(f"span {self.span_id}: end time {end} precedes start time {start}")
        for key, value in self.attributes.items():
            if not isinstance(key, str):
                raise ValueError(f"attribute key must be a string, got {type(key).__name__}")
            if type(value) is not str:
                ensure_attr_value(key, value)
        for link_trace_id, link_span_id in self.links:
            validate_trace_id(link_trace_id)
            validate_span_id(link_span_id)

    @property
    def duration_micros(self) -> int:
        """Span duration in whole microseconds, truncating."""
        return (self.end_time_nanos - self.start_time_nanos) // 1000


_span_fields = attrgetter(
    "trace_id", "span_id", "parent_span_id", "name", "service_name", "start_time_nanos", "end_time_nanos",
    "attributes", "links",
)


@dataclass(frozen=True, slots=True)
class ObservedTrace:
    """The DAG of spans sharing one trace id.

    ``dangling_parents`` is derived at construction: the ids of spans whose
    ``parent_span_id`` names no span in this trace. Such spans act as chain
    terminals during ancestor walks. Parent cycles are rejected here: the
    error lists the cycle through the least span id on any cycle, from that
    id in parent order, so that it does not depend on the spans' order.
    """

    trace_id: TraceId
    spans: Mapping[SpanId, ObservedSpan]
    dangling_parents: frozenset = field(init=False)

    def __post_init__(self) -> None:
        validate_trace_id(self.trace_id)
        dangling = set()
        parents = {}
        for span_id, span in self.spans.items():
            if span.span_id != span_id:
                raise ValueError(f"span map key {span_id} does not match span id {span.span_id}")
            if span.trace_id != self.trace_id:
                raise ValueError(
                    f"span {span.span_id} belongs to trace {span.trace_id}, not {self.trace_id}"
                )
            if span.parent_span_id is not None and span.parent_span_id not in self.spans:
                dangling.add(span_id)
            parents[span_id] = span.parent_span_id
        cycles = list(parent_cycles(parents))
        if cycles:
            cycle = [min(chain.from_iterable(cycles))]
            while parents[cycle[-1]] != cycle[0]:
                cycle.append(parents[cycle[-1]])
            raise CyclicParentChainError(self.trace_id, f"parent chain cycle through {' -> '.join(cycle)}")
        object.__setattr__(self, "dangling_parents", frozenset(dangling))

    @classmethod
    def from_spans(cls, trace_id: TraceId, spans: "list[ObservedSpan]") -> "ObservedTrace":
        """Build a trace from its spans; raises DuplicateSpanIdError, naming
        the least repeated span id, when two of them share a span id."""
        by_id: dict = {}
        for span in spans:
            if span.span_id in by_id:
                ids = sorted(other.span_id for other in spans)
                repeated = next(span_id for span_id, after in zip(ids, ids[1:]) if span_id == after)
                raise DuplicateSpanIdError(trace_id, f"duplicate span id {repeated}")
            by_id[span.span_id] = span
        return cls(trace_id=trace_id, spans=by_id)

    def parent_of(self, span: ObservedSpan) -> Optional[ObservedSpan]:
        """The resolved parent span, or None for roots and dangling parents."""
        if span.parent_span_id is None:
            return None
        return self.spans.get(span.parent_span_id)

    def ancestors_of(self, span: ObservedSpan) -> Iterator[ObservedSpan]:
        """Walk strict ancestors from the immediate parent up to a root or
        dangling terminal. Bounded because parent cycles are rejected."""
        current = self.parent_of(span)
        while current is not None:
            yield current
            current = self.parent_of(current)


class SpanColumns:
    """Spans as parallel lists, one entry per span (a row), in input order.

    ``parent_ids`` holds ``""`` for a span without a parent, ``attributes``
    one dict per span (the shared, never changed ``_NO_ATTRIBUTES`` for
    none), and ``links`` one tuple of (trace id, span id) pairs per span
    (the shared empty tuple for none). :meth:`split` cuts the rows into
    groups, dropping each source list once every group has copied from it."""

    __slots__ = (
        "trace_ids", "span_ids", "parent_ids", "names", "services", "starts", "ends", "attributes", "links",
    )

    def __init__(self) -> None:
        self.trace_ids: List[TraceId] = []
        self.span_ids: List[SpanId] = []
        self.parent_ids: List[str] = []
        self.names: List[str] = []
        self.services: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.attributes: List[Mapping[str, AttrValue]] = []
        self.links: List[Tuple[Tuple[TraceId, SpanId], ...]] = []

    def __len__(self) -> int:
        return len(self.span_ids)

    def extend(self, other: "SpanColumns") -> None:
        """Append the rows of ``other``."""
        self.trace_ids += other.trace_ids
        self.span_ids += other.span_ids
        self.parent_ids += other.parent_ids
        self.names += other.names
        self.services += other.services
        self.starts += other.starts
        self.ends += other.ends
        self.attributes += other.attributes
        self.links += other.links

    def extend_spans(self, spans: Sequence[ObservedSpan]) -> None:
        """Append one row per span object."""
        if not spans:
            return
        # One tuple of fields per span, transposed into one tuple per field.
        trace_ids, span_ids, parent_ids, names, services, starts, ends, attributes, links = zip(
            *map(_span_fields, spans)
        )
        self.trace_ids += trace_ids
        self.span_ids += span_ids
        self.parent_ids += [parent_id or "" for parent_id in parent_ids]
        self.names += names
        self.services += services
        self.starts += starts
        self.ends += ends
        self.attributes += attributes
        self.links += links

    def split(self, groups: Sequence[Sequence[int]]) -> List["SpanColumns"]:
        """New columns for each group of ``groups``, in that order, holding
        the group's rows in the order given; these columns are left empty.
        Each list is dropped once every group has copied its rows, so at
        most one column is held twice."""
        parts = [SpanColumns() for _ in groups]
        for slot in SpanColumns.__slots__:
            column = getattr(self, slot)
            setattr(self, slot, [])
            for part, rows in zip(parts, groups):
                setattr(part, slot, list(map(column.__getitem__, rows)))
        return parts

    def rows(self, start: int, stop: int) -> "SpanColumns":
        """New columns holding rows [``start``, ``stop``) of these."""
        part = SpanColumns()
        for slot in SpanColumns.__slots__:
            setattr(part, slot, getattr(self, slot)[start:stop])
        return part

    def span(self, row: int) -> ObservedSpan:
        """The span object of ``row``, built and validated here, with a dict
        of its own for the shared ``_NO_ATTRIBUTES``."""
        attributes = self.attributes[row]
        return ObservedSpan(
            self.trace_ids[row],
            self.span_ids[row],
            self.names[row],
            self.services[row],
            self.starts[row],
            self.ends[row],
            self.parent_ids[row] or None,
            {} if attributes is _NO_ATTRIBUTES else attributes,
            self.links[row],
        )


def columns_valid(columns: SpanColumns) -> bool:
    """The column form of ``ObservedSpan``'s checks: True when every row of
    ``columns``, whose attributes are dicts, would pass them. Each distinct
    trace id is checked once."""
    try:
        trace_ids = list(set(columns.trace_ids))
    except TypeError:  # an unhashable value is no trace id
        return False
    attributes = columns.attributes
    return (
        trace_ids_valid(trace_ids)
        and span_ids_valid(columns.span_ids)
        and parent_ids_valid(columns.parent_ids)
        and _all_str(columns.names)
        and _all_str(columns.services)
        and "" not in columns.services
        and times_valid(columns.starts, columns.ends)
        and _all_str(chain.from_iterable(attributes))
        and attr_values_valid(list(chain.from_iterable(map(dict.values, attributes))))
        and links_valid(columns.links)
    )


_BLOCK = 1024


def first_span_error(columns: SpanColumns) -> Optional[Tuple[int, ValueError]]:
    """None when every row of ``columns`` (whose attributes are dicts) would
    build its span object; else the first row whose ``columns.span(row)``
    raises, and its error, the one copy of each rule's message.
    :func:`columns_valid` tests all rows, then ``_BLOCK`` rows at a time, and
    span objects are built only in the first block that fails."""
    if columns_valid(columns):
        return None
    for start in range(0, len(columns), _BLOCK):
        if not columns_valid(columns.rows(start, start + _BLOCK)):
            for row in range(start, min(start + _BLOCK, len(columns))):
                try:
                    columns.span(row)
                except ValueError as error:
                    return row, error
    return None


def _rows_on_cycles(parent_rows: List[int]) -> List[int]:
    """The rows whose chain of parent rows (-1 ends one) never ends, because
    it runs into a cycle. Pointer doubling: each pass replaces every link by
    the link of its target, so the links span 1, 2, 4, ... hops, and a chain
    of any length ends within log2(rows) + 1 passes unless it is endless."""
    up = parent_rows + [-1]  # up[-1] is this -1, so an ended chain stays ended
    hops = 1
    while up.count(-1) != len(up):
        if hops >= len(up):
            up.pop()
            return list(compress(range(len(up)), map(lt, repeat(-1), up)))
        up = list(map(up.__getitem__, up))
        hops *= 2
    return []


class Partition(SpanColumns):
    """Whole traces as columns, assembled.

    ``parent_rows`` holds each row's parent row, or -1 for a root and for a
    dangling parent (one that names no span of the trace); ``dangling`` the
    rows with a dangling parent, in (trace id, span id) order.
    ``Partition(columns)`` resolves the parents and raises
    ``DuplicateSpanIdError`` or ``CyclicParentChainError`` for the offending
    trace with the smallest trace id, with the message
    :meth:`ObservedTrace.from_spans` gives for its spans."""

    __slots__ = ("parent_rows", "dangling")

    def __init__(self, columns: SpanColumns) -> None:
        for slot in SpanColumns.__slots__:
            setattr(self, slot, getattr(columns, slot))
        trace_ids, span_ids, parent_ids = self.trace_ids, self.span_ids, self.parent_ids
        self.parent_rows = self._checked_parent_rows()
        self.dangling: List[int] = []
        if self.parent_rows.count(-1) != parent_ids.count(""):
            roots = compress(range(len(self)), map(eq, self.parent_rows, repeat(-1)))
            self.dangling = sorted(
                (row for row in roots if parent_ids[row]), key=lambda row: (trace_ids[row], span_ids[row])
            )

    def _checked_parent_rows(self) -> List[int]:
        """Each row's parent row, once the rows are checked: raises the
        offending trace's own error on a duplicate span id or a cycle."""
        trace_ids, span_ids, parent_ids = self.trace_ids, self.span_ids, self.parent_ids
        rows = len(span_ids)
        broken = set()
        position = dict(zip(span_ids, range(rows)))
        if len(position) == rows:
            # Each span id names one row, which may lie in another trace: for
            # this one the parent is then dangling.
            parent_rows = list(map(position.get, parent_ids, repeat(-1)))
            found = list(compress(range(rows), map(le, repeat(0), parent_rows)))
            parent_traces = map(trace_ids.__getitem__, map(parent_rows.__getitem__, found))
            for row in compress(found, map(ne, parent_traces, map(trace_ids.__getitem__, found))):
                parent_rows[row] = -1
        else:
            position = dict(zip(zip(trace_ids, span_ids), range(rows)))
            parent_rows = list(map(position.get, zip(trace_ids, parent_ids), repeat(-1)))
            if len(position) != rows:
                keys = zip(trace_ids, span_ids)
                broken.update(trace_ids[row] for row, key in enumerate(keys) if position[key] != row)
        del position
        broken.update(map(trace_ids.__getitem__, _rows_on_cycles(parent_rows)))
        if broken:
            self.trace(min(broken))  # raises the trace's own error
        return parent_rows

    @classmethod
    def from_traces(cls, traces: Iterable[ObservedTrace]) -> "Partition":
        """The partition of ``traces``, whose ids must be distinct."""
        columns = SpanColumns()
        columns.extend_spans([span for trace in traces for span in trace.spans.values()])
        return cls(columns)

    def trace(self, trace_id: TraceId) -> Optional[ObservedTrace]:
        """The trace ``trace_id``, its span objects in input order, or None
        when the partition has no such trace."""
        rows = list(compress(range(len(self)), map(eq, self.trace_ids, repeat(trace_id))))
        if not rows:
            return None
        return ObservedTrace.from_spans(self.trace_ids[rows[0]], [self.span(row) for row in rows])

    def traces(self) -> List[ObservedTrace]:
        """Every trace, ordered by trace id, its span objects in input order."""
        groups: Dict[TraceId, List[int]] = {}
        for row, trace_id in enumerate(self.trace_ids):
            groups.setdefault(trace_id, []).append(row)
        return [
            ObservedTrace.from_spans(trace_id, [self.span(row) for row in groups[trace_id]])
            for trace_id in sorted(groups)
        ]


@dataclass(frozen=True)
class DesignSpan:
    """A designer-authored span pattern.

    Construction checks the type of every field and raises ``ValueError`` on
    the first wrong one. ``match_attributes`` must also contain
    "service.name" and ``max_duration_micros`` be positive for the pattern to
    be usable; both are reported by
    :func:`confcheck.design.validate_design_trace` rather than raised here.
    """

    design_span_id: str
    name: str
    match_attributes: Mapping[str, AttrValue]
    parent_design_span_id: Optional[str] = None
    description: Optional[str] = None
    max_duration_micros: Optional[int] = None
    allow_non_immediate_parent: bool = False
    is_disallowed: bool = False

    def __post_init__(self) -> None:
        if not self.design_span_id or not isinstance(self.design_span_id, str):
            raise ValueError("design_span_id must be a non-empty string")
        if not isinstance(self.name, str):
            raise ValueError("design span name must be a string")
        if not isinstance(self.match_attributes, Mapping):
            raise ValueError("match_attributes must be a mapping")
        for key, value in self.match_attributes.items():
            ensure_attr_value(key, value)
        if self.parent_design_span_id is not None and not isinstance(self.parent_design_span_id, str):
            raise ValueError("parent_design_span_id must be a string or None")
        if self.description is not None and not isinstance(self.description, str):
            raise ValueError("description must be a string or None")
        if not isinstance(self.allow_non_immediate_parent, bool) or not isinstance(self.is_disallowed, bool):
            raise ValueError("allow_non_immediate_parent and is_disallowed must be booleans")
        if self.max_duration_micros is not None and (
            isinstance(self.max_duration_micros, bool) or not isinstance(self.max_duration_micros, int)
        ):
            raise ValueError("max_duration_micros must be an integer microsecond count")


@dataclass(frozen=True)
class DesignTrace:
    """A tree (forest) of design spans forming one required or disallowed
    pattern. All spans of one design trace share the same disallowed flag;
    see :func:`confcheck.design.validate_design_trace`."""

    design_trace_id: str
    spans: Mapping[str, DesignSpan]

    def __post_init__(self) -> None:
        if not self.design_trace_id or not isinstance(self.design_trace_id, str):
            raise ValueError("design_trace_id must be a non-empty string")
        for span_id, span in self.spans.items():
            if span.design_span_id != span_id:
                raise ValueError(
                    f"design span map key {span_id} does not match span id {span.design_span_id}"
                )
        object.__setattr__(self, "_spans_in_order", tuple(self.spans[span_id] for span_id in sorted(self.spans)))

    @property
    def is_disallowed(self) -> bool:
        """The shared disallowed flag; meaningful only for validated traces."""
        return any(span.is_disallowed for span in self.spans.values())

    def spans_in_order(self) -> "Tuple[DesignSpan, ...]":
        """The spans ordered by design span id, sorted once at construction."""
        return self._spans_in_order

    @functools.cached_property
    def match_plan(self) -> "MatchPlan":
        """The trace's :func:`confcheck.checker.compile_match_plan`, built on
        first use and kept. Raises ``ValueError`` on unknown or cyclic design
        parents, on every use, since a failed build is not kept."""
        from .checker import compile_match_plan

        return compile_match_plan(self)


class ViolationKind(Enum):
    MISSING_REQUIRED = "missingRequired"
    DURATION_EXCEEDED = "durationExceeded"
    DISALLOWED_PRESENT = "disallowedPresent"


@dataclass(frozen=True)
class Violation:
    """One rule breach found while checking a trace.

    MissingRequired carries no observed span (there is nothing to point at);
    the other kinds always carry the witnessing observed span.
    """

    kind: ViolationKind
    design_trace_id: str
    design_span_id: str
    observed_span_id: Optional[SpanId] = None

    def __post_init__(self) -> None:
        if self.kind is ViolationKind.MISSING_REQUIRED:
            if self.observed_span_id is not None:
                raise ValueError("a missing-required violation cannot carry an observed span id")
        elif self.observed_span_id is None:
            raise ValueError(f"a {self.kind.value} violation must carry an observed span id")
        else:
            validate_span_id(self.observed_span_id)


@dataclass(frozen=True)
class TraceVerdict:
    """Per-trace conformance outcome. A trace is conformant exactly when it
    has no violations; the flag is derived so the two can never disagree."""

    trace_id: TraceId
    violations: Tuple[Violation, ...]

    @property
    def conformant(self) -> bool:
        return not self.violations
