"""Shared domain model: observed spans and traces, design spans and traces,
violations, and per-trace verdicts.

Every type here is immutable after construction and safe to share across
worker processes. Observed-side types enforce their invariants at
construction time; design-side types are plain containers whose invariants
are enforced by :func:`confcheck.design.validate_design_trace`, so that a
design file with several problems can be reported in full rather than
failing on the first one.

The observed types are slotted dataclasses: an ``ObservedSpan`` or
``ObservedTrace`` has no ``__dict__``. On 64-bit CPython 3.11 a span object
takes 104 bytes instead of 152 (its field values aside).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List, Mapping, Optional, Tuple, Union

AttrValue = Union[str, int, float, bool]

SpanId = str
TraceId = str

SERVICE_NAME_KEY = "service.name"

SPAN_ID_LENGTH = 16
TRACE_ID_LENGTH = 32

_LOWER_HEX = "0123456789abcdef"

_ZERO_SPAN_ID = "0" * SPAN_ID_LENGTH
_ZERO_TRACE_ID = "0" * TRACE_ID_LENGTH

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_UINT64_MAX = 2**64 - 1


class CyclicParentChainError(ValueError):
    """Parent references within a single trace form a cycle."""


class DuplicateSpanIdError(ValueError):
    """Two spans share the same (trace id, span id); the export is corrupt."""


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


def validate_span_id(value: str) -> str:
    """Return ``value`` if it is a valid span id, else raise ``ValueError``.

    Span ids are 16 lowercase hex characters (8 bytes) and never all-zero.
    """
    if not isinstance(value, str) or len(value) != SPAN_ID_LENGTH or value.strip(_LOWER_HEX):
        raise ValueError(f"span id must be {SPAN_ID_LENGTH} lowercase hex chars, got {value!r}")
    if value == _ZERO_SPAN_ID:
        raise ValueError("span id must not be all zeros")
    return value


def validate_trace_id(value: str) -> str:
    """Return ``value`` if it is a valid trace id, else raise ``ValueError``.

    Trace ids are 32 lowercase hex characters (16 bytes) and never all-zero.
    """
    if not isinstance(value, str) or len(value) != TRACE_ID_LENGTH or value.strip(_LOWER_HEX):
        raise ValueError(f"trace id must be {TRACE_ID_LENGTH} lowercase hex chars, got {value!r}")
    if value == _ZERO_TRACE_ID:
        raise ValueError("trace id must not be all zeros")
    return value


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
            raise ValueError(f"attribute {key!r}: integer {value} outside 64-bit signed range")
        return value
    raise ValueError(f"attribute {key!r}: unsupported value type {type(value).__name__}")


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


@dataclass(frozen=True, slots=True)
class ObservedSpan:
    """One recorded operation, as exported by a running system."""

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
        # Each id test is the validator's own, inlined; the validator runs
        # only on a failing id, to raise its message.
        trace_id = self.trace_id
        if (
            type(trace_id) is not str
            or len(trace_id) != TRACE_ID_LENGTH
            or trace_id.strip(_LOWER_HEX)
            or trace_id == _ZERO_TRACE_ID
        ):
            validate_trace_id(trace_id)
        span_id = self.span_id
        if (
            type(span_id) is not str
            or len(span_id) != SPAN_ID_LENGTH
            or span_id.strip(_LOWER_HEX)
            or span_id == _ZERO_SPAN_ID
        ):
            validate_span_id(span_id)
        parent_id = self.parent_span_id
        if parent_id is not None and (
            type(parent_id) is not str
            or len(parent_id) != SPAN_ID_LENGTH
            or parent_id.strip(_LOWER_HEX)
            or parent_id == _ZERO_SPAN_ID
        ):
            validate_span_id(parent_id)
        if not isinstance(self.name, str):
            raise ValueError(f"span name must be a string, got {type(self.name).__name__}")
        if not self.service_name or not isinstance(self.service_name, str):
            raise ValueError("service_name must be a non-empty string")
        start = self.start_time_nanos
        if not isinstance(start, int) or isinstance(start, bool) or not 0 <= start <= _UINT64_MAX:
            raise ValueError(f"start time must be an unsigned 64-bit nanosecond count, got {start!r}")
        end = self.end_time_nanos
        if not isinstance(end, int) or isinstance(end, bool) or not 0 <= end <= _UINT64_MAX:
            raise ValueError(f"end time must be an unsigned 64-bit nanosecond count, got {end!r}")
        if end < start:
            raise ValueError(f"span {span_id}: end time {end} precedes start time {start}")
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

    def lookup_attribute(self, key: str) -> Optional[AttrValue]:
        """Look up ``key`` in the matching view of this span's attributes.

        The view is the span's own attributes plus the service name exposed
        under "service.name". The service name field wins over a same-named
        attribute so that resource identity cannot be spoofed per span.
        """
        if key == SERVICE_NAME_KEY:
            return self.service_name
        return self.attributes.get(key)


@dataclass(frozen=True, slots=True)
class ObservedTrace:
    """The DAG of spans sharing one trace id.

    ``dangling_parents`` is derived at construction: the ids of spans whose
    ``parent_span_id`` names no span in this trace. Such spans act as chain
    terminals during ancestor walks. Parent cycles are rejected here.
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
        for cycle in parent_cycles(parents):
            raise CyclicParentChainError(
                f"trace {self.trace_id}: parent chain cycle through {' -> '.join(cycle)}"
            )
        object.__setattr__(self, "dangling_parents", frozenset(dangling))

    @classmethod
    def from_spans(cls, trace_id: TraceId, spans: "list[ObservedSpan]") -> "ObservedTrace":
        """Build a trace from its spans; raises DuplicateSpanIdError when two
        of them share a span id."""
        by_id: dict = {}
        for span in spans:
            if span.span_id in by_id:
                raise DuplicateSpanIdError(f"trace {trace_id}: duplicate span id {span.span_id}")
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


@dataclass(frozen=True)
class DesignSpan:
    """A designer-authored span pattern.

    ``match_attributes`` must contain "service.name" and ``max_duration_micros``
    must be positive for the pattern to be usable; both are reported by
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
        for key, value in self.match_attributes.items():
            ensure_attr_value(key, value)
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

    @property
    def is_disallowed(self) -> bool:
        """The shared disallowed flag; meaningful only for validated traces."""
        return any(span.is_disallowed for span in self.spans.values())

    @functools.cached_property
    def _spans_by_id(self) -> "Tuple[DesignSpan, ...]":
        return tuple(self.spans[span_id] for span_id in sorted(self.spans))

    def spans_in_order(self) -> "list[DesignSpan]":
        """The spans ordered by design span id, sorted once per trace."""
        return list(self._spans_by_id)


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
