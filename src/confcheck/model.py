"""Shared domain model: observed spans and traces, design spans and traces,
violations, and per-trace verdicts.

Every type here is immutable after construction and safe to share across
worker processes. Observed-side types enforce their invariants at
construction time. On the design side, ``DesignSpan`` owns the type of each
of its fields and raises ``ValueError`` on the first wrong one;
:func:`confcheck.design.validate_design_trace` owns the rules that span
several fields or spans (parents that resolve, no parent cycles, one
disallowed flag per trace) and the value rules a design file may break
more than once (service.name present, durations positive), so that a
design file with several such problems is reported in full rather than
failing on the first one.

The observed types are slotted dataclasses: an ``ObservedSpan`` or
``ObservedTrace`` has no ``__dict__``. On 64-bit CPython 3.11 a span object
takes 104 bytes instead of 152 (its field values aside). ``ObservedSpan``
writes its own ``__init__``, with the generated one's signature and
defaults: it stores each field through its slot descriptor instead of
``object.__setattr__`` and then calls ``__post_init__``, the one validation
hook.

``DesignTrace.match_plan`` keeps the checker's compiled match plan of the
trace, built on first use.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterator, List, Mapping, Optional, Tuple, Union

if TYPE_CHECKING:
    from .checker import MatchPlan

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


def echo(value: object, form: "Callable[[object], str]" = repr) -> str:
    """An input value as an error message shows it: ``form(value)`` (its repr
    by default) when that is at most 80 characters long, else its first 60
    characters, ``...`` and its length."""
    text = form(value)
    if len(text) <= 80:
        return text
    return f"{text[:60]}... ({len(text)} chars)"


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
        raise ValueError(f"span id must be {SPAN_ID_LENGTH} lowercase hex chars, got {echo(value)}")
    if value == _ZERO_SPAN_ID:
        raise ValueError("span id must not be all zeros")
    return value


def validate_trace_id(value: str) -> str:
    """Return ``value`` if it is a valid trace id, else raise ``ValueError``.

    Trace ids are 32 lowercase hex characters (16 bytes) and never all-zero.
    """
    if not isinstance(value, str) or len(value) != TRACE_ID_LENGTH or value.strip(_LOWER_HEX):
        raise ValueError(f"trace id must be {TRACE_ID_LENGTH} lowercase hex chars, got {echo(value)}")
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
            raise ValueError(f"attribute {echo(key)}: integer {echo(value)} outside 64-bit signed range")
        return value
    raise ValueError(f"attribute {echo(key)}: unsupported value type {type(value).__name__}")


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


# ``ObservedSpan.__init__``'s stand-in for the ``attributes`` default: a new
# dict per span, as the dataclass ``default_factory`` gives.
_NO_ATTRIBUTES: "Mapping[str, AttrValue]" = {}


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        trace_id: TraceId,
        span_id: SpanId,
        name: str,
        service_name: str,
        start_time_nanos: int,
        end_time_nanos: int,
        parent_span_id: Optional[SpanId] = None,
        attributes: Mapping[str, AttrValue] = _NO_ATTRIBUTES,
        links: Tuple[Tuple[TraceId, SpanId], ...] = (),
    ) -> None:
        # The generated __init__ of a frozen dataclass stores each field with
        # object.__setattr__; the slot descriptors' own __set__ does the same
        # store at a third of the cost.
        _set_trace_id(self, trace_id)
        _set_span_id(self, span_id)
        _set_name(self, name)
        _set_service_name(self, service_name)
        _set_start_time_nanos(self, start_time_nanos)
        _set_end_time_nanos(self, end_time_nanos)
        _set_parent_span_id(self, parent_span_id)
        _set_attributes(self, {} if attributes is _NO_ATTRIBUTES else attributes)
        _set_links(self, links)
        self.__post_init__()

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
        # Two exact ints in order and in range pass at once; anything else
        # takes the separate tests, which raise the message that fits.
        start = self.start_time_nanos
        end = self.end_time_nanos
        if type(start) is not int or type(end) is not int or not 0 <= start <= end <= _UINT64_MAX:
            if not isinstance(start, int) or isinstance(start, bool) or not 0 <= start <= _UINT64_MAX:
                raise ValueError(f"start time must be an unsigned 64-bit nanosecond count, got {echo(start)}")
            if not isinstance(end, int) or isinstance(end, bool) or not 0 <= end <= _UINT64_MAX:
                raise ValueError(f"end time must be an unsigned 64-bit nanosecond count, got {echo(end)}")
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


# Bound once the decorator has built the slotted class: the stores that
# ObservedSpan.__init__ makes.
_set_trace_id = ObservedSpan.trace_id.__set__
_set_span_id = ObservedSpan.span_id.__set__
_set_name = ObservedSpan.name.__set__
_set_service_name = ObservedSpan.service_name.__set__
_set_start_time_nanos = ObservedSpan.start_time_nanos.__set__
_set_end_time_nanos = ObservedSpan.end_time_nanos.__set__
_set_parent_span_id = ObservedSpan.parent_span_id.__set__
_set_attributes = ObservedSpan.attributes.__set__
_set_links = ObservedSpan.links.__set__


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
