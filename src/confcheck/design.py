"""Authoring, loading, and validation of design traces.

A design trace is the pattern side of a conformance check: a tree of span
patterns that either must all be witnessed in an observed trace (required)
or whose joint presence is prohibited (disallowed). Design files are plain
JSON so they can be authored by hand or emitted by
:func:`import_design_from_observed` and then edited down to the critical
path.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

from .model import (
    _INT64_MAX,
    _load_json,
    DesignSpan,
    DesignTrace,
    ObservedTrace,
    SERVICE_NAME_KEY,
    SpanId,
    echo,
    parent_cycles,
)

__all__ = [
    "DesignTraceSet",
    "ValidationError",
    "ValidationErrorKind",
    "MalformedDesignError",
    "DesignValidationError",
    "UnknownSpanIdError",
    "parse_duration_micros",
    "load_design_set",
    "validate_design_trace",
    "import_design_from_observed",
    "serialize_design_set",
    "load_bundled_design_set",
]

BUNDLED_DESIGN_FIXTURE = "table2.design.json"


class MalformedDesignError(ValueError):
    """The design document is not valid JSON or is structurally wrong."""


class UnknownSpanIdError(ValueError):
    """A span id referenced by the caller does not exist in the trace."""


class ValidationErrorKind(Enum):
    UNKNOWN_PARENT = "unknownParent"
    PARENT_CYCLE = "parentCycle"
    MIXED_DISALLOWED_FLAGS = "mixedDisallowedFlags"
    DUPLICATE_SPAN_ID = "duplicateSpanId"
    DUPLICATE_TRACE_ID = "duplicateTraceId"
    MISSING_SERVICE_NAME = "missingServiceName"
    BAD_DURATION = "badDuration"
    EMPTY_TRACE = "emptyTrace"


@dataclass(frozen=True)
class ValidationError:
    design_trace_id: str
    kind: ValidationErrorKind
    detail: str
    design_span_id: Optional[str] = None

    def __str__(self) -> str:
        location = echo(self.design_trace_id, str)
        if self.design_span_id is not None:
            location += f"/{echo(self.design_span_id, str)}"
        return f"{location}: {self.kind.value}: {self.detail}"


class DesignValidationError(ValueError):
    """Aggregate of every validation problem found in a design document."""

    def __init__(self, errors: Sequence[ValidationError]):
        self.errors = list(errors)
        super().__init__("; ".join(str(error) for error in self.errors))


@dataclass(frozen=True)
class DesignTraceSet:
    """A validated collection of design traces, partitioned by the shared
    disallowed flag. Construct through :meth:`of` or :func:`load_design_set`."""

    design_traces: Tuple[DesignTrace, ...]

    @classmethod
    def of(cls, traces: Iterable[DesignTrace]) -> "DesignTraceSet":
        traces = tuple(traces)
        errors: List[ValidationError] = []
        seen = set()
        for trace in traces:
            if trace.design_trace_id in seen:
                errors.append(
                    ValidationError(
                        design_trace_id=trace.design_trace_id,
                        kind=ValidationErrorKind.DUPLICATE_TRACE_ID,
                        detail="design trace id appears more than once in the set",
                    )
                )
            seen.add(trace.design_trace_id)
            errors.extend(validate_design_trace(trace))
        if errors:
            raise DesignValidationError(errors)
        return cls(design_traces=traces)

    # Computed on first use and kept, so checking a trace does not re-split
    # the set.
    @functools.cached_property
    def required_traces(self) -> Tuple[DesignTrace, ...]:
        return tuple(t for t in self.design_traces if not t.is_disallowed)

    @functools.cached_property
    def disallowed_traces(self) -> Tuple[DesignTrace, ...]:
        return tuple(t for t in self.design_traces if t.is_disallowed)


# ASCII digits only: ``\d`` would take any Unicode decimal digit. Compiled on
# first use, by ``re``'s own cache.
_DURATION = r"([0-9]+)(?:\.([0-9]+))?\s*(us|ms|s)"
_DURATION_FACTORS = {"us": 1, "ms": 1_000, "s": 1_000_000}
# The lowest digit limit ``sys.set_int_max_str_digits`` accepts, so ``int()``
# takes every duration string within it whatever the interpreter's setting.
_MAX_DURATION_DIGITS = 640


def parse_duration_micros(value: object) -> int:
    """Normalize a duration from a design file to whole microseconds.

    Accepts a positive integer (already in microseconds) or a string with a
    "us", "ms", or "s" suffix, e.g. "500ms" or "500 ms". Raises ValueError
    for anything non-positive, fractional below microsecond resolution, or
    unparseable. The arithmetic is exact, in integers: no value is rounded.
    """
    if isinstance(value, bool):
        raise ValueError("duration must be a number or suffixed string, not a boolean")
    if isinstance(value, int):
        scaled, scale = value, 1
    elif isinstance(value, str):
        match = re.fullmatch(_DURATION, value.strip())
        if match is None:
            raise ValueError(f"cannot parse duration {echo(value)}; use an integer or a us/ms/s suffix")
        whole, fraction, unit = match.groups("")
        if len(whole) + len(fraction) > _MAX_DURATION_DIGITS:
            raise ValueError(f"duration {echo(value)} has more than {_MAX_DURATION_DIGITS} digits")
        scaled, scale = int(whole + fraction) * _DURATION_FACTORS[unit], 10 ** len(fraction)
    else:
        raise ValueError(f"cannot parse duration of type {type(value).__name__}")
    if scaled <= 0:
        raise ValueError(f"duration must be positive, got {echo(value)}")
    micros, remainder = divmod(scaled, scale)
    if remainder:
        raise ValueError(f"duration {echo(value)} is below microsecond resolution")
    return micros


def validate_design_trace(trace: DesignTrace) -> List[ValidationError]:
    """Return every invariant breach in one design trace.

    An empty list means the trace is usable: parent links resolve and form a
    forest, every span matches on service.name, durations are positive and at
    most 2**63 - 1 microseconds, and the disallowed flag is homogeneous
    across the trace.
    """
    errors: List[ValidationError] = []

    def err(kind: ValidationErrorKind, detail: str, span_id: Optional[str] = None) -> None:
        errors.append(
            ValidationError(
                design_trace_id=trace.design_trace_id,
                kind=kind,
                detail=detail,
                design_span_id=span_id,
            )
        )

    if not trace.spans:
        err(ValidationErrorKind.EMPTY_TRACE, "a design trace must define at least one span")
        return errors

    for span in trace.spans_in_order():
        if SERVICE_NAME_KEY not in span.match_attributes:
            err(
                ValidationErrorKind.MISSING_SERVICE_NAME,
                f"match attributes must include {SERVICE_NAME_KEY}",
                span.design_span_id,
            )
        if span.max_duration_micros is not None and span.max_duration_micros <= 0:
            err(
                ValidationErrorKind.BAD_DURATION,
                f"max duration must be positive, got {span.max_duration_micros}",
                span.design_span_id,
            )
        elif span.max_duration_micros is not None and span.max_duration_micros > _INT64_MAX:
            detail = f"max duration must be at most {_INT64_MAX} microseconds"
            err(ValidationErrorKind.BAD_DURATION, detail, span.design_span_id)
        parent_id = span.parent_design_span_id
        if parent_id is not None and parent_id not in trace.spans:
            err(
                ValidationErrorKind.UNKNOWN_PARENT,
                f"parent {echo(parent_id)} names no span in this design trace",
                span.design_span_id,
            )

    # One error per parent cycle, anchored at its smallest span id.
    parents = {span.design_span_id: span.parent_design_span_id for span in trace.spans_in_order()}
    for cycle in parent_cycles(parents):
        cycle.sort()
        err(ValidationErrorKind.PARENT_CYCLE, f"parent chain cycle through {', '.join(cycle)}", cycle[0])

    flags = {span.is_disallowed for span in trace.spans.values()}
    if len(flags) > 1:
        err(
            ValidationErrorKind.MIXED_DISALLOWED_FLAGS,
            "all spans of one design trace must share the same isDisallowed flag",
        )
    return errors


def _span_from_json(
    trace_id: str,
    where: str,
    raw: object,
    index: int,
    errors: List[ValidationError],
) -> DesignSpan:
    """Read one span object of design trace ``trace_id``, which errors call
    ``where``. ``DesignSpan`` checks each field's type; its ``ValueError``
    becomes ``MalformedDesignError("design trace T: span S: ...")``, with S
    the span id, or ``#index`` when the id is unusable. A bad
    ``maxDuration`` is collected in ``errors`` and leaves no bound."""
    if not isinstance(raw, dict):
        raise MalformedDesignError(f"{where}: span #{index} is not an object")
    span_id = raw.get("spanId")
    label = echo(span_id, str) if span_id and isinstance(span_id, str) else f"#{index}"
    design_block = raw.get("design", {})
    if not isinstance(design_block, dict):
        raise MalformedDesignError(f"{where}: span {label}: design must be an object")

    max_duration = None
    raw_duration = design_block.get("maxDuration")
    if raw_duration is not None:
        try:
            max_duration = parse_duration_micros(raw_duration)
        except ValueError as exc:
            errors.append(
                ValidationError(
                    design_trace_id=trace_id,
                    kind=ValidationErrorKind.BAD_DURATION,
                    detail=str(exc),
                    design_span_id=span_id,
                )
            )

    try:
        return DesignSpan(
            design_span_id=span_id,
            name=raw.get("name"),
            match_attributes=raw.get("match", {}),
            parent_design_span_id=raw.get("parentSpanId"),
            description=design_block.get("description"),
            max_duration_micros=max_duration,
            allow_non_immediate_parent=design_block.get("allowNonImmediateParent", False),
            is_disallowed=design_block.get("isDisallowed", False),
        )
    except ValueError as exc:
        raise MalformedDesignError(f"{where}: span {label}: {exc}") from exc


def load_design_set(document: "bytes | str") -> DesignTraceSet:
    """Load and validate a design file.

    Structural problems (bad JSON, wrong types) raise MalformedDesignError
    immediately; semantic problems are collected across the whole document
    and raised together as DesignValidationError so authors see every issue
    in one pass: first those found while reading spans (bad durations,
    duplicate span ids), then those :meth:`DesignTraceSet.of` finds.
    """
    data = _load_json(document, MalformedDesignError)
    if not isinstance(data, dict) or not isinstance(data.get("designTraces"), list):
        raise MalformedDesignError("expected a JSON object with a designTraces array")

    errors: List[ValidationError] = []
    traces: List[DesignTrace] = []
    for trace_index, raw_trace in enumerate(data["designTraces"]):
        if not isinstance(raw_trace, dict):
            raise MalformedDesignError(f"designTraces[{trace_index}] is not an object")
        trace_id = raw_trace.get("id")
        # DesignTrace checks the id; until then an unusable one is named by
        # its position.
        if trace_id and isinstance(trace_id, str):
            where = f"design trace {echo(trace_id, str)}"
        else:
            where = f"designTraces[{trace_index}]"
        raw_spans = raw_trace.get("spans")
        if not isinstance(raw_spans, list):
            raise MalformedDesignError(f"{where}: spans must be a list")

        spans: dict = {}
        for index, raw_span in enumerate(raw_spans):
            span = _span_from_json(trace_id, where, raw_span, index, errors)
            if span.design_span_id in spans:
                errors.append(
                    ValidationError(
                        design_trace_id=trace_id,
                        kind=ValidationErrorKind.DUPLICATE_SPAN_ID,
                        detail=f"span id {echo(span.design_span_id)} appears more than once",
                        design_span_id=span.design_span_id,
                    )
                )
                continue
            spans[span.design_span_id] = span
        try:
            traces.append(DesignTrace(design_trace_id=trace_id, spans=spans))
        except ValueError as exc:
            raise MalformedDesignError(f"designTraces[{trace_index}]: {exc}") from exc

    try:
        design_set = DesignTraceSet.of(traces)
    except DesignValidationError as exc:
        raise DesignValidationError(errors + exc.errors) from None
    if errors:
        raise DesignValidationError(errors)
    return design_set


def import_design_from_observed(trace: ObservedTrace, keep: "set[SpanId]") -> DesignTrace:
    """Derive a design trace from an observed trace, keeping only ``keep``.

    Each kept span becomes a pattern matching its name and service. The
    pattern parent is the nearest kept ancestor; when intermediate spans
    were pruned the pattern accepts non-immediate parents. No duration
    bounds are emitted: observed durations are samples, not requirements,
    so the designer adds bounds deliberately afterwards.
    """
    unknown = set(keep) - set(trace.spans)
    if unknown:
        raise UnknownSpanIdError(
            f"keep set references spans not in trace {trace.trace_id}: {', '.join(sorted(unknown))}"
        )

    design_spans: dict = {}
    for span_id in sorted(keep):
        span = trace.spans[span_id]
        parent_id = next((a.span_id for a in trace.ancestors_of(span) if a.span_id in keep), None)
        design_spans[span_id] = DesignSpan(
            design_span_id=span_id,
            name=span.name,
            match_attributes={SERVICE_NAME_KEY: span.service_name},
            parent_design_span_id=parent_id,
            allow_non_immediate_parent=parent_id != span.parent_span_id,
            is_disallowed=False,
        )
    return DesignTrace(design_trace_id=f"imported-{trace.trace_id}", spans=design_spans)


def _span_to_json(span: DesignSpan) -> dict:
    design_block: dict = {
        "description": span.description,
        "maxDuration": span.max_duration_micros,
        "allowNonImmediateParent": span.allow_non_immediate_parent,
        "isDisallowed": span.is_disallowed,
    }
    return {
        "spanId": span.design_span_id,
        "name": span.name,
        "parentSpanId": span.parent_design_span_id,
        "match": {key: span.match_attributes[key] for key in sorted(span.match_attributes)},
        "design": design_block,
    }


def serialize_design_set(design_set: DesignTraceSet) -> str:
    """Serialize a design set to its file format. Spans are ordered by id,
    every property is written explicitly, and durations are emitted as
    integer microseconds, so load(serialize(s)) == s."""
    payload = {
        "designTraces": [
            {
                "id": trace.design_trace_id,
                "spans": [_span_to_json(span) for span in trace.spans_in_order()],
            }
            for trace in design_set.design_traces
        ]
    }
    return json.dumps(payload, indent=2) + "\n"


def load_bundled_design_set() -> DesignTraceSet:
    """Load the gateway/microservice design set shipped with the package."""
    from importlib import resources

    document = resources.files(__package__).joinpath(f"fixtures/{BUNDLED_DESIGN_FIXTURE}").read_bytes()
    return load_design_set(document)
