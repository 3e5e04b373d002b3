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
from importlib import resources
from typing import Iterable, List, Optional, Sequence, Tuple

from .model import (
    DesignSpan,
    DesignTrace,
    ObservedTrace,
    SERVICE_NAME_KEY,
    SpanId,
    ensure_attr_value,
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
        location = self.design_trace_id
        if self.design_span_id is not None:
            location += f"/{self.design_span_id}"
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


_DURATION_RE = re.compile(r"(\d+(?:\.\d+)?)\s*(us|ms|s)")
_DURATION_FACTORS = {"us": 1, "ms": 1_000, "s": 1_000_000}


def parse_duration_micros(value: object) -> int:
    """Normalize a duration from a design file to whole microseconds.

    Accepts a positive integer (already in microseconds) or a string with a
    "us", "ms", or "s" suffix, e.g. "500ms" or "500 ms". Raises ValueError
    for anything non-positive, fractional below microsecond resolution, or
    unparseable.
    """
    if isinstance(value, bool):
        raise ValueError("duration must be a number or suffixed string, not a boolean")
    if isinstance(value, int):
        micros = float(value)
    elif isinstance(value, str):
        match = _DURATION_RE.fullmatch(value.strip())
        if match is None:
            raise ValueError(f"cannot parse duration {value!r}; use an integer or a us/ms/s suffix")
        micros = float(match.group(1)) * _DURATION_FACTORS[match.group(2)]
    else:
        raise ValueError(f"cannot parse duration of type {type(value).__name__}")
    if micros <= 0:
        raise ValueError(f"duration must be positive, got {value!r}")
    rounded = round(micros)
    if abs(micros - rounded) > 1e-6:
        raise ValueError(f"duration {value!r} is below microsecond resolution")
    return int(rounded)


def validate_design_trace(trace: DesignTrace) -> List[ValidationError]:
    """Return every invariant breach in one design trace.

    An empty list means the trace is usable: parent links resolve and form a
    forest, every span matches on service.name, durations are positive, and
    the disallowed flag is homogeneous across the trace.
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
        parent_id = span.parent_design_span_id
        if parent_id is not None and parent_id not in trace.spans:
            err(
                ValidationErrorKind.UNKNOWN_PARENT,
                f"parent {parent_id!r} names no span in this design trace",
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
    raw: object,
    index: int,
    errors: List[ValidationError],
) -> DesignSpan:
    if not isinstance(raw, dict):
        raise MalformedDesignError(f"design trace {trace_id}: span #{index} is not an object")
    span_id = raw.get("spanId")
    if not span_id or not isinstance(span_id, str):
        raise MalformedDesignError(f"design trace {trace_id}: span #{index} lacks a spanId string")
    name = raw.get("name")
    if not isinstance(name, str):
        raise MalformedDesignError(f"design trace {trace_id}: span {span_id} lacks a name string")

    match = raw.get("match", {})
    if not isinstance(match, dict):
        raise MalformedDesignError(f"design trace {trace_id}: span {span_id}: match must be an object")
    for key, value in match.items():
        try:
            ensure_attr_value(key, value)
        except ValueError as exc:
            raise MalformedDesignError(f"design trace {trace_id}: span {span_id}: {exc}") from exc

    parent = raw.get("parentSpanId")
    if parent is not None and not isinstance(parent, str):
        raise MalformedDesignError(
            f"design trace {trace_id}: span {span_id}: parentSpanId must be a string or null"
        )

    design_block = raw.get("design", {})
    if not isinstance(design_block, dict):
        raise MalformedDesignError(f"design trace {trace_id}: span {span_id}: design must be an object")
    description = design_block.get("description")
    if description is not None and not isinstance(description, str):
        raise MalformedDesignError(
            f"design trace {trace_id}: span {span_id}: description must be a string or null"
        )
    allow = design_block.get("allowNonImmediateParent", False)
    disallowed = design_block.get("isDisallowed", False)
    if not isinstance(allow, bool) or not isinstance(disallowed, bool):
        raise MalformedDesignError(
            f"design trace {trace_id}: span {span_id}: flag properties must be booleans"
        )

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

    return DesignSpan(
        design_span_id=span_id,
        name=name,
        match_attributes=dict(match),
        parent_design_span_id=parent,
        description=description,
        max_duration_micros=max_duration,
        allow_non_immediate_parent=allow,
        is_disallowed=disallowed,
    )


def load_design_set(document: "bytes | str") -> DesignTraceSet:
    """Load and validate a design file.

    Structural problems (bad JSON, wrong types) raise MalformedDesignError
    immediately; semantic problems are collected across the whole document
    and raised together as DesignValidationError so authors see every issue
    in one pass: first those found while reading spans (bad durations,
    duplicate span ids), then those :meth:`DesignTraceSet.of` finds.
    """
    try:
        data = json.loads(document)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedDesignError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedDesignError(f"JSON nested too deeply: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("designTraces"), list):
        raise MalformedDesignError("expected a JSON object with a designTraces array")

    errors: List[ValidationError] = []
    traces: List[DesignTrace] = []
    for trace_index, raw_trace in enumerate(data["designTraces"]):
        if not isinstance(raw_trace, dict):
            raise MalformedDesignError(f"designTraces[{trace_index}] is not an object")
        trace_id = raw_trace.get("id")
        if not trace_id or not isinstance(trace_id, str):
            raise MalformedDesignError(f"designTraces[{trace_index}] lacks an id string")
        raw_spans = raw_trace.get("spans")
        if not isinstance(raw_spans, list):
            raise MalformedDesignError(f"design trace {trace_id}: spans must be a list")

        spans: dict = {}
        for index, raw_span in enumerate(raw_spans):
            span = _span_from_json(trace_id, raw_span, index, errors)
            if span.design_span_id in spans:
                errors.append(
                    ValidationError(
                        design_trace_id=trace_id,
                        kind=ValidationErrorKind.DUPLICATE_SPAN_ID,
                        detail=f"span id {span.design_span_id!r} appears more than once",
                        design_span_id=span.design_span_id,
                    )
                )
                continue
            spans[span.design_span_id] = span
        traces.append(DesignTrace(design_trace_id=trace_id, spans=spans))

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
    document = resources.files(__package__).joinpath(f"fixtures/{BUNDLED_DESIGN_FIXTURE}").read_bytes()
    return load_design_set(document)
