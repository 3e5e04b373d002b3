"""Conformance checking of observed distributed traces against
designer-authored design traces.

The library surface mirrors the pipeline: ingest exported trace files,
load a design set, check each observed trace, aggregate a corpus report,
and render results. A deterministic simulator generates gateway-style
workloads for experiments and tests.
"""

from .checker import ConformanceReport, check_corpus, check_trace
from .design import (
    DesignTraceSet,
    DesignValidationError,
    ValidationError,
    ValidationErrorKind,
    import_design_from_observed,
    load_bundled_design_set,
    load_design_set,
    serialize_design_set,
    validate_design_trace,
)
from .ingest import (
    IngestWarning,
    IngestWarningKind,
    assemble_traces,
    load_corpus_dir,
    parse_trace_document,
    serialize_otel_json,
)
from .model import (
    AttrValue,
    CyclicParentChainError,
    DesignSpan,
    DesignTrace,
    ObservedSpan,
    ObservedTrace,
    SpanId,
    TraceId,
    TraceVerdict,
    Violation,
    ViolationKind,
    attr_values_equal,
)
from .simulator import SimConfig, generate_corpus, generate_trace, iter_corpus, write_corpus

__version__ = "0.1.0"

__all__ = [
    "AttrValue",
    "ConformanceReport",
    "CyclicParentChainError",
    "DesignSpan",
    "DesignTrace",
    "DesignTraceSet",
    "DesignValidationError",
    "IngestWarning",
    "IngestWarningKind",
    "ObservedSpan",
    "ObservedTrace",
    "SimConfig",
    "SpanId",
    "TraceId",
    "TraceVerdict",
    "ValidationError",
    "ValidationErrorKind",
    "Violation",
    "ViolationKind",
    "assemble_traces",
    "attr_values_equal",
    "check_corpus",
    "check_trace",
    "generate_corpus",
    "generate_trace",
    "import_design_from_observed",
    "iter_corpus",
    "load_bundled_design_set",
    "load_corpus_dir",
    "load_design_set",
    "parse_trace_document",
    "serialize_design_set",
    "serialize_otel_json",
    "validate_design_trace",
    "write_corpus",
]
