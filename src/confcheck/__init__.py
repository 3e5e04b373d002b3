"""Conformance checking of observed distributed traces against
designer-authored design traces.

The library surface mirrors the pipeline: ingest exported trace files,
load a design set, check each observed trace, aggregate a corpus report,
and render results. A deterministic simulator generates gateway-style
workloads for experiments and tests.

Importing the package loads none of its modules. Each exported name is
imported from its module on first use (PEP 562) and then kept here, so a
program pays only for the modules it uses: ``load_design_set`` loads
``design`` and ``model``, ``SimConfig`` loads ``simulator`` and ``model``.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_EXPORTS = {
    "AttrValue": "model",
    "ConformanceReport": "checker",
    "CyclicParentChainError": "model",
    "DesignSpan": "model",
    "DesignTrace": "model",
    "DesignTraceSet": "design",
    "DesignValidationError": "design",
    "IngestWarning": "ingest",
    "IngestWarningKind": "ingest",
    "ObservedSpan": "model",
    "ObservedTrace": "model",
    "SimConfig": "simulator",
    "SpanId": "model",
    "TraceId": "model",
    "TraceVerdict": "model",
    "ValidationError": "design",
    "ValidationErrorKind": "design",
    "Violation": "model",
    "ViolationKind": "model",
    "assemble_traces": "ingest",
    "attr_values_equal": "model",
    "check_corpus": "checker",
    "check_trace": "checker",
    "generate_corpus": "simulator",
    "generate_trace": "simulator",
    "import_design_from_observed": "design",
    "iter_corpus": "simulator",
    "load_bundled_design_set": "design",
    "load_corpus_dir": "ingest",
    "load_design_set": "design",
    "parse_trace_document": "ingest",
    "serialize_design_set": "design",
    "serialize_otel_json": "ingest",
    "validate_design_trace": "design",
    "write_corpus": "simulator",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> "list[str]":
    return sorted({*globals(), *__all__})
