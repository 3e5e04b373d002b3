from __future__ import annotations

from pathlib import Path

import pytest

import confcheck as cc

FIXTURES_DIR = Path(__file__).parent / "fixtures"


def load_single_trace(path: Path) -> cc.ObservedTrace:
    spans = cc.parse_trace_document(path.read_bytes())
    traces, warnings = cc.assemble_traces(spans)
    assert len(traces) == 1 and not warnings
    return traces[0]


@pytest.fixture(scope="session")
def design_set() -> cc.DesignTraceSet:
    return cc.load_bundled_design_set()


@pytest.fixture(scope="session")
def conformant_trace() -> cc.ObservedTrace:
    return load_single_trace(FIXTURES_DIR / "conformant.trace.json")


@pytest.fixture(scope="session")
def nonconformant_trace() -> cc.ObservedTrace:
    return load_single_trace(FIXTURES_DIR / "nonconformant.trace.json")
