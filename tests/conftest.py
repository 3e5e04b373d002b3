from __future__ import annotations

import os
import threading
from pathlib import Path

import pytest

import confcheck as cc

FIXTURES_DIR = Path(__file__).parent / "fixtures"


def _refuse_a_fork_beside_threads() -> None:
    """Fail the test that forks while this process runs a second thread,
    whose locks a forked worker could inherit held. The error goes to
    ``sys.unraisablehook``, which pytest turns into a
    ``PytestUnraisableExceptionWarning``, an error under this suite's
    filters. CPython 3.12+ warns at such a fork too, but it clears the error
    that an ``error`` filter makes of the warning, so a filter cannot fail
    the test."""
    if threading.active_count() > 1:
        raise RuntimeError(f"fork while this process runs {threading.active_count()} threads")


os.register_at_fork(before=_refuse_a_fork_beside_threads)


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
