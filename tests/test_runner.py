"""The worker runner's contract, for targets that trade and that do not."""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import time
from contextlib import contextmanager
from itertools import chain
from operator import attrgetter

import pytest

from confcheck import ingest, runner
from confcheck.checker import WorkerExitedError
from confcheck.model import SpanColumns, trace_hash_class

import genutil


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in this process if the block runs for longer than
    ``seconds``: a run that waits for ever fails instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def collector(enabled: bool):
    """The cyclic collector on or off for the block; the caller's state
    comes back after it."""
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was_enabled else gc.disable)()


def columns_of(trace_ids):
    columns = SpanColumns()
    for row, trace_id in enumerate(trace_ids):
        columns.trace_ids.append(trace_id)
        columns.span_ids.append(f"{row + 1:016x}")
        columns.parent_ids.append("")
        columns.names.append("n")
        columns.services.append("s")
        columns.starts.append(0)
        columns.ends.append(1)
        columns.attributes.append({})
        columns.links.append(())
    return columns


def trading(index, exchange):
    """Each worker reads one trace of its own and one that every worker
    reads, and returns the trace ids it holds after the trade."""
    columns = exchange.trade(columns_of([f"{index + 1:032x}", "f" * 32]))
    return sorted(columns.trace_ids)


WORKERS = [2, 3]


@pytest.mark.parametrize("workers", WORKERS)
class TestTargetThatNeverTrades:
    def test_results_come_back_in_worker_order(self, workers):
        with collector(True), deadline(60):
            results = runner.run(lambda index, exchange: (index, exchange.workers, os.getpid(), gc.isenabled()), workers)
        assert [result[:2] for result in results] == [(index, workers) for index in range(workers)]
        pids = {pid for _, _, pid, _ in results}
        assert len(pids) == workers and os.getpid() not in pids
        assert not any(collecting for *_, collecting in results)  # a forked worker runs with the collector off

    @pytest.mark.parametrize("failing", ["first", "last"])
    def test_a_workers_exception_is_raised_here(self, workers, failing):
        bad = 0 if failing == "first" else workers - 1

        def target(index, exchange):
            if index == bad:
                raise KeyError(f"worker {index}")
            return index

        with deadline(60), pytest.raises(KeyError, match=f"worker {bad}"):
            runner.run(target, workers)

    def test_a_worker_that_exits_is_an_error(self, workers):
        def target(index, exchange):
            if index == workers - 1:
                os._exit(9)
            return index

        with deadline(60), pytest.raises(WorkerExitedError):
            runner.run(target, workers)


@pytest.mark.parametrize("workers", WORKERS)
class TestTargetThatTrades:
    def test_results_come_back_in_worker_order(self, workers):
        with deadline(60):
            results = runner.run(trading, workers)
        owner = trace_hash_class("f" * 32, workers)
        assert results == [
            sorted([f"{index + 1:032x}"] + ["f" * 32] * (workers if index == owner else 0))
            for index in range(workers)
        ]

    def test_an_exception_while_others_wait_to_trade_is_raised_here(self, workers):
        def target(index, exchange):
            if index == workers - 1:
                raise KeyError("before the trade")
            return trading(index, exchange)

        with deadline(60), pytest.raises(KeyError, match="before the trade"):
            runner.run(target, workers)

    def test_a_worker_that_exits_while_others_wait_is_an_error(self, workers):
        def target(index, exchange):
            if index == 0:
                os._exit(9)
            return trading(index, exchange)

        with deadline(60), pytest.raises(WorkerExitedError):
            runner.run(target, workers)


@pytest.mark.parametrize("workers", WORKERS)
def test_the_exchange_keeps_every_span_field(workers, tmp_path):
    # Reports never show links, so only the traces themselves can show a
    # field the exchange loses.
    rng = random.Random(20261019)
    source, corpus = tmp_path / "source", tmp_path / "corpus"
    source.mkdir()
    for index in range(12):
        document = genutil.random_trace_document(rng, zipkin=False)
        (source / f"{index:02d}.json").write_text(json.dumps(document))
    genutil.dealt_copy(source, corpus, files=3, seed=5)
    expected = ingest.load_corpus_dir(corpus)[0]
    # A trace of three spans or more lies in all three files, so its rows
    # cross the workers' reads at any K.
    assert any(len(trace.spans) >= 3 and any(span.links for span in trace.spans.values()) for trace in expected)
    read, served = ingest.corpus_reader(corpus, workers)
    assert served == workers

    def target(index, exchange):
        return runner.worker_partition(read, index, exchange)[0].traces()

    with deadline(60):
        results = runner.run(target, workers)
    assert sorted(chain.from_iterable(results), key=attrgetter("trace_id")) == expected


def test_some_workers_trading_and_some_not_is_refused():
    def target(index, exchange):
        return index if index == 0 else trading(index, exchange)

    with deadline(60), pytest.raises(RuntimeError, match="some workers traded and some did not"):
        runner.run(target, 2)


def test_one_worker_runs_here_without_an_exchange():
    with collector(True):
        results = runner.run(lambda index, exchange: (index, exchange, os.getpid(), gc.isenabled()), 1)
    assert results == [(0, None, os.getpid(), False)]


def open_fds():
    """How many file descriptors this process holds, or None where
    ``/proc`` is absent."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def returning(index, exchange):
    return index


def raising(index, exchange):
    raise KeyError(f"worker {index}")


def exiting(index, exchange):
    os._exit(9)


def sleeping(index, exchange):
    time.sleep(60)


# Each way a run ends: the target, how long the run may wait, and what it raises.
ENDINGS = {
    "returns": (returning, 60, None),
    "worker-raises": (raising, 60, KeyError),
    "worker-exits": (exiting, 60, WorkerExitedError),
    "interrupted-while-relaying": (sleeping, 1, TimeoutError),
}


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("ending", list(ENDINGS))
def test_no_worker_or_pipe_outlives_the_run(workers, ending):
    # Nor does the paused collector: the caller's state comes back.
    target, seconds, error = ENDINGS[ending]
    for enabled in (True, False):
        fds = open_fds()
        with collector(enabled), deadline(seconds):
            if error is None:
                assert runner.run(target, workers) == list(range(workers))
            else:
                with pytest.raises(error):
                    runner.run(target, workers)
            assert gc.isenabled() is enabled
        with pytest.raises(ChildProcessError):  # no child left, running or unreaped
            os.waitpid(-1, os.WNOHANG)
        if fds is not None:
            assert open_fds() == fds
