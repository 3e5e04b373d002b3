"""Worker processes, and the exchange of the traces that cross their reads.

:func:`run` calls ``target(index, exchange)`` once per worker and returns
the results in worker order. One worker runs in this process, with no
exchange. More each get one ``os.fork()``, so the target and whatever it
holds (design set, reader, file list) are inherited, never pickled, and a
worker imports nothing. A spawned worker would start a new interpreter and
import every module again. Fork is safe here because this process starts no
thread before it forks. Each worker has two pipes to this process, one each
way, that carry pickles; this process only relays them: no worker talks to
another. Every message a worker sends is tagged as a request to the
exchange, its target's result or the exception its target raised. A worker
ends in ``os._exit`` and never returns into the caller, and every worker is
reaped before :func:`run` returns or raises. The cyclic collector is off
throughout, in this process and in every worker. Callers take the number of
workers from :func:`~confcheck.ingest.read_plan`, which gives one where the
platform has no ``os.fork``.

A target may trade through its exchange or not. Either every worker calls
:meth:`Exchange.trade` exactly once, before it returns (``check`` does), or
none calls it (``simulate``, and ``check_corpus``, whose slices are whole
traces); a run in which some trade and some do not raises ``RuntimeError``.

Through :meth:`Exchange.trade`, a ``check`` worker gives up the rows of the
traces that other workers read in part too, and gets those of the traces it
owns. Every worker sends this process its distinct trace ids and gets back
those that more than one worker read. It ships their rows, marshalled, to
each such trace's owner, worker ``crc32(trace id) % K``, and keeps every
other row where it was read: a trace read by one worker never moves. A
worker cuts its read columns by one :meth:`~confcheck.model.SpanColumns.split`
into the rows it keeps and the rows it ships to each owner, then appends
what comes in, so that it holds whole traces. Each side drops what it has
passed on as it goes: a worker each read column once every group has copied
its rows, and each incoming byte string once unpacked; this process each
shipment once relayed. Only when no trace crosses two workers' reads does a
worker keep its read columns as they are.

An exception a worker raises is sent back and raised here. A worker that
exits before it answers (an end of file or a truncated pickle on its pipe,
or a broken pipe to it) raises :class:`~confcheck.model.WorkerExitedError`.
"""

from __future__ import annotations

import contextlib
import gc
import marshal
import os
import sys
from itertools import repeat
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from .model import _NO_ATTRIBUTES, SpanColumns, WorkerExitedError, trace_hash_class

__all__ = ["Exchange", "run"]

Result = TypeVar("Result")

# The tag of each message a worker sends: a request to the exchange, the
# target's result, or the exception the target raised.
_ASK, _RESULT, _ERROR = range(3)


def _pack(columns: SpanColumns) -> bytes:
    # A column at a time: marshal keeps a table of the shared objects it has
    # written, and one column's table is far smaller than all nine columns'.
    return marshal.dumps(tuple(marshal.dumps(getattr(columns, slot)) for slot in SpanColumns.__slots__))


def _unpack(data: bytes) -> SpanColumns:
    columns = SpanColumns()
    for slot, packed in zip(SpanColumns.__slots__, marshal.loads(data)):
        setattr(columns, slot, marshal.loads(packed))
    # Each load gives the rows without attributes one new empty dict.
    columns.attributes = [attributes or _NO_ATTRIBUTES for attributes in columns.attributes]
    return columns


class Exchange:
    """A worker's end of its pipe to the parent process."""

    __slots__ = ("link", "index", "workers")

    def __init__(self, link, index: int, workers: int) -> None:
        self.link = link
        self.index = index
        self.workers = workers

    def _ask(self, message: object):
        self.link.send((_ASK, message))
        return self.link.recv()

    def trade(self, columns: SpanColumns) -> SpanColumns:
        """``columns`` once the rows of the traces that other workers read
        too have gone to their owners, and the rows of the traces this
        worker owns have come in: ``columns`` itself only when no trace
        crosses any two workers' reads, else new columns, and ``columns`` is
        left empty by :meth:`~confcheck.model.SpanColumns.split`."""
        trace_ids = columns.trace_ids
        crossing = self._ask(list(set(trace_ids)))
        if crossing is None:  # no trace crosses any two workers' reads
            return columns
        index = self.index
        owners = {trace_id: trace_hash_class(trace_id, self.workers) for trace_id in crossing}
        rows: Dict[int, List[int]] = {}
        for row, owner in enumerate(map(owners.get, trace_ids, repeat(index))):
            rows.setdefault(owner, []).append(row)
        del trace_ids, owners
        kept = rows.pop(index, [])
        columns, *shipped = columns.split([kept, *rows.values()])
        del kept
        self.link.send((_ASK, {owner: _pack(part) for owner, part in zip(rows, shipped)}))
        del rows, shipped  # the shipped rows are dropped before the incoming ones arrive
        incoming = self.link.recv()
        while incoming:  # each byte string dropped once unpacked
            columns.extend(_unpack(incoming.pop()))
        return columns


class _Link:
    """One end of a worker's two pipes. Each message is one pickle, written
    to one pipe and read from the other; a pickle stream is self-delimiting,
    so a message needs no framing. Reading a closed pipe raises
    ``EOFError``, a truncated pickle included, and writing to one raises
    ``BrokenPipeError``."""

    __slots__ = ("reader", "writer")

    def __init__(self, read_fd: int, write_fd: int) -> None:
        self.reader = open(read_fd, "rb")
        self.writer = open(write_fd, "wb")

    def send(self, message: object) -> None:
        import pickle  # loaded by run before it forks

        pickle.dump(message, self.writer, pickle.HIGHEST_PROTOCOL)
        self.writer.flush()

    def recv(self) -> object:
        import pickle

        try:
            return pickle.load(self.reader)
        except pickle.UnpicklingError as exc:  # the sender exited mid-message
            raise EOFError("a message was cut short") from exc

    def close(self) -> None:
        self.reader.close()
        # The rest of a message that a broken pipe cut short goes nowhere.
        with contextlib.suppress(BrokenPipeError):
            self.writer.close()


def _flush_std() -> None:
    """Write out what stdout and stderr hold, so that a forked worker
    neither writes it again nor loses its own."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):  # no stream, or a closed one
            pass


def _serve(target: Callable[[int, Exchange], Result], index: int, workers: int, link: _Link, inherited: list) -> None:
    """A worker process's body: run the target, send back its result or its
    exception, and end the process. It never returns into the caller, whose
    code and exit handlers are the parent's to run."""
    status = 1
    try:
        for other in inherited:  # the parent's ends of the workers' pipes
            other.close()
        try:
            result = target(index, Exchange(link, index, workers))
        except Exception as exc:
            link.send((_ERROR, exc))
        else:
            link.send((_RESULT, result))
        status = 0
    except Exception:  # a message that could not be sent: the parent reads an end of file
        import traceback

        traceback.print_exc()
    finally:
        try:
            _flush_std()
        finally:
            os._exit(status)


def _receive(link: _Link) -> Tuple[int, object]:
    """The next message from a worker, as (tag, payload); the worker's own
    exception is raised here."""
    try:
        tag, payload = link.recv()
    except EOFError as exc:
        raise WorkerExitedError("a worker process exited unexpectedly") from exc
    if tag == _ERROR:
        raise payload
    return tag, payload


def _expect(link: _Link, tag: int) -> object:
    """The payload of a worker's next message, which must be tagged ``tag``."""
    received, payload = _receive(link)
    if received != tag:
        raise RuntimeError("a worker traded other than once")
    return payload


def _send(link: _Link, message: object) -> None:
    try:
        link.send(message)
    except BrokenPipeError as exc:
        raise WorkerExitedError("a worker process exited unexpectedly") from exc


def _relay(links: list) -> list:
    """Each worker's result, in worker order, once the exchange is served if
    the workers trade."""
    first = [_receive(link) for link in links]
    tags = {tag for tag, _ in first}
    if tags == {_RESULT}:  # no worker trades
        return [result for _, result in first]
    if tags != {_ASK}:
        raise RuntimeError("some workers traded and some did not")
    held = [trace_ids for _, trace_ids in first]
    del first
    seen: set = set()
    crossing: set = set()
    for trace_ids in held:
        crossing.update(seen.intersection(trace_ids))
        seen.update(trace_ids)
    del seen
    if not crossing:
        for link in links:
            _send(link, None)
    else:
        for link, trace_ids in zip(links, held):
            _send(link, list(crossing.intersection(trace_ids)))
        del held
        shipments = [_expect(link, _ASK) for link in links]
        for index, link in enumerate(links):
            # Popped: each byte string is dropped once it is relayed.
            _send(link, [shipment.pop(index) for shipment in shipments if index in shipment])
        del shipments
    return [_expect(link, _RESULT) for link in links]


def run(target: Callable[[int, Optional[Exchange]], Result], workers: int) -> List[Result]:
    """``target(index, exchange)`` for each of ``workers`` workers, in
    worker order: in this process with no exchange when there is one
    worker, else each in a forked worker process. No worker process and no
    pipe outlives the call, whether it returns or raises.

    Targets build no reference cycles, so the cyclic collector, whose
    passes would find nothing to free, is off for the call. A forked worker
    inherits that, so no collection copies the pages it inherited. The
    caller's state comes back whether the call returns or raises."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if workers == 1:
            return [target(0, None)]
        return _fork_and_relay(target, workers)
    finally:
        if was_enabled:
            gc.enable()


def _fork_and_relay(target: Callable[[int, Exchange], Result], workers: int) -> List[Result]:
    """:func:`run` with one forked worker process per worker."""
    # Imported here, before the forks: only a run with worker processes
    # needs it, and every worker inherits it.
    import pickle  # noqa: F401

    links: List[_Link] = []
    pids: List[int] = []
    try:
        for index in range(workers):
            down, up = os.pipe(), os.pipe()
            link, worker_link = _Link(up[0], down[1]), _Link(down[0], up[1])
            links.append(link)
            try:
                _flush_std()
                pids.append(os.fork())
                if pids[-1] == 0:
                    _serve(target, index, workers, worker_link, links)
            finally:
                worker_link.close()
        return _relay(links)
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for link in links:
            link.close()
