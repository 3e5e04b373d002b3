"""Deterministic workload generator for the gateway/microservice topology.

Each simulated request produces a trace shaped like the bundled design set
expects: a gateway request span, an outbound client span under it, a
microservice request span below that (a non-immediate descendant of the
root, which exercises full-parent-tree matching), and a database query on
the microservice. Extra noise spans that match no design pattern are hung
off random spans.

Three deviations can be injected, each controlled by an independent
probability: omitting the microservice query, inflating the root duration
past its budget, and adding a gateway-side database query. Every random
draw comes from a counter-derived sub-stream keyed by (seed, trace index,
purpose), so corpora are byte-reproducible and the three deviation knobs
are fully orthogonal: changing one probability never changes which traces
receive the other deviations.

Each stream is a ``random.Random`` seeded from blake2b, and every draw
from it is ``random()`` or :func:`_below`, CPython's own draw below a
bound, written out over ``getrandbits``. So the bytes depend only on
blake2b, Mersenne Twister seeding and ``getrandbits``, which are the same on
every supported Python, and not on how ``randint`` or ``choice`` are
written.

One function, ``_draw_trace``, draws a trace: it appends each span as a row
of plain values, in ``SpanColumns``' field order. :func:`generate_trace`
builds span objects from the rows. The file writer builds none: it turns a
file's rows into one :class:`~confcheck.model.SpanColumns`, checks them by
the rules ``check`` reads with (:func:`~confcheck.model.first_span_error`, then
:class:`~confcheck.model.Partition` for duplicate span ids and parent
cycles), and writes the text with the one OTel serializer, the one that
:func:`~confcheck.ingest.serialize_otel_json` runs.

Because no draw depends on which traces came before, any process can
generate any trace. :func:`write_simulated_corpus`, which ``confcheck
simulate`` runs, so has each of its worker processes write a contiguous
range of the corpus files, and the bytes do not depend on the worker count.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, List, Tuple

from .model import _NO_ATTRIBUTES, ObservedTrace, Partition, SpanColumns, first_span_error

__all__ = [
    "SimConfig",
    "generate_trace",
    "iter_corpus",
    "generate_corpus",
    "write_corpus",
    "write_simulated_corpus",
]

GATEWAY = "gateway"
MICROSERVICE = "microservice"
REQUEST_SPAN_NAME = "aspnet_core.request"
QUERY_SPAN_NAME = "sql_server.query"
CLIENT_SPAN_NAME = "http.client"

# None of these name/service combinations can witness a design span from the
# bundled design set, so injected deviations stay the sole source of
# non-conformance.
NOISE_SPAN_NAMES = ("connection.open", "serialization", "dns.lookup")
NOISE_SERVICES = (GATEWAY, MICROSERVICE, "testapp")

# Root duration budget of the bundled design set's required flow.
ROOT_BUDGET_MICROS = 500_000

# Inclusive (min, max) draw ranges: the root duration of a trace within its
# budget and of a slowed one (all above the budget), and the noise span count.
BASE_LATENCY_MICROS = (50_000, 400_000)
SLOW_LATENCY_MICROS = (500_001, 900_000)
NOISE_SPANS_PER_TRACE = (2, 5)

_BASE_EPOCH_NANOS = 1_600_000_000 * 10**9

# Fixed span ordinals, so ids are stable regardless of which deviations fire.
_ORD_ROOT = 0
_ORD_CLIENT = 1
_ORD_MS_REQUEST = 2
_ORD_MS_QUERY = 3
_ORD_DIRECT_QUERY = 4
_ORD_NOISE_BASE = 5


@dataclass(frozen=True)
class SimConfig:
    """Generator parameters. Identical configs yield byte-identical corpora."""

    seed: int
    trace_count: int
    p_omit: float = 0.0
    p_slow: float = 0.0
    p_direct: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.trace_count, int) or self.trace_count < 1:
            raise ValueError(f"trace_count must be a positive integer, got {self.trace_count!r}")
        for label, p in (("p_omit", self.p_omit), ("p_slow", self.p_slow), ("p_direct", self.p_direct)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} must be a probability in [0, 1], got {p!r}")


def _substream(seed: int, index: int, purpose: str) -> random.Random:
    """Deterministic per-trace, per-purpose random stream.

    The stream seed is the first 8 bytes of blake2b over (seed, index,
    purpose), making the streams independent of each other and of trace
    scheduling.
    """
    # Imported here, as in _hex_id: hashlib loads OpenSSL, which only
    # simulate needs, so every other command skips its import and memory.
    import hashlib

    digest = hashlib.blake2b(f"{seed}:{index}:{purpose}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _hex_id(material: str, n_bytes: int) -> str:
    import hashlib

    digest = hashlib.blake2b(material.encode(), digest_size=n_bytes).hexdigest()
    if not digest.strip("0"):
        digest = digest[:-1] + "1"
    return digest


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A random int in ``[0, n)``, for ``n`` > 0, drawn from ``getrandbits``
    as CPython's ``Random._randbelow_with_getrandbits`` draws it (the same
    code in 3.10 to 3.13), which ``randrange`` and so ``randint`` and
    ``choice`` call: ``randint(a, b)`` is ``a + _below(bits, b - a + 1)``
    and ``choice(seq)`` is ``seq[_below(bits, len(seq))]``. Written out, the
    draws cost one frame each instead of three, and depend only on
    ``getrandbits``, not on how a later ``random`` module spells them."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _fires(config: SimConfig, index: int, purpose: str, p: float) -> bool:
    """``random() < p`` on the ``purpose`` stream of trace ``index``. As
    ``random()`` is in [0, 1), p = 0 never fires and p = 1 always does: those
    seed no stream, and no other draw depends on this one."""
    if p == 0.0 or p == 1.0:
        return p == 1.0
    return _substream(config.seed, index, purpose).random() < p


def deviation_flags(config: SimConfig, index: int) -> Tuple[bool, bool, bool]:
    """The (omit, slow, direct) deviation draws for one trace index."""
    return (
        _fires(config, index, "omit", config.p_omit),
        _fires(config, index, "slow", config.p_slow),
        _fires(config, index, "direct", config.p_direct),
    )


# One span as the draw gives it, in SpanColumns' field order: trace id, span
# id, parent id ("" for none), name, service name, start and end nanoseconds,
# attributes (the shared _NO_ATTRIBUTES for none).
_Row = Tuple[str, str, str, str, str, int, int, dict]


def _draw_trace(config: SimConfig, index: int, rows: List[_Row]) -> None:
    """Draw the trace for one request index: append each of its spans' rows
    to ``rows``, root first."""
    omit, slow, direct = deviation_flags(config, index)
    shape = _substream(config.seed, index, "shape").getrandbits
    key = f"{config.seed}:{index}:"
    trace_id = _hex_id(key + "trace", 16)
    root_start = _BASE_EPOCH_NANOS + index * 1_000_000_000

    def span(
        ordinal: int,
        parent_id: str,
        name: str,
        service: str,
        start_nanos: int,
        duration_micros: int,
        attributes: dict = _NO_ATTRIBUTES,
    ) -> str:
        span_id = _hex_id(f"{key}span:{ordinal}", 8)
        end_nanos = start_nanos + duration_micros * 1000
        rows.append((trace_id, span_id, parent_id, name, service, start_nanos, end_nanos, attributes))
        return span_id

    # The shape stream is consumed identically whether or not deviations
    # fire, so the trace layout depends only on (seed, index). Each draw in
    # [low, high] is low + _below(bits, high - low + 1).
    low, high = BASE_LATENCY_MICROS
    root_duration = low + _below(shape, high - low + 1)
    client_offset = 500 + _below(shape, 2_000 - 500 + 1)
    ms_offset = 500 + _below(shape, 2_000 - 500 + 1)
    query_offset = 200 + _below(shape, 1_000 - 200 + 1)
    query_duration = 1_000 + _below(shape, 20_000 - 1_000 + 1)
    http_method = ("GET", "POST")[_below(shape, 2)]

    if slow:
        low, high = SLOW_LATENCY_MICROS
        root_duration = low + _below(_substream(config.seed, index, "slow-latency").getrandbits, high - low + 1)

    client_duration = max(1, (root_duration * 3) // 4)
    ms_duration = max(1, (client_duration * 4) // 5)

    first = len(rows)
    root_id = span(
        _ORD_ROOT,
        "",
        REQUEST_SPAN_NAME,
        GATEWAY,
        root_start,
        root_duration,
        {"http.method": http_method, "http.status_code": 200},
    )
    client_start = root_start + client_offset * 1000
    client_id = span(_ORD_CLIENT, root_id, CLIENT_SPAN_NAME, GATEWAY, client_start, client_duration)
    ms_start = client_start + ms_offset * 1000
    ms_id = span(_ORD_MS_REQUEST, client_id, REQUEST_SPAN_NAME, MICROSERVICE, ms_start, ms_duration)
    if not omit:
        span(
            _ORD_MS_QUERY,
            ms_id,
            QUERY_SPAN_NAME,
            MICROSERVICE,
            ms_start + query_offset * 1000,
            query_duration,
            {"db.system": "mssql"},
        )
    if direct:
        direct_shape = _substream(config.seed, index, "direct-shape").getrandbits
        span(
            _ORD_DIRECT_QUERY,
            root_id,
            QUERY_SPAN_NAME,
            GATEWAY,
            root_start + (200 + _below(direct_shape, 2_000 - 200 + 1)) * 1000,
            1_000 + _below(direct_shape, 20_000 - 1_000 + 1),
            {"db.system": "mssql"},
        )

    # Noise spans are leaves under random parents; they never re-parent the
    # core chain, so they cannot alter conformance.
    low, high = NOISE_SPANS_PER_TRACE
    for ordinal in range(_ORD_NOISE_BASE, _ORD_NOISE_BASE + low + _below(shape, high - low + 1)):
        # A row of this trace: parent[1] is its span id, parent[5] its start.
        parent = rows[first + _below(shape, len(rows) - first)]
        span(
            ordinal,
            parent[1],
            NOISE_SPAN_NAMES[_below(shape, len(NOISE_SPAN_NAMES))],
            NOISE_SERVICES[_below(shape, len(NOISE_SERVICES))],
            parent[5] + (10 + _below(shape, 500 - 10 + 1)) * 1000,
            10 + _below(shape, 5_000 - 10 + 1),
        )


def _row_columns(rows: List[_Row]) -> SpanColumns:
    """``rows``, at least one, as columns. ``rows`` is left empty, so that
    the two are not held at once."""
    columns = SpanColumns()
    (
        columns.trace_ids,
        columns.span_ids,
        columns.parent_ids,
        columns.names,
        columns.services,
        columns.starts,
        columns.ends,
        columns.attributes,
    ) = map(list, zip(*rows))
    columns.links = [()] * len(rows)
    rows.clear()
    return columns


def generate_trace(config: SimConfig, index: int) -> ObservedTrace:
    """Generate the trace for one request index."""
    rows: List[_Row] = []
    _draw_trace(config, index, rows)
    columns = _row_columns(rows)
    return ObservedTrace.from_spans(columns.trace_ids[0], list(map(columns.span, range(len(columns)))))


def iter_corpus(config: SimConfig) -> Iterator[ObservedTrace]:
    """Generate the corpus for a config lazily, one trace at a time in index
    order, so a consumer holds only the traces it keeps."""
    for index in range(config.trace_count):
        yield generate_trace(config, index)


def generate_corpus(config: SimConfig) -> List[ObservedTrace]:
    """Generate the full corpus for a config. Deterministic: identical
    configs yield identical traces, independent of scheduling."""
    return list(iter_corpus(config))


def _corpus_directory(directory: "Path | str", traces_per_file: int) -> Path:
    """``directory``, made if need be, once ``traces_per_file`` is checked."""
    if traces_per_file < 1:
        raise ValueError(f"traces_per_file must be a positive integer, got {traces_per_file}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _write_file(directory: Path, number: int, columns: SpanColumns) -> None:
    """Write the spans of ``columns`` as file ``number`` once they pass the
    rules ``check`` reads with: :func:`~confcheck.model.first_span_error`,
    which names the first span whose object does not build, and whose error
    is raised here, and :class:`~confcheck.model.Partition`, which raises on
    a duplicate span id or a parent cycle. The file is written whole or not
    at all, through ``corpus-NNNNNN.json.partial``."""
    # Imported here, so that building a SimConfig leaves ingest unloaded.
    from .ingest import _otel_text, _write_whole

    failure = first_span_error(columns)
    if failure is not None:
        raise failure[1]
    _write_whole(directory / f"corpus-{number:06d}.json", _otel_text(Partition(columns)))


def _remove_stale(directory: Path, file_count: int) -> None:
    """Delete each regular file ``corpus-<digits>.json`` or
    ``corpus-<digits>.json.partial`` numbered at or above ``file_count``,
    left by an earlier run or by one killed mid-write; nothing else is
    touched. A partial file numbered below ``file_count`` is not left: this
    run wrote it and renamed it onto its name."""
    for path in directory.glob("corpus-*.json*"):
        name = re.fullmatch(r"corpus-([0-9]+)\.json(?:\.partial)?", path.name)
        if name and path.is_file() and int(name[1]) >= file_count:
            path.unlink()


def write_corpus(
    traces: Iterable[ObservedTrace],
    directory: "Path | str",
    traces_per_file: int,
) -> int:
    """Write traces to ``corpus-%06d.json`` files in the canonical OTel-style
    layout, ``traces_per_file`` per file. Returns the file count.

    Each file is written as soon as its batch is full, so fed a lazy
    iterable (``iter_corpus``) this holds one file's traces at a time. The
    count and the directory are checked before the first trace is drawn.
    Each file is written whole or not at all. Then each regular file
    ``corpus-<digits>.json`` or ``corpus-<digits>.json.partial`` numbered at
    or above the file count, left by an earlier run, is deleted, and nothing
    else."""
    directory = _corpus_directory(directory, traces_per_file)
    traces = iter(traces)
    file_count = 0
    while batch := list(itertools.islice(traces, traces_per_file)):
        columns = SpanColumns()
        columns.extend_spans([span for trace in batch for span in trace.spans.values()])
        _write_file(directory, file_count, columns)
        file_count += 1
        # Dropped before the next batch is drawn, not when it is bound.
        del batch, columns
    _remove_stale(directory, file_count)
    return file_count


def write_simulated_corpus(
    config: SimConfig, directory: "Path | str", traces_per_file: int, workers: int = 1
) -> int:
    """Write the corpus of ``config`` as :func:`write_corpus` writes
    ``iter_corpus(config)``, with the same bytes, by up to ``workers``
    workers (:func:`confcheck.runner.run`). Returns the file count.

    ``traces_per_file`` and the directory are checked in this process before
    any worker starts. Each worker writes a contiguous range of the files, cut
    by :func:`~confcheck.ingest.read_plan` as ``check`` cuts its reads (a
    file's traces for its size), generating one file's traces at a time in
    index order; with one worker that happens in this process. The earlier
    run's extra files are deleted once every worker has finished. If a worker
    fails, the files the others wrote stay."""
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    # Imported here, so that building a SimConfig leaves ingest unloaded.
    from .ingest import read_plan

    directory = _corpus_directory(directory, traces_per_file)
    count = config.trace_count
    files = [range(first, min(first + traces_per_file, count)) for first in range(0, count, traces_per_file)]
    plan = read_plan(list(map(len, files)), workers)

    def write_files(worker: int, exchange: object) -> None:
        for number in range(*plan[worker]):
            rows: List[_Row] = []
            for index in files[number]:
                _draw_trace(config, index, rows)
            _write_file(directory, number, _row_columns(rows))

    # Imported here, so that building a SimConfig leaves the runner unloaded.
    from . import runner

    runner.run(write_files, len(plan))
    _remove_stale(directory, len(files))
    return len(files)
