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
from typing import Iterable, Iterator, List, Tuple

from .ingest import serialize_otel_json
from .model import ObservedSpan, ObservedTrace

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


def _trace_id_for(seed: int, index: int) -> str:
    return _hex_id(f"{seed}:{index}:trace", 16)


def _span_id_for(seed: int, index: int, ordinal: int) -> str:
    return _hex_id(f"{seed}:{index}:span:{ordinal}", 8)


def deviation_flags(config: SimConfig, index: int) -> Tuple[bool, bool, bool]:
    """The (omit, slow, direct) deviation draws for one trace index."""
    return (
        _substream(config.seed, index, "omit").random() < config.p_omit,
        _substream(config.seed, index, "slow").random() < config.p_slow,
        _substream(config.seed, index, "direct").random() < config.p_direct,
    )


def generate_trace(config: SimConfig, index: int) -> ObservedTrace:
    """Generate the trace for one request index."""
    omit, slow, direct = deviation_flags(config, index)
    shape = _substream(config.seed, index, "shape")
    trace_id = _trace_id_for(config.seed, index)
    root_start = _BASE_EPOCH_NANOS + index * 1_000_000_000

    def span(
        ordinal: int,
        name: str,
        service: str,
        parent_span_id: "str | None",
        start_nanos: int,
        duration_micros: int,
        attributes: "dict | None" = None,
    ) -> ObservedSpan:
        # Positional, in ObservedSpan's field order: binding by keyword
        # costs more per span.
        return ObservedSpan(
            trace_id,
            _span_id_for(config.seed, index, ordinal),
            name,
            service,
            start_nanos,
            start_nanos + duration_micros * 1000,
            parent_span_id,
            attributes or {},
        )

    # The shape stream is consumed identically whether or not deviations
    # fire, so the trace layout depends only on (seed, index).
    base_duration = shape.randint(*BASE_LATENCY_MICROS)
    client_offset = shape.randint(500, 2_000)
    ms_offset = shape.randint(500, 2_000)
    query_offset = shape.randint(200, 1_000)
    query_duration = shape.randint(1_000, 20_000)
    http_method = shape.choice(("GET", "POST"))

    root_duration = base_duration
    if slow:
        root_duration = _substream(config.seed, index, "slow-latency").randint(*SLOW_LATENCY_MICROS)

    client_duration = max(1, (root_duration * 3) // 4)
    ms_duration = max(1, (client_duration * 4) // 5)

    # Each child takes its parent's id from the parent span, so every span
    # id is hashed once.
    root = span(
        _ORD_ROOT,
        REQUEST_SPAN_NAME,
        GATEWAY,
        None,
        root_start,
        root_duration,
        {"http.method": http_method, "http.status_code": 200},
    )
    client = span(
        _ORD_CLIENT,
        CLIENT_SPAN_NAME,
        GATEWAY,
        root.span_id,
        root_start + client_offset * 1000,
        client_duration,
    )
    ms_request = span(
        _ORD_MS_REQUEST,
        REQUEST_SPAN_NAME,
        MICROSERVICE,
        client.span_id,
        root_start + (client_offset + ms_offset) * 1000,
        ms_duration,
    )
    spans = [root, client, ms_request]
    if not omit:
        spans.append(
            span(
                _ORD_MS_QUERY,
                QUERY_SPAN_NAME,
                MICROSERVICE,
                ms_request.span_id,
                root_start + (client_offset + ms_offset + query_offset) * 1000,
                query_duration,
                {"db.system": "mssql"},
            )
        )
    if direct:
        direct_stream = _substream(config.seed, index, "direct-shape")
        spans.append(
            span(
                _ORD_DIRECT_QUERY,
                QUERY_SPAN_NAME,
                GATEWAY,
                root.span_id,
                root_start + direct_stream.randint(200, 2_000) * 1000,
                direct_stream.randint(1_000, 20_000),
                {"db.system": "mssql"},
            )
        )

    # Noise spans are leaves under random parents; they never re-parent the
    # core chain, so they cannot alter conformance.
    noise_count = shape.randint(*NOISE_SPANS_PER_TRACE)
    for noise_index in range(noise_count):
        parent = shape.choice(spans)
        spans.append(
            span(
                _ORD_NOISE_BASE + noise_index,
                shape.choice(NOISE_SPAN_NAMES),
                shape.choice(NOISE_SERVICES),
                parent.span_id,
                parent.start_time_nanos + shape.randint(10, 500) * 1000,
                shape.randint(10, 5_000),
            )
        )

    return ObservedTrace.from_spans(trace_id, spans)


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


def _write_file(directory: Path, number: int, traces: List[ObservedTrace]) -> None:
    (directory / f"corpus-{number:06d}.json").write_text(serialize_otel_json(traces), encoding="utf-8")


def _remove_stale(directory: Path, file_count: int) -> None:
    """Delete each ``corpus-<digits>.json`` numbered at or above
    ``file_count``, left by an earlier run; no other file is touched."""
    for path in directory.glob("corpus-*.json"):
        if re.fullmatch(r"corpus-[0-9]+\.json", path.name) and int(path.name[7:-5]) >= file_count:
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
    Then each ``corpus-<digits>.json`` numbered at or above the file count,
    left by an earlier run, is deleted; no other file is touched."""
    directory = _corpus_directory(directory, traces_per_file)
    traces = iter(traces)
    file_count = 0
    while batch := list(itertools.islice(traces, traces_per_file)):
        _write_file(directory, file_count, batch)
        file_count += 1
        # Dropped before the next batch is drawn, not when it is bound.
        del batch
    _remove_stale(directory, file_count)
    return file_count


def write_simulated_corpus(
    config: SimConfig, directory: "Path | str", traces_per_file: int, workers: int = 1
) -> int:
    """Write the corpus of ``config`` as :func:`write_corpus` writes
    ``iter_corpus(config)``, with the same bytes, by up to ``workers``
    workers (:func:`confcheck.runner.run`). Returns the file count.

    ``traces_per_file`` and the directory are checked in this process
    before any worker starts. Each worker writes a contiguous range of the
    files, generating one file's traces at a time in index order; with one
    worker that happens in this process. The earlier run's extra files are
    deleted once every worker has finished. If a worker fails, the files
    the others wrote stay."""
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    directory = _corpus_directory(directory, traces_per_file)
    file_count = -(-config.trace_count // traces_per_file)
    workers = min(workers, file_count)

    def write_files(worker: int, exchange: object) -> None:
        for number in range(file_count * worker // workers, file_count * (worker + 1) // workers):
            first = number * traces_per_file
            last = min(first + traces_per_file, config.trace_count)
            _write_file(directory, number, [generate_trace(config, index) for index in range(first, last)])

    # Imported here, so that importing the package leaves the runner unloaded.
    from . import runner

    runner.run(write_files, workers)
    _remove_stale(directory, file_count)
    return file_count
