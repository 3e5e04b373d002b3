"""Deterministic workload generation and deviation injection."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confcheck import simulator
from confcheck.checker import check_corpus, check_trace
from confcheck.cli import main
from confcheck.ingest import load_corpus_dir, serialize_otel_json
from confcheck.model import ObservedTrace, ViolationKind
from confcheck.simulator import (
    BASE_LATENCY_MICROS,
    GATEWAY,
    MICROSERVICE,
    NOISE_SPANS_PER_TRACE,
    QUERY_SPAN_NAME,
    ROOT_BUDGET_MICROS,
    SLOW_LATENCY_MICROS,
    SimConfig,
    _below,
    deviation_flags,
    generate_corpus,
    generate_trace,
    iter_corpus,
    write_corpus,
    write_simulated_corpus,
)

from serializer_reference import reference_serialize_otel_json

# The sha256 of each file `confcheck simulate` writes for GOLDEN_ARGS, recorded
# when the corpus was built in memory before the first file was written.
GOLDEN_ARGS = [
    "--count", "250", "--seed", "7", "--p-omit", "0.07", "--p-slow", "0.06", "--p-direct", "0.075",
    "--traces-per-file", "100",
]
GOLDEN_SHA256 = {
    "corpus-000000.json": "fa57c1672bdb85f4094b30b0c951bb5cb13344866969983879f04e770d0fba54",
    "corpus-000001.json": "0142e2b671862be7bbd4198ab0725bb97a3560297410e80360609c04d5458e08",
    "corpus-000002.json": "d1bb15c0782432096df42057a4c84dd32bdce9e6e5fb70959f6edcd08ac525d6",
}

# The same for a run in which each deviation fires for about half the traces,
# so every stream, slow-latency and direct-shape among them, is drawn from;
# recorded while the simulator still drew through random.randint and choice.
# Its 4 files hold 10, 10, 10 and 7 traces.
ALL_DEVIATIONS_ARGS = [
    "--count", "37", "--seed", "11", "--p-omit", "0.5", "--p-slow", "0.5", "--p-direct", "0.5",
    "--traces-per-file", "10",
]
ALL_DEVIATIONS_SHA256 = {
    "corpus-000000.json": "92603aada4e0cad806a0212688a4cba8c61d42a232730894a81452fdbb4b01d1",
    "corpus-000001.json": "0a87cf2803b1ec2cbd60af2a3da875b0cf106311dca9d860edd33b990dd9fd8d",
    "corpus-000002.json": "c24429c0b1e7f6e3bdf501628fcb4f79504988b7494e0e2518c9c080d990ed2a",
    "corpus-000003.json": "291941fbf15b4884464fb2634102b754c8bb0e8aa48ed54094f8b7435918df23",
}

# The same for ALL_DEVIATIONS_ARGS' count, seed and file size with every
# deviation probability 0 (simulate's defaults) and with every one 1, both
# decided without a draw; recorded while each trace still seeded a stream
# for each deviation. Their 4 files hold 10, 10, 10 and 7 traces.
DECIDED_ARGS = ["--count", "37", "--seed", "11", "--traces-per-file", "10"]
NO_DEVIATION_SHA256 = {
    "corpus-000000.json": "b7a48c74eaa29b0a317415981652c9255b0db13bcac74d094e7ead79dae7d96e",
    "corpus-000001.json": "258c4329776b3d4100ef08f52efb9ac23a26a89657b859810f0104eb7c93d10d",
    "corpus-000002.json": "86f05d967a85d8640b42cfef525d83b0c4f8c4bcf0acd94eb7772927cff04402",
    "corpus-000003.json": "3466f860c785511bed6ae0bbdca8bdf35d5670f1e9953b89c08dd1fbc4a87e71",
}
EVERY_DEVIATION_SHA256 = {
    "corpus-000000.json": "3af267aa7fe336eea3da0015b405e621c8eb25792a94ad1fa5a98d17bc7b0b6b",
    "corpus-000001.json": "a484fd88081f20cbb3c561189ce25f02e3b9fd2f574118e37533e665f9b5dc1a",
    "corpus-000002.json": "df7a899d50ad5a54306167e61fd8ff53d6fdc4ad46f300e9b9b63764faa8e851",
    "corpus-000003.json": "06eec1be468725f95c7dc8fe32fc4b49ad4dc646310129a95c71f87259cd8af1",
}


class TestConfigValidation:
    def test_defaults_are_valid(self):
        SimConfig(seed=0, trace_count=1)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_probabilities_must_be_in_range(self, p):
        with pytest.raises(ValueError):
            SimConfig(seed=0, trace_count=1, p_slow=p)

    @pytest.mark.parametrize("count", [0, -1])
    def test_trace_count_must_be_positive(self, count):
        with pytest.raises(ValueError):
            SimConfig(seed=0, trace_count=count)

    def test_draw_ranges_are_ordered_and_slow_lies_above_budget(self):
        for low, high in (BASE_LATENCY_MICROS, SLOW_LATENCY_MICROS, NOISE_SPANS_PER_TRACE):
            assert 0 <= low <= high
        assert BASE_LATENCY_MICROS[1] <= ROOT_BUDGET_MICROS < SLOW_LATENCY_MICROS[0]

    def test_seed_must_be_uint64(self):
        with pytest.raises(ValueError):
            SimConfig(seed=-1, trace_count=1)
        with pytest.raises(ValueError):
            SimConfig(seed=2**64, trace_count=1)


class TestDeterminism:
    def test_identical_configs_yield_identical_corpora(self):
        config = SimConfig(seed=9, trace_count=25, p_omit=0.3, p_slow=0.3, p_direct=0.3)
        first = generate_corpus(config)
        second = generate_corpus(config)
        assert first == second
        assert serialize_otel_json(first) == serialize_otel_json(second)

    def test_different_seeds_differ(self):
        a = generate_corpus(SimConfig(seed=1, trace_count=5))
        b = generate_corpus(SimConfig(seed=2, trace_count=5))
        assert serialize_otel_json(a) != serialize_otel_json(b)

    def test_trace_ids_unique(self):
        corpus = generate_corpus(SimConfig(seed=3, trace_count=500))
        assert len({t.trace_id for t in corpus}) == 500


class TestHealthyTraces:
    def test_zero_probabilities_are_fully_conformant(self, design_set):
        corpus = generate_corpus(SimConfig(seed=11, trace_count=100))
        report, _ = check_corpus(design_set, corpus, workers=1)
        assert report.total_traces == 100
        assert report.conformance_percentage == 1.0

    def test_microservice_request_is_non_immediate_descendant(self):
        trace = generate_trace(SimConfig(seed=11, trace_count=1), 0)
        ms_requests = [
            s
            for s in trace.spans.values()
            if s.name == "aspnet_core.request" and s.service_name == MICROSERVICE
        ]
        assert len(ms_requests) == 1
        parent = trace.parent_of(ms_requests[0])
        assert parent is not None
        assert parent.name != "aspnet_core.request"
        grandparent = trace.parent_of(parent)
        assert grandparent is not None
        assert grandparent.name == "aspnet_core.request"
        assert grandparent.service_name == GATEWAY


class TestForcedDeviations:
    def test_forced_direct_access(self, design_set):
        corpus = generate_corpus(SimConfig(seed=13, trace_count=20, p_direct=1.0))
        for trace in corpus:
            verdict = check_trace(design_set, trace)
            kinds_and_spans = [(v.kind, v.design_span_id) for v in verdict.violations]
            assert kinds_and_spans == [
                (ViolationKind.DISALLOWED_PRESENT, "D"),
                (ViolationKind.DISALLOWED_PRESENT, "E"),
            ]

    def test_forced_omission(self, design_set):
        corpus = generate_corpus(SimConfig(seed=13, trace_count=20, p_omit=1.0))
        for trace in corpus:
            verdict = check_trace(design_set, trace)
            assert [(v.kind, v.design_span_id) for v in verdict.violations] == [
                (ViolationKind.MISSING_REQUIRED, "C")
            ]

    def test_forced_slowness(self, design_set):
        corpus = generate_corpus(SimConfig(seed=13, trace_count=20, p_slow=1.0))
        for trace in corpus:
            verdict = check_trace(design_set, trace)
            assert [(v.kind, v.design_span_id) for v in verdict.violations] == [
                (ViolationKind.DURATION_EXCEEDED, "A")
            ]


class TestDeviationIndependence:
    def test_changing_p_slow_leaves_other_draws_alone(self):
        base = SimConfig(seed=21, trace_count=400, p_omit=0.2, p_slow=0.0, p_direct=0.2)
        slowed = SimConfig(seed=21, trace_count=400, p_omit=0.2, p_slow=0.9, p_direct=0.2)
        for index in range(400):
            omit_a, _, direct_a = deviation_flags(base, index)
            omit_b, _, direct_b = deviation_flags(slowed, index)
            assert (omit_a, direct_a) == (omit_b, direct_b)

    def test_omission_pattern_survives_p_slow_change(self, design_set):
        base = generate_corpus(SimConfig(seed=22, trace_count=150, p_omit=0.3))
        slowed = generate_corpus(SimConfig(seed=22, trace_count=150, p_omit=0.3, p_slow=0.9))

        def omitted_ids(corpus):
            return {
                t.trace_id
                for t in corpus
                if not any(
                    s.name == QUERY_SPAN_NAME and s.service_name == MICROSERVICE
                    for s in t.spans.values()
                )
            }

        assert omitted_ids(base) == omitted_ids(slowed)


class TestStatisticalComposition:
    def test_measured_conformance_tracks_analytic_expectation(self, design_set):
        config = SimConfig(
            seed=7, trace_count=10_000, p_omit=0.07, p_slow=0.06, p_direct=0.075
        )
        corpus = generate_corpus(config)
        report, _ = check_corpus(design_set, corpus, workers=1)
        expected = (1 - 0.07) * (1 - 0.06) * (1 - 0.075)
        sigma = math.sqrt(expected * (1 - expected) / config.trace_count)
        assert abs(report.conformance_percentage - expected) <= 3 * sigma


class TestWriteCorpus:
    def test_even_split(self, tmp_path, design_set):
        corpus = generate_corpus(SimConfig(seed=31, trace_count=100))
        assert write_corpus(corpus, tmp_path, traces_per_file=50) == 2
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "corpus-000000.json",
            "corpus-000001.json",
        ]
        reloaded, warnings = load_corpus_dir(tmp_path)
        assert warnings == []
        assert reloaded == sorted(corpus, key=lambda t: t.trace_id)

    def test_remainder_file(self, tmp_path):
        corpus = generate_corpus(SimConfig(seed=31, trace_count=101))
        assert write_corpus(corpus, tmp_path, traces_per_file=50) == 3

    def test_zero_traces(self, tmp_path):
        assert write_corpus([], tmp_path, traces_per_file=50) == 0
        assert list(tmp_path.glob("*.json")) == []

    def test_traces_per_file_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            write_corpus([], tmp_path, traces_per_file=0)

    def test_worker_count_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="workers must be a positive integer, got 0"):
            write_simulated_corpus(SimConfig(seed=1, trace_count=5), tmp_path / "sim", 10, workers=0)
        assert not (tmp_path / "sim").exists()

    def test_a_directory_with_a_stale_files_name_is_left(self, tmp_path, capsys):
        # Only a regular file can be an earlier run's output.
        (tmp_path / "corpus-000009.json").mkdir()
        assert main(["simulate", str(tmp_path), "--count", "100", "--traces-per-file", "50"]) == 0
        names = ["corpus-000000.json", "corpus-000001.json", "corpus-000009.json"]
        assert sorted(path.name for path in tmp_path.iterdir()) == names
        assert (tmp_path / "corpus-000009.json").is_dir()

    # 4 workers are more than the 3 files: the run uses 3.
    @pytest.mark.parametrize("workers", ["1", "2", "3", "4"])
    def test_simulate_output_matches_golden_digests(self, tmp_path, workers, monkeypatch, capsys):
        monkeypatch.setenv("CONFCHECK_WORKERS", workers)
        assert main(["simulate", str(tmp_path), *GOLDEN_ARGS]) == 0
        assert capsys.readouterr().out == f"wrote 250 traces to 3 file(s) in {tmp_path}\n"
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
        assert digests == GOLDEN_SHA256

    def test_simulate_without_fork_runs_one_worker_and_matches_golden_digests(self, tmp_path, monkeypatch, capsys):
        # A platform without os.fork runs simulate's one worker in process.
        monkeypatch.delattr(os, "fork")
        monkeypatch.setenv("CONFCHECK_WORKERS", "3")
        assert main(["simulate", str(tmp_path), *GOLDEN_ARGS]) == 0
        assert capsys.readouterr() == (f"wrote 250 traces to 3 file(s) in {tmp_path}\n", "")
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
        assert digests == GOLDEN_SHA256

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_simulate_output_with_every_deviation_matches_golden_digests(self, tmp_path, workers, monkeypatch, capsys):
        config = SimConfig(seed=11, trace_count=37, p_omit=0.5, p_slow=0.5, p_direct=0.5)
        flags = [deviation_flags(config, index) for index in range(37)]
        assert all({draw[kind] for draw in flags} == {False, True} for kind in range(3))
        monkeypatch.setenv("CONFCHECK_WORKERS", workers)
        assert main(["simulate", str(tmp_path), *ALL_DEVIATIONS_ARGS]) == 0
        assert capsys.readouterr().out == f"wrote 37 traces to 4 file(s) in {tmp_path}\n"
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
        assert digests == ALL_DEVIATIONS_SHA256

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize(
        "deviations, golden",
        [([], NO_DEVIATION_SHA256), (["--p-omit", "1", "--p-slow", "1", "--p-direct", "1"], EVERY_DEVIATION_SHA256)],
        ids=["p0", "p1"],
    )
    def test_decided_deviations_match_golden_digests(self, tmp_path, deviations, golden, workers, monkeypatch, capsys):
        monkeypatch.setenv("CONFCHECK_WORKERS", workers)
        assert main(["simulate", str(tmp_path), *DECIDED_ARGS, *deviations]) == 0
        assert capsys.readouterr().out == f"wrote 37 traces to 4 file(s) in {tmp_path}\n"
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
        assert digests == golden

    @pytest.mark.parametrize("count", [23, 25])
    def test_stream_writes_the_list_bytes_one_file_ahead(self, tmp_path, count):
        config = SimConfig(seed=4, trace_count=count, p_omit=0.3, p_slow=0.3, p_direct=0.3)
        per_file = 5
        listed, streamed = tmp_path / "list", tmp_path / "stream"
        assert write_corpus(generate_corpus(config), listed, per_file) == 5
        pulled, freed = [], []

        class Tracked(ObservedTrace):
            __slots__ = ()

            def __del__(self):
                freed.append(self.trace_id)

        def traces():
            # Every trace drawn lies in a file already written or in the one
            # being filled, and the traces of the written files are freed.
            for trace in iter_corpus(config):
                written = len(list(streamed.glob("*.json"))) * per_file
                assert written <= len(pulled) < written + per_file
                assert sorted(freed) == sorted(pulled[:written])
                pulled.append(trace.trace_id)
                yield Tracked(trace.trace_id, trace.spans)

        assert write_corpus(traces(), streamed, per_file) == 5
        assert len(pulled) == count
        assert sorted(path.name for path in streamed.iterdir()) == sorted(path.name for path in listed.iterdir())
        for path in listed.iterdir():
            assert (streamed / path.name).read_bytes() == path.read_bytes()

    def test_streamed_run_leaves_no_unreachable_objects(self, tmp_path):
        # `simulate` writes through runner.run, which pauses the cyclic
        # collector; that holds only while the run builds no reference cycles.
        config = SimConfig(seed=3, trace_count=300, p_omit=0.3, p_slow=0.3, p_direct=0.3)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert write_corpus(iter_corpus(config), tmp_path, 100) == 3
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


@pytest.mark.parametrize("p_omit, p_slow, p_direct", [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.0, 1.0, 0.5)])
def test_a_decided_deviation_seeds_no_stream(p_omit, p_slow, p_direct, monkeypatch):
    # random() is in [0, 1), so p = 0 never fires and p = 1 always does.
    purposes = []
    real_substream = simulator._substream
    monkeypatch.setattr(simulator, "_substream", lambda *key: purposes.append(key[2]) or real_substream(*key))
    config = SimConfig(seed=5, trace_count=20, p_omit=p_omit, p_slow=p_slow, p_direct=p_direct)
    flags = list(zip(*(deviation_flags(config, index) for index in range(20))))
    drawn = {kind for kind, p in (("omit", p_omit), ("slow", p_slow), ("direct", p_direct)) if 0 < p < 1}
    assert sorted(purposes) == sorted([*drawn] * 20)
    for fired, p in zip(flags, (p_omit, p_slow, p_direct)):
        if p in (0.0, 1.0):
            assert set(fired) == {p == 1.0}
    purposes.clear()
    generate_corpus(config)
    assert {"omit", "slow", "direct"} & set(purposes) == drawn
    assert purposes.count("shape") == 20


def test_importing_the_cli_leaves_openssl_unloaded():
    # hashlib loads OpenSSL's _hashlib, about 3.5 MB of memory and 5 ms of
    # start-up; only simulate hashes anything, so no other command pays it.
    code = "import sys, confcheck.cli; print('_hashlib' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


probabilities = st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0)


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    p_omit=probabilities,
    p_slow=probabilities,
    p_direct=probabilities,
    count=st.integers(min_value=1, max_value=40),
    per_file=st.integers(min_value=1, max_value=15),
)
@settings(max_examples=60, deadline=None)
def test_simulated_files_are_the_serialized_traces(seed, p_omit, p_slow, p_direct, count, per_file):
    """Each file drawn as rows and written from columns holds the bytes of
    its traces' span objects, serialized and as json.dumps writes them."""
    config = SimConfig(seed=seed, trace_count=count, p_omit=p_omit, p_slow=p_slow, p_direct=p_direct)
    traces = [generate_trace(config, index) for index in range(count)]
    with tempfile.TemporaryDirectory() as directory:
        files = write_simulated_corpus(config, directory, per_file)
        assert sorted(path.name for path in Path(directory).iterdir()) == [
            f"corpus-{number:06d}.json" for number in range(files)
        ]
        for number in range(files):
            batch = traces[number * per_file : (number + 1) * per_file]
            text = (Path(directory) / f"corpus-{number:06d}.json").read_text(encoding="utf-8")
            assert text == serialize_otel_json(batch) == reference_serialize_otel_json(batch)


@given(seed=st.integers(min_value=0, max_value=2**64 - 1), n=st.integers(min_value=1, max_value=2**20))
@settings(max_examples=300, deadline=None)
def test_below_draws_as_randrange_choice_and_randint(seed, n):
    bits = random.Random(seed).getrandbits
    twin = random.Random(seed)
    assert [_below(bits, n) for _ in range(3)] == [twin.randrange(n) for _ in range(3)]
    assert range(n)[_below(bits, n)] == twin.choice(range(n))
    assert 7 + _below(bits, n) == twin.randint(7, 6 + n)
