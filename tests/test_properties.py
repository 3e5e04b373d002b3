"""Property tests over randomized instances.

Structural generators are seed-driven (random.Random built from a
hypothesis-chosen integer) so the same builders serve the brute-force
equivalence sweep and these properties.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import io
import json
import random
import tempfile
from functools import reduce
from importlib import resources
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from confcheck import cli, ingest
from confcheck.checker import (
    ConformanceReport,
    check_corpus,
    check_partitions,
    check_trace,
    evaluate,
    matched_attribute_keys,
)
from confcheck.design import DesignValidationError, MalformedDesignError, load_design_set, serialize_design_set
from confcheck.ingest import (
    MalformedDocumentError,
    MissingFieldError,
    MissingServiceNameError,
    assemble_traces,
    parse_trace_document,
    serialize_otel_json,
)
from confcheck.model import ObservedSpan, ObservedTrace, Partition, SpanColumns, ViolationKind

import genutil
from ingest_reference import reference_parse
from serializer_reference import reference_serialize_otel_json

seeds = st.integers(min_value=0, max_value=2**48 - 1)


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_unmatched_spans_never_change_the_verdict(seed):
    """Extra spans that match no design pattern are invisible to checking."""
    rng = random.Random(seed)
    design_set = genutil.random_design_set(rng)
    trace = genutil.random_observed_trace(rng)
    before = check_trace(design_set, trace)

    noise_id = genutil.random_span_id(rng)
    while noise_id in trace.spans:
        noise_id = genutil.random_span_id(rng)
    roll = rng.random()
    if roll < 0.4:
        parent = rng.choice(sorted(trace.spans))
    elif roll < 0.7:
        parent = genutil.random_span_id(rng)  # dangling
    else:
        parent = None
    start = rng.randrange(0, 10**15)
    noise = ObservedSpan(
        trace_id=trace.trace_id,
        span_id=noise_id,
        parent_span_id=parent,
        name="unmatched.noise",
        service_name=rng.choice(genutil.SERVICE_POOL),
        start_time_nanos=start,
        end_time_nanos=start + rng.choice(genutil.DURATION_POOL_MICROS) * 1000,
        attributes={"arbitrary": "payload"},
    )
    augmented = ObservedTrace.from_spans(trace.trace_id, list(trace.spans.values()) + [noise])
    after = check_trace(design_set, augmented)
    assert after.violations == before.violations


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_assembly_is_order_independent(seed):
    rng = random.Random(seed)
    corpus = genutil.random_corpus(rng)
    spans = [span for trace in corpus for span in trace.spans.values()]
    baseline = assemble_traces(spans)
    shuffled = spans[:]
    rng.shuffle(shuffled)
    assert assemble_traces(shuffled) == baseline
    traces, _ = baseline
    assert sum(len(t.spans) for t in traces) == len(spans)


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_observed_round_trip(seed):
    rng = random.Random(seed)
    corpus = sorted(genutil.random_corpus(rng), key=lambda t: t.trace_id)
    document = serialize_otel_json(corpus)
    reparsed, _ = assemble_traces(parse_trace_document(document))
    assert reparsed == corpus
    assert serialize_otel_json(reparsed) == document


# Strings that json.dumps must escape or spell out: quotes, backslashes,
# control characters, non-ASCII, astral characters and lone surrogates.
awkward_text = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "/", "\x00", "\n", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800"]),
        st.characters(exclude_categories=()),
    ),
    max_size=8,
)
attribute_values = st.one_of(
    awkward_text,
    st.booleans(),
    st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16, 1.7976931348623157e308]),
    st.floats(),
)
trace_ids = st.integers(min_value=1, max_value=2**128 - 1).map("{:032x}".format)
span_ids = st.integers(min_value=1, max_value=2**64 - 1).map("{:016x}".format)


@st.composite
def awkward_corpora(draw):
    """Traces whose spans share a few services and carry awkward names,
    attribute keys and values, links, parents and the extreme times."""
    services = draw(st.lists(awkward_text.filter(bool), min_size=1, max_size=3))
    corpus = []
    for trace_id in draw(st.lists(trace_ids, min_size=1, max_size=3, unique=True)):
        ids = draw(st.lists(span_ids, min_size=1, max_size=4, unique=True))
        spans = []
        for position, span_id in enumerate(ids):
            # A parent among the earlier spans, or one the trace lacks: never a cycle.
            parents = st.none() | span_ids.filter(lambda parent: parent not in ids)
            if position:
                parents |= st.sampled_from(ids[:position])
            start = draw(st.sampled_from([0, 2**64 - 1]) | st.integers(min_value=0, max_value=2**64 - 1))
            spans.append(
                ObservedSpan(
                    trace_id,
                    span_id,
                    draw(awkward_text),
                    draw(st.sampled_from(services)),
                    start,
                    draw(st.integers(min_value=start, max_value=2**64 - 1)),
                    draw(parents),
                    draw(st.dictionaries(awkward_text, attribute_values, max_size=3)),
                    tuple(draw(st.lists(st.tuples(trace_ids, span_ids), max_size=2))),
                )
            )
        corpus.append(ObservedTrace(trace_id, {span.span_id: span for span in spans}))
    return corpus


@given(awkward_corpora(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_serializer_writes_the_bytes_of_json_dumps(corpus, rng):
    """The column serializer writes what json.dumps of the document of dicts
    writes, byte for byte, whether it is given traces or, as ``simulate``
    gives it, an assembled partition of their rows in any order."""
    expected = reference_serialize_otel_json(corpus)
    assert serialize_otel_json(corpus) == expected
    spans = [span for trace in corpus for span in trace.spans.values()]
    rng.shuffle(spans)
    columns = SpanColumns()
    columns.extend_spans(spans)
    assert ingest._otel_text(Partition(columns)) == expected


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_design_round_trip(seed):
    rng = random.Random(seed)
    design_set = genutil.random_design_set(rng)
    assert load_design_set(serialize_design_set(design_set)) == design_set


BUNDLED_DESIGN = resources.files("confcheck").joinpath("fixtures/table2.design.json").read_text()
DESIGN_MUTANTS = (
    None, True, False, 0, -1, 1.5, 2**63, 10**400, -(10**400), "", "x", "9" * 400 + "us", [], ["x"], {}, {"k": 1},
)


def _nodes(node, path=()):
    """The path of every value in a decoded JSON document, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, path + (key,))


@given(seeds)
@settings(max_examples=300, deadline=None)
def test_a_mutated_design_raises_only_design_errors(seed):
    """Any value at any place of a design file, however wrong, is reported
    as a malformed or invalid design, never as another exception."""
    rng = random.Random(seed)
    document = json.loads(BUNDLED_DESIGN)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_nodes(document)))
        value = copy.deepcopy(rng.choice(DESIGN_MUTANTS))
        if not path:
            document = value
            continue
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    try:
        load_design_set(json.dumps(document))
    except (MalformedDesignError, DesignValidationError):
        pass


@given(seeds, st.integers(min_value=1, max_value=6))
@settings(max_examples=200, deadline=None)
def test_report_merge_is_partition_invariant(seed, parts):
    """Any partition of the corpus, with partial reports merged in any
    order, yields the same report as a single pass. This is the property
    that makes worker count irrelevant to check_corpus results."""
    rng = random.Random(seed)
    design_set = genutil.random_design_set(rng)
    corpus = genutil.random_corpus(rng, max_traces=10)
    verdicts = [check_trace(design_set, trace) for trace in corpus]
    whole = ConformanceReport.from_verdicts(verdicts)

    chunks = [verdicts[i::parts] for i in range(parts)]
    rng.shuffle(chunks)
    merged = reduce(
        ConformanceReport.merge,
        (ConformanceReport.from_verdicts(chunk) for chunk in chunks),
        ConformanceReport(),
    )
    assert merged == whole


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_report_arithmetic_invariants(seed):
    rng = random.Random(seed)
    design_set = genutil.random_design_set(rng)
    corpus = genutil.random_corpus(rng, max_traces=10)
    report, verdicts = check_corpus(design_set, corpus, workers=1)

    assert report.conformant_traces + report.nonconformant_traces == report.total_traces
    if report.total_traces == 0:
        assert report.conformance_percentage == 0.0
    else:
        assert report.conformance_percentage == report.conformant_traces / report.total_traces
    assert sum(report.traces_by_kind.values()) >= report.nonconformant_traces
    assert sum(report.violations_by_kind.values()) == sum(
        report.violations_by_design_span.values()
    )
    assert sum(report.violations_by_kind.values()) == sum(
        len(v.violations) for v in verdicts
    )


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_deleting_a_required_witness_never_fixes_required_checks(seed):
    """Removing the span that witnessed a required pattern can only make
    required checks worse, never repair an already non-conformant trace."""
    rng = random.Random(seed)
    design_set = genutil.random_design_set(rng)
    trace = genutil.random_observed_trace(rng)

    def required_violated_ids(verdict):
        return {
            (v.design_trace_id, v.design_span_id)
            for v in verdict.violations
            if v.kind in (ViolationKind.MISSING_REQUIRED, ViolationKind.DURATION_EXCEEDED)
        }

    before = required_violated_ids(check_trace(design_set, trace))

    witness_ids = set()
    for design_trace in design_set.required_traces:
        for _, witness, _ in evaluate(design_trace, trace):
            if witness is not None:
                witness_ids.add(witness)
    if not witness_ids:
        return
    victim = rng.choice(sorted(witness_ids))
    survivors = [span for span in trace.spans.values() if span.span_id != victim]
    if not survivors:
        return
    reduced = ObservedTrace.from_spans(trace.trace_id, survivors)
    after = required_violated_ids(check_trace(design_set, reduced))
    assert before <= after


def test_parallel_equals_sequential_with_real_processes(design_set):
    rng = random.Random(20240817)
    corpus = [genutil.random_observed_trace(rng) for _ in range(300)]
    sequential_report, sequential_verdicts = check_corpus(design_set, corpus, workers=1)
    parallel_report, parallel_verdicts = check_corpus(design_set, corpus, workers=4)
    assert parallel_report == sequential_report
    assert parallel_verdicts == sequential_verdicts


def _ingest_outcome(read):
    """The spans and warnings ``read(warnings)`` gives, or its error's class
    and text."""
    warnings = []
    try:
        spans = read(warnings)
    except MalformedDocumentError as exc:
        return type(exc), str(exc)
    return spans, warnings


def _assembly_by_span_objects(spans):
    """Each trace built from its span objects in input order, traces in id
    order: the traces and dangling (trace id, span id) pairs, or the first
    trace's error."""
    grouped = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    try:
        traces = [ObservedTrace.from_spans(trace_id, grouped[trace_id]) for trace_id in sorted(grouped)]
    except ValueError as exc:
        return type(exc), str(exc)
    return traces, [(trace.trace_id, span_id) for trace in traces for span_id in sorted(trace.dangling_parents)]


# The attribute keys of ``genutil.random_trace_document`` and its faults.
DOCUMENT_KEYS = genutil.ATTR_KEYS + ("list", "ratio", "count", "k")


def _read_keeping(document, keys):
    """The column read of ``document`` keeping only the attributes of
    ``keys``: its spans and warnings, or its error's class and text."""

    def read(warnings):
        columns = SpanColumns()
        ingest._read_document(json.loads(json.dumps(document)), warnings, {}, columns, keys)
        return [columns.span(row) for row in range(len(columns))]

    return _ingest_outcome(read)


def _read_as_the_reference(document, rng):
    """The column read of ``document`` gives the reference reader's spans and
    warnings, or its first error, class and text; so does a read keeping
    only a random set of attribute keys (the empty set among them), with
    each span's attributes filtered to that set. Returns the outcome."""
    text = json.dumps(document)
    outcome = _ingest_outcome(lambda warnings: reference_parse(text, warnings))
    assert _ingest_outcome(lambda warnings: parse_trace_document(text, warnings)) == outcome
    keys = frozenset(rng.sample(DOCUMENT_KEYS, rng.randint(0, len(DOCUMENT_KEYS))))
    if isinstance(outcome[0], type):
        assert _read_keeping(document, keys) == outcome
    else:
        spans, warnings = outcome
        filtered = [
            dataclasses.replace(span, attributes={key: span.attributes[key] for key in keys & span.attributes.keys()})
            for span in spans
        ]
        assert _read_keeping(document, keys) == (filtered, warnings)
    return outcome


@given(seeds, st.sampled_from((None,) + genutil.FAULTS), st.booleans())
@settings(max_examples=300, deadline=None)
def test_column_and_record_paths_agree(seed, fault, zipkin):
    """A clean or faulted document gives the same spans and warnings, or the
    same first error, by the column read as by the reference reader, which
    reads and checks one span at a time; and the partition assembles them as
    span objects do."""
    rng = random.Random(seed)
    document = genutil.random_trace_document(rng, zipkin)
    if fault is not None:
        genutil.inject_fault(rng, document, fault)
    outcome = _read_as_the_reference(document, rng)
    if isinstance(outcome[0], type):
        assert fault not in (None, "duplicate span", "parent cycle")
        assert outcome[0] in (MalformedDocumentError, MissingFieldError, MissingServiceNameError)
        return
    assert fault != "lax integer"
    columns = SpanColumns()
    ingest._read_document(json.loads(json.dumps(document)), [], {}, columns)
    try:
        partition = Partition(columns)
    except ValueError as exc:
        assembled = type(exc), str(exc)
    else:
        dangling = [(partition.trace_ids[row], partition.span_ids[row]) for row in partition.dangling]
        assembled = partition.traces(), dangling
    assert assembled == _assembly_by_span_objects(outcome[0])
    if fault in ("duplicate span", "parent cycle"):
        assert isinstance(assembled[0], type)


SPAN_FAULTS = tuple(fault for fault in genutil.FAULTS if fault not in ("bad layout", "duplicate span", "parent cycle"))


@given(seeds, st.integers(min_value=1, max_value=3), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_the_first_bad_span_in_file_order_is_named(seed, faults, zipkin, layout_last):
    """With one to three faults, the first two in one span, the column read
    names the error the reference reader meets first: that of the first
    span, in file order, that breaks a rule, and of its first rule broken.
    With ``layout_last`` the last fault breaks the layout after that span
    (in OTel, a resource entry after the span's own)."""
    rng = random.Random(seed)
    document = genutil.random_trace_document(rng, zipkin)
    kinds = [rng.choice(SPAN_FAULTS) for _ in range(faults)]
    if layout_last:
        kinds[-1] = "bad layout"
    target = genutil.some_span(rng, document)
    for index, kind in enumerate(kinds):
        genutil.inject_fault(rng, document, kind, target if index < 2 or rng.random() < 0.5 else None)
    outcome = _read_as_the_reference(document, rng)
    assert isinstance(outcome[0], type)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_a_check_that_keeps_the_matched_attributes_reports_as_check_corpus(seed):
    """A random design set, which matches on an attribute 30% of the time,
    and a random corpus dealt over 1-3 files, as OTel and as Zipkin: read by
    ``corpus_reader`` keeping only the keys the design matches on, at 1-3
    workers, the corpus gives the report, verdicts and warning count that
    ``check_corpus`` gives over its span objects with every attribute."""
    from confcheck.runner import worker_partition

    rng = random.Random(seed)
    design_set = genutil.random_design_set(rng)
    keys = matched_attribute_keys(design_set)
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        source, otel, zipkin = root / "source", root / "otel", root / "zipkin"
        source.mkdir()
        (source / "corpus.json").write_text(serialize_otel_json(genutil.random_corpus(rng)))
        genutil.dealt_copy(source, otel, rng.randint(1, 3), seed=rng.randrange(2**32))
        genutil.zipkin_copy(otel, zipkin)
        for corpus in (otel, zipkin):
            traces, warnings = ingest.load_corpus_dir(corpus)
            expected = (*check_corpus(design_set, traces), len(warnings))
            for workers in (1, 2, 3):
                read, served = ingest.corpus_reader(corpus, workers, keys)
                assert check_partitions(design_set, functools.partial(worker_partition, read), served) == expected


def _check_outcome(design, corpus, workers):
    """The exit code, stdout and stderr of ``check`` at ``workers``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", str(design), str(corpus), "--workers", str(workers)])
    return code, out.getvalue(), err.getvalue()


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_a_failing_check_reads_alike_at_every_worker_count(seed):
    """A random OTel corpus with one to three faults, each a parent cycle, a
    duplicate span id or a truncated file, dealt over 2-5 files, so that a
    broken trace's spans lie in files that different workers read: ``check``
    gives the same exit code, stdout and stderr at ``--workers`` 1, 2 and 3.
    When every fault lies in the spans, two dealings give the same too."""
    rng = random.Random(seed)
    faults = [rng.choice(("parent cycle", "duplicate span", "truncated file")) for _ in range(rng.randint(1, 3))]
    files = rng.randint(2, 5)
    outcomes = []
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        design, source = root / "design.json", root / "source"
        design.write_text(BUNDLED_DESIGN)
        source.mkdir()
        documents = [genutil.random_trace_document(rng, zipkin=False) for _ in range(rng.randint(1, 3))]
        for fault in faults:
            if fault != "truncated file":
                genutil.inject_fault(rng, rng.choice(documents), fault)
        for index, document in enumerate(documents):
            (source / f"{index}.json").write_text(json.dumps(document))
        for dealing in range(2):
            corpus = root / f"dealt-{dealing}"
            genutil.dealt_copy(source, corpus, files, seed=rng.randrange(2**32))
            for _ in range(faults.count("truncated file")):
                path = rng.choice(sorted(corpus.glob("*.json")))
                text = path.read_bytes()
                if text:  # a file truncated twice may be empty already
                    path.write_bytes(text[: rng.randrange(len(text))])
            outcome = _check_outcome(design, corpus, 1)
            assert outcome[0] == 2 and outcome[2].startswith("error: ")
            assert _check_outcome(design, corpus, 2) == outcome
            assert _check_outcome(design, corpus, 3) == outcome
            outcomes.append(outcome)
    if "truncated file" not in faults:
        assert outcomes[1] == outcomes[0]
