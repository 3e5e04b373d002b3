"""Property tests over randomized instances.

Structural generators are seed-driven (random.Random built from a
hypothesis-chosen integer) so the same builders serve the brute-force
equivalence sweep and these properties.
"""

from __future__ import annotations

import copy
import json
import random
from functools import reduce
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

from confcheck import ingest
from confcheck.checker import ConformanceReport, check_corpus, check_trace, evaluate
from confcheck.design import DesignValidationError, MalformedDesignError, load_design_set, serialize_design_set
from confcheck.ingest import MalformedDocumentError, assemble_traces, parse_trace_document, serialize_otel_json
from confcheck.model import ObservedSpan, ObservedTrace, Partition, ViolationKind

import genutil
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


@given(awkward_corpora())
@settings(max_examples=200, deadline=None)
def test_serializer_writes_the_bytes_of_json_dumps(corpus):
    """The direct span encoder writes what json.dumps of the document of
    dicts writes, byte for byte."""
    assert serialize_otel_json(corpus) == reference_serialize_otel_json(corpus)


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
    """The spans and warnings ``read(warnings)`` gives, or its error text."""
    warnings = []
    try:
        spans = read(warnings)
    except MalformedDocumentError as exc:
        return str(exc)
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


@given(seeds, st.sampled_from((None,) + genutil.FAULTS), st.booleans())
@settings(max_examples=300, deadline=None)
def test_column_and_record_paths_agree(seed, fault, zipkin):
    """A clean or faulted document gives the same spans and warnings, or the
    same first error, by the column read as by the per-record path; the
    column read takes exactly the documents whose spans are valid; and the
    partition assembles them as span objects do."""
    rng = random.Random(seed)
    document = genutil.random_trace_document(rng, zipkin)
    if fault is not None:
        genutil.inject_fault(rng, document, fault)
    text = json.dumps(document)
    record = _ingest_outcome(lambda warnings: ingest._document_spans(json.loads(text), warnings))
    assert _ingest_outcome(lambda warnings: parse_trace_document(text, warnings)) == record

    columns = ingest._layout(document)[0](json.loads(text), None, {})
    on_column_path = columns is not None and ingest._clamp_and_check(columns, [])
    assert on_column_path == (not isinstance(record, str))
    if not on_column_path:
        return
    try:
        partition = Partition(columns)
    except ValueError as exc:
        assembled = type(exc), str(exc)
    else:
        dangling = [(partition.trace_ids[row], partition.span_ids[row]) for row in partition.dangling]
        assembled = partition.traces(), dangling
    assert assembled == _assembly_by_span_objects(record[0])
    if fault in ("duplicate span", "parent cycle"):
        assert isinstance(assembled[0], type)
