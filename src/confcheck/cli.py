"""Command-line interface.

Subcommands: check, simulate, graph, import-design, validate-design.
Exit codes: 0 when every checked trace conforms, 1 when non-conformance was
found by a completed check, 2 for usage, IO, or validation errors.

Importing this module loads no other confcheck module: each command imports
the modules it runs, so a launch compiles and runs only those. ``check``
loads the checker, design, ingest, report and runner modules; ``simulate``
loads the simulator, ingest and runner and no checker; ``validate-design``
loads only design and model.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from .design import DesignTraceSet
    from .model import ObservedTrace

EXIT_CONFORMANT = 0
EXIT_NONCONFORMANT = 1
EXIT_ERROR = 2

WORKERS_ENV_VAR = "CONFCHECK_WORKERS"


def _default_workers() -> int:
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            value = int(env)
            if value >= 1:
                return value
        except ValueError:
            pass
        print(f"warning: ignoring invalid {WORKERS_ENV_VAR}={env!r}", file=sys.stderr)
    # The CPUs this process may run on, which can be fewer than the machine has.
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


def _write_output(text: str, out_path: Optional[str], status: int = EXIT_CONFORMANT) -> int:
    """Write ``text`` to ``out_path``, or to stdout when it is None, and
    return the command's exit ``status``; an unwritable file is an IO error.
    The file is written whole or not at all, so a failed write keeps the
    last report there."""
    if out_path is None:
        sys.stdout.write(text)
        return status
    from .ingest import _write_whole

    try:
        _write_whole(out_path, text)
    except OSError as exc:
        return _fail(str(exc))
    return status


def _load_design(path: str) -> DesignTraceSet:
    from . import design

    return design.load_design_set(Path(path).read_bytes())


def _warn_ingest(count: int) -> None:
    if count:
        print(f"warning: {count} ingest warning(s)", file=sys.stderr)


def _load_trace(directory: str, trace_id: str) -> ObservedTrace:
    """The trace ``trace_id`` of the corpus in ``directory``, the only one
    whose span objects are built; ValueError if absent."""
    from . import ingest

    partition, warnings = ingest.load_partition(directory)
    _warn_ingest(len(warnings))
    trace = partition.trace(trace_id)
    if trace is None:
        raise ValueError(f"trace id {trace_id} not found in {directory}")
    return trace


def cmd_check(args: argparse.Namespace) -> int:
    workers = _default_workers() if args.workers is None else args.workers
    if workers < 1:
        return _fail(f"--workers must be a positive integer, got {workers}")
    if args.max_ids < 0:
        return _fail(f"--max-ids must be non-negative, got {args.max_ids}")
    from . import checker, ingest, report
    from .model import WorkerExitedError

    try:
        design_set = _load_design(args.design)
        # Each span keeps only the attributes the design matches on.
        keys = checker.matched_attribute_keys(design_set)
        read, workers = ingest.corpus_reader(args.traces, workers, keys)
        corpus_report, verdicts, warning_count = checker.check_partitions(design_set, read, workers)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    except WorkerExitedError:
        # A killed worker leaves the check incomplete; that is an error, not a
        # non-conformance finding.
        return _fail(f"a worker process exited unexpectedly; the check of {args.traces} did not complete")
    _warn_ingest(warning_count)

    if args.format == "json":
        payload = report.report_to_json_dict(corpus_report, verdicts, max_ids=args.max_ids)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = report.render_text_report(corpus_report)
    status = EXIT_CONFORMANT if corpus_report.nonconformant_traces == 0 else EXIT_NONCONFORMANT
    return _write_output(text, args.out, status)


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulator
    from .model import WorkerExitedError

    try:
        config = simulator.SimConfig(
            seed=args.seed,
            trace_count=args.count,
            p_omit=args.p_omit,
            p_slow=args.p_slow,
            p_direct=args.p_direct,
        )
    except ValueError as exc:
        return _fail(str(exc))
    try:
        # The runner pauses the cyclic collector: each worker holds one
        # file's traces at a time and builds no reference cycles.
        file_count = simulator.write_simulated_corpus(config, args.out_dir, args.traces_per_file, _default_workers())
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    except WorkerExitedError:
        return _fail(f"a worker process exited unexpectedly; the corpus in {args.out_dir} is incomplete")
    print(f"wrote {config.trace_count} traces to {file_count} file(s) in {args.out_dir}")
    return EXIT_CONFORMANT


def cmd_graph(args: argparse.Namespace) -> int:
    from . import report

    try:
        design_set = _load_design(args.design)
        trace = _load_trace(args.traces, args.trace_id)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    return _write_output(report.render_trace_dot(design_set, trace), args.out)


def cmd_import_design(args: argparse.Namespace) -> int:
    from . import design

    try:
        trace = _load_trace(args.traces, args.trace_id)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    keep = set(args.keep) if args.keep else set(trace.spans)
    try:
        imported = design.import_design_from_observed(trace, keep)
        design_set = design.DesignTraceSet.of([imported])
    except ValueError as exc:
        return _fail(str(exc))
    return _write_output(design.serialize_design_set(design_set), args.out)


def cmd_validate_design(args: argparse.Namespace) -> int:
    from . import design

    try:
        design_set = _load_design(args.design)
    except OSError as exc:
        return _fail(str(exc))
    except design.DesignValidationError as exc:
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        return _fail(str(exc))
    span_count = sum(len(t.spans) for t in design_set.design_traces)
    print(
        f"valid: {len(design_set.design_traces)} design trace(s), {span_count} span(s), "
        f"{len(design_set.required_traces)} required / {len(design_set.disallowed_traces)} disallowed"
    )
    return EXIT_CONFORMANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confcheck",
        description="Check observed distributed traces for conformance with design traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a trace corpus against a design file")
    p_check.add_argument("design", help="design file (JSON)")
    p_check.add_argument("traces", help="directory of exported trace files")
    p_check.add_argument("--out", help="write the report here instead of stdout")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--workers", type=int, help=f"worker processes (default: ${WORKERS_ENV_VAR} or the usable CPU count)")
    p_check.add_argument("--max-ids", type=int, default=1000, help="cap on nonConformantTraceIds in JSON output")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="generate a deterministic trace corpus")
    p_sim.add_argument("out_dir", help="directory to write corpus files into")
    p_sim.add_argument("--count", type=int, required=True, help="number of traces to generate")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--p-omit", type=float, default=0.0, help="probability of omitting the backend query span")
    p_sim.add_argument("--p-slow", type=float, default=0.0, help="probability of inflating the root duration past budget")
    p_sim.add_argument("--p-direct", type=float, default=0.0, help="probability of adding a gateway-side query span")
    p_sim.add_argument("--traces-per-file", type=int, default=1000)
    p_sim.set_defaults(func=cmd_simulate)

    p_graph = sub.add_parser("graph", help="render one trace as a DOT span graph with its verdict")
    p_graph.add_argument("design", help="design file (JSON)")
    p_graph.add_argument("traces", help="directory of exported trace files")
    p_graph.add_argument("--trace-id", required=True)
    p_graph.add_argument("--out", help="write DOT here instead of stdout")
    p_graph.set_defaults(func=cmd_graph)

    p_import = sub.add_parser("import-design", help="derive a design file from an observed trace")
    p_import.add_argument("traces", help="directory of exported trace files")
    p_import.add_argument("--trace-id", required=True)
    p_import.add_argument("--keep", action="append", metavar="SPAN_ID", help="span to keep (repeatable; default: all spans)")
    p_import.add_argument("--out", help="write the design file here instead of stdout")
    p_import.set_defaults(func=cmd_import_design)

    p_validate = sub.add_parser("validate-design", help="validate a design file and print a summary")
    p_validate.add_argument("design", help="design file (JSON)")
    p_validate.set_defaults(func=cmd_validate_design)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 for --help.
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    # An output path that cannot name a new or existing file fails before
    # any input is read, rather than after a full ingest and check.
    out = getattr(args, "out", None)
    if out == "":
        return _fail("--out must name a file, got an empty path")
    if out is not None and Path(out).is_dir():
        return _fail(f"cannot write {out}: it is a directory")
    if out is not None and not Path(out).parent.is_dir():
        return _fail(f"cannot write {out}: no such directory {Path(out).parent}")
    return args.func(args)


def entrypoint() -> None:
    status = main()
    # Frozen, what the run leaves is skipped by the collections the
    # interpreter runs as it exits; its exit handlers still run.
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
