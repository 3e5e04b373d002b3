"""The benchmark in ``perfbench/`` drives confcheck through its public names.
This reads the benchmark's source, without changing it, and checks that every
confcheck name it uses still exists, so a rename in the package fails here
and not first in a benchmark run; it also runs the benchmark's smoke mode,
so a change that breaks a workload or its output checks fails here too."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))

# ``confcheck.X`` inside a string: the code a benchmark child runs with
# ``python -c`` and the module it runs with ``python -m``.
_DOTTED_IN_TEXT = re.compile(r"\bconfcheck((?:\.[A-Za-z_]\w*)+)")


def _resolve(dotted: str) -> object:
    """The object ``confcheck.<dotted>`` names, importing submodules on the
    way; raises ``AttributeError`` or ``ImportError`` when there is none."""
    target: object = importlib.import_module("confcheck")
    path = "confcheck"
    for part in dotted.split("."):
        path += f".{part}"
        if hasattr(target, part):
            target = getattr(target, part)
        elif importlib.util.find_spec(path) is not None:
            target = importlib.import_module(path)
        else:
            raise AttributeError(f"{path} does not exist")
    return target


def _uses(tree: ast.AST) -> "tuple[set[str], set[tuple[str, str]]]":
    """The dotted confcheck names a module uses (without the ``confcheck.``
    prefix), and the (callable, keyword) pairs of its calls into confcheck."""
    # Local name -> the dotted confcheck name it is bound to by an import.
    bound: "dict[str, str]" = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "confcheck" or alias.name.startswith("confcheck."):
                    bound[(alias.asname or alias.name).split(".")[0]] = ""
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "confcheck":
            prefix = node.module[len("confcheck."):] if "." in node.module else ""
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{prefix}.{alias.name}".lstrip(".")

    def dotted(node: ast.AST) -> "str | None":
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in bound:
            return None
        return ".".join(part for part in (bound[node.id], *reversed(parts)) if part)

    names = {name for name in bound.values() if name}
    keywords = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = dotted(node)
            if name:
                names.add(name)
        elif isinstance(node, ast.Call):
            name = dotted(node.func)
            if name:
                keywords.update((name, keyword.arg) for keyword in node.keywords if keyword.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(match.group(1)[1:] for match in _DOTTED_IN_TEXT.finditer(node.value))
    return names, keywords


USES = {path.name: _uses(ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in SOURCES}


def test_benchmark_sources_found():
    assert {"run.py", "inputs.py", "traced.py"} <= set(USES)
    names, keywords = USES["traced.py"]
    # The collection sees the calls the traced pipeline makes.
    assert "ingest.parse_trace_document" in names
    assert ("model.ObservedSpan", "parent_span_id") in keywords


@pytest.mark.parametrize(
    "module, name",
    sorted((module, name) for module, (names, _) in USES.items() for name in names),
)
def test_every_name_the_benchmark_uses_exists(module, name):
    _resolve(name)


@pytest.mark.parametrize(
    "module, name, keyword",
    sorted((module, name, keyword) for module, (_, keywords) in USES.items() for name, keyword in keywords),
)
def test_every_keyword_the_benchmark_passes_is_accepted(module, name, keyword):
    parameters = inspect.signature(_resolve(name)).parameters
    assert keyword in parameters or any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values())


def test_smoke_run_passes():
    """``run.py --smoke``: every workload on tiny inputs, each output checked."""
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
