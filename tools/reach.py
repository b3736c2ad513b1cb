#!/usr/bin/env python3
"""List the ``src/`` functions that no entry point executes.

Runs the repository's entry points in three cumulative tiers and prints,
for each tier, every function under ``src/repro`` whose code never
received a call event, grouped by module:

1. ``bench`` (the ``--smoke`` suite and the four seed-3 traced
   ``--workload`` runs) and every ``examples/*.py``;
2. tier 1 plus every E-series experiment (``benchmarks/bench_*.py``) in
   its smoke configuration;
3. tier 2 plus the tier-1 suite (``tests/``).

Tracing is ``sys.settrace`` with call events only: the trace function
records the code object and returns ``None``, so no line events are
generated.  It is installed by a generated ``sitecustomize`` module on
``PYTHONPATH``, so child processes (the ``bench`` children) are traced
too.  Each unreached function is tagged ``[stub]`` (its body only raises
``NotImplementedError`` or does nothing) or ``[dunder]``.  Stdlib only:

    python tools/reach.py

A report, not a gate: it always exits 0.  An entry point that fails is
named in its tier's report and its reach still counts; the tests and
runs themselves are gated elsewhere.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
WORKLOADS = ("steady-monitored", "unmonitored-stream", "burst-monitored-4c", "storm-attacked")

SITECUSTOMIZE = """\
import atexit, os, sys, threading

_codes = set()


def _trace(frame, event, arg):
    _codes.add(frame.f_code)


def _dump():
    sys.settrace(None)
    src = os.environ["REACH_SRC"]
    with open(os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.txt"), "a") as out:
        for code in _codes:
            if code.co_filename.startswith(src):
                out.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")


atexit.register(_dump)
threading.settrace(_trace)
sys.settrace(_trace)
"""

#: One entry point: its argv and the environment variables it adds.
Command = tuple[list[str], dict[str, str]]


def tiers(scratch: str) -> list[tuple[str, list[Command]]]:
    python = sys.executable
    out = ["--out", os.path.join(scratch, "result.json")]
    bench: list[Command] = [([python, "-m", "bench", "--smoke", *out], {})]
    for workload in WORKLOADS:
        single = ["--workload", workload, "--seed", "3", "--seconds", "10", "--trace", "1"]
        bench.append(([python, "-m", "bench", *single, *out], {}))
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        bench.append(([python, str(example)], {}))
    pytest = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    experiments = sorted(str(path) for path in (REPO_ROOT / "benchmarks").glob("bench_*.py"))
    return [
        ("bench + examples", bench),
        ("+ E-series", [([*pytest, *experiments], {"REPRO_BENCH_SMOKE": "1"})]),
        ("+ tier-1", [(pytest, {})]),
    ]


def functions() -> dict[tuple[str, int], tuple[str, str, int, str]]:
    """``(file, first line) → (module, qualified name, body lines, tag)``."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code starts at its first decorator.
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                lines = child.end_lineno - child.body[0].lineno + 1
                name = f"{prefix}{child.name}"
                module = str(path.relative_to(SRC))
                found[(str(path), first)] = (module, name, lines, tag(child))
                visit(child, path, f"{name}.<locals>.")

    for path in sorted((SRC / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def tag(node: ast.FunctionDef) -> str:
    if node.name.startswith("__") and node.name.endswith("__"):
        return " [dunder]"
    # Inert statements: docstrings, ``...``, ``pass`` and a bare ``return``.
    body = [
        statement
        for statement in node.body
        if not isinstance(statement, ast.Pass)
        and not (isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant))
        and not (isinstance(statement, ast.Return) and statement.value is None)
    ]
    if not body:
        return " [stub]"
    if len(body) == 1 and isinstance(body[0], ast.Raise):
        raised = body[0].exc
        raised = raised.func if isinstance(raised, ast.Call) else raised
        if isinstance(raised, ast.Name) and raised.id == "NotImplementedError":
            return " [stub]"
    return ""


def reached(dumps: Path) -> set[tuple[str, int]]:
    seen = set()
    for dump in dumps.glob("*.txt"):
        for line in dump.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            seen.add((filename, int(first)))
    return seen


def main() -> None:
    table = functions()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hook, dumps = Path(scratch, "hook"), Path(scratch, "dumps")
        hook.mkdir()
        dumps.mkdir()
        (hook / "sitecustomize.py").write_text(SITECUSTOMIZE)
        paths = [str(hook), str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, REACH_SRC=str(SRC), REACH_OUT=str(dumps))
        env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
        for label, commands in tiers(scratch):
            failed = []
            for command, extra in commands:
                done = subprocess.run(
                    command, cwd=REPO_ROOT, env={**env, **extra}, stdout=subprocess.DEVNULL
                )
                if done.returncode != 0:
                    failed.append(f"exit {done.returncode}: {' '.join(command)}")
            seen = reached(dumps)
            missing = sorted(info for key, info in table.items() if key not in seen)
            lines = sum(info[2] for info in missing)
            print(f"== {label}: {len(missing)} functions, {lines} body lines unreached")
            for failure in failed:
                print(f"  entry point failed, {failure}")
            module = None
            for name_module, name, body_lines, kind in missing:
                if name_module != module:
                    module = name_module
                    print(f"  {module}")
                print(f"    {name} ({body_lines}){kind}")


if __name__ == "__main__":
    main()
