#!/usr/bin/env python3
"""Reachability census: which functions of ``src/repro`` does the system run?

Runs the system's surface under ``sys.setprofile`` and lists every
function of the package that none of it calls, outermost ``def`` only,
with its line count.  The surface is:

- every argv of the CLI golden matrix (``tests/test_cli_golden.py``);
- every experiment driver's default ``run()``;
- every script under ``examples/``;
- one seed-0 cycle of each perfbench workload;
- ``pytest benchmarks`` (the paper-claim assertions).

A function is matched by file, name and first line: a runtime code
object matches a ``def`` when its ``co_firstlineno`` lies between the
first decorator and the ``def`` line, so Python versions that number
decorated functions differently agree.

Functions that are unreached on purpose (error paths, telemetry-on
paths, spec loading, accessors that tests read) are listed with a
one-word reason in ``scripts/census_allow.txt``, one
``path:qualname  reason`` per line.  ``--check`` fails on an unreached
function that is not listed, a listed function that now runs, and a
listed function that no longer exists.

Run:  PYTHONPATH=src python scripts/census.py            # list
      PYTHONPATH=src python scripts/census.py --check    # gate
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "census_allow.txt"
#: The package, the repo root (``tests``) and ``perfbench`` (``workloads``).
IMPORT_ROOTS = (SRC, ROOT, ROOT / "perfbench")


class Def(NamedTuple):
    """One ``def`` of the package, keyed ``path:qualname``."""

    key: str
    name: str
    first: int  # first decorator line (the ``def`` line if undecorated)
    line: int  # the ``def`` line
    lines: int  # first decorator to last body line
    parent: str  # key of the enclosing def, "" at class or module level


def package_defs() -> List[Def]:
    """Every function and method defined under ``src/repro``."""
    defs: List[Def] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def walk(node: ast.AST, prefix: str, parent: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    key = f"{rel}:{qualname}"
                    defs.append(Def(key, child.name, first, child.lineno,
                                    child.end_lineno - first + 1, parent))
                    walk(child, qualname + ".<locals>.", key)
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".", parent)
                else:
                    walk(child, prefix, parent)

        walk(tree, "", "")
    return defs


# ----------------------------------------------------------------------
# The surface
@contextlib.contextmanager
def _quiet_in_tempdir() -> Iterator[None]:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                yield
        finally:
            os.chdir(cwd)


def cli_golden() -> None:
    from tests.test_cli_golden import MATRIX, run_case

    for argv in MATRIX.values():
        run_case(argv)


def drivers() -> None:
    from repro.experiments.export import default_drivers

    for driver in default_drivers().values():
        driver()


def examples() -> None:
    argv = sys.argv
    try:
        for script in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(script)]
            with _quiet_in_tempdir():
                runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv


def perfbench() -> None:
    import workloads

    for workload in workloads.WORKLOADS.values():
        ctx = workload.setup()
        for call in workload.prepare(ctx, 0):
            workloads.cold_reset()
            problems = call.check(call.run())[2]
            if problems:
                raise RuntimeError(f"perfbench {call.kind}: {problems}")


def benchmarks() -> None:
    import pytest

    with _quiet_in_tempdir():
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--benchmark-disable",
                            str(ROOT / "benchmarks")])
    if code != 0:
        raise RuntimeError(f"pytest benchmarks exited {code}")


SURFACE = (cli_golden, drivers, examples, perfbench, benchmarks)


def reached_code() -> Set[Tuple[str, str, int]]:
    """``(path, name, first line)`` of every package function the
    surface calls."""
    seen: set = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    threading.setprofile(record)
    sys.setprofile(record)
    try:
        for run in SURFACE:
            run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    return {(Path(code.co_filename).relative_to(SRC).as_posix(),
             code.co_name, code.co_firstlineno)
            for code in seen if code.co_filename.startswith(prefix)}


def unreached(defs: List[Def],
              reached: Set[Tuple[str, str, int]]) -> List[Def]:
    """The outermost defs with no matching runtime code object."""
    missed = [d for d in defs
              if not any((d.key.split(":")[0], d.name, line) in reached
                         for line in range(d.first, d.line + 1))]
    missed_keys = {d.key for d in missed}
    return [d for d in missed if d.parent not in missed_keys]


def read_allowlist() -> Dict[str, str]:
    allowed: Dict[str, str] = {}
    for number, raw in enumerate(
            ALLOWLIST.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise SystemExit(f"{ALLOWLIST.name}:{number}: expected "
                             f"'path:qualname  reason', got {raw!r}")
        allowed[fields[0]] = fields[1]
    return allowed


def check(defs: List[Def], missed: List[Def]) -> List[str]:
    allowed = read_allowlist()
    existing = {d.key for d in defs}
    missed_keys = {d.key for d in missed}
    problems = [f"unreached and not allowlisted: {d.key} ({d.lines} lines)"
                for d in missed if d.key not in allowed]
    for key in allowed:
        if key not in existing:
            problems.append(f"allowlisted but no longer defined: {key}")
        elif key not in missed_keys:
            problems.append(f"allowlisted but now reached: {key}")
    return problems


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {ALLOWLIST.name}; exit 1 on "
                             "any difference")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(entry) for entry in IMPORT_ROOTS
                    if str(entry) not in sys.path]
    defs = package_defs()
    missed = unreached(defs, reached_code())
    summary = (f"census: {len(defs)} functions, {len(missed)} unreached "
               f"({sum(d.lines for d in missed)} lines)")
    if not args.check:
        for d in missed:
            print(f"{d.key}  {d.lines}")
        print(summary)
        return 0
    problems = check(defs, missed)
    for problem in problems:
        print(problem)
    print(summary + ("" if problems else f"; all in {ALLOWLIST.name}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
