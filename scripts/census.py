#!/usr/bin/env python3
"""Reachability and option census: what of ``src/repro`` does the system use?

Runs the system's surface once under ``sys.setprofile`` and makes two
passes over what it saw.  The surface is:

- every argv of the CLI golden matrix (``tests/test_cli_golden.py``);
- every experiment driver's default ``run()``;
- every script under ``examples/``;
- one seed-0 cycle of each perfbench workload;
- ``pytest benchmarks`` (the paper-claim assertions).

*Functions.*  Every function of the package that none of the surface
calls, outermost ``def`` only, with its line count.  A function is
matched by file, name and first line: a runtime code object matches a
``def`` when its ``co_firstlineno`` lies between the first decorator
and the ``def`` line, so Python versions that number decorated
functions differently agree.

*Options (knobs).*  Every defaulted parameter of a package function
and every defaulted dataclass field, keyed ``path:qualname.param``,
that no call sets to anything but its default.  Profiling starts
before the package is imported, so module-level constructions count;
a closure's defaults are read from its own function object; an
argument equal to the default does not count, a numpy argument always
does.  Only knobs of callables the surface runs are judged (an unrun
function is the first pass's business).

``scripts/census_allow.txt`` lists what is unused on purpose.  A
function line is ``path:qualname  reason``; a knob line is
``path:qualname.param  reason  witness`` with one of five reasons,
each checked against its witness:

- ``flag``    a CLI flag feeds it; the witness is the flag (``--x``),
  which ``repro/cli.py`` must define;
- ``spec``    a spec file or preset sets it through ``repro.specs``;
  the witness is the loader's ``path:qualname``, whose return
  annotation names the spec dataclasses (and, transitively, those
  their fields name).  A dataclass field's own class must be one of
  them; a parameter must share a name with one of their fields or
  have one of them as its annotated type;
- ``sweep``   a driver grid parameter that tests and perfbench narrow;
  the witness is the knob's own driver, ``path:qualname`` under
  ``repro/experiments``;
- ``paper``   the paper names it; the witness is ``<ref>: <what>``,
  and PAPER.md must cite ``<ref>`` (``Fig. 15``, ``§6``, ...);
- ``oracle``  a reference under ``tests/oracles`` takes or reads it;
  the witness is that file, which must mention the parameter.

``--check`` fails on an unreached function or never-varied knob that
is not listed, on a listed one that is now reached or varied, on a
listed one that no longer exists, and on a knob whose witness does not
hold.  Without ``--check`` it prints both lists, knobs in
ready-to-paste allowlist form.

Run:  PYTHONPATH=src python scripts/census.py            # list
      PYTHONPATH=src python scripts/census.py --check    # gate
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import gc
import io
import os
import re
import runpy
import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "census_allow.txt"
#: The package, the repo root (``tests``) and ``perfbench`` (``workloads``).
IMPORT_ROOTS = (SRC, ROOT, ROOT / "perfbench")
KNOB_REASONS = ("flag", "spec", "sweep", "paper", "oracle")


class Def(NamedTuple):
    """One ``def`` of the package, keyed ``path:qualname``."""

    key: str
    name: str
    first: int  # first decorator line (the ``def`` line if undecorated)
    line: int  # the ``def`` line
    lines: int  # first decorator to last body line
    parent: str  # key of the enclosing def, "" at class or module level
    returns: str  # the return annotation's source, "" if none


class Knob(NamedTuple):
    """One defaulted parameter or dataclass field, keyed
    ``path:qualname.param``; ``owner`` is the def's or class's key."""

    key: str
    owner: str
    param: str
    annotation: str  # the annotation's source, "" if none


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _field_knob(stmt: ast.stmt) -> Optional[str]:
    """The field a dataclass body statement defines with a default."""
    if not (isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name) and stmt.value):
        return None
    if "ClassVar" in ast.unparse(stmt.annotation):
        return None
    value = stmt.value
    if isinstance(value, ast.Call) and \
            ast.unparse(value.func).split(".")[-1] == "field":
        words = {kw.arg: kw.value for kw in value.keywords}
        init = words.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        if "default" not in words and "default_factory" not in words:
            return None
    return stmt.target.id


def _is_frozen(node: ast.ClassDef) -> bool:
    return any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
               and kw.value.value for deco in node.decorator_list
               if isinstance(deco, ast.Call) for kw in deco.keywords)


def _source(node: Optional[ast.expr]) -> str:
    return "" if node is None else ast.unparse(node)


def _stored_attributes(trees: List[ast.AST]) -> Set[str]:
    """Attribute names the package assigns outside an ``__init__``:
    a mutable dataclass's field among them is state (a counter), not
    a knob."""
    names: Set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and \
                    child.name == "__init__":
                continue
            if isinstance(child, ast.Attribute) and \
                    isinstance(child.ctx, ast.Store):
                names.add(child.attr)
            visit(child)

    for tree in trees:
        visit(tree)
    return names


#: ``{path:qualname: {field: annotation source}}`` of every dataclass.
Classes = Dict[str, Dict[str, str]]


def package_census(package: Path = PACKAGE, src: Path = SRC
                   ) -> Tuple[List[Def], List[Knob], Classes]:
    """Every function and method defined under ``package``, every
    defaulted parameter and dataclass field that is not state, and
    every dataclass's fields."""
    defs: List[Def] = []
    knobs: List[Knob] = []
    classes: Classes = {}
    paths = sorted(package.rglob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in paths]
    state = _stored_attributes(trees)
    for path, tree in zip(paths, trees):
        rel = path.relative_to(src).as_posix()

        def walk(node: ast.AST, prefix: str, parent: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    key = f"{rel}:{qualname}"
                    defs.append(Def(key, child.name, first, child.lineno,
                                    child.end_lineno - first + 1, parent,
                                    _source(child.returns)))
                    args = child.args
                    positional = args.posonlyargs + args.args
                    named = positional[len(positional)
                                       - len(args.defaults):]
                    named += [arg for arg, default in
                              zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                    knobs.extend(Knob(f"{key}.{arg.arg}", key, arg.arg,
                                      _source(arg.annotation))
                                 for arg in named)
                    walk(child, qualname + ".<locals>.", key)
                elif isinstance(child, ast.ClassDef):
                    key = f"{rel}:{prefix}{child.name}"
                    if _is_dataclass(child):
                        classes[key] = {
                            stmt.target.id: _source(stmt.annotation)
                            for stmt in child.body
                            if isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)}
                        for stmt in child.body:
                            name = _field_knob(stmt)
                            if name and (_is_frozen(child)
                                         or name not in state):
                                knobs.append(Knob(
                                    f"{key}.{name}", key, name,
                                    _source(stmt.annotation)))
                    walk(child, prefix + child.name + ".", parent)
                else:
                    walk(child, prefix, parent)

        walk(tree, "", "")
    return defs, knobs, classes


def _class_name(key: str) -> str:
    return key.split(":", 1)[1].split(".")[-1]


def _spec_classes(annotation: str, classes: Classes) -> Set[str]:
    """The keys of the dataclasses ``annotation`` names, and of those
    their fields' annotations name, transitively.  A name matches every
    dataclass so named."""
    by_name: Dict[str, List[str]] = defaultdict(list)
    for key in classes:
        by_name[_class_name(key)].append(key)
    reached: Set[str] = set()
    pending = re.findall(r"\w+", annotation)
    while pending:
        for key in by_name.get(pending.pop(), ()):
            if key not in reached:
                reached.add(key)
                for field_annotation in classes[key].values():
                    pending += re.findall(r"\w+", field_annotation)
    return reached


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


# ----------------------------------------------------------------------
# The profiled run
CodeKey = Tuple[str, str, int]  # (path, name, first line)


def _varies(value, default) -> bool:
    if type(value).__module__.split(".")[0] == "numpy":
        return True
    try:
        return not bool(value == default)
    except Exception:  # an uncomparable value is not the default
        return True


class _Functions:
    """Maps a code object to the function object that runs it."""

    def __init__(self) -> None:
        self.by_code: Dict[types.CodeType, Callable] = {}
        self.walked: Dict[int, int] = {}  # module id -> namespace size

    def _add(self, value, seen: Set[int]) -> None:
        if id(value) in seen:
            return
        seen.add(id(value))
        for inner in (getattr(value, "__func__", None),
                      getattr(value, "fget", None),
                      getattr(value, "func", None),
                      getattr(value, "__wrapped__", None)):
            if inner is not None:
                self._add(inner, seen)
        if isinstance(value, types.FunctionType):
            self.by_code.setdefault(value.__code__, value)
        elif isinstance(value, type):
            for member in list(vars(value).values()):
                self._add(member, seen)

    def find(self, code: types.CodeType,
             module_name: Optional[str]) -> Optional[Callable]:
        module = sys.modules.get(module_name or "")
        if code not in self.by_code and module is not None:
            namespace = dict(vars(module))
            if self.walked.get(id(module)) != len(namespace):
                self.walked[id(module)] = len(namespace)
                seen: Set[int] = set()
                for value in namespace.values():
                    self._add(value, seen)
        if code not in self.by_code:  # a closure
            for ref in gc.get_referrers(code):
                if isinstance(ref, types.FunctionType):
                    self.by_code[code] = ref
                    break
        return self.by_code.get(code)


def _defaults(function: Callable,
              fields: Dict[str, dataclasses.Field]) -> Dict[str, object]:
    """``{parameter: default}`` of a function; a dataclass field's
    factory is called for its default."""
    code = function.__code__
    positional = code.co_varnames[:code.co_argcount]
    values = function.__defaults__ or ()
    table = dict(zip(positional[len(positional) - len(values):], values))
    table.update(function.__kwdefaults__ or {})
    for name, field in fields.items():
        if name in table and field.default_factory is not \
                dataclasses.MISSING:
            table[name] = field.default_factory()
    return table


class Run(NamedTuple):
    """What one profiled run of the surface saw."""

    reached: Set[CodeKey]  # every package function called
    varied: Dict[CodeKey, Set[str]]  # ... and its parameters set
    built: Dict[str, Set[str]]  # dataclass key -> fields set


def profiled_run(surface: Sequence[Callable[[], None]],
                 knobbed: Set[CodeKey], package: Path = PACKAGE,
                 src: Path = SRC) -> Run:
    """Run ``surface`` under ``sys.setprofile`` and record which package
    functions it calls, which defaulted parameters of the ``knobbed``
    ones any call sets off-default, and which dataclass fields any
    construction does."""
    prefix = str(package) + os.sep
    functions = _Functions()
    seen: Set[types.CodeType] = set()
    #: code -> ``(owner, ((param, default), ...))`` still unvaried;
    #: owner is a ``CodeKey`` or, for a dataclass ``__init__``, the
    #: dataclass's ``path:qualname`` per field.
    pending: Dict[types.CodeType, Tuple] = {}
    varied: Dict[object, Set[str]] = defaultdict(set)
    built: Dict[str, Set[str]] = {}

    def rel(filename: str) -> str:
        return Path(filename).relative_to(src).as_posix()

    def resolve(frame, code: types.CodeType) -> Tuple:
        if code.co_filename.startswith(prefix):
            owner = (rel(code.co_filename), code.co_name,
                     code.co_firstlineno)
            function = owner in knobbed and functions.find(
                code, frame.f_globals.get("__name__"))
            if not function:
                return ()
            return tuple((owner, name, default) for name, default in
                         _defaults(function, {}).items())
        if code.co_name != "__init__" or code.co_filename != "<string>" \
                or not code.co_argcount:
            return ()
        cls = next((klass for klass in
                    type(frame.f_locals[code.co_varnames[0]]).__mro__
                    if getattr(vars(klass).get("__init__"), "__code__",
                               None) is code), None)
        module = sys.modules.get(getattr(cls, "__module__", ""))
        if not (dataclasses.is_dataclass(cls) and str(
                getattr(module, "__file__", "")).startswith(prefix)):
            return ()
        homes = {}  # field -> key of the dataclass that declares it
        for klass in reversed(cls.__mro__):
            if dataclasses.is_dataclass(klass):
                for name in vars(klass).get("__annotations__", {}):
                    homes[name] = (f"{rel(sys.modules[klass.__module__].__file__)}"
                                   f":{klass.__qualname__}")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for home in set(homes.values()):
            built.setdefault(home, set())
        return tuple((homes[name], name, default) for name, default in
                     _defaults(vars(cls)["__init__"], fields).items()
                     if name in homes)

    def record(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        seen.add(code)
        todo = pending.get(code)
        if todo is None:
            todo = pending[code] = resolve(frame, code)
        if todo:
            local = frame.f_locals
            hit = False
            for owner, name, default in todo:
                value = local.get(name, default)
                if value is not default and _varies(value, default):
                    varied[owner].add(name)
                    hit = True
            if hit:
                pending[code] = tuple(item for item in todo
                                      if item[1] not in varied[item[0]])

    threading.setprofile(record)
    sys.setprofile(record)
    try:
        for run in surface:
            run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    for key, names in varied.items():
        if isinstance(key, str):
            built[key] |= names
    return Run({(rel(code.co_filename), code.co_name, code.co_firstlineno)
                for code in seen if code.co_filename.startswith(prefix)},
               {key: names for key, names in varied.items()
                if not isinstance(key, str)},
               built)


# ----------------------------------------------------------------------
# The two passes
def _matches(d: Def, keys) -> List[CodeKey]:
    path = d.key.split(":")[0]
    return [(path, d.name, line) for line in range(d.first, d.line + 1)
            if (path, d.name, line) in keys]


def unreached(defs: List[Def], reached: Set[CodeKey]) -> List[Def]:
    """The outermost defs with no matching runtime code object."""
    missed = [d for d in defs if not _matches(d, reached)]
    missed_keys = {d.key for d in missed}
    return [d for d in missed if d.parent not in missed_keys]


def knobbed_code(defs: List[Def], knobs: List[Knob]) -> Set[CodeKey]:
    """Every code key a function with a knob may run under."""
    owners = {knob.owner for knob in knobs}
    return {(d.key.split(":")[0], d.name, line) for d in defs
            if d.key in owners for line in range(d.first, d.line + 1)}


def knob_status(defs: List[Def], knobs: List[Knob],
                run: Run) -> Dict[str, str]:
    """``{knob key: "varied" | "unvaried" | "unrun"}``."""
    by_key = {d.key: d for d in defs}
    status = {}
    for knob in knobs:
        if knob.owner in by_key:
            codes = _matches(by_key[knob.owner], run.reached)
            names = set().union(*(run.varied.get(c, set())
                                  for c in codes))
        else:
            codes = [knob.owner] if knob.owner in run.built else []
            names = run.built.get(knob.owner, set())
        status[knob.key] = ("unrun" if not codes else
                            "varied" if knob.param in names else
                            "unvaried")
    return status


def read_allowlist(path: Path = ALLOWLIST) -> Dict[str, Tuple[str, str]]:
    """``{key: (reason, witness)}``; a function line has no witness."""
    allowed: Dict[str, Tuple[str, str]] = {}
    for number, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 2)
        if len(fields) < 2 or (len(fields) == 3
                               and fields[1] not in KNOB_REASONS):
            raise SystemExit(f"{path.name}:{number}: expected "
                             f"'path:qualname  reason' or "
                             f"'path:qualname.param  reason  witness', "
                             f"got {raw!r}")
        allowed[fields[0]] = (fields[1], fields[2] if len(fields) == 3
                              else "")
    return allowed


def witness_problem(knob: Knob, reason: str, witness: str,
                    defs: Dict[str, Def], classes: Classes,
                    root: Path = ROOT) -> str:
    """Why ``witness`` does not back ``knob``'s ``reason``, or ``""``.
    ``defs`` holds the package's defs by key, ``classes`` its
    dataclasses' fields (:func:`package_census`)."""
    def text(relative: str) -> str:
        path = root / relative
        return path.read_text("utf-8") if path.is_file() else ""

    if reason == "flag":
        ok = witness.startswith("--") and \
            f'"{witness}"' in text("src/repro/cli.py")
    elif reason == "spec":
        loader = defs.get(witness)
        specs = _spec_classes(loader.returns if loader else "", classes)
        if knob.owner in classes:  # a field: its own class is loaded
            ok = knob.owner in specs
        else:  # a parameter: a loaded field or its type is the spec's
            ok = any(knob.param in classes[key] for key in specs) or \
                not {_class_name(key) for key in specs}.isdisjoint(
                    re.findall(r"\w+", knob.annotation))
    elif reason == "sweep":
        ok = witness == knob.owner and \
            witness.startswith("repro/experiments/")
    elif reason == "paper":
        ok = ":" in witness and \
            witness.split(":", 1)[0] in text("PAPER.md")
    else:
        ok = witness.startswith("tests/oracles/") and \
            knob.param in text(witness)
    return "" if ok else f"{reason} witness does not hold: {knob.key} " \
                         f"({witness!r})"


def check(defs: List[Def], missed: List[Def], knobs: List[Knob],
          status: Dict[str, str], allowed: Dict[str, Tuple[str, str]],
          classes: Classes, root: Path = ROOT) -> List[str]:
    defs_by_key = {d.key: d for d in defs}
    missed_keys = {d.key for d in missed}
    by_key = {knob.key: knob for knob in knobs}
    problems = [f"unreached and not allowlisted: {d.key} ({d.lines} lines)"
                for d in missed if d.key not in allowed]
    problems += [f"never varied and not allowlisted: {key}"
                 for key, state in status.items()
                 if state == "unvaried" and key not in allowed]
    for key, (reason, witness) in allowed.items():
        if witness:
            if key not in by_key:
                problems.append(f"allowlisted but no longer defined: {key}")
            elif status[key] != "unvaried":
                problems.append(f"allowlisted but now {status[key]}: {key}")
            else:
                problem = witness_problem(by_key[key], reason, witness,
                                          defs_by_key, classes, root)
                if problem:
                    problems.append(problem)
        elif key not in defs_by_key:
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
    defs, knobs, classes = package_census()
    run = profiled_run(SURFACE, knobbed_code(defs, knobs))
    missed = unreached(defs, run.reached)
    status = knob_status(defs, knobs, run)
    unvaried = [key for key, state in status.items() if state == "unvaried"]
    summary = (f"census: {len(defs)} functions, {len(missed)} unreached "
               f"({sum(d.lines for d in missed)} lines); {len(knobs)} "
               f"knobs, {len(unvaried)} never varied")
    allowed = read_allowlist()
    if not args.check:
        for d in missed:
            print(f"{d.key}  {d.lines}")
        for key in unvaried:
            if key not in allowed:
                print(f"{key}  reason?")
        print(summary)
        return 0
    problems = check(defs, missed, knobs, status, allowed, classes)
    for problem in problems:
        print(problem)
    print(summary + ("" if problems else f"; all in {ALLOWLIST.name}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
