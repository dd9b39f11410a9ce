"""Structure of the package: what the CLI loads, and what reaches each name.

The name ratchet lists the top-level public functions and classes of
`src/hslg_lab` that no code in the package or the benchmark refers to.  A
reference is an identifier, an attribute, an imported name or its alias,
or a string constant equal to the name (the `getattr` route that
`bench/traced.py` takes), in another package module, in `bench/*.py`, or
in its own module outside its definition.  A word in a docstring or a
comment is not one.  A new API that only the tests call fails here.

The method ratchet lists the public methods and properties of the classes
of `src/hslg_lab` whose name appears as a word nowhere in the package or
`bench/*.py` outside the method's own definition.  It matches by name, so
a method that shares its name with another class's reached method hides
an unreached twin, as `weight_fraction` once did across the two
environment classes: the scan cannot see it.

The option ratchet lists the parameters with defaults of public functions
and methods that no call in the package or the benchmark supplies, by
keyword or by position.  An option that only ever takes its default fails
here: it belongs in a module constant.

The field ratchet lists the fields of the dataclasses and NamedTuples of
`src/hslg_lab` that the package and `bench/*.py` never read, either as
`.field` or by the quoted name (the `getattr` route).  A value that is
computed and stored but never read fails here.

The first three lists are empty, and new entries need a caller instead.
The field list holds `Interval.lo` and `Interval.hi`: `stats.bootstrap_ci`
builds intervals that only the benchmark's probe draws, so the two fields
go with the bootstrap cut, which needs the next change to the benchmark.

The scipy ratchet: no module of `src/hslg_lab` imports scipy, and neither
`import hslg_lab.cli` nor any experiment (`pinning`, `walk` in both
flavors, `quenched`, `fluct`, `lln`) at its config in
tests/test_pinned_outputs.py loads a scipy module.  scipy stays a test
dependency: the tests use it as an independent reference.
"""
import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

from hslg_lab.experiments import EXPERIMENTS
from test_pinned_outputs import CASES

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hslg_lab"

UNREACHED: dict[str, set[str]] = {}
UNREACHED_METHODS: set[str] = set()
UNSET_OPTIONS: set[str] = set()
UNREAD_FIELDS = {"stats.Interval.lo", "stats.Interval.hi"}


def _references(node: ast.AST) -> set[str]:
    """Every name the code under `node` refers to: identifiers, attributes,
    imported names and their aliases, and string constants."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.update(n for n in (sub.name, sub.asname) if n)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unreached_names(package: pathlib.Path = PACKAGE,
                    others: pathlib.Path = ROOT / "bench") -> dict[str, set[str]]:
    """Module stem -> the public top-level functions and classes of the
    modules in `package` that no code refers to outside their definitions;
    the modules in `others` count as callers."""
    modules = sorted(package.glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in modules + sorted(others.glob("*.py"))}
    refs = {p: _references(t) for p, t in trees.items()}
    out: dict[str, set[str]] = {}
    for path in modules:
        elsewhere = set().union(*(r for p, r in refs.items() if p != path))
        for node in trees[path].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name in elsewhere):
                continue
            if not any(node.name in _references(other)
                       for other in trees[path].body if other is not node):
                out.setdefault(path.stem, set()).add(node.name)
    return out


def test_unreached_names_match_the_allowlist():
    assert unreached_names() == UNREACHED


def test_a_name_only_in_prose_is_unreached(tmp_path):
    (tmp_path / "lonely.py").write_text(
        '"""`orphan` is named in this docstring and the comment below."""\n'
        "# orphan()\n"
        "def orphan():\n    return 0\n\n\n"
        "def by_string():\n    return 1\n\n\n"
        "def used():\n    return 2\n", encoding="utf-8")
    callers = tmp_path / "callers"
    callers.mkdir()
    (callers / "caller.py").write_text(
        '"""Calls orphan."""\n'
        "import lonely\n"
        "from lonely import used as u\n"
        "f = getattr(lonely, 'by_string')\n", encoding="utf-8")
    assert unreached_names(tmp_path, callers) == {"lonely": {"orphan"}}


def unreached_methods() -> set[str]:
    """`module.Class.method` for every public method or property named
    nowhere outside its own definition."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in sources}
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse("\n".join(lines[path]))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                word = re.compile(rf"\b{fn.name}\b")
                if not any(word.search(line)
                           for p, ls in lines.items() for k, line in enumerate(ls, 1)
                           if not (p == path and fn.lineno <= k <= fn.end_lineno)):
                    out.add(f"{path.stem}.{cls.name}.{fn.name}")
    return out


def test_unreached_methods_match_the_allowlist():
    assert unreached_methods() == UNREACHED_METHODS


def _defaulted(fn: ast.FunctionDef, is_method: bool) -> dict[str, int | None]:
    """Parameters with defaults: name -> position among the positional
    arguments a caller writes (None for keyword-only ones)."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if is_method else 0:]
    first = len(positional) - len(args.defaults)
    out = {a.arg: i for i, a in enumerate(positional) if i >= first}
    out.update((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None)
    return out


def _public_callables(tree: ast.Module):
    """(called name, definition, is_method); a constructor is called by
    its class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in sub.decorator_list)
                if sub.name == "__init__":
                    yield node.name, sub, True
                elif not sub.name.startswith("_"):
                    yield sub.name, sub, not static


def unset_options() -> set[str]:
    """`module.function(parameter)` for every default no caller overrides.

    Calls are matched by the called name, so a call of any function of that
    name counts; `**kwargs` and `*args` supply nothing.
    """
    keywords: dict[str, set[str]] = {}
    positions: dict[str, int] = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name is None:
                continue
            keywords.setdefault(name, set()).update(
                k.arg for k in node.keywords if k.arg is not None)
            plain = [a for a in node.args if not isinstance(a, ast.Starred)]
            positions[name] = max(positions.get(name, 0), len(plain))
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, fn, is_method in _public_callables(tree):
            for param, pos in _defaulted(fn, is_method).items():
                if param in keywords.get(name, ()):
                    continue
                if pos is not None and pos < positions.get(name, 0):
                    continue
                out.add(f"{path.stem}.{name}({param})")
    return out


def test_every_option_is_set_by_some_caller():
    assert unset_options() == UNSET_OPTIONS


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass (bare or called decorator) or a NamedTuple subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    names = {getattr(n, "id", None) or getattr(n, "attr", None)
             for n in decorators + cls.bases}
    return bool(names & {"dataclass", "NamedTuple"})


def unread_fields() -> set[str]:
    """`module.Class.field` for every record field that no source reads as
    `.field` or names in quotes."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in sources)
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
                continue
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    continue
                name = stmt.target.id
                if not re.search(rf"\.{name}\b|([\"']){name}\1", text):
                    out.add(f"{path.stem}.{cls.name}.{name}")
    return out


def test_unread_fields_match_the_allowlist():
    assert unread_fields() == UNREAD_FIELDS


def _run_leaves_scipy_unloaded(code: str) -> None:
    """Run `code` in a fresh interpreter and assert it exits 0 with no
    scipy module loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("HSLG_LAB_SEED", None)
    probe = (code + "; import sys; print('scipy modules:', "
             "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "scipy modules: []"


def test_no_module_imports_scipy():
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                importers.add(path.stem)
    assert importers == set()


def test_cli_import_leaves_scipy_unloaded():
    _run_leaves_scipy_unloaded("import hslg_lab.cli")


EXPERIMENT_CASES = sorted(n for n in CASES if n.startswith("experiment_"))


@pytest.mark.parametrize("name", EXPERIMENT_CASES)
def test_experiments_run_without_scipy(name, tmp_path):
    argv = CASES[name][0] + ["--out", str(tmp_path / "out.csv")]
    _run_leaves_scipy_unloaded(
        f"import hslg_lab.cli; rc = hslg_lab.cli.main({argv!r}); assert rc == 0, rc")


def test_every_experiment_is_run_without_scipy():
    assert {CASES[n][0][1] for n in EXPERIMENT_CASES} == set(EXPERIMENTS)
