"""Structure of the package: what the CLI loads, and what reaches each name.

The ratchet lists the top-level public functions and classes of
`src/hslg_lab` that nothing in the package or the benchmark names.  A name
counts as reached when it appears as a word in another package module, in
`bench/*.py`, or anywhere in its own module beyond its definition.  A new
API that only the tests call fails here; wiring one of the listed names
into the package means taking it off the list.
"""
import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hslg_lab"

UNREACHED = {
    "multilayer": {"diag_avoiding_exact", "diag_avoiding_log_table"},
    "polymer": {"point_to_line", "path_code"},
    "umap": {"apply_umap_2k", "count_preimages"},
    "walk": {"increment_density", "maximal_inequality_check",
             "double_limit_check"},
}

HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse",
               "scipy.linalg")


def _words(path: pathlib.Path) -> list[str]:
    return re.findall(r"[A-Za-z_]\w*", path.read_text(encoding="utf-8"))


def unreached_names() -> dict[str, set[str]]:
    modules = sorted(PACKAGE.glob("*.py"))
    words = {p: _words(p) for p in modules + sorted((ROOT / "bench").glob("*.py"))}
    out: dict[str, set[str]] = {}
    for path in modules:
        elsewhere = {w for p, ws in words.items() if p != path for w in ws}
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("_") or name in elsewhere
                    or words[path].count(name) > 1):
                continue
            out.setdefault(path.stem, set()).add(name)
    return out


def test_unreached_names_match_the_allowlist():
    assert unreached_names() == UNREACHED


def test_cli_import_leaves_heavy_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    probe = ("import sys, hslg_lab.cli; "
             f"print(','.join(m for m in {HEAVY_SCIPY!r} if m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == ""
