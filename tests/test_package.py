import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "swkb"


def test_no_assert_statements_in_package():
    # python -O strips asserts, so no check in the package may rely on one
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sorted(SRC.glob("*.py")), "package sources not found"
    assert found == []


def test_cli_does_not_import_scipy_optimize():
    # levels are solved without a scipy root finder; importing one would
    # load about four times as many scipy modules at start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, swkb.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_cli_does_not_load_numpy_polynomial():
    # turning points come from the companion matrix and phi from np.polyval,
    # so no run pays numpy.polynomial's import (about 6 ms and 0.7 MB)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = "import sys, swkb.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_commands_import_nothing_after_the_cli(tmp_path):
    # the package needs no scipy, and everything a command uses is loaded
    # with swkb.cli, so that no run pays for an import (numpy's lazy
    # np.polynomial, argparse's gettext -> locale)
    config = tmp_path / "cubic.json"
    config.write_text('{"coefficients": [0.0, 0.0, 0.0, 0.3333333333333333], "hbar": 1.0}')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    code = f"""
import contextlib, io, sys
import swkb.cli
print(sorted(m for m in sys.modules if m.startswith("scipy")))
before, config = set(sys.modules), {str(config)!r}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [swkb.cli.main(argv) for argv in (
        ["verify", "--order", "2"],
        ["quantize", "--config", config, "--order", "2", "--levels", "2"],
        ["compare", "--config", config, "--orders", "0,2", "--levels", "2"],
        ["oracle", "--config", config, "--count", "3"],
    )]
print(codes, sorted(set(sys.modules) - before))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.splitlines() == ["[]", "[0, 0, 0, 0] []"]


def test_every_module_constant_is_read():
    # a module-level ALL_CAPS name that nothing in the package reads is a
    # knob that does nothing
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))}
    defined = {
        f"{path.relative_to(SRC)}:{target.id}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id)
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert defined, "no module constants found"
    assert sorted(d for d in defined if d.split(":")[1] not in read) == []


def test_every_import_is_read():
    # no linter is installed, so this is pyflakes' F401 on the package: a
    # name that a module imports and never reads is a leftover, unless its
    # line says why with "# noqa: F401"
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text, filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    found.append(f"{path.name}:{alias.lineno}:{name}")
    assert sorted(SRC.glob("*.py")), "package sources not found"
    assert found == []


def test_every_module_is_imported_by_the_package():
    # a module that only tests import is dead code; the cli is the entry
    # point and __init__ the package itself
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    imported = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # "from . import x" and "from swkb import x" name modules,
                # "from .x import y" and "from swkb.x import y" the module x
                from_package = node.module in (None, "swkb")
                modules = [alias.name for alias in node.names] if from_package else [node.module]
            else:
                continue
            imported.update({m.removeprefix("swkb.") for m in modules} - {name})
    assert len(trees) > 2, "package sources not found"
    assert sorted(set(trees) - imported - {"cli", "__init__"}) == []


# package API that only tests read, each for a reason: the integrand tables'
# sums are compared against Expression.evaluate, one monomial at a time
READ_BY_TESTS_ONLY = {"algebra.py:Expression.evaluate"}


def _package_trees():
    """The syntax trees of the package and of its benchmark, by path: the
    code whose reads keep a package name alive.  Tests do not count, so API
    that only tests read shows up unless ``READ_BY_TESTS_ONLY`` names it."""
    root = SRC.parents[1]
    paths = sorted(p for d in ("src", "perfbench") for p in (root / d).rglob("*.py"))
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_every_method_is_read():
    # a method or property of a package class that nothing in the package
    # or its benchmark reads as an attribute is dead code
    trees = _package_trees()
    defined = {
        f"{path.relative_to(SRC)}:{cls.name}.{node.name}"
        for path, tree in trees.items()
        if SRC in path.parents
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    assert defined, "no methods found"
    assert READ_BY_TESTS_ONLY <= defined
    assert sorted(d for d in defined - READ_BY_TESTS_ONLY
                  if d.rsplit(".", 1)[1] not in read) == []


def test_every_function_is_read():
    # a module-level function or class of the package that nothing in the
    # package or its benchmark loads by name or as an attribute is dead code
    trees = _package_trees()
    defined = {
        f"{path.relative_to(SRC)}:{node.name}"
        for path, tree in trees.items()
        if SRC in path.parents
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert defined, "no functions found"
    assert sorted(d for d in defined - READ_BY_TESTS_ONLY if d.split(":")[1] not in read) == []


def test_verify_runs_the_same_under_python_O():
    # python -O strips asserts: the run must print the same lines and its
    # negative control must still fail
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)

    cmd = ["-m", "swkb.cli", "verify", "--order", "6"]
    plain, optimized, mutated = run(*cmd), run("-O", *cmd), run("-O", *cmd, "--mutate")
    assert plain.returncode == optimized.returncode == 0
    assert "PASS" in plain.stdout and optimized.stdout == plain.stdout
    assert mutated.returncode == 1 and "FAIL" in mutated.stdout
