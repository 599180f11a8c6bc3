"""Package namespace and import layering.

Every library module's public names are re-exported, resolved on first
access; analytic commands load no numpy or scipy (nor dataclasses), and
no verify command loads scipy's dense or ARPACK solvers.
"""

import ast
import glob
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import truncert

LIBRARY_MODULES = (
    "bounds",
    "fock_algebra",
    "models",
    "propagate",
    "trotter",
    "verify",
    "walk_profiles",
)


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_module_names_are_package_names(module):
    mod = importlib.import_module(f"truncert.{module}")
    for name in mod.__all__:
        assert getattr(truncert, name) is getattr(mod, name)
        assert name in truncert.__all__


def test_package_all_has_no_duplicates():
    assert len(truncert.__all__) == len(set(truncert.__all__))


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


PACKAGE_FILES = glob.glob(os.path.join(REPO, "src", "truncert", "*.py"))


def _production_reads() -> tuple[set[str], set[str], str]:
    """The names and the attribute names loaded (AST Name and Attribute
    loads, so docstrings and __all__ strings do not count) by the package,
    a demo or the acceptance tests, and the text of README.md."""
    files = [
        *PACKAGE_FILES,
        *glob.glob(os.path.join(REPO, "demos", "*.py")),
        os.path.join(REPO, "tests", "test_acceptance.py"),
    ]
    names, attrs = set(), set()
    for path in files:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    with open(os.path.join(REPO, "README.md")) as fh:
        return names, attrs, fh.read()


def _unread(names, methods: bool = False) -> list[str]:
    """The names with no production reader.  A method is read only through
    an attribute load (a local variable of the same name does not count);
    any other name through either kind of load."""
    loaded, attrs, readme = _production_reads()
    if not methods:
        attrs = attrs | loaded
    return [n for n in names if n not in attrs and not re.search(rf"\b{n}\b", readme)]


def _package_trees():
    """(file name, parsed AST) of each package module."""
    for path in PACKAGE_FILES:
        with open(path) as fh:
            yield os.path.basename(path), ast.parse(fh.read())


def test_every_public_name_has_a_production_reader():
    """Each name in truncert.__all__, and each public method of a package
    class, is loaded by the package, a demo or the acceptance tests (a
    method as an attribute), or named in README.md."""
    assert _unread(truncert.__all__) == []
    method_of = {}
    for name, tree in _package_trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        method_of[node.name] = f"{name}:{cls.name}"
    assert len(method_of) > 15
    assert {name: method_of[name] for name in _unread(method_of, methods=True)} == {}


def test_every_module_function_has_a_production_reader():
    """So is every module-level function of the package, private ones
    included (not dunders): a helper only tests call is not shipped."""
    module_of = {}
    for name, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                module_of[node.name] = name
    assert len(module_of) > 50
    assert {name: module_of[name] for name in _unread(module_of)} == {}


# ---------------------------------------------------------------------------
# import layering, checked in fresh interpreters
# ---------------------------------------------------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(truncert.__file__)))

#: Runs argv lists through cli.main with stdout discarded, then prints the
#: exit codes and the numpy/scipy modules loaded, as JSON.
_CLI_PROBE = """
import contextlib, io, json, sys
import truncert, truncert.cli
from truncert import cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
print(json.dumps({"codes": codes, "heavy": heavy}))
"""


def _fresh(code: str, *args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _probe_cli(argvs: list[list[str]]) -> dict:
    return _fresh(_CLI_PROBE, json.dumps(argvs))


def test_analytic_commands_import_no_numpy_or_scipy():
    got = _probe_cli(
        [
            ["threshold", "state", "--model", "hh", "--t", "0.5,1"],
            ["threshold", "tail", "--model", "hh", "--lambda-bar", "0.3", "--gap", "0.5"],
            # the per-model profile-flag check, and its refusal
            ["threshold", "state", "--model", "u1", "--gb", "1", "--t", "0.5,1"],
            ["threshold", "state", "--model", "hh", "--gb", "1", "--t", "1"],
            ["threshold", "energy", "--model", "hh", "--n", "2"],
            ["compare", "--tpoints", "3"],
            ["sweep", "--cmd", "threshold-state", "--vary", "g=0.5,1", "--set", "t=1"],
            ["sweep", "--cmd", "compare", "--vary", "n=2,5", "--set", "tpoints=2"],
            ["sweep", "--cmd", "threshold-state", "--set", "model=dicke", "--vary", "n=2,5",
             "--set", "t=1"],
            # the grid guard still maps to exit code 2 without numpy
            ["sweep", "--cmd", "threshold-energy", "--vary", "n=2,5", "--max-rows", "1"],
        ]
    )
    assert got == {"codes": [0, 0, 0, 1, 0, 0, 0, 0, 0, 2], "heavy": []}


def test_refused_model_flags_exit_before_numpy_or_scipy():
    """A model flag the --model does not read is refused before any model is built."""
    got = _probe_cli(
        [
            ["verify", "state", "--model", "single", "--sites", "5", "--n-max", "8",
             "--t", "0.2"],
            ["verify", "ham", "--model", "single", "--gb", "1"],
            ["verify", "tail", "--model", "u1", "--n-max", "8"],
            ["verify", "trotter", "--model", "hh", "--omega-z", "2"],
            ["threshold", "ham", "--model", "u1", "--gb", "5"],
        ]
    )
    assert got == {"codes": [1, 1, 1, 1, 1], "heavy": []}


def test_sparse_verify_commands_skip_dense_and_arpack_solvers():
    """Ground states come from numpy (dense eigh, or the package's Lanczos),
    so not even the tail checks load scipy.linalg or ARPACK."""
    got = _probe_cli(
        [
            ["verify", "trotter", "--model", "hh", "--n-max", "13", "--lambda0", "1",
             "--taus", "0.2,0.1"],
            ["verify", "state", "--model", "hh", "--n-max", "3", "--lambda0", "1",
             "--t", "0.2", "--deltas", "2"],
            ["verify", "all"],
            ["verify", "tail", "--model", "hh", "--n-max", "12"],
        ]
    )
    assert got["codes"] == [0, 0, 0, 0]
    assert "numpy" in got["heavy"]
    assert "scipy.linalg" not in got["heavy"]
    assert "scipy.sparse.linalg" not in got["heavy"]


def test_no_command_loads_scipy_special():
    """The Chebyshev engine computes its Bessel coefficients itself: neither
    every suite (`verify all`) nor a Trotter check loads scipy.special."""
    got = _probe_cli(
        [
            ["verify", "all"],
            ["verify", "trotter", "--model", "hh", "--sites", "2", "--n-max", "13",
             "--lambda0", "1", "--taus", "0.2,0.1"],
        ]
    )
    assert got["codes"] == [0, 0]
    assert "scipy.sparse" in got["heavy"]
    assert [m for m in got["heavy"] if m.startswith("scipy.special")] == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """The analytic path's records are NamedTuples: a fresh `import
    truncert.cli` loads neither `dataclasses` nor the `inspect` it imports."""
    got = _fresh(
        "import json, sys\n"
        "import truncert.cli\n"
        "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))\n"
    )
    assert got == []


def test_star_import_and_dir_cover_the_package_names():
    got = _fresh(
        "import json, truncert\n"
        "from truncert import *\n"
        "names = truncert.__all__\n"
        "print(json.dumps({'all': names,\n"
        "                  'star': [n for n in names if n not in globals()],\n"
        "                  'dir': [n for n in names if n not in dir(truncert)]}))\n"
    )
    assert len(got["all"]) == len(truncert.__all__) > 0
    assert got["star"] == [] and got["dir"] == []


def test_cli_parser_is_built_on_first_call_not_at_import():
    got = _fresh(
        "import contextlib, io, json\n"
        "from truncert import cli\n"
        "builds = [cli._shared_parser.cache_info().misses]\n"
        "for argv in (['threshold', 'energy'], ['compare', '--tpoints', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        cli.main(argv)\n"
        "    builds.append(cli._shared_parser.cache_info().misses)\n"
        "print(json.dumps(builds))\n"
    )
    assert got == [0, 1, 1]
