"""Module layering: no nckahler module reaches into another's private names,
and the lower layers import only the layers below them."""

import ast
from pathlib import Path

import pytest

import nckahler

SRC = Path(nckahler.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def private(name):
    """A single-underscore name; dunders such as __version__ are public."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(path):
    """The private names that the module at path imports from another
    nckahler module, or reads off one it imported as a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    uses, modules = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "nckahler":
            continue
        for alias in node.names:
            if private(alias.name):
                uses.append(f"{node.module or '.'}.{alias.name}")
            elif (SRC / f"{alias.name}.py").exists():
                modules.add(alias.asname or alias.name)
    uses += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules and private(node.attr)]
    return uses


def nckahler_imports(path):
    """The nckahler modules that the module at path imports."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("nckahler.")}
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "nckahler":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:
                found |= {a.name for a in node.names if (SRC / f"{a.name}.py").exists()}
    return found


# module: the nckahler modules it may import (cli and __init__ are the top)
LAYERS = {"pauli": set(), "torus": {"pauli"}, "clifford": {"pauli"}, "report": set(),
          "ncdiff": {"pauli", "torus"}, "holomorphic": {"torus"},
          "kahler": {"clifford", "ncdiff", "pauli", "report", "torus"},
          "forms": {"clifford", "kahler", "ncdiff", "pauli", "report", "torus"}}


def test_modules_found():
    assert {p.stem for p in MODULES} == set(LAYERS) | {"__init__", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_imports(path):
    assert private_uses(path) == []


def test_detects_a_private_import(tmp_path):
    # the rule itself: a private name imported, or read off an imported
    # module, is found; a dunder and a module's own private names are not
    src = tmp_path / "mod.py"
    src.write_text("from . import __version__, ncdiff\n"
                   "from .ncdiff import NCDiffOp, _first_ids\n"
                   "from nckahler.torus import _x as y\n"
                   "def _own():\n"
                   "    return ncdiff._word_pairs, NCDiffOp\n")
    assert private_uses(src) == ["ncdiff._first_ids", "nckahler.torus._x", "ncdiff._word_pairs"]


@pytest.mark.parametrize("module", LAYERS)
def test_layer_imports(module):
    assert nckahler_imports(SRC / f"{module}.py") <= LAYERS[module]


def test_detects_a_layer_import(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy\n"
                   "from . import ncdiff\n"
                   "from .torus import TorusMatrix\n"
                   "from nckahler.kahler import build_base\n"
                   "import nckahler.forms\n")
    assert nckahler_imports(src) == {"ncdiff", "torus", "kahler", "forms"}


def where(path, hit):
    """Per node of the module at path that hit accepts, in walk order,
    "module.function" for the innermost enclosing function, or "module" at
    top level."""
    found = []

    def visit(node, at):
        for child in ast.iter_child_nodes(node):
            if hit(child):
                found.append(at)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, f"{path.stem}.{child.name}" if is_def else at)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return found


def theta_reads(path):
    """Where the module at path reads an attribute named `entries` or
    `_upper` (ThetaMatrix's entries)."""
    return where(path, lambda node: isinstance(node, ast.Attribute)
                 and node.attr in ("entries", "_upper"))


# the phase formula lives in torus: elsewhere Theta's entries serve only as
# the content key of ncdiff's plan cache
THETA_READERS = {"ncdiff": ["ncdiff._planned"]}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "torus"], ids=lambda p: p.stem)
def test_theta_entries_read_in_torus_only(path):
    assert theta_reads(path) == THETA_READERS.get(path.stem, [])


def test_detects_a_theta_read(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\n"
                   "def h0(theta, entries):\n"
                   "    upper = np.triu(theta.entries, k=1)\n"
                   "    def inner():\n"
                   "        return theta._upper\n"
                   "    return upper, TorusMatrix.from_entries, entries\n"
                   "x = THETA.entries\n")
    assert theta_reads(src) == ["mod.h0", "mod.inner", "mod"]


def lapack_reads(path):
    """The set of places where the module at path reaches numpy's linalg or
    scipy: an import of either, or an attribute `linalg` or a name `scipy`
    read."""

    def reaches(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "scipy" or a.name.startswith("numpy.linalg")
                       for a in node.names)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            return (module.split(".")[0] == "scipy" or module.startswith("numpy.linalg")
                    or module == "numpy" and any(a.name == "linalg" for a in node.names))
        return (isinstance(node, ast.Attribute) and node.attr == "linalg"
                or isinstance(node, ast.Name) and node.id == "scipy")

    return set(where(path, reaches))


# LAPACK serves the H^0 SVD and its gesvd retry only; every other decision is
# exact (the forms' ranks and containments on the Gaussian-integer echelon)
LAPACK_READERS = {"holomorphic": {"holomorphic._svd"}}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_lapack_in_the_h0_svd_only(path):
    assert lapack_reads(path) == LAPACK_READERS.get(path.stem, set())


def test_detects_a_lapack_read(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\n"
                   "import scipy.sparse\n"
                   "from numpy import linalg as la\n"
                   "def rank(a):\n"
                   "    return np.linalg.matrix_rank(a)\n"
                   "def solve(a, b):\n"
                   "    from scipy.linalg import solve\n"
                   "    return solve(a, b)\n"
                   "def qr(a):\n"
                   "    return scipy.linalg.qr(a), np.dot(a, a), linalg\n")
    assert lapack_reads(src) == {"mod", "mod.rank", "mod.solve", "mod.qr"}


def name_reads(path, name):
    """Where the module at path reads `name`: as an attribute (np.hypot), a
    name loaded, or a name imported; an assignment to it is not a read."""
    return where(path, lambda node: isinstance(node, ast.Attribute) and node.attr == name
                 or isinstance(node, ast.Name) and node.id == name
                 and isinstance(node.ctx, ast.Load)
                 or isinstance(node, ast.alias) and node.name == name)


# one size rule and one zero rule: an entry's magnitude is np.hypot of its
# parts in pauli.magnitude only, and PRUNE_TOL is read in torus.kept only
RULE_READERS = {"hypot": {"pauli": ["pauli.magnitude"]}, "PRUNE_TOL": {"torus": ["torus.kept"]}}


@pytest.mark.parametrize("name", RULE_READERS)
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_one_size_rule_and_one_zero_rule(path, name):
    assert name_reads(path, name) == RULE_READERS[name].get(path.stem, [])


def test_detects_a_rule_read(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy as np\n"
                   "from numpy import hypot\n"
                   "from .torus import PRUNE_TOL as TOL\n"
                   "PRUNE_TOL = 1e-14\n"
                   "def size(c):\n"
                   "    return np.hypot(c.real, c.imag) >= torus.PRUNE_TOL\n"
                   "def hypot_of():\n"
                   "    '''np.hypot and PRUNE_TOL named in a docstring'''\n"
                   "    return hypot(1, 2), PRUNE_TOL, TOL\n")
    assert name_reads(src, "hypot") == ["mod", "mod.size", "mod.hypot_of"]
    assert name_reads(src, "PRUNE_TOL") == ["mod", "mod.size", "mod.hypot_of"]
