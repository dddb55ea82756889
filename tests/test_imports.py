"""The import contract: exact subcommands run without numpy, dataclasses
or inspect, and the package re-exports its public names lazily.

Each case runs in a fresh interpreter, because an earlier import in the
test process would hide what a command loads.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

EXACT_COMMANDS = {
    "derive": ["derive", "--var", "1", "x1^2*x2"],
    "laplacian": ["laplacian", "x1^4 - 2*x1*x2^2*x1"],
    "collapse-check": ["collapse-check", "x1^2*x2^2 + x2^2*x1^2"],
    "harmonic-basis": ["harmonic-basis", "--degree", "3"],
    "middle-matrix": ["middle-matrix", "h*x1*h + h*x2^2*h + x1*h^2*x1"],
    "sos": ["sos", "x1^4 - x1^2*x2^2 - x2^2*x1^2 + x2^4"],
    "odd-sandwich": ["odd-sandwich", "x1^3 - x1*x2^2 - x2*x1*x2 - x2^2*x1"],
}

# Names `ncharm` re-exported eagerly before its imports were made lazy.
PUBLIC_NAMES = [
    "H_LETTER", "MatrixPoint", "ParseError", "Poly", "Word", "degree_profile",
    "evaluate", "parse", "render_word", "symmetrize", "word",
    "CommPoly", "commutative_collapse", "commutative_laplacian",
    "directional_derivative", "laplacian",
    "HarmonicBasis", "check_independence_property", "enumerate_words",
    "express_in_basis", "gamma_power_parts", "harmonic_basis",
    "laplacian_coefficient_matrix",
    "MiddleMatrixRep", "evaluate_middle", "extract", "reconstruct",
    "zeroes_violation",
    "PointVerdict", "SampleConfig", "SampleVerdict", "Witness", "ldl_pivots",
    "min_eigenvalue", "sample_matrix_positive", "subharmonic_at_point",
    "Degree4Coeffs", "Degree4Region", "GramForm", "GramObstruction",
    "NeighborDecomposition", "OddSandwich", "SosDecomposition", "Verdict",
    "classify", "degree4_coefficients", "degree4_family",
    "degree4_inequalities", "gram_from_neighbors", "high_even_membership",
    "laplacian_sos_identity_check", "left_neighbor",
    "neighbor_harmonicity_check", "odd_sandwich",
    "odd_sandwich_vanishing_check", "right_neighbor", "sos_decompose",
]


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NCHARM_SEED", None)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


# Modules whose import costs a CLI process milliseconds of start-up.
HEAVY_MODULES = ("numpy", "dataclasses", "inspect")

RUN_CLI = f"""
import json, sys
from ncharm import cli
code = cli.main(json.loads(sys.argv[1]))
loaded = [m for m in {HEAVY_MODULES!r} if m in sys.modules]
print(json.dumps([loaded, code]), file=sys.stderr)
"""


def run_cli(argv):
    """(heavy modules loaded, exit code, stdout) of one CLI run."""
    proc = run_python(RUN_CLI, json.dumps(argv))
    loaded, code = json.loads(proc.stderr.strip().splitlines()[-1])
    return loaded, code, proc.stdout


@pytest.mark.parametrize("command", sorted(EXACT_COMMANDS))
def test_exact_command_never_loads_numpy(command):
    loaded, code, out = run_cli(EXACT_COMMANDS[command])
    assert (loaded, code) == ([], 0)
    assert out


def test_exact_classify_verdicts_never_load_numpy():
    # numpy and the sampler load only when a verdict samples or builds a
    # witness: not for a certified degree-2 input, nor for a degree-6 member
    # c0*(Re gam^3)^2 + c1*Re gam^6 + c2*Im gam^6 with c0 > 0.
    from ncharm import gamma_power_parts

    re3 = gamma_power_parts(3)[0]
    member = ((re3 * re3).scale(2) + gamma_power_parts(6)[1].scale(5)).render()
    for text, first in [("x1^2 + x2^2", "verdict: PurelySubharmonicCertified\n"),
                        (member, "verdict: PurelySubharmonicCertified\n"),
                        ("x1^2 - x2^2", "verdict: Harmonic\n")]:
        loaded, code, out = run_cli(["classify", "--", text])
        assert (loaded, code) == ([], 0)
        assert out.startswith(first)
    loaded, code, out = run_cli(["classify", "--", "x1^6 - x2^6"])
    assert ("numpy" in loaded, code) == (True, 1)
    assert out.startswith("verdict: NotSubharmonic\n")


def test_sample_config_needs_no_numpy():
    proc = run_python("""
import json, sys
import ncharm
cfg = ncharm.SampleConfig(seed=3, sizes=(1, 2))
before = "numpy" in sys.modules
from ncharm import _sampleconfig, positivity
same = positivity.SampleConfig is _sampleconfig.SampleConfig is ncharm.SampleConfig
print(json.dumps([before, same, positivity.MAX_SAMPLE_SIZE, list(cfg.sizes)]))
""")
    assert json.loads(proc.stdout) == [False, True, 64, [1, 2]]


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted((SRC / "ncharm").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            found += [(path.stem, node.lineno) for m in modules if m.split(".")[0] == "dataclasses"]
    assert found == []


@pytest.mark.parametrize("module", [
    "ncharm.ncpoly", "ncharm.calculus", "ncharm.middlematrix",
    "ncharm.harmonicspace", "ncharm._exactla", "ncharm.classify2",
])
def test_exact_module_import_loads_no_numpy(module):
    # The float plan lives in ncpoly, so numpy must stay a call-time import.
    proc = run_python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_float_commands_still_run(tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"X": [[[1.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]]]}))
    loaded, code, out = run_cli(["eval", "--point", str(point), "x1^2 + x2"])
    assert ("numpy" in loaded, code, out) == (True, 0, "[[1,1],[1,4]]\n")
    loaded, code, out = run_cli(["sample", "--seed", "1", "--samples", "3", "x1"])
    assert ("numpy" in loaded, code, json.loads(out)["kind"]) == (True, 1, "Counterexample")
    loaded, code, out = run_cli(["classify", "--seed", "1", "x1^3 + x2^3"])
    assert ("numpy" in loaded, code) == (True, 1)
    assert out.startswith("verdict: NotSubharmonic\n")


def test_public_names_resolve_lazily():
    proc = run_python("""
import json, sys
import ncharm
before = "numpy" in sys.modules
names = list(ncharm.__all__)
missing = [n for n in names if getattr(ncharm, n, None) is None]
print(json.dumps([before, names, missing, ncharm.__version__]))
""")
    before, names, missing, version = json.loads(proc.stdout)
    assert before is False
    assert names == PUBLIC_NAMES
    assert missing == []
    assert version == "0.1.0"


def test_sampler_internals_stay_in_positivity():
    # The sampler's stack format (_draw_stack, _drawn_witness, _search) is
    # private to positivity: no other module imports or reads a private
    # positivity name.
    found = []
    for path in sorted((SRC / "ncharm").glob("*.py")):
        if path.stem == "positivity":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "positivity", "ncharm.positivity"):
                names = [a.name for a in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "positivity"):
                names = [node.attr]
            else:
                continue
            found += [(path.name, n) for n in names if n.startswith("_")]
    assert found == []


def test_one_ordered_term_sum():
    # Term order comes from one rule, ncpoly._sum_terms: a sum of zero
    # deletes its key and a later term puts the key back at the end.  No
    # other function deletes a dict entry by subscript.
    found = []
    for path in sorted((SRC / "ncharm").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Delete) and any(
                    isinstance(t, ast.Subscript) for t in node.targets):
                found.append((path.stem, owner.get(node), node.lineno))
    assert [(m, f) for m, f, _ in found] == [("ncpoly", "_sum_terms")], found


def test_one_middle_matrix_producer():
    # zeroes_violation and the CLI's text branch read a representation's
    # cell terms as sorted by cell, then by canonical mid; extract is the
    # one function in the package that constructs MiddleMatrixRep.
    found = []
    for path in sorted((SRC / "ncharm").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "MiddleMatrixRep" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append((path.stem, owner.get(node), node.lineno))
    assert [(m, f) for m, f, _ in found] == [("middlematrix", "extract")], found


def test_poly_terms_are_never_mutated():
    # A Poly keeps data derived from its terms (ncpoly._derived), which is
    # sound only while no term map changes once built.  So ._terms is bound
    # only by the constructors (__init__ and _raw of Poly and of CommPoly,
    # which keeps the same convention), and nothing assigns or deletes
    # through it or calls a mutating dict method on it.
    constructors = {(cls, fn) for cls in ("Poly", "CommPoly") for fn in ("__init__", "_raw")}
    mutators = {"pop", "update", "clear", "setdefault", "popitem"}
    found = []
    for path in sorted((SRC / "ncharm").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    for inner in ast.walk(fn):
                        owner[inner] = (cls.name, getattr(fn, "name", None))
        for node in ast.walk(tree):
            store = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
            if isinstance(node, ast.Attribute) and node.attr == "_terms":
                bad = store and owner.get(node) not in constructors
            elif isinstance(node, ast.Subscript):
                bad = store and getattr(node.value, "attr", None) == "_terms"
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in mutators:
                bad = getattr(node.func.value, "attr", None) == "_terms"
            else:
                continue
            if bad:
                found.append((path.stem, owner.get(node), node.lineno))
    assert found == []


def test_middlematrix_imports_nothing_from_calculus():
    # The Laplacian's middle matrix has one construction,
    # extract(laplacian(p)): middlematrix never expands a Laplacian itself.
    tree = ast.parse((SRC / "ncharm" / "middlematrix.py").read_text("utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            continue
        found += [(m, node.lineno) for m in modules if "calculus" in m.split(".")]
    assert found == []
