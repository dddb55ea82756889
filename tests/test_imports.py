"""The import contract: exact subcommands run without numpy, and the
package re-exports its public names lazily.

Each case runs in a fresh interpreter, because an earlier import in the
test process would hide what a command loads.
"""

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


RUN_CLI = """
import json, sys
from ncharm import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps(["numpy" in sys.modules, code]), file=sys.stderr)
"""


def run_cli(argv):
    proc = run_python(RUN_CLI, json.dumps(argv))
    numpy_loaded, code = json.loads(proc.stderr.strip().splitlines()[-1])
    return numpy_loaded, code, proc.stdout


@pytest.mark.parametrize("command", sorted(EXACT_COMMANDS))
def test_exact_command_never_loads_numpy(command):
    numpy_loaded, code, out = run_cli(EXACT_COMMANDS[command])
    assert (numpy_loaded, code) == (False, 0)
    assert out


@pytest.mark.parametrize("module", ["ncharm.ncpoly", "ncharm.calculus"])
def test_exact_module_import_loads_no_numpy(module):
    # The float plan lives in ncpoly, so numpy must stay a call-time import.
    proc = run_python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_float_commands_still_run(tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"X": [[[1.0, 0.0], [0.0, 2.0]], [[0.0, 1.0], [1.0, 0.0]]]}))
    assert run_cli(["eval", "--point", str(point), "x1^2 + x2"]) == (
        True, 0, "[[1,1],[1,4]]\n")
    numpy_loaded, code, out = run_cli(["sample", "--seed", "1", "--samples", "3", "x1"])
    assert (numpy_loaded, code, json.loads(out)["kind"]) == (True, 1, "Counterexample")
    numpy_loaded, code, out = run_cli(["classify", "--seed", "1", "x1^3 + x2^3"])
    assert (numpy_loaded, code) == (True, 1)
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
