"""The demos print what they printed when their goldens were captured.

Each demo runs in a fresh interpreter over the package in `src/`.
tests/demo_goldens.json maps each demo's file name to its stdout; rewrite it
with `python tests/test_demos.py --capture` only for a change of output that
is meant.  Decimal numbers are floating-point output, whose last digits and
array layout vary with the BLAS build and the CPU, so they are compared
within a tolerance and the text between them up to whitespace; everything
else, exact rationals and verdicts included, must match.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).with_name("demo_goldens.json")
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("NCHARM_SEED", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


FLOAT = re.compile(r"(?<![\w.])-?\d+\.\d*(?:e[-+]?\d+)?")


def same_output(out: str, golden: str) -> bool:
    texts, numbers = FLOAT.split(out), FLOAT.findall(out)
    gtexts, gnumbers = FLOAT.split(golden), FLOAT.findall(golden)
    return (
        ["".join(t.split()) for t in texts] == ["".join(t.split()) for t in gtexts]
        and all(
            math.isclose(float(a), float(b), rel_tol=1e-6, abs_tol=1e-9)
            for a, b in zip(numbers, gnumbers)
        )
    )


def test_tolerance():
    golden = "p(X) =\n [[ 15.1659783  -6.5 ]]\n|d| = 1.7763568394002505e-15\n"
    assert same_output(golden, golden)
    assert same_output("p(X) =\n[[15.16597831 -6.5]]\n|d| = 0.0\n", golden)
    assert not same_output(golden.replace("15.1659783", "15.166"), golden)
    assert not same_output(golden.replace("p(X)", "q(X)"), golden)
    assert not same_output(golden.replace("-6.5 ", "-6.5 7. "), golden)
    assert not same_output("x1^2 -> Harmonic", "x1^3 -> Harmonic")


def test_every_demo_is_pinned():
    assert sorted(json.loads(GOLDENS.read_text("utf-8"))) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_stdout(name):
    out, golden = run_demo(name), json.loads(GOLDENS.read_text("utf-8"))[name]
    assert same_output(out, golden), out


if __name__ == "__main__" and sys.argv[1:] == ["--capture"]:
    goldens = {name: run_demo(name) for name in DEMOS}
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
