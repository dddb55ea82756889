"""The four benchmark workloads: basis, sweep, classify and cli.

Every workload is a fixed pool of ops built from the constant POOL_SEED, so
that each op's output can be pinned by goldens captured at the parent
commit (goldens.json, written by capture_goldens.py).  The run seed orders
the ops: round r is a seeded permutation of the pool, and a run measures
whole rounds, so every run does the same mix of work and only the order,
the machine and the program under test change its figures.

An op's `check` raises WrongOutput for a wrong result, returns False for an
honest failure (an `Unknown` verdict) and True otherwise.  Checks call the
functions imported below, bound before any tracing is installed, so they
are never traced.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ncharm import classify2, cli, harmonicspace, positivity
from ncharm.calculus import laplacian
from ncharm.classify2 import Degree4Coeffs, degree4_family, degree4_inequalities
from ncharm.harmonicspace import gamma_power_parts
from ncharm.ncpoly import MatrixPoint, Poly, evaluate, parse
from ncharm.positivity import SampleConfig, min_eigenvalue

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
GOLDENS = HERE / "goldens.json"
POOL_SEED = 2009


class WrongOutput(Exception):
    """The program returned a result that disagrees with the gate."""


@dataclass(frozen=True)
class Op:
    kind: str                       # groups ops for the per-kind rates
    label: str                      # unique within the pool; keys the goldens
    run: Callable[[], object]
    check: Callable[[object], bool]
    canon: Callable[[object], bytes]
    points: int = 0                 # matrix points the op tests
    reset: Optional[Callable[[], None]] = None


def _rational(rnd: random.Random) -> Fraction:
    return Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))


def _positive(rnd: random.Random) -> Fraction:
    return Fraction(rnd.randint(1, 9), rnd.randint(1, 5))


def _family(d: int, c0, c1, c2) -> Poly:
    """c0*(Re gam^d)^2 + c1*Re gam^(2d) + c2*Im gam^(2d), degree 2d."""
    re_d, _ = gamma_power_parts(d)
    re_2d, im_2d = gamma_power_parts(2 * d)
    return (re_d * re_d).scale(c0) + re_2d.scale(c1) + im_2d.scale(c2)


def _degree4(rnd: random.Random, region: str) -> Poly:
    while True:
        B = Degree4Coeffs(*[_rational(rnd) for _ in range(6)])
        if degree4_inequalities(B).kind == region:
            return degree4_family(B)


def _degree4_boundary(rnd: random.Random) -> Poly:
    """A member with Hh*G == Jj^2 + K^2 exactly, Hh > 0, G >= 0."""
    Hh, Jj, K = _positive(rnd), _rational(rnd), _rational(rnd)
    G = (Jj * Jj + K * K) / Hh
    b1, b2 = _rational(rnd), _rational(rnd)
    B = Degree4Coeffs(b1, b2, b2 - Jj, K - b1, G - b1, Hh - b1)
    assert degree4_inequalities(B).kind == "Boundary"
    return degree4_family(B)


def _symmetric(rnd: random.Random, degree: int, terms: int = 5) -> Poly:
    acc: dict = {}
    for _ in range(terms):
        w = bytes(rnd.randint(1, 2) for _ in range(degree))
        acc[w] = acc.get(w, 0) + _rational(rnd)
    p = Poly(2, acc)
    return p + p.transpose()


def _matrix(rnd: random.Random, n: int) -> np.ndarray:
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            M[i, j] = M[j, i] = rnd.uniform(-1.0, 1.0)
    return M


def _arrays(arrays) -> str:
    return ";".join(np.ascontiguousarray(M).tobytes().hex() for M in arrays)


def _canon_witness(w) -> str:
    if w is None:
        return "-"
    H = "-" if w.H is None else _arrays([w.H])
    return f"{w.n},{w.sample_index},{float(w.min_eig).hex()},{_arrays(w.X)},{H}"


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# basis: cold exact harmonic bases, tall and wide systems
# ---------------------------------------------------------------------------

BASIS_SYSTEMS = {"tall": ((2, 9), (2, 10)), "wide": ((3, 5), (3, 6), (4, 4))}
BASIS_DIMS = {(2, 9): 2, (2, 10): 2, (3, 5): 47, (3, 6): 68, (4, 4): 163}


def basis_digest(basis) -> str:
    """sha256 of the canonical coeff_rows and pivot_cols."""
    h = hashlib.sha256(f"{basis.g},{basis.d};".encode())
    h.update(",".join(map(str, basis.pivot_cols)).encode())
    for row in basis.coeff_rows:
        h.update((";" + ",".join(map(str, row))).encode())
    return h.hexdigest()


def basis_pool(goldens: Optional[dict]) -> list[Op]:
    clear = harmonicspace.harmonic_basis.cache_clear
    ops = []
    for kind, systems in BASIS_SYSTEMS.items():
        for g, d in systems:
            label = f"{g},{d}"

            def run(g=g, d=d):
                return harmonicspace.harmonic_basis(g, d)

            def check(basis, g=g, d=d, label=label):
                if basis.dimension != BASIS_DIMS[(g, d)]:
                    raise WrongOutput(f"basis {label}: dimension {basis.dimension}")
                if goldens is not None and basis_digest(basis) != goldens["basis"][label]:
                    raise WrongOutput(f"basis {label}: coeff_rows/pivot_cols digest differs")
                return True

            ops.append(Op(kind, label, run, check,
                          lambda b: basis_digest(b).encode(), reset=clear))
    # Each op runs cold, as in a fresh CLI process: clear before the first.
    harmonicspace.harmonic_basis(2, 3)
    clear()
    return ops


# ---------------------------------------------------------------------------
# sweep: the numeric sampler and the middle-matrix certificate path
# ---------------------------------------------------------------------------

SWEEP_CFG = SampleConfig(seed=POOL_SEED, sizes=(1, 2, 3, 4), samples_per_size=2)
# Two samples per size keep the longest op (a degree-8 sampler call) near
# 40 ms, so a brief stretch of fast host gives every op a fast repeat.  Four
# point ops per polynomial put the median op inside one group of similar
# latency (degree-6 points and degree-4 sampler calls) rather than between
# two.
SWEEP_POINT_SIZES = (1, 2, 3, 4)


def sweep_members() -> list[tuple[str, Poly]]:
    """Polynomials whose Laplacians are matrix positive, so no op exits early."""
    rnd = random.Random(POOL_SEED)
    members = []
    for d in (2, 3, 4):
        for k in range(2):
            p = _family(d, _positive(rnd), _rational(rnd), _rational(rnd))
            members.append((f"family{2 * d}.{k}", p))
    for k in range(2):
        members.append((f"inside4.{k}", _degree4(rnd, "StrictlyInside")))
    return members


def sweep_pool(goldens: Optional[dict]) -> list[Op]:
    golden = None if goldens is None else goldens["sweep"]
    rnd = random.Random(POOL_SEED + 1)
    expected_tested = len(SWEEP_CFG.sizes) * SWEEP_CFG.samples_per_size
    ops = []
    for label, p in sweep_members():
        lap = laplacian(p)

        def run_sample(lap=lap):
            return positivity.sample_matrix_positive(lap, SWEEP_CFG)

        def check_sample(v, label=label):
            if v.kind != "NoCounterexampleFound" or v.samples_tested != expected_tested:
                raise WrongOutput(f"sweep {label}: {v.kind} after {v.samples_tested} samples")
            if golden is not None:
                want = float.fromhex(golden[label])
                if abs(v.min_eigenvalue_seen - want) > 1e-12:
                    raise WrongOutput(f"sweep {label}: min eigenvalue {v.min_eigenvalue_seen!r}")
            return True

        ops.append(Op("sample", label, run_sample, check_sample,
                      lambda v: f"{v.kind},{v.samples_tested},"
                                f"{float(v.min_eigenvalue_seen).hex()}".encode(),
                      points=expected_tested))
        for n in SWEEP_POINT_SIZES:
            point_label = f"{label}@n{n}"
            X = (_matrix(rnd, n), _matrix(rnd, n))

            def run_point(p=p, X=X):
                return positivity.subharmonic_at_point(p, X, SWEEP_CFG)

            def check_point(v, point_label=point_label):
                if golden is None or v.kind == golden[point_label]:
                    return True
                if v.kind == "Unknown":
                    return False
                raise WrongOutput(f"sweep {point_label}: {v.kind}")

            ops.append(Op("point", point_label, run_point, check_point,
                          lambda v: f"{v.kind},{_canon_witness(v.witness)}".encode()))
    return ops


# ---------------------------------------------------------------------------
# classify: the decision procedure over every branch
# ---------------------------------------------------------------------------

CLASSIFY_CFG = SampleConfig(seed=POOL_SEED)
CERTIFIED = "PurelySubharmonicCertified"
BOUNDARY = "SubharmonicBoundaryCertified"
REFUTED = "NotSubharmonic"
HARMONIC = "Harmonic"


def classify_inputs() -> list[tuple[str, str, Poly, frozenset]]:
    """(kind, label, polynomial, verdict kinds its input class allows)."""
    rnd = random.Random(POOL_SEED + 2)
    out = [
        ("degree2", "degree2.positive", parse("2*x1^2 + x2^2 + x1*x2 + x2*x1", 2), {CERTIFIED}),
        ("degree2", "degree2.negative", parse("-3*x1^2 + x2^2 - x1*x2", 2), {REFUTED}),
        ("degree2", "degree2.harmonic", parse("x1^2 - x2^2 + 3*x1*x2", 2), {HARMONIC}),
    ]
    for d in (3, 5, 7):
        for k in range(2):
            out.append(("odd", f"odd{d}.{k}", _symmetric(rnd, d), {REFUTED}))
    for k in range(2):
        out.append(("degree4", f"inside4.{k}", _degree4(rnd, "StrictlyInside"), {CERTIFIED}))
        out.append(("degree4", f"violated4.{k}", _degree4(rnd, "Violated"), {REFUTED}))
    # Boundary members: the two textbook ones and three seeded ones.  The
    # seeded ones mostly come back Unknown, a known defect counted as failed.
    re2 = gamma_power_parts(2)[0]
    out.append(("boundary4", "boundary4.re2squared", re2 * re2, {BOUNDARY}))
    out.append(("boundary4", "boundary4.x1x2x2x1", parse("x1*x2^2*x1", 2), {BOUNDARY}))
    for k in range(3):
        out.append(("boundary4", f"boundary4.{k}", _degree4_boundary(rnd), {BOUNDARY}))
    for d in (3, 4, 5):
        for sign, expect in (("pos", CERTIFIED), ("zero", HARMONIC), ("neg", REFUTED)):
            c0 = {"pos": _positive(rnd), "zero": Fraction(0), "neg": -_positive(rnd)}[sign]
            p = _family(d, c0, _rational(rnd), _rational(rnd))
            out.append(("family", f"family{2 * d}.{sign}", p, {expect}))
    for k in range(3):
        out.append(("nonmember", f"nonmember6.{k}", _symmetric(rnd, 6), {REFUTED}))
    return [(kind, label, p, frozenset(allowed)) for kind, label, p, allowed in out]


def _canon_verdict(v) -> bytes:
    sos = None if v.sos is None else [(d, sorted(r.terms())) for d, r in v.sos.terms]
    return repr((v.kind, v.reason, v.membership, v.region, sos,
                 _canon_witness(v.witness))).encode()


def classify_pool(goldens: Optional[dict]) -> list[Op]:
    # Warm the caches a long-running caller would already hold.
    for d in range(1, 11):
        gamma_power_parts(d)
    for d in (3, 4, 5):
        classify2.high_even_membership(_family(d, 1, 0, 0))
    ops = []
    for kind, label, p, allowed in classify_inputs():
        lap = laplacian(p)

        def run(p=p):
            return classify2.classify(p, CLASSIFY_CFG)

        def check(v, lap=lap, label=label, allowed=allowed):
            w = v.witness
            if w is not None:
                again = min_eigenvalue(evaluate(lap, MatrixPoint(X=w.X, H=w.H)))
                if not (again < -CLASSIFY_CFG.tol and w.min_eig < -CLASSIFY_CFG.tol):
                    raise WrongOutput(f"classify {label}: witness min_eig {w.min_eig!r} "
                                      f"re-evaluates to {again!r}")
            if v.kind in allowed:
                return True
            if v.kind == "Unknown":
                return False
            raise WrongOutput(f"classify {label}: {v.kind}, expected one of {sorted(allowed)}")

        ops.append(Op(kind, label, run, check, _canon_verdict))
    return ops


# ---------------------------------------------------------------------------
# cli: one `python -m ncharm.cli` process per op
# ---------------------------------------------------------------------------

POINT_FILE = WORK / "point.json"
POINT_TOKEN = "{point}"
CLI_COMMANDS = (
    ("derive", ["derive", "--var", "1", "x1^2*x2 + x2*x1^2"]),
    ("laplacian", ["laplacian", "x1^4 - 2*x1*x2^2*x1"]),
    ("collapse-check", ["collapse-check", "x1^2*x2^2 + x2^2*x1^2"]),
    ("harmonic-basis", ["harmonic-basis", "--vars", "2", "--degree", "4"]),
    ("middle-matrix", ["middle-matrix", "h*x1*h + h*x2^2*h + x1*h^2*x1"]),
    ("classify", ["classify", "--json", "--seed", "7", "--samples", "20", "x1^6 - x2^6"]),
    ("sos", ["sos", "x1^4 - x1^2*x2^2 - x2^2*x1^2 + x2^4"]),
    ("odd-sandwich", ["odd-sandwich", "x1^3 - x1*x2^2 - x2*x1*x2 - x2^2*x1"]),
    ("eval", ["eval", "--point", POINT_TOKEN, "x1*x2 + x2*x1 + 3*x2^2"]),
    ("sample", ["sample", "--seed", "3", "--samples", "20", "x1^3 + x2*x1*x2"]),
)


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("NCHARM_SEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_argv(argv: list) -> list:
    return [str(POINT_FILE) if a == POINT_TOKEN else a for a in argv]


def write_point_file() -> None:
    WORK.mkdir(exist_ok=True)
    rnd = random.Random(POOL_SEED + 3)
    point = {"X": [_matrix(rnd, 3).tolist() for _ in range(2)]}
    POINT_FILE.write_text(json.dumps(point), encoding="utf-8")


def run_cli(argv: list, env: dict) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "ncharm.cli", *cli_argv(argv)],
                          cwd=ROOT, env=env, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout


def cli_pool(goldens: Optional[dict]) -> list[Op]:
    write_point_file()
    env = cli_env()
    # Compile the package's bytecode once, as an installed package would have.
    # The warm-up is itself a CLI process, so that every child of an untraced
    # run is one and RUSAGE_CHILDREN reports the largest CLI process.
    run_cli(CLI_COMMANDS[0][1], env)
    ops = []
    for label, argv in CLI_COMMANDS:

        def run(argv=argv):
            return run_cli(argv, env)

        def check(result, label=label):
            if goldens is not None:
                want = goldens["cli"][label]
                if result != (want["code"], want["stdout"].encode()):
                    raise WrongOutput(f"cli {label}: exit {result[0]} or stdout differs")
            return True

        ops.append(Op(label, label, run, check,
                      lambda r: b"%d\n" % r[0] + r[1]))
    return ops


def layer_probe(goldens: dict) -> list[float]:
    """Run every CLI command once in-process through `cli.run`, checking its
    stdout against the golden, then one middle-matrix certification, the
    public path no command reaches.  Run traced, it makes every layer report
    on every workload.  Returns each command's seconds."""
    write_point_file()
    seconds = []
    for label, argv in CLI_COMMANDS:
        start = time.perf_counter()
        code, out, _ = cli.run(cli_argv(argv))
        seconds.append(time.perf_counter() - start)
        want = goldens["cli"][label]
        if (code, out) != (want["code"], want["stdout"]):
            raise WrongOutput(f"cli {label}: in-process run differs from golden")
    rnd = random.Random(POOL_SEED + 4)
    X = (_matrix(rnd, 3), _matrix(rnd, 3))
    verdict = positivity.subharmonic_at_point(_family(3, 1, 0, 0), X, SWEEP_CFG)
    if verdict.kind != "CertifiedAllH":
        raise WrongOutput(f"probe certification: {verdict.kind}")
    return seconds


WORKLOADS = {
    "basis": basis_pool,
    "sweep": sweep_pool,
    "classify": classify_pool,
    "cli": cli_pool,
}
