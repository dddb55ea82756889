"""Numeric positivity testing with reproducible seeded sampling.

Random matrix tuples are drawn from a splitmix64 stream keyed by
(seed, size, sample index, matrix slot), so every verdict is a pure
function of the polynomial and the configuration, independent of
execution order or platform.  Every random search (the sampler, the
direction search at a fixed X and the classifier's sign-flip search) reads
its eigenvalues from one loop, _search, that evaluates a stack of samples
per plan run.  Sampling can only refute positivity (produce a witness with
a negative eigenvalue); the one per-point certificate available here is
positive semidefiniteness of the evaluated middle matrix, which guarantees
positivity of the Laplacian in every direction H at that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .calculus import laplacian
from .middlematrix import evaluate_middle, extract
from .ncpoly import EvalPlan, MatrixPoint, Poly

__all__ = [
    "SplitMix64",
    "substream",
    "draw_symmetric",
    "draw_point",
    "SampleConfig",
    "Witness",
    "SampleVerdict",
    "PointVerdict",
    "ldl_pivots",
    "min_eigenvalue",
    "sample_matrix_positive",
    "subharmonic_at_point",
]

_MASK = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 generator; 64-bit state, platform independent."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_uniform(self, bound: float) -> float:
        return (2.0 * self.next_unit() - 1.0) * bound


def substream(*key_parts: int) -> SplitMix64:
    """Deterministic substream keyed by a tuple of integers: each part is
    folded into the key by one splitmix64 output step."""
    s = 0
    for part in key_parts:
        s = SplitMix64(s ^ int(part)).next_u64()
    return SplitMix64(s)


def draw_symmetric(rng: SplitMix64, n: int, bound: float) -> np.ndarray:
    """Symmetric n x n matrix, entries uniform in [-bound, bound], built by
    drawing the upper triangle row-major and mirroring."""
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            v = rng.next_uniform(bound)
            M[i, j] = v
            M[j, i] = v
    return M


@dataclass(frozen=True)
class SampleConfig:
    seed: int = 0
    sizes: tuple = (1, 2, 3, 4)
    samples_per_size: int = 200
    h_samples: int = 50
    tol: float = 1e-9
    entry_range: float = 1.0

    def __post_init__(self):
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be nonempty with every entry >= 1")
        if self.samples_per_size < 1:
            raise ValueError("samples_per_size must be at least 1")
        if self.h_samples < 1:
            raise ValueError("h_samples must be at least 1")
        for name in ("tol", "entry_range"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        object.__setattr__(self, "sizes", tuple(self.sizes))


@dataclass(frozen=True, eq=False)
class Witness:
    """A concrete refutation: evaluation point with a negative eigenvalue."""

    n: int
    X: tuple
    H: Optional[np.ndarray]
    min_eig: float
    sample_index: int


@dataclass(frozen=True, eq=False)
class SampleVerdict:
    kind: str                      # "NoCounterexampleFound" | "Counterexample"
    witness: Optional[Witness]
    samples_tested: int
    min_eigenvalue_seen: float


@dataclass(frozen=True, eq=False)
class PointVerdict:
    kind: str                      # "CertifiedAllH" | "CounterexampleH" | "Unknown"
    witness: Optional[Witness] = None


def _require_finite(M: np.ndarray) -> np.ndarray:
    finite = np.isfinite(M)
    if not finite.all():
        raise ValueError(
            f"matrix entries must be finite numbers, found {float(M[~finite][0])}"
        )
    return M


def _check_numeric_symmetry(M: np.ndarray, ndim: int = 2) -> np.ndarray:
    """The symmetric part of a square matrix, or of each matrix of a stack
    when ndim is 3.  Rejects non-finite entries, before and after
    symmetrizing (the average can overflow), and a relative skew above
    1e-12."""
    M = _require_finite(np.asarray(M, dtype=float))
    if M.ndim != ndim or M.shape[-1] != M.shape[-2]:
        raise ValueError("expected a square matrix")
    MT = np.swapaxes(M, -1, -2)
    scale = 1.0 + np.max(np.abs(M), axis=(-2, -1), initial=0.0)
    if (np.max(np.abs(M - MT), axis=(-2, -1), initial=0.0) > 1e-12 * scale).any():
        raise ValueError("matrix is not symmetric within 1e-12 relative skew")
    with np.errstate(over="ignore"):
        A = (M + MT) / 2.0
    return _require_finite(A)


def ldl_pivots(M: np.ndarray, tol: float) -> tuple[list[float], bool]:
    """Diagonally pivoted LDL^T pivots and a PSD verdict.

    Pivots on the largest remaining |diagonal| entry.  The matrix passes as
    positive semidefinite iff every pivot is >= -tol and, once the whole
    remaining diagonal falls inside [-tol, tol], the remaining off-diagonal
    entries do too (a zero row test, the numeric form of the zeroes screen).
    """
    A = _check_numeric_symmetry(M).copy()
    active = list(range(A.shape[0]))
    pivots: list[float] = []
    psd = True
    while active:
        k_local = int(np.argmax([abs(A[k, k]) for k in active]))
        k = active[k_local]
        d = A[k, k]
        if abs(d) <= tol:
            # Whole remaining diagonal is numerically zero.
            sub = A[np.ix_(active, active)]
            off = sub - np.diag(np.diag(sub))
            if float(np.max(np.abs(off), initial=0.0)) > tol:
                psd = False
            pivots.extend(float(A[i, i]) for i in active)
            break
        pivots.append(float(d))
        if d < -tol:
            psd = False
        active.pop(k_local)
        if active:
            idx = np.array(active)
            col = A[idx, k]
            A[np.ix_(idx, idx)] -= np.outer(col, col) / d
    if any(p < -tol for p in pivots):
        psd = False
    return pivots, psd


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue via the deterministic symmetric solver."""
    A = _check_numeric_symmetry(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(A)[0])


def _draw_slot(cfg: SampleConfig, n: int, sample: int, slot: int) -> np.ndarray:
    return draw_symmetric(substream(cfg.seed, n, sample, slot), n, cfg.entry_range)


def draw_point(
    cfg: SampleConfig, g: int, n: int, sample: int, with_h: bool
) -> MatrixPoint:
    """The sample-th n x n point of cfg: X_i from slot i - 1 and, when
    with_h, H from slot g.

    Every sampler draws through here or its per-slot draw, so a matrix
    depends only on its key (seed, size, sample, slot) and never on which
    search asked for it.
    """
    X = tuple(_draw_slot(cfg, n, sample, slot) for slot in range(g))
    H = _draw_slot(cfg, n, sample, g) if with_h else None
    return MatrixPoint(X=X, H=H)


def _chunks(count: int):
    """Split range(count) into consecutive ranges of 2, 4, 8, ... samples.

    A search that stops at its first hit evaluates each chunk as one stack
    and so evaluates at most twice the samples it needed.
    """
    start, size = 0, 2
    while start < count:
        stop = min(count, start + size)
        yield range(start, stop)
        start, size = stop, 2 * size


def _draw_stack(
    cfg: SampleConfig, g: int, n: int, samples: range, with_h: bool
) -> tuple[list, list]:
    """The points of the given samples and their matrices stacked per
    letter, as EvalPlan.run takes them."""
    points = [draw_point(cfg, g, n, s, with_h) for s in samples]
    mats = [np.stack([pt.H for pt in points]) if with_h else None]
    mats += [np.stack([pt.X[i] for pt in points]) for i in range(g)]
    return points, mats


def _search(plan: EvalPlan, stacks, draw):
    """Yield (sample, point, eigenvalues) in order, one plan.run per stack
    of samples, where draw(samples) gives the points and their matrices as
    plan.run takes them.  A refused stack is checked one sample at a time,
    so a refused matrix raises only after every earlier sample is yielded."""
    for samples in stacks:
        points, mats = draw(samples)
        # An overflow is refused, naming the value, by the checks below.
        with np.errstate(over="ignore", invalid="ignore"):
            Z = plan.run(mats)[0]
        try:
            eigs = np.linalg.eigvalsh(_check_numeric_symmetry(Z, ndim=3))
        except ValueError:
            eigs = (np.linalg.eigvalsh(_check_numeric_symmetry(M)) for M in Z)
        yield from zip(samples, points, eigs)


def sample_matrix_positive(p: Poly, cfg: SampleConfig) -> SampleVerdict:
    """Search for an evaluation of p with an eigenvalue below -tol.

    Draws every matrix from the substream keyed by (seed, size, sample,
    slot); the verdict is deterministic and independent of execution order.
    A counterexample reports the lowest (size, sample index) hit, and the
    counts cover the samples up to that one.  Absence of a counterexample
    is NOT a positivity certificate.
    """
    if not p.is_symmetric():
        raise ValueError("sample_matrix_positive requires a symmetric polynomial")
    plan = EvalPlan.of(p)
    tested = 0
    min_seen = float("inf")
    for n in cfg.sizes:
        draw = partial(_draw_stack, cfg, p.g, n, with_h=p.contains_h)
        for s, pt, eigs in _search(plan, _chunks(cfg.samples_per_size), draw):
            me = float(eigs[0])
            tested += 1
            min_seen = min(min_seen, me)
            if me < -cfg.tol:
                return SampleVerdict(
                    kind="Counterexample",
                    witness=Witness(n=n, X=pt.X, H=pt.H, min_eig=me, sample_index=s),
                    samples_tested=tested,
                    min_eigenvalue_seen=min_seen,
                )
    return SampleVerdict(
        kind="NoCounterexampleFound",
        witness=None,
        samples_tested=tested,
        min_eigenvalue_seen=min_seen if tested else 0.0,
    )


def subharmonic_at_point(
    p: Poly, X: Sequence[np.ndarray], cfg: SampleConfig
) -> PointVerdict:
    """Decide positivity of the Laplacian of p at a fixed tuple X.

    If the evaluated middle matrix Z(X) of the Laplacian is PSD the verdict
    holds for every direction H (certificate).  Otherwise up to
    cfg.h_samples directions are sampled for a concrete negative eigenvalue;
    failing both, the honest answer is Unknown, because an indefinite Z(X)
    does not by itself refute positivity at X.
    """
    if p.contains_h:
        raise ValueError("subharmonic_at_point expects an h-free polynomial")
    if not p.is_symmetric():
        raise ValueError("subharmonic_at_point requires a symmetric polynomial")
    lap = laplacian(p)
    rep = extract(lap)
    X = tuple(np.asarray(M, dtype=float) for M in X)
    n = X[0].shape[0] if X else 1
    with np.errstate(over="ignore", invalid="ignore"):
        Zx = evaluate_middle(rep, X)
    _, psd = ldl_pivots(Zx, cfg.tol) if Zx.size else ([], True)
    if psd:
        return PointVerdict(kind="CertifiedAllH")

    def draw(samples):
        Hs = [_draw_slot(cfg, n, s, p.g) for s in samples]
        return Hs, [np.stack(Hs), *X]

    for s, H, eigs in _search(EvalPlan.of(lap), _chunks(cfg.h_samples), draw):
        if eigs[0] < -cfg.tol:
            return PointVerdict(
                kind="CounterexampleH",
                witness=Witness(n=n, X=X, H=H, min_eig=float(eigs[0]), sample_index=s),
            )
    return PointVerdict(kind="Unknown")
