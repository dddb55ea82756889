"""Numeric positivity testing with reproducible seeded sampling.

Random matrix tuples are drawn from a splitmix64 stream keyed by
(seed, size, sample index, matrix slot), so every verdict is a pure
function of the polynomial and the configuration, independent of
execution order or platform.  splitmix64's state is a Weyl sequence: the
k-th output of a stream whose state starts at s0 is mix(s0 + k * gamma mod
2^64).  So one keyed draw, _draw_matrices, computes every entry of every
matrix of a stack of samples in one pass over uint64 arrays, byte-equal to
drawing them one at a time with draw_symmetric.  Every random search (the
sampler, the direction search at a fixed X and the classifier's sign-flip
search) draws through it and reads its eigenvalues from one loop, _search,
that evaluates a stack of samples per plan run.  Sampling can only refute
positivity (produce a witness with a negative eigenvalue); the one
per-point certificate available here is positive semidefiniteness of the
evaluated middle matrix, which guarantees positivity of the Laplacian in
every direction H at that point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .calculus import laplacian
from .middlematrix import evaluate_middle, laplacian_middle
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
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# The largest matrix size a SampleConfig accepts.  200 samples of a degree-4
# Laplacian take 0.07 s and 48 MB at n = 32, 0.24 s and 62 MB at n = 64, and
# 1.1 s and 146 MB at n = 128 (2 cores, CPython 3.11, numpy 2.4; peak RSS of
# the whole process).
MAX_SAMPLE_SIZE = 64

# ldl_pivots runs its Schur update on the whole masked ndarray while more
# than this many rows remain, and over Python lists after.  Whole random PSD
# eliminations, lists alone / masked alone: 93 / 155 us at 8 rows, 280 /
# 285 us at 16, 1321 / 609 us at 32.  Over the 32 middle matrices (3 to 60
# rows) of the sweep benchmark's point ops, a switch at 8 or 16 took 5.6 ms,
# at 32 6.9 ms, lists alone 11.7 ms and masked alone 6.2 ms.
_LDL_LIST_MAX = 16


class SplitMix64:
    """The splitmix64 generator; 64-bit state, platform independent."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
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


# The draw kernel's constants as numpy uint64 scalars.  Every product and
# sum below has a uint64 array operand, so it wraps mod 2^64 without a
# warning and its bits do not depend on how numpy casts Python integers.
_GAMMA_U64, _MIX1_U64, _MIX2_U64 = map(np.uint64, (_GAMMA, _MIX1, _MIX2))
_U11, _U27, _U30, _U31 = map(np.uint64, (11, 27, 30, 31))


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function on a uint64 array, in place."""
    z ^= z >> _U30
    z *= _MIX1_U64
    z ^= z >> _U27
    z *= _MIX2_U64
    z ^= z >> _U31
    return z


def _fold(states: np.ndarray, parts: range) -> np.ndarray:
    """substream's key step, SplitMix64(s ^ part).next_u64(), for every
    state s and part, of shape states.shape + (len(parts),)."""
    z = states[..., None] ^ np.arange(parts.start, parts.stop, dtype=np.uint64)
    z += _GAMMA_U64
    return _mix(z)


@dataclass(frozen=True)
class SampleConfig:
    seed: int = 0
    sizes: tuple = (1, 2, 3, 4)
    samples_per_size: int = 200
    h_samples: int = 50
    tol: float = 1e-9
    entry_range: float = 1.0

    def __post_init__(self):
        # Integer fields are stored as the int operator.index gives, so a
        # numpy integer works and 1.7 or "3" never reaches a draw.
        for name in ("seed", "samples_per_size", "h_samples"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        try:
            sizes = tuple(self.sizes)
        except TypeError:
            raise ValueError(
                f"sizes must be a sequence of integers, got {self.sizes!r}"
            ) from None
        sizes = tuple(_integer(f"sizes[{i}]", n) for i, n in enumerate(sizes))
        object.__setattr__(self, "sizes", sizes)
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be nonempty with every entry >= 1")
        if max(self.sizes) > MAX_SAMPLE_SIZE:
            raise ValueError(
                f"sizes must be at most MAX_SAMPLE_SIZE = {MAX_SAMPLE_SIZE}, "
                f"got {max(self.sizes)}"
            )
        if self.samples_per_size < 1:
            raise ValueError("samples_per_size must be at least 1")
        if self.h_samples < 1:
            raise ValueError("h_samples must be at least 1")
        for name in ("tol", "entry_range"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _integer(name: str, value) -> int:
    """value as an int, if operator.index takes it and it is not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


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

    Pivots on the largest remaining |diagonal| entry, the first one on a
    tie; a nan diagonal entry wins, as in np.argmax.  The matrix passes as
    positive semidefinite iff every pivot is >= -tol and, once the whole
    remaining diagonal falls inside [-tol, tol], the remaining off-diagonal
    entries do too (a zero row test, the numeric form of the zeroes screen).
    Every Schur entry is a - (c_i*c_j)/d, so the pivots do not depend on
    which update loop computed them.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be a number >= 0, got {tol!r}")
    A = _check_numeric_symmetry(M)
    pivots: list[float] = []
    psd = True
    m = A.shape[0]
    if m > _LDL_LIST_MAX:
        # Eliminated rows stay in place, masked out of the pivot search and
        # the update, so each step is a few calls on the whole matrix.
        active = np.ones(m, dtype=bool)
        with np.errstate(all="ignore"):
            while m > _LDL_LIST_MAX:
                k = int(np.argmax(np.where(active, np.abs(A.diagonal()), -1.0)))
                d = float(A[k, k])
                if abs(d) <= tol:
                    break
                pivots.append(d)
                if d < -tol:
                    psd = False
                active[k] = False
                m -= 1
                col = np.where(active, A[:, k], 0.0)
                A -= np.outer(col, col) / d
        A = A[np.ix_(active, active)]
    # The lists hold the lower triangle, row i its entries 0..i: the
    # matrix stays exactly symmetric, since c_i*c_j == c_j*c_i.
    S = [row[: i + 1] for i, row in enumerate(A.tolist())]
    while S:
        diag = [abs(row[-1]) for row in S]
        total = sum(diag)  # nan exactly when an entry is
        if total == total:
            k = diag.index(max(diag))
        else:
            k = next(i for i, v in enumerate(diag) if v != v)
        d = S[k][k]
        if abs(d) <= tol:
            # The whole remaining diagonal is numerically zero.
            if max((abs(v) for row in S for v in row[:-1]), default=0.0) > tol:
                psd = False
            pivots.extend(row[-1] for row in S)
            break
        pivots.append(d)
        if d < -tol:
            psd = False
        col = S.pop(k)[:k] + [row.pop(k) for row in S[k:]]
        S = [[a - ci * cj / d for a, cj in zip(row, col)] for row, ci in zip(S, col)]
    return pivots, psd


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue via the deterministic symmetric solver."""
    A = _check_numeric_symmetry(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(A)[0])


def _draw_matrices(cfg: SampleConfig, n: int, samples: range, slots: range) -> np.ndarray:
    """The one keyed draw: every matrix the samplers draw, as an array of
    shape (len(samples), len(slots), n, n) whose [k, l] matrix equals
    draw_symmetric(substream(cfg.seed, n, samples[k], slots[l]), n,
    cfg.entry_range) byte for byte.

    The k-th output of a stream is mix(s0 + k * gamma), so all n(n+1)/2
    entries of every (sample, slot) come from one pass over a uint64 array
    and the same IEEE steps as next_uniform.  Each matrix is gathered from
    its upper triangle, so it is finite and exactly symmetric.
    """
    key = np.array([substream(cfg.seed, n)._state], dtype=np.uint64)
    states = _fold(_fold(key, samples)[0], slots)
    count = n * (n + 1) // 2
    z = states[..., None] + np.arange(1, count + 1, dtype=np.uint64) * _GAMMA_U64
    u = (_mix(z) >> _U11).astype(np.float64)
    u *= 2.0 ** -53
    u *= 2.0
    u -= 1.0
    u *= float(cfg.entry_range)
    # Entry (i, j), i <= j, is number i(2n + 1 - i)/2 + j - i of the upper
    # triangle row-major; (j, i) reads the same one.
    i = np.arange(n)
    lo, hi = np.minimum.outer(i, i), np.maximum.outer(i, i)
    return np.take(u, lo * (2 * n + 1 - lo) // 2 + hi - lo, axis=-1)


def draw_point(
    cfg: SampleConfig, g: int, n: int, sample: int, with_h: bool
) -> MatrixPoint:
    """The sample-th n x n point of cfg: X_i from slot i - 1 and, when
    with_h, H from slot g.

    Every sampler draws through the same keyed draw, so a matrix depends
    only on its key (seed, size, sample, slot) and never on which search
    asked for it.
    """
    M = _draw_matrices(cfg, n, range(sample, sample + 1), range(g + with_h))[0]
    return MatrixPoint(X=tuple(M[:g]), H=M[g] if with_h else None)


def _drawn_witness(
    n: int, sample: int, drawn: np.ndarray, g: int, min_eig: float
) -> Witness:
    """The witness at one drawn point, drawn[i] standing for x_(i+1) and
    drawn[g], when present, for H.  Its matrices are copies, so it does not
    pin the stack they were drawn in."""
    return Witness(n=n, X=tuple(M.copy() for M in drawn[:g]),
                   H=drawn[g].copy() if len(drawn) > g else None,
                   min_eig=min_eig, sample_index=sample)


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
) -> tuple[np.ndarray, list]:
    """The points of the given samples, of shape (samples, slots, n, n),
    and their matrices stacked per letter, as EvalPlan.run takes them."""
    M = _draw_matrices(cfg, n, samples, range(g + with_h))
    return M, [M[:, g] if with_h else None, *(M[:, i] for i in range(g))]


def _search(plan: EvalPlan, stacks, draw):
    """Yield (sample, point, eigenvalues) in order, one plan.run per stack
    of samples, where draw(samples) gives the points, indexed by sample,
    and their matrices as plan.run takes them.  A refused stack is checked
    one sample at a time, so a refused matrix raises only after every
    earlier sample is yielded."""
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
        for s, drawn, eigs in _search(plan, _chunks(cfg.samples_per_size), draw):
            me = float(eigs[0])
            tested += 1
            min_seen = min(min_seen, me)
            if me < -cfg.tol:
                return SampleVerdict(
                    kind="Counterexample",
                    witness=_drawn_witness(n, s, drawn, p.g, me),
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

    Z(X) is evaluated from the middle matrix of the Laplacian, built
    straight from p's word splits (laplacian_middle).  If Z(X) is PSD the
    verdict holds for every direction H (certificate), and the Laplacian
    itself is never built.  Otherwise up to cfg.h_samples directions are
    sampled for a concrete negative eigenvalue of the Laplacian; failing
    both, the honest answer is Unknown, because an indefinite Z(X) does not
    by itself refute positivity at X.  p must be h-free, and symmetric as
    laplacian_middle tests; otherwise ValueError.
    """
    if p.contains_h:
        raise ValueError("subharmonic_at_point expects an h-free polynomial")
    rep = laplacian_middle(p)
    X = tuple(np.asarray(M, dtype=float) for M in X)
    n = X[0].shape[0] if X else 1
    with np.errstate(over="ignore", invalid="ignore"):
        Zx = evaluate_middle(rep, X)
    if ldl_pivots(Zx, cfg.tol)[1]:
        return PointVerdict(kind="CertifiedAllH")

    def draw(samples):
        Hs = _draw_matrices(cfg, n, samples, range(p.g, p.g + 1))[:, 0]
        return Hs, [Hs, *X]

    plan = EvalPlan.of(laplacian(p))
    for s, H, eigs in _search(plan, _chunks(cfg.h_samples), draw):
        if eigs[0] < -cfg.tol:
            return PointVerdict(
                kind="CounterexampleH",
                witness=Witness(n=n, X=X, H=H.copy(), min_eig=float(eigs[0]),
                                sample_index=s),
            )
    return PointVerdict(kind="Unknown")
