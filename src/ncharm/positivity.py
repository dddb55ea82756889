"""Numeric positivity testing with reproducible seeded sampling.

Random matrix tuples are drawn from a splitmix64 stream keyed by
(seed, size, sample index, matrix slot), so every verdict is a pure
function of the polynomial and the configuration, independent of
execution order or platform.  splitmix64's state is a Weyl sequence: the
k-th output of a stream whose state starts at s0 is mix(s0 + k * gamma mod
2^64).  So one keyed draw, _draw_matrices, computes every entry of every
matrix of a stack of samples in one pass over uint64 arrays, byte-equal to
drawing them one at a time with draw_symmetric.  Every random search
lives in this module: the sampler, the direction search at a fixed X and
the sign-flip search for odd degrees (odd_witness).  Each draws through
_draw_matrices and reads its eigenvalues from one loop, _search, that
evaluates a stack of samples per plan run.  Sampling can only refute
positivity (produce a witness with a negative eigenvalue); the one
per-point certificate available here is positive semidefiniteness of the
evaluated middle matrix Z(X) of the Laplacian, which guarantees positivity
of the Laplacian in every direction H at that point.  The point check takes
Z(X) from evaluate_middle(extract(laplacian(p)), X), the one construction
of the Laplacian's middle matrix, with Lap(p) kept on p.  The samplers run
the EvalPlan that each Poly compiles once and keeps, and both multiply
words in _evalplan's one kernel.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Sequence

import numpy as np

from ._evalplan import _RUN_BYTES, EvalPlan
from ._record import record
from ._sampleconfig import MAX_SAMPLE_SIZE, SampleConfig
from .calculus import laplacian
from .middlematrix import evaluate_middle, extract
from .ncpoly import H_LETTER, Poly, _derived

__all__ = [
    "SplitMix64",
    "substream",
    "draw_symmetric",
    "SampleConfig",
    "Witness",
    "SampleVerdict",
    "PointVerdict",
    "ldl_pivots",
    "min_eigenvalue",
    "sample_matrix_positive",
    "subharmonic_at_point",
    "odd_witness",
]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# ldl_pivots runs its Schur update on the whole masked ndarray while more
# than this many rows remain, and over Python lists after.  Whole random PSD
# eliminations, lists alone / masked alone: 47 / 74 us at 8 rows, 142 /
# 141 us at 16, 638 / 323 us at 32.  Over the 32 middle matrices (3 to 60
# rows) of the sweep benchmark's point ops, a switch at 8 or 16 took 2.4 ms,
# at 32 3.0 ms, lists alone 5.8 ms and masked alone 2.7 ms (best of 60).
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


@record(eq=False)
class Witness:
    """A concrete refutation: evaluation point with a negative eigenvalue."""

    n: int
    X: tuple
    H: Optional[np.ndarray]
    min_eig: float
    sample_index: int


@record(eq=False)
class SampleVerdict:
    kind: str                      # "NoCounterexampleFound" | "Counterexample"
    witness: Optional[Witness]
    samples_tested: int
    min_eigenvalue_seen: float


@record(eq=False)
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
                    # The remaining diagonal is numerically zero: the zero
                    # row test reads the largest |entry| left (nan passes).
                    B = A[np.ix_(active, active)]
                    psd = psd and not np.max(np.abs(B)) > tol
                    return pivots + B.diagonal().tolist(), psd
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


def _drawn_witness(
    n: int, sample: int, drawn: np.ndarray, g: int, min_eig: float
) -> Witness:
    """The witness at one drawn point, drawn[i] standing for x_(i+1) and
    drawn[g], when present, for H.  Its matrices are copies, so it does not
    pin the stack they were drawn in."""
    return Witness(n=n, X=tuple(M.copy() for M in drawn[:g]),
                   H=drawn[g].copy() if len(drawn) > g else None,
                   min_eig=min_eig, sample_index=sample)


def _stacks(count: int, n: int, slots: int):
    """Split range(count) into consecutive ranges of 2, 4, 8, ... samples,
    each at most the cap whose draw and evaluated stack fit _RUN_BYTES:
    per sample, slots n x n matrices drawn from n(n+1)/2 states and as many
    uniforms each, and one evaluated n x n matrix, at 8 bytes an entry.

    A search that stops at its first hit evaluates each range as one stack
    and so evaluates at most twice the samples it needed.
    """
    cap = max(1, _RUN_BYTES // (8 * n * (slots * (2 * n + 1) + n)))
    start, size = 0, min(2, cap)
    while start < count:
        stop = min(count, start + size)
        yield range(start, stop)
        start, size = stop, min(2 * size, cap)


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
            Z = plan.run(mats)
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
    plan = _derived(p, EvalPlan)
    with_h = H_LETTER in plan.letters
    tested = 0
    min_seen = float("inf")
    for n in cfg.sizes:
        draw = partial(_draw_stack, cfg, p.g, n, with_h=with_h)
        stacks = _stacks(cfg.samples_per_size, n, p.g + with_h)
        for s, drawn, eigs in _search(plan, stacks, draw):
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

    Z(X), the middle matrix of the Laplacian evaluated at X, is
    evaluate_middle(extract(lap), X), where lap = Lap(p) is built on the
    first call for p and kept on p, as is its EvalPlan; so repeated calls
    on one p expand the Laplacian once.  If Z(X) is PSD the verdict holds
    for every direction H (certificate).  Otherwise up to cfg.h_samples
    directions are sampled for a concrete negative eigenvalue of the
    Laplacian; failing both, the honest answer is Unknown, because an
    indefinite Z(X) does not by itself refute positivity at X.  p must be
    h-free and symmetric, and its Laplacian at most MAX_LAPLACIAN_LETTERS
    letters; otherwise ValueError.
    """
    if p.contains_h:
        raise ValueError("subharmonic_at_point expects an h-free polynomial")
    if not p.is_symmetric():
        raise ValueError("subharmonic_at_point requires a symmetric polynomial")
    X = tuple(X)
    lap = _derived(p, laplacian)
    with np.errstate(over="ignore", invalid="ignore"):
        Zx = evaluate_middle(extract(lap), X)
    X = tuple(np.asarray(M, dtype=float) for M in X)
    n = X[0].shape[0]
    if ldl_pivots(Zx, cfg.tol)[1]:
        return PointVerdict(kind="CertifiedAllH")

    def draw(samples):
        Hs = _draw_matrices(cfg, n, samples, range(p.g, p.g + 1))[:, 0]
        return Hs, [Hs, *X]

    plan = _derived(lap, EvalPlan)
    for s, H, eigs in _search(plan, _stacks(cfg.h_samples, n, 1), draw):
        if eigs[0] < -cfg.tol:
            return PointVerdict(
                kind="CounterexampleH",
                witness=Witness(n=n, X=X, H=H.copy(), min_eig=float(eigs[0]),
                                sample_index=s),
            )
    return PointVerdict(kind="Unknown")


def odd_witness(lap: Poly, cfg: SampleConfig) -> Optional[Witness]:
    """Witness search for odd total degree: the Laplacian is odd in x, so
    if a sampled point is positive, flipping the sign of X flips it."""
    plan = _derived(lap, EvalPlan)
    stacks = [range(s, s + 1) for s in range(min(cfg.samples_per_size, 8))]
    for n in cfg.sizes:
        draw = partial(_draw_stack, cfg, lap.g, n, with_h=True)
        for s, drawn, eigs in _search(plan, stacks, draw):
            if eigs[0] < -cfg.tol:
                return _drawn_witness(n, s, drawn, lap.g, float(eigs[0]))
            if eigs[-1] > cfg.tol:
                X, H = drawn[: lap.g], drawn[lap.g]
                Xn = tuple(-Xi for Xi in X)
                with np.errstate(over="ignore", invalid="ignore"):
                    M = plan.run([H, *Xn])
                me = min_eigenvalue(M)
                if me < -cfg.tol:
                    return Witness(n=n, X=Xn, H=H.copy(), min_eig=me, sample_index=s)
    return sample_matrix_positive(lap, cfg).witness
