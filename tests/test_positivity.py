import functools
import random
import time
import warnings
from fractions import Fraction
from itertools import takewhile

import numpy as np
import pytest

from ncharm import (
    MatrixPoint,
    Poly,
    SampleConfig,
    evaluate,
    laplacian,
    ldl_pivots,
    min_eigenvalue,
    parse,
    sample_matrix_positive,
    subharmonic_at_point,
    symmetrize,
)
from ncharm import ncpoly, positivity
from ncharm.positivity import (
    SplitMix64,
    _check_numeric_symmetry,
    draw_symmetric,
    substream,
)

from _helpers import (
    ldl_pivots_oracle,
    random_point,
    random_poly,
    random_symmetric_homogeneous,
)


REGION_FAMILY = "x1^3 - x1*x2^2 - x2^2*x1 + x2*x1*x2"


class TestLdlPivots:
    def test_identity(self):
        pivots, psd = ldl_pivots(np.eye(3), 1e-9)
        assert psd
        assert pivots == [1.0, 1.0, 1.0]

    def test_zero_diagonal_block(self):
        pivots, psd = ldl_pivots(np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-9)
        assert not psd

    def test_worked_example_matrix(self):
        M = np.array(
            [
                [1.0, 0.0, 0.0, -1.0],
                [0.0, 3.0, 0.0, 0.0],
                [0.0, 0.0, 5.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
            ]
        )
        pivots, psd = ldl_pivots(M, 1e-9)
        assert not psd

    def test_negative_definite(self):
        pivots, psd = ldl_pivots(np.diag([2.0, -3.0]), 1e-9)
        assert not psd
        assert -3.0 in pivots

    def test_psd_rank_deficient(self):
        v = np.array([[1.0], [2.0], [0.0]])
        pivots, psd = ldl_pivots(v @ v.T, 1e-9)
        assert psd

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ldl_pivots(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-9)

    def test_consistency_with_min_eigenvalue(self):
        rnd = random.Random(41)
        tol = 1e-9
        for _ in range(50):
            n = rnd.randint(1, 6)
            A = np.array([[rnd.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
            M = A @ A.T  # PSD by construction
            pivots, psd = ldl_pivots(M, tol)
            assert psd
            assert min_eigenvalue(M) >= -10 * tol

    def test_agrees_with_eigenvalues_on_indefinite_mix(self):
        rnd = random.Random(42)
        tol = 1e-9
        for _ in range(120):
            n = rnd.randint(1, 5)
            M = symmetrize(
                np.array([[rnd.uniform(-1, 1) for _ in range(n)]
                          for _ in range(n)])
            )
            _, psd = ldl_pivots(M, tol)
            me = min_eigenvalue(M)
            if psd:
                assert me >= -10 * tol
            if me >= tol:
                assert psd


LDL_KINDS = ("psd", "rank_deficient", "zero_block", "indefinite", "ties", "overflow")


def _ldl_matrix(rnd: random.Random, kind: str, n: int) -> np.ndarray:
    def uniform(rows, cols):
        return np.array([[rnd.uniform(-1, 1) for _ in range(cols)] for _ in range(rows)])

    if kind == "psd":
        B = uniform(n, n)
        return B @ B.T
    if kind == "rank_deficient":
        # Rounding leaves a tail of |diagonal| entries far below tol.
        B = uniform(n, rnd.randint(0, n - 1)).reshape(n, -1)
        return B @ B.T
    if kind == "zero_block":
        # Exactly zero rows and columns, two of them joined by an entry
        # that the zero row test passes or fails.
        B = uniform(n, rnd.randint(1, n))
        zeros = rnd.sample(range(n), rnd.randint(1, n))
        B[zeros] = 0.0
        M = B @ B.T
        if len(zeros) > 1:
            i, j = zeros[:2]
            M[i, j] = M[j, i] = rnd.choice([1e-12, -1e-12, 0.25])
        return M
    if kind == "indefinite":
        A = uniform(n, n)
        return A + A.T
    if kind == "ties":
        A = np.array([[float(rnd.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        return A + A.T
    # overflow: Schur updates reach inf and inf - inf = nan.
    values = [1e200, -1e200, 1e150, 3.0, 1e-9, 0.0]
    A = np.array([[rnd.choice(values) for _ in range(n)] for _ in range(n)])
    return np.triu(A) + np.triu(A, 1).T


@functools.cache
def _ldl_cases():
    """1,200 seeded matrices of size 1-80, a quarter of them above 24."""
    rnd = random.Random(46)
    cases = []
    for i in range(1200):
        n = rnd.randint(25, 80) if i % 4 == 0 else rnd.randint(1, 24)
        kind = LDL_KINDS[i % len(LDL_KINDS)]
        cases.append((kind, _ldl_matrix(rnd, kind, n)))
    return cases


def _ldl_agrees(M, tol=1e-9):
    with np.errstate(all="ignore"):
        want = ldl_pivots_oracle(M, tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ldl_pivots(M, tol)
    return ([p.hex() for p in got[0]], got[1]) == ([p.hex() for p in want[0]], want[1])


class TestLdlOracle:
    def test_cases_cover_both_loops_and_every_branch(self):
        sizes = [M.shape[0] for _, M in _ldl_cases()]
        assert min(sizes) == 1 and max(sizes) == 80
        assert sum(n <= positivity._LDL_LIST_MAX for n in sizes) >= 600
        assert sum(n > positivity._LDL_LIST_MAX for n in sizes) >= 300
        with np.errstate(all="ignore"):
            results = [ldl_pivots_oracle(M, 1e-9) for _, M in _ldl_cases()[:300]]
        assert {psd for _, psd in results} == {True, False}
        assert any(any(p != p for p in pivots) for pivots, _ in results)
        assert any(abs(pivots[-1]) <= 1e-9 for pivots, _ in results)
        # The masked loop's own zero-block exit: more than _LDL_LIST_MAX
        # rows left once the remaining diagonal is within tol, its zero row
        # test passed (psd) and failed (not psd with no pivot below -tol).
        exits = set()
        for pivots, psd in results:
            left = len(list(takewhile(lambda v: abs(v) <= 1e-9, reversed(pivots))))
            if left > positivity._LDL_LIST_MAX:
                exits.add("passed" if psd else
                          "negative pivot" if any(v < -1e-9 for v in pivots) else "failed")
        assert {"passed", "failed"} <= exits

    def test_pivots_bit_equal_without_warnings(self):
        bad = [(kind, M.shape[0]) for kind, M in _ldl_cases() if not _ldl_agrees(M)]
        assert bad == []

    @pytest.mark.parametrize("switch", [0, 10**6])
    def test_either_loop_alone_is_bit_equal(self, monkeypatch, switch):
        # 0 runs every update on the masked ndarray; 10**6 every one on lists.
        monkeypatch.setattr(positivity, "_LDL_LIST_MAX", switch)
        cases = _ldl_cases()[::5]
        bad = [(kind, M.shape[0]) for kind, M in cases if not _ldl_agrees(M)]
        assert bad == []

    def test_overflow_repro_prints_nothing(self):
        M = [[2e-9, 1e200, 1e200], [1e200, 1e-9, 1e-9], [1e200, 1e-9, 1e-9]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pivots, psd = ldl_pivots(M, 1e-9)
            verdict = subharmonic_at_point(
                parse("x1^2*x2^2*x1^2 + x2^6 + x1^6", 2),
                ([[1e60, 1], [1, 1e-60]], [[1e-60, 1e60], [1e60, 2]]),
                SampleConfig(),
            )
        assert [p.hex() for p in pivots] == ["0x1.12e0be826d695p-29", "-inf", "nan"]
        assert psd is False
        assert verdict.kind == "Unknown"

    @pytest.mark.parametrize("tol", [-1e-9, float("nan")])
    def test_rejects_tol_below_zero(self, tol):
        with pytest.raises(ValueError, match="tol must be a number >= 0"):
            ldl_pivots(np.eye(2), tol)


class TestPlanKeptOnPoly:
    """Each Poly compiles its EvalPlan once, on first use, and keeps it
    (ncpoly._derived) for evaluate and every sampler."""

    def _count(self, monkeypatch):
        built = []
        init = ncpoly.EvalPlan.__init__

        def counting(plan, p):
            built.append(p)
            init(plan, p)

        monkeypatch.setattr(ncpoly.EvalPlan, "__init__", counting)
        return built

    def test_sampler_compiles_once(self, monkeypatch):
        lap = laplacian(parse("x1^2*x2^2*x1^2 + x2^6 + x1^6", 2))
        built = self._count(monkeypatch)
        cfg = SampleConfig(seed=3, sizes=(1, 2), samples_per_size=3)
        verdicts = {_canon_verdict(sample_matrix_positive(lap, cfg)) for _ in range(3)}
        assert built == [lap]
        assert len(verdicts) == 1

    def test_odd_witness_fallback_compiles_once(self, monkeypatch):
        # No eigenvalue is beyond a tol this large, so the sign-flip search
        # finds nothing and falls back to sample_matrix_positive.
        lap = laplacian(parse(REGION_FAMILY, 2))
        built = self._count(monkeypatch)
        assert positivity.odd_witness(lap, SampleConfig(tol=1e300)) is None
        assert built == [lap]

    def test_evaluate_compiles_once(self, monkeypatch):
        p = parse("x1*x2 + x2*x1 + 3*x2^2", 2)
        pt = MatrixPoint(X=(np.diag([1.0, -2.0]), np.array([[0.5, 1.0], [1.0, 3.0]])))
        built = self._count(monkeypatch)
        assert evaluate(p, pt).tobytes() == evaluate(p, pt).tobytes()
        assert built == [p]

    def test_kept_plan_equals_a_fresh_one(self):
        rnd = random.Random(47)
        cfg = SampleConfig(seed=5, sizes=(1, 2), samples_per_size=2)
        for i in range(200):
            q = random_poly(rnd, 2, 4, with_h=bool(i % 2))
            p = q if i % 3 == 0 else q + q.transpose()
            fresh = Poly._raw(p.g, dict(p._terms))
            assert [p.is_symmetric() for _ in range(3)] == [fresh.is_symmetric()] * 3
            assert p.is_symmetric() == (p == p.transpose())
            x1, x2, h = random_point(rnd, 3, 2)
            pt = MatrixPoint(X=(x1, x2), H=h)
            want = ncpoly.EvalPlan(fresh).run([pt.H, *pt.X]).tobytes()
            assert [evaluate(p, pt).tobytes() for _ in range(2)] == [want] * 2
            if p.is_symmetric():
                want = _canon_verdict(sample_matrix_positive(fresh, cfg))
                got = [_canon_verdict(sample_matrix_positive(p, cfg)) for _ in range(2)]
                assert got == [want] * 2


def _canon_verdict(v):
    w = v.witness
    witness = None if w is None else (
        w.n, w.sample_index, w.min_eig.hex(),
        tuple(np.asarray(M).tobytes() for M in (*w.X, w.H) if M is not None))
    return v.kind, v.samples_tested, v.min_eigenvalue_seen.hex(), witness


class TestMinEigenvalue:
    def test_examples(self):
        assert min_eigenvalue(np.diag([2.0, -3.0])) == pytest.approx(-3.0, abs=1e-12)
        assert min_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
            -1.0, abs=1e-12
        )
        assert min_eigenvalue(np.ones((2, 2))) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.array([[0.0, 2.0], [0.0, 0.0]]))


class TestNonFinite:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_named_before_the_skew_test(self, bad):
        # inf - inf is nan, which passes a "skew > bound" test unnoticed and
        # warns on the way.
        M = np.array([[1.0, bad], [bad, 0.0]])
        message = f"must be finite numbers, found {bad}"
        with pytest.raises(ValueError, match=message):
            min_eigenvalue(M)
        with pytest.raises(ValueError, match=message):
            ldl_pivots(M, 1e-9)
        with pytest.raises(ValueError, match=message):
            _check_numeric_symmetry(np.stack([np.eye(2), M]), ndim=3)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_symmetrizing_overflow(self):
        M = np.array([[1.0, 1.5e308], [1.5e308, 1.0]])
        with pytest.raises(ValueError, match="found inf"):
            min_eigenvalue(M)

    def test_stack_checks_each_matrix(self):
        skewed = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            _check_numeric_symmetry(np.stack([np.eye(2), skewed]), ndim=3)
        with pytest.raises(ValueError, match="square"):
            _check_numeric_symmetry(np.eye(2), ndim=3)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_later_overflow_keeps_earlier_witness(self):
        # Sample 0 (x1 = -3.19, x2 = 0.34) is a hit; sample 1, drawn in the
        # same stack, has x2 = -7.93, so x2^400 overflows to inf.  The hit
        # wins, as when every sample was evaluated on its own.
        p = parse("x2^400 - x1^2", 2)
        cfg = SampleConfig(seed=131, sizes=(1, 2), samples_per_size=4, entry_range=10.0)
        verdict = sample_matrix_positive(p, cfg)
        w = verdict.witness
        assert (verdict.kind, verdict.samples_tested) == ("Counterexample", 1)
        assert (w.n, w.sample_index) == (1, 0)
        assert w.min_eig.hex() == verdict.min_eigenvalue_seen.hex() == "-0x1.45ce174a35c72p+3"
        assert [M.tobytes().hex() for M in w.X] == ["7a7cebd2d28609c0", "e024dbe893fbd53f"]
        # Without the earlier hit the overflow is refused by name.
        with pytest.raises(ValueError, match="found inf"):
            sample_matrix_positive(parse("x2^400 + x1^2", 2), cfg)


class TestSplitMix:
    def test_deterministic(self):
        a = [SplitMix64(42).next_u64() for _ in range(5)]
        b = [SplitMix64(42).next_u64() for _ in range(5)]
        assert a == b

    def test_substream_keying(self):
        assert substream(1, 2, 3).next_u64() == substream(1, 2, 3).next_u64()
        assert substream(1, 2, 3).next_u64() != substream(1, 3, 2).next_u64()

    def test_substream_pinned_values(self):
        assert substream(1, 2, 3).next_u64() == 1321962074176129191
        assert substream(0).next_u64() == 12035550249420947055
        assert substream(2009, 4, 1, 2).next_u64() == 6503644589192167711

    def test_draw_symmetric(self):
        M = draw_symmetric(substream(5, 3), 4, 1.0)
        assert np.array_equal(M, M.T)
        assert np.max(np.abs(M)) <= 1.0


class TestDrawKernel:
    """The one-pass draw equals draw_symmetric on each key, byte for byte."""

    @pytest.mark.parametrize("seed", [0, -1, 2 ** 64 - 1, 2 ** 70 + 3])
    @pytest.mark.parametrize("entry_range", [1.0, 0.3, 1e300])
    def test_stacks_equal_scalar_draws(self, seed, entry_range):
        for n in (1, 2, 3, 4, 7, 16, 64):
            cfg = SampleConfig(seed=seed, entry_range=entry_range)
            for samples in (range(0, 2), range(2 ** 32 + 7, 2 ** 32 + 8)):
                want = [[draw_symmetric(substream(seed, n, s, slot), n, entry_range).tobytes()
                         for slot in range(4)] for s in samples]
                for g in (1, 2, 3):
                    for with_h in (False, True):
                        points, mats = positivity._draw_stack(cfg, g, n, samples, with_h)
                        assert points.shape == (len(samples), g + with_h, n, n)
                        assert [[M.tobytes() for M in pt] for pt in points] == [
                            w[: g + with_h] for w in want]
                        # Letter 0 is h, letter i is x_i.
                        assert (mats[0] is None) == (not with_h)
                        letters = [mats[i] for i in range(1, g + 1)]
                        if with_h:
                            letters.append(mats[0])
                        for k, w in enumerate(want):
                            assert [L[k].tobytes() for L in letters] == w[: g + with_h]

    def test_no_overflow_warning(self):
        # Every uint64 product and sum wraps on arrays, silently.
        cfg = SampleConfig(seed=2 ** 64 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            positivity._draw_stack(cfg, 2, 64, range(2 ** 64 - 3, 2 ** 64 - 1), True)


class TestSamplersDrawInOnePass:
    """No sampler draws entry by entry or re-validates what it drew."""

    @pytest.fixture
    def points_made(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("drew entry by entry")

        monkeypatch.setattr(positivity, "draw_symmetric", refuse)
        monkeypatch.setattr(SplitMix64, "next_uniform", refuse)
        made = []
        check = MatrixPoint.__post_init__
        monkeypatch.setattr(MatrixPoint, "__post_init__",
                            lambda pt: made.append(pt) or check(pt))
        return made

    def test_sampler(self, points_made):
        K = parse("x1*x2 - x2*x1", 2)
        p = K * K + parse("x1^4 + x2^4", 2)
        cfg = SampleConfig(seed=5, sizes=(1, 2, 3), samples_per_size=12)
        verdict = sample_matrix_positive(p, cfg)
        assert (verdict.witness.n, verdict.witness.sample_index) == (2, 7)
        verdict = sample_matrix_positive(laplacian(parse("x1*x2^2*x1", 2)), cfg)
        assert verdict.kind == "NoCounterexampleFound"
        assert points_made == []

    def test_direction_search(self, points_made):
        X = TestSubharmonicAtPoint.LATE_X
        verdict = subharmonic_at_point(parse("x1^3", 2), X, SampleConfig(seed=14, h_samples=20))
        assert (verdict.kind, verdict.witness.sample_index) == ("CounterexampleH", 7)
        # The one point made is the point check's validation of the given X.
        assert len(points_made) == 1 and points_made[0].H is None

    def test_sign_flip_search(self, points_made):
        lap = laplacian(parse("x1^3", 2))
        for seed in (0, 1):
            assert positivity.odd_witness(lap, SampleConfig(seed=seed)).sample_index == 0
        assert points_made == []


class TestStackCap:
    """A stack holds at most the samples whose draw and evaluated matrices
    fit _RUN_BYTES, and capping changes no verdict: draws are keyed per
    sample."""

    @staticmethod
    def capped(monkeypatch, n, slots, search):
        # Three samples' worth of the bytes _stacks counts per sample.
        monkeypatch.setattr(positivity, "_RUN_BYTES",
                            3 * 8 * n * (slots * (2 * n + 1) + n))
        lengths = []
        draw = positivity._draw_matrices
        monkeypatch.setattr(positivity, "_draw_matrices",
                            lambda cfg, n, samples, slots: lengths.append(len(samples))
                            or draw(cfg, n, samples, slots))
        verdict = search()
        monkeypatch.undo()
        assert max(lengths) == 3
        return verdict

    @staticmethod
    def witness_bytes(w):
        if w is None:
            return None
        return (w.n, w.sample_index, w.min_eig.hex(), w.H is None or w.H.tobytes(),
                [M.tobytes() for M in w.X])

    @pytest.mark.parametrize("weight, seed", [(4, 5), (8, 9), (4, 0)])
    def test_sampler(self, monkeypatch, weight, seed):
        # At n = 3, seed 5 first refutes at sample 10, seed 9 at sample 9,
        # and seed 0 not at all.
        K = parse("x1*x2 - x2*x1", 2)
        p = K * K + parse("x1^4 + x2^4", 2).scale(weight)
        cfg = SampleConfig(seed=seed, sizes=(3,), samples_per_size=12)
        for q in (p, laplacian(p)):
            search = functools.partial(sample_matrix_positive, q, cfg)
            got = self.capped(monkeypatch, 3, q.g + q.contains_h, search)
            want = search()
            assert (got.kind, got.samples_tested, got.min_eigenvalue_seen.hex()) == (
                want.kind, want.samples_tested, want.min_eigenvalue_seen.hex())
            assert self.witness_bytes(got.witness) == self.witness_bytes(want.witness)

    @pytest.mark.parametrize("h_samples, kind", [(20, "CounterexampleH"), (7, "Unknown")])
    def test_direction_search(self, monkeypatch, h_samples, kind):
        X = TestSubharmonicAtPoint.LATE_X
        search = functools.partial(subharmonic_at_point, parse("x1^3", 2), X,
                                   SampleConfig(seed=14, h_samples=h_samples))
        got = self.capped(monkeypatch, 2, 1, search)
        want = search()
        assert got.kind == want.kind == kind
        assert self.witness_bytes(got.witness) == self.witness_bytes(want.witness)


class TestWitnessesOwnTheirArrays:
    """A witness holds copies, never views that pin a whole drawn stack."""

    @staticmethod
    def _owned(w):
        return all(M.base is None for M in (*w.X, w.H) if M is not None)

    def test_sampler(self):
        p = parse("x2^2 - x1^2", 2)
        cfg = SampleConfig(seed=3, sizes=(3,), samples_per_size=40)
        for q in (p, laplacian(parse(REGION_FAMILY, 2))):
            w = sample_matrix_positive(q, cfg).witness
            assert w is not None and self._owned(w)

    def test_direction_search(self):
        X = TestSubharmonicAtPoint.LATE_X
        w = subharmonic_at_point(parse("x1^3", 2), X, SampleConfig(seed=14, h_samples=20)).witness
        assert w.H.base is None
        assert all(a is b for a, b in zip(w.X, X))

    def test_sign_flip_search(self):
        lap = laplacian(parse("x1^3", 2))
        # Seed 0 refutes at the flipped point, seed 1 at the drawn one.
        for seed, flipped in ((0, True), (1, False)):
            w = positivity.odd_witness(lap, SampleConfig(seed=seed))
            drawn = draw_symmetric(substream(seed, w.n, w.sample_index, 0), w.n, 1.0)
            assert np.array_equal(w.X[0], -drawn if flipped else drawn)
            assert self._owned(w)


class TestSampleConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("samples_per_size", 0),
            ("samples_per_size", -3),
            ("h_samples", 0),
            ("tol", 0.0),
            ("tol", float("inf")),
            ("tol", float("nan")),
            ("entry_range", 0.0),
            ("entry_range", -1.0),
            ("entry_range", float("inf")),
            ("entry_range", float("nan")),
            ("sizes", (1, 65)),
            ("sizes", (100000,)),
            ("seed", 1.7),
            ("seed", "3"),
            ("seed", True),
            ("seed", None),
            ("sizes", (2.5,)),
            ("sizes", (1, True)),
            ("sizes", 3),
            ("samples_per_size", 2.5),
            ("h_samples", np.float64(50.0)),
            ("tol", True),
            ("entry_range", True),
            ("tol", "1e-9"),
            ("entry_range", None),
            ("sizes", ()),
        ],
    )
    def test_rejects_out_of_domain(self, field, value):
        with pytest.raises(ValueError, match=field):
            SampleConfig(**{field: value})

    def test_integer_fields_stored_as_int(self):
        cfg = SampleConfig(seed=np.uint64(2 ** 64 - 1), sizes=[np.int8(2), 3],
                           samples_per_size=np.int32(4), h_samples=np.int64(5))
        assert (cfg.seed, cfg.sizes, cfg.samples_per_size, cfg.h_samples) == (
            2 ** 64 - 1, (2, 3), 4, 5)
        assert all(type(v) is int for v in (cfg.seed, *cfg.sizes, cfg.samples_per_size,
                                            cfg.h_samples))
        assert (sample_matrix_positive(parse("x1^2", 2), cfg).min_eigenvalue_seen
                == sample_matrix_positive(parse("x1^2", 2), SampleConfig(
                    seed=-1, sizes=(2, 3), samples_per_size=4)).min_eigenvalue_seen)

    def test_largest_size(self):
        from ncharm.positivity import MAX_SAMPLE_SIZE

        assert SampleConfig(sizes=(1, MAX_SAMPLE_SIZE)).sizes == (1, 64)
        with pytest.raises(ValueError, match="at most MAX_SAMPLE_SIZE = 64, got 65"):
            SampleConfig(sizes=(1, 65))

    def test_smallest_valid_settings(self):
        cfg = SampleConfig(samples_per_size=1, h_samples=1, tol=1e-300, entry_range=1e-3)
        verdict = sample_matrix_positive(parse("x1^2", 2), cfg)
        assert verdict.samples_tested == len(cfg.sizes)


class TestSampleMatrixPositive:
    def test_square_has_no_counterexample(self):
        verdict = sample_matrix_positive(parse("x1^2", 2), SampleConfig(seed=1))
        assert verdict.kind == "NoCounterexampleFound"
        assert verdict.min_eigenvalue_seen >= -1e-9

    def test_linear_fails_fast(self):
        verdict = sample_matrix_positive(
            Poly.variable(2, 1), SampleConfig(seed=1)
        )
        assert verdict.kind == "Counterexample"
        assert verdict.witness.n == 1

    def test_region_family_laplacian_fails(self):
        lap = laplacian(parse(REGION_FAMILY, 2))
        verdict = sample_matrix_positive(lap, SampleConfig(seed=1))
        assert verdict.kind == "Counterexample"

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sample_matrix_positive(parse("x1*x2", 2), SampleConfig(seed=1))

    def test_determinism(self):
        cfg = SampleConfig(seed=99)
        lap = laplacian(parse(REGION_FAMILY, 2))
        a = sample_matrix_positive(lap, cfg)
        b = sample_matrix_positive(lap, cfg)
        assert a.kind == b.kind
        assert a.samples_tested == b.samples_tested
        assert a.min_eigenvalue_seen == b.min_eigenvalue_seen
        assert a.witness.n == b.witness.n
        assert a.witness.sample_index == b.witness.sample_index
        for Ma, Mb in zip(a.witness.X, b.witness.X):
            assert np.array_equal(Ma, Mb)
        assert np.array_equal(a.witness.H, b.witness.H)

    # Captured from the per-point sampler before it evaluated stacks: the
    # first hit wins, and the counts stop at it.  (p, seed, n, sample,
    # samples_tested, min_eigenvalue_seen.hex()), sizes (1, 2, 3), 12
    # samples per size, so size 2 is split into samples 0-1, 2-5 and 6-11.
    @pytest.mark.parametrize(
        "case, seed, n, sample, tested, min_seen",
        [
            ("-x1^2", 0, 1, 0, 1, "-0x1.cea3a287801cfp-1"),
            ("commutator+1/8", 0, 2, 0, 13, "-0x1.83624cfe9bc9ap-1"),
            ("commutator+1", 1, 2, 5, 18, "-0x1.65c2087a1fb9cp-3"),
            ("commutator+1", 5, 2, 7, 20, "-0x1.b2a266a7bff70p-3"),
            ("x1^4 + x2^4 + x1*x2^2*x1", 3, None, None, 36, "0x1.ee825f35fea7cp-8"),
        ],
    )
    def test_pinned_witness_semantics(self, case, seed, n, sample, tested, min_seen):
        if case.startswith("commutator"):
            K = parse("x1*x2 - x2*x1", 2)
            p = K * K + parse("x1^4 + x2^4", 2).scale(Fraction(case[len("commutator+"):]))
        else:
            p = parse(case, 2)
        cfg = SampleConfig(seed=seed, sizes=(1, 2, 3), samples_per_size=12)
        verdict = sample_matrix_positive(p, cfg)
        assert verdict.samples_tested == tested
        assert verdict.min_eigenvalue_seen.hex() == min_seen
        if n is None:
            assert (verdict.kind, verdict.witness) == ("NoCounterexampleFound", None)
        else:
            w = verdict.witness
            assert (verdict.kind, w.n, w.sample_index) == ("Counterexample", n, sample)
            assert w.min_eig.hex() == min_seen

    def test_witness_soundness(self):
        lap = laplacian(parse(REGION_FAMILY, 2))
        verdict = sample_matrix_positive(lap, SampleConfig(seed=3))
        w = verdict.witness
        reproduced = min_eigenvalue(evaluate(lap, MatrixPoint(X=w.X, H=w.H)))
        assert abs(reproduced - w.min_eig) <= 1e-10


class TestSubharmonicAtPoint:
    def _random_X(self, rnd, n):
        return tuple(
            symmetrize(
                np.array([[rnd.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
            )
            for _ in range(2)
        )

    def test_sandwich_square_certified_everywhere(self):
        rnd = random.Random(43)
        p = parse("x1*x2^2*x1", 2)
        cfg = SampleConfig(seed=4)
        for _ in range(10):
            X = self._random_X(rnd, rnd.randint(1, 3))
            assert subharmonic_at_point(p, X, cfg).kind == "CertifiedAllH"

    def test_region_family_sign(self):
        p = parse(REGION_FAMILY, 2)
        cfg = SampleConfig(seed=4)
        for n in (1, 2, 3):
            plus = subharmonic_at_point(p, (np.eye(n), np.zeros((n, n))), cfg)
            minus = subharmonic_at_point(p, (-np.eye(n), np.zeros((n, n))), cfg)
            assert plus.kind == "CertifiedAllH"
            assert minus.kind == "CounterexampleH"
            w = minus.witness
            lap = laplacian(p)
            reproduced = min_eigenvalue(evaluate(lap, MatrixPoint(X=w.X, H=w.H)))
            assert abs(reproduced - w.min_eig) <= 1e-10

    def test_square_certified(self):
        rnd = random.Random(44)
        cfg = SampleConfig(seed=5)
        p = parse("x1^2", 2)
        for _ in range(5):
            X = self._random_X(rnd, rnd.randint(1, 3))
            assert subharmonic_at_point(p, X, cfg).kind == "CertifiedAllH"

    def test_laplacian_built_once_per_poly(self, monkeypatch):
        # Lap(p) is kept on p: five point checks, certified or not, expand
        # it once, and give the verdicts and witness bytes of the same
        # checks on a fresh copy of p.
        calls = []
        real = positivity.laplacian

        def counting(q):
            calls.append(q)
            return real(q)

        p = parse("x1^3", 2)
        points = [self._random_X(random.Random(47), n) for n in (1, 2)]
        points += [self.LATE_X, (np.eye(2), np.zeros((2, 2))), self.LATE_X]
        cfg = SampleConfig(seed=6, h_samples=20)

        def verdicts(q):
            out = []
            for X in points:
                v = subharmonic_at_point(q, X, cfg)
                w = v.witness
                out.append((v.kind, None if w is None else
                            (w.n, w.sample_index, w.min_eig.hex(), w.H.tobytes())))
            return out

        monkeypatch.setattr(positivity, "laplacian", counting)
        got = verdicts(p)
        assert calls == [p]
        assert "CounterexampleH" in [kind for kind, _ in got]
        monkeypatch.undo()
        assert got == verdicts(Poly._raw(p.g, dict(p._terms)))

    def test_rejects_h_and_nonsymmetric(self):
        cfg = SampleConfig(seed=6)
        with pytest.raises(ValueError, match="expects an h-free polynomial"):
            subharmonic_at_point(parse("h^2", 2), (np.eye(2), np.eye(2)), cfg)
        with pytest.raises(ValueError, match="requires a symmetric polynomial"):
            subharmonic_at_point(parse("x1*x2", 2), (np.eye(2), np.eye(2)), cfg)

    @pytest.mark.parametrize("text", ["0", "-2/3", "x1 - x2", "x1*x2 + x2*x1",
                                      "x1^2 - x2^2", "-20000000000000000000",
                                      "20000000000000000000*x1",
                                      "x1 + 1/10000000000000000000007"])
    def test_empty_laplacian_is_certified(self, text):
        X = self._random_X(random.Random(48), 2)
        assert subharmonic_at_point(parse(text, 2), X, SampleConfig()).kind == "CertifiedAllH"

    @pytest.mark.parametrize("X, message", [
        ((), "at least one matrix is required"),
        ((np.eye(2),), "point supplies 1 matrices, poly uses more"),
        ((np.array([[np.nan]]), np.eye(1)), "must be finite numbers"),
        ((np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)), "must be exactly symmetric"),
    ])
    def test_rejects_bad_points(self, X, message):
        with pytest.raises(ValueError, match=message):
            subharmonic_at_point(parse("x1*x2^2*x1", 2), X, SampleConfig())

    def test_expansion_cap_refused_at_once(self):
        # x1^600 expands to C(600, 2) words of 600 letters: 107,820,000.
        p = parse("x1^600", 2)
        start = time.perf_counter()
        with pytest.raises(ValueError) as refused:
            subharmonic_at_point(p, (np.eye(2), np.eye(2)), SampleConfig())
        assert time.perf_counter() - start < 1.0
        assert str(refused.value) == (
            "Laplacian expansion to 107820000 letters exceeds "
            "MAX_LAPLACIAN_LETTERS = 67108864")
        with pytest.raises(ValueError, match=str(refused.value)):
            laplacian(p)

    def test_certificate_implies_sampled_h_psd(self):
        # Sufficiency of the middle-matrix certificate, checked by sampling.
        rnd = random.Random(45)
        cfg = SampleConfig(seed=7)
        certified = 0
        trials = 0
        while certified < 50 and trials < 400:
            trials += 1
            deg = rnd.choice([2, 3])
            p = random_symmetric_homogeneous(rnd, 2, deg)
            if p.is_zero():
                continue
            n = rnd.randint(1, 3)
            X = self._random_X(rnd, n)
            verdict = subharmonic_at_point(p, X, cfg)
            if verdict.kind != "CertifiedAllH":
                continue
            certified += 1
            lap = laplacian(p)
            if lap.is_zero():
                continue
            for s in range(10):
                H = draw_symmetric(substream(777, n, s), n, 1.0)
                me = min_eigenvalue(evaluate(lap, MatrixPoint(X=X, H=H)))
                assert me >= -cfg.tol
        assert certified == 50

    # x1^3 at X1 = diag(1, -1/20): Z(X) is indefinite and only directions H
    # leaning on the small negative eigenvalue refute.  Values captured when
    # the direction search evaluated one H at a time.
    LATE_X = (np.diag([1.0, -0.05]), np.zeros((2, 2)))

    @pytest.mark.parametrize("seed, sample, min_eig, H", [
        (6, 2, "-0x1.07edeb120da6ep-2",
         "0ef481dd6ee7e83f802d18b6e475c03f802d18b6e475c03fa4c041415af1eebf"),
        (14, 7, "-0x1.7e7bbfffd6452p-2",
         "e2818347ee91e2bfecb2b3c3a68fd73fecb2b3c3a68fd73f229468b104e4e2bf"),
    ])
    def test_direction_hit_beyond_first_stack(self, seed, sample, min_eig, H):
        p = parse("x1^3", 2)
        verdict = subharmonic_at_point(p, self.LATE_X, SampleConfig(seed=seed, h_samples=20))
        w = verdict.witness
        assert (verdict.kind, w.n, w.sample_index) == ("CounterexampleH", 2, sample)
        assert (w.min_eig.hex(), w.H.tobytes().hex()) == (min_eig, H)
        point = MatrixPoint(X=w.X, H=w.H)
        assert min_eigenvalue(evaluate(laplacian(p), point)) == w.min_eig

    def test_unknown_after_every_direction(self):
        # Seed 14 first refutes at sample 7, one past seven directions.
        p = parse("x1^3", 2)
        verdict = subharmonic_at_point(p, self.LATE_X, SampleConfig(seed=14, h_samples=7))
        assert (verdict.kind, verdict.witness) == ("Unknown", None)
        # At n = 1, Lap(x1^3) = 6*x1*h^2 is positive at x1 = 1/2 although
        # its middle matrix is indefinite.
        X = (np.array([[0.5]]), np.zeros((1, 1)))
        assert subharmonic_at_point(p, X, SampleConfig(seed=0)).kind == "Unknown"

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_direction_hit_wins_over_later_overflow(self):
        # Lap = -4*h^2.  With entries up to 2^511, sample 0 (|H| = 0.40 *
        # 2^511) is a hit and sample 1 (|H| = 0.92 * 2^511), drawn in the
        # same stack, overflows when symmetrized.  The hit wins, as when
        # every direction was evaluated on its own.
        p = parse("x1^2 - 3*x2^2", 2)
        X = (np.zeros((1, 1)), np.zeros((1, 1)))
        cfg = SampleConfig(seed=1, entry_range=2.0 ** 511)
        H1 = draw_symmetric(substream(1, 1, 1, 2), 1, 2.0 ** 511)
        with pytest.raises(ValueError, match="found -inf"):
            min_eigenvalue(evaluate(laplacian(p), MatrixPoint(X=X, H=H1)))
        w = subharmonic_at_point(p, X, cfg).witness
        assert (w.sample_index, w.min_eig.hex()) == (0, "-0x1.4310c24502966p+1021")
        assert w.H.tobytes().hex() == "a04fe4804a6bc9df"
        # When sample 0 overflows, the search refuses it by name.
        with pytest.raises(ValueError, match="found -inf"):
            subharmonic_at_point(p, X, SampleConfig(seed=7, entry_range=2.0 ** 511))
