import random
from fractions import Fraction

import numpy as np
import pytest

from ncharm._exactla import (
    MAX_NULLSPACE_ENTRIES,
    RowSpan,
    congruence_diagonalize,
    is_psd_rational,
    sparse_nullspace,
)

from _helpers import express_oracle, nullity_oracle, rank_oracle, rref_oracle


def _random_symmetric(rnd, n, zero_diag=False):
    M = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))
            if zero_diag and i == j:
                v = Fraction(0)
            M[i][j] = M[j][i] = v
    return M


class TestCongruence:
    def test_reconstruction_and_inertia(self):
        rnd = random.Random(61)
        for _ in range(60):
            n = rnd.randint(1, 6)
            M = _random_symmetric(rnd, n, zero_diag=rnd.random() < 0.3)
            N, D = congruence_diagonalize(M)
            rebuilt = [
                [
                    sum(N[i][k] * D[k] * N[j][k] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert rebuilt == M
            # Inertia agrees with the floating point eigenvalues.
            eigs = np.linalg.eigvalsh(np.array(M, dtype=float))
            assert sum(1 for d in D if d > 0) == int(np.sum(eigs > 1e-9))
            assert sum(1 for d in D if d < 0) == int(np.sum(eigs < -1e-9))

    def test_refuses_asymmetric(self):
        with pytest.raises(ValueError, match="requires a symmetric matrix"):
            congruence_diagonalize([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])

    def test_psd_agrees_with_numeric(self):
        rnd = random.Random(62)
        for _ in range(40):
            n = rnd.randint(1, 5)
            A = [[Fraction(rnd.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            M = [
                [sum(A[i][k] * A[j][k] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            assert is_psd_rational(M)
            shifted = [row[:] for row in M]
            shifted[0][0] -= max(sum(abs(v) for v in M[0]), 1) * 4
            assert not is_psd_rational(shifted)


class TestNullspace:
    def test_against_oracle(self):
        rnd = random.Random(63)
        for _ in range(40):
            ncols = rnd.randint(1, 8)
            nrows = rnd.randint(1, 8)
            rows = []
            for _ in range(nrows):
                row = {
                    j: Fraction(rnd.randint(-3, 3))
                    for j in rnd.sample(range(ncols), rnd.randint(0, ncols))
                }
                rows.append({j: v for j, v in row.items() if v})
            basis = sparse_nullspace(rows, ncols)
            dense = [
                [row.get(j, Fraction(0)) for j in range(ncols)] for row in rows
            ]
            assert len(basis) == nullity_oracle(dense, ncols)
            for vec in basis:
                for row in rows:
                    assert sum(vec[j] * v for j, v in row.items()) == 0
            # Canonical: recomputing yields the identical basis, which is
            # already in reduced row echelon form.
            assert sparse_nullspace(rows, ncols) == basis
            assert rref_oracle(basis)[0] == basis

    def test_entry_cap_refuses_before_building_vectors(self):
        # 4,097 free columns of 4,097 entries are one column past 2^24.
        assert 4096 * 4096 == MAX_NULLSPACE_ENTRIES
        with pytest.raises(ValueError, match="MAX_NULLSPACE_ENTRIES = 16777216"):
            sparse_nullspace([], 4097)
        with pytest.raises(ValueError, match="4096 vectors over 4097 columns"):
            sparse_nullspace([{0: Fraction(1)}], 4097)

    def test_rref_shape(self):
        assert RowSpan([[Fraction(0)] * 3], 3).rank == 0


class TestExpressOverRows:
    def test_recovers_combinations(self):
        rnd = random.Random(64)
        for _ in range(30):
            ncols = rnd.randint(2, 6)
            k = rnd.randint(1, 4)
            rows = [
                [Fraction(rnd.randint(-3, 3)) for _ in range(ncols)]
                for _ in range(k)
            ]
            coeffs = [Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
                      for _ in range(k)]
            target = [
                sum(coeffs[i] * rows[i][j] for i in range(k))
                for j in range(ncols)
            ]
            got = RowSpan(rows, ncols).express(target)
            assert got is not None
            rebuilt = [
                sum(got[i] * rows[i][j] for i in range(k)) for j in range(ncols)
            ]
            assert rebuilt == target

    def test_rejects_non_members(self):
        rows = [[Fraction(1), Fraction(0)]]
        assert RowSpan(rows, 2).express([Fraction(0), Fraction(1)]) is None
        assert RowSpan([], 1).express([Fraction(1)]) is None
        assert RowSpan([], 1).express([Fraction(0)]) == []

    def test_particular_solution_on_dependent_rows(self):
        # Values pinned from the dense Gauss-Jordan solver this replaced.
        F = Fraction
        # One reduction serves every target.
        span = RowSpan([[F(1), F(2), F(0)], [F(2), F(4), F(0)],
                        [F(0), F(1), F(1)], [F(1), F(3), F(1)]], 3)
        assert span.rank == 2
        assert span.express([F(3), F(7), F(1)]) == [0, 0, -2, 3]
        assert span.express([F(2), F(4), F(0)]) == [0, 0, -2, 2]
        assert span.express([F(1), F(3), F(1)]) == [0, 0, 0, 1]
        assert span.express([F(0)] * 3) == [0, 0, 0, 0]
        span = RowSpan([[F(1, 2), F(-1), F(3)], [F(-1), F(2), F(-6)],
                        [F(0), F(0), F(5)], [F(1), F(0), F(2)]], 3)
        assert span.express([F(1), F(1), F(1)]) == [
            0, F(1, 2), F(1, 5), F(3, 2)]
        assert span.express([F(3, 2), F(-1), F(10)]) == [
            0, F(-1, 2), 1, 1]

    def test_dependent_harmonic_rows_match_oracle(self):
        # The 8 harmonics of (3, 2) and their 8 transposes span the same
        # space: the 16 rows are dependent, and each of them has one pinned
        # particular solution.
        from ncharm.harmonicspace import _vectorize, harmonic_basis

        basis = harmonic_basis(3, 2)
        index = {w: i for i, w in enumerate(basis.word_index)}
        vectors = basis.elements + tuple(v.transpose() for v in basis.elements)
        rows = [_vectorize(v, index) for v in vectors]
        span = RowSpan(rows, len(index))
        assert (len(rows), rank_oracle(rows), span.rank) == (16, 8, 8)
        for target in rows:
            assert span.express(target) == express_oracle(rows, target)
