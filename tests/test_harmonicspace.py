import random
from fractions import Fraction
from itertools import product

import pytest

from ncharm import (
    Poly,
    check_independence_property,
    directional_derivative,
    express_in_basis,
    gamma_power_parts,
    harmonic_basis,
    laplacian,
    laplacian_coefficient_matrix,
    parse,
    word,
)
from ncharm.ncpoly import word_key

from _helpers import (
    express_in_basis_oracle,
    laplacian_oracle,
    nullity_oracle,
    random_homogeneous,
    spans_equal,
)


class TestGammaPowers:
    def test_first_degrees(self):
        assert gamma_power_parts(1) == (Poly.variable(2, 1), Poly.variable(2, 2))
        re2, im2 = gamma_power_parts(2)
        assert re2 == parse("x1^2 - x2^2", 2)
        assert im2 == parse("x1*x2 + x2*x1", 2)
        re3, im3 = gamma_power_parts(3)
        assert re3 == parse("x1^3 - x1*x2^2 - x2*x1*x2 - x2^2*x1", 2)
        assert im3 == parse("x1^2*x2 + x1*x2*x1 + x2*x1^2 - x2^3", 2)

    def test_requires_positive_degree(self):
        with pytest.raises(ValueError):
            gamma_power_parts(0)

    def test_structure(self):
        for d in range(1, 9):
            re, im = gamma_power_parts(d)
            for p in (re, im):
                assert p.is_symmetric()
                assert p.is_homogeneous(d)
                assert len(p) == 2 ** (d - 1)
                assert all(abs(c) == 1 for _, c in p.terms())

    def test_harmonic(self):
        for d in range(1, 13):
            re, im = gamma_power_parts(d)
            assert laplacian(re).is_zero()
            assert laplacian(im).is_zero()

    def test_derivative_symmetries(self):
        # D[Re, x1] = D[Im, x2] and D[Re, x2] = -D[Im, x1].
        for d in range(1, 13):
            re, im = gamma_power_parts(d)
            assert directional_derivative(re, 1) == directional_derivative(im, 2)
            assert directional_derivative(re, 2) == -directional_derivative(im, 1)

    def test_doubling_identity(self):
        for d in range(1, 7):
            re, im = gamma_power_parts(d)
            re2d, _ = gamma_power_parts(2 * d)
            assert re2d == re * re - im * im


class TestCoefficientMatrix:
    def test_two_vars_degree_three(self):
        system = laplacian_coefficient_matrix(2, 3)
        assert len(system.col_words) == 8
        assert len(system.row_words) == 6
        # Constraint rows pair the two fillings of each h-pattern, doubled.
        expected_rows = {
            word(1, 0, 0): {0: 2, 3: 2},   # x1 h h: from x1^3 and x1 x2^2
            word(2, 0, 0): {4: 2, 7: 2},
            word(0, 1, 0): {0: 2, 5: 2},
            word(0, 2, 0): {2: 2, 7: 2},
            word(0, 0, 1): {0: 2, 6: 2},
            word(0, 0, 2): {1: 2, 7: 2},
        }
        for rw, row in zip(system.row_words, system.rows):
            assert {k: Fraction(v) for k, v in expected_rows[rw].items()} == dict(row)
        assert nullity_oracle(system.dense(), 8) == 2

    def test_one_var_degree_two(self):
        system = laplacian_coefficient_matrix(1, 2)
        assert len(system.col_words) == 1
        assert system.dense() == [[Fraction(2)]]
        assert nullity_oracle(system.dense(), 1) == 0

    def test_two_vars_degree_two(self):
        system = laplacian_coefficient_matrix(2, 2)
        assert len(system.col_words) == 4
        assert nullity_oracle(system.dense(), 4) == 3

    def test_rows_are_every_two_h_word(self):
        for g, d in ((1, 2), (1, 5), (2, 2), (2, 3), (2, 6), (3, 2), (3, 4), (4, 3)):
            system = laplacian_coefficient_matrix(g, d)
            two_h = [bytes(w) for w in product(range(g + 1), repeat=d) if w.count(0) == 2]
            assert list(system.row_words) == sorted(two_h, key=word_key)
            assert all(system.rows)

    def test_size_cap(self):
        # (2, 13) holds 106,496 letters, under 2^18; (2, 15), (3, 10) and
        # (4, 8) hold 491,520, 590,490 and 524,288.  Past the cap no word
        # is listed.
        assert len(laplacian_coefficient_matrix(2, 13).col_words) == 8192
        for g, d in ((2, 15), (3, 10), (4, 8), (2, 40), (2, 10**9), (1, 300000)):
            with pytest.raises(ValueError, match=rf"{g}\^{d} column words .* MAX_SYSTEM_LETTERS"):
                laplacian_coefficient_matrix(g, d)


class TestHarmonicBasis:
    def test_dimensions_two_vars(self):
        assert harmonic_basis(2, 2).dimension == 3
        for d in range(3, 7):
            assert harmonic_basis(2, d).dimension == 2

    def test_degree_two_elements(self):
        basis = harmonic_basis(2, 2)
        assert list(basis.elements) == [
            parse("x1^2 - x2^2", 2),
            parse("x1*x2", 2),
            parse("x2*x1", 2),
        ]

    def test_span_matches_gamma_powers(self):
        for d in range(3, 7):
            basis = harmonic_basis(2, d)
            assert spans_equal(basis.elements, gamma_power_parts(d))

    def test_elements_are_harmonic_and_homogeneous(self):
        for g, d in [(2, 4), (3, 3), (1, 3)]:
            basis = harmonic_basis(g, d)
            for p in basis.elements:
                assert p.is_homogeneous(d)
                assert laplacian(p).is_zero()
                assert laplacian_oracle(p).is_zero()

    def test_three_vars_dimensions_against_oracle(self):
        # Independent oracle: dense nullity of the subset-expansion system.
        for d, expected in [(1, 3), (2, 8), (3, 18), (4, 30)]:
            assert harmonic_basis(3, d).dimension == expected
            cols = [bytes(wrd) for wrd in __import__("itertools").product(
                range(1, 4), repeat=d)]
            rows_by_word = {}
            for j, w in enumerate(cols):
                for rw, c in laplacian_oracle(Poly.monomial(3, w)).terms():
                    rows_by_word.setdefault(rw, {})[j] = c
            dense = [
                [row.get(j, Fraction(0)) for j in range(len(cols))]
                for row in rows_by_word.values()
            ]
            assert nullity_oracle(dense, len(cols)) == expected

    @pytest.mark.parametrize(
        "g, d, dim",
        [(3, d, dim) for d, dim in enumerate([3, 8, 18, 30, 47, 68], 1)]
        + [(4, d, dim) for d, dim in enumerate([4, 15, 52, 163, 444], 1)],
    )
    def test_pinned_dimensions(self, g, d, dim):
        assert harmonic_basis(g, d).dimension == dim

    def test_nullspace_entry_cap(self):
        # The 40,000 degree-2 words of 200 variables pass MAX_SYSTEM_LETTERS,
        # but their 39,999 harmonics would hold 1.6e9 dense entries.
        with pytest.raises(ValueError, match="39999 vectors over 40000 columns exceeds "
                                             "MAX_NULLSPACE_ENTRIES"):
            harmonic_basis(200, 2)

    def test_one_var_has_no_high_harmonics(self):
        assert harmonic_basis(1, 1).dimension == 1
        for d in range(2, 5):
            assert harmonic_basis(1, d).dimension == 0


class TestExpressInBasis:
    def test_member_reconstructs(self):
        basis = harmonic_basis(2, 4)
        re4 = gamma_power_parts(4)[0]
        coords = express_in_basis(re4, basis)
        assert coords is not None
        rebuilt = Poly.zero(2)
        for c, el in zip(coords, basis.elements):
            rebuilt = rebuilt + el.scale(c)
        assert rebuilt == re4

    def test_non_member_absent(self):
        basis = harmonic_basis(2, 3)
        assert express_in_basis(parse("x2^3", 2), basis) is None

    def test_zero_gives_zero_vector(self):
        basis = harmonic_basis(2, 3)
        assert express_in_basis(Poly.zero(2), basis) == [0, 0]

    def test_degree_mismatch(self):
        basis = harmonic_basis(2, 3)
        with pytest.raises(ValueError):
            express_in_basis(parse("x1^2", 2), basis)
        with pytest.raises(ValueError):
            express_in_basis(Poly.variable(3, 1), basis)

    def test_word_outside_the_list_is_named(self):
        with pytest.raises(ValueError, match=r"^word h\*x1 does not belong to the word list$"):
            express_in_basis(parse("h*x1", 2), harmonic_basis(2, 2))

    def test_matches_residual_oracle(self):
        rnd = random.Random(1018)
        outside = 0
        for g, d in [(1, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
            basis = harmonic_basis(g, d)
            for _ in range(4):
                member = Poly.zero(g)
                for el in basis.elements:
                    member = member + el.scale(Fraction(rnd.randint(-3, 3), 2))
                for p in (member, member + random_homogeneous(rnd, g, d, 2)):
                    coords = express_in_basis(p, basis)
                    assert coords == express_in_basis_oracle(p, basis)
                    outside += coords is None
        assert outside == 18


class TestIndependenceProperty:
    def test_degree_two(self):
        basis = harmonic_basis(2, 2)
        witness = check_independence_property(basis)
        assert witness is not None
        for w, p in zip(witness, basis.elements):
            assert w in dict(p.terms())
            for other in basis.elements:
                if other is not p:
                    assert w not in dict(other.terms())

    def test_degree_three(self):
        assert check_independence_property(harmonic_basis(2, 3)) is not None

    def test_single_element(self):
        basis = harmonic_basis(1, 1)
        assert check_independence_property(basis) == [word(1)]

    def test_pivots_qualify_up_to_degree_eight(self):
        for d in range(2, 9):
            assert check_independence_property(harmonic_basis(2, d)) is not None
