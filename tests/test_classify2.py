import random
from fractions import Fraction

import pytest

from ncharm import (
    Degree4Coeffs,
    GramObstruction,
    MatrixPoint,
    OddSandwich,
    Poly,
    SampleConfig,
    SosDecomposition,
    classify,
    degree4_coefficients,
    degree4_family,
    degree4_inequalities,
    evaluate,
    gamma_power_parts,
    gram_from_neighbors,
    harmonic_basis,
    high_even_membership,
    laplacian,
    laplacian_sos_identity_check,
    left_neighbor,
    min_eigenvalue,
    neighbor_harmonicity_check,
    odd_sandwich,
    odd_sandwich_vanishing_check,
    parse,
    right_neighbor,
    sample_matrix_positive,
    sos_decompose,
    word,
)
from ncharm import classify2, positivity
from ncharm._exactla import is_psd_rational
from ncharm.classify2 import _laplacian_squares

from _helpers import (
    gram_oracle,
    sandwich_identities_oracle,
    poly_matrix,
    random_symmetric_homogeneous,
    rank_oracle,
    spans_equal,
)


CFG = SampleConfig(seed=20240)


class TestNeighbors:
    def test_right_split_length_one(self):
        dec = right_neighbor(parse("x1*x2 + x2*x1", 2), 1)
        assert dec.parts == {
            word(1): Poly.variable(2, 2),
            word(2): Poly.variable(2, 1),
        }
        assert dec.remainder.is_zero()

    def test_left_split(self):
        dec = left_neighbor(parse("x1*x2 + x2*x1", 2), 1)
        assert dec.parts == {
            word(2): Poly.variable(2, 1),
            word(1): Poly.variable(2, 2),
        }

    def test_re_gamma4_neighbors_harmonic(self):
        re4 = gamma_power_parts(4)[0]
        dec = right_neighbor(re4, 2)
        assert len(dec.parts) == 4
        for part in dec.parts.values():
            assert laplacian(part).is_zero()
            assert part.is_homogeneous(2)

    def test_remainder(self):
        dec = right_neighbor(parse("x1^3 + x2", 2), 2)
        assert dec.parts == {word(1, 1): Poly.variable(2, 1)}
        assert dec.remainder == Poly.variable(2, 2)

    def test_reassembly_exact(self):
        rnd = random.Random(51)
        for _ in range(30):
            p = random_symmetric_homogeneous(rnd, 2, rnd.randint(2, 5))
            m = rnd.randint(1, max(1, p.total_degree()))
            if p.is_zero():
                continue
            dec = right_neighbor(p, m)
            rebuilt = dec.remainder
            for t, part in dec.parts.items():
                rebuilt = rebuilt + Poly.monomial(2, t) * part
            assert rebuilt == p
            ldec = left_neighbor(p, m)
            rebuilt = ldec.remainder
            for t, part in ldec.parts.items():
                rebuilt = rebuilt + part * Poly.monomial(2, t)
            assert rebuilt == p

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            right_neighbor(parse("x1^2", 2), 0)
        with pytest.raises(ValueError):
            right_neighbor(parse("x1^2", 2), 3)
        with pytest.raises(ValueError):
            right_neighbor(parse("h^2", 2), 1)

    def test_harmonicity_check(self):
        im5 = gamma_power_parts(5)[1]
        for m in range(1, 5):
            ok, failing = neighbor_harmonicity_check(im5, m)
            assert ok and not failing
        ok, failing = neighbor_harmonicity_check(parse("x1^4", 2), 2)
        assert not ok
        assert failing == [word(1, 1)]
        re2 = gamma_power_parts(2)[0]
        ok, _ = neighbor_harmonicity_check(re2 * re2, 2)
        assert ok


class TestGramForm:
    @pytest.mark.parametrize("text, message", [
        ("x1*x2^3", "requires a symmetric polynomial"),
        ("x1^3", "requires homogeneous even degree >= 2"),
        ("x1^4 + x2^2", "requires homogeneous even degree >= 2"),
    ])
    def test_refuses_outside_domain(self, text, message):
        with pytest.raises(ValueError, match=message):
            gram_from_neighbors(parse(text, 2))

    def test_square_of_re_gamma3_rank_one(self):
        re3 = gamma_power_parts(3)[0]
        form = gram_from_neighbors(re3 * re3)
        assert form.reconstruct() == re3 * re3
        assert is_psd_rational([list(r) for r in form.phi])
        assert rank_oracle([list(r) for r in form.phi]) == 1

    def test_sandwich_square(self):
        p = parse("x1*x2^2*x1", 2)
        form = gram_from_neighbors(p)
        # The degree-2 basis is (x1^2 - x2^2, x1*x2, x2*x1); the polynomial
        # is (x2*x1)^T (x2*x1).
        assert list(form.vectors) == [
            parse("x1^2 - x2^2", 2),
            parse("x1*x2", 2),
            parse("x2*x1", 2),
        ]
        expected = [[0, 0, 0], [0, 0, 0], [0, 0, 1]]
        assert [[int(c) for c in row] for row in form.phi] == expected
        assert is_psd_rational([list(r) for r in form.phi])

    def test_harmonic_re_gamma4_reconstructs(self):
        re4 = gamma_power_parts(4)[0]
        form = gram_from_neighbors(re4)
        assert form.reconstruct() == re4
        assert not is_psd_rational([list(r) for r in form.phi])

    def test_phi_is_symmetric(self):
        rnd = random.Random(52)
        for _ in range(10):
            c = [Fraction(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(3)]
            re3, im3 = gamma_power_parts(3)
            re6, im6 = gamma_power_parts(6)
            p = (re3 * re3).scale(c[0]) + re6.scale(c[1]) + im6.scale(c[2])
            form = gram_from_neighbors(p)
            assert form.reconstruct() == p
            n = len(form.vectors)
            for i in range(n):
                for j in range(n):
                    assert form.phi[i][j] == form.phi[j][i]

    def test_obstruction_for_nonsubharmonic(self):
        with pytest.raises(GramObstruction):
            gram_from_neighbors(parse("x1^4", 2))

    @pytest.mark.parametrize("g, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)])
    def test_matches_gram_oracle(self, g, m):
        # Gram forms of v^T w + w^T v combinations; every third input gets a
        # symmetric random part, which mostly breaks harmonicity of the
        # right neighbors.  At (3, 2) six of the 8 basis elements are not
        # symmetric, so phi needs the transposes expressed over the basis.
        rnd = random.Random(1000 * g + m)
        gens = harmonic_basis(g, m).elements
        obstructed = 0
        for trial in range(9):
            p = Poly.zero(g)
            for _ in range(3):
                q = rnd.choice(gens).transpose() * rnd.choice(gens)
                c = Fraction(rnd.randint(-3, 3), rnd.randint(1, 2))
                p = p + (q + q.transpose()).scale(c)
            if trial % 3 == 2:
                p = p + random_symmetric_homogeneous(rnd, g, 2 * m, 2)
            if p.is_zero():
                continue
            vectors, phi, failing = gram_oracle(p)
            if failing:
                obstructed += 1
                with pytest.raises(GramObstruction) as exc:
                    gram_from_neighbors(p)
                assert exc.value.reason == (
                    "right neighbors at half degree are not all harmonic")
                assert exc.value.failing == failing
                continue
            form = gram_from_neighbors(p)
            assert form.vectors == vectors
            assert [list(row) for row in form.phi] == phi
        # Every degree-1 polynomial is harmonic, so only m >= 2 can fail.
        assert (obstructed > 0) == (m >= 2)

    @pytest.mark.parametrize("g, m", [(3, 2), (4, 2), (3, 3)])
    def test_phi_is_the_unique_coordinates(self, g, m):
        # p = sum S_ij q_i^T q_j is injective in the symmetric S: a word of
        # length 2m splits at its midpoint in one way only and the q_i are
        # independent, so the Gram form must return S itself.
        rnd = random.Random(7000 + 10 * g + m)
        q = harmonic_basis(g, m).elements
        k = len(q)
        for _ in range(3):
            S = [[Fraction(0)] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    if rnd.random() < 0.3:
                        S[i][j] = S[j][i] = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
            p = Poly.zero(g)
            for i in range(k):
                for j in range(k):
                    if S[i][j]:
                        p = p + (q[i].transpose() * q[j]).scale(S[i][j])
            form = gram_from_neighbors(p)
            assert form.vectors == q
            assert [list(row) for row in form.phi] == S

    def test_three_variable_path(self):
        # The Gram machinery over the harmonic basis is generic in the
        # variable count.
        p = parse("x1*x3^2*x1", 3)
        form = gram_from_neighbors(p)
        assert form.reconstruct() == p
        dec = sos_decompose(p)
        assert dec.reconstruct() == p
        for d, r in dec.terms:
            assert laplacian(r).is_zero()
        assert laplacian_sos_identity_check(dec)


class TestSosDecompose:
    def test_square_single_term(self):
        re3 = gamma_power_parts(3)[0]
        dec = sos_decompose(re3 * re3)
        assert len(dec.terms) == 1
        d, r = dec.terms[0]
        assert d > 0
        assert d * r.coefficient(word(1, 1, 1)) ** 2 == 1
        assert spans_equal([r], [re3])

    def test_sandwich_square(self):
        dec = sos_decompose(parse("x1*x2^2*x1", 2))
        assert len(dec.terms) == 1
        d, r = dec.terms[0]
        assert (d, r) == (Fraction(1), parse("x2*x1", 2))

    def test_harmonic_mixed_signs(self):
        re4 = gamma_power_parts(4)[0]
        dec = sos_decompose(re4)
        assert dec.reconstruct() == re4
        signs = {d > 0 for d, _ in dec.terms}
        assert signs == {True, False}

    def test_factors_harmonic(self):
        rnd = random.Random(53)
        re4, im4 = gamma_power_parts(4)
        re8, im8 = gamma_power_parts(8)
        for _ in range(5):
            c0 = Fraction(rnd.randint(1, 4))
            c1 = Fraction(rnd.randint(-3, 3))
            c2 = Fraction(rnd.randint(-3, 3))
            p = (re4 * re4).scale(c0) + re8.scale(c1) + im8.scale(c2)
            dec = sos_decompose(p)
            assert dec.reconstruct() == p
            for d, r in dec.terms:
                assert d != 0
                assert laplacian(r).is_zero()


class TestLaplacianSosIdentity:
    def test_single_variable_term(self):
        dec = SosDecomposition(g=2, terms=((Fraction(1), Poly.variable(2, 1)),))
        assert laplacian_sos_identity_check(dec)
        # Lap(x1^2) = 2 h^2 = 2 * D[x1,x1]^T D[x1,x1].
        assert laplacian(parse("x1^2", 2)) == parse("2*h^2", 2)

    def test_derived_decompositions(self):
        for text in ("x1*x2^2*x1",):
            dec = sos_decompose(parse(text, 2))
            assert laplacian_sos_identity_check(dec)
        re3 = gamma_power_parts(3)[0]
        assert laplacian_sos_identity_check(sos_decompose(re3 * re3))

    def test_fails_for_nonharmonic_factors(self):
        dec = SosDecomposition(
            g=2, terms=((Fraction(1), parse("x1^2", 2)),)
        )
        assert not laplacian_sos_identity_check(dec)


class TestDegree4:
    def test_strictly_inside(self):
        region = degree4_inequalities(Degree4Coeffs(1, 0, 0, 0, 1, 1))
        assert region.kind == "StrictlyInside"
        assert (region.Hh * region.G, region.Jj, region.K) == (4, 0, 1)

    def test_boundary(self):
        region = degree4_inequalities(Degree4Coeffs(1, 0, 0, 0, 0, 0))
        assert region.kind == "Boundary"
        assert region.Hh * region.G == region.Jj ** 2 + region.K ** 2 == 1

    def test_violated(self):
        region = degree4_inequalities(Degree4Coeffs(0, 0, 0, 2, 1, 1))
        assert region.kind == "Violated"
        assert region.Hh * region.G == 1
        assert region.Jj ** 2 + region.K ** 2 == 4

    def test_coefficients_need_two_variables(self):
        with pytest.raises(ValueError, match="degree-4 polynomial in 2 variables"):
            degree4_coefficients(parse("x1^4 + x3^4", 3))

    def test_family_polynomial(self):
        B = Degree4Coeffs(1, 0, 0, 0, 0, 0)
        re2 = gamma_power_parts(2)[0]
        assert degree4_family(B) == re2 * re2
        assert degree4_family(Degree4Coeffs(0, 0, 0, 0, 1, 0)) == parse(
            "x1*x2^2*x1", 2
        )

    def test_family_satisfies_forced_relations(self):
        rnd = random.Random(54)
        for _ in range(10):
            B = Degree4Coeffs(
                *[Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(6)]
            )
            A = degree4_coefficients(degree4_family(B))
            assert A["A4"] == -A["A1"]
            assert A["A10"] == A["A1"]
            assert A["A9"] == -A["A2"]
            assert A["A7"] == -A["A3"]


class TestHighEvenMembership:
    def test_generators(self):
        re6, im6 = gamma_power_parts(6)
        re3, im3 = gamma_power_parts(3)
        assert high_even_membership(re6) == (0, 1, 0)
        assert high_even_membership(re3 * re3) == (1, 0, 0)
        assert high_even_membership(im3 * im3) == (1, -1, 0)

    def test_non_member(self):
        assert high_even_membership(parse("x1^6", 2)) is None

    def test_non_symmetric_is_outside(self):
        p = parse("x1^5*x2", 2)
        with pytest.raises(ValueError, match="requires a symmetric polynomial"):
            gram_from_neighbors(p)
        assert high_even_membership(p) is None

    def test_two_variables_only(self):
        with pytest.raises(ValueError, match="membership is defined for two variables"):
            high_even_membership(parse("x1^6", 3))

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            high_even_membership(parse("x1^4", 2))
        with pytest.raises(ValueError):
            high_even_membership(parse("x1^5 + T(x1^5)", 2))

    def test_lincomb_identity(self):
        rnd = random.Random(55)
        for d in range(3, 7):
            re_d, im_d = gamma_power_parts(d)
            re_2d, im_2d = gamma_power_parts(2 * d)
            for _ in range(5):
                c0 = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                c1 = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                c2 = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                lhs = (re_d * re_d).scale(c0) + re_2d.scale(c1) + im_2d.scale(c2)
                rhs = (
                    (im_d * im_d).scale(c0)
                    + re_2d.scale(c0 + c1)
                    + im_2d.scale(c2)
                )
                assert lhs == rhs


class TestClassify:
    def test_gamma_powers_harmonic(self):
        assert classify(gamma_power_parts(7)[0], CFG).kind == "Harmonic"
        for d in range(3, 11):
            re, im = gamma_power_parts(d)
            assert classify(re + im, CFG).kind == "Harmonic"
            assert classify(re - im, CFG).kind == "Harmonic"

    def test_high_degree_family(self):
        # Degree 15 expands a Laplacian of 12.9 million letters; degrees 14
        # and 16 are read off their Gram forms and expand none.
        for d in (14, 15, 16):
            verdict = classify(gamma_power_parts(d)[d % 2], CFG)
            assert (verdict.kind, verdict.reason) == ("Harmonic", "Laplacian is exactly zero")
        verdict = classify(gamma_power_parts(8)[0] ** 2, CFG)
        assert verdict.kind == "PurelySubharmonicCertified"
        assert verdict.membership == (1, 0, 0)

    def test_high_even_example(self):
        re3 = gamma_power_parts(3)[0]
        im6 = gamma_power_parts(6)[1]
        p = (re3 * re3).scale(2) + im6.scale(5)
        verdict = classify(p, CFG)
        assert verdict.kind == "PurelySubharmonicCertified"
        assert verdict.membership == (2, 0, 5)

    def test_degree_two(self):
        assert classify(parse("x1^2 + x2^2", 2), CFG).kind == (
            "PurelySubharmonicCertified"
        )
        verdict = classify(parse("x1^2 - 3*x2^2", 2), CFG)
        assert verdict.kind == "NotSubharmonic"
        assert verdict.witness is not None
        assert classify(parse("x1^2 - x2^2 + 7*x1*x2", 2), CFG).kind == "Harmonic"

    def test_degree_two_witness(self):
        p = parse("x1^2 - 3*x2^2", 2)
        v = classify(p, CFG)
        assert v.reason == "Laplacian equals (-4)*h^2 with negative trace"
        w = v.witness
        reproduced = min_eigenvalue(evaluate(laplacian(p), MatrixPoint(X=w.X, H=w.H)))
        assert abs(reproduced - w.min_eig) <= 1e-10
        assert classify(parse("x1^2 + x2^2", 2), CFG).reason == (
            "Laplacian equals (4)*h^2"
        )

    def test_degree_two_nonsymmetric_allowed(self):
        assert classify(parse("x1^2 + x2^2 + x1*x2", 2), CFG).kind == (
            "PurelySubharmonicCertified"
        )

    def test_degree_four_dispatch(self):
        inside = degree4_family(Degree4Coeffs(1, 0, 0, 0, 1, 1))
        v = classify(inside, CFG)
        assert v.kind == "PurelySubharmonicCertified"
        assert v.region.kind == "StrictlyInside"

        boundary = degree4_family(Degree4Coeffs(1, 0, 0, 0, 0, 0))
        v = classify(boundary, CFG)
        assert v.kind == "SubharmonicBoundaryCertified"
        assert v.sos is not None

        violated = degree4_family(Degree4Coeffs(0, 0, 0, 2, 1, 1))
        v = classify(violated, CFG)
        assert v.kind == "NotSubharmonic"
        assert v.witness is not None

    def test_boundary_always_certified(self, monkeypatch):
        # Every boundary member is certified by exact squares of its
        # Laplacian, without sampling, including members whose harmonic
        # Gram form of p is not PSD.
        def no_sampling(*args, **kwargs):
            raise AssertionError("the boundary branch sampled")

        monkeypatch.setattr(positivity, "sample_matrix_positive", no_sampling)
        rnd = random.Random(58)
        members = [degree4_family(Degree4Coeffs(1, 0, 0, 0, 0, 0))]
        while len(members) < 8:
            Hh, Jj, K = (Fraction(rnd.randint(1, 4)), Fraction(rnd.randint(-2, 2)),
                         Fraction(rnd.randint(-2, 2)))
            b1, b3 = Fraction(rnd.randint(-2, 2)), Fraction(rnd.randint(-2, 2))
            G = (Jj * Jj + K * K) / Hh
            B = Degree4Coeffs(b1, Jj + b3, b3, K - b1, G - b1, Hh - b1)
            assert degree4_inequalities(B).kind == "Boundary"
            members.append(degree4_family(B))
        harmonic_gram_not_psd = 0
        for p in members:
            v = classify(p, CFG)
            assert v.kind == "SubharmonicBoundaryCertified"
            assert v.reason == "exact PSD Gram certificate on the inequality boundary"
            assert v.sos.reconstruct() == laplacian(p)
            assert all(weight > 0 for weight, _ in v.sos.terms)
            assert v.witness is None
            phi = gram_from_neighbors(p).phi
            harmonic_gram_not_psd += not is_psd_rational([list(r) for r in phi])
        assert harmonic_gram_not_psd > 0

    def test_laplacian_gram_agrees_with_inequalities(self):
        # Violated exactly when the unique Gram matrix of Lap(p) has a
        # negative congruence pivot, on random and on boundary members.
        rnd = random.Random(59)
        rational = lambda: Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))  # noqa: E731
        cases = [Degree4Coeffs(*(rational() for _ in range(6))) for _ in range(120)]
        for _ in range(20):
            Hh, Jj, K, b1, b2 = (rational() for _ in range(5))
            Hh = abs(Hh) or Fraction(1)
            G = (Jj * Jj + K * K) / Hh
            cases.append(Degree4Coeffs(b1, b2, b2 - Jj, K - b1, G - b1, Hh - b1))
        kinds = set()
        for B in cases:
            kind = degree4_inequalities(B).kind
            dec = _laplacian_squares(degree4_family(B))
            assert dec.reconstruct() == laplacian(degree4_family(B))
            assert (kind == "Violated") == any(w < 0 for w, _ in dec.terms)
            kinds.add(kind)
        assert kinds == {"StrictlyInside", "Boundary", "Violated"}

    def test_laplacian_squares_need_one_h_halves(self):
        with pytest.raises(ValueError, match="h-free half"):
            _laplacian_squares(parse("x1^4", 2))

    def test_degree_four_nonmember(self):
        v = classify(parse("x1^4", 2), CFG)
        assert v.kind == "NotSubharmonic"
        assert "forced" in v.reason
        assert v.witness is not None

    def test_odd_degree(self):
        v = classify(parse("x1^3", 2), CFG)
        assert v.kind == "NotSubharmonic"
        w = v.witness
        assert w is not None
        lap = laplacian(parse("x1^3", 2))
        reproduced = min_eigenvalue(evaluate(lap, MatrixPoint(X=w.X, H=w.H)))
        assert abs(reproduced - w.min_eig) <= 1e-10

    def test_odd_flip_phase_falls_back_to_sampler(self, monkeypatch):
        # At n = 1 no eigenvalue of the first eight samples of x1^5 - x2^5
        # exceeds tol = 8 in absolute value, so the sign-flip search finds
        # nothing and the sampler supplies the witness, at sample 16.
        # Values captured when the flip search evaluated one point at a time.
        calls = []
        sampler = positivity.sample_matrix_positive
        monkeypatch.setattr(positivity, "sample_matrix_positive",
                            lambda q, cfg: calls.append(cfg) or sampler(q, cfg))
        p = parse("x1^5 - x2^5", 2)
        w = classify(p, SampleConfig(sizes=(1,), samples_per_size=20, tol=8.0)).witness
        assert len(calls) == 1
        assert (w.n, w.sample_index, w.min_eig.hex()) == (1, 16, "-0x1.11b79876d9b5fp+3")
        assert [M.tobytes().hex() for M in w.X] == ["d8b96c9e1a27e5bf", "9e63950cbd2bea3f"]
        assert w.H.tobytes().hex() == "e2a6d022d5e3e63f"
        # Given only the eight flip samples, the sampler finds nothing either.
        v = classify(p, SampleConfig(sizes=(1,), samples_per_size=8, tol=8.0))
        assert (len(calls), v.kind, v.witness) == (2, "NotSubharmonic", None)

    def test_high_even_nonmember(self):
        v = classify(parse("x1^6 + T(x1^6)", 2).scale(Fraction(1, 2)), CFG)
        assert v.kind == "NotSubharmonic"

    def test_high_even_negative_c0(self):
        re3 = gamma_power_parts(3)[0]
        re6 = gamma_power_parts(6)[0]
        p = (re3 * re3).scale(-1) + re6.scale(3)
        v = classify(p, CFG)
        assert v.kind == "NotSubharmonic"
        assert v.membership == (-1, 3, 0)

    def test_scale_equivariance(self):
        rnd = random.Random(56)
        polys = [
            parse("x1^2 + x2^2", 2),
            degree4_family(Degree4Coeffs(1, 0, 0, 0, 1, 1)),
            degree4_family(Degree4Coeffs(1, 0, 0, 0, 0, 0)),
            gamma_power_parts(5)[0],
            parse("x1^3", 2),
        ]
        for p in polys:
            c = Fraction(rnd.randint(1, 9), rnd.randint(1, 9))
            assert classify(p.scale(c), CFG).kind == classify(p, CFG).kind

    def test_certified_implies_sampler_clean(self):
        # Certified polynomials survive sampling with the default config.
        re3 = gamma_power_parts(3)[0]
        im6 = gamma_power_parts(6)[1]
        candidates = [
            parse("x1^2 + x2^2", 2),
            degree4_family(Degree4Coeffs(1, 0, 0, 0, 1, 1)),
            (re3 * re3).scale(2) + im6.scale(5),
        ]
        default_cfg = SampleConfig()
        for p in candidates:
            assert classify(p, CFG).kind == "PurelySubharmonicCertified"
            verdict = sample_matrix_positive(laplacian(p), default_cfg)
            assert verdict.kind == "NoCounterexampleFound"

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            classify(Poly.variable(3, 1), CFG)
        with pytest.raises(ValueError):
            classify(parse("x1 + x1^2", 2), CFG)
        with pytest.raises(ValueError):
            classify(parse("h^2", 2), CFG)
        with pytest.raises(ValueError):
            classify(parse("x1^2*x2^2", 2), CFG)  # degree 4, not symmetric


# The forced degree-4 relations, as (slot, sign, slot): A[lhs] = sign * A[rhs].
FORCED = (("A4", -1, "A1"), ("A10", 1, "A1"), ("A9", -1, "A2"), ("A7", -1, "A3"))


def _degree4_reading(S):
    """Degree4Coeffs as classify reads them off S, the Gram matrix over
    harmonic_basis(2, 2) = (x1^2 - x2^2, x1*x2, x2*x1)."""
    return Degree4Coeffs(S[0][0], S[0][1], S[0][2], S[1][2], S[2][2], S[1][1])


def _orbit_poly(A: dict) -> Poly:
    """The symmetric degree-4 polynomial with orbit coefficients A."""
    terms = {}
    for name, w in classify2._DEG4_SLOTS.items():
        terms[w] = terms[w[::-1]] = A[name]
    return Poly(2, terms)


class TestReadingsOfS:
    """The readings classify takes off the unique Gram matrix S of p over
    harmonic_basis(2, m); each test fails if its reading is wrong."""

    def test_basis_is_the_gamma_parts(self):
        for m in range(3, 9):
            assert harmonic_basis(2, m).elements == gamma_power_parts(m)

    def test_degree4_coeffs_are_read_off_S(self):
        rnd = random.Random(61)
        rational = lambda: Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))  # noqa: E731
        kinds = set()
        for _ in range(100):
            B = Degree4Coeffs(*(rational() for _ in range(6)))
            p = degree4_family(B)
            if p.is_zero():
                continue
            A = degree4_coefficients(p)
            assert _degree4_reading(gram_from_neighbors(p).phi) == B == Degree4Coeffs(
                A["A1"], A["A2"], A["A3"], A["A5"], A["A6"], A["A8"])
            region = degree4_inequalities(B)
            kinds.add(region.kind)
            if region.kind != "Violated":
                assert classify(p, CFG).region == region
        assert kinds == {"StrictlyInside", "Violated"}

    def test_obstruction_iff_a_forced_relation_fails(self):
        rnd = random.Random(62)
        rational = lambda: Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))  # noqa: E731
        obstructed = 0
        for _ in range(160):
            A = {name: rational() for name in classify2._DEG4_SLOTS}
            A["A1"] = A["A1"] or Fraction(1)
            for lhs, sign, rhs in FORCED:
                if rnd.random() < 0.75:
                    A[lhs] = sign * A[rhs]
            broken = any(A[lhs] != sign * A[rhs] for lhs, sign, rhs in FORCED)
            try:
                gram_from_neighbors(_orbit_poly(A))
            except GramObstruction:
                assert broken
                obstructed += 1
            else:
                assert not broken
        assert 40 < obstructed < 120

    def test_harmonic_is_read_off_S(self):
        # Degree 4: the aggregates G, Hh, Jj, K are zero exactly on the
        # harmonics, among them Re gam^4 and Im gam^4.
        for q in gamma_power_parts(4):
            region = degree4_inequalities(_degree4_reading(gram_from_neighbors(q).phi))
            assert (region.G, region.Hh, region.Jj, region.K) == (0, 0, 0, 0)
        rnd = random.Random(63)
        rational = lambda: Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))  # noqa: E731
        harmonic = 0
        for _ in range(60):
            s, t = rational(), rational()
            if rnd.random() < 0.5:
                B = Degree4Coeffs(t, s, s, -t, -t, -t)
            else:
                B = Degree4Coeffs(*(rational() for _ in range(6)))
            region = degree4_inequalities(B)
            zero = not (region.G or region.Hh or region.Jj or region.K)
            assert laplacian(degree4_family(B)).is_zero() == zero
            harmonic += zero
        assert 10 < harmonic < 50
        # Degree 2m >= 6: harmonic exactly when c0 = 0.
        for m in range(3, 7):
            re_m = gamma_power_parts(m)[0]
            re_2m, im_2m = gamma_power_parts(2 * m)
            for c0 in (0, 0, rational(), rational()):
                c1, c2 = rational(), rational() or Fraction(1)
                p = (re_m * re_m).scale(c0) + re_2m.scale(c1) + im_2m.scale(c2)
                assert high_even_membership(p) == (c0, c1, c2)
                assert (c0 == 0) == laplacian(p).is_zero()


class TestClassifyReadsS:
    """classify reads every even degree >= 4 off one gram_from_neighbors
    call and builds Lap(p) only for a witness or the boundary squares."""

    def _count(self, monkeypatch):
        calls = {"laplacian": 0, "gram_from_neighbors": 0}
        for name in calls:
            def counting(*args, _f=getattr(classify2, name), _name=name):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(classify2, name, counting)
        return calls

    def test_certified_and_harmonic_verdicts_expand_no_laplacian(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("an exact verdict sampled")

        monkeypatch.setattr(positivity, "sample_matrix_positive", no_sampling)
        re6, re8 = gamma_power_parts(6)[0], gamma_power_parts(8)[0]
        cases = [
            (re8 * re8, "PurelySubharmonicCertified", (1, 0, 0)),
            (gamma_power_parts(16)[0], "Harmonic", None),
            ((re6 * re6).scale(2) + gamma_power_parts(12)[1].scale(-3),
             "PurelySubharmonicCertified", (2, 0, -3)),
            (gamma_power_parts(4)[1], "Harmonic", None),
            (degree4_family(Degree4Coeffs(1, 0, 0, 0, 1, 1)), "PurelySubharmonicCertified", None),
        ]
        calls = self._count(monkeypatch)
        for p, kind, membership in cases:
            v = classify(p, CFG)
            assert (v.kind, v.membership) == (kind, membership)
            assert calls == {"laplacian": 0, "gram_from_neighbors": 1}
            calls.update(laplacian=0, gram_from_neighbors=0)

    def test_laplacian_only_for_a_witness_or_squares(self, monkeypatch):
        re3 = gamma_power_parts(3)[0]
        cases = [
            ((re3 * re3).scale(-1), "NotSubharmonic"),
            (parse("x1^6", 2), "NotSubharmonic"),
            (parse("x1^4", 2), "NotSubharmonic"),
            (degree4_family(Degree4Coeffs(1, 0, 0, 0, 0, 0)), "SubharmonicBoundaryCertified"),
        ]
        calls = self._count(monkeypatch)
        for p, kind in cases:
            assert classify(p, CFG).kind == kind
            assert calls == {"laplacian": 1, "gram_from_neighbors": 1}
            calls.update(laplacian=0, gram_from_neighbors=0)

    def test_degree_eighteen_member_refused_before_any_expansion(self, monkeypatch):
        re9 = gamma_power_parts(9)[0]
        calls = self._count(monkeypatch)
        with pytest.raises(ValueError, match=(
                "^Laplacian expansion to 90243072 letters exceeds "
                "MAX_LAPLACIAN_LETTERS = 67108864$")):
            classify(re9 * re9, CFG)
        assert calls == {"laplacian": 0, "gram_from_neighbors": 0}


class TestRemarkSpanningSet:
    def test_six_products_span_the_family(self):
        s = parse("x1^2 - x2^2", 2)
        u = parse("x1*x2", 2)
        v = parse("x2*x1", 2)
        products = [
            s * s,
            s * u + v * s,
            s * v + u * s,
            u * u + v * v,
            v * u,
            u * v,
        ]
        rows, words = poly_matrix(products)
        assert rank_oracle(rows) == 6
        # Every member of the degree-4 family lies in the span.
        for k in range(6):
            B = Degree4Coeffs(*[Fraction(int(i == k)) for i in range(6)])
            member_rows, _ = poly_matrix(products + [degree4_family(B)], words)
            assert rank_oracle(member_rows) == 6


class TestOddSandwich:
    def test_re_gamma3(self):
        re3 = gamma_power_parts(3)[0]
        s = odd_sandwich(re3)
        assert s.reconstruct() == re3
        assert s.basis is not None and s.basis.dimension == 2

    def test_im_gamma3(self):
        im3 = gamma_power_parts(3)[1]
        s = odd_sandwich(im3)
        assert s.reconstruct() == im3

    def test_zero(self):
        s = odd_sandwich(Poly.zero(2))
        assert s.phi == ()
        assert s.reconstruct().is_zero()

    def test_refuses_h(self):
        with pytest.raises(ValueError, match="odd_sandwich expects an h-free polynomial"):
            odd_sandwich(parse("h*x1*h", 2))

    def test_not_harmonic(self):
        with pytest.raises(ValueError):
            odd_sandwich(parse("x1^3", 2))
        with pytest.raises(ValueError):
            odd_sandwich(parse("x1^4", 2))

    @pytest.mark.parametrize("build, text, g, table", [
        (odd_sandwich, "x1*x2*x3*x4*x5", 60, "3599 x 60 x 3599"),
        (gram_from_neighbors, "x1*x2^2*x1", 30, "899 x 1 x 899"),
        # Past half degree 2 the floor is a bound, and the message says so.
        (odd_sandwich, "x1*x2*x3*x4*x5*x6*x7", 16, "at least 4048 x 16 x 4048"),
    ])
    def test_table_past_cap_refused_before_the_basis(self, monkeypatch, build, text, g,
                                                     table):
        def refuse(*args):
            raise AssertionError("harmonic_basis ran")

        monkeypatch.setattr(classify2, "harmonic_basis", refuse)
        with pytest.raises(ValueError, match=f"a sandwich table of {table} "
                                             "coefficients exceeds MAX_SANDWICH_ENTRIES"):
            build(parse(text, g))

    def test_dimension_floor(self):
        # Exact for m <= 2, a lower bound above.
        for g in (1, 2, 3):
            for m in (1, 2, 3, 4):
                floor = classify2._harmonic_dimension_floor(g, m)
                dim = harmonic_basis(g, m).dimension
                assert floor == dim if m <= 2 else 0 <= floor <= dim

    def test_vanishing_conditions_on_harmonics(self):
        for d in (3, 5, 7):
            for p in gamma_power_parts(d):
                s = odd_sandwich(p)
                assert s.reconstruct() == p
                assert odd_sandwich_vanishing_check(s)

    @staticmethod
    def _perturbed(s, entries):
        phi = [[list(row) for row in plane] for plane in s.phi]
        for (m, i, j), c in entries:
            phi[m][i][j] += c
        return OddSandwich(g=s.g, d=s.d, basis=s.basis,
                           phi=tuple(tuple(map(tuple, plane)) for plane in phi))

    @pytest.mark.parametrize("entry, broken", [
        # Over gam = (x1, x2), D_(i+1)(gam_j) is h exactly when i = j.
        ((0, 1, 1), [True, False, False]),
        ((0, 0, 1), [False, True, False]),
        ((0, 1, 0), [False, False, True]),
    ])
    def test_vanishing_check_refuses_each_broken_identity(self, entry, broken):
        s = self._perturbed(odd_sandwich(gamma_power_parts(3)[0]), [(entry, 1)])
        assert [not q.is_zero() for q in sandwich_identities_oracle(s)] == broken
        assert odd_sandwich_vanishing_check(s) is False

    def test_vanishing_check_on_perturbed_degree_five(self):
        s = odd_sandwich(gamma_power_parts(5)[1])
        cases = [
            ([((0, 0, 0), Fraction(1, 2))], False),
            ([((1, 1, 2), Fraction(-3))], False),
            ([((2, 0, 1), Fraction(2)), ((1, 0, 2), Fraction(-2))], False),
        ]
        for entries, expected in cases:
            t = self._perturbed(s, entries)
            assert odd_sandwich_vanishing_check(t) is expected
            assert any(not q.is_zero() for q in sandwich_identities_oracle(t))

    def test_vanishing_check_accepts_a_harmonic_perturbation(self):
        # gam_0 x2 gam_2 = x1*x2*x3 is harmonic, so every identity still
        # holds although phi no longer rebuilds p.
        p = parse("x1*x2*x3 + x3*x2*x1", 3)
        t = self._perturbed(odd_sandwich(p), [((0, 1, 2), Fraction(5))])
        assert t.reconstruct() != p
        assert all(q.is_zero() for q in sandwich_identities_oracle(t))
        assert odd_sandwich_vanishing_check(t) is True

    def test_degree_fifteen(self):
        re15 = gamma_power_parts(15)[0]
        assert odd_sandwich(re15).reconstruct() == re15

    def test_random_harmonic_combination(self):
        rnd = random.Random(57)
        for d in (3, 5):
            re, im = gamma_power_parts(d)
            p = re.scale(Fraction(rnd.randint(-4, 4), 3)) + im.scale(
                Fraction(rnd.randint(-4, 4), 2)
            )
            if p.is_zero():
                continue
            s = odd_sandwich(p)
            assert s.reconstruct() == p
            assert odd_sandwich_vanishing_check(s)
