"""The Donnelly engine: displayed values, orders, symmetries, certificates."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etakit.eta import (EtaValue, LensSpec, ManifoldSpec, Modulus,
                        eta_donnelly, eta_donnelly_float, eta_of, eta_of_float,
                        eta_order, rational_determinant, recursion_check,
                        span_order_lower_bound, thm31_modulus)
from etakit.exactnum import (CyclotomicNumber, inverse_one_minus_root,
                             root_of_unity)
from etakit.glrverify import free_quotients
from etakit.grouprep import (InclusionMap, NotFreeError, OddLengthError,
                             VirtualCharacter, builtin_group, character_table,
                             cyclic_free_rep, quaternion_free_rep,
                             restrict_virtual)


def lens_eta(spec, rho):
    return eta_of(ManifoldSpec(lens=spec), rho)


def reference_lens_sum(spec, rho):
    """The per-weight lens and lens-bundle sum that the Donnelly engine
    replaced, kept as an exact reference:
    l^-1 sum over 1 != lambda in C_l of lambda^(sum(a)/2)
    * prod_j (1 - lambda^a_j)^-1 * Tr(rho(lambda)), for bundles times
    sum_j (c_j/2) (1 + lambda^a_j) / (1 - lambda^a_j)."""
    l, half = spec.l, sum(spec.a) // 2
    total = CyclotomicNumber.from_rational(0)
    for k in range(1, l):
        f = root_of_unity(l, k * half)
        for aj in spec.a:
            f = f / (1 - root_of_unity(l, k * aj))
        if spec.kind == "bundle":
            factor = CyclotomicNumber.from_rational(0)
            for aj, cj in zip(spec.a, spec.chern):
                if cj:
                    lam = root_of_unity(l, k * aj)
                    factor = factor + Fraction(cj, 2) * (1 + lam) / (1 - lam)
            f = f * factor
        total = total + f * rho.values[k]
    r = (total * Fraction(1, l)).as_rational()
    assert r is not None
    return r


def check_lens_value(spec, chi):
    """The engine against the exact reference, and both float mirrors
    against the value and each other to 1e-9."""
    value = lens_eta(spec, chi)
    assert value == reference_lens_sum(spec, chi)
    approx = eta_of_float(ManifoldSpec(lens=spec), chi)
    assert abs(float(value) - approx) < 1e-9
    # the float mirror of the engine, on the representation itself
    rep = cyclic_free_rep(spec.l, spec.a, spec.chern)
    assert abs(eta_donnelly_float(rep, chi) - approx) < 1e-9


def c8_char(expr_j, minus_j=None):
    t = character_table("c8")
    chi = t.irreducible(f"r{expr_j}")
    if minus_j is not None:
        chi = chi - t.irreducible(f"r{minus_j}")
    return chi


class TestQuaternionClosedForms:
    @pytest.mark.parametrize("k", range(4))
    def test_first_power(self, k):
        t = character_table("q8")
        value = eta_donnelly(quaternion_free_rep(k), 2 - t.irreducible("tau"))
        assert value == Fraction(1, 2 ** (2 * k + 3)) + Fraction(3, 2 ** (k + 2))

    def test_square_at_k1(self):
        t = character_table("q8")
        value = eta_donnelly(quaternion_free_rep(1), (2 - t.irreducible("tau")) ** 2)
        assert value == Fraction(2, 16) + Fraction(3, 4) == Fraction(7, 8)

    def test_cube_at_k2(self):
        t = character_table("q8")
        value = eta_donnelly(quaternion_free_rep(2), (2 - t.irreducible("tau")) ** 3)
        assert value == Fraction(2, 16) + Fraction(6, 8) == Fraction(7, 8)

    def test_non_reduced_character_allowed(self):
        # differences of manifolds evaluate non-reduced characters
        t = character_table("q8")
        value = eta_donnelly(quaternion_free_rep(0),
                             t.irreducible("k1") + t.irreducible("k3"))
        assert value.denominator % 2 == 0 or value.denominator == 1


class TestLensValues:
    def test_dimension_three(self):
        # the displayed sum has trace factor 1 - lambda^4, i.e. r0 - r4;
        # the engine evaluates characters strictly, so r4 - r0 negates it
        spec = LensSpec(8, (1, 1))
        assert lens_eta(spec, c8_char(0, 4)) == -1
        assert lens_eta(spec, c8_char(4, 0)) == 1

    def test_dimension_seven(self):
        assert lens_eta(LensSpec(8, (1, 1, 1, 1)), c8_char(0, 4)) == \
            Fraction(3, 2)

    def test_dimension_eleven_sphere(self):
        # no displayed value exists for this one; frozen from the engine
        # after cross-checking against the double-precision oracle
        spec = LensSpec(8, (1,) * 6)
        value = lens_eta(spec, c8_char(0, 1))
        assert value == Fraction(-105, 256)
        assert abs(float(value)
                   - eta_of_float(ManifoldSpec(lens=spec), c8_char(0, 1))) < 1e-9

    def test_bundle_values(self):
        b5 = LensSpec(8, (1, 1), kind="bundle")
        b13 = LensSpec(8, (1,) * 6, kind="bundle")
        assert b5.chern == (2, 0)
        assert lens_eta(b5, c8_char(0, 1)) == Fraction(-7, 8)
        assert lens_eta(b5, c8_char(0, 3)) == Fraction(-5, 8)
        assert lens_eta(b13, c8_char(0, 1)) == Fraction(-69, 32)
        assert lens_eta(b13, c8_char(0, 3)) == Fraction(-67, 32)

    def test_zero_chern_annihilates(self):
        spec = LensSpec(8, (1, 1), kind="bundle", chern=(0, 0))
        for j in (1, 3, 4):
            assert lens_eta(spec, c8_char(0, j)) == 0

    def test_weight_validation(self):
        with pytest.raises(NotFreeError):
            LensSpec(8, (2, 1))
        with pytest.raises(NotFreeError):
            LensSpec(6, (3, 3))
        with pytest.raises(NotFreeError):
            LensSpec(15, (1, 5), kind="bundle")
        with pytest.raises(OddLengthError):
            LensSpec(8, (1, 1, 5))

    @pytest.mark.parametrize("kind,chern", [("sphere", None), ("bundle", (1, -2, 0, 3))])
    def test_nonzero_dimension_is_the_donnelly_sum(self, kind, chern):
        # the dimension-zero rule belongs to the CLI's order display, not to eta_of
        t = character_table("c8")
        spec = LensSpec(8, (1, 3, 5, 7), kind, chern)
        for chi in (t.irreducible("r0"), 2 * t.irreducible("r3") + t.irreducible("r4")):
            assert chi.dim != 0
            assert lens_eta(spec, chi) == eta_donnelly(cyclic_free_rep(8, spec.a, spec.chern), chi)

    def test_character_must_live_on_the_cyclic_group(self):
        t = character_table("c16")
        with pytest.raises(ValueError, match="character must live on C_8"):
            lens_eta(LensSpec(8, (1, 1)), t.irreducible("r1") - t.irreducible("r0"))


class TestOrders:
    def test_examples(self):
        assert eta_order(Fraction(3, 2), Modulus.Z) == 2
        assert eta_order(Fraction(-1), Modulus.TWO_Z) == 2
        assert eta_order(Fraction(7, 8), Modulus.TWO_Z) == 16

    def test_integers(self):
        assert eta_order(Fraction(5), Modulus.Z) == 1
        assert eta_order(Fraction(4), Modulus.TWO_Z) == 1
        assert eta_order(Fraction(3), Modulus.TWO_Z) == 2

    def test_eta_value_wrapper(self):
        v = EtaValue(Fraction(7, 8), Modulus.TWO_Z)
        assert v.order == 16
        assert str(v) == "7/8 (order 16 mod 2Z)"


class TestAgreement:
    """The closed lens formula against the eigenvalue-data engine."""

    @pytest.mark.parametrize("a", [(1, 1), (1, 3), (3, 5, 7, 1), (1, 1, 5, 5)])
    def test_fixed_tuples(self, a):
        spec = LensSpec(8, a)
        rep = cyclic_free_rep(8, a)
        for j in (1, 3, 4):
            chi = c8_char(0, j)
            assert lens_eta(spec, chi) == eta_donnelly(rep, chi) == \
                reference_lens_sum(spec, chi)

    @settings(max_examples=25, deadline=None)
    @given(a=st.lists(st.sampled_from((1, 3, 5, 7)), min_size=2, max_size=6)
           .filter(lambda v: len(v) % 2 == 0))
    def test_random_tuples(self, a):
        spec = LensSpec(8, tuple(a))
        rep = cyclic_free_rep(8, tuple(a))
        chi = c8_char(0, 4)
        assert lens_eta(spec, chi) == eta_donnelly(rep, chi) == \
            reference_lens_sum(spec, chi)

    @staticmethod
    def _check(l, kind, data):
        # weights up to 2l: a weight shifted by l changes the determinant
        # square root, so unreduced weights are cases of their own
        units = [u for u in range(1, 2 * l, 2) if math.gcd(u, l) == 1]
        a = data.draw(st.lists(st.sampled_from(units), min_size=2, max_size=6)
                      .filter(lambda v: len(v) % 2 == 0))
        chern = None
        if kind == "bundle":
            chern = data.draw(st.lists(st.integers(-3, 3), min_size=len(a),
                                       max_size=len(a)))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=l, max_size=l))
        coeffs[0] -= sum(coeffs)  # virtual dimension zero
        chi = VirtualCharacter(character_table(f"c{l}"), coeffs)
        check_lens_value(LensSpec(l, tuple(a), kind, chern), chi)

    @settings(max_examples=40, deadline=None)
    @given(l=st.integers(2, 32), kind=st.sampled_from(("sphere", "bundle")),
           data=st.data())
    def test_against_reference(self, l, kind, data):
        self._check(l, kind, data)

    def test_float_mirror_reduces_exponents(self):
        # found by hypothesis: raising lambda to the unreduced weights and to
        # sum(a)/2 = 59 put the mirror 1.0e-9 away from the exact value
        coeffs = [2, -1, -2, 0, 2, 2, -1, 3, 0, -3, 3, 1, 3, -1, 0,
                  3, -3, 2, 0, -3, 0, 2, 2, 2, 0, 0, 0, 0, 3, 0]
        coeffs[0] -= sum(coeffs)
        chi = VirtualCharacter(character_table("c30"), coeffs)
        spec = LensSpec(30, (11, 11, 11, 1, 41, 41), "bundle", (0, 1, -1, -3, 3, 1))
        assert lens_eta(spec, chi) == Fraction(249737, 50)
        check_lens_value(spec, chi)

    @pytest.mark.parametrize("l", [6, 12, 15, 24])
    @settings(max_examples=8, deadline=None)
    @given(kind=st.sampled_from(("sphere", "bundle")), data=st.data())
    def test_against_reference_composite(self, l, kind, data):
        self._check(l, kind, data)


    def test_one_closed_form_per_eigenvalue(self, monkeypatch):
        # 14 classes of 4 eigenvalues, each with a nonzero Chern number, but
        # only 14 distinct factors (1 - zeta_15^e)^-1, each built once from
        # the geometric-sum closed form and none by a field inversion
        rep = cyclic_free_rep(15, (1, 7, 11, 13), (1, -1, 2, 3))
        chi = character_table("c15").irreducible("r1") - character_table("c15").trivial()
        inverted = []
        inverse = CyclotomicNumber.inverse

        def counted(x):
            inverted.append(x)
            return inverse(x)
        monkeypatch.setattr(CyclotomicNumber, "inverse", counted)
        inverse_one_minus_root.cache_clear()
        value = eta_donnelly(rep, chi)
        assert inverted == []
        assert inverse_one_minus_root.cache_info().misses == 14
        assert abs(float(value) - eta_donnelly_float(rep, chi)) < 1e-9


class TestSymmetries:
    @settings(max_examples=25, deadline=None)
    @given(a=st.lists(st.sampled_from((1, 3, 5, 7)), min_size=2, max_size=6)
           .filter(lambda v: len(v) % 2 == 0),
           g=st.sampled_from((3, 5, 7)))
    def test_galois_stability(self, a, g):
        # the substitution lambda -> lambda^g permutes the summands, which
        # is the same as multiplying every weight by g (without reducing:
        # a shift by 8 would flip the canonical determinant square root)
        chi = c8_char(0, 4)
        left = lens_eta(LensSpec(8, tuple(a)), chi)
        right = lens_eta(LensSpec(8, tuple(x * g for x in a)), chi)
        assert left == right

    @settings(max_examples=25, deadline=None)
    @given(a=st.lists(st.sampled_from((1, 3, 5, 7)), min_size=2, max_size=6)
           .filter(lambda v: len(v) % 2 == 0),
           j=st.sampled_from((1, 2, 3, 4)))
    def test_conjugation_parity(self, a, j):
        # a_j -> l - a_j is complex conjugation on the action
        chi = c8_char(0, j)
        left = lens_eta(LensSpec(8, tuple(a)), chi)
        right = lens_eta(LensSpec(8, tuple(8 - x for x in a)),
                                chi.conjugate())
        assert left == right


class TestFloatOracle:
    @settings(max_examples=25, deadline=None)
    @given(a=st.lists(st.sampled_from((1, 3, 5, 7)), min_size=2, max_size=6)
           .filter(lambda v: len(v) % 2 == 0),
           j=st.sampled_from((1, 2, 3, 4)))
    def test_sphere(self, a, j):
        spec = LensSpec(8, tuple(a))
        chi = c8_char(0, j)
        assert abs(float(lens_eta(spec, chi))
                   - eta_of_float(ManifoldSpec(lens=spec), chi)) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(l=st.sampled_from((12, 15, 24)), kind=st.sampled_from(("sphere", "bundle")),
           data=st.data())
    def test_composite_orders(self, l, kind, data):
        # the float oracle at composite orders, against the closed-form
        # eigenvalue factors reduced by a Phi_l with several low terms
        units = [u for u in range(1, l, 2) if math.gcd(u, l) == 1]
        a = data.draw(st.lists(st.sampled_from(units), min_size=2, max_size=4)
                      .filter(lambda v: len(v) % 2 == 0))
        chern = None
        if kind == "bundle":
            chern = data.draw(st.lists(st.integers(-2, 2), min_size=len(a),
                                       max_size=len(a)))
        i, j = data.draw(st.lists(st.integers(0, l - 1), min_size=2, max_size=2,
                                  unique=True))
        t = character_table(f"c{l}")
        chi = t.irreducible(f"r{i}") - t.irreducible(f"r{j}")
        manifold = ManifoldSpec(lens=LensSpec(l, tuple(a), kind, chern))
        assert abs(float(eta_of(manifold, chi)) - eta_of_float(manifold, chi)) < 1e-9

    @pytest.mark.parametrize("k,p", [(k, p) for k in range(3) for p in (1, 2, 3)])
    def test_quaternion(self, k, p):
        chi = (2 - character_table("q8").irreducible("tau")) ** p
        rep = quaternion_free_rep(k)
        assert abs(float(eta_donnelly(rep, chi))
                   - eta_donnelly_float(rep, chi)) < 1e-9


class TestRecursion:
    @pytest.mark.parametrize("a", [(1, 1), (1, 1, 1, 1), (3, 5, 7, 1)])
    def test_documented_cases(self, a):
        assert recursion_check(a)

    def test_base_value(self):
        # -1/2 versus (1/2)(-1) after one application
        spec = LensSpec(8, (1, 1, 1, 1, 5, 5))
        assert lens_eta(spec, c8_char(4, 0)) == Fraction(1, 2)


class TestCertificates:
    def _mq(self, k, power):
        t = character_table("q8")
        return eta_donnelly(quaternion_free_rep(k), (2 - t.irreducible("tau")) ** power)

    def test_dimension_eleven(self):
        m = 1
        rows = [[self._mq(2 * m, 1), self._mq(2 * m - 2, 1)],
                [self._mq(2 * m, 2) / 2, self._mq(2 * m - 2, 2) / 2]]
        assert span_order_lower_bound(rows) == 2 ** 9

    def test_dimension_fifteen(self):
        m = 1
        rows = [[self._mq(2 * m + 1, 1) / 2, self._mq(2 * m - 1, 1) / 2],
                [self._mq(2 * m + 1, 3) / 2, self._mq(2 * m - 1, 3) / 2]]
        assert span_order_lower_bound(rows) == 2 ** 12

    def test_identity_matrix(self):
        assert span_order_lower_bound([[Fraction(1), Fraction(0)],
                                       [Fraction(0), Fraction(1)]]) == 1

    def test_integer_determinant_gives_trivial_bound(self):
        assert span_order_lower_bound([[Fraction(3, 2), Fraction(1, 2)],
                                       [Fraction(1, 2), Fraction(3, 2)]]) == 1

    def test_determinant_against_permutation_expansion(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(1, 4)
            m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(n)] for _ in range(n)]
            import itertools
            expected = Fraction(0)
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = Fraction(1)
                for i in range(n):
                    term *= m[i][perm[i]]
                expected += sign * term
            assert rational_determinant(m) == expected


class TestModulusRule:
    def test_two_minus_tau(self):
        t = character_table("q8")
        chi = 2 - t.irreducible("tau")
        assert thm31_modulus(3, chi) is Modulus.Z       # quaternion, dim 3
        assert thm31_modulus(7, chi) is Modulus.TWO_Z   # quaternion, dim 7
        assert thm31_modulus(3, chi ** 2) is Modulus.TWO_Z  # real, dim 3
        assert thm31_modulus(7, chi ** 2) is Modulus.Z

    def test_doubled_real_in_dimension_seven(self):
        t = character_table("c8")
        doubled = 2 * (t.irreducible("r4") - t.irreducible("r0"))
        assert thm31_modulus(7, doubled) is Modulus.TWO_Z


class TestManifoldsAndVectors:
    @pytest.mark.parametrize("n", [3, 7])
    @settings(max_examples=10, deadline=None)
    @given(coeffs=st.lists(st.integers(-3, 3), min_size=7, max_size=7))
    def test_class_map_matches_restriction(self, n, coeffs):
        # every fixture row: the C8 lens space, C2, both C4 and the Q8 quotient
        chi = VirtualCharacter(character_table("sd16"), coeffs)
        for row in free_quotients(n).values():
            tau = (quaternion_free_rep(row.quaternion_k) if row.lens is None
                   else cyclic_free_rep(row.lens.l, row.lens.a))
            assert eta_of(row, chi) == eta_donnelly(tau, restrict_virtual(chi, row.inclusion))

    def test_naturality_through_inclusion(self):
        sd = builtin_group("sd16")
        inc = InclusionMap.from_images(builtin_group("c8"), sd, {"g": "s"})
        t = character_table("sd16")
        chi = t.trivial() - t.irreducible("chi3")
        manifold = ManifoldSpec(lens=LensSpec(8, (1, 1)), inclusion=inc)
        direct = lens_eta(LensSpec(8, (1, 1)), restrict_virtual(chi, inc))
        assert eta_of(manifold, chi) == direct

    def test_bott_shift_keeps_value(self):
        base = ManifoldSpec(quaternion_k=0)
        shifted = ManifoldSpec(quaternion_k=0, bott_power=1)
        t = character_table("q8")
        chi = 2 - t.irreducible("tau")
        assert base.dimension == 3 and shifted.dimension == 11
        assert eta_of(base, chi) == eta_of(shifted, chi)

    def test_vector_on_trivial_characters(self):
        t = character_table("q8")
        assert eta_of(ManifoldSpec(quaternion_k=1), t.constant(0)) == 0

    def test_quadruple_moduli(self):
        # dimension 3 mod 8: real columns upgrade to R/2Z, quaternion stay
        t = character_table("q8")
        tau = t.irreducible("tau")
        rhos = [t.irreducible("r0") - t.irreducible("k1"), 2 - tau, (2 - tau) ** 2]
        dimension = ManifoldSpec(quaternion_k=0).dimension
        assert [thm31_modulus(dimension, rho) for rho in rhos] == \
            [Modulus.TWO_Z, Modulus.Z, Modulus.TWO_Z]
