"""The lens engine in Z[C_l] and the Donnelly engine: displayed values,
orders, symmetries, certificates, and each engine against the other."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etakit import eta
from etakit.eta import (EtaValue, FloatRangeError, LensSpec, ManifoldSpec, Modulus,
                        NonRationalSumError, eta_donnelly, eta_donnelly_float,
                        eta_of, eta_of_float, eta_order, rational_determinant,
                        recursion_check, span_order_lower_bound, thm31_modulus)
from etakit.exactnum import (CyclotomicNumber, inverse_one_minus_root,
                             root_of_unity)
from etakit import grouprep
from etakit.glrverify import _sd16_fixture, free_quotients, run_report
from etakit.grouprep import (FreeUnitaryRep, InclusionMap, NotFreeError,
                             OddLengthError, ValidationError,
                             VirtualCharacter, builtin_group,
                             character_table, cyclic_free_rep,
                             quaternion_free_rep, restrict_virtual,
                             table_from_json)


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


def lens_weights(data, l, max_size=6):
    """An even number of odd weights coprime to l, up to 2l: a weight
    shifted by l changes the determinant square root."""
    units = [u for u in range(1, 2 * l, 2) if math.gcd(u, l) == 1]
    return tuple(data.draw(st.lists(st.sampled_from(units), min_size=2, max_size=max_size)
                           .filter(lambda v: len(v) % 2 == 0)))


def chern_numbers(data, a):
    return tuple(data.draw(st.lists(st.integers(-3, 3), min_size=len(a), max_size=len(a))))


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

    def test_empty_weight_tuple_refused(self):
        for kind in ("sphere", "bundle"):
            with pytest.raises(ValidationError, match="weight tuple must not be empty"):
                LensSpec(8, (), kind)
        with pytest.raises(ValidationError, match="weight tuple must not be empty"):
            cyclic_free_rep(8, ())

    def test_weight_errors_come_before_chern_errors(self):
        with pytest.raises(NotFreeError):
            LensSpec(8, (2, 1), "bundle", (1, 2, 3))
        with pytest.raises(NotFreeError):
            LensSpec(8, (2, 1), "sphere", (1, 2))
        with pytest.raises(ValueError, match="chern data must match the weight tuple"):
            LensSpec(8, (1, 1), "bundle", (1, 2, 3))
        with pytest.raises(ValueError, match="sphere-kind lens spaces carry no chern data"):
            LensSpec(8, (1, 1), "sphere", (1, 2))

    def test_lens_specs_build_no_representation(self):
        # the spec checks the free-action rules on its weights, and the lens
        # sum reads no eigenvalue data, so neither builds nor looks one up
        info = grouprep._cyclic_free_rep.cache_info
        before = info().hits + info().misses
        spec = LensSpec(8, (1, 3, 5, 7), "bundle", ["6", 0, -4, 2])
        assert spec.chern == (6, 0, -4, 2)
        sphere = LensSpec(64, (1, 3, 61, 63))
        lens_eta(spec, c8_char(0, 1))
        lens_eta(sphere, character_table("c64").irreducible("r5") - 1)
        eta_of_float(ManifoldSpec(lens=spec), c8_char(0, 1))
        assert info().hits + info().misses == before

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


def is_prime_power(l):
    p = next(p for p in range(2, l + 1) if l % p == 0)
    while l % p == 0:
        l //= p
    return l == 1


PRIME_POWERS = [l for l in range(2, 65) if is_prime_power(l)]
COMPOSITES = [l for l in range(2, 65) if not is_prime_power(l)]


class TestGroupRingEngine:
    """The lens sum in Z[C_l] against its exact oracle, the Donnelly sum
    class by class over the eigenvalue data of `cyclic_free_rep`."""

    @staticmethod
    def oracle(spec, chi):
        return eta_donnelly(cyclic_free_rep(spec.l, spec.a, spec.chern), chi)

    @pytest.mark.parametrize("orders", [PRIME_POWERS, COMPOSITES],
                             ids=["prime-power", "composite"])
    @settings(max_examples=50, deadline=None)
    @given(kind=st.sampled_from(("sphere", "bundle")), data=st.data())
    def test_against_donnelly(self, orders, kind, data):
        # weights up to 4l, so reduced and unreduced weights both occur, and
        # characters of any dimension
        l = data.draw(st.sampled_from(orders))
        units = [u for u in range(1, 4 * l, 2) if math.gcd(u, l) == 1]
        a = tuple(data.draw(st.lists(st.sampled_from(units), min_size=2, max_size=8)
                            .filter(lambda v: len(v) % 2 == 0)))
        chern = chern_numbers(data, a) if kind == "bundle" else None
        spec = LensSpec(l, a, kind, chern)
        chi = random_character(data, character_table(f"c{l}"))
        assert lens_eta(spec, chi) == self.oracle(spec, chi)

    @pytest.mark.parametrize("l", [8, 63, 64])
    @pytest.mark.parametrize("kind", ["sphere", "bundle"])
    def test_weight_cap(self, l, kind):
        rng = random.Random(l)
        units = [u for u in range(1, 4 * l, 2) if math.gcd(u, l) == 1]
        a = tuple(rng.choice(units) for _ in range(grouprep.LENS_WEIGHT_CAP))
        chern = tuple(rng.randint(-3, 3) for _ in a) if kind == "bundle" else None
        spec = LensSpec(l, a, kind, chern)
        chi = VirtualCharacter(character_table(f"c{l}"),
                               [rng.randint(-3, 3) for _ in range(l)])
        assert lens_eta(spec, chi) == self.oracle(spec, chi)

    @pytest.mark.parametrize("which", ["c8", "c2", "c4i", "c4j"])
    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from(("sphere", "bundle")), data=st.data())
    def test_through_inclusions(self, which, kind, data):
        # against the Donnelly sum over the ambient values read through the
        # class map, which decomposes nothing
        fx = _sd16_fixture()
        inclusion = getattr(fx, which)
        l = inclusion.source.order
        a = lens_weights(data, l)
        chern = chern_numbers(data, a) if kind == "bundle" else None
        manifold = ManifoldSpec(lens=LensSpec(l, a, kind, chern), inclusion=inclusion)
        chi = random_character(data, fx.tsd)
        values = [chi.values[c] for c in inclusion.class_map]
        want = eta._donnelly_sum(cyclic_free_rep(l, a, manifold.lens.chern),
                                 inclusion.source, values)
        assert eta_of(manifold, chi) == want
        assert abs(eta_of_float(manifold, chi) - float(want)) < 1e-9

    @staticmethod
    def _permuted(tag, order):
        t = character_table(tag)
        return table_from_json({"group": tag, "irreducibles": [
            {"name": f"x{j}", "values": [str(v) for v in t.rows[j]]} for j in order]})

    def test_row_permuted_cyclic_table(self):
        # its coefficients read by position as builtin ones name r1 - r0,
        # and L(8; 1,1,1,5) would give 3/64
        order = [3, 0, 5, 7, 1, 2, 6, 4]
        permuted = self._permuted("c8", order)
        coeffs = [0] * 8
        coeffs[order.index(0)], coeffs[order.index(3)] = 1, -1
        chi = VirtualCharacter(permuted, coeffs)
        spec = LensSpec(8, (1, 1, 1, 5))
        assert lens_eta(spec, chi) == self.oracle(spec, chi) == Fraction(29, 64)
        assert lens_eta(spec, c8_char(0, 3)) == Fraction(29, 64)
        assert abs(eta_of_float(ManifoldSpec(lens=spec), chi) - 29 / 64) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(l=st.sampled_from((5, 12, 16)), data=st.data())
    def test_any_row_order(self, l, data):
        permuted = self._permuted(f"c{l}", data.draw(st.permutations(range(l))))
        a = lens_weights(data, l)
        chi = random_character(data, permuted)
        spec = LensSpec(l, a, "bundle", chern_numbers(data, a))
        assert lens_eta(spec, chi) == self.oracle(spec, chi)

    def test_row_permuted_ambient_table(self):
        fx = _sd16_fixture()
        order = [6, 2, 0, 5, 1, 4, 3]
        permuted = self._permuted("sd16", order)
        for j, column in enumerate(fx.columns):
            chi = VirtualCharacter(permuted, [column.coeffs[i] for i in order])
            for row in free_quotients(7 + 8 * j).values():
                assert eta_of(row, chi) == eta_of(row, column)

    def test_reads_no_class_value(self):
        fx = _sd16_fixture()
        on_c64 = VirtualCharacter(character_table("c64"), [1, 0, -1] + [0] * 61)
        ambient = VirtualCharacter(fx.tsd, [1, 0, 0, 0, -1, 1, 0])
        lens_eta(LensSpec(64, (1, 3)), on_c64)
        eta_of(free_quotients(7)["L"], ambient)
        assert "values" not in vars(on_c64) and "values" not in vars(ambient)


class TestQuaternionEngine:
    """The Q8 sum on builtin coefficients against its exact oracle, the
    Donnelly sum class by class, on restricted characters and on ambient
    values read through the class map."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from(list(range(18)) + [grouprep.QUATERNION_K_CAP]),
           source=st.sampled_from(("q8", "sd16", "permuted")), data=st.data())
    def test_against_donnelly(self, k, source, data):
        fx, tau = _sd16_fixture(), quaternion_free_rep(k)
        if source == "sd16":
            chi = random_character(data, fx.tsd)
            manifold = ManifoldSpec(quaternion_k=k, inclusion=fx.q8)
            on_q8 = restrict_virtual(chi, fx.q8)
            values = [chi.values[c] for c in fx.q8.class_map]
        else:
            table = character_table("q8") if source == "q8" else \
                TestGroupRingEngine._permuted("q8", data.draw(st.permutations(range(5))))
            chi = on_q8 = random_character(data, table)
            manifold = ManifoldSpec(quaternion_k=k)
            values = chi.values
        value = eta_of(manifold, chi)
        assert value == eta_donnelly(tau, on_q8) == eta._donnelly_sum(tau, tau.group, values)
        if value and not float(value):  # below the least subnormal, at k = 1024
            with pytest.raises(FloatRangeError, match="outside double range"):
                eta_of_float(manifold, chi)
        else:
            assert abs(eta_of_float(manifold, chi) - float(value)) < 1e-9

    @pytest.mark.parametrize("k", list(range(65)) + [grouprep.QUATERNION_K_CAP])
    def test_closed_form_against_donnelly(self, k):
        # every builtin irreducible, so every character by linearity
        tau, table = quaternion_free_rep(k), character_table("q8")
        for name in table.irreducible_names:
            chi = table.irreducible(name)
            assert eta_of(ManifoldSpec(quaternion_k=k), chi) == \
                eta._donnelly_sum(tau, tau.group, chi.values)

    def test_builds_no_representation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise RuntimeError("a FreeUnitaryRep was built")
        monkeypatch.setattr(FreeUnitaryRep, "__init__", refuse)
        eta._quaternion_etas.cache_clear()
        grouprep._quaternion_free_rep.cache_clear()
        chi = 2 - character_table("q8").irreducible("tau")
        for k in (0, 1, 17, grouprep.QUATERNION_K_CAP):
            eta_of(ManifoldSpec(quaternion_k=k), chi)
        with pytest.raises(RuntimeError, match="FreeUnitaryRep"):
            quaternion_free_rep(0)

    def test_row_permuted_table(self):
        # tau - 2 r0, whose coefficients read by position as builtin ones
        # would name r0 - 2 k2
        order = [4, 2, 0, 1, 3]
        chi = VirtualCharacter(TestGroupRingEngine._permuted("q8", order), [1, 0, -2, 0, 0])
        t = character_table("q8")
        manifold = ManifoldSpec(quaternion_k=1)
        want = -eta_of(manifold, 2 - t.irreducible("tau"))
        assert eta_of(manifold, chi) == want == eta_donnelly(quaternion_free_rep(1), chi)
        assert want != eta_of(manifold, t.trivial() - 2 * t.irreducible("k2"))

    def test_report_runs_no_donnelly_sum(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("the Donnelly sum ran")
        monkeypatch.setattr(eta, "_donnelly_sum", refuse)
        assert not run_report("all").failures

    def test_reads_no_class_value(self):
        fx = _sd16_fixture()
        on_q8 = VirtualCharacter(character_table("q8"), [2, 0, 0, 0, -1])
        ambient = VirtualCharacter(fx.tsd, [1, 0, 0, 0, -1, 1, 0])
        assert eta_of(ManifoldSpec(quaternion_k=2), on_q8) == Fraction(1, 128) + Fraction(3, 16)
        eta_of(ManifoldSpec(quaternion_k=2, inclusion=fx.q8), ambient)
        assert "values" not in vars(on_q8) and "values" not in vars(ambient)

    @pytest.mark.parametrize("k", [511, 512, grouprep.QUATERNION_K_CAP])
    def test_float_mirror_at_its_overflow(self, k):
        # det(I - tau) overflows from k = 512 on, but the mirror divides by
        # one factor 1 - lambda at a time, and the small value stays in range
        manifold = ManifoldSpec(quaternion_k=k)
        chi = 2 - character_table("q8").irreducible("tau")
        value = eta_of(manifold, chi)
        assert abs(eta_of_float(manifold, chi) - float(value)) <= 1e-9 * float(value)

    @pytest.mark.parametrize("k, want", [(400, -9.373105086847693e-243), (535, -5e-324)])
    def test_float_mirror_down_to_the_least_subnormal(self, k, want):
        # against tau only the class [-1] counts: the value is -4^-(k+1)/4
        manifold = ManifoldSpec(quaternion_k=k)
        tau = character_table("q8").irreducible("tau")
        assert float(eta_of(manifold, tau)) == want
        assert eta_of_float(manifold, tau) == want

    @pytest.mark.parametrize("k", [536, 600, grouprep.QUATERNION_K_CAP])
    def test_float_mirror_underflow_raises(self, k):
        manifold = ManifoldSpec(quaternion_k=k)
        tau = character_table("q8").irreducible("tau")
        assert float(eta_of(manifold, tau)) == 0.0
        with pytest.raises(FloatRangeError, match="outside double range"):
            eta_of_float(manifold, tau)

    def test_float_mirror_keeps_an_exact_zero(self):
        # k3 - k1 vanishes at [-1] and its [i], [j], [k] summands cancel
        t = character_table("q8")
        chi = t.irreducible("k3") - t.irreducible("k1")
        rep = grouprep.quaternion_free_rep(grouprep.QUATERNION_K_CAP)
        assert eta_of(ManifoldSpec(quaternion_k=grouprep.QUATERNION_K_CAP), chi) == 0
        assert eta_donnelly_float(rep, chi) == 0.0

    @pytest.mark.parametrize("evaluate", [eta_of, eta_of_float])
    def test_character_on_the_wrong_group(self, evaluate):
        fx = _sd16_fixture()
        on_c8 = character_table("c8").irreducible("r1")
        with pytest.raises(ValueError, match="character must live on Q_8"):
            evaluate(ManifoldSpec(quaternion_k=0), on_c8)
        with pytest.raises(ValueError, match="character must live on Q_8"):
            evaluate(ManifoldSpec(quaternion_k=0), fx.tsd.trivial())
        with pytest.raises(ValueError, match="the inclusion's target group"):
            evaluate(ManifoldSpec(quaternion_k=0, inclusion=fx.q8), on_c8)
        with pytest.raises(ValueError, match="character must live on Q_8"):
            evaluate(ManifoldSpec(quaternion_k=0, inclusion=fx.c8), fx.tsd.trivial())
        with pytest.raises(ValueError, match="exceeds the cap"):
            evaluate(ManifoldSpec(quaternion_k=grouprep.QUATERNION_K_CAP + 1), fx.tq8.trivial())

    @pytest.mark.parametrize("exponents,det_sqrt", [
        # det(1 - tau) = (1 - i)^2 * 2 = -4i off the identity, det_sqrt = 1
        ([(0, 0, 0)] + [(1, 1, 2)] * 4, [1] * 5),
        # det(1 - tau) is rational everywhere, det_sqrt is +-i off the identity
        ([(0, 0, 0), (2, 2, 2)] + [(1, 3, 2)] * 3, [1] + [root_of_unity(4, 1)] * 4),
    ])
    def test_non_rational_class_factor_raises(self, exponents, det_sqrt):
        # a typed error, which python -O keeps
        q8 = builtin_group("q8")
        tau = FreeUnitaryRep(q8, len(exponents[0]), 4, exponents,
                             [CyclotomicNumber.from_rational(d) if isinstance(d, int) else d
                              for d in det_sqrt])
        with pytest.raises(NonRationalSumError, match="did not reduce to a rational"):
            eta_donnelly(tau, character_table("q8").trivial())


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
        assert EtaValue(Fraction(1, 2)).modulus is Modulus.Z


class TestSpecValues:
    """Specs are immutable values: equal data, equal and equally hashed."""

    def test_lens_spec(self):
        spec = LensSpec(8, [1, 5], "bundle")
        assert spec == LensSpec(8, (1, 5), "bundle", (2, 0))
        assert hash(spec) == hash(LensSpec(8, (1, 5), "bundle", (2, 0)))
        assert str(spec) == "LensSpec(l=8, a=(1, 5), kind='bundle', chern=(2, 0))"
        assert spec.dimension == 5 and LensSpec(8, (1, 5)).dimension == 3
        with pytest.raises(AttributeError):
            spec.l = 16

    @pytest.mark.parametrize("args,error", [
        ((8, (1, 1), "disc"), "kind must be 'sphere' or 'bundle'"),
        ((8, (1, 1), "sphere", (2, 0)), "carry no chern data"),
        ((8, (1, 2), "bundle", (2,)), "every weight must be odd"),
    ])
    def test_lens_spec_errors(self, args, error):
        with pytest.raises(ValueError, match=error):
            LensSpec(*args)

    def test_manifold_spec(self):
        m = ManifoldSpec(quaternion_k=2, bott_power=1)
        assert m == ManifoldSpec(None, 2, None, 1) and hash(m) == hash(ManifoldSpec(None, 2, None, 1))
        assert m.dimension == 19
        assert str(m) == "ManifoldSpec(lens=None, quaternion_k=2, inclusion=None, bott_power=1)"
        with pytest.raises(ValueError, match="exactly one of lens / quaternion_k"):
            ManifoldSpec()
        with pytest.raises(AttributeError):
            m.bott_power = 0


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
        a = lens_weights(data, l)
        chern = None
        if kind == "bundle":
            chern = chern_numbers(data, a)
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=l, max_size=l))
        coeffs[0] -= sum(coeffs)  # virtual dimension zero
        chi = VirtualCharacter(character_table(f"c{l}"), coeffs)
        check_lens_value(LensSpec(l, a, kind, chern), chi)

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
        # 14 classes of 4 eigenvalues, each with a nonzero Chern number,
        # whose exponents k * (1, 7, 11, 13) mod 15 cover every nonzero
        # residue: 14 factors (1 - zeta_15^e)^-1 built, each once from the
        # geometric-sum closed form and none by a field inversion
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


def random_character(data, table):
    """A virtual character of any dimension on the table."""
    n = len(table.rows)
    return VirtualCharacter(table, data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                                      max_size=n)))


class TestDonnellySum:
    """The Donnelly sum class by class: the engines against it on the
    paper's characters and the SD16 columns, and the typed error on
    eigenvalue data or class values whose total is not rational."""

    def test_quaternion_powers(self):
        tau_q8 = character_table("q8").irreducible("tau")
        for k in range(18):
            tau = quaternion_free_rep(k)
            for p in range(1, 4):
                chi = (2 - tau_q8) ** p
                assert eta_of(ManifoldSpec(quaternion_k=k), chi) == eta_donnelly(tau, chi)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), which=st.sampled_from(("c8", "c4i", "q8")),
           kind=st.sampled_from(("sphere", "bundle")))
    def test_sd16_columns_through_inclusions(self, data, which, kind):
        fx = _sd16_fixture()
        inclusion = getattr(fx, which)
        if which == "q8":
            k = data.draw(st.integers(0, 17))
            manifold, tau = ManifoldSpec(quaternion_k=k, inclusion=inclusion), quaternion_free_rep(k)
        else:
            l = 8 if which == "c8" else 4
            a = lens_weights(data, l)
            chern = None
            if kind == "bundle":
                chern = chern_numbers(data, a)
            manifold = ManifoldSpec(lens=LensSpec(l, a, kind, chern), inclusion=inclusion)
            tau = cyclic_free_rep(l, a, chern)
        if data.draw(st.booleans()):
            chi = data.draw(st.sampled_from(fx.columns))
        else:
            chi = random_character(data, fx.tsd)
        values = [chi.values[c] for c in inclusion.class_map]
        assert eta_of(manifold, chi) == eta._donnelly_sum(tau, tau.group, values)

    def test_swapped_columns_that_break_rationality_raise(self):
        tau = cyclic_free_rep(5, (1, 3))
        values = list((character_table("c5").irreducible("r1") - 1).values)
        values[1], values[2] = values[2], values[1]
        with pytest.raises(NonRationalSumError):
            eta._donnelly_sum(tau, tau.group, values)

    def test_non_rational_eigenvalue_data_raises(self):
        # eigenvalues (i, -1) at the class of i in Q8: its summand is not
        # rational, and nothing cancels it
        exps = [(0, 0), (4, 4), (2, 4), (2, 6), (2, 6)]
        dets = [root_of_unity(8, 0), root_of_unity(8, 4), root_of_unity(8, 3),
                root_of_unity(8, 0), root_of_unity(8, 0)]
        tau = FreeUnitaryRep(builtin_group("q8"), 2, 8, exps, dets)
        chi = 2 - character_table("q8").irreducible("tau")
        with pytest.raises(NonRationalSumError):
            eta_donnelly(tau, chi)


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
