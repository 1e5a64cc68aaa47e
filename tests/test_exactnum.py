"""Field arithmetic in Q(zeta_n): examples and algebraic laws."""

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from etakit import exactnum
from etakit.exactnum import (CyclotomicNumber, InvariantError, cyclotomic_polynomial,
                             euler_phi, hermitian_sum, inverse_one_minus_root,
                             parse_cyclotomic, root_of_unity)
from oracles import hermitian_sum_per_term


def rat(p, q=1):
    return Fraction(p, q)


class TestRootsOfUnity:
    def test_identity(self):
        assert root_of_unity(8, 0) == 1
        assert root_of_unity(8, 0).as_rational() == 1

    def test_power_four_is_minus_one(self):
        # Phi_8 = x^4 + 1 forces zeta^4 = -1
        assert root_of_unity(8, 4) == -CyclotomicNumber.from_rational(1)
        assert root_of_unity(8, 4).as_rational() == -1

    def test_inverse_pair(self):
        assert root_of_unity(8, 2) * root_of_unity(8, 6) == 1

    def test_exponent_reduced_mod_n(self):
        assert root_of_unity(8, 9) == root_of_unity(8, 1)
        assert root_of_unity(8, -1) == root_of_unity(8, 7)


class TestArithmetic:
    def test_inverse_law(self):
        z = root_of_unity(8, 1)
        assert (1 - z) * (1 - z).inverse() == 1
        assert (1 - z) / (1 - z) == 1

    def test_product_of_odd_factors_is_phi8_at_one(self):
        # oracle: Phi_8(1) by direct evaluation of the stored coefficients
        phi8_at_one = sum(cyclotomic_polynomial(8))
        assert phi8_at_one == 2
        product = CyclotomicNumber.from_rational(1, 8)
        for k in (1, 3, 5, 7):
            product = product * (1 - root_of_unity(8, k))
        assert product.as_rational() == phi8_at_one

    def test_one_minus_i_squared(self):
        # direct expansion: (1-i)^2 = 1 - 2i + i^2 = -2i
        i = root_of_unity(4, 1)
        sq = (1 - i) ** 2
        assert sq == -2 * i
        # embedded into Q(zeta_8) it is -2 zeta_8^2
        assert sq.embed(8).coeffs == (rat(0), rat(0), rat(-2), rat(0))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicNumber.from_rational(0, 8).inverse()

    def test_mixed_order_promotion(self):
        # zeta_4 and zeta_8 combine inside Q(zeta_8)
        assert root_of_unity(4, 1) == root_of_unity(8, 2)
        total = root_of_unity(4, 1) + root_of_unity(8, 6)
        assert total.as_rational() == 0

    def test_power_of_two_cyclotomic_shortcut(self):
        # Phi_(2^k) = x^(2^(k-1)) + 1; generic recursion must agree
        for k in range(1, 7):
            n = 2 ** k
            expected = [rat(0)] * (n // 2 + 1)
            expected[0] = rat(1)
            expected[-1] = rat(1)
            assert list(cyclotomic_polynomial(n)) == expected


class TestConjugation:
    def test_generator(self):
        assert root_of_unity(8, 1).conjugate() == root_of_unity(8, 7)

    def test_rational_fixed(self):
        r = CyclotomicNumber.from_rational(rat(3, 2), 8)
        assert r.conjugate() == r

    def test_real_element_fixed(self):
        real = root_of_unity(8, 1) + root_of_unity(8, 7)
        assert real.conjugate() == real


class TestKeys:
    def test_equal_values_of_mixed_order_share_a_key(self):
        i = root_of_unity(4, 1)
        assert (root_of_unity(8, 2).key_at(8) == i.key_at(8)
                == (i * CyclotomicNumber.from_rational(1, 8)).key_at(8))
        half = CyclotomicNumber.from_rational(rat(1, 2))
        assert half.key_at(8) == (root_of_unity(8, 1) * root_of_unity(8, 7) / 2).key_at(8)

    def test_distinct_values_have_distinct_keys(self):
        keys = {root_of_unity(8, k).key_at(8) for k in range(8)}
        keys.add(CyclotomicNumber.from_rational(rat(1, 2)).key_at(8))
        assert len(keys) == 9


class TestRationality:
    def test_cancelling_imaginary_parts(self):
        assert (root_of_unity(8, 2) + root_of_unity(8, 6)).as_rational() == 0

    def test_constant(self):
        assert CyclotomicNumber.from_rational(rat(3, 2), 8).as_rational() == rat(3, 2)

    def test_not_rational(self):
        assert root_of_unity(8, 1).as_rational() is None


class TestFloatEvaluation:
    def test_one(self):
        assert root_of_unity(1, 0).to_complex() == pytest.approx(1.0)

    def test_i(self):
        z = root_of_unity(4, 1).to_complex()
        assert z == pytest.approx(1j)

    def test_zeta8_against_library_exponential(self):
        assert root_of_unity(8, 1).to_complex() == pytest.approx(
            cmath.exp(2j * cmath.pi / 8))


class TestSerialization:
    def test_format(self):
        value = CyclotomicNumber(8, [rat(1, 2), 0, rat(-3, 4), 0])
        assert str(value) == "1/2*z^0 + -3/4*z^2 @ n=8"

    def test_round_trip(self):
        value = CyclotomicNumber(8, [rat(1, 2), 0, rat(-3, 4), 0])
        assert parse_cyclotomic(str(value)) == value

    def test_zero(self):
        zero = CyclotomicNumber.from_rational(0, 8)
        assert str(zero) == "0 @ n=8"
        assert parse_cyclotomic(str(zero)) == zero


small_rational = st.fractions(
    min_value=-8, max_value=8, max_denominator=16)


def cyclotomic(order):
    return st.builds(lambda cs: CyclotomicNumber(order, cs),
                     st.lists(small_rational, min_size=euler_phi(order),
                              max_size=euler_phi(order)))


@settings(max_examples=60, deadline=None)
@given(a=cyclotomic(8), b=cyclotomic(8))
def test_division_undoes_multiplication(a, b):
    if not b.is_zero():
        assert (a * b) / b == a


@settings(max_examples=60, deadline=None)
@given(a=cyclotomic(12), b=cyclotomic(12))
def test_conjugation_is_ring_homomorphism(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=60, deadline=None)
@given(a=cyclotomic(8), b=cyclotomic(8))
def test_float_respects_arithmetic(a, b):
    assert abs((a * b).to_complex() - a.to_complex() * b.to_complex()) < 1e-9
    assert abs((a + b).to_complex() - (a.to_complex() + b.to_complex())) < 1e-9


@settings(max_examples=40, deadline=None)
@given(a=cyclotomic(8))
def test_serialization_round_trip(a):
    assert parse_cyclotomic(str(a)) == a


# -- differential test against the Fraction-coefficient kernel ---------------
#
# A test-only copy of the kernel that stored one Fraction per coefficient:
# multiply, then long-divide by Phi_n; invert by the extended Euclidean
# algorithm over Q[x].  The integer kernel must agree with it exactly.

def _ref_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _ref_trim(out)


def _ref_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _ref_trim(out)


def _ref_divmod(num, den):
    num = list(num)
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    while len(num) >= len(den):
        shift = len(num) - len(den)
        factor = num[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        _ref_trim(num)
    return _ref_trim(quot), num


@lru_cache(maxsize=None)
def _ref_phi_poly(n):
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _ref_divmod(num, _ref_phi_poly(d))
            assert not rem
    return tuple(num)


def _ref_from_poly(n, poly):
    _, rem = _ref_divmod(_ref_trim(list(poly)), _ref_phi_poly(n))
    return tuple(rem + [Fraction(0)] * (euler_phi(n) - len(rem)))


def _ref_embed(n, a, m):
    step = m // n
    poly = [Fraction(0)] * ((len(a) - 1) * step + 1)
    for k, c in enumerate(a):
        poly[k * step] += c
    return _ref_from_poly(m, poly)


def _ref_inverse(n, a):
    r0, r1 = list(_ref_phi_poly(n)), _ref_trim(list(a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _ref_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_sub(s0, _ref_mul(q, s1))
    assert len(r0) == 1
    return _ref_from_poly(n, [c / r0[0] for c in s0])


def _ref_galois(n, a, k):
    poly = [Fraction(0)] * n
    for j, c in enumerate(a):
        poly[(j * k) % n] += c
    return _ref_from_poly(n, poly)


def _ref_str(n, a):
    terms = [f"{c}*z^{k}" for k, c in enumerate(a) if c != 0]
    return f"{' + '.join(terms) if terms else '0'} @ n={n}"


DIFF_ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20, 24, 32, 64)


@st.composite
def operand_pair(draw):
    """(n, a, d, b): a in Q(zeta_n), b in Q(zeta_d) with d | n, as Fraction
    tuples; coefficients are sparse so high orders stay cheap."""
    n = draw(st.sampled_from(DIFF_ORDERS))
    d = draw(st.sampled_from([d for d in DIFF_ORDERS if n % d == 0]))

    def element(order):
        phi = euler_phi(order)
        return tuple(draw(st.lists(st.one_of(st.just(Fraction(0)), small_rational),
                                   min_size=phi, max_size=phi)))
    return n, element(n), d, element(d)


@settings(max_examples=120, deadline=None)
@given(operands=operand_pair(), data=st.data())
def test_matches_fraction_kernel(operands, data):
    n, a, d, b = operands
    x, y = CyclotomicNumber(n, a), CyclotomicNumber(d, b)
    b_n = _ref_embed(d, b, n)
    assert x.coeffs == a and y.coeffs == b
    assert str(x) == _ref_str(n, a)
    assert y.embed(n).coeffs == b_n
    expected = {
        "+": tuple(p + q for p, q in zip(a, b_n)),
        "-": tuple(p - q for p, q in zip(a, b_n)),
        "*": _ref_from_poly(n, _ref_mul(list(a), list(b_n))),
    }
    got = {"+": x + y, "-": x - y, "*": x * y}
    if any(b):
        expected["/"] = _ref_from_poly(
            n, _ref_mul(list(a), list(_ref_inverse(n, b_n))))
        got["/"] = x / y
    for op, want in expected.items():
        assert got[op].coeffs == want, op
        # the normal form is unique: equal values have equal representations
        assert got[op] == CyclotomicNumber(n, want), op
        assert str(got[op]) == _ref_str(n, want), op
    if any(a):
        inv = x.inverse()
        assert inv.coeffs == _ref_inverse(n, a)
        assert x * inv == 1
    k = data.draw(st.sampled_from([k for k in range(1, n + 1) if math.gcd(k, n) == 1]))
    assert x.galois(k).coeffs == _ref_galois(n, a, k)


def test_cyclotomic_polynomial_matches_fraction_division():
    for n in range(1, 65):
        assert cyclotomic_polynomial(n) == _ref_phi_poly(n), n


def test_reduce_matches_long_division():
    # the fold by x^n = 1 before the division by Phi_n keeps the remainder,
    # also for polynomials past degree 2n that fold more than once
    rng = random.Random(26)
    for n in range(1, 65):
        phi = euler_phi(n)
        for size in [rng.randint(1, 2 * phi) for _ in range(8)] + [2 * phi, 3 * n + 1]:
            poly = [rng.randint(-50, 50) for _ in range(size)]
            want = _ref_from_poly(n, [Fraction(c) for c in poly])
            assert exactnum._reduce(list(poly), n) == want, (n, poly)


def test_cyclotomic_polynomial_checks_the_remainder(monkeypatch):
    # dividing by a wrong Phi_d (here x - 2) must leave a remainder
    monkeypatch.setattr(exactnum, "_field", lambda d: (1, ((0, -2),)))
    with pytest.raises(InvariantError):
        cyclotomic_polynomial.__wrapped__(6)


@pytest.mark.parametrize("n,k", [(12, 5), (9, 1), (15, 2)], ids=["order-12", "order-9", "order-15"])
def test_inverse_checks_the_norm(monkeypatch, n, k):
    # with a broken Galois action the norm leaves its subfield
    x = 1 - root_of_unity(n, k)
    monkeypatch.setattr(CyclotomicNumber, "galois", lambda self, j: self)
    with pytest.raises(InvariantError):
        x.inverse()


# odd, twice odd, prime and 2-power orders and multiples of 4 all take the
# one path: the other Galois conjugates over the rational norm
@pytest.mark.parametrize("n", [9, 12, 15, 20, 24, 30, 31, 64])
def test_inverse_of_roots_and_differences(n):
    # 1 - zeta^k is a unit or a prime power element; both must invert exactly
    for k in range(1, n):
        x = 1 - root_of_unity(n, k)
        assert x * x.inverse() == 1
        assert x.inverse().coeffs == _ref_inverse(n, x.coeffs)


def test_inverse_one_minus_root_matches_the_fraction_inverse():
    # the geometric-sum closed form against the extended Euclidean reference
    for n in range(2, 65):
        for e in range(1, n):
            x = 1 - root_of_unity(n, e)
            assert inverse_one_minus_root(n, e).coeffs == _ref_inverse(n, x.coeffs), (n, e)


def test_inverse_one_minus_root_reduces_e_and_rejects_zero():
    assert inverse_one_minus_root(8, 9) == inverse_one_minus_root(8, 1)
    for n, e in ((8, 0), (8, 16), (1, 5)):
        with pytest.raises(ZeroDivisionError):
            inverse_one_minus_root(n, e)
    with pytest.raises(ValueError):
        inverse_one_minus_root(0, 1)


def test_root_of_unity_is_cached_per_residue():
    assert root_of_unity(16, 17) is root_of_unity(16, 1)
    assert root_of_unity(16, -1) is root_of_unity(16, 15)


HERMITIAN_ORDERS = (1, 2, 3, 4, 5, 8, 12, 16)


@st.composite
def hermitian_terms(draw):
    """(weights, xs, ys, divisor): values of mixed orders with sparse
    coefficients over non-unit denominators, some weights zero."""
    def value():
        order = draw(st.sampled_from(HERMITIAN_ORDERS))
        phi = euler_phi(order)
        return CyclotomicNumber(order, draw(st.lists(
            st.one_of(st.just(Fraction(0)), small_rational), min_size=phi, max_size=phi)))
    size = draw(st.integers(min_value=0, max_value=6))
    weights = draw(st.lists(st.integers(min_value=-4, max_value=4),
                            min_size=size, max_size=size))
    xs = [value() for _ in range(size)]
    ys = [value() for _ in range(size)]
    return weights, xs, ys, draw(st.integers(min_value=1, max_value=24))


@settings(max_examples=100, deadline=None)
@given(case=hermitian_terms())
def test_hermitian_sum_matches_the_per_term_oracle(case):
    got, want = hermitian_sum(*case), hermitian_sum_per_term(*case)
    assert got == want
    assert got.order == want.order


def test_hermitian_sum_coerces_rationals_and_checks_the_divisor():
    i = root_of_unity(4, 1)
    assert hermitian_sum([1, 2], [i, rat(1, 2)], [i, 3], 2) == rat(1, 2) + rat(3, 2)
    assert hermitian_sum([], [], [], 1) == 0
    with pytest.raises(ValueError):
        hermitian_sum([1], [i], [i], 0)


@pytest.mark.parametrize("exponent,products", [(0, 0), (1, 0), (2, 1), (5, 3), (8, 3)])
def test_power_multiplies_once_per_bit(monkeypatch, exponent, products):
    # square-and-multiply: one squaring per bit below the top one, one
    # product per further set bit, and nothing after the top bit
    x = 1 - root_of_unity(12, 1)
    want = CyclotomicNumber.from_rational(1, 12)
    for _ in range(exponent):
        want = want * x
    calls = []
    mul = CyclotomicNumber.__mul__

    def counted(a, b):
        calls.append(b)
        return mul(a, b)
    monkeypatch.setattr(CyclotomicNumber, "__mul__", counted)
    assert x ** exponent == want
    assert len(calls) == products


@st.composite
def monomial_and_dense(draw, order):
    """(m, x, d): m = c z^s with one nonzero power-basis coefficient, x any
    element, d with at least two nonzero coefficients, all in Q(zeta_order)."""
    phi = euler_phi(order)
    s = draw(st.integers(0, phi - 1))
    c = draw(small_rational.filter(bool))
    m = CyclotomicNumber(order, [c if j == s else 0 for j in range(phi)])
    x = CyclotomicNumber(order, draw(st.lists(st.one_of(st.just(Fraction(0)), small_rational),
                                              min_size=phi, max_size=phi)))
    picks = draw(st.lists(st.integers(0, phi - 1), min_size=2, max_size=6, unique=True))
    d = CyclotomicNumber(order, [Fraction(j + 1, 3) if j in picks else 0 for j in range(phi)])
    return m, x, d


@pytest.mark.parametrize("order", [61, 64])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_monomial_product_matches_the_convolution(order, data):
    # x * m takes the shift path; x * (m + d) and x * d convolve
    m, x, d = data.draw(monomial_and_dense(order))
    want = x * (m + d) - x * d
    assert x * m == want and m * x == want
    assert (x * m).coeffs == _ref_from_poly(order, _ref_mul(list(x.coeffs), list(m.coeffs)))
    root = root_of_unity(order, data.draw(st.integers(0, order - 1)))
    assert m * root == m * (root + d) - m * d
