"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is kept in the power basis 1, z, ..., z^(phi(n)-1) of
Q[z]/Phi_n(z) as a tuple of integer numerators over one positive common
denominator, with gcd(den, *num) = 1.  That normal form is unique, so
equality, rationality tests and serialization are all exact.

A product is an integer convolution, or a shift when a factor is a
monomial c z^s, then one reduction: a fold by x^n = 1, as Phi_n divides
x^n - 1, and a division by the monic integer Phi_n of the at most
n - phi(n) coefficients left above degree phi(n), each walking the
nonzero low terms of Phi_n; for n = 2^k that is the single term of
x^(n/2) + 1 (negacyclic folding).
The product of the other Galois conjugates of x is N(x)/x for the
rational norm N(x), and dividing it by N(x) gives the inverse.  The
eigenvalue factors (1 - zeta_n^e)^-1 of the Donnelly sum need no inverse:
the geometric-sum identity writes each as an integer polynomial over n.  A
weighted Hermitian sum sum w*x*conj(y), the character inner product,
needs no field product either: `hermitian_sum` lifts every value into
Z[x]/(x^N - 1) for the lcm N of the orders, where conjugation negates
exponents, and reduces the integer sum by Phi_N once; an integer
combination sum w*x, the value of a virtual character at a class, is
lifted and reduced the same way by `integer_combination`.  Phi_n itself
comes from exact integer division of x^n - 1 by the monic Phi_d of the
proper divisors d of n, so `Fraction` appears only where values enter
or leave the module.  Everything is immutable and safe to share between
threads.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

_CoeffLike = Union[int, Fraction]
_ValueLike = Union[int, Fraction, "CyclotomicNumber"]


class InvariantError(ArithmeticError):
    """An invariant of exact cyclotomic arithmetic failed to hold."""


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


# -- the integer kernel ------------------------------------------------------


def _divide(poly: list[int], deg: int, tail: tuple[tuple[int, int], ...]) -> None:
    """Divide an integer polynomial (constant term first), in place, by the
    monic x^deg + sum c_i x^i given by its nonzero (i, c_i), i < deg: the
    remainder is left in poly[:deg] and the quotient in poly[deg:]."""
    for k in range(len(poly) - 1, deg - 1, -1):
        t = poly[k]
        if t:
            base = k - deg
            for i, c in tail:
                poly[base + i] -= c * t


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first: x^n - 1 divided
    exactly by the monic Phi_d of every proper divisor d of n."""
    if n < 1:
        raise ValueError("cyclotomic_polynomial requires n >= 1")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            deg, tail = _field(d)
            _divide(poly, deg, tail)
            if any(poly[:deg]):
                raise InvariantError(f"x^{n} - 1 is not divisible by Phi_{d}")
            del poly[:deg]
    return tuple(poly)


@lru_cache(maxsize=None)
def _field(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n) and the nonzero (i, c_i), i < phi(n), of the monic Phi_n."""
    phi_n = cyclotomic_polynomial(n)
    return len(phi_n) - 1, tuple((i, c) for i, c in enumerate(phi_n[:-1]) if c)


def _reduce(poly: list[int], n: int) -> tuple[int, ...]:
    """Integer polynomial (constant term first) mod Phi_n, as phi(n) ints.
    Phi_n divides x^n - 1, so x^(n+i) folds onto x^i first, and at most
    n - phi(n) top coefficients are left to divide out: one at prime n."""
    phi, tail = _field(n)
    for start in range(n, len(poly), n):
        top = poly[start:start + n]
        poly[:len(top)] = map(operator.add, poly, top)
    del poly[n:]
    _divide(poly, phi, tail)
    if len(poly) < phi:
        poly += [0] * (phi - len(poly))
    return tuple(poly[:phi])


def _make(order: int, num: tuple[int, ...], den: int) -> "CyclotomicNumber":
    """Wrap parts that are already in normal form."""
    x = object.__new__(CyclotomicNumber)
    x._n = order
    x._num = num
    x._den = den
    return x


def _normal(order: int, num: list[int], den: int) -> "CyclotomicNumber":
    """Wrap phi(order) integer numerators over a positive denominator,
    dividing out their common content."""
    g = math.gcd(den, *num)
    if g != 1:
        den //= g
        num = [c // g for c in num]
    return _make(order, tuple(num), den)


class CyclotomicNumber:
    """An element of Q(zeta_n) in normal form mod Phi_n.

    `coeffs` always has length phi(n); two values of the same order are
    equal iff their coefficient tuples are identical.  Mixed-order
    arithmetic embeds both operands into Q(zeta_lcm) first.
    """

    __slots__ = ("_n", "_num", "_den")

    def __init__(self, order: int, coeffs: Iterable[_CoeffLike]):
        if order < 1:
            raise ValueError("order must be >= 1")
        phi = _field(order)[0]
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != phi:
            raise ValueError(f"expected {phi} coefficients for order {order}, got {len(cs)}")
        # over the lcm of reduced denominators the numerators are coprime to it
        den = math.lcm(*(c.denominator for c in cs))
        self._n = order
        self._num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den

    @property
    def order(self) -> int:
        return self._n

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_rational(value: _CoeffLike, order: int = 1) -> "CyclotomicNumber":
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        num = (value.numerator,) + (0,) * (_field(order)[0] - 1)
        return _make(order, num, value.denominator)

    # -- ring/field structure -------------------------------------------

    def _promote(self, other) -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, self._n)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented, NotImplemented
        if self._n == other._n:
            return self, other
        m = math.lcm(self._n, other._n)
        return self.embed(m), other.embed(m)

    def embed(self, order: int) -> "CyclotomicNumber":
        """Re-express in Q(zeta_order); requires self.order | order."""
        n = self._n
        if order == n:
            return self
        if order % n != 0:
            raise ValueError(f"cannot embed order {n} into {order}")
        step = order // n
        num = self._num
        poly = [0] * ((len(num) - 1) * step + 1)
        poly[::step] = num
        # the power basis spans the ring of integers Z[zeta] in both fields,
        # so the content of the numerators, and with it the normal form of
        # the denominator, is unchanged
        return _make(order, _reduce(poly, order), self._den)

    def __add__(self, other):
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        da, db = a._den, b._den
        if da == db:
            return _normal(a._n, [x + y for x, y in zip(a._num, b._num)], da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return _normal(a._n, [x * ma + y * mb for x, y in zip(a._num, b._num)], da * ma)

    __radd__ = __add__

    def __neg__(self):
        return _make(self._n, tuple([-c for c in self._num]), self._den)

    def __sub__(self, other):
        if isinstance(other, (CyclotomicNumber, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _normal(self._n, [c * other.numerator for c in self._num],
                           self._den * other.denominator)
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        x, y = a._num, b._num
        if len(x) - x.count(0) == 1:
            x, y = y, x
        if len(y) - y.count(0) == 1:  # d z^s: x shifted by s, reduced once
            s = y.index(next(filter(None, y)))
            return _normal(a._n, _reduce([0] * s + [y[s] * c for c in x], a._n),
                           a._den * b._den)
        out = [0] * (2 * len(x) - 1)
        for i, c in enumerate(x):
            if c:
                for j, d in enumerate(y, i):
                    out[j] += c * d
        return _normal(a._n, _reduce(out, a._n), a._den * b._den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """The product of the other Galois conjugates, N(x)/x, over the
        rational norm N(x)."""
        num, den, n = self._num, self._den, self._n
        if not any(num):
            raise ZeroDivisionError("division by zero in Q(zeta_n)")
        if not any(num[1:]):
            p = num[0]
            return _make(n, (den if p > 0 else -den,) + num[1:], abs(p))
        rest = math.prod(self.galois(k) for k in range(2, n) if math.gcd(k, n) == 1)
        norm = self * rest
        if any(norm._num[1:]):
            raise InvariantError("the Galois norm is not rational")
        return rest * norm.inverse()

    def __truediv__(self, other):
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        """Square-and-multiply over the bits of the exponent: x ** e costs
        one squaring per bit below the top one and one product per further
        set bit, so x ** 1 costs none and x ** 5 three."""
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return CyclotomicNumber.from_rational(1, self._n)
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    def __eq__(self, other):
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        return a._den == b._den and a._num == b._num

    __hash__ = None  # mixed-order equality makes a consistent hash awkward

    def key_at(self, order: int) -> tuple[int, tuple[int, ...]]:
        """A hashable key of the value in Q(zeta_order), for self.order |
        order: at one order, two values are equal iff their keys are."""
        x = self.embed(order)
        return x._den, x._num

    # -- structure maps --------------------------------------------------

    def galois(self, k: int) -> "CyclotomicNumber":
        """Apply zeta -> zeta^k; requires gcd(k, order) = 1."""
        n = self._n
        if math.gcd(k, n) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        poly = [0] * n
        for j, c in enumerate(self._num):
            poly[(j * k) % n] = c
        # a field automorphism maps Z[zeta] onto itself, so it keeps the
        # content of the numerators and the denominator stays normal
        return _make(n, _reduce(poly, n), self._den)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation zeta -> zeta^(-1)."""
        return self.galois(self._n - 1) if self._n > 1 else self

    # -- predicates and conversions --------------------------------------

    def is_zero(self) -> bool:
        return not any(self._num)

    def as_rational(self) -> Optional[Fraction]:
        """The constant coefficient if all other coefficients vanish, else None."""
        if any(self._num[1:]):
            return None
        return Fraction(self._num[0], self._den)

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        return sum((complex(c) * z ** k for k, c in enumerate(self.coeffs)), 0j)

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        terms = [f"{c}*z^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        body = " + ".join(terms) if terms else "0"
        return f"{body} @ n={self.order}"

    def __repr__(self) -> str:
        return f"CyclotomicNumber({self.order}, {[str(c) for c in self.coeffs]})"


@lru_cache(maxsize=None)
def _root(n: int, k: int) -> CyclotomicNumber:
    poly = [0] * (k + 1)
    poly[k] = 1
    return _make(n, _reduce(poly, n), 1)


def root_of_unity(n: int, k: int) -> CyclotomicNumber:
    """zeta_n^k in normal form; k is reduced mod n.  Values are cached per
    (n, k mod n)."""
    if n < 1:
        raise ValueError("root order must be >= 1")
    return _root(n, k % n)


@lru_cache(maxsize=None)
def inverse_one_minus_root(n: int, e: int) -> CyclotomicNumber:
    """(1 - zeta_n^e)^-1 for n not dividing e, cached per (n, e).  For
    y = zeta_n^e != 1, (1 - y) sum_{j<n} j y^j = sum_{0<j<n} y^j - (n-1) y^n
    = -n, so the inverse is -(1/n) sum_j j y^j: no field division."""
    if n < 1:
        raise ValueError("root order must be >= 1")
    if e % n == 0:
        raise ZeroDivisionError(f"1 - zeta_{n}^{e} is zero")
    poly = [0] * n
    for j in range(1, n):
        poly[e * j % n] -= j
    return _normal(n, list(_reduce(poly, n)), n)


def hermitian_sum(weights: Iterable[int], xs: Iterable[_ValueLike],
                  ys: Iterable[_ValueLike], divisor: int = 1) -> CyclotomicNumber:
    """sum_i w_i * x_i * conj(y_i) / divisor, for integer weights and a
    positive integer divisor, with one reduction.  Each value of order n is
    lifted into Z[x]/(x^N - 1), N the lcm of the orders: its power-basis
    exponent j goes to j*N/n, and to -j*N/n under conjugation.  The terms
    are summed as one integer polynomial over a common denominator, which
    is then reduced by Phi_N once."""
    if divisor < 1:
        raise ValueError("hermitian_sum requires a positive divisor")
    terms = [(w, _cyc(x), _cyc(y)) for w, x, y in zip(weights, xs, ys)]
    n = math.lcm(1, *(x._n for _, x, _ in terms), *(y._n for _, _, y in terms))
    den = math.lcm(1, *(x._den * y._den for w, x, y in terms if w))
    acc = [0] * n
    for w, x, y in terms:
        if not w:
            continue
        scale = w * (den // (x._den * y._den))
        sx, sy = n // x._n, n // y._n
        conj = [(-j * sy, c) for j, c in enumerate(y._num) if c]
        for i, a in enumerate(x._num):
            if a:
                a *= scale
                base = i * sx
                for e, c in conj:
                    acc[(base + e) % n] += a * c
    return _normal(n, list(_reduce(acc, n)), den * divisor)


def integer_combination(weights: Iterable[int],
                        values: Iterable[CyclotomicNumber]) -> CyclotomicNumber:
    """sum_i w_i * v_i for integer weights, with one reduction.  The values
    of nonzero weight are lifted into Z[x] at N, the lcm of their orders
    (power-basis exponent j at order n goes to j*N/n), over their common
    denominator; the integer sum is reduced by Phi_N once and normalized
    once.  The result has order N, 1 when no weight is nonzero."""
    terms = [(w, v) for w, v in zip(weights, values) if w]
    n = math.lcm(1, *(v._n for _, v in terms))
    den = math.lcm(1, *(v._den for _, v in terms))
    acc = [0] * n
    for w, v in terms:
        scale = w * (den // v._den)
        step = n // v._n
        for j, c in enumerate(v._num):
            if c:
                acc[j * step] += scale * c
    return _normal(n, list(_reduce(acc, n)), den)


def _cyc(value: _ValueLike) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        return value
    return CyclotomicNumber.from_rational(value)


def parse_cyclotomic(text: str) -> CyclotomicNumber:
    """Parse the serialization format `c*z^k + ... @ n=N`."""
    text = text.strip()
    if "@" not in text:
        raise ValueError("missing '@ n=...' order marker")
    body, _, tail = text.partition("@")
    tail = tail.strip()
    if not tail.startswith("n="):
        raise ValueError("order marker must look like 'n=8'")
    order = int(tail[2:])
    phi = euler_phi(order)
    coeffs = [Fraction(0)] * phi
    body = body.strip()
    if body not in ("", "0"):
        for term in body.split("+"):
            term = term.strip()
            if "*z^" in term:
                c_text, _, k_text = term.partition("*z^")
                k = int(k_text)
            else:
                c_text, k = term, 0
            if k >= phi:
                raise ValueError(f"exponent {k} outside the power basis (phi={phi})")
            coeffs[k] += Fraction(c_text)
    return CyclotomicNumber(order, coeffs)
