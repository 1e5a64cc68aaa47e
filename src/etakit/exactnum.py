"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are kept in the power basis 1, z, ..., z^(phi(n)-1) of
Q[z]/Phi_n(z), with Fraction coefficients.  Normal forms are unique, so
equality, rationality tests and serialization are all exact.  Everything
is immutable and safe to share between threads.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Union

_CoeffLike = Union[int, Fraction]


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


def _poly_trim(coeffs: list[Fraction]) -> list[Fraction]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def _poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    num = list(num)
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    lead = den[-1]
    while len(num) >= len(den):
        shift = len(num) - len(den)
        factor = num[-1] / lead
        quot[shift] = factor
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        _poly_trim(num)
    return _poly_trim(quot), num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_n, constant term first, computed by dividing
    x^n - 1 by Phi_d for every proper divisor d of n."""
    if n < 1:
        raise ValueError("cyclotomic_polynomial requires n >= 1")
    if n == 1:
        return (Fraction(-1), Fraction(1))
    num = [Fraction(0)] * (n + 1)
    num[0] = Fraction(-1)
    num[n] = Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod(num, list(cyclotomic_polynomial(d)))
            assert not rem, "x^n - 1 must be divisible by Phi_d"
    return tuple(num)


class CyclotomicNumber:
    """An element of Q(zeta_n) in normal form mod Phi_n.

    `coeffs` always has length phi(n); two values of the same order are
    equal iff their coefficient tuples are identical.  Mixed-order
    arithmetic embeds both operands into Q(zeta_lcm) first.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[_CoeffLike]):
        if order < 1:
            raise ValueError("order must be >= 1")
        phi = euler_phi(order)
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != phi:
            raise ValueError(f"expected {phi} coefficients for order {order}, got {len(cs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *args):
        raise AttributeError("CyclotomicNumber is immutable")

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_rational(value: _CoeffLike, order: int = 1) -> "CyclotomicNumber":
        phi = euler_phi(order)
        coeffs = [Fraction(value)] + [Fraction(0)] * (phi - 1)
        return CyclotomicNumber(order, coeffs)

    @staticmethod
    def _from_poly(order: int, poly: list[Fraction]) -> "CyclotomicNumber":
        phi_n = list(cyclotomic_polynomial(order))
        _, rem = _poly_divmod(_poly_trim(list(poly)), phi_n)
        phi = euler_phi(order)
        rem = rem + [Fraction(0)] * (phi - len(rem))
        return CyclotomicNumber(order, rem)

    # -- ring/field structure -------------------------------------------

    def _promote(self, other) -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, self.order)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented, NotImplemented
        if self.order == other.order:
            return self, other
        m = math.lcm(self.order, other.order)
        return self.embed(m), other.embed(m)

    def embed(self, order: int) -> "CyclotomicNumber":
        """Re-express in Q(zeta_order); requires self.order | order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into {order}")
        step = order // self.order
        poly = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for k, c in enumerate(self.coeffs):
            poly[k * step] += c
        return CyclotomicNumber._from_poly(order, poly)

    def __add__(self, other):
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        return CyclotomicNumber._from_poly(a.order, _poly_mul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Inverse mod Phi_n via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_n)")
        phi_n = list(cyclotomic_polynomial(self.order))
        # xgcd over Q[x]: s*self + t*Phi_n = gcd, a nonzero constant since
        # Phi_n is irreducible over Q.
        r0, r1 = phi_n, _poly_trim(list(self.coeffs))
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert len(r0) == 1, "element not invertible mod Phi_n"
        inv = [c / r0[0] for c in s0]
        return CyclotomicNumber._from_poly(self.order, inv)

    def __truediv__(self, other):
        a, b = self._promote(other)
        if a is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicNumber.from_rational(1, self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, 1)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._promote(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # mixed-order equality makes a consistent hash awkward

    # -- structure maps --------------------------------------------------

    def galois(self, k: int) -> "CyclotomicNumber":
        """Apply zeta -> zeta^k; requires gcd(k, order) = 1."""
        n = self.order
        if math.gcd(k, n) != 1:
            raise ValueError("galois exponent must be coprime to the order")
        poly = [Fraction(0)] * n
        for j, c in enumerate(self.coeffs):
            poly[(j * k) % n] += c
        return CyclotomicNumber._from_poly(n, poly)

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation zeta -> zeta^(-1)."""
        return self.galois(self.order - 1) if self.order > 1 else self

    # -- predicates and conversions --------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_rational(self) -> Optional[Fraction]:
        """The constant coefficient if all other coefficients vanish, else None."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

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


def root_of_unity(n: int, k: int) -> CyclotomicNumber:
    """zeta_n^k in normal form; k is reduced mod n."""
    if n < 1:
        raise ValueError("root order must be >= 1")
    k %= n
    poly = [Fraction(0)] * (k + 1)
    poly[k] = Fraction(1)
    return CyclotomicNumber._from_poly(n, poly)


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
