"""Exact eta invariants of spherical space forms and lens-space bundles.

Two exact engines evaluate `eta_of`, and both read the character's
coefficients in the builtin basis of the manifold's group through
`grouprep.builtin_coefficients`: no class value.  A lens space or
lens-space bundle over S^2 goes to `_lens_sum`, an integer computation in
Z[x]/(x^l - 1) on packed ints: each weight contributes the polynomial with
coefficient i at e*i mod l, since 1/(1 - y) = -(1/l) sum_i i y^i at every
l-th root of unity y != 1 (Zagier, Higher dimensional Dedekind sums,
Math. Ann. 202, 1973); the rotation x^h of the determinant square root
moves the read-out rather than entering the product.  A quotient
S^(4k+3)/Q8 goes to `_quaternion_sum`, one integer combination of closed
forms: with m = k + 1, each class factor det_sqrt/det(1 - tau) is 4^-m at
[-1] and 2^-m at [i], [j] and [k] (Gilkey, The Geometry of Spherical Space
Form Groups), so no representation is built.

The Donnelly sum over the non-identity classes of a fixed-point-free
representation, in Q(zeta_n), is the engine of `eta_donnelly` and the
exact oracle of both, sharing none of their arithmetic.  It is summed class
by class and makes no field division: each eigenvalue factor
(1 - zeta_n^e)^-1 is the closed form `exactnum.inverse_one_minus_root`,
taken once per distinct exponent and raised to its multiplicity.

A character may have nonzero dimension, since a difference of manifolds
is the difference of their values.  A total that is not rational raises
`NonRationalSumError`; values reduce to orders in R/Z or R/2Z.
`eta_donnelly_float` and the weight-tuple formula behind `eta_of_float`
are the double-precision mirrors; a value they cannot hold raises
`FloatRangeError`.  Bordism never appears: a manifold is just the
parameter data of its defining free action, and multiplying by the
8-dimensional Bott manifold is a dimension shift that keeps the value.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .exactnum import CyclotomicNumber, inverse_one_minus_root
from .grouprep import (QUATERNION_K_CAP, FiniteGroup, FreeUnitaryRep, InclusionMap,
                       VirtualCharacter, builtin_coefficients, builtin_group,
                       character_table, free_action_data, is_quaternion_type,
                       is_real_type, quaternion_free_rep)


class NonRationalSumError(ArithmeticError):
    pass


class FloatRangeError(ArithmeticError):
    pass


class Modulus(enum.Enum):
    Z = "Z"
    TWO_Z = "2Z"

    def __str__(self) -> str:
        return self.value


def eta_order(value: Fraction, modulus: Modulus) -> int:
    """Least m >= 1 with m*value in Z (resp. 2Z)."""
    value = Fraction(value)
    if modulus is Modulus.Z:
        return value.denominator
    q2 = 2 * value.denominator
    return q2 // math.gcd(value.numerator, q2)


class EtaValue(NamedTuple):
    value: Fraction
    modulus: Modulus = Modulus.Z

    @property
    def order(self) -> int:
        return eta_order(self.value, self.modulus)

    def __str__(self) -> str:
        return f"{self.value} (order {self.order} mod {self.modulus})"


class LensSpec(namedtuple("LensSpec", "l a kind chern")):
    """Defining data of a lens space S^(4i-1)/C_l (kind "sphere") or of a
    lens-space bundle over S^2 (kind "bundle", dimension 4i+1).

    `a` lists the odd rotation weights; for bundles, `chern[j]` is the
    first Chern number of the j-th line-bundle summand (the standard
    construction has chern = (2, 0, ..., 0))."""

    __slots__ = ()

    def __new__(cls, l: int, a: Sequence[int], kind: str = "sphere",
                chern: Optional[Sequence[int]] = None):
        a = tuple(int(x) for x in a)
        if kind not in ("sphere", "bundle"):
            raise ValueError("kind must be 'sphere' or 'bundle'")
        bundle = kind == "bundle"
        if bundle and chern is None:
            chern = (2,) + (0,) * (len(a) - 1)
        # weight errors come before chern errors
        _, checked = free_action_data(l, a, chern if bundle else None)
        if bundle:
            chern = checked
        elif chern is not None:
            raise ValueError("sphere-kind lens spaces carry no chern data")
        return super().__new__(cls, l, a, kind, chern)

    @property
    def dimension(self) -> int:
        base = 2 * len(self.a) - 1
        return base if self.kind == "sphere" else base + 2


class ManifoldSpec(namedtuple("ManifoldSpec", "lens quaternion_k inclusion bott_power")):
    """A manifold the engine can evaluate: a cyclic lens space or bundle,
    or a quaternionic sphere quotient S^(4k+3)/Q8, optionally pushed into
    a bigger group along `inclusion` and multiplied by `bott_power` copies
    of the Bott manifold (dimension +8 each, eta values unchanged)."""

    __slots__ = ()

    def __new__(cls, lens: Optional[LensSpec] = None, quaternion_k: Optional[int] = None,
                inclusion: Optional[InclusionMap] = None, bott_power: int = 0):
        if (lens is None) == (quaternion_k is None):
            raise ValueError("specify exactly one of lens / quaternion_k")
        return super().__new__(cls, lens, quaternion_k, inclusion, bott_power)

    @property
    def dimension(self) -> int:
        base = self.lens.dimension if self.lens is not None else 4 * self.quaternion_k + 3
        return base + 8 * self.bott_power


# -- the Donnelly sum ---------------------------------------------------------


def eta_donnelly(tau: FreeUnitaryRep, rho: VirtualCharacter) -> Fraction:
    """|G|^-1 sum over non-identity classes of
    size * Tr(rho) * det_sqrt(tau) / det(I - tau), evaluated exactly.

    When tau carries Chern numbers c_j (a lens-space bundle over S^2),
    each summand is multiplied by sum_j (c_j/2) (1+lambda_j)/(1-lambda_j)
    over the class's eigenvalues lambda_j.

    rho need not have virtual dimension zero (differences of manifolds are
    computed by evaluating non-reduced characters), but order semantics in
    R/Z or R/2Z only make sense when it does."""
    return _donnelly_sum(tau, rho.group, rho.values)


def _donnelly_sum(tau: FreeUnitaryRep, group: FiniteGroup,
                  values: Sequence[CyclotomicNumber]) -> Fraction:
    """The sum of `eta_donnelly` for a character on `group` given by its
    class values, one summand per non-identity class."""
    if group is not tau.group:
        raise ValueError("representation and character live on different groups")
    n = tau.root_order
    total = CyclotomicNumber.from_rational(0)
    for c in range(1, len(group.classes)):
        exps = tau.eigen_exponents[c]
        term = values[c] * tau.det_sqrt[c]
        for e, mult in Counter(exps).items():
            term = term * inverse_one_minus_root(n, e) ** mult
        if tau.chern is not None:
            # (1 + lambda)/(1 - lambda) = 2 (1 - lambda)^-1 - 1
            factor = CyclotomicNumber.from_rational(0)
            for e, cj in zip(exps, tau.chern):
                if cj:
                    factor = factor + Fraction(cj, 2) * (2 * inverse_one_minus_root(n, e) - 1)
            term = term * factor
        total = total + group.class_sizes[c] * term
    r = (total * Fraction(1, group.order)).as_rational()
    if r is None:
        raise NonRationalSumError("Donnelly sum did not reduce to a rational")
    return r


def eta_donnelly_float(tau: FreeUnitaryRep, rho: VirtualCharacter) -> float:
    """Double-precision mirror of `eta_donnelly`, used as a cross-check.
    A value that underflows to zero raises `FloatRangeError`."""
    n = tau.root_order
    total, lost = 0j, False
    for c in range(1, len(tau.group.classes)):
        lams = [cmath.exp(2j * cmath.pi * e / n) for e in tau.eigen_exponents[c]]
        numerator = rho.values[c].to_complex() * tau.det_sqrt[c].to_complex()
        term = numerator
        for lam in lams:  # one factor at a time: det(I - tau) itself overflows
            term /= 1 - lam
        lost |= term == 0 and numerator != 0
        if tau.chern is not None:
            term *= sum(0.5 * cj * (1 + lam) / (1 - lam) for lam, cj in zip(lams, tau.chern))
        total += tau.group.class_sizes[c] * term
    value = (total / tau.group.order).real
    if value == 0 and (lost or total.real != 0):
        raise FloatRangeError("the eta value is outside double range")
    return value


def _lens_float(spec: LensSpec, coeffs: Sequence[int]) -> float:
    l, half = spec.l, sum(spec.a) // 2

    def root(e: int) -> complex:  # exponents reduced first: powers lose digits
        return cmath.exp(2j * cmath.pi * (e % l) / l)

    total = 0j
    for k in range(1, l):
        f = root(k * half)
        for aj in spec.a:
            f /= 1 - root(k * aj)
        if spec.kind == "bundle":
            factor = 0j
            for aj, cj in zip(spec.a, spec.chern):
                factor += 0.5 * cj * (1 + root(k * aj)) / (1 - root(k * aj))
            f *= factor
        trace = sum(c * root(k * j) for j, c in enumerate(coeffs))
        total += f * trace
    return (total / l).real


# -- the lens sum in Z[C_l] ------------------------------------------------------


def _lens_sum(spec: LensSpec, coeffs: Sequence[int]) -> Fraction:
    """The Donnelly sum of a lens space or lens-space bundle against the
    virtual character sum_m coeffs[m] r_m, in integers of Z[x]/(x^l - 1).

    For y = zeta^t != 1, 1/(1 - y) = -(1/l) sum_i i y^i, so the polynomial
    F_e with coefficient i at e*i mod l has F_e(zeta^k) = -l (1 - zeta^(ke))^-1
    for every weight e and k != 0 mod l.  With h = sum(a)/2 and w weights
    (w is even, so the signs cancel), the summand at g^k is zeta^(kh) T(zeta^k) / D
    for T = prod_j F_(a_j) and D = l^w.  For a bundle, (1 + y)/(1 - y)
    = -(2 F_e + l)(zeta^k)/l, so T gains the factor sum_j c_j (2 F_(a_j) + l)
    and D becomes -2 l^(w+1).  Since sum_(k=1)^(l-1) zeta^(kt) = l [t = 0] - 1,

        eta = (l sum_m coeffs[m] T[-m - h] - dim rho * T(1)) / (l D),

    which reads one coefficient of T per nonzero coeffs[m]: the factor x^h
    is a rotation, so it moves the read-out instead of entering the
    product.  Adding a multiple of sum_t x^t to T changes neither T(zeta^k)
    nor eta, which keeps every coefficient >= 0."""
    l, h = spec.l, sum(spec.a) // 2
    factors = [_weight_factor(l, e) for e in sorted(e % l for e in spec.a)]
    while len(factors) > 1:  # a balanced product tree: each level doubles the width
        factors = [_times(factors[i], factors[i + 1], l) if i + 1 < len(factors)
                   else factors[i] for i in range(0, len(factors), 2)]
    poly = factors[0]
    denominator = l ** len(spec.a)
    if spec.kind == "bundle":
        factor = [0] * l
        for e, c in zip(spec.a, spec.chern):
            if c:
                for i in range(l):
                    factor[e * i % l] += 2 * c * i
                factor[0] += c * l
        lift = max(0, -min(factor))
        poly = _times(poly, _pack([f + lift for f in factor]), l)
        denominator *= -2 * l
    bits = 8 * poly.width
    mask = (1 << bits) - 1
    paired = sum(cm * (poly.packed >> bits * ((-m - h) % l) & mask)
                 for m, cm in enumerate(coeffs) if cm)
    return Fraction(l * paired - sum(coeffs) * poly.total, l * denominator)


class _Packed(NamedTuple):
    """A polynomial of Z[x]/(x^l - 1) with coefficients >= 0, one int with
    `width` little-endian bytes per coefficient.  `total`, the coefficient
    sum, bounds every coefficient of it and of the products it enters."""
    packed: int
    width: int
    total: int


def _pack(coeffs: Sequence[int]) -> _Packed:
    total = sum(coeffs)
    width = max(1, (total.bit_length() + 7) // 8)
    data = b"".join(c.to_bytes(width, "little") for c in coeffs)
    return _Packed(int.from_bytes(data, "little"), width, total)


@lru_cache(maxsize=None)
def _weight_factor(l: int, e: int) -> _Packed:
    """F_e, built once per (l, e): its coefficient at j is e^-1 j mod l, as
    e is coprime to l."""
    inv = pow(e, -1, l)
    return _pack([inv * j % l for j in range(l)])


def _times(x: _Packed, y: _Packed, l: int) -> _Packed:
    """The product x y: both widened to the width of the product's
    coefficient sum, one int multiply, and one fold of x^(l+t) onto x^t."""
    total = x.total * y.total
    width = max(1, (total.bit_length() + 7) // 8)
    z = _widen(x, width, l) * _widen(y, width, l)
    bits = 8 * width * l
    return _Packed((z & ((1 << bits) - 1)) + (z >> bits), width, total)


def _widen(x: _Packed, width: int, l: int) -> int:
    """x packed with `width` >= x.width bytes per coefficient: byte j of
    every coefficient moves in one strided slice."""
    if width == x.width:
        return x.packed
    src = x.packed.to_bytes(l * x.width, "little")
    out = bytearray(l * width)
    for j in range(x.width):
        out[j::width] = src[j::x.width]
    return int.from_bytes(out, "little")


# -- manifolds against ambient characters -------------------------------------


def eta_of(manifold: ManifoldSpec, rho: VirtualCharacter) -> Fraction:
    """Eta of the manifold against any virtual character rho on its group
    (or on the inclusion's target, restricted along the inclusion:
    naturality).  rho may have nonzero dimension: a difference of two
    manifolds is the difference of their values.  Bott factors do not
    change the value.

    One path: check the target, read rho's builtin coefficients, then run
    `_lens_sum` (lens spaces and bundles) or `_quaternion_sum` (Q8)."""
    coeffs = _coefficients(manifold, rho)
    if manifold.lens is not None:
        return _lens_sum(manifold.lens, coeffs)
    return _quaternion_sum(manifold.quaternion_k, coeffs)


def _coefficients(manifold: ManifoldSpec, rho: VirtualCharacter) -> tuple[int, ...]:
    """rho's coefficients on the builtin table of C_l or Q8, restricted along the inclusion."""
    inclusion = manifold.inclusion
    if inclusion is not None and rho.group is not inclusion.target:
        raise ValueError("character must live on the inclusion's target group")
    tag = "q8" if manifold.lens is None else f"c{manifold.lens.l}"
    if (rho.group if inclusion is None else inclusion.source) is not builtin_group(tag):
        raise ValueError(f"character must live on {tag[0].upper()}_{tag[1:]}")
    return builtin_coefficients(rho, inclusion)


def _quaternion_sum(k: int, coeffs: Sequence[int]) -> Fraction:
    """eta(S^(4k+3)/Q8) against sum_r coeffs[r] chi_r, chi_r the builtin
    irreducibles: one integer combination of `_quaternion_etas(k)`."""
    numerators, denominator = _quaternion_etas(k)
    return Fraction(sum(c * n for c, n in zip(coeffs, numerators)), denominator)


@lru_cache(maxsize=None)
def _quaternion_etas(k: int) -> tuple[tuple[int, ...], int]:
    """eta(S^(4k+3)/Q8; chi_r) for each builtin chi_r, numerators over one
    denominator, in closed form.  tau is m = k + 1 copies of the
    2-dimensional representation with det_sqrt = 1, so det(1 - tau) is
    2^(2m) at [-1] (eigenvalue -1, 2m times) and 2^m at [i], [j] and [k]
    (eigenvalues +-i, m times each, and (1 - i)(1 + i) = 2).  Over |Q8| = 8,
    with class sizes 1 and 2,

        eta = (chi([-1]) + 2^(m+1) (chi([i]) + chi([j]) + chi([k]))) / (8 4^m)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > QUATERNION_K_CAP:
        raise ValueError(f"k = {k} exceeds the cap {QUATERNION_K_CAP}")
    m = k + 1
    return tuple(row[1] + (sum(row[2:]) << m + 1) for row in _q8_rows()), 8 << 2 * m


@lru_cache(maxsize=None)
def _q8_rows() -> tuple[tuple[int, ...], ...]:
    """The builtin Q8 table as ints: rational algebraic integers are integers."""
    return tuple(tuple(int(v.as_rational()) for v in row) for row in character_table("q8").rows)


def eta_of_float(manifold: ManifoldSpec, rho: VirtualCharacter) -> float:
    """Double-precision mirror of `eta_of`; a value outside double range
    raises `FloatRangeError`."""
    try:
        coeffs = _coefficients(manifold, rho)
        if manifold.lens is not None:
            value = _lens_float(manifold.lens, coeffs)
        else:
            value = eta_donnelly_float(quaternion_free_rep(manifold.quaternion_k),
                                       VirtualCharacter(character_table("q8"), coeffs))
    except OverflowError:
        value = math.nan
    if not math.isfinite(value):  # an overflow to inf ends in inf/inf = nan
        raise FloatRangeError("the eta value is outside double range")
    return value


def thm31_modulus(dimension: int, rho: VirtualCharacter) -> Modulus:
    """The refined range: R/2Z when rho admits a real structure in
    dimensions 3 mod 8, or a quaternionic one in dimensions 7 mod 8."""
    if dimension % 8 == 3 and is_real_type(rho):
        return Modulus.TWO_Z
    if dimension % 8 == 7 and is_quaternion_type(rho):
        return Modulus.TWO_Z
    return Modulus.Z


# -- order certificates --------------------------------------------------------


def rational_determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    m = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev
            m[i][k] = Fraction(0)
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def span_order_lower_bound(rows: Sequence[Sequence[Fraction]]) -> int:
    """Order in R/Z of the determinant of an eta-value matrix: a lower
    bound for the subgroup spanned by the corresponding classes.  An
    integer determinant gives the trivial bound 1 (returned, not raised)."""
    return eta_order(rational_determinant(rows), Modulus.Z)


def recursion_check(a: Sequence[int]) -> bool:
    """Appending weights (1,1,5,5) halves the eta of S^(4i-1)/C_8 against
    r4 - r0: verified exactly for the given base tuple."""
    table = character_table("c8")
    rho = table.irreducible("r4") - table.irreducible("r0")
    base = eta_of(ManifoldSpec(lens=LensSpec(8, tuple(a))), rho)
    extended = eta_of(ManifoldSpec(lens=LensSpec(8, tuple(a) + (1, 1, 5, 5))), rho)
    return extended == base / 2
