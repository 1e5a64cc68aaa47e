"""Finitely presented graded-commutative algebras over the field with two
elements: normal forms, graded bases, homomorphisms, dual-basis
pushforwards, Steenrod squares via the Cartan formula, and Wu /
Stiefel-Whitney classes for Poincare-duality presentations.

An element is a set of normal-form monomials (coefficients live in F2, so
duplicates cancel).  Inside the module each monomial is one packed
integer: every exponent has a field of `EXPONENT_BITS` bits whose top bit
is a guard, and the fields are laid out in `precedence` order under a top
field that holds the degree.  So a monomial product is one integer
addition, the integer order is the monomial order, and a rule lead
divides m exactly when ((m + G - lead) & G) == G for the guard mask G.
The relations, the cached graded bases and the top class are held packed
as well, and a degree the fields cannot hold is refused with
`DegreeBoundExceededError`.

Exponent tuples are the public form and appear only at the module's edge.
They enter, like every value from outside (strings, integers read mod 2,
elements), through `PresentedF2Algebra.normal_form`, which refuses an
element of another algebra, and through the `F2AlgebraElement`
constructor, which calls it.  They leave through `.monomials`,
`graded_basis`, `dual_pushforward_map`, `raw_relations`, `poincare`,
formatting and error messages.

Normal forms come from a rewriting system completed by degree-bounded
Buchberger S-polynomial resolution; because all the ideals here are
homogeneous, the truncated system is exact in every degree up to the
bound.  The tests certify confluence against a brute-force
quotient-dimension oracle that shares no code with the rewriting path.

Graded bases are walked directly under the staircase of the rule leads
(`graded_basis`).  Sums of normal forms are collected in one mutable set
and frozen once, so a product costs time linear in its result; powers
square by Frobenius, and a product that would form more than
`PRODUCT_TERM_CAP` monomial pairs is refused.

Homomorphisms and the total Steenrod square Sq = Sq^0 + Sq^1 + ... are
both multiplicative maps on monomials: `_monomial_value` builds the value
of a new monomial from the cached value of its predecessor with one
product, and `_image` sums such values over a polynomial.  Sq^i(m) is the
part of the total square of m in degree deg(m) + i.
"""

from __future__ import annotations

import itertools
import operator
import struct
from typing import Collection, Iterable, Mapping, Optional, Sequence, Union

from .infix import parse_infix

Monomial = tuple[int, ...]

# bounds the work of one product: the monomial pairs it multiplies out
PRODUCT_TERM_CAP = 1 << 17

# width of one packed exponent field, its guard bit included; every
# exponent and every degree stays below PACKED_DEGREE_LIMIT, so no field
# carries into the next and every guard bit of a stored monomial is clear
EXPONENT_BITS = 32
PACKED_DEGREE_LIMIT = 1 << (EXPONENT_BITS - 1)


class F2ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.line, self.col, self.pos = line, col, pos


class DegreeBoundExceededError(ValueError):
    pass


class InconsistentSteenrodDataError(ValueError):
    pass


class DegeneratePairingError(ValueError):
    pass


# -- GF(2) linear algebra on bitmask rows -------------------------------------


def gf2_echelon(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon basis of the span, highest pivot first."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            p = row.bit_length() - 1
            if p in pivots:
                row ^= pivots[p]
            else:
                pivots[p] = row
                break
    for p in sorted(pivots, reverse=True):
        for q in pivots:
            if q > p and (pivots[q] >> p) & 1:
                pivots[q] ^= pivots[p]
    return [pivots[p] for p in sorted(pivots, reverse=True)]


def gf2_solve_unique(rows: Sequence[int], rhs: Sequence[int], width: int) -> int:
    """Solve A x = b over GF(2) where row i of A is the bitmask rows[i] on
    `width` unknowns; requires a unique solution."""
    aug = [(rows[i] << 1) | rhs[i] for i in range(len(rows))]
    basis = gf2_echelon(aug)
    solution = 0
    seen_pivots = set()
    for row in basis:
        pivot = row.bit_length() - 1
        if pivot == 0:
            raise DegeneratePairingError("inconsistent linear system")
        seen_pivots.add(pivot - 1)
        if row & 1:
            solution |= 1 << (pivot - 1)
    if len(seen_pivots) != width:
        raise DegeneratePairingError("solution is not unique")
    return solution


# -- core algebra --------------------------------------------------------------


class F2AlgebraElement:
    """A normal-form sum of monomials of a fixed presented algebra, held
    packed; `monomials` decodes them.  The constructor reduces exponent
    tuples (or any value) through `algebra.normal_form`."""

    __slots__ = ("algebra", "_packed")

    def __init__(self, algebra: "PresentedF2Algebra", monomials: Iterable[Monomial]):
        _set_algebra(self, algebra)
        _set_packed(self, algebra.normal_form(monomials)._packed)

    def __setattr__(self, *args):
        raise AttributeError("F2AlgebraElement is immutable")

    @property
    def monomials(self) -> frozenset:
        """The monomials as exponent tuples."""
        return frozenset(map(self.algebra._unpack, self._packed))

    def is_zero(self) -> bool:
        return not self._packed

    def degree(self) -> Optional[int]:
        """Degree of a homogeneous element (None for 0)."""
        shift = self.algebra._deg_shift
        degs = {m >> shift for m in self._packed}
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop() if degs else None

    def __add__(self, other: "F2AlgebraElement") -> "F2AlgebraElement":
        if not isinstance(other, F2AlgebraElement) or other.algebra is not self.algebra:
            raise ValueError("operands live in different algebras")
        return _element(self.algebra, self._packed ^ other._packed)

    __sub__ = __add__  # characteristic 2

    def __neg__(self) -> "F2AlgebraElement":
        return self

    def __mul__(self, other: "F2AlgebraElement") -> "F2AlgebraElement":
        alg = self.algebra
        if not isinstance(other, F2AlgebraElement) or other.algebra is not alg:
            raise ValueError("operands live in different algebras")
        a, b = self._packed, other._packed
        if len(a) * len(b) > PRODUCT_TERM_CAP:
            raise DegreeBoundExceededError(
                f"a product of {len(a)} by {len(b)} monomials exceeds the cap "
                f"of {PRODUCT_TERM_CAP} monomial products")
        # a monomial product is one integer addition; the product of a by
        # the monomial m2 of b has distinct monomials, and those of the
        # whole product count mod 2
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return alg.zero
        if len(b) == 1:
            (m2,) = b
            if len(a) == 1:
                (m1,) = a
                return _element(alg, alg._reduce_monomial(m1 + m2))
            raws: Collection[int] = [m1 + m2 for m1 in a]
        else:
            raws = set()
            for m2 in b:
                raws.symmetric_difference_update([m1 + m2 for m1 in a])
        return _element(alg, alg._reduce_sum(raws))

    def __pow__(self, k: int) -> "F2AlgebraElement":
        if k < 0:
            raise ValueError("negative powers are not defined")
        alg = self.algebra
        result, base = alg.one, self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                # Frobenius: the algebra is commutative over F2, so the
                # square of a sum of monomials is the sum of their squares
                base = _element(alg, alg._reduce_sum([m << 1 for m in base._packed]))
        return result

    def __eq__(self, other):
        return (isinstance(other, F2AlgebraElement) and other.algebra is self.algebra
                and other._packed == self._packed)

    def __hash__(self):
        return hash((id(self.algebra), self._packed))

    def __str__(self) -> str:
        return self.algebra.format_element(self)

    __repr__ = __str__


# the slot setters, which bypass the immutability guard of __setattr__
_set_algebra = F2AlgebraElement.algebra.__set__
_set_packed = F2AlgebraElement._packed.__set__


def _element(algebra: "PresentedF2Algebra", packed: frozenset) -> F2AlgebraElement:
    """An element from a frozenset of packed normal-form monomials."""
    e = object.__new__(F2AlgebraElement)
    _set_algebra(e, algebra)
    _set_packed(e, packed)
    return e


class PresentedF2Algebra:
    """F2[g_1, ..., g_r] / (relations), graded by generator degrees.

    `precedence` lists generator names from highest to lowest rewriting
    priority; the monomial order is degree first, then lexicographic on
    the permuted exponents, which is the integer order of the packed
    monomials.  Relations must be homogeneous.
    """

    def __init__(self, name: str, generators: Sequence[tuple[str, int]],
                 relations: Sequence[Union[str, Iterable[Monomial]]],
                 degree_bound: int = 64,
                 precedence: Optional[Sequence[str]] = None,
                 poincare: Optional[tuple[int, Union[str, Monomial]]] = None):
        self.name = name
        self.gen_names = tuple(n for n, _ in generators)
        self.gen_degrees = tuple(int(d) for _, d in generators)
        if len(set(self.gen_names)) != len(self.gen_names):
            raise ValueError("duplicate generator names")
        for n, d in zip(self.gen_names, self.gen_degrees):
            if d < 1:
                raise ValueError(f"generator {n!r} has degree {d}; degrees start at 1")
        self._gen_index = {n: i for i, n in enumerate(self.gen_names)}
        self.degree_bound = degree_bound
        if precedence is None:
            prec = tuple(range(len(self.gen_names)))
        else:
            if sorted(precedence) != sorted(self.gen_names):
                raise ValueError("precedence must be a permutation of the generators")
            prec = tuple(self._gen_index[n] for n in precedence)
        # the packed layout: the highest-precedence generator in the highest
        # exponent field, the degree in the field above all of them
        r = len(prec)
        self._field_gen = prec[::-1]  # generator of each field, lowest first
        shifts = [0] * r
        for k, i in enumerate(self._field_gen):
            shifts[i] = k * EXPONENT_BITS
        # _unpack reads all fields at once (32 = EXPONENT_BITS) in generator order
        self._read_fields = struct.Struct(f"<{r + 1}I").unpack
        self._gen_fields = (operator.itemgetter(*(s // EXPONENT_BITS for s in shifts))
                            if r > 1 else operator.itemgetter(slice(0, r)))
        self._deg_shift = r * EXPONENT_BITS
        self._units = tuple((1 << s) + (d << self._deg_shift)
                            for s, d in zip(shifts, self.gen_degrees))
        self._guards = sum(1 << (k * EXPONENT_BITS + EXPONENT_BITS - 1)
                           for k in range(r + 1))
        # the least packed monomial that the normal form refuses
        self._raw_limit = PACKED_DEGREE_LIMIT << self._deg_shift
        self.one = _element(self, frozenset({0}))
        self.zero = _element(self, frozenset())
        # with no rules yet, parsing yields raw free-algebra polynomials
        self._rules: list[tuple[int, frozenset]] = []
        self._truncated = False
        # normal form of each raw monomial; emptied once the rules are final
        self._nf_cache: dict[int, frozenset] = {}
        # the relations packed once; raw_relations is their public tuple form
        self._relations = tuple(self.normal_form(r)._packed for r in relations)
        self.raw_relations = tuple(frozenset(map(self._unpack, r)) for r in self._relations)
        for r in self.raw_relations:
            if len({self.monomial_degree(m) for m in r}) != 1:
                raise ValueError(f"relation {sorted(r)} is not homogeneous")
        self._complete_rewriting_system()
        if self._truncated:
            self._raw_limit = min(self._raw_limit, (degree_bound + 1) << self._deg_shift)
        self._nf_cache = {}
        self._basis_cache: dict[int, list[int]] = {}
        self.poincare: Optional[tuple[int, Monomial]] = None
        if poincare is not None:
            dim, top = poincare
            basis = self._basis(dim)
            top_mons = self.normal_form(top if isinstance(top, str) else [top])._packed
            if len(basis) != 1 or set(basis) != top_mons:
                raise ValueError(f"degree {dim} is not spanned by the designated "
                                 f"top monomial alone: basis {self.graded_basis(dim)}")
            self._top_monomial = basis[0]
            self.poincare = (dim, self._unpack(basis[0]))

    # -- presentation plumbing ------------------------------------------------

    def monomial_degree(self, m: Monomial) -> int:
        return sum(map(operator.mul, m, self.gen_degrees))

    def _pack(self, m: Monomial) -> int:
        """The packed integer of an exponent tuple, checked."""
        if len(m) != len(self._units):
            raise ValueError(f"monomial {tuple(m)} needs {len(self._units)} exponents")
        if min(m, default=0) < 0:
            raise ValueError(f"monomial {tuple(m)} has a negative exponent")
        p = sum(map(operator.mul, m, self._units))
        if p >= PACKED_DEGREE_LIMIT << self._deg_shift:
            raise self._degree_error(self.monomial_degree(m))
        return p

    def _unpack(self, p: int) -> Monomial:
        """The exponent tuple of a packed monomial."""
        return self._gen_fields(self._read_fields(p.to_bytes(4 * len(self._units) + 4, "little")))

    def _divides(self, lead: int, m: int) -> bool:
        """Whether lead divides m: no field of m - lead borrows from its
        guard bit."""
        g = self._guards
        return (m + g - lead) & g == g

    def _degree_error(self, deg: int) -> DegreeBoundExceededError:
        if self._truncated and deg > self.degree_bound:
            return DegreeBoundExceededError(
                f"degree {deg} exceeds the completion bound {self.degree_bound}")
        return DegreeBoundExceededError(
            f"degree {deg} exceeds the packed monomial limit {PACKED_DEGREE_LIMIT - 1}")

    # -- rewriting ---------------------------------------------------------------

    def _complete_rewriting_system(self) -> None:
        """Degree-bounded Buchberger completion over GF(2).  Homogeneous
        ideals are processed by increasing degree, so the truncated system
        gives exact normal forms in every degree up to the bound."""
        import heapq

        tick = itertools.count()
        heap: list = []
        shift = self._deg_shift
        for r in self._relations:
            if r:
                heapq.heappush(heap, (max(r) >> shift, next(tick), r))
        while heap:
            _, _, poly = heapq.heappop(heap)
            reduced = self._reduce_poly(poly)
            if not reduced:
                continue
            lead = max(reduced)
            tail = reduced - {lead}
            exps = self._unpack(lead)
            for other_lead, other_tail in self._rules:
                other = self._unpack(other_lead)
                if not any(a and b for a, b in zip(exps, other)):
                    continue  # coprime leads: the S-polynomial reduces to zero
                lcm = tuple(map(max, exps, other))
                d = self.monomial_degree(lcm)
                if d > self.degree_bound:
                    self._truncated = True
                    continue
                lcm = self._pack(lcm)
                s1, s2 = lcm - lead, lcm - other_lead
                spoly = (frozenset(m + s1 for m in reduced)
                         ^ frozenset(m + s2 for m in other_tail | {other_lead}))
                if spoly:
                    heapq.heappush(heap, (d, next(tick), spoly))
            self._rules.append((lead, tail))
        # drop rules with redundant leads, then inter-reduce the tails
        self._rules = [
            (lead, tail) for i, (lead, tail) in enumerate(self._rules)
            if not any(j != i and self._divides(ol, lead)
                       for j, (ol, _) in enumerate(self._rules))]
        self._rules = [(lead, self._reduce_poly(tail)) for lead, tail in self._rules]

    def _reduce_poly(self, poly: Iterable[int]) -> frozenset:
        work = set(poly)
        done: set[int] = set()
        g, rules = self._guards, self._rules
        while work:
            m = max(work)
            work.discard(m)
            for lead, tail in rules:
                if (m + g - lead) & g == g:
                    shift = m - lead
                    work.symmetric_difference_update([t + shift for t in tail])
                    break
            else:
                done.add(m)
        return frozenset(done)

    def _reduce_monomial(self, raw: int) -> frozenset:
        if raw >= self._raw_limit:
            raise self._degree_error(raw >> self._deg_shift)
        nf = self._nf_cache.get(raw)
        if nf is None:
            nf = self._nf_cache[raw] = self._reduce_poly({raw})
        return nf

    # -- public surface ------------------------------------------------------------

    def normal_form(self, e: Union[str, int, "F2AlgebraElement",
                                   Iterable[Monomial]]) -> F2AlgebraElement:
        """Unique normal form of an element of this algebra, a string, an
        integer (read mod 2) or a raw polynomial given by its exponent
        tuples; idempotent on elements.  Every value from outside the
        module enters here, and an element of another algebra is refused."""
        if isinstance(e, F2AlgebraElement):
            if e.algebra is not self:
                raise ValueError("element belongs to a different algebra")
            return _element(self, self._reduce_sum(e._packed))
        if isinstance(e, str):
            return self.parse(e)
        if isinstance(e, int):
            return self.one if e % 2 else self.zero
        odd: set[int] = set()
        for m in map(self._pack, e):
            odd ^= {m}  # each raw monomial counts mod 2
        return _element(self, self._reduce_sum(odd))

    def _reduce_sum(self, mons: Collection[int]) -> frozenset:
        """Normal form of a sum of distinct raw packed monomials.  Their
        normal forms are mostly disjoint, and then the sum is their union,
        taken at once; otherwise it is their symmetric difference."""
        if len(mons) <= 1:
            if not mons:
                return frozenset()
            (m,) = mons
            return self._reduce_monomial(m)
        if max(mons) >= self._raw_limit:
            nfs = list(map(self._reduce_monomial, mons))
        elif not self._rules:
            return frozenset(mons)  # in a free algebra every monomial is normal
        else:
            nfs = list(map(self._nf_cache.get, mons))
            if None in nfs:
                nfs = [self._reduce_monomial(m) if nf is None else nf
                       for m, nf in zip(mons, nfs)]
        total = frozenset().union(*nfs)
        if len(total) == sum(map(len, nfs)):
            return total
        out: set[int] = set()
        for nf in nfs:
            out.symmetric_difference_update(nf)
        return frozenset(out)

    def parse(self, text: str) -> F2AlgebraElement:
        def atom(kind: str, value: str, pos: int) -> F2AlgebraElement:
            if kind == "int":
                return self.one if int(value) % 2 else self.zero
            if value not in self._gen_index:
                raise F2ParseError(f"unknown generator {value!r}", text, pos)
            return self.gen(value)

        return parse_infix(text, atom, lambda msg, pos: F2ParseError(msg, text, pos))

    def gen(self, name: str) -> F2AlgebraElement:
        unit = self._units[self._gen_index[name]]
        return _element(self, self._reduce_sum([unit]))

    def graded_basis(self, n: int) -> list[Monomial]:
        """Normal-form monomials of degree n, in descending graded-lex order
        on the exponents (generator-listing order).

        They are enumerated directly under the staircase of the rule leads
        by a depth-first search that assigns exponents generator by
        generator.  At each node the exponent of generator i is capped once:
        below the least last exponent of the leads that end at i and whose
        rest the prefix already meets, since those exponents and every
        larger one are divisible.  The last exponent is forced by the
        degree, so it is tested once.  Only degree n is listed; no lower
        degree is built or cached on the way."""
        return list(map(self._unpack, self._basis(n)))

    def _basis(self, n: int) -> list[int]:
        """The cached packed monomials behind `graded_basis(n)`, in its
        order; the caller must not change the list."""
        if n < 0:
            return []
        if n > self.degree_bound:
            raise DegreeBoundExceededError(f"degree {n} exceeds bound {self.degree_bound}")
        if n >= PACKED_DEGREE_LIMIT:
            raise self._degree_error(n)
        out = self._basis_cache.get(n)
        if out is None:
            # the walk lists the monomials in ascending order of their tuples
            out = self._basis_cache[n] = self._normal_monomials(n)[::-1]
        return out

    def _normal_monomials(self, n: int) -> list[int]:
        degs, units, g = self.gen_degrees, self._units, self._guards
        last = len(degs) - 1
        # each lead as (rest, e): e is the exponent of its last generator,
        # under which it is filed, and rest the packed monomial of the
        # generators before it
        closing: list[list] = [[] for _ in degs]
        for lead, _ in self._rules:
            exps = self._unpack(lead)
            support = [j for j, e in enumerate(exps) if e]
            if not support:
                return []  # 1 is a lead: the quotient is zero
            j = support[-1]
            closing[j].append((lead - exps[j] * units[j], exps[j]))
        if last < 0:
            return [0] if n == 0 else []
        out: list[int] = []
        last_step, last_unit, last_closing = degs[last], units[last], closing[last]

        def cap_at(i: int, cap: int, acc: int) -> int:
            """Lower `cap` to the least exponent of generator i that makes
            the prefix, packed in `acc`, divisible by a lead whose rest it
            already meets."""
            for rest, e in closing[i]:
                if e < cap and (acc + g - rest) & g == g:
                    cap = e
            return cap

        def walk(i: int, remaining: int, acc: int) -> None:
            step, unit = degs[i], units[i]
            cap = cap_at(i, remaining // step + 1, acc)
            if i + 1 < last:
                for e in range(cap):
                    walk(i + 1, remaining - e * step, acc + e * unit)
            else:
                # the last exponent is forced by the degree: test it once
                for e in range(cap):
                    f, r = divmod(remaining - e * step, last_step)
                    if not r and (not last_closing or f < cap_at(last, f + 1, acc + e * unit)):
                        out.append(acc + e * unit + f * last_unit)

        if last == 0:
            f, r = divmod(n, last_step)
            return [f * last_unit] if not r and f < cap_at(0, f + 1, 0) else []
        walk(0, n, 0)
        return out

    # -- Poincare pairing ------------------------------------------------------------

    def pairing(self, e: Union[str, F2AlgebraElement]) -> int:
        """Coefficient of the designated top monomial."""
        if self.poincare is None:
            raise ValueError(f"algebra {self.name} has no Poincare structure")
        return 1 if self._top_monomial in self.normal_form(e)._packed else 0

    # -- formatting --------------------------------------------------------------------

    def format_monomial(self, m: Monomial) -> str:
        parts = []
        for name, e in zip(self.gen_names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def format_element(self, e: F2AlgebraElement) -> str:
        if e.is_zero():
            return "0"
        mons = sorted(e.monomials, key=lambda m: (self.monomial_degree(m), m),
                      reverse=True)
        return " + ".join(self.format_monomial(m) for m in mons)

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.gen_names, self.gen_degrees))
        return f"PresentedF2Algebra({self.name}; {gens}; {len(self.raw_relations)} relations)"


# -- graded homomorphisms ---------------------------------------------------------


def _monomial_value(m: int, cache: dict, generator_values: Sequence,
                    algebra: PresentedF2Algebra) -> F2AlgebraElement:
    """Value at the packed monomial m of `algebra` of the multiplicative
    map sending generator i to generator_values[i]: the images of a
    homomorphism, or the total squares of the generators.  `cache` must
    hold the value at the zero monomial.  With i the generator of the
    lowest nonzero field of m, the value at m is (value at m / g_i) *
    generator_values[i].  Every monomial on the way down is cached, so each
    new monomial costs one product."""
    value = cache.get(m)
    if value is not None:
        return value
    chain = []
    field_gen, units = algebra._field_gen, algebra._units
    while m not in cache:
        i = field_gen[((m & -m).bit_length() - 1) // EXPONENT_BITS]
        chain.append((m, i))
        m -= units[i]
    value = cache[m]
    for mon, i in reversed(chain):
        value = value * generator_values[i]
        cache[mon] = value
    return value


def _image(value, mons: Iterable[int]) -> set[int]:
    """The packed sum of value(m), a multiplicative map's value, over mons."""
    out: set[int] = set()
    for m in mons:
        out.symmetric_difference_update(value(m)._packed)
    return out


class GradedHom:
    """Degree-preserving algebra map given by generator images; every
    source relation is checked to map to zero at construction."""

    def __init__(self, source: PresentedF2Algebra, target: PresentedF2Algebra,
                 images: Mapping[str, Union[str, int, F2AlgebraElement]],
                 name: str = ""):
        self.source = source
        self.target = target
        self.name = name or f"{source.name}->{target.name}"
        self.images: list[F2AlgebraElement] = []
        for gname, gdeg in zip(source.gen_names, source.gen_degrees):
            if gname not in images:
                raise ValueError(f"missing image for generator {gname!r}")
            img = target.normal_form(images[gname])
            if not img.is_zero() and img.degree() != gdeg:
                raise ValueError(f"image of {gname} must be homogeneous of degree {gdeg}")
            self.images.append(img)
        self._monomial_cache = {0: target.one}
        for rel in source._relations:
            if _image(self._apply_monomial, rel):
                raise ValueError(f"relation {sorted(map(source._unpack, rel))} does not "
                                 f"map to zero under {self.name}")

    def _apply_monomial(self, m: int) -> F2AlgebraElement:
        return _monomial_value(m, self._monomial_cache, self.images, self.source)

    def __call__(self, e: Union[str, F2AlgebraElement]) -> F2AlgebraElement:
        return _element(self.target, frozenset(
            _image(self._apply_monomial, self.source.normal_form(e)._packed)))

    def __repr__(self) -> str:
        return f"GradedHom({self.name})"


def dual_pushforward_map(f: GradedHom, n: int) -> dict[Monomial, frozenset]:
    """The homology pushforward dual to f in degree n: each target monomial
    t, in target.graded_basis(n) order, maps to the set of source monomials
    of degree n whose image contains t.  Applied to the dual class of t it
    yields the sum of the dual classes of that set."""
    support: dict[int, list] = {t: [] for t in f.target._basis(n)}
    for s in f.source._basis(n):
        mon = f.source._unpack(s)
        for t in f._apply_monomial(s)._packed:
            support[t].append(mon)
    return {f.target._unpack(t): frozenset(mons) for t, mons in support.items()}


# -- Steenrod squares ---------------------------------------------------------------


class SteenrodData:
    """Squares on generators, extended by the Cartan formula.

    Each generator g keeps one total square Sq(g) = Sq^0(g) + ... +
    Sq^deg(g).  Sq^0(g) = g and Sq^deg(g) = g^2 are forced and may be
    omitted; every Sq^i(g) with 0 < i < deg must be supplied, a value above
    the degree must be 0, and a negative index is refused.  The total
    square of every relation is checked to vanish."""

    def __init__(self, algebra: PresentedF2Algebra,
                 sq_on_generators: Optional[Mapping] = None):
        self.algebra = algebra
        degrees = dict(zip(algebra.gen_names, algebra.gen_degrees))
        squares: dict[tuple[str, int], F2AlgebraElement] = {}
        for g, d in degrees.items():
            gen = algebra.gen(g)
            squares[g, 0], squares[g, d] = gen, gen * gen
        for (g, i), value in (sq_on_generators or {}).items():
            if g not in degrees:
                raise InconsistentSteenrodDataError(f"unknown generator {g!r} in data")
            if not isinstance(i, int):
                raise InconsistentSteenrodDataError(f"Sq^{i!r}({g}) needs an integer index")
            if i < 0:
                raise InconsistentSteenrodDataError(f"Sq^{i}({g}) needs i >= 0")
            d, value = degrees[g], algebra.normal_form(value)
            if i > d and not value.is_zero():
                raise InconsistentSteenrodDataError(f"Sq^{i}({g}) must be 0 above the degree {d}")
            if i in (0, d) and value != squares[g, i]:
                raise InconsistentSteenrodDataError(f"Sq^{i}({g}) contradicts the forced value")
            if 0 < i < d:
                if not value.is_zero() and value.degree() != d + i:
                    raise InconsistentSteenrodDataError(
                        f"Sq^{i}({g}) must be homogeneous of degree {d + i}")
                squares[g, i] = value
        missing = next(((g, i) for g, d in degrees.items() for i in range(1, d)
                        if (g, i) not in squares), None)
        if missing:
            raise InconsistentSteenrodDataError(
                f"missing Sq^{missing[1]}({missing[0]}); supply it explicitly")
        # the squares of a generator lie in distinct degrees, so its total
        # square is the union of their monomials
        self._totals = [_element(algebra, frozenset().union(
            *(squares[g, i]._packed for i in range(d + 1)))) for g, d in degrees.items()]
        self._mono_cache = {0: algebra.one}
        self._validate_relations()

    def _total_square(self, m: int) -> F2AlgebraElement:
        """Sq(m) = Sq^0(m) + Sq^1(m) + ... of a raw packed monomial.  The
        total square is multiplicative, and the degree of each of its
        monomials tells which Sq^i that monomial belongs to."""
        return _monomial_value(m, self._mono_cache, self._totals, self.algebra)

    def _validate_relations(self) -> None:
        alg = self.algebra
        shift = alg._deg_shift
        for rel in alg._relations:
            total = _image(self._total_square, rel)
            if total:
                d = next(iter(rel)) >> shift
                low = min(total) >> shift
                val = _element(alg, frozenset(t for t in total if t >> shift == low))
                raise InconsistentSteenrodDataError(
                    f"Sq^{low - d} of relation {sorted(map(alg._unpack, rel))} is {val}, not 0")

    def sq(self, i: int, e: Union[str, F2AlgebraElement]) -> F2AlgebraElement:
        if not isinstance(i, int):
            raise ValueError(f"Sq^{i!r} needs an integer index")
        if i < 0:
            raise ValueError("Sq^i needs i >= 0")
        shift = self.algebra._deg_shift
        out: set[int] = set()
        for m in self.algebra.normal_form(e)._packed:
            # the monomials of degree deg(m) + i are the packed ints in [lo, hi)
            lo = ((m >> shift) + i) << shift
            hi = lo + (1 << shift)
            out.symmetric_difference_update(
                [t for t in self._total_square(m)._packed if lo <= t < hi])
        return _element(self.algebra, frozenset(out))


# -- Wu and Stiefel-Whitney classes ---------------------------------------------------


# bounds the work of one Wu computation, a pairing system per degree up to d/2
WU_DIMENSION_CAP = 1024


def wu_classes(algebra: PresentedF2Algebra, steenrod: SteenrodData) -> list[F2AlgebraElement]:
    """The classes v_0 .. v_(d/2) with <v_j * y, top> = <Sq^j(y), top> for
    every y of complementary degree; needs a non-degenerate pairing."""
    if algebra.poincare is None:
        raise ValueError("Wu classes need a Poincare structure")
    d = algebra.poincare[0]
    if d > WU_DIMENSION_CAP:
        raise DegreeBoundExceededError(
            f"formal dimension {d} exceeds the Wu cap {WU_DIMENSION_CAP}")
    top = algebra._top_monomial
    out = []
    for j in range(d // 2 + 1):
        basis_j = algebra._basis(j)
        basis_c = algebra._basis(d - j)
        if len(basis_j) != len(basis_c):
            raise DegeneratePairingError(
                f"degrees {j} and {d - j} have different ranks")
        rows, rhs = [], []
        for y in basis_c:
            row = 0
            for col, x in enumerate(basis_j):
                # <x * y, top>: the product of two monomials is one addition
                if top in algebra._reduce_monomial(x + y):
                    row |= 1 << col
            rows.append(row)
            # <Sq^j(y), top>: Sq^j(y) is the degree-d part of the total square
            rhs.append(int(top in steenrod._total_square(y)._packed))
        solution = gf2_solve_unique(rows, rhs, len(basis_j))
        out.append(_element(algebra, frozenset(
            x for col, x in enumerate(basis_j) if solution >> col & 1)))
    return out


def stiefel_whitney(algebra: PresentedF2Algebra, steenrod: SteenrodData,
                    wu: Optional[Sequence[F2AlgebraElement]] = None) -> list[F2AlgebraElement]:
    """w_k = sum_{i+j=k} Sq^i(v_j), for k = 0 .. d: the degree-k part of the
    total square of v_0 + ... + v_(d/2).  Sq^i vanishes above the degree it
    acts on, so that total square lives in degrees 0 .. d.  `wu` passes
    the Wu classes when the caller has them already."""
    v = wu_classes(algebra, steenrod) if wu is None else wu
    parts: list[set[int]] = [set() for _ in range(algebra.poincare[0] + 1)]
    shift = algebra._deg_shift
    for t in _image(steenrod._total_square, [m for vj in v for m in vj._packed]):
        parts[t >> shift].add(t)
    return [_element(algebra, frozenset(p)) for p in parts]


# -- builtin presentations ----------------------------------------------------------


def semidihedral_cohomology(degree_bound: int = 64) -> PresentedF2Algebra:
    """Mod-2 cohomology of the semi-dihedral groups of order >= 16 (the
    presentation does not depend on the order)."""
    return PresentedF2Algebra(
        "sd", [("x", 1), ("y", 1), ("u", 3), ("P", 4)],
        ["x*y + x^2", "x*u", "x^3", "u^2 + (x^2 + y^2)*P"],
        degree_bound=degree_bound, precedence=("u", "y", "x", "P"))


def dihedral_cohomology(degree_bound: int = 64) -> PresentedF2Algebra:
    """Mod-2 cohomology of the dihedral group of order 8."""
    return PresentedF2Algebra(
        "d8", [("a", 1), ("b", 1), ("d", 2)], ["a*b + b^2"],
        degree_bound=degree_bound)


def klein_cohomology(degree_bound: int = 64) -> PresentedF2Algebra:
    """Mod-2 cohomology of the Klein four group: a free polynomial algebra."""
    return PresentedF2Algebra("v2", [("p", 1), ("q", 1)], [],
                              degree_bound=degree_bound)


def circle_bundle_cohomology(n: int, degree_bound: int = 64) -> PresentedF2Algebra:
    """Cohomology of the total space of the lens-space bundle over the
    circle: generators s, t in degree 1 and Z in degree 2, with s^2 = 0,
    s*t = t^2, Z^n = 0; Poincare duality in formal dimension 2n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return PresentedF2Algebra(
        f"m{2 * n}", [("s", 1), ("t", 1), ("Z", 2)],
        ["s^2", "s*t + t^2", f"Z^{n}"],
        degree_bound=max(degree_bound, 2 * n),
        poincare=(2 * n, f"t^2*Z^{n - 1}" if n > 1 else "t^2"))


def lens_space_cohomology(n: int, degree_bound: int = 64) -> PresentedF2Algebra:
    """Cohomology of the 2n-1 dimensional lens space of a cyclic 2-group."""
    return PresentedF2Algebra(
        f"lens{2 * n - 1}", [("t", 1), ("X", 2)], ["t^2", f"X^{n}"],
        degree_bound=max(degree_bound, 2 * n),
        poincare=(2 * n - 1, f"t*X^{n - 1}"))


def sd_to_d8_restriction(sd: PresentedF2Algebra, d8: PresentedF2Algebra) -> GradedHom:
    return GradedHom(sd, d8, {"x": 0, "y": "a", "u": "a*d", "P": "d^2"},
                     name="sd->d8")


def d8_to_v2_restriction(d8: PresentedF2Algebra, v2: PresentedF2Algebra) -> GradedHom:
    return GradedHom(d8, v2, {"a": "p", "b": 0, "d": "q*(p + q)"},
                     name="d8->v2")


def sd_to_circle_bundle(sd: PresentedF2Algebra, m: PresentedF2Algebra,
                        p_image: str = "Z^2 + Z*t^2") -> GradedHom:
    return GradedHom(sd, m, {"x": "t", "y": "s", "u": "Z*(t + s)", "P": p_image},
                     name=f"sd->{m.name}")


def circle_bundle_to_lens(m: PresentedF2Algebra, lens: PresentedF2Algebra) -> GradedHom:
    return GradedHom(m, lens, {"s": 0, "t": "t", "Z": "X"},
                     name=f"{m.name}->{lens.name}")


def semidihedral_steenrod(sd: PresentedF2Algebra) -> SteenrodData:
    """Squares on the semi-dihedral presentation.  Sq^1 u = 0 and
    Sq^2 P = u^2 are the structural inputs; the remaining values are the
    unique ones consistent with the relations (P lifts integrally, so its
    Bockstein vanishes)."""
    return SteenrodData(sd, {
        ("u", 1): 0, ("u", 2): "y^2*u + y*P + x*P",
        ("P", 1): 0, ("P", 2): "u^2", ("P", 3): 0,
    })


def circle_bundle_steenrod(m: PresentedF2Algebra,
                           sq1_z: Union[str, F2AlgebraElement]) -> SteenrodData:
    """Steenrod data on the bundle total space for a chosen Sq^1(Z).  The
    relation check runs Cartan series quadratic in the dimension, so a
    formal dimension above `WU_DIMENSION_CAP` is refused first."""
    if m.poincare is not None and m.poincare[0] > WU_DIMENSION_CAP:
        raise DegreeBoundExceededError(
            f"formal dimension {m.poincare[0]} exceeds the Wu cap {WU_DIMENSION_CAP}")
    return SteenrodData(m, {("Z", 1): sq1_z})


def sq1_branch_data(m: PresentedF2Algebra) -> list[tuple[F2AlgebraElement, SteenrodData]]:
    """All degree-3 values of Sq^1(Z) on the bundle total space that give
    consistent Steenrod data and kill the Bockstein of the pulled-back
    degree-3 class Z*(t+s), each with the data built for it, in
    descending order of their sorted monomials."""
    if m.poincare is None or m.poincare[0] % 8 != 0:
        raise ValueError("expected the total-space algebra of dimension 8k")
    u_image = m.parse("Z*(t + s)")
    admissible = []
    basis3 = m._basis(3)
    for bits in range(1 << len(basis3)):
        candidate = _element(m, frozenset(p for i, p in enumerate(basis3) if bits >> i & 1))
        try:
            data = circle_bundle_steenrod(m, candidate)
        except InconsistentSteenrodDataError:
            continue
        if data.sq(1, u_image).is_zero():
            admissible.append((candidate, data))
    admissible.sort(key=lambda pair: sorted(pair[0].monomials), reverse=True)
    return admissible

