"""Finite 2-groups, their character tables, and virtual characters.

Groups are stored as explicit multiplication tables built from their
presentations; conjugacy classes carry a fixed canonical ordering so the
builtin character tables can be stored positionally.  A table is checked
on its generators: they must generate it, and Light's test
(x*g)*y = x*(g*y) for every generator g gives associativity, since the
elements that associate with everything are closed under products.
Character inner products are one `exactnum.hermitian_sum` each.  Subgroup
inclusions are given by generator images and checked on the generators,
phi(x*s) = phi(x)*phi(s) for every x and generator s, which gives a
homomorphism by induction on word length; each records its class map, the
target class of every source class.  Restriction is one integer
combination of the rows of a branching matrix, which decomposes each row
of the ambient table, read through the class map, on the builtin table of
the subgroup once per (table, inclusion).  `NAMED_INCLUSIONS` is the one
table of the named subgroups (Q8, C8, C4 and C2 in SD16, C4 in Q8, V2 in
D8), built by `named_inclusion`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Optional, Sequence, Union

from .exactnum import (CyclotomicNumber, hermitian_sum, integer_combination,
                       parse_cyclotomic, root_of_unity)


class UnsupportedGroupError(ValueError):
    pass


class NotASubgroupMapError(ValueError):
    pass


class NotIrreducibleError(ValueError):
    pass


class NotFreeError(ValueError):
    pass


class OddLengthError(ValueError):
    pass


class ValidationError(ValueError):
    pass


def check_json(value, kind: type, where: str):
    """`value` when it is a JSON object (kind dict), array (list) or string (str)."""
    if not isinstance(value, kind):
        noun = {dict: "an object", list: "an array", str: "a string"}[kind]
        raise ValidationError(f"{where} must be {noun}")
    return value


def check_json_int(value, where: str) -> int:
    """`value` as an int, when it is a JSON integer or a numeral string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValidationError(f"{where} must be an integer")
    return int(value)


def _cyc(value: Union[int, Fraction, CyclotomicNumber]) -> CyclotomicNumber:
    if isinstance(value, CyclotomicNumber):
        return value
    return CyclotomicNumber.from_rational(value)


class FiniteGroup:
    """A finite group as an index-based multiplication table.

    Element 0 is the identity.  `classes` is the canonical ordered
    partition into conjugacy classes, `class_of[e]` the class index of
    element e, and `generators` maps generator labels to elements, which
    must generate the group.
    """

    def __init__(self, name: str, element_names: Sequence[str],
                 mult: Sequence[Sequence[int]], generators: Mapping[str, int],
                 class_reps: Sequence[str]):
        self.name = name
        self.element_names = tuple(element_names)
        self.mult = tuple(tuple(row) for row in mult)
        self.generators = dict(generators)
        self.order = len(self.element_names)
        self._index = {n: i for i, n in enumerate(self.element_names)}
        self._validate_axioms()
        self._inverse = tuple(row.index(0) for row in self.mult)
        self.classes, self.class_of = self._conjugacy_classes(class_reps)
        self.class_sizes = tuple(len(c) for c in self.classes)
        self.class_names = tuple("[" + self.element_names[c[0]] + "]" for c in self.classes)

    # -- construction checks ---------------------------------------------

    def _validate_axioms(self) -> None:
        """Identity and permutation rows, then Light's test on generators
        that generate: O(|generators| * n^2) instead of n^3 triples."""
        n, mult = self.order, self.mult
        rng = range(n)
        for a in rng:
            if mult[0][a] != a or mult[a][0] != a:
                raise ValueError("element 0 is not an identity")
            if sorted(mult[a]) != list(rng):
                raise ValueError("multiplication table rows must be permutations")
        gens = tuple(self.generators.values())
        reached = [False] * n
        if all(g in rng for g in gens):  # an index outside the table generates nothing
            reached[0] = True
            stack = [0]
            while stack:
                x = stack.pop()
                for g in gens:
                    y = mult[x][g]
                    if not reached[y]:
                        reached[y] = True
                        stack.append(y)
        if not all(reached):
            raise ValueError("the generators do not generate the group")
        # the a with (x*a)*y = x*(a*y) for all x, y contain 0 and are closed
        # under products, so when every generator is one, every element is
        for g in gens:
            right = mult[g]
            for x in rng:
                row = mult[x]
                if mult[row[g]] != tuple(map(row.__getitem__, right)):
                    raise ValueError("multiplication is not associative")

    def _conjugacy_classes(self, class_reps: Sequence[str]):
        n, mult, inverse = self.order, self.mult, self._inverse
        seen = [False] * n
        raw = []
        for a in range(n):
            if seen[a]:
                continue
            cls = sorted({mult[mult[g][a]][inverse[g]] for g in range(n)})
            for x in cls:
                seen[x] = True
            raw.append(tuple(cls))
        ordered = []
        for rep in class_reps:
            idx = self.element(rep)
            match = [c for c in raw if idx in c]
            if not match or match[0] in ordered:
                raise ValueError(f"bad class representative {rep!r}")
            ordered.append(match[0])
        if len(ordered) != len(raw):
            raise ValueError("class representatives do not cover all classes")
        class_of = [0] * n
        for ci, cls in enumerate(ordered):
            for x in cls:
                class_of[x] = ci
        return tuple(ordered), tuple(class_of)

    # -- basic operations --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def power(self, a: int, k: int) -> int:
        """a^k for any integer k, negative k included."""
        result = 0
        for _ in range(k % self.element_order(a)):
            result = self.mul(result, a)
        return result

    def element(self, name: str) -> int:
        """Resolve an element given by name or by a product expression of
        named elements, e.g. "s^2" or "t*s"."""
        name = name.strip()
        if name in self._index:
            return self._index[name]
        result = 0
        for factor in name.split("*"):
            factor = factor.strip()
            base, _, exp = factor.partition("^")
            if base not in self._index:
                raise ValueError(f"unknown element {base!r} in group {self.name}")
            k = int(exp) if exp else 1
            result = self.mul(result, self.power(self._index[base], k))
        return result

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"


# -- builtin groups --------------------------------------------------------


def _cyclic_group(n: int) -> FiniteGroup:
    names = ["1"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    mult = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(f"c{n}", names, mult, {"g": 1 % n}, names)


def _metacyclic_group(name: str, m: int, r: int, c: int, letters: str,
                      class_reps: Sequence[str],
                      names: Optional[Mapping[tuple[int, int], str]] = None) -> FiniteGroup:
    """s^a t^b (0 <= a < m, b in {0, 1}) with t s t^-1 = s^r and t^2 = s^c,
    so s^a t * s^e = s^(a + r*e) t.  Elements are named as words in the
    two letters for s and t unless `names` maps each (a, b) to a name."""
    keys = [(a, b) for b in range(2) for a in range(m)]
    idx = {k: i for i, k in enumerate(keys)}
    s, t = letters

    def mul(k1, k2):
        (a1, b1), (a2, b2) = k1, k2
        a, b = a1 + (r * a2 if b1 else a2), b1 + b2
        if b == 2:
            a, b = a + c, 0
        return (a % m, b)

    def word(k):
        a, b = k
        w = "*".join(p for p in (f"{s}^{a}" if a > 1 else s * a, t * b) if p)
        return w or "1"

    element_names = [names[k] if names else word(k) for k in keys]
    mult = [[idx[mul(k1, k2)] for k2 in keys] for k1 in keys]
    return FiniteGroup(name, element_names, mult, {s: idx[(1, 0)], t: idx[(0, 1)]},
                       class_reps)


_METACYCLIC = {
    # tag: (m, r, c, letters, class representatives, element names)
    "v2": (2, 1, 0, "ab", ("1", "a", "b", "a*b"), None),
    "d8": (4, -1, 0, "rf", ("1", "r^2", "r", "f", "r*f"), None),
    "q8": (4, -1, 2, "ij", ("1", "-1", "i", "j", "k"),
           {(0, 0): "1", (2, 0): "-1", (1, 0): "i", (3, 0): "-i",
            (0, 1): "j", (2, 1): "-j", (1, 1): "k", (3, 1): "-k"}),
    "sd16": (8, 3, 0, "st", ("1", "s^4", "s", "s^2", "s^5", "t", "t*s"), None),
}


def _canonical_tag(tag: str) -> str:
    """One spelling per builtin group: lowercase, cyclic tags as c<n>."""
    tag = tag.lower()
    if tag.startswith("c") and tag[1:].isdigit():
        return f"c{int(tag[1:])}"
    return tag


@lru_cache(maxsize=None)
def builtin_group(tag: str) -> FiniteGroup:
    """Builtin groups: c1..c64 (cyclic), v2, d8, q8, sd16.  Every spelling
    of a tag gives the same object."""
    if tag != _canonical_tag(tag):
        return builtin_group(_canonical_tag(tag))
    if tag.startswith("c") and tag[1:].isdigit():
        n = int(tag[1:])
        if 1 <= n <= 64:
            return _cyclic_group(n)
        raise UnsupportedGroupError(f"cyclic order {n} out of supported range 1..64")
    if tag not in _METACYCLIC:
        raise UnsupportedGroupError(f"no builtin group {tag!r}")
    return _metacyclic_group(tag, *_METACYCLIC[tag])


# -- character tables -------------------------------------------------------


class CharacterTable:
    """Irreducible characters of a group, one row per irreducible.

    Rows are tuples of CyclotomicNumber indexed by the group's canonical
    class order.  Construction validates row orthonormality exactly.
    """

    def __init__(self, group: FiniteGroup, names: Sequence[str],
                 rows: Sequence[Sequence[Union[int, Fraction, CyclotomicNumber]]],
                 validate: bool = True):
        self.group = group
        self.irreducible_names = tuple(names)
        self.rows = tuple(tuple(_cyc(v) for v in row) for row in rows)
        self._name_index = {n: i for i, n in enumerate(self.irreducible_names)}
        if len(self.rows) != len(group.classes):
            raise ValidationError(
                f"{len(self.rows)} irreducibles for {len(group.classes)} classes")
        for r, row in enumerate(self.rows):
            if len(row) != len(group.classes):
                raise ValidationError(f"irreducible row {r}: expected "
                                      f"{len(group.classes)} values, got {len(row)}")
        self.degrees = tuple(row[0] for row in self.rows)  # chi_r(1) of each row
        if validate:
            self.validate_orthogonality()

    def inner(self, a: Sequence[CyclotomicNumber], b: Sequence[CyclotomicNumber]) -> CyclotomicNumber:
        """Standard character inner product <a, b> = |G|^-1 sum size * a * conj(b)."""
        return hermitian_sum(self.group.class_sizes, a, b, self.group.order)

    def validate_orthogonality(self) -> None:
        """Row orthonormality; for a square table it implies column
        orthogonality.  <b, a> is the conjugate of <a, b>, so the pairs
        j >= i decide it, and the first failure in row order is among
        them."""
        k = len(self.rows)
        for i in range(k):
            for j in range(i, k):
                got = self.inner(self.rows[i], self.rows[j]).as_rational()
                want = 1 if i == j else 0
                if got != want:
                    raise ValidationError(
                        f"row orthogonality fails at rows {i},{j}: <.,.> = {got}")

    def irreducible(self, name: str) -> "VirtualCharacter":
        if name not in self._name_index:
            raise KeyError(f"no irreducible named {name!r} in table for {self.group.name}")
        coeffs = [0] * len(self.rows)
        coeffs[self._name_index[name]] = 1
        return VirtualCharacter(self, tuple(coeffs))

    def trivial(self) -> "VirtualCharacter":
        return self.irreducible(self.irreducible_names[0])

    def constant(self, value: int) -> "VirtualCharacter":
        return self.trivial() * value

    def decompose(self, values: Sequence[CyclotomicNumber]) -> "VirtualCharacter":
        """The virtual character with these exact class-function values; its
        coefficients in the irreducible basis must come out as integers."""
        coeffs = []
        for row in self.rows:
            c = self.inner(values, row).as_rational()
            if c is None or c.denominator != 1:
                raise ValidationError(f"class function is not a virtual character: "
                                      f"coefficient {c} on {row}")
            coeffs.append(int(c))
        return VirtualCharacter(self, coeffs)

    @cached_property
    def _reality(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The Frobenius-Schur indicator and the conjugate-partner index of
        every irreducible, computed once per table.  Each row finds the
        index of its complex conjugate through a dict keyed by the exact
        values, all embedded at one common order.  An irreducible has a
        nonzero indicator exactly when it is its own partner, so only those
        rows are summed over the group."""
        order = math.lcm(*(v.order for row in self.rows for v in row))
        index = {tuple(v.key_at(order) for v in row): j for j, row in enumerate(self.rows)}
        partners = []
        for row in self.rows:
            j = index.get(tuple(v.conjugate().key_at(order) for v in row))
            if j is None:
                raise ValidationError("conjugate character missing from table")
            partners.append(j)
        indicators = tuple(frobenius_schur(self.irreducible(name)) if partners[i] == i else 0
                           for i, name in enumerate(self.irreducible_names))
        return indicators, tuple(partners)


# bounds the exponent, and so the digits, of a character power; the claims use k <= 3
CHARACTER_POWER_CAP = 1024


class VirtualCharacter:
    """Z-linear combination of the irreducibles of a fixed table.  The
    coefficients are its identity; its class-function values are summed
    from them once, and `CharacterTable.decompose` is the way back."""

    def __init__(self, table: CharacterTable, coeffs: Sequence[int]):
        self.table = table
        self.coeffs = tuple(int(c) for c in coeffs)
        if len(self.coeffs) != len(table.rows):
            raise ValueError("coefficient vector does not match the table")

    @property
    def group(self) -> FiniteGroup:
        return self.table.group

    @cached_property
    def values(self) -> tuple[CyclotomicNumber, ...]:
        """The value at each conjugacy class, in the table's class order:
        one integer combination of the rows' values per class."""
        return tuple(integer_combination(self.coeffs, column)
                     for column in zip(*self.table.rows))

    @property
    def dim(self) -> int:
        """sum_r c_r chi_r(1) over the table's row degrees: no class value."""
        r = integer_combination(self.coeffs, self.table.degrees).as_rational()
        if r is None or r.denominator != 1:
            raise ValidationError(f"virtual character {self} has dimension {r}, "
                                  f"not an integer")
        return int(r)

    def _coerce(self, other) -> "VirtualCharacter":
        if isinstance(other, int):
            return self.table.constant(other)
        if isinstance(other, VirtualCharacter):
            if other.table is not self.table:
                raise ValueError("virtual characters live on different tables")
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return VirtualCharacter(self.table, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return VirtualCharacter(self.table, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return VirtualCharacter(self.table, [other * a for a in self.coeffs])
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.table.decompose([a * b for a, b in zip(self.values, o.values)])

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative character powers are not defined")
        if k > CHARACTER_POWER_CAP:
            raise ValidationError(f"character power k = {k} exceeds the cap {CHARACTER_POWER_CAP}")
        return self.table.decompose([v ** k for v in self.values])

    def __eq__(self, other):
        return (isinstance(other, VirtualCharacter) and other.table is self.table
                and other.coeffs == self.coeffs)

    __hash__ = None

    def conjugate(self) -> "VirtualCharacter":
        return self.table.decompose([v.conjugate() for v in self.values])

    def __str__(self) -> str:
        parts = []
        for c, name in zip(self.coeffs, self.table.irreducible_names):
            if c == 0:
                continue
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            parts.append(("- " if c < 0 else "+ " if parts else "") + f"{mag}{name}")
        if not parts:
            return "0"
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out

    __repr__ = __str__


_SQRT2I = root_of_unity(8, 1) + root_of_unity(8, 3)  # sqrt(2) * i, exactly


@lru_cache(maxsize=None)
def character_table(tag: str) -> CharacterTable:
    """Character table of a builtin group (stored data, validated exactly).
    Every spelling of a tag gives the same object."""
    if tag != _canonical_tag(tag):
        return character_table(_canonical_tag(tag))
    group = builtin_group(tag)
    if tag.startswith("c"):
        n = group.order
        names = [f"r{j}" for j in range(n)]
        rows = [[root_of_unity(n, j * k) for k in range(n)] for j in range(n)]
        # row orthogonality for cyclic groups is an exact geometric-sum fact;
        # full validation is n^2/2 Hermitian sums of n terms (0.3-0.7 s at
        # n = 64 on 2 vCPU, CPython 3.11), so cap it; CI validates every
        # cyclic table once
        return CharacterTable(group, names, rows, validate=(n <= 16))
    if tag == "v2":
        names = ["r0", "ka", "kb", "kab"]
        rows = [[1, 1, 1, 1],     # trivial
                [1, 1, -1, -1],   # kernel <a>
                [1, -1, 1, -1],   # kernel <b>
                [1, -1, -1, 1]]   # kernel <a*b>
        return CharacterTable(group, names, rows)
    if tag == "d8":
        # classes [1], [r^2], [r], [f], [r*f]
        names = ["r0", "kr", "kf", "krf", "sg"]
        rows = [[1, 1, 1, 1, 1],
                [1, 1, 1, -1, -1],   # kernel <r>
                [1, 1, -1, 1, -1],   # kernel <r^2, f>
                [1, 1, -1, -1, 1],   # kernel <r^2, rf>
                [2, -2, 0, 0, 0]]
        return CharacterTable(group, names, rows)
    if tag == "q8":
        # classes [1], [-1], [i], [j], [k]
        names = ["r0", "k1", "k2", "k3", "tau"]
        rows = [[1, 1, 1, 1, 1],
                [1, 1, -1, 1, -1],   # kernel <j>
                [1, 1, 1, -1, -1],   # kernel <i>
                [1, 1, -1, -1, 1],   # kernel <k>
                [2, -2, 0, 0, 0]]
        return CharacterTable(group, names, rows)
    if tag == "sd16":
        # classes [1], [s^4], [s], [s^2], [s^5], [t], [t*s]
        names = ["r0", "chi2", "chi3", "chi4", "rho", "rho2", "rho5"]
        rows = [[1, 1, 1, 1, 1, 1, 1],
                [1, 1, 1, 1, 1, -1, -1],       # kernel <s> = C8
                [1, 1, -1, 1, -1, 1, -1],      # kernel <s^2, t> = D8
                [1, 1, -1, 1, -1, -1, 1],      # kernel <s^2, t*s> = Q8
                [2, -2, _SQRT2I, 0, -_SQRT2I, 0, 0],
                [2, 2, 0, -2, 0, 0, 0],
                [2, -2, -_SQRT2I, 0, _SQRT2I, 0, 0]]
        return CharacterTable(group, names, rows)
    raise UnsupportedGroupError(f"no builtin character table for {tag!r}")


def frobenius_schur(chi: VirtualCharacter) -> int:
    """Frobenius-Schur indicator (1/|G|) sum chi(g^2); requires chi irreducible."""
    table = chi.table
    norm = table.inner(chi.values, chi.values).as_rational()
    if norm != 1:
        raise NotIrreducibleError(f"<chi,chi> = {norm}, not 1")
    g = table.group
    squares = [0] * len(g.classes)
    for a in range(g.order):
        squares[g.class_of[g.mul(a, a)]] += 1
    r = hermitian_sum(squares, chi.values, [1] * len(squares), g.order).as_rational()
    if r is None or r.denominator != 1:
        raise ValidationError(f"Frobenius-Schur indicator {r} is not an integer")
    return int(r)


def is_real_type(chi: VirtualCharacter) -> bool:
    """True when chi is a virtual difference of real representations:
    complex irreducibles paired with their conjugates and even
    multiplicity on every quaternionic irreducible."""
    return _reality_check(chi, quaternionic_side=False)


def is_quaternion_type(chi: VirtualCharacter) -> bool:
    """True when chi is a virtual difference of quaternionic representations:
    complex irreducibles conjugate-paired, even multiplicity on every real
    irreducible (a doubled real representation is quaternionic)."""
    return _reality_check(chi, quaternionic_side=True)


def _reality_check(chi: VirtualCharacter, quaternionic_side: bool) -> bool:
    indicators, partners = chi.table._reality
    for i, c in enumerate(chi.coeffs):
        if c == 0:
            continue
        fs = indicators[i]
        if fs == 0:
            if chi.coeffs[partners[i]] != c:
                return False
        elif fs == (1 if quaternionic_side else -1):
            if c % 2 != 0:
                return False
    return True


# -- inclusions -------------------------------------------------------------


class InclusionMap:
    """Injective homomorphism H -> G recorded on all elements.

    Built from generator images and checked on the generators; composition
    goes through `element_map`.  `class_map[c]` is the target class of the
    source class c, and the branching matrix of `restrict_virtual` reads
    the ambient rows through it.  Equal source, target and element map: equal maps.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup,
                 element_map: Sequence[int]):
        self.source = source
        self.target = target
        self.element_map = tuple(element_map)
        self._validate()
        self.class_map = tuple(target.class_of[self.element_map[cls[0]]]
                               for cls in source.classes)
        self._key = (source, target, self.element_map)

    def __eq__(self, other):
        return isinstance(other, InclusionMap) and other._key == self._key

    def __hash__(self) -> int:
        return hash(self._key)

    @staticmethod
    def from_images(source: FiniteGroup, target: FiniteGroup,
                    images: Mapping[str, Union[str, int]]) -> "InclusionMap":
        for gen_name in images:
            if gen_name not in source.generators:
                raise NotASubgroupMapError(f"{source.name} has no generator {gen_name!r}")
        img: dict[int, int] = {0: 0}
        for gen_name, gen_idx in source.generators.items():
            if gen_name not in images:
                raise NotASubgroupMapError(f"missing image for generator {gen_name!r}")
            value = images[gen_name]
            img[gen_idx] = target.element(value) if isinstance(value, str) else int(value)
        # close under multiplication by generators (source is generated by them)
        frontier = list(img)
        while frontier:
            new = []
            for x in frontier:
                for gen_idx in source.generators.values():
                    y = source.mul(x, gen_idx)
                    if y not in img:
                        img[y] = target.mul(img[x], img[gen_idx])
                        new.append(y)
            frontier = new
        if len(img) != source.order:
            raise NotASubgroupMapError("generator images do not generate the source group")
        return InclusionMap(source, target, [img[x] for x in range(source.order)])

    def _validate(self) -> None:
        if len(self.element_map) != self.source.order:
            raise NotASubgroupMapError("element map has the wrong length")
        if len(set(self.element_map)) != self.source.order:
            raise NotASubgroupMapError("map is not injective")
        # phi(x*s) = phi(x)*phi(s) for the generators s that generate the
        # source, and phi(1) = 1, give phi(x*w) = phi(x)*phi(w) for every
        # word w by induction on its length
        phi, source_mult, target_mult = self.element_map, self.source.mult, self.target.mult
        if phi[0] != 0:
            raise NotASubgroupMapError("map is not a homomorphism")
        for s in self.source.generators.values():
            image = phi[s]
            for x, row in enumerate(source_mult):
                if phi[row[s]] != target_mult[phi[x]][image]:
                    raise NotASubgroupMapError("map is not a homomorphism")

    def then(self, outer: "InclusionMap") -> "InclusionMap":
        if outer.source is not self.target:
            raise NotASubgroupMapError("inclusions do not compose")
        return InclusionMap(self.source, outer.target,
                            [outer.element_map[x] for x in self.element_map])

    def __repr__(self) -> str:
        return f"InclusionMap({self.source.name} -> {self.target.name})"


def restrict_virtual(chi: VirtualCharacter, inclusion: InclusionMap) -> VirtualCharacter:
    """Restriction along H -> G, re-expressed exactly in H's irreducible basis."""
    if chi.group is not inclusion.target:
        raise ValueError("character is not defined on the inclusion's target group")
    return VirtualCharacter(character_table(inclusion.source.name),
                            builtin_coefficients(chi, inclusion))


def builtin_coefficients(chi: VirtualCharacter,
                         inclusion: Optional[InclusionMap] = None) -> tuple[int, ...]:
    """The coefficients of chi, restricted along `inclusion` when one is
    given, on the builtin table of its group (of the inclusion's source):
    one integer combination of the rows of `_branching_matrix`.  A builtin
    table without an inclusion is read as it is; no class value is read."""
    if inclusion is None and chi.table is character_table(chi.group.name):
        return chi.coeffs
    matrix = _branching_matrix(chi.table, inclusion)
    out = [0] * len(matrix[0])
    for c, row in zip(chi.coeffs, matrix):
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return tuple(out)


@lru_cache(maxsize=None)
def _branching_matrix(table: CharacterTable,
                      inclusion: Optional[InclusionMap]) -> tuple[tuple[int, ...], ...]:
    """Row r is irreducible r of `table`, restricted along `inclusion` (if
    any), on the builtin table of the source group: one decomposition per
    row, built once per (table, inclusion).  The rows of a table given in
    any order or basis, a `table_from_json` table among them, come out on
    the one builtin basis.  Equal inclusions share one matrix."""
    group = table.group if inclusion is None else inclusion.source
    class_map = range(len(group.classes)) if inclusion is None else inclusion.class_map
    builtin = character_table(group.name)
    return tuple(builtin.decompose([row[c] for c in class_map]).coeffs for row in table.rows)


# generator images of the named subgroups, keyed by (group, subgroup)
NAMED_INCLUSIONS = {
    ("sd16", "q8"): {"i": "s^2", "j": "s*t"},
    ("sd16", "c8"): {"g": "s"},
    ("sd16", "c2"): {"g": "t"},
    ("sd16", "c4"): {"g": "s^2"},
    ("q8", "c4"): {"g": "i"},
    ("d8", "v2"): {"a": "f", "b": "r^2*f"},
}


@lru_cache(maxsize=None)
def named_inclusion(group: str, subgroup: str) -> InclusionMap:
    """The inclusion of `NAMED_INCLUSIONS[(group, subgroup)]`, built once."""
    return InclusionMap.from_images(builtin_group(subgroup), builtin_group(group),
                                    NAMED_INCLUSIONS[(group, subgroup)])


# -- fixed-point-free unitary representations --------------------------------


class FreeUnitaryRep:
    """A fixed-point-free unitary representation given by eigenvalue data.

    `eigen_exponents[c]` lists, for the conjugacy class c, the exponents k
    of the eigenvalues zeta_root_order^k (with multiplicity).  Construct
    through `cyclic_free_rep` or `quaternion_free_rep`; raw eigenvalue
    tables that fail the representation invariants are rejected here.

    `chern`, when given, makes this the fibre data of a sphere bundle over
    S^2: `chern[j]` is the first Chern number of the line bundle that
    carries the j-th eigenvalue slot of every class.
    """

    def __init__(self, group: FiniteGroup, dimension: int, root_order: int,
                 eigen_exponents: Sequence[Sequence[int]],
                 det_sqrt: Sequence[CyclotomicNumber],
                 chern: Optional[Sequence[int]] = None):
        self.group = group
        self.dimension = dimension
        self.root_order = root_order
        self.eigen_exponents = tuple(tuple(e % root_order for e in exps)
                                     for exps in eigen_exponents)
        self.det_sqrt = tuple(det_sqrt)
        self.chern = None if chern is None else tuple(int(c) for c in chern)
        if len(self.eigen_exponents) != len(group.classes):
            raise ValueError("eigenvalue data must cover every conjugacy class")
        if len(self.det_sqrt) != len(group.classes):
            raise ValueError("det_sqrt must cover every conjugacy class")
        if any(len(exps) != dimension for exps in self.eigen_exponents):
            raise ValueError("each class needs exactly `dimension` eigenvalues")
        if self.chern is not None and len(self.chern) != dimension:
            raise ValueError("chern data must give one number per eigenvalue slot")
        if any(e != 0 for e in self.eigen_exponents[0]):
            raise ValueError("identity class must have all eigenvalues 1")
        for c, exps in enumerate(self.eigen_exponents[1:], start=1):
            if any(e % root_order == 0 for e in exps):
                raise NotFreeError(f"unit eigenvalue at non-identity class {c}")
        for c, exps in enumerate(self.eigen_exponents):
            det = root_of_unity(root_order, sum(exps))
            if self.det_sqrt[c] * self.det_sqrt[c] != det:
                raise ValueError(f"det_sqrt^2 != det at class {c}")


# bound the dimension, and so the work, of one sum; the claims use k <= 17
# and at most 132 lens weights (the lens rows of dimension 263, m = 32)
LENS_WEIGHT_CAP = 256
QUATERNION_K_CAP = 1024


def free_action_data(l: int, a: Sequence[int], chern: Optional[Sequence[int]] = None
                     ) -> tuple[tuple[int, ...], Optional[tuple[int, ...]]]:
    """The weights and Chern numbers as int tuples, after the free-action
    rules of a lens space S^(2n-1)/C_l: a nonempty even number of weights,
    at most `LENS_WEIGHT_CAP`, every weight odd and coprime to l.  Weight
    errors come before Chern errors, and l must name a builtin cyclic
    group."""
    a = tuple(int(x) for x in a)
    if not a:
        raise ValidationError("the weight tuple must not be empty")
    if len(a) > LENS_WEIGHT_CAP:
        raise ValidationError(f"{len(a)} weights exceed the cap {LENS_WEIGHT_CAP}")
    if len(a) % 2 != 0:
        raise OddLengthError("weight tuple must have even length")
    if any(x % 2 == 0 for x in a):
        raise NotFreeError("every weight must be odd for a free action")
    if any(math.gcd(x, l) != 1 for x in a):
        raise NotFreeError(f"every weight must be coprime to l = {l} "
                           f"for a free action")
    chern = None if chern is None else tuple(int(c) for c in chern)
    if chern is not None and len(chern) != len(a):
        raise ValueError("chern data must match the weight tuple")
    builtin_group(f"c{l}")
    return a, chern


def cyclic_free_rep(l: int, a: Sequence[int],
                    chern: Optional[Sequence[int]] = None) -> FreeUnitaryRep:
    """The C_l representation sum of rho_{a_j}, for weights that pass
    `free_action_data`.  The square root of the determinant is
    rho_{(sum a_j)/2}; sum a_j is even, so it exists for every l.

    `chern` attaches the line-bundle Chern numbers of a lens-space bundle
    (see `FreeUnitaryRep`).  Each (l, a, chern) is built once.
    """
    return _cyclic_free_rep(l, *free_action_data(l, a, chern))


@lru_cache(maxsize=None)
def _cyclic_free_rep(l: int, a: tuple[int, ...],
                     chern: Optional[tuple[int, ...]]) -> FreeUnitaryRep:
    group = builtin_group(f"c{l}")
    half = sum(a) // 2
    exps = [tuple(k * x % l for x in a) for k in range(l)]
    det_sqrt = [root_of_unity(l, k * half) for k in range(l)]
    return FreeUnitaryRep(group, len(a), l, exps, det_sqrt, chern)


def quaternion_free_rep(k: int = 0) -> FreeUnitaryRep:
    """The (k+1)-fold sum of the 2-dimensional representation of Q8,
    for 0 <= k <= QUATERNION_K_CAP.

    Eigenvalues: -1 twice per copy at the central class, +-i once each per
    copy at the three order-4 classes.  Its determinant is trivial, and the
    square root of the determinant is taken to be the trivial character.
    Each k is built once.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > QUATERNION_K_CAP:
        raise ValueError(f"k = {k} exceeds the cap {QUATERNION_K_CAP}")
    return _quaternion_free_rep(k)


@lru_cache(maxsize=None)
def _quaternion_free_rep(k: int) -> FreeUnitaryRep:
    group = builtin_group("q8")
    m = k + 1
    exps = [(0, 0) * m,       # [1]
            (2, 2) * m,       # [-1]
            (1, 3) * m,       # [i]
            (1, 3) * m,       # [j]
            (1, 3) * m]       # [k]
    one = _cyc(1)
    return FreeUnitaryRep(group, 2 * m, 4, exps, [one] * 5)


# -- structured-text ingestion ------------------------------------------------


def table_from_json(data: Union[str, dict]) -> CharacterTable:
    """Build a user-supplied character table from JSON.

    Expected fields: `group` (a builtin tag), `classes` (list of
    {name, size} matching the builtin class order), `irreducibles`
    (list of {name, values} with values in the cyclotomic text format).
    Validation failures name the offending row/class index.
    """
    if isinstance(data, str):
        data = json.loads(data)
    data = check_json(data, dict, "a character table")
    if "group" not in data:
        raise ValidationError("missing field 'group'")
    group = builtin_group(check_json(data["group"], str, "'group'"))
    classes = data.get("classes")
    if classes is not None:
        if len(check_json(classes, list, "'classes'")) != len(group.classes):
            raise ValidationError(f"expected {len(group.classes)} classes, "
                                  f"got {len(classes)}")
        for ci, cls in enumerate(classes):
            size = check_json(cls, dict, f"class {ci}")["size"]
            if check_json_int(size, f"class {ci}: 'size'") != group.class_sizes[ci]:
                raise ValidationError(f"class {ci}: size {size} != "
                                      f"{group.class_sizes[ci]}")
    rows, names = [], []
    for ri, irr in enumerate(check_json(data.get("irreducibles", []), list,
                                        "'irreducibles'")):
        irr = check_json(irr, dict, f"irreducible row {ri}")
        names.append(irr.get("name", f"x{ri}"))
        values = []
        for ci, text in enumerate(check_json(irr["values"], list,
                                             f"irreducible row {ri}: 'values'")):
            try:
                values.append(parse_cyclotomic(text) if isinstance(text, str)
                              else _cyc(text))
            except (ValueError, ArithmeticError, TypeError) as exc:
                raise ValidationError(f"irreducible row {ri}, class {ci}: {exc}")
        rows.append(values)
    try:
        return CharacterTable(group, names, rows)
    except ValidationError as exc:
        raise ValidationError(f"character table for {group.name}: {exc}")
