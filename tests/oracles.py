"""Reference oracles the tests check the engines against.  Each shares no
code with the path it checks.

- `validate_dimensions`: the graded dimensions of a presented F2 algebra's
  rewriting basis against `brute_quotient_dimension`, the GF(2) rank of
  every free relation multiple in each degree.  A disagreement means the
  rewriting system is not confluent.
- `in_relation_ideal` and `free_product`: a product of the rewriting
  path, less the product of the same monomials in the free algebra, must
  lie in the relation ideal; membership is the same GF(2) rank test over
  the free relation multiples.
- `validate_columns`: column orthogonality of a character table.  Row
  orthonormality of a square table implies it, and construction checks the
  rows; this is the independent check on the columns.
- `hermitian_sum_per_term`: sum w * x * conj(y) / divisor with one field
  product, conjugation and sum per term, the oracle of
  `exactnum.hermitian_sum`, which lifts the values into one integer
  polynomial and reduces it once.
- `values_by_term`: the class values of a virtual character summed one
  term c * value at a time in the field, the oracle of
  `VirtualCharacter.values`, which reduces one integer combination per
  class once.
"""

from fractions import Fraction

from etakit.exactnum import CyclotomicNumber
from etakit.f2ring import gf2_echelon


class NonConfluentPresentationError(ValueError):
    pass


def gf2_rank(rows) -> int:
    return len(gf2_echelon(rows))


def free_monomials(alg, n: int) -> list:
    """Every exponent tuple of degree n, in ascending lexicographic order;
    an explicit-stack loop that shares no code with `graded_basis`."""
    degs = alg.gen_degrees
    if not degs:
        return [()] if n == 0 else []
    last = len(degs) - 1
    out = []
    stack = [((), n)]
    while stack:
        prefix, remaining = stack.pop()
        step = degs[len(prefix)]
        if len(prefix) == last:
            # the last exponent is forced by the degree
            if remaining % step == 0:
                out.append(prefix + (remaining // step,))
            continue
        for e in range(remaining // step, -1, -1):
            stack.append((prefix + (e,), remaining - e * step))
    return out


def _relation_multiples(alg, n: int):
    """The free monomials of degree n with their positions, and every free
    relation multiple of degree n as a bitmask over those positions."""
    mons = free_monomials(alg, n)
    index = {m: i for i, m in enumerate(mons)}
    rows = []
    for rel in alg.raw_relations:
        if not rel:
            continue
        d = alg.monomial_degree(next(iter(rel)))
        if d > n:
            continue
        for m in free_monomials(alg, n - d):
            row = 0
            for t in rel:
                row ^= 1 << index[tuple(a + b for a, b in zip(m, t))]
            rows.append(row)
    return index, rows


def brute_quotient_dimension(alg, n: int) -> int:
    """dim of degree n in the quotient, computed by GF(2) rank over all free
    relation multiples of that degree."""
    index, rows = _relation_multiples(alg, n)
    return len(index) - gf2_rank(rows)


def free_product(a, b) -> set:
    """The product of two sums of exponent tuples in the free algebra, each
    monomial counted mod 2."""
    out: set = set()
    for m1 in a:
        for m2 in b:
            out ^= {tuple(x + y for x, y in zip(m1, m2))}
    return out


def in_relation_ideal(alg, n: int, poly) -> bool:
    """Whether a sum of exponent tuples of degree n, each counted mod 2,
    lies in the degree-n part of the relation ideal: adding it to the
    relation multiples leaves their GF(2) rank unchanged."""
    index, rows = _relation_multiples(alg, n)
    target = 0
    for m in poly:
        target ^= 1 << index[m]
    return gf2_rank(rows + [target]) == gf2_rank(rows)


def validate_dimensions(alg, max_degree: int) -> None:
    """Certify confluence by comparing graded dimensions with the oracle."""
    for n in range(max_degree + 1):
        got = len(alg.graded_basis(n))
        want = brute_quotient_dimension(alg, n)
        if got != want:
            raise NonConfluentPresentationError(
                f"degree {n}: rewriting basis has {got} monomials, "
                f"oracle says {want}")


def validate_columns(table) -> None:
    """sum_chi chi(c) conj(chi(c')) = |G|/|class c| * delta(c, c').  The
    sum at (c', c) is the conjugate of the sum at (c, c'), so c' >= c
    decides it."""
    group, k = table.group, len(table.rows)
    conjugates = [[v.conjugate() for v in row] for row in table.rows]
    for c in range(k):
        for cp in range(c, k):
            total = CyclotomicNumber.from_rational(0)
            for row, conj in zip(table.rows, conjugates):
                total = total + row[c] * conj[cp]
            want = Fraction(group.order, group.class_sizes[c]) if c == cp else 0
            if total.as_rational() != want:
                raise ValueError(f"{group.name}: column orthogonality fails at "
                                 f"classes {c},{cp}")


def hermitian_sum_per_term(weights, xs, ys, divisor):
    """sum w * x * conj(y) / divisor, one term at a time in the field."""
    total = CyclotomicNumber.from_rational(0)
    for w, x, y in zip(weights, xs, ys):
        total = total + w * x * y.conjugate()
    return total * Fraction(1, divisor)


def values_by_term(chi):
    """The class function of chi, summed from the table rows one class at
    a time, one field sum per nonzero coefficient."""
    out = []
    for k in range(len(chi.table.rows)):
        total = CyclotomicNumber.from_rational(0)
        for c, row in zip(chi.coeffs, chi.table.rows):
            if c:
                total = total + c * row[k]
        out.append(total)
    return out
