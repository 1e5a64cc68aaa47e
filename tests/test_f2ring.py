"""Presented F2 algebras: normal forms, bases, homs, Steenrod, duality."""

import functools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from etakit.f2ring import (PACKED_DEGREE_LIMIT, DegeneratePairingError,
                           DegreeBoundExceededError, F2AlgebraElement,
                           F2ParseError, GradedHom,
                           InconsistentSteenrodDataError, PresentedF2Algebra,
                           SteenrodData, circle_bundle_cohomology,
                           circle_bundle_steenrod, circle_bundle_to_lens,
                           d8_to_v2_restriction, dihedral_cohomology,
                           dual_pushforward_map, gf2_echelon,
                           klein_cohomology, lens_space_cohomology,
                           sd_to_circle_bundle, sd_to_d8_restriction,
                           semidihedral_cohomology, semidihedral_steenrod,
                           sq1_branch_data, stiefel_whitney, wu_classes)
from oracles import (NonConfluentPresentationError, brute_quotient_dimension,
                     free_monomials, free_product, in_relation_ideal,
                     validate_dimensions)


@pytest.fixture(scope="module")
def sd():
    return semidihedral_cohomology()


@pytest.fixture(scope="module")
def d8():
    return dihedral_cohomology()


@pytest.fixture(scope="module")
def v2():
    return klein_cohomology()


@pytest.fixture(scope="module")
def m8():
    return circle_bundle_cohomology(4)


class TestNormalForms:
    def test_defining_rewrites(self, sd):
        assert str(sd.parse("x*y")) == "x^2"
        assert str(sd.parse("u*u")) == "x^2*P + y^2*P"

    def test_chain_of_rewrites(self, sd):
        assert str(sd.parse("y*u^3")) == "y^3*u*P"

    def test_idempotent_and_linear(self, sd):
        e = sd.parse("y*u^3 + x*y + u^2")
        assert sd.normal_form(e) == e
        assert sd.parse("x*y + x^2") == sd.zero  # the relation itself
        # each monomial is reduced on its own, so this stays linear in the 4096
        big = sd.parse("y + P") ** 4095
        assert sd.normal_form(big) == big

    def test_total_space_completion(self, m8):
        # s*t -> t^2 forces the derived rule t^3 -> 0
        assert m8.parse("t^3") == m8.zero
        assert str(m8.parse("s*t")) == "t^2"


class TestGradedBases:
    def test_dihedral_degree_three(self, d8):
        assert [d8.format_monomial(m) for m in d8.graded_basis(3)] == \
            ["a^3", "a*d", "b^3", "b*d"]

    def test_klein_degree_two(self, v2):
        assert [v2.format_monomial(m) for m in v2.graded_basis(2)] == \
            ["p^2", "p*q", "q^2"]

    def test_semidihedral_degree_three(self, sd):
        assert [sd.format_monomial(m) for m in sd.graded_basis(3)] == ["y^3", "u"]

    @pytest.mark.parametrize("n", range(13))
    def test_dihedral_rank_n_plus_one(self, d8, n):
        size = len(d8.graded_basis(n))
        assert size == (n + 1 if n > 0 else 1)
        assert size == brute_quotient_dimension(d8, n)

    def test_degree_bound(self):
        alg = dihedral_cohomology(degree_bound=10)
        with pytest.raises(DegreeBoundExceededError):
            alg.graded_basis(11)


class TestConfluenceOracle:
    @pytest.mark.parametrize("factory", [semidihedral_cohomology,
                                         dihedral_cohomology, klein_cohomology])
    def test_group_cohomologies(self, factory):
        validate_dimensions(factory(), 32)

    def test_total_space(self, m8):
        validate_dimensions(m8, 8)
        # every degree above the formal dimension vanishes
        assert all(len(m8.graded_basis(n)) == 0 for n in range(9, 16))

    def test_semidihedral_basis_shape(self, sd):
        # normal basis: y^a P^c, y^a u P^c, x P^c, x^2 P^c
        for n in range(2, 20):
            expected = set()
            for c in range(n // 4 + 1):
                if n - 4 * c >= 0:
                    expected.add((0, n - 4 * c, 0, c))
                if n - 4 * c - 3 >= 0:
                    expected.add((0, n - 4 * c - 3, 1, c))
            if (n - 1) % 4 == 0:
                expected.add((1, 0, 0, (n - 1) // 4))
            if (n - 2) % 4 == 0:
                expected.add((2, 0, 0, (n - 2) // 4))
            assert set(sd.graded_basis(n)) == expected


BUILTIN_PRESENTATIONS = (
    [pytest.param(functools.partial(f, 128), id=name)
     for name, f in (("sd", semidihedral_cohomology), ("d8", dihedral_cohomology),
                     ("v2", klein_cohomology))]
    + [pytest.param(functools.partial(circle_bundle_cohomology, n), id=f"m{2 * n}")
       for n in (2, 3, 8, 33)]
    + [pytest.param(functools.partial(lens_space_cohomology, n), id=f"lens{2 * n - 1}")
       for n in (2, 5, 16)])


def assert_walk_matches_oracle(alg, max_degree):
    """The staircase walk against the oracle's free monomials, filtered by
    every rule lead and sorted, in every degree up to max_degree."""
    supports = [[(j, e) for j, e in enumerate(alg._unpack(lead)) if e]
                for lead, _ in alg._rules]
    for n in range(max_degree + 1):
        want = sorted((m for m in free_monomials(alg, n)
                       if not any(all(m[j] >= e for j, e in s) for s in supports)),
                      reverse=True)
        assert alg.graded_basis(n) == want, n


@st.composite
def random_presentations(draw):
    """2-4 generators of degree 1-4 under 1-3 random homogeneous relations
    and a random precedence."""
    degrees = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4))
    gens = [(f"g{i}", d) for i, d in enumerate(degrees)]
    free = PresentedF2Algebra("free", gens, [])
    relations = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        d = draw(st.sampled_from([d for d in range(1, 7) if free_monomials(free, d)]))
        mons = free_monomials(free, d)
        relations.append(draw(st.sets(st.sampled_from(mons), min_size=1,
                                      max_size=min(3, len(mons)))))
    precedence = draw(st.permutations([name for name, _ in gens]))
    return PresentedF2Algebra("random", gens, relations, degree_bound=12,
                              precedence=precedence)


class TestStaircaseEnumeration:
    @pytest.mark.parametrize("factory", BUILTIN_PRESENTATIONS)
    def test_matches_filtered_free_monomials(self, factory):
        alg = factory()
        assert_walk_matches_oracle(alg, alg.degree_bound)

    @settings(max_examples=150, deadline=None)
    @given(alg=random_presentations())
    def test_random_presentations(self, alg):
        assert_walk_matches_oracle(alg, 12)

    def test_poincare_check_lists_one_degree(self):
        # the Poincare check needs its top degree only; no lower degree is
        # built or cached on the way
        alg = circle_bundle_cohomology(50000)
        assert list(alg._basis_cache) == [100000]

    def test_free_monomials_in_ascending_order(self, sd):
        for n in range(12):
            mons = free_monomials(sd, n)
            assert mons == sorted(mons)
            assert all(sd.monomial_degree(m) == n for m in mons)
        assert len(free_monomials(sd, 4)) == 5 + 2 + 1  # in x, y; one x or y with u; P

    def test_unit_lead_leaves_no_basis(self):
        alg = PresentedF2Algebra("zero", [("a", 1)], ["1"], degree_bound=4)
        assert all(alg.graded_basis(n) == [] for n in range(5))
        assert brute_quotient_dimension(alg, 0) == 0


class TestNormalFormCache:
    def test_cached_reduction_matches_uncached(self, sd, m8):
        for alg in (sd, m8):
            for n in range(13):
                for m in map(alg._pack, free_monomials(alg, n)):
                    want = alg._reduce_poly({m})
                    assert alg._reduce_monomial(m) == want
                    assert alg._nf_cache[m] == want
                    assert alg._reduce_monomial(m) == want

    def test_parsing_before_completion_leaves_no_stale_entry(self):
        # relation strings are parsed while no rule exists, which caches s*t
        # as normal; the cache is emptied once the rules are final
        alg = circle_bundle_cohomology(4)
        assert all(nf == alg._reduce_poly({m}) for m, nf in alg._nf_cache.items())
        assert str(alg.parse("s*t")) == "t^2"
        assert alg._nf_cache[alg._pack((1, 1, 0))] == alg._reduce_poly({alg._pack((0, 2, 0))})

    def test_bound_guard_on_every_call(self):
        alg = semidihedral_cohomology(degree_bound=4)
        assert alg._truncated
        raw = alg._pack((0, 5, 0, 0))
        for _ in range(2):
            with pytest.raises(DegreeBoundExceededError):
                alg._reduce_monomial(raw)
        assert raw not in alg._nf_cache


class TestPackedMonomials:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_integer_order_is_the_monomial_order(self, data):
        # degree first, then the exponents in precedence order u, y, x, P
        sd = semidihedral_cohomology()
        m1, m2 = draw_monomial(data, sd, 20), draw_monomial(data, sd, 20)

        def key(m):
            return (sd.monomial_degree(m), m[2], m[1], m[0], m[3])

        p1, p2 = sd._pack(m1), sd._pack(m2)
        assert (sd._unpack(p1), sd._unpack(p2)) == (m1, m2)
        assert (p1 < p2) == (key(m1) < key(m2))
        assert p1 + p2 == sd._pack(tuple(a + b for a, b in zip(m1, m2)))
        assert sd._divides(p1, p2) == all(a <= b for a, b in zip(m1, m2))

    @pytest.mark.parametrize("degrees", [(), (2,), (1, 3), (1, 1, 3, 4)])
    def test_unpack_at_every_generator_count(self, degrees):
        alg = PresentedF2Algebra("w", [(f"g{i}", d) for i, d in enumerate(degrees)], [],
                                 precedence=[f"g{i}" for i in range(len(degrees))][::-1])
        for m in [(0,) * len(degrees), tuple(range(5, 5 + len(degrees)))]:
            assert alg._unpack(alg._pack(m)) == m
            assert m in alg.graded_basis(alg.monomial_degree(m))  # a free algebra

    def test_power_past_the_width(self, sd):
        top = PACKED_DEGREE_LIMIT - 1
        assert str(sd.parse("y") ** top) == f"y^{top}"
        with pytest.raises(DegreeBoundExceededError, match="packed monomial limit"):
            sd.parse("y") ** PACKED_DEGREE_LIMIT
        # the degree counts, not the exponent: P has degree 4
        with pytest.raises(DegreeBoundExceededError, match="packed monomial limit"):
            sd.parse("P") ** (PACKED_DEGREE_LIMIT // 4)

    def test_parse_past_the_width(self, sd):
        with pytest.raises(DegreeBoundExceededError, match="packed monomial limit"):
            sd.parse(f"y^{PACKED_DEGREE_LIMIT}")
        with pytest.raises(DegreeBoundExceededError, match="packed monomial limit"):
            sd.parse(f"y^{PACKED_DEGREE_LIMIT - 1} * (x + y)")

    def test_tuples_past_the_width(self, v2):
        top = PACKED_DEGREE_LIMIT - 1
        assert F2AlgebraElement(v2, {(top, 0)}) == v2.parse(f"p^{top}")
        with pytest.raises(DegreeBoundExceededError, match="packed monomial limit"):
            F2AlgebraElement(v2, {(top, 1)})
        with pytest.raises(DegreeBoundExceededError, match="packed monomial limit"):
            v2.normal_form([(PACKED_DEGREE_LIMIT, 0)])
        with pytest.raises(ValueError, match="negative exponent"):
            v2.normal_form([(-1, 2)])
        with pytest.raises(ValueError, match="needs 2 exponents"):
            v2.normal_form([(1,)])

    def test_degree_past_the_width(self):
        alg = PresentedF2Algebra("wide", [("g", 1)], [], degree_bound=PACKED_DEGREE_LIMIT)
        with pytest.raises(DegreeBoundExceededError, match="packed monomial limit"):
            alg.graded_basis(PACKED_DEGREE_LIMIT)


class TestConfluenceFailureDetection:
    def test_tampered_system_is_caught(self):
        # drop the completion-derived rule t^3 -> 0; the dimension oracle
        # must notice the disagreement
        alg = circle_bundle_cohomology(4)
        alg._rules = [r for r in alg._rules if r[0] != alg._pack((0, 3, 0))]
        alg._basis_cache.clear()
        with pytest.raises(NonConfluentPresentationError):
            validate_dimensions(alg, 8)


class TestParser:
    def test_unknown_generator_position(self, sd):
        with pytest.raises(F2ParseError) as err:
            sd.parse("x*w + y")
        assert err.value.col == 3

    def test_dangling_exponent(self, sd):
        with pytest.raises(F2ParseError):
            sd.parse("y*u^")

    def test_integer_literals(self, sd):
        assert sd.parse("3") == sd.one
        assert sd.parse("2") == sd.zero
        assert sd.parse("1 + x + x") == sd.one

    def test_multiline_position(self, sd):
        with pytest.raises(F2ParseError) as err:
            sd.parse("x +\n q")
        assert (err.value.line, err.value.col) == (2, 2)


class TestHoms:
    def test_dihedral_to_klein_images(self, d8, v2):
        f = d8_to_v2_restriction(d8, v2)
        assert str(f("d")) == "p*q + q^2"
        assert f("b") == v2.zero

    def test_semidihedral_to_dihedral(self, sd, d8):
        f = sd_to_d8_restriction(sd, d8)
        assert str(f("y*u*P")) == "a^2*d^3"

    def test_identity_hom(self, sd):
        ident = GradedHom(sd, sd, {g: g for g in sd.gen_names})
        for expr in ("y*u^3", "P^2 + x^2*P", "u"):
            e = sd.parse(expr)
            assert ident(e) == e

    def test_relation_violation_rejected(self, sd, d8):
        with pytest.raises(ValueError, match="does not map to zero"):
            GradedHom(sd, d8, {"x": "a", "y": "a", "u": "a*d", "P": "d^2"})

    def test_multiplicativity_on_random_elements(self, sd, d8):
        f = sd_to_d8_restriction(sd, d8)
        rng = random.Random(11)
        for _ in range(15):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            e1 = F2AlgebraElement(sd, frozenset(
                rng.sample(sd.graded_basis(n1), min(2, len(sd.graded_basis(n1))))))
            e2 = F2AlgebraElement(sd, frozenset(
                rng.sample(sd.graded_basis(n2), min(2, len(sd.graded_basis(n2))))))
            assert f(e1 * e2) == f(e1) * f(e2)
            assert f(e1 + e1) == d8.zero


class TestRingLaws:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_associative_commutative(self, data):
        sd = semidihedral_cohomology()
        picks = []
        for _ in range(3):
            n = data.draw(st.integers(min_value=1, max_value=6))
            basis = sd.graded_basis(n)
            mons = data.draw(st.sets(st.sampled_from(basis), max_size=2))
            picks.append(F2AlgebraElement(sd, frozenset(mons)))
        a, b, c = picks
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestDualPushforward:
    def test_klein_to_dihedral_degree_six(self, d8, v2):
        f = d8_to_v2_restriction(d8, v2)
        push = dual_pushforward_map(f, 6)
        assert push[(3, 3)] == frozenset({(0, 0, 3)})  # xi(p^3 q^3) -> xi(d^3)

    def test_dihedral_to_semidihedral_singletons(self, sd, d8):
        f = sd_to_d8_restriction(sd, d8)
        for n in range(4, 24, 2):
            push = dual_pushforward_map(f, n)
            for i in range(2, n, 2):
                for j in range(1, n, 2):
                    if i + 2 * j == n:
                        assert push[(i, 0, j)] == \
                            frozenset({(0, i - 1, 1, (j - 1) // 2)})

    def test_zero_hom_gives_zero_matrix(self, v2):
        trivial = PresentedF2Algebra("pt", [("e", 1)], ["e"])
        f = GradedHom(v2, trivial, {"p": 0, "q": 0})
        push = dual_pushforward_map(f, 2)
        assert all(not support for support in push.values())

    def test_transpose_duality(self, sd, d8):
        f = sd_to_d8_restriction(sd, d8)
        for n in (5, 8, 11):
            src, tgt = sd.graded_basis(n), d8.graded_basis(n)
            push = dual_pushforward_map(f, n)
            assert list(push) == tgt
            for t in tgt:
                for s in src:
                    image = f(F2AlgebraElement(sd, frozenset({s})))
                    assert (s in push[t]) == (t in image.monomials)


# The per-factor loops that `_monomial_value` replaced, kept as references.


def reference_apply_monomial(hom, m):
    out = hom.target.one
    for img, e in zip(hom.images, m):
        for _ in range(e):
            out = out * img
    return out


def generator_squares(data, gi):
    """[Sq^0(g), ..., Sq^deg(g)] for the generator g of index gi."""
    alg = data.algebra
    gen = alg.gen(alg.gen_names[gi])
    return [data.sq(i, gen) for i in range(alg.gen_degrees[gi] + 1)]


def reference_monomial_series(data, m):
    """[Sq^0(m), Sq^1(m), ...]: one convolution of square series per factor."""
    alg = data.algebra
    series = [alg.one]
    for gi, e in enumerate(m):
        row = generator_squares(data, gi)
        for _ in range(e):
            out = [alg.zero] * (len(series) + len(row) - 1)
            for i, a in enumerate(series):
                for j, b in enumerate(row):
                    out[i + j] = out[i + j] + a * b
            series = out
    return series


def reference_sq(data, i, e):
    out = data.algebra.zero
    for m in e.monomials:
        series = reference_monomial_series(data, m)
        if i < len(series):
            out = out + series[i]
    return out


@functools.cache
def monomial_maps():
    sd, d8, v2 = semidihedral_cohomology(), dihedral_cohomology(), klein_cohomology()
    return {"sd->d8": sd_to_d8_restriction(sd, d8),
            "d8->v2": d8_to_v2_restriction(d8, v2),
            "sd->m16": sd_to_circle_bundle(sd, circle_bundle_cohomology(8))}


@functools.cache
def steenrod_data():
    m16 = circle_bundle_cohomology(8)
    return {"sd": semidihedral_steenrod(semidihedral_cohomology()),
            "m16": sq1_branch_data(m16)[0][1]}


def draw_monomial(data, algebra, max_degree):
    """An exponent tuple of total degree at most max_degree."""
    remaining = data.draw(st.integers(min_value=0, max_value=max_degree))
    exps = [0] * len(algebra.gen_degrees)
    for i in data.draw(st.permutations(range(len(exps)))):
        exps[i] = data.draw(st.integers(min_value=0,
                                        max_value=remaining // algebra.gen_degrees[i]))
        remaining -= exps[i] * algebra.gen_degrees[i]
    return tuple(exps)


def draw_element(data, algebra, max_degree=8):
    """A sum of up to three distinct normal-form monomials of one degree."""
    n = data.draw(st.integers(min_value=0, max_value=max_degree))
    basis = algebra.graded_basis(n)
    if not basis:
        return algebra.zero
    return F2AlgebraElement(algebra, frozenset(
        data.draw(st.sets(st.sampled_from(basis), max_size=3))))


class TestMonomialMaps:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["sd->d8", "d8->v2", "sd->m16"]))
    def test_hom_images_match_per_factor_loop(self, data, name):
        warm = monomial_maps()[name]
        cold = GradedHom(warm.source, warm.target,
                         dict(zip(warm.source.gen_names, warm.images)))
        m = draw_monomial(data, warm.source, 48)
        want = reference_apply_monomial(warm, m)
        p = warm.source._pack(m)
        assert cold._apply_monomial(p) == warm._apply_monomial(p) == want
        e = warm.source.normal_form([m])
        assert warm(e) == sum((reference_apply_monomial(warm, n) for n in e.monomials),
                              warm.target.zero)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["sd", "m16"]))
    def test_squares_match_per_factor_loop(self, data, name):
        steenrod = steenrod_data()[name]
        algebra = steenrod.algebra
        m = draw_monomial(data, algebra, 48)
        assert steenrod._total_square(algebra._pack(m)) == sum(
            reference_monomial_series(steenrod, m), algebra.zero)
        e = algebra.normal_form([m])
        for i in range(algebra.monomial_degree(m) + 2):
            assert steenrod.sq(i, e) == reference_sq(steenrod, i, e)

    def test_exponent_above_recursion_limit(self, v2):
        swap = GradedHom(v2, v2, {"p": "q", "q": "p"})
        k = sys.getrecursionlimit() + 10
        assert swap._apply_monomial(v2._pack((0, k))) == \
            F2AlgebraElement(v2, frozenset({(k, 0)}))
        assert swap(v2.parse(f"p*q^{k}")) == v2.parse(f"p^{k}*q")

    @pytest.mark.parametrize("expr", ["x", "y + u", "x + y", "P + y^4 + u*x"])
    def test_power_by_squaring_matches_repeated_product(self, sd, expr):
        e = sd.parse(expr)
        product = sd.one
        for k in range(9):
            assert e ** k == product
            product = product * e

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["sd", "m16"]))
    def test_power_matches_repeated_product_up_to_40(self, data, name):
        algebra = steenrod_data()[name].algebra
        e = draw_element(data, algebra)
        k = data.draw(st.integers(min_value=0, max_value=40))
        product = algebra.one
        for _ in range(k):
            product = product * e
        assert e ** k == product

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["sd", "m16"]))
    def test_square_is_frobenius(self, data, name):
        # (a + b)^2 = a^2 + b^2 in a commutative algebra over F2
        algebra = steenrod_data()[name].algebra
        a, b = draw_element(data, algebra), draw_element(data, algebra)
        assert (a + b) ** 2 == a ** 2 + b ** 2 == (a + b) * (a + b)

    def test_huge_power_of_nilpotent(self, sd):
        assert sd.parse("x") ** 1_000_000_000 == sd.zero
        assert str(sd.parse("y") ** 1_000_000_000) == "y^1000000000"
        with pytest.raises(ValueError):
            sd.parse("x") ** -1

    def test_product_cap(self, sd):
        with pytest.raises(DegreeBoundExceededError, match="exceeds the cap"):
            sd.parse("y + u + P") ** 4095
        # below the cap: every C(1023, j) is odd, so no term cancels
        assert len((sd.parse("y + P") ** 1023).monomials) == 1024


PRODUCT_ALGEBRAS = {"sd": semidihedral_cohomology, "d8": dihedral_cohomology,
                    "v2": klein_cohomology,
                    "m16": functools.partial(circle_bundle_cohomology, 8),
                    "lens7": functools.partial(lens_space_cohomology, 4)}


@functools.cache
def product_algebra(name):
    return PRODUCT_ALGEBRAS[name]()


def assert_reduces(alg, n, free, got):
    """`got`, an element of degree n (or 0), is a normal form of the free
    polynomial `free`: its monomials lie in the graded basis, and the two
    differ by an element of the relation ideal."""
    assert got.monomials <= set(alg.graded_basis(n))
    assert in_relation_ideal(alg, n, set(free) ^ got.monomials)


class TestProductOracle:
    """Products, powers and monomial maps against the free algebra modulo
    the relation ideal, an oracle that shares no code with rewriting."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(PRODUCT_ALGEBRAS)))
    def test_product(self, data, name):
        alg = product_algebra(name)
        a, b = draw_element(data, alg, 6), draw_element(data, alg, 6)
        product = a * b
        if a.is_zero() or b.is_zero():
            assert product.is_zero()
            return
        assert_reduces(alg, a.degree() + b.degree(),
                       free_product(a.monomials, b.monomials), product)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(sorted(PRODUCT_ALGEBRAS)))
    def test_power_by_frobenius(self, data, name):
        alg = product_algebra(name)
        a = draw_element(data, alg, 3)
        k = data.draw(st.integers(min_value=0, max_value=5))
        if a.is_zero():
            assert a ** k == (alg.one if k == 0 else alg.zero)
            return
        free = {(0,) * len(alg.gen_names)}
        for _ in range(k):
            free = free_product(free, a.monomials)
        assert_reduces(alg, k * a.degree(), free, a ** k)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["sd->d8", "d8->v2", "sd->m16"]))
    def test_hom_monomial_value(self, data, name):
        hom = monomial_maps()[name]
        m = draw_monomial(data, hom.source, 10)
        free = {(0,) * len(hom.target.gen_names)}
        for image, e in zip(hom.images, m):
            for _ in range(e):
                free = free_product(free, image.monomials)
        assert_reduces(hom.target, hom.source.monomial_degree(m), free,
                       hom._apply_monomial(hom.source._pack(m)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["sd", "m16"]))
    def test_total_square_monomial_value(self, data, name):
        steenrod = steenrod_data()[name]
        alg = steenrod.algebra
        m = draw_monomial(data, alg, 6)
        # Sq(m) is the product of the total squares of its generators, of
        # mixed degree: each degree is checked on its own
        free = {(0,) * len(alg.gen_names)}
        for gi, e in enumerate(m):
            total = set().union(*(v.monomials for v in generator_squares(steenrod, gi)))
            for _ in range(e):
                free = free_product(free, total)
        got = steenrod._total_square(alg._pack(m))
        d = alg.monomial_degree(m)
        for n in range(d, 2 * d + 1):
            part = F2AlgebraElement(alg, {t for t in got.monomials
                                          if alg.monomial_degree(t) == n})
            assert_reduces(alg, n, {t for t in free if alg.monomial_degree(t) == n}, part)


class TestSteenrod:
    def test_semidihedral_squares(self, sd):
        data = semidihedral_steenrod(sd)
        assert str(data.sq(2, sd.parse("P"))) == "x^2*P + y^2*P"
        assert data.sq(1, sd.parse("u")) == sd.zero
        assert data.sq(1, sd.parse("x")) == sd.parse("x^2")

    def test_top_square_is_squaring(self, sd):
        data = semidihedral_steenrod(sd)
        for g in sd.gen_names:
            e = sd.gen(g)
            assert data.sq(e.degree(), e) == e * e

    def test_sq_zero_is_identity(self, sd):
        data = semidihedral_steenrod(sd)
        e = sd.parse("y^2*u + x^2*P")
        assert data.sq(0, e) == e

    def test_vanishing_above_degree(self, sd):
        data = semidihedral_steenrod(sd)
        assert data.sq(4, sd.parse("u")) == sd.zero

    def test_bockstein_of_pulled_back_class(self, m8):
        for branch in ("Z*s", "Z*(t+s)"):
            data = circle_bundle_steenrod(m8, m8.parse(branch))
            assert data.sq(1, m8.parse("Z*(t+s)")) == m8.zero

    def test_cartan_formula_sample(self, m8):
        data = circle_bundle_steenrod(m8, m8.parse("Z*s"))
        a, b = m8.parse("Z"), m8.parse("t^2")
        lhs = data.sq(1, a * b)
        rhs = data.sq(1, a) * b + a * data.sq(1, b)
        assert lhs == rhs

    def test_inconsistent_data_rejected(self, sd):
        with pytest.raises(InconsistentSteenrodDataError):
            SteenrodData(sd, {("u", 1): "P", ("u", 2): "y^2*u + y*P + x*P",
                              ("P", 1): 0, ("P", 2): "u^2", ("P", 3): 0})

    def test_missing_value_rejected(self, sd):
        with pytest.raises(InconsistentSteenrodDataError, match="missing"):
            SteenrodData(sd, {("u", 1): 0, ("P", 1): 0, ("P", 2): "u^2",
                              ("P", 3): 0})

    SD_SQUARES = {("u", 1): 0, ("u", 2): "y^2*u + y*P + x*P",
                  ("P", 1): 0, ("P", 2): "u^2", ("P", 3): 0}

    @pytest.mark.parametrize("key", [("x", 2), ("x", 5), ("P", 9)])
    def test_zero_above_the_degree_accepted(self, sd, key):
        data = SteenrodData(sd, {**self.SD_SQUARES, key: "0"})
        assert data.sq(key[1], sd.gen(key[0])) == sd.zero
        assert data.sq(2, "P") == semidihedral_steenrod(sd).sq(2, "P")

    @pytest.mark.parametrize("key,value", [(("x", 2), "x^3 + y^3"), (("x", 5), "y^6"),
                                           (("P", 9), 1)])
    def test_nonzero_above_the_degree_refused(self, sd, key, value):
        with pytest.raises(InconsistentSteenrodDataError, match="must be 0 above"):
            SteenrodData(sd, {**self.SD_SQUARES, key: value})

    @pytest.mark.parametrize("index", ["1", 1.5, None])
    def test_non_integer_index_refused(self, sd, index):
        with pytest.raises(InconsistentSteenrodDataError, match="needs an integer index"):
            SteenrodData(sd, {**self.SD_SQUARES, ("u", index): 0})

    @pytest.mark.parametrize("value", ["x^2", "0", 0])
    def test_negative_index_refused(self, sd, value):
        with pytest.raises(InconsistentSteenrodDataError, match="needs i >= 0"):
            SteenrodData(sd, {**self.SD_SQUARES, ("x", -1): value})

    @pytest.mark.parametrize("index", ["1", 1.5, None])
    def test_non_integer_square_index_refused(self, sd, index):
        # a typed error, where comparing the index with 0 raised TypeError
        with pytest.raises(ValueError, match="needs an integer index"):
            semidihedral_steenrod(sd).sq(index, "x")
        with pytest.raises(ValueError, match="needs i >= 0"):
            semidihedral_steenrod(sd).sq(-1, "x")

    @pytest.mark.parametrize("key,value", [(("x", 0), "x"), (("u", 0), "u"),
                                           (("x", 1), "x^2"), (("u", 3), "u^2")])
    def test_forced_value_accepted(self, sd, key, value):
        data = SteenrodData(sd, {**self.SD_SQUARES, key: value})
        assert data.sq(key[1], key[0]) == sd.parse(value)

    @pytest.mark.parametrize("key,value", [(("x", 0), "y"), (("x", 1), "y^2"),
                                           (("u", 3), 0)])
    def test_forced_value_contradicted(self, sd, key, value):
        with pytest.raises(InconsistentSteenrodDataError, match="forced"):
            SteenrodData(sd, {**self.SD_SQUARES, key: value})

    def test_unknown_generator_refused(self, sd):
        with pytest.raises(InconsistentSteenrodDataError, match="unknown generator 'q'"):
            SteenrodData(sd, {**self.SD_SQUARES, ("q", 1): 0})


class TestOutsideValues:
    """`normal_form` is the one entry for values from outside the module."""

    def test_integers_read_mod_2(self, sd):
        assert sd.normal_form(0) == sd.zero
        assert sd.normal_form(1) == sd.one
        assert sd.normal_form(3) == sd.parse("3") == sd.one

    def test_every_kind_of_value(self, sd):
        want = sd.parse("x^2")
        for value in ("x*y", want, [(1, 1, 0, 0)], [(2, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)]):
            assert sd.normal_form(value) == want

    def test_constructor_reduces_tuples(self, sd):
        # x*y rewrites to x^2 in sd
        e = F2AlgebraElement(sd, {(1, 1, 0, 0)})
        assert e == sd.parse("x^2") == sd.parse("x*y")
        assert (str(e), e.monomials) == ("x^2", frozenset({(2, 0, 0, 0)}))
        assert F2AlgebraElement(sd, [(1, 0, 0, 0), (1, 0, 0, 0)]).is_zero()
        with pytest.raises(ValueError, match="different algebra"):
            F2AlgebraElement(sd, klein_cohomology().parse("p"))

    def test_top_class_read_after_completion(self):
        gens, rels = [("s", 1), ("t", 1), ("Z", 2)], ["s^2", "s*t + t^2", "Z^4"]
        want = circle_bundle_cohomology(4).poincare
        for top in ["t^2*Z^3", "s*t*Z^3", (0, 2, 3)]:
            assert PresentedF2Algebra("m8", gens, rels, poincare=(8, top)).poincare == want
        for top in ["t^2*Z^3 + t", "t^2*Z^3 + s*t*Z^3", "t*Z^3", (0, 1, 3)]:
            with pytest.raises(ValueError, match="not spanned by the designated top"):
                PresentedF2Algebra("m8", gens, rels, poincare=(8, top))

    def test_foreign_element_refused_by_sq(self, d8):
        m16 = circle_bundle_cohomology(8)
        data = circle_bundle_steenrod(m16, "Z*s")
        with pytest.raises(ValueError, match="different algebra"):
            data.sq(1, d8.parse("b*d"))
        assert data.sq(1, "Z") == m16.parse("Z*s")

    def test_foreign_element_refused_by_pairing(self, d8, m8):
        with pytest.raises(ValueError, match="different algebra"):
            m8.pairing(d8.parse("a^6*d"))
        assert m8.pairing("t^2*Z^3") == m8.pairing(m8.parse("s*t*Z^3")) == 1

    def test_foreign_element_refused_by_hom_images(self, sd, d8, v2):
        # v2 has no relation whose check would multiply the foreign image
        with pytest.raises(ValueError, match="element belongs to a different algebra"):
            GradedHom(v2, d8, {"p": sd.parse("x"), "q": "a"})
        hom = GradedHom(d8, v2, {"a": v2.parse("p"), "b": 0, "d": "q*(p + q)"})
        assert hom.images == d8_to_v2_restriction(d8, v2).images

    def test_foreign_element_refused_by_hom_call(self, sd, d8, v2):
        hom = d8_to_v2_restriction(d8, v2)
        with pytest.raises(ValueError, match="different algebra"):
            hom(sd.parse("y"))
        with pytest.raises(ValueError, match="different algebra"):
            hom(v2.parse("p"))
        assert hom("a*d") == hom(d8.parse("a*d")) == v2.parse("p^2*q + p*q^2")


class TestWuAndStiefelWhitney:
    def test_spin_branch(self, m8):
        data = circle_bundle_steenrod(m8, m8.parse("Z*s"))
        v = wu_classes(m8, data)
        assert v[0] == m8.one
        assert v[1] == m8.zero and v[2] == m8.zero
        w = stiefel_whitney(m8, data)
        assert w[0] == m8.one and w[1] == m8.zero and w[2] == m8.zero

    def test_nonspin_branch(self, m8):
        data = circle_bundle_steenrod(m8, m8.parse("Z*(t+s)"))
        assert str(wu_classes(m8, data)[1]) == "t"
        assert str(stiefel_whitney(m8, data)[1]) == "t"

    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("branch", ["Z*s", "Z*(t+s)"])
    def test_total_square_of_wu_class(self, n, branch):
        # one total square of v against the sum of Sq^i(v_j) over i + j = k
        m = circle_bundle_cohomology(n)
        data = circle_bundle_steenrod(m, m.parse(branch))
        v = wu_classes(m, data)
        want = [sum((data.sq(k - j, v[j]) for j in range(min(k, len(v) - 1) + 1)), m.zero)
                for k in range(2 * n + 1)]
        assert stiefel_whitney(m, data) == want

    def test_degenerate_pairing_detected(self):
        bad = PresentedF2Algebra("bad", [("x", 1), ("y", 1)],
                                 ["x^2", "x*y"], poincare=(2, "y^2"))
        data = SteenrodData(bad, {})
        with pytest.raises(DegeneratePairingError):
            wu_classes(bad, data)


class TestBranchEnumeration:
    @pytest.mark.parametrize("n", [4, 8])
    def test_two_branches(self, n):
        alg = circle_bundle_cohomology(n)
        branches = [c for c, _ in sq1_branch_data(alg)]
        assert [str(b) for b in branches] == ["s*Z", "s*Z + t*Z"]

    def test_branch_data(self, m8):
        pairs = sq1_branch_data(m8)
        assert all(data.sq(1, m8.parse("Z")) == c for c, data in pairs)

    def test_w1_filter(self, m8):
        # the orientation obstruction w_1 = v_1 vanishes on one branch only
        assert [str(c) for c, data in sq1_branch_data(m8)
                if wu_classes(m8, data)[1].is_zero()] == ["s*Z"]


class TestPullbackScenario:
    def test_relations_vanish_for_both_candidates(self, sd, m8):
        sd_to_circle_bundle(sd, m8)                     # Z^2 + Z t^2
        sd_to_circle_bundle(sd, m8, p_image="Z^2")      # also a ring map
        # but only the first is compatible with Sq^2 on P
        data = circle_bundle_steenrod(m8, m8.parse("Z*s"))
        good = sd_to_circle_bundle(sd, m8)
        alt = sd_to_circle_bundle(sd, m8, p_image="Z^2")
        assert data.sq(2, good("P")) == good("u") ** 2
        assert data.sq(2, alt("P")) != alt("u") ** 2

    def test_w1_restricts_to_lens_generator(self, m8):
        lens = lens_space_cohomology(4)
        to_lens = circle_bundle_to_lens(m8, lens)
        data = circle_bundle_steenrod(m8, m8.parse("Z*(t+s)"))
        w1 = stiefel_whitney(m8, data)[1]
        assert str(to_lens(w1)) == "t"


def test_binomial_parity_fact():
    # C(4J+3, 4I+3) = C(4J+3, 4I+1) mod 2, checked against a Lucas oracle
    def lucas_parity(n, k):
        while n or k:
            if (k & 1) > (n & 1):
                return 0
            n >>= 1
            k >>= 1
        return 1

    for J in range(33):
        for I in range(J + 1):
            lhs = lucas_parity(4 * J + 3, 4 * I + 3)
            rhs = lucas_parity(4 * J + 3, 4 * I + 1)
            assert lhs == math.comb(4 * J + 3, 4 * I + 3) % 2
            assert rhs == math.comb(4 * J + 3, 4 * I + 1) % 2
            assert lhs == rhs


def test_gf2_echelon_rank():
    # 0b1101 = 0b1011 ^ 0b0110, so the span has rank 2
    rows = [0b1011, 0b0110, 0b1101, 0b0110]
    basis = gf2_echelon(rows)
    assert len(basis) == 2
    # adding a span member leaves the echelon form unchanged
    assert gf2_echelon(basis + [0b1011 ^ 0b0110]) == basis
    assert len(gf2_echelon([0b100, 0b010, 0b001])) == 3
