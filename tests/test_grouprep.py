"""Groups, character tables, restriction, and free representations."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etakit.exactnum import CyclotomicNumber, root_of_unity
from etakit import grouprep
from etakit.eta import LensSpec, ManifoldSpec, eta_donnelly, eta_of_float
from etakit.grouprep import (CharacterTable, FiniteGroup, FreeUnitaryRep, InclusionMap,
                             NotASubgroupMapError, NotFreeError,
                             NotIrreducibleError, OddLengthError,
                             UnsupportedGroupError, ValidationError,
                             VirtualCharacter, builtin_group, character_table,
                             NAMED_INCLUSIONS, cyclic_free_rep,
                             frobenius_schur, is_quaternion_type, is_real_type,
                             named_inclusion, quaternion_free_rep,
                             restrict_virtual, table_from_json)
from oracles import validate_columns, values_by_term


class TestBuiltinGroups:
    def test_quaternion_classes(self):
        q8 = builtin_group("q8")
        assert q8.order == 8
        assert q8.class_sizes == (1, 1, 2, 2, 2)

    def test_semidihedral_classes(self):
        sd = builtin_group("sd16")
        assert sd.order == 16
        assert sd.class_sizes == (1, 1, 2, 2, 2, 4, 4)
        # defining relations
        s, t = sd.generators["s"], sd.generators["t"]
        assert sd.power(s, 8) == 0 and sd.power(t, 2) == 0
        assert sd.mul(sd.mul(t, s), t) == sd.power(s, 3)

    @pytest.mark.parametrize("tag,letters,m,r,c,names", [
        ("v2", "ab", 2, 1, 0, ("1", "a", "b", "a*b")),
        ("d8", "rf", 4, -1, 0, ("1", "r", "r^2", "r^3", "f", "r*f", "r^2*f", "r^3*f")),
        ("q8", "ij", 4, -1, 2, ("1", "i", "-1", "-i", "j", "k", "-j", "-k")),
        ("sd16", "st", 8, 3, 0, ("1", "s") + tuple(f"s^{a}" for a in range(2, 8))
         + ("t", "s*t") + tuple(f"s^{a}*t" for a in range(2, 8))),
    ])
    def test_metacyclic_presentations(self, tag, letters, m, r, c, names):
        # s^a t^b with t s t^-1 = s^r and t^2 = s^c, elements listed a first
        g = builtin_group(tag)
        assert g.element_names == names and list(g.generators) == list(letters)
        s, t = (g.generators[x] for x in letters)
        assert (s, t) == (1, m)
        assert g.element_order(s) == m
        assert g.mul(g.mul(t, s), g.inv(t)) == g.power(s, r)
        assert g.power(t, 2) == g.power(s, c)

    def test_cyclic_classes_are_singletons(self):
        c8 = builtin_group("c8")
        assert c8.class_sizes == (1,) * 8

    def test_unsupported(self):
        with pytest.raises(UnsupportedGroupError):
            builtin_group("a5")
        with pytest.raises(UnsupportedGroupError):
            builtin_group("c128")

    def test_one_object_per_spelling(self):
        assert builtin_group("SD16") is builtin_group("sd16")
        assert builtin_group("c08") is builtin_group("c8")
        assert character_table("C8") is character_table("c8")
        assert character_table("SD16").group is builtin_group("Sd16")

    def test_element_expressions(self):
        sd = builtin_group("sd16")
        assert sd.element("t*s") == sd.element("s^3*t")

    def test_power_matches_repeated_product(self):
        sd = builtin_group("sd16")
        for a in range(sd.order):
            x = 0  # a^k, one factor at a time
            for k in range(2 * sd.order + 1):
                assert sd.power(a, k) == x
                assert sd.mul(sd.power(a, -k), x) == 0
                x = sd.mul(x, a)
        assert sd.element("s^1000000001") == sd.element("s")
        assert sd.element("s^-6") == sd.element("s^2")


def _loop_group(mult, generators):
    """A FiniteGroup on the elements 0..n-1 of a table; every class
    representative is named, which fits the abelian tables used here."""
    names = ["1"] + [f"e{a}" for a in range(1, len(mult))]
    return FiniteGroup("t", names, mult, {f"g{g}": g for g in generators}, names)


def _right_orbit(mult, g):
    """0, 0*g, (0*g)*g, ...: what right multiplication by g reaches from 0."""
    reached, x = {0}, 0
    for _ in mult:
        x = mult[x][g]
        reached.add(x)
    return reached


def _associative(mult):
    n = range(len(mult))
    return all(mult[mult[a][b]][c] == mult[a][mult[b][c]] for a in n for b in n for c in n)


class TestGroupAxioms:
    def test_element_zero_must_be_the_identity(self):
        with pytest.raises(ValueError, match="element 0 is not an identity"):
            _loop_group([[1, 0], [0, 1]], [1])

    def test_rows_must_be_permutations(self):
        with pytest.raises(ValueError, match="rows must be permutations"):
            _loop_group([[0, 1], [1, 1]], [1])

    def test_non_associative_latin_square(self):
        # a loop of order 5: a Latin square with identity 0, and 2 generates
        # it under right multiplication, but (1*1)*2 = 2 != 1*(1*2) = 4
        mult = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 1, 0],
                [3, 4, 0, 2, 1], [4, 2, 1, 0, 3]]
        with pytest.raises(ValueError, match="multiplication is not associative"):
            _loop_group(mult, [2])

    def test_generators_must_generate(self):
        mult = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        with pytest.raises(ValueError, match="the generators do not generate the group"):
            _loop_group(mult, [2])
        with pytest.raises(ValueError, match="the generators do not generate the group"):
            _loop_group(mult, [4])
        assert _loop_group(mult, [2, 3]).order == 4

    def test_lights_test_agrees_with_every_triple(self):
        # every Latin square of order 5 with identity 0, each checked on
        # the first single generator that generates it, else on all four
        n = 5
        rows = [p for p in itertools.permutations(range(n))]

        def squares(prefix):
            if len(prefix) == n:
                yield [list(r) for r in prefix]
                return
            for p in rows:
                if p[0] == len(prefix) and all(p[c] != r[c] for r in prefix for c in range(n)):
                    yield from squares(prefix + [p])

        seen = 0
        for mult in squares([tuple(range(n))]):
            single = [g for g in range(1, n) if len(_right_orbit(mult, g)) == n]
            generators = single[:1] or range(1, n)
            if _associative(mult):
                assert _loop_group(mult, generators).order == n
            else:
                with pytest.raises(ValueError, match="not associative"):
                    _loop_group(mult, generators)
            seen += 1
        assert seen == 56

    @pytest.mark.parametrize("tag", ["c1", "c7", "v2", "d8", "q8", "sd16"])
    def test_inverse_table(self, tag):
        g = builtin_group(tag)
        for a in range(g.order):
            assert g.mul(a, g.inv(a)) == 0 == g.mul(g.inv(a), a)


class TestCharacterTables:
    @pytest.mark.parametrize("tag", ["c2", "c4", "c8", "v2", "d8", "q8", "sd16"])
    def test_orthogonality_rows_and_columns(self, tag):
        character_table(tag).validate_orthogonality()
        validate_columns(character_table(tag))

    @pytest.mark.parametrize("row,cls,value,text", [
        (0, 0, 2, "rows 0,0: <.,.> = 19/16"),
        (2, 8, -1, "rows 0,2: <.,.> = -1/8"),
        (3, 5, root_of_unity(16, 1), "rows 0,3: <.,.> = None"),
        (15, 15, root_of_unity(8, 1), "rows 0,15: <.,.> = None"),
    ])
    def test_tampered_value_names_the_first_failing_rows(self, row, cls, value, text):
        t = character_table("c16")
        rows = [list(r) for r in t.rows]
        rows[row][cls] = value
        with pytest.raises(ValidationError) as info:
            CharacterTable(t.group, t.irreducible_names, rows)
        assert str(info.value) == "row orthogonality fails at " + text

    def test_q8_tau_values(self):
        t = character_table("q8")
        tau = t.irreducible("tau")
        assert tau.values[1].as_rational() == -2   # class [-1]
        assert tau.values[2].as_rational() == 0    # class [i]

    def test_sd16_two_dimensional_rows(self):
        t = character_table("sd16")
        assert t.irreducible("rho").values[1].as_rational() == -2   # [s^4]
        assert t.irreducible("rho2").values[3].as_rational() == -2  # [s^2]
        sqrt2i = root_of_unity(8, 1) + root_of_unity(8, 3)
        assert t.irreducible("rho").values[2] == sqrt2i             # [s]
        assert t.irreducible("rho5").values[2] == -1 * sqrt2i

    def test_trivial_character(self):
        for tag in ("q8", "sd16", "c8"):
            t = character_table(tag)
            assert all(v.as_rational() == 1 for v in t.trivial().values)


class TestVirtualCharacters:
    def test_dimensions(self):
        t = character_table("q8")
        tau = t.irreducible("tau")
        assert (2 - tau).dim == 0
        assert (t.irreducible("r0") - t.irreducible("k1")).dim == 0
        assert tau.dim == 2

    def test_square_of_two_minus_tau(self):
        t = character_table("q8")
        tau = t.irreducible("tau")
        sq = (2 - tau) ** 2
        # 4 - 4 tau + tau^2 with tau^2 the sum of the four linears
        assert sq == (5 * t.irreducible("r0") + t.irreducible("k1")
                      + t.irreducible("k2") + t.irreducible("k3") - 4 * tau)

    @pytest.mark.parametrize("tag", ["q8", "sd16", "c8"])
    def test_power_by_squaring_matches_repeated_product(self, tag):
        t = character_table(tag)
        rng = random.Random(tag)
        chi = VirtualCharacter(t, [rng.randint(-2, 2) for _ in t.rows])
        product = t.constant(1)
        for k in range(7):
            assert chi ** k == product
            product = product * chi

    def test_conjugate_swaps_rho_and_rho5(self):
        t = character_table("sd16")
        assert t.irreducible("rho").conjugate() == t.irreducible("rho5")

    def test_non_integral_dimension_is_a_typed_error(self):
        t = CharacterTable(builtin_group("c2"), ["r0", "r1"],
                           [[Fraction(1, 2), 1], [1, -1]], validate=False)
        with pytest.raises(ValidationError, match="dimension 1/2"):
            t.irreducible("r0").dim


@st.composite
def characters(draw, tag):
    t = character_table(tag)
    n = len(t.rows)
    return VirtualCharacter(t, draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))


BUILTIN_TAGS = [f"c{n}" for n in range(1, 65)] + ["v2", "d8", "q8", "sd16"]


def row_permuted(tag, order):
    """The builtin table of `tag` with its rows in `order`, through JSON."""
    t = character_table(tag)
    return table_from_json({"group": tag, "irreducibles": [
        {"name": f"x{j}", "values": [str(v) for v in t.rows[j]]} for j in order]})


class TestDimension:
    def test_reads_no_class_value(self):
        chi = VirtualCharacter(character_table("c64"), [1, 0, -1] + [0] * 61)
        assert chi.dim == 0
        assert "values" not in vars(chi)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(BUILTIN_TAGS).flatmap(characters))
    def test_equals_the_value_at_the_identity(self, chi):
        assert chi.dim == chi.values[0]

    @settings(max_examples=20, deadline=None)
    @given(tag=st.sampled_from(["c12", "q8", "sd16"]), data=st.data())
    def test_row_permuted_table(self, tag, data):
        n = len(character_table(tag).rows)
        table = row_permuted(tag, data.draw(st.permutations(range(n))))
        chi = VirtualCharacter(table, data.draw(st.lists(st.integers(-3, 3), min_size=n,
                                                         max_size=n)))
        assert chi.dim == chi.values[0]


# (subgroup, group, generator images): the restrictions the claims use
RESTRICTIONS = [("c8", "sd16", {"g": "s"}), ("c2", "sd16", {"g": "t"}),
                ("q8", "sd16", {"i": "s^2", "j": "t*s"}), ("c4", "q8", {"g": "i"})]


class TestOneRepresentation:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["c8", "q8", "d8", "sd16"]).flatmap(
        lambda tag: st.tuples(characters(tag), characters(tag))), st.integers(0, 6))
    def test_values_against_row_sum(self, pair, k):
        a, b = pair
        va, vb = values_by_term(a), values_by_term(b)
        assert list(a.values) == va
        assert list((a * b).values) == [x * y for x, y in zip(va, vb)]
        powers = [CyclotomicNumber.from_rational(1)] * len(va)
        for _ in range(k):
            powers = [p * x for p, x in zip(powers, va)]
        assert list((a ** k).values) == powers
        assert list(a.conjugate().values) == [x.conjugate() for x in va]
        assert a.table.decompose(a.values) == a

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(BUILTIN_TAGS).flatmap(characters))
    def test_values_identical_to_term_by_term_sum(self, chi):
        # same value, same order and same normal form as the field sum
        def exact(v):
            return v.order, v.coeffs
        assert [exact(v) for v in chi.values] == [exact(v) for v in values_by_term(chi)]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(RESTRICTIONS).flatmap(
        lambda r: st.tuples(st.just(r), characters(r[1]))))
    def test_restriction_against_row_sum(self, case):
        (sub, group, images), chi = case
        inc = InclusionMap.from_images(builtin_group(sub), builtin_group(group), images)
        values = values_by_term(chi)
        want = [values[inc.target.class_of[inc.element_map[cls[0]]]]
                for cls in inc.source.classes]
        restricted = restrict_virtual(chi, inc)
        assert restricted.table is character_table(sub)
        assert list(restricted.values) == want


class TestFrobeniusSchur:
    def test_tau_is_quaternionic(self):
        t = character_table("q8")
        assert frobenius_schur(t.irreducible("tau")) == -1

    def test_trivial_is_real(self):
        assert frobenius_schur(character_table("q8").trivial()) == 1

    def test_c8_generator_character_is_complex(self):
        assert frobenius_schur(character_table("c8").irreducible("r1")) == 0

    def test_sd16_indicator_list(self):
        t = character_table("sd16")
        expected = {"r0": 1, "chi2": 1, "chi3": 1, "chi4": 1,
                    "rho": 0, "rho2": 1, "rho5": 0}
        got = {name: frobenius_schur(t.irreducible(name))
               for name in t.irreducible_names}
        assert got == expected

    def test_requires_irreducible(self):
        t = character_table("q8")
        with pytest.raises(NotIrreducibleError):
            frobenius_schur(2 - t.irreducible("tau"))

    def test_non_integral_indicator_is_a_typed_error(self):
        # <chi, chi> = ((7/5)^2 + (1/5)^2) / 2 = 1, indicator = 7/5
        t = CharacterTable(builtin_group("c2"), ["x", "r1"],
                           [[Fraction(7, 5), Fraction(1, 5)], [1, -1]], validate=False)
        with pytest.raises(ValidationError, match="7/5"):
            frobenius_schur(t.irreducible("x"))


class TestRealityTypes:
    def test_indicators_computed_once_per_table(self, monkeypatch):
        q8 = character_table("q8")
        t = CharacterTable(q8.group, q8.irreducible_names, q8.rows)
        calls = []

        def counted(chi):
            calls.append(chi)
            return frobenius_schur(chi)
        monkeypatch.setattr(grouprep, "frobenius_schur", counted)
        tau = t.irreducible("tau")
        for chi in (2 - tau, (2 - tau) ** 2, t.irreducible("k1") - t.trivial()):
            is_real_type(chi)
            is_quaternion_type(chi)
        assert len(calls) == len(t.rows)

    def test_indicators_only_for_real_valued_rows(self, monkeypatch):
        # of the 64 characters of C_64 only r0 and r32 are their own conjugates
        c64 = character_table("c64")
        t = CharacterTable(c64.group, c64.irreducible_names, c64.rows, validate=False)
        calls = []

        def counted(chi):
            calls.append(str(chi))
            return frobenius_schur(chi)
        monkeypatch.setattr(grouprep, "frobenius_schur", counted)
        indicators, partners = t._reality
        assert calls == ["r0", "r32"]
        assert partners == tuple((64 - j) % 64 for j in range(64))
        assert indicators == tuple(1 if j in (0, 32) else 0 for j in range(64))

    @pytest.mark.parametrize("tag", ["c64", "q8", "sd16"])
    def test_partners_match_pairwise_search(self, tag):
        t = character_table(tag)

        def pairwise(i):
            target = [v.conjugate() for v in t.rows[i]]
            return next(j for j, row in enumerate(t.rows)
                        if all((a - b).is_zero() for a, b in zip(row, target)))
        assert t._reality[1] == tuple(pairwise(i) for i in range(len(t.rows)))

    def test_missing_conjugate_row_is_rejected(self):
        c4 = character_table("c4")
        rows = c4.rows[:3] + (c4.rows[1],)  # r1 twice, its conjugate r3 gone
        t = CharacterTable(c4.group, c4.irreducible_names, rows, validate=False)
        with pytest.raises(ValidationError, match="conjugate character missing"):
            t._reality

    def test_two_minus_tau_family(self):
        t = character_table("q8")
        tau = t.irreducible("tau")
        assert is_quaternion_type(2 - tau) and not is_real_type(2 - tau)
        assert is_real_type((2 - tau) ** 2) and not is_quaternion_type((2 - tau) ** 2)
        cube = (2 - tau) ** 3
        assert is_real_type(cube) and is_quaternion_type(cube)

    def test_unpaired_complex_character(self):
        t = character_table("sd16")
        chi = 2 - t.irreducible("rho")
        assert not is_real_type(chi) and not is_quaternion_type(chi)

    def test_doubled_real_is_quaternionic(self):
        t = character_table("c8")
        doubled = 2 * (t.irreducible("r4") - t.irreducible("r0"))
        assert is_real_type(doubled) and is_quaternion_type(doubled)


class TestRestriction:
    def test_any_row_order_of_the_ambient_table(self):
        # one branching matrix per (table, inclusion), read by the table's
        # own rows, so a permuted table restricts to the same characters
        t = character_table("sd16")
        order = [4, 6, 0, 2, 5, 1, 3]
        permuted = row_permuted("sd16", order)
        for sub in ("q8", "c8", "c2", "c4"):
            inc = named_inclusion("sd16", sub)
            for j in range(7):
                chi = VirtualCharacter(permuted, [int(i == j) for i in order])
                want = restrict_virtual(t.irreducible(t.irreducible_names[j]), inc)
                assert restrict_virtual(chi, inc) == want

    def test_rho2_to_quaternion_subgroup(self):
        sd, q8 = builtin_group("sd16"), builtin_group("q8")
        inc = InclusionMap.from_images(q8, sd, {"i": "s^2", "j": "t*s"})
        t = character_table("sd16")
        tq = character_table("q8")
        assert restrict_virtual(t.irreducible("rho2"), inc) == \
            tq.irreducible("k1") + tq.irreducible("k3")

    def test_rho_to_cyclic_subgroup(self):
        sd = builtin_group("sd16")
        inc = InclusionMap.from_images(builtin_group("c8"), sd, {"g": "s"})
        t, tc = character_table("sd16"), character_table("c8")
        assert restrict_virtual(t.irreducible("rho"), inc) == \
            tc.irreducible("r1") + tc.irreducible("r3")

    def test_trivial_restricts_to_trivial(self):
        sd = builtin_group("sd16")
        inc = InclusionMap.from_images(builtin_group("c8"), sd, {"g": "s"})
        assert restrict_virtual(character_table("sd16").trivial(), inc) == \
            character_table("c8").trivial()

    def test_bad_generator_images(self):
        sd, q8 = builtin_group("sd16"), builtin_group("q8")
        with pytest.raises(NotASubgroupMapError):
            InclusionMap.from_images(q8, sd, {"i": "s", "j": "t"})

    def test_restriction_is_additive_and_multiplicative(self):
        sd, q8 = builtin_group("sd16"), builtin_group("q8")
        inc = InclusionMap.from_images(q8, sd, {"i": "s^2", "j": "t*s"})
        t = character_table("sd16")
        rng = random.Random(7)
        names = t.irreducible_names
        for _ in range(12):
            a = sum((rng.randint(-2, 2) * t.irreducible(n) for n in names),
                    t.constant(0))
            b = sum((rng.randint(-2, 2) * t.irreducible(n) for n in names),
                    t.constant(0))
            assert restrict_virtual(a + b, inc) == \
                restrict_virtual(a, inc) + restrict_virtual(b, inc)
            assert restrict_virtual(a * b, inc) == \
                restrict_virtual(a, inc) * restrict_virtual(b, inc)

    def test_unknown_generator_name(self):
        sd, q8 = builtin_group("sd16"), builtin_group("q8")
        with pytest.raises(NotASubgroupMapError, match="q8 has no generator 'k'"):
            InclusionMap.from_images(q8, sd, {"i": "s^2", "j": "t*s", "k": "t"})

    @pytest.mark.parametrize("key", sorted(NAMED_INCLUSIONS))
    def test_class_map_sends_classes_into_classes(self, key):
        inc = named_inclusion(*key)
        assert (inc.target.name, inc.source.name) == key
        for cls, target_class in zip(inc.source.classes, inc.class_map):
            assert {inc.target.class_of[inc.element_map[x]] for x in cls} == {target_class}

    def test_map_fixing_the_generator_images_is_still_checked(self):
        # bijective and sends g to g, but swaps g^2 and g^3
        c4 = builtin_group("c4")
        with pytest.raises(NotASubgroupMapError, match="map is not a homomorphism"):
            InclusionMap(c4, c4, [0, 1, 3, 2])

    def test_generator_check_agrees_with_every_pair(self):
        c4 = builtin_group("c4")
        for phi in itertools.permutations(range(4)):
            homomorphism = all(phi[c4.mul(a, b)] == c4.mul(phi[a], phi[b])
                               for a in range(4) for b in range(4))
            if homomorphism:
                assert InclusionMap(c4, c4, phi).element_map == phi
            else:
                with pytest.raises(NotASubgroupMapError, match="not a homomorphism"):
                    InclusionMap(c4, c4, phi)

    def test_named_inclusion_built_once(self):
        assert named_inclusion("sd16", "q8") is named_inclusion("sd16", "q8")

    def test_equal_inclusions_share_one_branching_matrix(self, monkeypatch):
        sd, q8 = builtin_group("sd16"), builtin_group("q8")
        images = {"i": "s^2", "j": "t*s"}
        first, second = (InclusionMap.from_images(q8, sd, images) for _ in range(2))
        assert first is not second and first == second and hash(first) == hash(second)
        assert first != InclusionMap.from_images(q8, sd, {"i": "s^2", "j": "s*t"})
        calls = []
        decompose = CharacterTable.decompose

        def counted(table, values):
            calls.append(values)
            return decompose(table, values)
        monkeypatch.setattr(CharacterTable, "decompose", counted)
        grouprep._branching_matrix.cache_clear()
        chi = character_table("sd16").irreducible("rho2")
        assert restrict_virtual(chi, first) == restrict_virtual(chi, second)
        assert len(calls) == 7


class TestFreeRepresentations:
    def test_cyclic_eigenvalues_and_det_sqrt(self):
        rep = cyclic_free_rep(8, (1, 1))
        assert rep.eigen_exponents[1] == (1, 1)
        assert rep.det_sqrt[1] == root_of_unity(8, 1)  # rho_1 at the generator

    def test_det_sqrt_for_longer_tuple(self):
        rep = cyclic_free_rep(8, (1, 1, 5, 5))
        # (1+1+5+5)/2 = 6, so the square root character is r6
        tc = character_table("c8")
        assert all(rep.det_sqrt[k] == tc.irreducible("r6").values[k]
                   for k in range(8))

    def test_determinant_character_identity(self):
        rep = cyclic_free_rep(8, (1, 3))
        tc = character_table("c8")
        det = tc.irreducible("r4")  # rho_(1+3)
        for k in range(8):
            assert rep.det_sqrt[k] * rep.det_sqrt[k] == det.values[k]

    def test_rejections(self):
        with pytest.raises(NotFreeError):
            cyclic_free_rep(8, (2, 1))
        with pytest.raises(OddLengthError):
            cyclic_free_rep(8, (1, 1, 5))
        with pytest.raises(NotFreeError):
            cyclic_free_rep(6, (3, 3))

    def test_weight_count_cap(self):
        assert cyclic_free_rep(8, (1,) * 256).dimension == 256
        with pytest.raises(ValidationError, match="258 weights exceed the cap 256"):
            cyclic_free_rep(8, (1,) * 258)

    def test_non_power_of_two_order(self):
        # sum(a) is even, so rho_{sum(a)/2} squares to the determinant for every l
        rep = cyclic_free_rep(6, (1, 1))
        t = character_table("c6")
        chi = t.irreducible("r1") - t.irreducible("r0")
        value = eta_donnelly(rep, chi)
        assert abs(float(value)
                   - eta_of_float(ManifoldSpec(lens=LensSpec(6, (1, 1))), chi)) < 1e-9

    def test_cyclic_reps_are_built_once(self):
        assert cyclic_free_rep(8, [1, 3]) is cyclic_free_rep(8, (1, 3))
        assert cyclic_free_rep(8, (1, 3), (2, 0)).chern == (2, 0)

    def test_quaternion_reps_are_built_once(self):
        assert quaternion_free_rep(3) is quaternion_free_rep(3)
        assert quaternion_free_rep(3).dimension == 8
        with pytest.raises(ValueError, match="k must be >= 0"):
            quaternion_free_rep(-1)

    @pytest.mark.parametrize("det_sqrt", [[root_of_unity(4, 0)] * 4,
                                          [root_of_unity(4, 0)] * 6])
    def test_det_sqrt_must_cover_every_class(self, det_sqrt):
        exps = [(0, 0), (2, 2), (1, 3), (1, 3), (1, 3)]
        with pytest.raises(ValueError, match="det_sqrt must cover every conjugacy class"):
            FreeUnitaryRep(builtin_group("q8"), 2, 4, exps, det_sqrt)

    def test_quaternion_unit_determinant(self):
        for k in (0, 1, 2):
            rep = quaternion_free_rep(k)
            assert all((v - 1).is_zero() for v in rep.det_sqrt)

    def test_quaternion_det_of_one_minus_tau(self):
        rep = quaternion_free_rep(0)
        # det(I - tau) is 4 at the central class and 2 at the order-4 classes
        values = []
        for c in range(1, 5):
            det = root_of_unity(4, 0)
            for e in rep.eigen_exponents[c]:
                det = det * (1 - root_of_unity(4, e))
            values.append(det.as_rational())
        assert values == [4, 2, 2, 2]


class TestStructuredText:
    def test_table_round_trip(self):
        t = character_table("q8")
        data = {
            "group": "q8",
            "classes": [{"name": n, "size": s} for n, s in
                        zip(t.group.class_names, t.group.class_sizes)],
            "irreducibles": [{"name": name, "values": [str(v) for v in row]}
                             for name, row in zip(t.irreducible_names, t.rows)],
        }
        loaded = table_from_json(json.dumps(data))
        assert loaded.irreducible_names == t.irreducible_names
        assert loaded.rows == t.rows

    def test_bad_class_size_reports_index(self):
        data = {"group": "q8",
                "classes": [{"name": "[1]", "size": 1}, {"name": "[-1]", "size": 3},
                            {"name": "[i]", "size": 2}, {"name": "[j]", "size": 2},
                            {"name": "[k]", "size": 2}],
                "irreducibles": []}
        with pytest.raises(ValidationError, match="class 1"):
            table_from_json(data)

    def test_cyclic_table_round_trip_is_validated(self):
        t = character_table("c32")
        data = {"group": "c32",
                "irreducibles": [{"name": name, "values": [str(v) for v in row]}
                                 for name, row in zip(t.irreducible_names, t.rows)]}
        loaded = table_from_json(data)
        loaded.validate_orthogonality()
        for got, want in zip(loaded.rows, t.rows, strict=True):
            assert got == want
        data["irreducibles"][7]["values"][4] = "1*z^0 @ n=1"
        with pytest.raises(ValidationError, match=r"^character table for c32: row "
                           r"orthogonality fails at rows 0,7: <\.,\.> = None$"):
            table_from_json(data)

    def test_non_orthogonal_rows_rejected(self):
        data = {"group": "c2",
                "irreducibles": [{"name": "a", "values": ["1*z^0 @ n=1", "1*z^0 @ n=1"]},
                                 {"name": "b", "values": ["1*z^0 @ n=1", "1*z^0 @ n=1"]}]}
        with pytest.raises(ValidationError, match="orthogonality"):
            table_from_json(data)
