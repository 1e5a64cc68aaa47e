"""The verification harness: reference table, suites, and the report."""

import json
from collections import Counter
from pathlib import Path

import pytest

from etakit import f2ring, glrverify, grouprep
from etakit.exactnum import CyclotomicNumber, inverse_one_minus_root
from etakit.glrverify import (KERAP_DIMENSION_CAP, SPAN_DEGREE_CAP, SUITES,
                              _KERAP_EXPLICIT, _sd16_fixture,
                              _span_algebras, free_quotients, kerap_lookup,
                              klein_psc_generators, normalized_entry,
                              quaternion_certificate_matrix, run_report,
                              table_ko_order, verify_prop41, verify_prop51,
                              verify_prop53, verify_q8_orders, verify_sd16_odd)
from etakit.grouprep import CharacterTable, InclusionMap

GOLDEN = Path(__file__).parent / "golden"


class TestKerApTable:
    def test_row_eleven(self):
        assert kerap_lookup(11) == ((8, 16, 128, 128), 0)

    def test_low_dimensions_vanish(self):
        assert kerap_lookup(2) == ((), 0)
        assert kerap_lookup(0) == ((), 0)

    def test_two_column_rank_parameterized(self):
        assert kerap_lookup(20)[1] == 3       # 8k+4 with k=2
        assert kerap_lookup(16)[1] == 2
        assert kerap_lookup(22)[1] == 2

    def test_two_column_rank_formula_everywhere(self):
        # rank k+1 in 8k+4, k in other even residues, 0 in odd dimensions
        for n in range(2, 65):
            rank = kerap_lookup(n)[1]
            if n % 2 == 1:
                assert rank == 0
            elif n % 8 == 4:
                assert rank == n // 8 + 1
            elif n <= 3:
                assert rank == 0
            else:
                assert rank == n // 8

    @pytest.mark.parametrize("m", range(4))
    def test_derived_ko_orders(self, m):
        assert table_ko_order(8 * m + 3) == 2 ** (8 + 13 * m)
        assert table_ko_order(8 * m + 7) == 2 ** (12 + 13 * m)

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            table_ko_order(8)

    # the rows below 16 that the closed form gives, as they were tabulated
    CLOSED_FORM_ROWS = {
        2: ((), 0), 4: ((), 1), 5: ((2,), 0), 6: ((), 0),
        7: ((2, 4, 16, 32), 0), 10: ((), 1), 11: ((8, 16, 128, 128), 0),
        12: ((), 2), 13: ((4,), 0), 14: ((), 1), 15: ((2, 8, 16, 256, 512), 0),
    }

    def test_closed_form_reproduces_the_tabulated_rows(self):
        assert set(_KERAP_EXPLICIT) == {0, 1, 3, 8, 9}
        assert set(self.CLOSED_FORM_ROWS) | set(_KERAP_EXPLICIT) == set(range(16))
        for n, row in self.CLOSED_FORM_ROWS.items():
            assert kerap_lookup(n) == row

    @pytest.mark.parametrize("n", [KERAP_DIMENSION_CAP + 1, 80000003,
                                   100000000000000000003])
    def test_dimension_cap(self, n):
        assert KERAP_DIMENSION_CAP >= 263  # the largest dimension a claim reads
        with pytest.raises(ValueError, match="exceeds the kernel-table cap 4096"):
            kerap_lookup(n)


def counted(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestScenarioFixture:
    def test_built_once_across_calls(self, monkeypatch):
        calls = {"then": 0}
        monkeypatch.setattr(InclusionMap, "then", counted(calls, "then", InclusionMap.then))
        _sd16_fixture.cache_clear()
        for _ in range(2):
            assert all(c.passed for c in verify_sd16_odd(3))
        assert calls == {"then": 2}

    def test_each_sd16_cell_evaluated_once(self, monkeypatch):
        # 186 calls when every cancelation re-evaluated its row's entries
        calls = {"eta_of": 0}
        monkeypatch.setattr(glrverify, "eta_of", counted(calls, "eta_of", glrverify.eta_of))
        assert all(c.passed for c in verify_sd16_odd(3))
        assert calls["eta_of"] <= 162

    def test_decompose_only_for_branching_matrices_and_products(self, monkeypatch):
        # the 7 SD16 rows once for each of the inclusions c8, c2, q8, c4i and
        # c4j, whose branching matrices every restriction, lens value and
        # Q8 value reads, plus rho*rho5, t**2 and t**3 in the fixture; a second
        # report decomposes nothing, however many eta values it reads
        calls = {"decompose": 0}
        monkeypatch.setattr(CharacterTable, "decompose",
                            counted(calls, "decompose", CharacterTable.decompose))
        _sd16_fixture.cache_clear()
        grouprep._branching_matrix.cache_clear()
        assert not run_report("all").failures
        assert calls["decompose"] == 5 * 7 + 3
        assert not run_report("all").failures
        assert calls["decompose"] == 5 * 7 + 3

    def test_rebuilt_fixture_decomposes_nothing_new(self, monkeypatch):
        # the rebuilt inclusions equal the first ones, and equal inclusions
        # share one branching matrix; only the fixture's products decompose
        calls = {"decompose": 0}
        assert not run_report("all").failures
        monkeypatch.setattr(CharacterTable, "decompose",
                            counted(calls, "decompose", CharacterTable.decompose))
        _sd16_fixture.cache_clear()
        assert not run_report("all").failures
        assert calls["decompose"] == 3

    def test_each_basis_listed_once_per_report(self, monkeypatch):
        # prop51 listed each dihedral basis twice: 60 lists for 40 (algebra,
        # degree) pairs
        listed = Counter()
        graded_basis = f2ring.PresentedF2Algebra.graded_basis

        def counted_basis(algebra, n):
            listed[id(algebra), n] += 1
            return graded_basis(algebra, n)
        monkeypatch.setattr(f2ring.PresentedF2Algebra, "graded_basis", counted_basis)
        glrverify._dihedral_index.cache_clear()
        assert not run_report("all").failures
        assert listed and max(listed.values()) == 1

    def test_no_field_inversion(self, monkeypatch):
        # every eigenvalue factor is the closed form; nothing else divides
        calls = {"inverse": 0}
        monkeypatch.setattr(CyclotomicNumber, "inverse",
                            counted(calls, "inverse", CyclotomicNumber.inverse))
        _sd16_fixture.cache_clear()
        inverse_one_minus_root.cache_clear()
        assert not run_report("all").failures
        assert calls == {"inverse": 0}

    def test_fixture_shape(self):
        fx = _sd16_fixture()
        assert len(fx.columns) == 6 and all(chi.dim == 0 for chi in fx.columns)
        assert sorted(fx.two_minus_tau) == [1, 2, 3]
        for inc, source in ((fx.c8, "c8"), (fx.c2, "c2"), (fx.q8, "q8"),
                            (fx.c4i, "c4"), (fx.c4j, "c4")):
            assert (inc.source.name, inc.target.name) == (source, "sd16")
        assert fx.c4i.element_map != fx.c4j.element_map

    @pytest.mark.parametrize("n", range(3, 36, 4))
    def test_catalogue_rows_have_dimension_n(self, n):
        rows = free_quotients(n)
        assert sorted(rows) == ["L", "M1", "M2", "MQ", "RP"]
        assert all(row.dimension == n for row in rows.values())
        assert all(row.inclusion.target.name == "sd16" for row in rows.values())

    @pytest.mark.parametrize("n", [5, 13, 21])
    def test_catalogue_bundle_row(self, n):
        rows = free_quotients(n)
        assert list(rows) == ["B"] and rows["B"].dimension == n
        assert rows["B"].lens.kind == "bundle"

    @pytest.mark.parametrize("n", [-3, 1, 2, 4, 9, 25])
    def test_catalogue_refuses_other_dimensions(self, n):
        with pytest.raises(ValueError, match="no named free quotients"):
            free_quotients(n)


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_zero_failures(self, name):
        claims = SUITES[name]()
        failures = [c for c in claims if not c.passed]
        assert failures == []

    def test_every_claim_has_an_anchor(self):
        report = run_report("all")
        assert all(c.anchor for c in report.claims)
        assert all(c.claim_id for c in report.claims)

    def test_full_report_size(self):
        report = run_report("all")
        assert len(report.claims) >= 40
        assert not report.failures

    def test_single_suite_selection(self):
        report = run_report("q8")
        assert all(c.claim_id.startswith("q8.") for c in report.claims)

    def test_empty_selection(self):
        assert run_report("").claims == []

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_report("nonsense")

    def test_json_round_trip(self):
        report = run_report("dim513")
        data = json.loads(report.to_json())
        assert len(data) == len(report.claims)
        assert all(set(entry) == {"id", "anchor", "expected", "computed", "status"}
                   for entry in data)

    def test_text_summary_line(self):
        report = run_report("kerap")
        assert report.to_text().splitlines()[-1].endswith("0 failures")

    def test_all_runs_the_seven_suites_in_golden_order(self):
        assert glrverify.ALL_SUITES == ("q8", "sd16odd", "dim513", "prop41", "prop51",
                                        "prop53", "kerap")
        golden = json.loads((GOLDEN / "verify_all.json").read_text(encoding="utf-8"))
        ids = [c.claim_id for name in glrverify.ALL_SUITES for c in SUITES[name]()]
        assert [c.claim_id for c in run_report("all").claims] == ids
        assert ids == [entry["id"] for entry in golden]

    @pytest.mark.parametrize("name", ["spans", "total-space", "orders"])
    def test_far_suite_claims(self, name):
        # the claim ids the far sweeps gave before they were suites
        want = json.loads((GOLDEN / "far_suite_ids.json").read_text(encoding="utf-8"))[name]
        report = run_report(name)
        assert [c.claim_id for c in report.claims] == want
        assert not report.failures


class TestSpanCounts:
    def test_prop51_counts_up_to_64(self):
        for c in verify_prop51(64):
            assert c.passed, (c.claim_id, c.expected, c.computed)

    def test_prop53_ranks_up_to_64(self):
        for c in verify_prop53(64):
            assert c.passed, (c.claim_id, c.expected, c.computed)

    def test_generator_counts(self):
        # dimension 4k: k+1 generators; dimension 4k+2: k generators
        assert len(klein_psc_generators(12)) == 4
        assert len(klein_psc_generators(14)) == 3
        assert len(klein_psc_generators(4)) == 2
        assert klein_psc_generators(6) == [frozenset({(3, 3)})]

    def test_prop51_and_prop53_to_128(self):
        for c in verify_prop51(128) + verify_prop53(128):
            assert c.passed, (c.claim_id, c.expected, c.computed)

    def test_span_algebras_are_untruncated(self):
        # complete rewriting systems: no S-pair was dropped at the cap
        d8, v2, sd, _, _ = _span_algebras()
        assert [alg.degree_bound for alg in (d8, v2, sd)] == [SPAN_DEGREE_CAP] * 3
        assert not any(alg._truncated for alg in (d8, v2, sd))

    def test_bound_guard(self):
        for verify in (verify_prop51, verify_prop53):
            with pytest.raises(ValueError, match="capped at 256"):
                verify(258)


class TestCertificateMatrix:
    def test_m0_matrices_are_1x1(self):
        assert len(quaternion_certificate_matrix(0, 3)) == 1
        assert len(quaternion_certificate_matrix(0, 7)) == 1

    def test_m1_shape(self):
        rows = quaternion_certificate_matrix(1, 3)
        assert len(rows) == 2 and len(rows[0]) == 2

    @pytest.mark.parametrize("residue", [3, 7])
    def test_bott_partner_keeps_the_dimension(self, monkeypatch, residue):
        # one refined range per row: both columns live in dimension 8m + residue
        seen = []

        def recorded(manifold, chi):
            seen.append(manifold)
            return normalized_entry(manifold, chi)
        monkeypatch.setattr(glrverify, "normalized_entry", recorded)
        quaternion_certificate_matrix(2, residue)
        first, partner = seen[0], seen[1]
        assert (first.bott_power, partner.bott_power) == (0, 1)
        assert partner.quaternion_k == first.quaternion_k - 2
        assert {m.dimension for m in seen} == {16 + residue}


class TestProp41Guards:
    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            verify_prop41(6)
        with pytest.raises(ValueError):
            verify_prop41(SPAN_DEGREE_CAP // 2 + 4)

    @pytest.mark.parametrize("n", [12, 16, 20, SPAN_DEGREE_CAP // 2])
    def test_higher_dimensions_also_pass(self, n):
        assert all(c.passed for c in verify_prop41(n))

    def test_each_branch_built_once(self, monkeypatch):
        # one Steenrod build per Sq^1 Z candidate and one Wu computation per
        # admissible branch, shared by the spin, non-spin and filter claims
        calls = {"steenrod": 0, "wu": 0}
        monkeypatch.setattr(f2ring.SteenrodData, "__init__",
                            counted(calls, "steenrod", f2ring.SteenrodData.__init__))
        monkeypatch.setattr(f2ring, "wu_classes", counted(calls, "wu", f2ring.wu_classes))
        assert all(c.passed for c in verify_prop41(8))
        assert calls == {"steenrod": 4, "wu": 2}

    def test_reads_the_shared_span_algebra(self, monkeypatch):
        _span_algebras()

        def refused(*args, **kwargs):
            raise AssertionError("prop41 built its own semidihedral algebra")
        monkeypatch.setattr(glrverify, "semidihedral_cohomology", refused)
        assert all(c.passed for c in verify_prop41(4))


class TestGuards:
    def test_q8_bound(self):
        with pytest.raises(ValueError):
            verify_q8_orders(33)

    def test_sd16_bound(self):
        with pytest.raises(ValueError, match="capped at 32"):
            verify_sd16_odd(33)
