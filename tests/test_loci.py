import time

import pytest

from bnkit.errors import PreconditionError
from bnkit.invariants import rho, rho_k
from bnkit.loci import (
    MAXIMAL_EXCEPTIONS,
    enumerate_expected_maximal,
    expected_maximal,
    serre_dual,
    trivial_containments,
)

from oracles import expected_maximal_rows, sqrt_bound_holds


class TestSerreDual:
    def test_self_dual(self):
        assert serre_dual(8, 2, 7) == (8, 2, 7)

    def test_trigonal_genus_twelve(self):
        assert serre_dual(12, 1, 3) == (12, 9, 19)
        assert rho(12, 9, 19) == rho(12, 1, 3) == -8

    def test_involution_and_rho_preservation(self):
        for g in range(2, 26):
            for r in range(1, g + 2):
                for d in range(0, 2 * g - 1):
                    if g - d + r - 1 < 0:
                        continue
                    dual = serre_dual(g, r, d)
                    assert serre_dual(*dual) == (g, r, d)
                    assert rho(*dual) == rho(g, r, d)

    def test_negative_rank(self):
        with pytest.raises(PreconditionError, match=r"dual rank g-d\+r-1 = -3 < 0"):
            serre_dual(3, 1, 6)


class TestTrivialContainments:
    def test_example_with_full_moduli_flag(self):
        targets = trivial_containments(8, 1, 4)
        assert [(t.g, t.r, t.d) for t in targets] == [(8, 1, 5), (8, 0, 3)]
        assert [t.full_moduli for t in targets] == [False, True]

    def test_plain_example(self):
        targets = trivial_containments(9, 2, 7)
        assert [(t.g, t.r, t.d) for t in targets] == [(9, 2, 8), (9, 1, 6)]
        assert not any(t.full_moduli for t in targets)

    def test_rank_zero_is_refused(self):
        # subtracting a point from a rank-0 locus would give rank -1
        with pytest.raises(PreconditionError, match="r=0"):
            trivial_containments(8, 0, 4)

    def test_containment_targets_have_nonsmaller_rho(self):
        # adding a point raises rho by r+1; subtracting by g-d+r
        for g in range(3, 15):
            for r in range(1, 6):
                for d in range(2, g):
                    add, sub = trivial_containments(g, r, d)
                    assert rho(add.g, add.r, add.d) == rho(g, r, d) + r + 1
                    assert rho(sub.g, sub.r, sub.d) == rho(g, r, d) + g - d + r


class TestExpectedMaximal:
    def test_counterexample_genus_eight(self):
        rep = expected_maximal(8, 1, 4)
        assert rep.is_expected_maximal and rep.is_maximal_exception

    def test_plane_septic_locus(self):
        rep = expected_maximal(8, 2, 7)
        assert rep.is_expected_maximal and not rep.is_maximal_exception

    def test_rho_zero_is_not_proper(self):
        assert not expected_maximal(8, 1, 5).is_expected_maximal

    def test_enumeration_examples(self):
        got8 = {(row.r, row.d) for row in enumerate_expected_maximal(8)}
        assert {(1, 4), (2, 7)} <= got8
        rows7 = enumerate_expected_maximal(7)
        assert any(
            (row.r, row.d) == (2, 6) and row.is_maximal_exception for row in rows7
        )

    def test_degree_formula_and_codimension_bound(self):
        for g in range(3, 21):
            for row in enumerate_expected_maximal(g):
                r, d = row.r, row.d
                assert d == -((-r * g) // (r + 1)) + r - 1
                assert -row.rho <= r + 1

    def test_exception_flags_are_exactly_three(self):
        flagged = {
            (row.g, row.r, row.d)
            for g in range(3, 21)
            for row in enumerate_expected_maximal(g)
            if row.is_maximal_exception
        }
        assert flagged == set(MAXIMAL_EXCEPTIONS)

    def test_enumeration_is_the_scan_over_every_rank_and_degree(self):
        for g in range(3, 121):
            assert enumerate_expected_maximal(g) == expected_maximal_rows(g), g

    def test_huge_genus_stops_at_the_first_degree_reaching_g(self):
        start = time.perf_counter()
        assert len(enumerate_expected_maximal(3_000_000)) == 1731
        assert time.perf_counter() - start < 1.0

    def test_sqrt_bound(self):
        for g in range(3, 101):
            for row in enumerate_expected_maximal(g):
                assert sqrt_bound_holds(row.g, row.r, row.d)


class TestHurwitzCrossChecks:
    def test_tetragonal_genus_eight(self):
        # a 4-gonal genus-8 curve carries a g^2_7 although rho < 0
        assert rho(8, 2, 7) < 0 <= rho_k(8, 2, 7, 4)

    def test_trigonal_genus_twelve_excess_component(self):
        assert rho_k(12, 2, 7, 3) == 1
        assert -rho(12, 1, 3) == 8 < 9 == -rho(12, 2, 7)
