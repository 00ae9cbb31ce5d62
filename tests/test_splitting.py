import itertools

import pytest

from bnkit.errors import PreconditionError
from bnkit.invariants import rho, rho_k
from bnkit.splitting import (
    balanced_type,
    hbn_predicates,
    majorizes,
    maximal_splitting_types,
    parse_splitting,
    rd_from_splitting,
    rho_splitting,
    splitting_str,
)

from oracles import rho_splitting_vs_gonality, splitting_rank, splitting_rho


class TestRdExtraction:
    def test_trigonal_genus_five_components(self):
        assert rd_from_splitting(5, (-2, -2, 1)) == (1, 4)
        assert rd_from_splitting(5, (-3, 0, 0)) == (1, 4)

    def test_trivial_summands(self):
        for g in range(6):
            for k in range(2, 6):
                assert rd_from_splitting(g, (0,) * k) == (k - 1, k + g - 1)

    def test_needs_two_parts(self):
        with pytest.raises(PreconditionError):
            rd_from_splitting(3, (1,))


class TestRhoSplitting:
    def test_trigonal_genus_five(self):
        assert rho_splitting(5, (-2, -2, 1)) == 1
        assert rho_splitting(5, (-3, 0, 0)) == 1
        assert rho_splitting(5, (-3, -1, 1)) == 0

    def test_balanced_types_have_full_rho(self):
        for g in range(8):
            for k in range(2, 6):
                for total in range(-6, 7):
                    assert rho_splitting(g, balanced_type(k, total)) == g


class TestLedger:
    # both read the split bundle pi_*L: r = h0(E) - 1, rho = g - h1(End E)
    def test_matches_the_hand_written_sums(self):
        for k in range(2, 6):
            for e in itertools.combinations_with_replacement(range(-6, 5), k):
                for g in (0, 3, 9):
                    assert rd_from_splitting(g, e[::-1]) == (splitting_rank(e), k + sum(e) + g - 1)
                    assert rho_splitting(g, e[::-1]) == splitting_rho(g, e)

    def test_genus_is_checked_before_the_type(self):
        for f in (rd_from_splitting, rho_splitting):
            with pytest.raises(PreconditionError, match="g=-1"):
                f(-1, (1,))


class TestMajorization:
    def test_intersection_lies_in_both_components(self):
        assert majorizes((-2, -2, 1), (-3, -1, 1))
        assert majorizes((-3, 0, 0), (-3, -1, 1))

    def test_reflexive(self):
        assert majorizes((-2, -2, 1), (-2, -2, 1))

    def test_shape_mismatch_reasons(self):
        assert majorizes((0, 0), (0, 0, 0)).reason == "length-mismatch"
        assert majorizes((0, 1), (0, 0)).reason == "sum-mismatch"
        assert majorizes((-3, -1, 1), (-2, -2, 1)).reason == "prefix-exceeds"

    def test_partial_order_on_small_classes(self):
        # antisymmetry and transitivity within fixed (length, sum) classes
        for k, span in ((3, range(-5, 6)), (4, range(-2, 3))):
            types = [
                t
                for t in itertools.combinations_with_replacement(span, k)
            ]
            by_sum = {}
            for t in types:
                by_sum.setdefault(sum(t), []).append(t)
            for cls in by_sum.values():
                for a, b in itertools.combinations(cls, 2):
                    if majorizes(a, b) and majorizes(b, a):
                        assert a == b
                for a, b, c in itertools.product(cls, repeat=3):
                    if majorizes(a, b) and majorizes(b, c):
                        assert majorizes(a, c)


class TestBalancedType:
    def test_examples(self):
        assert balanced_type(1, -4) == (-4,)
        assert balanced_type(3, 0) == (0, 0, 0)
        assert balanced_type(2, -5) == (-3, -2)
        assert balanced_type(2, 1) == (0, 1)

    def test_sanity_over_range(self):
        for length in range(1, 7):
            for total in range(-15, 16):
                b = balanced_type(length, total)
                assert len(b) == length
                assert sum(b) == total
                assert max(b) - min(b) <= 1
                assert b == tuple(sorted(b))


class TestMaximalTypes:
    def test_example_genus_eight(self):
        types = maximal_splitting_types(8, 2, 7, 4)
        assert types == [(-4, 0, 0, 0), (-3, -2, 0, 1), (-2, -2, -2, 2)]
        assert [rho_splitting(8, t) for t in types] == [
            rho(8, 2, 7),
            rho(8, 1, 7) - 4,
            rho(8, 0, 7) - 8,
        ]
        for t in types:
            assert rd_from_splitting(8, t) == (2, 7)

    def test_an_emitted_type_can_have_an_empty_locus(self):
        # the ell = 0 type at (5, 1, 3, 3) and the ell = 2 type at (5, 2, 5, 3)
        assert maximal_splitting_types(5, 1, 3, 3) == [(-4, 0, 0), (-3, -2, 1)]
        assert maximal_splitting_types(5, 2, 5, 3) == [(-3, 0, 1), (-2, -2, 2)]
        assert rho_splitting(5, (-4, 0, 0)) == rho_splitting(5, (-2, -2, 2)) == -1

    def test_out_of_regime(self):
        with pytest.raises(PreconditionError, match=r"stated for g-d\+r > 0, got 0"):
            maximal_splitting_types(2, 3, 5, 4)

    def test_rejects_gonality_below_two(self):
        # a degree-1 cover is no gonality; rho_k refuses k = 1 as well
        with pytest.raises(PreconditionError, match="k=1"):
            maximal_splitting_types(8, 2, 7, 1)

    def test_duality_with_gonality_rho(self):
        for g in range(1, 17):
            for k in range(2, 7):
                for r in range(0, 9):
                    for d in range(0, g + r):
                        if g - d + r <= 0:
                            continue
                        types = maximal_splitting_types(g, r, d, k)
                        for ell_index, t in enumerate(types):
                            assert rd_from_splitting(g, t) == (r, d)
                        if types and g - d + r - 1 >= 0:
                            assert rho_splitting_vs_gonality(g, r, d, k) == rho_k(g, r, d, k)


class TestPredicates:
    def test_basepoint_example(self):
        rep = hbn_predicates((-2, -2, 1))
        assert not rep.basepoint_free

    def test_scroll_example(self):
        # r = 5 here; the flag asserts plain very ampleness only (the
        # same locus famously fails 2-very-ampleness, outside this claim)
        rep = hbn_predicates((-1, 0, 1, 2))
        assert rep.basepoint_free
        assert rep.very_ample_sufficient

    def test_all_nonnegative(self):
        rep = hbn_predicates((0, 1, 1, 2))
        assert rep.basepoint_free and rep.very_ample_sufficient

    def test_rank_comes_from_the_type(self):
        # (0, 0, 0) has r = 2 < 3, so the very-ampleness criterion is silent
        rep = hbn_predicates((0, 0, 0))
        assert rep.basepoint_free and not rep.very_ample_sufficient


class TestSerialization:
    def test_roundtrip(self):
        assert parse_splitting("-3,-1,1") == (-3, -1, 1)
        assert splitting_str((1, -3, -1)) == "-3,-1,1"
