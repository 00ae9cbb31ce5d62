import pytest

from bnkit.errors import PreconditionError
from bnkit.invariants import interpolation_points
from bnkit.normal_bundle import (
    SplitBundle,
    hh_restriction,
    modify,
    odd_degree_certificate,
    pointing_degree,
    projection_ledger,
)


class TestSplitBundle:
    def test_cohomology_and_riemann_roch(self):
        b = SplitBundle((2, -3, 0))
        assert b.h0 == 4 and b.h1 == 2
        assert b.h0 - b.h1 == b.degree + b.rank

    def test_riemann_roch_over_range(self):
        import itertools

        for degs in itertools.product(range(-4, 5), repeat=3):
            b = SplitBundle(degs)
            assert b.h0 - b.h1 == b.degree + b.rank

    def test_sorted_serialization(self):
        assert str(SplitBundle((2, -1, 0))) == "-1,0,2"


class TestModify:
    def test_positive_toward_first(self):
        assert modify(SplitBundle((2, 1, 1)), 0, "+", 1).degrees == (3, 1, 1)

    def test_negative_toward_first(self):
        assert modify(SplitBundle((2, 1, 1)), 0, "-", 1).degrees == (2, 0, 0)

    def test_rank_preserved(self):
        for sign in "+-":
            assert modify(SplitBundle((2, 1, 1)), 1, sign, 3).rank == 3

    def test_negative_is_positive_with_full_downward_twist(self):
        # the two signs differ by the full -D twist: every summand of the
        # negative modification sits |D| below the positive one
        for degs in [(3, 0, -2), (2, 1, 1), (5, 5)]:
            b = SplitBundle(degs)
            for i in range(b.rank):
                for p in range(0, 4):
                    plus = modify(b, i, "+", p)
                    minus = modify(b, i, "-", p)
                    assert minus.degrees == plus.twist(-p).degrees
                    assert all(m == q - p for m, q in zip(minus.degrees, plus.degrees))

    def test_index_error(self):
        with pytest.raises(PreconditionError, match="summand index 2 out of range for rank 2"):
            modify(SplitBundle((1, 1)), 2, "+", 1)

    @pytest.mark.parametrize("sign", ["*", ""])
    def test_sign_error(self, sign):
        with pytest.raises(PreconditionError, match="sign must be"):
            modify(SplitBundle((1, 1)), 0, sign, 1)


class TestPointing:
    def test_positions(self):
        assert pointing_degree(3, "on_curve_general") == 5
        assert pointing_degree(5, "off_tangents") == 5
        for d in range(3, 10):
            assert (
                pointing_degree(d, "on_curve_general")
                - pointing_degree(d, "off_tangents")
                == 2
            )

    def test_unknown_position(self):
        with pytest.raises(PreconditionError):
            pointing_degree(3, "somewhere")


class TestProjection:
    def test_twisted_cubic(self):
        seq = projection_ledger(3)
        assert seq.sub.degree == 5 and seq.quot.degree == 5

    def test_degree_five(self):
        seq = projection_ledger(5)
        assert (seq.sub.degree, seq.quot.degree, seq.total_degree) == (7, 11, 18)

    def test_total_degree_formula(self):
        for d in range(3, 40):
            seq = projection_ledger(d)
            assert seq.total_degree == 4 * d - 2 == 2 * (2 * d - 1)
            assert seq.sub.degree + seq.quot.degree == seq.total_degree

    def test_low_degree_refused(self):
        with pytest.raises(PreconditionError):
            projection_ledger(2)


class TestNodeRestriction:
    def test_single_node(self):
        out = hh_restriction(SplitBundle((5, 5)), [0])
        assert out.degrees == (6, 5)

    def test_common_pointing_target(self):
        out = hh_restriction(SplitBundle((5, 5)), [1] * 4)
        assert out.degrees == (5, 9)

    def test_no_nodes(self):
        b = SplitBundle((5, 5))
        assert hh_restriction(b, []) == b


class TestOddDegreeCertificate:
    def test_twisted_cubic(self):
        c = odd_degree_certificate(3)
        assert (c.peels, c.sub, c.quot) == (0, 5, 5)
        assert c.balanced and c.conclusion == (5, 5)

    def test_degree_five(self):
        c = odd_degree_certificate(5)
        assert (c.peels, c.sub, c.quot) == (1, 8, 8)

    def test_degree_ninety_nine(self):
        c = odd_degree_certificate(99)
        assert c.sub == c.quot == 149
        assert c.total == 394 == 4 * 99 - 2

    def test_all_odd_degrees_up_to_301(self):
        for d in range(3, 302, 2):
            c = odd_degree_certificate(d)
            assert c.balanced
            assert c.sub == c.quot == (3 * d + 1) // 2
            assert c.conclusion == (2 * d - 1, 2 * d - 1)
            assert c.total == 4 * d - 2

    def test_even_degree_refused(self):
        with pytest.raises(PreconditionError, match="degree 4 is even"):
            odd_degree_certificate(4)

    def test_degree_one_refused(self):
        with pytest.raises(PreconditionError):
            odd_degree_certificate(1)


class TestInterpolationConsistency:
    def test_space_curve_counts(self):
        # genus-0 degree-d curves in 3-space interpolate 2d points, and the
        # balanced normal bundle accounts for them: nonspecial of h0 = 4d
        for d in range(3, 40, 2):
            rep = interpolation_points(0, 3, d)
            assert rep.formula_value == 2 * d
            conclusion = SplitBundle(odd_degree_certificate(d).conclusion)
            assert conclusion.h1 == 0
            assert conclusion.h0 == 4 * d
            assert conclusion.h0 // conclusion.rank == 2 * d
