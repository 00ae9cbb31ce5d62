import time
from math import comb

import pytest

from bnkit.errors import PreconditionError
from bnkit.invariants import (
    INTERPOLATION_EXCEPTIONS,
    chi_pullback_tangent,
    count_grd,
    hilbert_function,
    interpolation_points,
    rho,
    rho_k,
    smrc_expected_dim,
)
from bnkit.tableaux import syt_count_rect

from oracles import brute_syt_count, rho_k_scan, rho_zero_triples


class TestRho:
    def test_known_values(self):
        assert rho(8, 2, 7) == -1
        assert rho(12, 1, 3) == -8

    def test_rational_normal_curves(self):
        for r in range(8):
            assert rho(0, r, r) == 0

    def test_rejects_negative_genus_or_rank(self):
        with pytest.raises(PreconditionError):
            rho(-1, 2, 3)
        with pytest.raises(PreconditionError):
            rho(3, -1, 3)

    def test_serre_duality_invariance(self):
        for g in range(2, 21):
            for d in range(0, 2 * g - 1):
                for r in range(0, g + 2):
                    if g - d + r - 1 < 0:
                        continue
                    assert rho(g, r, d) == rho(g, g - d + r - 1, 2 * g - 2 - d)


class TestRhoK:
    def test_known_values(self):
        assert rho_k(8, 2, 7, 4) == 0
        assert rho_k(12, 2, 7, 3) == 1

    def test_large_k_reduces_to_rho(self):
        # direct scan oracle over the full ell range
        scan = max(rho(8, 2 - ell, 7) - ell * 100 for ell in range(3))
        assert rho_k(8, 2, 7, 100) == scan == -1

    def test_closed_form_matches_scan(self):
        cases = 0
        for g in range(25):
            for r in range(12):
                for d in range(-3, 2 * g + 4):
                    for k in range(2, 9):
                        want = rho_k_scan(g, r, d, k)
                        if want is None:
                            with pytest.raises(PreconditionError, match="empty ell-range"):
                                rho_k(g, r, d, k)
                        else:
                            assert rho_k(g, r, d, k) == want, (g, r, d, k)
                        cases += 1
        assert cases == 65_100

    def test_huge_inputs_answer_at_once(self):
        # g = r = d = n, k = 2: the maximand is -ell^2 + (2n-1)*ell - n^2, at ell = n-1 it is -n
        start = time.perf_counter()
        assert rho_k(30_000_000, 30_000_000, 30_000_000, 2) == -30_000_000
        assert time.perf_counter() - start < 0.1

    def test_empty_range(self):
        with pytest.raises(PreconditionError, match=r"empty ell-range .* = -2 < 0"):
            rho_k(3, 1, 5, 3)  # g - d + r - 1 = -2

    def test_monotone_in_k_with_threshold(self):
        for g in range(2, 16):
            for r in range(1, 5):
                for d in range(1, g + r):
                    ell_max = min(r, g - d + r - 1)
                    if ell_max < 0:
                        continue
                    values = [rho_k(g, r, d, k) for k in range(2, g + 2)]
                    assert all(a >= b for a, b in zip(values, values[1:]))
                    # beyond this threshold only ell = 0 can win the max
                    gaps = [
                        rho(g, r - ell, d) - rho(g, r, d)
                        for ell in range(1, ell_max + 1)
                    ]
                    thresh = max([0] + gaps)
                    for k in range(max(2, thresh + 1), g + 2):
                        assert rho_k(g, r, d, k) == rho(g, r, d)


class TestCountGrd:
    def test_two_by_two(self):
        assert count_grd(4, 1, 3) == brute_syt_count((2, 2)) == 2

    def test_degree_zero(self):
        for g in range(7):
            assert count_grd(g, 0, 0) == 1

    def test_single_column(self):
        assert count_grd(3, 2, 4) == brute_syt_count((1, 1, 1)) == 1

    def test_rejects_nonzero_rho(self):
        with pytest.raises(PreconditionError, match="!= 0; count undefined"):
            count_grd(8, 2, 7)

    def test_matches_tableaux_for_small_genus(self):
        for g, r, d in rho_zero_triples(10, r_cap=8):
            assert count_grd(g, r, d) == syt_count_rect(r + 1, g - d + r)

    def test_transpose_symmetry(self):
        # swapping the rectangle sides is Serre duality on the index
        for g, r, d in rho_zero_triples(10, r_cap=8):
            if g == 0:
                continue
            r2, d2 = g - d + r - 1, 2 * g - 2 - d
            if r2 < 0:
                continue
            assert count_grd(g, r, d) == count_grd(g, r2, d2)


class TestChi:
    def test_known_values(self):
        assert chi_pullback_tangent(0, 3, 3) == 15
        assert chi_pullback_tangent(4, 3, 6) == 15
        assert chi_pullback_tangent(2, 3, 5) == 17

    def test_dual_formula_agreement_on_grid(self):
        for g in range(0, 25):
            for r in range(0, 10):
                for d in range(-10, 31):
                    assert chi_pullback_tangent(g, r, d) == rho(g, r, d) + (r + 1) ** 2 - 1


class TestHilbert:
    def test_known_values(self):
        assert hilbert_function(2, 3, 5, 2) == 9
        assert hilbert_function(4, 3, 6, 2) == 9

    def test_linear_forms_on_rational_normal_curve(self):
        for r in range(1, 9):
            assert hilbert_function(0, r, r, 1) == r + 1

    def test_linear_forms_on_a_special_series(self):
        # rho(8, 3, 9) = 0 and O_C(1) is special: h0 = 4 > 9 + 1 - 8 = 2
        assert hilbert_function(8, 3, 9, 1) == 4

    def test_rejects_negative_rho(self):
        # no Brill-Noether curve exists; the formula would give -3
        with pytest.raises(PreconditionError, match="rho"):
            hilbert_function(5, 3, 1, 1)

    def test_rejects_k_zero(self):
        with pytest.raises(PreconditionError):
            hilbert_function(2, 3, 5, 0)

    def test_matches_the_full_binomial_on_a_grid(self):
        cases = 0
        for g in range(0, 13):
            for r in range(0, 9):
                for d in range(0, 2 * g + r + 3):
                    if rho(g, r, d) < 0:
                        continue
                    for k in range(2, 12):
                        assert hilbert_function(g, r, d, k) == min(comb(k + r, r), k * d + 1 - g)
                        cases += 1
        assert cases > 5000

    def test_large_r_and_k_stop_at_the_cap(self):
        # C(6,000,000, 3,000,000) has about 1.8 million digits; the answer is kd + 1 - g
        start = time.perf_counter()
        assert hilbert_function(2, 3_000_000, 3_000_002, 3_000_000) == 3_000_000 * 3_000_002 - 1
        assert time.perf_counter() - start < 0.1


class TestSmrc:
    @pytest.mark.parametrize("g,r,d", [(13, 5, 16), (22, 6, 25), (23, 6, 26)])
    def test_divisorial_cases(self, g, r, d):
        assert smrc_expected_dim(g, r, d, 2) == -1

    def test_out_of_range_is_named(self):
        with pytest.raises(PreconditionError, match="rho >= 0"):
            smrc_expected_dim(8, 2, 7, 2)
        with pytest.raises(PreconditionError, match="rho < r-2"):
            smrc_expected_dim(2, 3, 5, 2)  # rho = 2 >= r-2 = 1
        with pytest.raises(PreconditionError, match=r"g-d\+r"):
            smrc_expected_dim(1, 5, 10, 2)
        with pytest.raises(PreconditionError, match="k >= 2"):
            smrc_expected_dim(13, 5, 16, 1)


class TestInterpolation:
    def test_twisted_cubic(self):
        rep = interpolation_points(0, 3, 3)
        assert rep.formula_value == 6
        assert not rep.is_exception
        assert rep.count == 6

    def test_quadric_exception(self):
        rep = interpolation_points(2, 3, 5)
        assert rep.formula_value == 10
        assert rep.is_exception
        assert rep.count == 9

    def test_other_exceptions_have_no_pinned_count(self):
        for g, r, d in [(4, 3, 6), (2, 5, 7), (6, 5, 10)]:
            rep = interpolation_points(g, r, d)
            assert rep.is_exception
            assert rep.count is None

    def test_exception_set_is_exact(self):
        hits = set()
        for r in range(3, 7):
            for g in range(0, 13):
                for d in range(r, 25):
                    if rho(g, r, d) < 0:
                        continue
                    if interpolation_points(g, r, d).is_exception:
                        hits.add((g, r, d))
        assert hits == set(INTERPOLATION_EXCEPTIONS)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            interpolation_points(3, 2, 5)
        with pytest.raises(PreconditionError):
            interpolation_points(8, 3, 5)
