import pytest

from bnkit.errors import PreconditionError
from bnkit.invariants import chi_pullback_tangent, rho
from bnkit.lattice import h1_certificate, min_degree, reachable_set

#: lattice points for r = 3 inside g <= 8, d <= 9, as (d, g)
R3_BOX = {
    (d, g)
    for g, dmin in enumerate([3, 4, 5, 6, 6, 7, 8, 9, 9])
    for d in range(dmin, 10)
}


class TestMinDegree:
    def test_known_values(self):
        assert min_degree(3, 0) == 3
        assert min_degree(3, 4) == 6

    def test_canonical_curves(self):
        for r in range(1, 9):
            assert min_degree(r, r + 1) == 2 * r

    def test_agrees_with_rho_scan(self):
        for r in range(1, 7):
            for g in range(0, 31):
                d = min_degree(r, g)
                assert rho(g, r, d) >= 0 > rho(g, r, d - 1)


class TestReachableSet:
    def test_r3_box_matches_frozen_point_set(self):
        assert reachable_set(3, 8, 9) == R3_BOX

    def test_contains_start_and_single_C_target(self):
        pts = reachable_set(3, 8, 9)
        assert (3, 0) in pts and (6, 4) in pts
        assert (8, 7) not in pts  # rho(7, 3, 8) < 0

    def test_equals_nonnegative_rho_region(self):
        for r in range(1, 7):
            pts = reachable_set(r, 30, 40)
            expected = {
                (d, g)
                for g in range(31)
                for d in range(41)
                if rho(g, r, d) >= 0
            }
            assert pts == expected


class TestCertificates:
    def test_two_secant_chain(self):
        cert = h1_certificate(3, 5, 2)
        assert cert.moves == "BB"
        assert [s.bundle.degrees for s in cert.steps] == [(-1, -1, 0), (-1, -1, 0)]
        assert all(s.h1 == 0 for s in cert.steps)
        assert cert.chi == 17 == rho(2, 3, 5) + 15

    def test_base_case_rational_normal_curve(self):
        cert = h1_certificate(3, 3, 0)
        assert cert.moves == ""
        assert cert.base_bundle.degrees == (4, 4, 4)
        assert cert.base_bundle.h1 == 0

    def test_single_canonical_move(self):
        cert = h1_certificate(3, 6, 4)
        assert cert.moves == "C"
        assert cert.steps[0].bundle.degrees == (-1, -1, -1)

    def test_every_lattice_point_has_certificate(self):
        for r in range(3, 7):
            step = {"A": (1, 0), "B": (1, 1), "C": (r, r + 1)}
            for g in range(0, 21):
                dmin = min_degree(r, g)
                for d in range(dmin, 2 * g + 2 * r + 1):
                    cert = h1_certificate(r, d, g)
                    c, b = divmod(g, r + 1)
                    assert cert.moves == "A" * (d - r - b - c * r) + "B" * b + "C" * c
                    path = [(r, 0)]
                    for s in cert.steps:
                        dd, dg = step[s.move]
                        path.append((path[-1][0] + dd, path[-1][1] + dg))
                    assert path[-1] == (d, g)
                    assert all(rho(pg, r, pd) >= 0 for pd, pg in path)
                    assert all(s.h1 == 0 for s in cert.steps)
                    assert cert.chi == chi_pullback_tangent(g, r, d)
                    for s in cert.steps:
                        b = s.bundle
                        assert b.h0 - b.h1 == b.degree + b.rank

    def test_rho_negative_refused(self):
        with pytest.raises(PreconditionError, match=r"< 0; no certificate exists"):
            h1_certificate(3, 5, 4)

    def test_small_r_refused(self):
        with pytest.raises(PreconditionError):
            h1_certificate(2, 5, 2)
