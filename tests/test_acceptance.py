"""Acceptance suite: twelve numbered criteria, each a single test.

Run under pytest (one PASSED/FAILED line per criterion with -v), or
directly::

    python tests/test_acceptance.py

which prints one pass/fail line per criterion and exits nonzero if any
fails.  Everything asserted here is exact; there are no tolerances.
"""

import itertools
import sys

from bnkit.chain import (
    LimitLineBundle,
    aspect_options,
    h0_chain,
    h0_twisted,
    min_h0,
    parse_aspects,
    search_limit_bundles,
    search_witnesses,
    star_components,
    vanishing_tables,
)
from bnkit.invariants import (
    INTERPOLATION_EXCEPTIONS,
    chi_pullback_tangent,
    count_grd,
    interpolation_points,
    rho,
    rho_k,
    smrc_expected_dim,
)
from bnkit.lattice import h1_certificate, min_degree, reachable_set
from bnkit.loci import MAXIMAL_EXCEPTIONS, enumerate_expected_maximal
from bnkit.normal_bundle import odd_degree_certificate, projection_ledger
from bnkit.splitting import (
    balanced_type,
    majorizes,
    maximal_splitting_types,
    rd_from_splitting,
    rho_splitting,
)
from bnkit.tableaux import count_k_fillings, k_filling_witnesses, syt_count_rect

from oracles import brute_window_distributions, h0_chain_lr, rho_zero_triples

RUNNING = parse_aspects("0,4;2,2;0,4")

#: criterion 7 grid: desk-scale Brill-Noether (non)existence
GRID = [
    (g, r, d) for g in range(1, 5) for d in range(1, 7) for r in range(0, 4)
]


def _grid_results(window_factor: int):
    """The criterion 7 determinations per grid point: (non)emptiness, and
    the exact-stratum count where rho = 0.  (Raw counts at rho > 0 are
    relative to the enumeration box, which grows with the window, so they
    are not part of the stable result set.)"""
    out = {}
    for g, r, d in GRID:
        res = search_limit_bundles(g, r, d, window=window_factor * (g + 1))
        count = res.count_exact if rho(g, r, d) == 0 else None
        out[(g, r, d)] = (res.total > 0, count)
    return out


def test_criterion_01_exact_rho_values():
    assert rho(8, 2, 7) == -1
    assert rho_k(8, 2, 7, 4) == 0
    assert rho_k(12, 2, 7, 3) == 1
    assert rho(12, 1, 3) == -8


def test_criterion_02_product_formula_vs_enumeration():
    triples = rho_zero_triples(10, r_cap=10)
    assert (4, 1, 3) in triples and (6, 1, 4) in triples and (3, 2, 4) in triples
    for g, r, d in triples:
        assert count_grd(g, r, d) == syt_count_rect(r + 1, g - d + r)
    assert count_grd(4, 1, 3) == 2
    assert count_grd(6, 1, 4) == 5
    assert count_grd(3, 2, 4) == 1


def test_criterion_03_smrc_tuples():
    for g, r, d in [(13, 5, 16), (22, 6, 25), (23, 6, 26)]:
        assert smrc_expected_dim(g, r, d, 2) == -1


def test_criterion_04_trigonal_genus_five_splitting_loci():
    assert rd_from_splitting(5, (-2, -2, 1)) == (1, 4)
    assert rd_from_splitting(5, (-3, 0, 0)) == (1, 4)
    assert rho_splitting(5, (-2, -2, 1)) == 1
    assert rho_splitting(5, (-3, 0, 0)) == 1
    assert rho_splitting(5, (-3, -1, 1)) == 0
    assert majorizes((-2, -2, 1), (-3, -1, 1))
    assert majorizes((-3, 0, 0), (-3, -1, 1))


def test_criterion_05_k_fillings():
    assert count_k_fillings((4, 2, 1, 1), 3, 5) == 2
    witnesses = k_filling_witnesses((4, 2, 1, 1), 3, 5)
    assert [w.residues for w in witnesses] == [(0, 1, 2, 1, 0), (0, 2, 1, 2, 0)]
    for w in witnesses:
        w.validate((4, 2, 1, 1))


def test_criterion_06_chain_engine_goldens():
    for dist in [(4, 0, 0), (3, 0, 1), (1, 2, 1)]:
        assert h0_chain(RUNNING, dist) == 3
    t = vanishing_tables(RUNNING, 2)
    assert t.a_rows == ((0, 1, 2), (0, 2, 3), (1, 2, 4))
    assert t.b_rows == ((1, 2, 4), (0, 2, 3), (0, 1, 2))
    rep = star_components(RUNNING, 2)
    assert set(rep.pairs) == {(1, 0), (2, 1), (3, 2)}
    assert RUNNING.aspects == ((0, 4), (2, 2), (4, 0))


def test_criterion_07_desk_scale_nonexistence():
    results = _grid_results(window_factor=1)
    for g, r, d in GRID:
        nonempty, count_exact = results[(g, r, d)]
        p = rho(g, r, d)
        if p < 0:
            assert not nonempty, f"expected empty search at {(g, r, d)}"
        else:
            assert nonempty, f"expected nonempty search at {(g, r, d)}"
        if p == 0:
            assert count_exact == count_grd(g, r, d), (
                f"rho = 0 count mismatch at {(g, r, d)}: "
                f"{count_exact} vs N = {count_grd(g, r, d)}"
            )


def test_criterion_08_window_stability():
    # every criterion 6 result at the doubled window
    assert min_h0(RUNNING, 8) == 3
    t = vanishing_tables(RUNNING, 2, 8)
    assert t.a_rows == ((0, 1, 2), (0, 2, 3), (1, 2, 4))
    assert set(star_components(RUNNING, 2, 8).pairs) == {(1, 0), (2, 1), (3, 2)}
    # every criterion 7 result at the doubled window
    assert _grid_results(window_factor=2) == _grid_results(window_factor=1)
    # and the per-tuple windowed minima themselves are stable on the
    # largest rho = 0 case of the grid
    g, d = 4, 6
    for aspects in itertools.product(*aspect_options(g, d, g + 1)):
        L = LimitLineBundle(d, aspects)
        assert min_h0(L, g + 1) == min_h0(L, 2 * (g + 1))


def test_criterion_09_expected_maximal_loci():
    flagged = set()
    for g in range(3, 21):
        for row in enumerate_expected_maximal(g):
            assert row.d == -((-row.r * g) // (row.r + 1)) + row.r - 1
            assert -row.rho <= row.r + 1
            if row.is_maximal_exception:
                flagged.add((row.g, row.r, row.d))
    assert flagged == set(MAXIMAL_EXCEPTIONS)


def test_criterion_10_lattice_and_certificates():
    expected = {
        (d, g)
        for g, dmin in enumerate([3, 4, 5, 6, 6, 7, 8, 9, 9])
        for d in range(dmin, 10)
    }
    assert reachable_set(3, 8, 9) == expected
    for r in range(3, 7):
        for g in range(0, 21):
            for d in range(min_degree(r, g), 2 * g + 2 * r + 1):
                cert = h1_certificate(r, d, g)
                assert all(s.h1 == 0 for s in cert.steps)
                assert cert.chi == chi_pullback_tangent(g, r, d)


def test_criterion_11_normal_bundles_and_interpolation():
    seq = projection_ledger(3)
    assert (seq.sub.degree, seq.quot.degree) == (5, 5)
    for d in range(3, 302, 2):
        c = odd_degree_certificate(d)
        assert c.balanced and c.sub == c.quot == (3 * d + 1) // 2
        assert c.total == 4 * d - 2
    hits = set()
    for r in range(3, 7):
        for g in range(0, 13):
            for d in range(r, 30):
                if rho(g, r, d) >= 0 and interpolation_points(g, r, d).is_exception:
                    hits.add((g, r, d))
    assert hits == set(INTERPOLATION_EXCEPTIONS)
    rep = interpolation_points(2, 3, 5)
    assert rep.formula_value == 10 and rep.count == 9


def test_criterion_12_property_suites():
    # Serre-duality rho invariance, g <= 25
    for g in range(2, 26):
        for d in range(0, 2 * g - 1):
            for r in range(0, g + 2):
                if g - d + r - 1 >= 0:
                    assert rho(g, r, d) == rho(g, g - d + r - 1, 2 * g - 2 - d)
    # sweep-direction agreement on full enumeration up to g = 4
    # (aspect and distribution boxes of width 2 around [0, d])
    for g in range(1, 5):
        for d in range(0, 4):
            dists = brute_window_distributions(g, d, 2)
            for aspects in itertools.product(*aspect_options(g, d, 2)):
                L = LimitLineBundle(d, aspects)
                for dist in dists:
                    assert h0_chain(L, dist) == h0_chain_lr(L, dist)
    # section-count lower bound at prescribed vanishing, on every witness
    # found by the grid searches
    for g, r, d in GRID:
        if rho(g, r, d) < 0 or g == 1:
            continue
        for w in search_witnesses(g, r, d):
            L = LimitLineBundle(d, w.aspects)
            t = vanishing_tables(L, r)
            for i in range(1, g + 1):
                for n in range(r + 1):
                    for m in range(r + 1 - n):
                        got = h0_twisted(L.aspects[i - 1], d, t.a(i - 1, n), t.b(i, m))
                        assert got >= r + 1 - n - m
    # maximal-splitting-type cross-check
    for g in range(1, 17):
        for k in range(2, 7):
            for r in range(0, 9):
                for d in range(0, g + r):
                    if g - d + r <= 0:
                        continue
                    for ell in range(max(0, r + 2 - k), r + 1):
                        if ell != 0 and ell > g - d + 2 * r + 1 - k:
                            continue
                        w = tuple(
                            sorted(
                                balanced_type(k - r - 1 + ell, d - g + 1 - k - ell)
                                + balanced_type(r + 1 - ell, ell)
                            )
                        )
                        assert w in maximal_splitting_types(g, r, d, k)
                        assert rho_splitting(g, w) == rho(g, r - ell, d) - ell * k


CRITERIA = [
    (1, "exact rho and gonality-rho values", test_criterion_01_exact_rho_values),
    (2, "product formula equals tableaux enumeration", test_criterion_02_product_formula_vs_enumeration),
    (3, "strong-maximal-rank expected dimensions", test_criterion_03_smrc_tuples),
    (4, "trigonal genus-5 splitting loci", test_criterion_04_trigonal_genus_five_splitting_loci),
    (5, "k-fillings of the worked 3-core", test_criterion_05_k_fillings),
    (6, "chain engine goldens", test_criterion_06_chain_engine_goldens),
    (7, "desk-scale (non)existence search", test_criterion_07_desk_scale_nonexistence),
    (8, "window stability", test_criterion_08_window_stability),
    (9, "expected-maximal loci", test_criterion_09_expected_maximal_loci),
    (10, "existence lattice and h1 certificates", test_criterion_10_lattice_and_certificates),
    (11, "normal bundles and interpolation", test_criterion_11_normal_bundles_and_interpolation),
    (12, "property suites", test_criterion_12_property_suites),
]


def main() -> int:
    failures = 0
    for number, description, check in CRITERIA:
        try:
            check()
        except AssertionError as e:
            failures += 1
            detail = f": {e}" if str(e) else ""
            print(f"criterion {number:02d} FAIL  {description}{detail}")
        else:
            print(f"criterion {number:02d} PASS  {description}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
