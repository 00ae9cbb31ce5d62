import itertools
import math
import random

import pytest

from bnkit import chain
from bnkit.chain import (
    LimitLineBundle,
    aspect_options,
    aspects_str,
    chip_fire,
    default_window,
    h0_chain,
    is_r_positive,
    min_h0,
    parse_aspects,
    parse_distribution,
    prefix_fire,
    restrict,
    search_limit_bundles,
    search_witnesses,
    star_components,
    vanishing_tables,
)
from bnkit.errors import PreconditionError
from bnkit.invariants import count_grd, rho

from oracles import brute_window_distributions, h0_chain_lr

#: the worked genus-3 degree-4 limit line bundle: all degree at the nodes
RUNNING = parse_aspects("0,4;2,2;0,4")


def all_bundles(g: int, d: int, window: int):
    """Every canonical symbolic aspect tuple for the given chain."""
    for aspects in itertools.product(*aspect_options(g, d, window)):
        yield LimitLineBundle(d, aspects)


class TestChipFiring:
    def test_interior_fire(self):
        assert chip_fire((3, 1, 0), 2) == (4, -1, 1)

    def test_boundary_fires(self):
        assert chip_fire((3, 1, 0), 1) == (2, 2, 0)
        assert chip_fire((3, 1, 0), 3) == (3, 2, -1)

    def test_lone_component_fire_is_trivial(self):
        assert chip_fire((5,), 1) == (5,)

    def test_prefix_fire(self):
        assert prefix_fire((4, 0, 0), 1) == (3, 1, 0)

    def test_conservation_under_random_sequences(self):
        rng = random.Random(7)
        dist = (2, -1, 3, 0)
        for _ in range(200):
            i = rng.randrange(1, 5)
            dist = chip_fire(dist, i)
            assert sum(dist) == 4

    def test_fire_sequence_matches_prefix_fires(self):
        # firing E^1 then E^1,E^2 moves two units rightward step by step
        d = (4, 0, 0)
        assert prefix_fire(prefix_fire(d, 1), 1) == (2, 2, 0)

    def test_index_errors(self):
        with pytest.raises(PreconditionError, match=r"component index 3 out of range 1\.\.2"):
            chip_fire((1, 1), 3)
        with pytest.raises(PreconditionError, match=r"node index 2 out of range 1\.\.1"):
            prefix_fire((1, 1), 2)


class TestRestrict:
    def test_worked_distributions(self):
        comps = restrict(RUNNING, (3, 0, 1))
        # component 2 is the aspect (2,2) twisted down to O(-p^1 + p^2)
        assert (comps[1].left_twist, comps[1].right_twist) == (3, 1)
        assert comps[1].degree == 0
        assert comps[0].degree == 3 and comps[2].degree == 1
        comps = restrict(RUNNING, (1, 2, 1))
        assert (comps[1].left_twist, comps[1].right_twist) == (1, 1)

    def test_concentrated_distribution_is_the_aspect(self):
        for i in range(3):
            dist = [0, 0, 0]
            dist[i] = 4
            comp = restrict(RUNNING, dist)[i]
            assert comp.left_twist == comp.right_twist == 0

    def test_prefix_fire_composites_match_closed_form(self):
        L = RUNNING
        dist = (4, 0, 0)
        for moves in itertools.product(range(1, 3), repeat=3):
            d2 = dist
            for i in moves:
                d2 = prefix_fire(d2, i)
            direct = restrict(L, d2)
            prefix = 0
            for idx, comp in enumerate(direct):
                assert comp.left_twist == prefix
                prefix += d2[idx]
                assert comp.right_twist == L.d - prefix

    def test_degree_mismatch(self):
        with pytest.raises(PreconditionError, match="has total 3, bundle degree 4"):
            restrict(RUNNING, (1, 1, 1))
        with pytest.raises(PreconditionError, match="has 2 entries, chain has 3"):
            restrict(RUNNING, (2, 2))


class TestH0Component:
    def test_matched_positive_degree(self):
        comp = restrict(RUNNING, (3, 0, 1))[0]  # O(3p^1)
        assert comp.h0() == 3

    def test_degree_zero_mismatch_has_no_sections(self):
        comp = restrict(RUNNING, (4, 0, 0))[1]  # O(-2p^1 + 2p^2)
        assert comp.degree == 0 and comp.h0() == 0

    def test_generic_degree_zero_is_nontrivial(self):
        L = LimitLineBundle(4, (None, None, None))
        comp = restrict(L, (4, 0, 0))[1]
        assert comp.degree == 0 and comp.h0() == 0

    def test_exact_match_is_trivial(self):
        comp = restrict(RUNNING, (4, 0, 0))[2]  # aspect (4,0) twisted (4,0)
        assert comp.degree == 0 and comp.h0() == 1


class TestH0Chain:
    @pytest.mark.parametrize("dist", [(4, 0, 0), (3, 0, 1), (1, 2, 1)])
    def test_worked_example(self, dist):
        assert h0_chain(RUNNING, dist) == 3

    def test_sweep_directions_agree_exhaustively(self):
        # full enumeration over a box: every bundle, every distribution
        for g, d in [(2, 3), (3, 2), (3, 4)]:
            dists = brute_window_distributions(g, d, 2)
            for L in all_bundles(g, d, 2):
                for dist in dists:
                    assert h0_chain(L, dist) == h0_chain_lr(L, dist)

    def test_one_step_continuity(self):
        for L in all_bundles(3, 3, 2):
            for dist in brute_window_distributions(3, 3, 2):
                base = h0_chain(L, dist)
                for i in range(1, L.g):
                    assert abs(h0_chain(L, prefix_fire(dist, i)) - base) <= 1

    def test_sweep_directions_agree_on_random_long_chains(self):
        # the exhaustive box above stops at g = 3; these reach g = 12
        rng = random.Random(12)
        for g in range(2, 13):
            for _ in range(40):
                d = rng.randint(g - 3, g + 3)
                L = LimitLineBundle(d, tuple(rng.choice(o) for o in aspect_options(g, d, 2)))
                for _ in range(5):
                    sums = sorted(rng.randint(-2, d + 2) for _ in range(g - 1))
                    if rng.random() < 0.5:
                        rng.shuffle(sums)  # negative components too
                    dist = tuple(b - a for a, b in zip([0, *sums], [*sums, d]))
                    assert h0_chain(L, dist) == h0_chain_lr(L, dist), (L, dist)

    def test_single_component(self):
        assert h0_chain(LimitLineBundle(1, (None,)), (1,)) == 1
        assert h0_chain(LimitLineBundle(0, ((0, 0),)), (0,)) == 1
        assert h0_chain(LimitLineBundle(0, (None,)), (0,)) == 0


class TestWindowDistributions:
    def test_default_window(self):
        assert default_window(3) == 4
        # at rho = 1 the number of r-positive tuples grows with the window
        assert [search_limit_bundles(3, 1, 3, window=w).total for w in (3, 4, 5)] == [13, 15, 17]
        assert search_limit_bundles(3, 1, 3) == search_limit_bundles(3, 1, 3, window=4)
        assert min_h0(RUNNING) == min_h0(RUNNING, default_window(RUNNING.g))


class TestMinH0:
    def test_worked_example(self):
        assert min_h0(RUNNING, 4) == 3

    def test_window_stability(self):
        assert min_h0(RUNNING, 4) == min_h0(RUNNING, 8)

    def test_minimum_bounded_by_any_member(self):
        d1 = (RUNNING.d, 0, 0)
        assert min_h0(RUNNING, 0) <= h0_chain(RUNNING, d1)

    def test_min_matches_exhaustive_enumeration(self):
        for L in all_bundles(2, 3, 3):
            brute = min(h0_chain(L, dist) for dist in brute_window_distributions(2, 3, 3))
            assert min_h0(L, 3) == brute
        for L in itertools.islice(all_bundles(3, 2, 3), 0, None, 7):
            brute = min(h0_chain(L, dist) for dist in brute_window_distributions(3, 2, 3))
            assert min_h0(L, 3) == brute


class TestRPositivity:
    def test_running_example_is_two_positive(self):
        rep = is_r_positive(RUNNING, 2, 4)
        assert rep.is_r_positive and rep.min_h0 == 3
        assert h0_chain(RUNNING, rep.witness) == 3

    def test_not_three_positive_with_witness(self):
        rep = is_r_positive(RUNNING, 3, 4)
        assert not rep.is_r_positive
        assert h0_chain(RUNNING, rep.witness) == rep.min_h0 == 3

    def test_degree_one_elliptic(self):
        rep = is_r_positive(LimitLineBundle(1, (None,)), 0)
        assert rep.is_r_positive

    def test_negative_r_is_refused(self):
        with pytest.raises(PreconditionError, match="r=-1"):
            is_r_positive(RUNNING, -1)


class TestVanishingTables:
    def test_worked_tables(self):
        t = vanishing_tables(RUNNING, 2, 4)
        assert t.a_rows == ((0, 1, 2), (0, 2, 3), (1, 2, 4))
        assert t.b_rows == ((1, 2, 4), (0, 2, 3), (0, 1, 2))
        assert [t.a(2, n) for n in range(3)] == [1, 2, 4]

    def test_column_index_out_of_range_is_refused(self):
        # n runs over 0..r; -1 must not wrap to the last column
        t = vanishing_tables(RUNNING, 2)
        for n in (-1, 3):
            with pytest.raises(PreconditionError, match=r"0 <= n <= 2"):
                t.a(1, n)
            with pytest.raises(PreconditionError, match=r"0 <= n <= 2"):
                t.b(1, n)

    def test_boundaries(self):
        t = vanishing_tables(RUNNING, 2)
        assert t.a_rows[0] == (0, 1, 2)
        assert t.b_rows[-1] == (0, 1, 2)

    def test_complement_identity_and_monotonicity(self):
        t = vanishing_tables(RUNNING, 2, 4)
        for i in range(1, 3):
            for n in range(3):
                assert t.b(i, n) == t.d - t.a(i, t.r - n)
        for row in t.a_rows:
            assert all(a < b for a, b in zip(row, row[1:]))

    def test_window_stability(self):
        t1 = vanishing_tables(RUNNING, 2, 4)
        t2 = vanishing_tables(RUNNING, 2, 8)
        assert t1.a_rows == t2.a_rows and t1.b_rows == t2.b_rows

    def test_requires_r_positive(self):
        with pytest.raises(PreconditionError, match=r"windowed min h0 = 3 < r\+1 = 4"):
            vanishing_tables(RUNNING, 3)

    def test_negative_r_is_refused(self):
        # star_components reads the tables, so it refuses r = -1 as well
        for engine in (vanishing_tables, star_components):
            with pytest.raises(PreconditionError, match="r=-1"):
                engine(RUNNING, -1)

    def test_lls_inequality_on_running_example(self):
        # sections through prescribed vanishing at both nodes
        t = vanishing_tables(RUNNING, 2, 4)
        from bnkit.chain import h0_twisted

        for i in range(1, 4):
            for n in range(3):
                for m in range(3):
                    if n + m > 2:
                        continue
                    got = h0_twisted(
                        RUNNING.aspects[i - 1], 4, t.a(i - 1, n), t.b(i, m)
                    )
                    assert got >= 2 + 1 - n - m


class TestStars:
    def test_worked_example(self):
        rep = star_components(RUNNING, 2, 4)
        assert set(rep.pairs) == {(1, 0), (2, 1), (3, 2)}
        assert rep.per_n == {0: 1, 1: 1, 2: 1}
        assert rep.lower_bound == 3 - 4 + 2

    def test_stars_can_be_empty_when_rho_positive(self):
        # plenty of slack: no component aspect is forced
        L = parse_aspects("gen;gen", d=5)
        rep = star_components(L, 0)
        assert rep.pairs == ()


class TestSearch:
    def test_negative_rho_is_empty(self):
        res = search_limit_bundles(2, 1, 1)
        assert res.count_exact == res.count_with_generic == 0

    def test_running_example_is_the_unique_exact_solution(self):
        res = search_limit_bundles(3, 2, 4)
        assert res.count_exact == 1
        exact = [w for w in search_witnesses(3, 2, 4) if all(a is not None for a in w.aspects)]
        assert exact[0].aspects == RUNNING.aspects

    def test_trivial_bundle_on_one_component(self):
        res = search_limit_bundles(1, 0, 0)
        assert res.count_exact == 1
        assert search_witnesses(1, 0, 0)[0].aspects == ((0, 0),)

    def test_rho_zero_counts_match_intersection_numbers(self):
        for g, r, d in [(2, 1, 2), (3, 2, 4), (4, 1, 3)]:
            res = search_limit_bundles(g, r, d)
            assert res.count_exact == count_grd(g, r, d)

    def test_desk_scale_nonexistence(self):
        for g in range(1, 4):
            for d in range(1, 5):
                for r in range(0, 3):
                    res = search_limit_bundles(g, r, d)
                    if rho(g, r, d) < 0:
                        assert res.total == 0, (g, r, d)
                    else:
                        assert res.total > 0, (g, r, d)

    def test_most_generic_aspects_is_the_brill_noether_number(self):
        # the dimension theorem read off the chain: an r-positive tuple has
        # at most min(rho, g) generic aspects, some has that many, and none
        # exists when rho < 0
        cases = [(g, r, d) for g in range(1, 5) for r in range(1, 4) for d in range(1, 2 * g + 1)]
        cases += [(5, r, d) for r in range(1, 4) for d in range(1, 11) if rho(5, r, d) <= 2]
        assert len(cases) == 77
        for g, r, d in cases:
            hits = search_witnesses(g, r, d)
            if rho(g, r, d) < 0:
                assert hits == (), (g, r, d)
            else:
                most = max(w.aspects.count(None) for w in hits)
                assert most == min(rho(g, r, d), g), (g, r, d)

    def test_genus_six_rho_zero_counts(self):
        for g, r, d in [(6, 1, 4), (6, 2, 6)]:
            res = search_limit_bundles(g, r, d)
            assert res.count_exact == count_grd(g, r, d) == 5
            assert res.count_with_generic == 0

    def test_counts_without_listing_the_hits(self):
        # every one of the 1,827,904 tuples at (6, 3, 10) is r-positive, since
        # h0 >= d - g + 1 = 5 at d = 2g - 2; the count lists none of them
        assert search_limit_bundles(6, 3, 10) == (390_625, 1_437_279)
        assert search_limit_bundles(6, 1, 6) == (194_481, 122_056)

    def test_hit_guard_refuses_before_any_witness(self, monkeypatch):
        def no_witness(*args):
            raise AssertionError("a refused listing built a SearchWitness")

        monkeypatch.setattr(chain, "SearchWitness", no_witness)
        with pytest.raises(PreconditionError, match=r"listing refused: 1827904 hits \(guard \d+\)"):
            search_witnesses(6, 3, 10)

    def test_budget_guard(self):
        with pytest.raises(PreconditionError, match="state space 16336404 tuples"):
            search_limit_bundles(7, 1, 3)

    def test_budget_refusal_reports_the_window_asked_for(self):
        # window 40: 2 * 85**3 * 2 tuples, not the default window's count
        size = math.prod(len(o) for o in aspect_options(5, 3, 40))
        assert size == 2456500
        with pytest.raises(PreconditionError, match=rf"state space {size} tuples"):
            search_limit_bundles(5, 1, 3, window=40)

    def test_refusals_come_before_any_work(self, monkeypatch):
        def start(lo, hi):
            raise AssertionError("a refused computation reached the chain DP")

        chain._kernel_pass.cache_clear()  # a pass held from before would not reach _start
        monkeypatch.setattr(chain, "_start", start)
        guarded = [
            lambda: min_h0(RUNNING, 10**6),
            lambda: is_r_positive(RUNNING, 2, 10**6),
            lambda: vanishing_tables(RUNNING, 2, 10**6),
            lambda: star_components(RUNNING, 2, 10**6),
            lambda: search_limit_bundles(1, 0, 0, window=10**6),
            lambda: search_limit_bundles(6, 0, 11),
        ]
        for call in guarded:
            with pytest.raises(PreconditionError, match=r"refused.*\(guard \d+\)"):
                call()

    def test_negative_r_is_refused(self):
        # at r = -1 every tuple would count as "r-positive"
        with pytest.raises(PreconditionError, match="r=-1"):
            search_limit_bundles(3, -1, 4)

    def test_negative_window_is_refused(self):
        with pytest.raises(PreconditionError, match="window"):
            search_limit_bundles(3, 1, 3, window=-1)
        with pytest.raises(PreconditionError, match="window"):
            min_h0(RUNNING, -1)
        # not a truncated option set
        with pytest.raises(PreconditionError, match="window=-1"):
            aspect_options(3, 4, -1)

    def test_minima_match_single_bundle_engine(self):
        for w in search_witnesses(3, 1, 3):
            assert min_h0(LimitLineBundle(3, w.aspects), 4) == w.min_h0


class TestSerialization:
    def test_roundtrip_and_end_mirroring(self):
        assert RUNNING.aspects == ((0, 4), (2, 2), (4, 0))
        assert aspects_str(RUNNING) == "0,4;2,2;0,4"
        L = parse_aspects("[0,4; 2,2; 0,4]")
        assert L == RUNNING

    def test_generic_markers(self):
        L = parse_aspects("gen;0,3;gen", d=3)
        assert L.aspects == (None, (0, 3), None)
        assert aspects_str(L) == "gen;0,3;gen"

    def test_total_degree_comes_from_agreeing_exact_aspects(self):
        with pytest.raises(PreconditionError) as info:
            parse_aspects("0,4;2,3;0,4")
        assert str(info.value) == "exact aspects have different total degrees [4, 5]"
        with pytest.raises(PreconditionError) as info:
            parse_aspects("gen;gen")
        assert str(info.value) == "no exact aspect fixes the total degree"

    def test_distribution_parsing(self):
        assert parse_distribution("3,0,1") == (3, 0, 1)
