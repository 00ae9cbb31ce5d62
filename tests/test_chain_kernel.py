"""The linear chain-DP kernel against the quadratic sweep it replaced.

``bnkit.chain._dp_step`` glues one component with a generic aspect onto
a prefix state in time linear in the window, and ``_patch`` rewrites from
that state alone the two cells an exact aspect changes; both take keys
s - lo of the window, never lo itself.  ``oracles`` keeps the pairwise
sweep, which tries every pair of old and new prefix sums; every test here
asks the two for the same numbers, including missing states and exact
aspects on the two diagonals where the component has degree 0 or 1.  So
do the readers built on them: ``_dp_end``, the last component's state at
the key of S_g = d, and ``_search_step``, a search node's children, where
every option whose exact key holds a missing cell shares the generic
child.  The generic step must also equal exactly the ``accumulate`` folds
over builtin ``min`` it was once written as, missing values above INF
included.  ``_search_step`` tests no key against the window, so every exact
option of ``aspect_options`` is checked to lie in it.

The search's closed-form bound tables are checked the same way, against
the recursion over every cell that takes the worse (upper table) or the
better (lower table) outcome per cell, and the pruned search against the
oracle that visits every tuple.  The bounds themselves are checked
directly: at every prefix of a small search they sandwich the min h0 of
every completion, which catches an unsound table even where it happens
not to cross r + 1.  Both searches clamp their states with the lower
table, the counts at r and the listing at each child's own upper bound,
and both give the counts and witnesses of a search whose lower table
clamps nothing; a search whose tables neither prune nor clamp gives the
same result as the pruned one.
A search runs the kernel once per distinct (depth, merged state), which
a counting wrapper around the kernel pins, and with the tuple guard
lifted its rho = 0 counts up to genus 16 are those of ``count_grd``.
The windowed pass is memoized for the last two (bundle, window range)
pairs, and the tables for the last two (bundle, r, window, range) keys;
``cache_info`` pins their hits, misses and evictions.  The witness walk,
which searches each node by region, gives the witness of
``oracles.scan_witness``, the walk over every key it replaced.
"""

import itertools
import random
from operator import add

import pytest

from bnkit import chain
from bnkit.chain import (
    LimitLineBundle,
    aspect_options,
    is_r_positive,
    min_h0,
    search_limit_bundles,
    search_witnesses,
    star_components,
    vanishing_tables,
)
from bnkit.errors import InternalCheckError, PreconditionError
from bnkit.invariants import count_grd, rho

import oracles
from oracles import INF

#: the criterion 7 grid
GRID = [(g, r, d) for g in range(1, 5) for d in range(1, 7) for r in range(0, 4)]


def _norm(values):
    """Missing kernel states may sit anywhere at or above INF."""
    return [min(x, INF) for x in values]


def _random_state(rng, width):
    def entry():
        return INF if rng.random() < 0.3 else rng.randint(0, 12)

    return [entry() for _ in range(width)], [entry() for _ in range(width)]


def _random_aspect(rng, d, lo, hi, off=2):
    if rng.random() < 0.25:
        return None
    a = rng.randint(lo - off, hi + off)  # on the window, and with off > 0 next to and off it
    return (a, d - a)


def _state(aspect, C, lo):
    """The state of one aspect: the generic step with an exact aspect's two
    cells written in place, as the kernel pass builds it."""
    m0, m1 = chain._dp_step(C)
    if aspect is not None and 0 <= (k := aspect[0] - lo) < len(m0):
        chain._patch(k, C, m0, m1)
    return m0, m1


class TestStep:
    def test_step_matches_pairwise_sweep(self):
        """The step with an exact aspect's cells patched in against the
        pairwise sweep, and the generic step exactly against the
        ``accumulate`` folds of ``oracles``: on windows of one cell
        (merged arrays of two), of up to 5 cells past [0, d], and of
        certify's 2w windows, about 70 cells; with missing values at INF
        and above it, where m1 leaves them.  The folds also see merged
        arrays of one cell and seeded random arrays with negative cells."""
        rng = random.Random(2026)
        diagonal_hits = above = widest = 0
        cases = [(rng.randint(-2, 8), rng.randint(0, 5)) for _ in range(3000)]
        cases += [(0, 0)] * 20 + [(rng.randint(0, 20), rng.randint(20, 26)) for _ in range(30)]
        for d, window in cases:
            _, lo, hi = chain._window(1, d, window)
            state = tuple(
                [x + rng.randint(0, 70) if x >= INF and rng.random() < 0.5 else x for x in n]
                for n in _random_state(rng, hi - lo + 1)
            )
            above += any(x > INF for n in state for x in n)
            aspect = _random_aspect(rng, d, lo, hi)
            want = oracles.forward_dp_step(aspect, d, lo, hi, state)
            C = chain._merge(*state)
            widest = max(widest, len(C))
            assert chain._dp_step(C) == oracles.accumulate_dp_step(C), C
            got = _state(aspect, C, lo)
            assert tuple(map(_norm, got)) == want, (d, lo, hi, aspect, state)
            if aspect is not None and lo <= aspect[0] <= hi:
                diagonal_hits += 1
        assert diagonal_hits > 1000 and above > 1000 and widest >= 70
        for width in [1, 1, 2, 2, *range(1, 80)] * 5:
            C = [
                rng.choice((INF, INF + rng.randint(1, 70), rng.randint(-3, 20)))
                for _ in range(width)
            ]
            assert chain._dp_step(C) == oracles.accumulate_dp_step(C), C

    def test_finish_matches_pairwise_sweep(self):
        """``_dp_end`` reads the state at S_g = d (index t = d - lo) without
        building it, for the last component's two options, generic and
        (d, 0): against the oracle's last component, and against the whole
        state of the step with the exact option's cells patched in."""
        rng = random.Random(11)
        for _ in range(3000):
            d = rng.randint(-2, 8)
            _, lo, hi = chain._window(1, d, rng.randint(0, 5))
            state = _random_state(rng, hi - lo + 1)
            C, t, leaf = chain._merge(*state), d - lo, [None, (d, 0)]
            got = chain._dp_end(leaf, C, t)
            if min(min(state[0]), min(state[1])) < INF:
                assert got == [oracles.forward_dp_finish(a, d, lo, state) for a in leaf]
            want = [min(m0[t], m1[t]) for m0, m1 in (_state(a, C, lo) for a in leaf)]
            assert _norm(got) == _norm(want), (C, lo, d)

    def test_shared_call_equals_one_call_per_aspect(self):
        rng = random.Random(5)
        for _ in range(300):
            d = rng.randint(0, 6)
            _, lo, hi = chain._window(1, d, rng.randint(0, 4))
            C = chain._merge(*_random_state(rng, hi - lo + 1))
            # a search passes only options inside the window (test_options_lie_in_the_window)
            aspects = [_random_aspect(rng, d, lo, hi, off=0) for _ in range(6)]
            leaf, r, t = [rng.choice([None, (d, 0)]) for _ in range(6)], rng.randint(0, 12), d - lo
            assert chain._dp_end(leaf, C, t) == [chain._dp_end((a,), C, t)[0] for a in leaf]
            U, Lb = ([rng.randint(0, 6) for _ in C] for _ in range(2))
            for clamp in (True, False):
                args = C, lo, U, Lb, r, clamp
                together = chain._search_step(aspects, *args)
                alone = [kid for a in aspects for kid in chain._search_step((a,), *args)]
                assert together == alone

    def test_options_lie_in_the_window(self):
        """Every exact option of ``aspect_options`` has both coefficients in
        the range [lo, hi] of ``_window``, so ``_search_step`` reads every
        option's key inside the window: interior options lie in
        [-w, d + w], and the end ones are 0 and d.  The grid reaches
        d < -w, where lo = d, and d <= -2w - 1, where the interior has no
        exact option."""
        exact = below = empty = 0
        for g in range(1, 11):
            for d in range(-5, 2 * g + 6):
                for w in (0, 1, 2, 3, 4, None):
                    w, lo, hi = chain._window(g, d, w)
                    options = [a for opts in aspect_options(g, d, w) for a in opts if a is not None]
                    assert all(lo <= x <= hi for a in options for x in a), (g, d, w)
                    exact += len(options)
                    below += d < -w and lo == d
                    empty += g > 2 and d <= -2 * w - 1 and len(options) == 2
        assert (exact, below, empty) == (89_886, 156, 72)

    def test_search_step_children_against_the_sweep(self):
        """Each option's child is ``_merge`` of the pairwise sweep's state,
        kept exactly when t = min(C2 + U) > r, and clamped at r with
        ``clamp`` or at its own t without it: every key with C2 + Lb above
        the threshold reads INF.  For every option with a key k of the
        window, 0, 1, n - 2 and n - 1 among them, with C[k] missing and
        finite, at r just below and at t and far from it.  An option at a
        missing key gets the generic option's child."""
        rng = random.Random(28)
        edges = missing = 0
        for _ in range(300):
            d = rng.randint(-2, 8)
            _, lo, hi = chain._window(1, d, rng.randint(0, 5))
            n = hi - lo + 1
            state = _random_state(rng, n)
            C = chain._merge(*state)
            U, Lb = [rng.randint(-2, 8) for _ in C], [rng.randint(0, 6) for _ in C]
            for k in [*range(n), None]:
                aspect = None if k is None else (lo + k, d - lo - k)
                merged = chain._merge(*oracles.forward_dp_step(aspect, d, lo, hi, state))
                bound = min(map(add, merged, U))
                edges += k in (0, 1, n - 2, n - 1)
                missing += (shared := k is not None and C[k] >= INF)
                for r in {-3, 24, *((bound - 1, bound) if bound < INF else ())}:
                    for clamp in (True, False):
                        kept = chain._search_step((aspect,), C, lo, U, Lb, r, clamp)
                        assert bool(kept) == (bound > r), (C, lo, aspect, U, r)
                        if kept:
                            t = r if clamp else bound
                            want = [c if c + b <= t else INF for c, b in zip(merged, Lb)]
                            assert kept[0][1] == want, (C, lo, aspect, U, Lb, r, clamp)
                        if shared:
                            generic = chain._search_step((None,), C, lo, U, Lb, r, clamp)
                            assert [kid for _, kid in kept] == [kid for _, kid in generic]
        assert edges > 1000 and missing > 300


def _oracle_a_rows(tables, g, r, lo):
    """a(i, n) read off the quadratic DP's per-node minima, or None when
    one is not attained strictly inside the window."""
    rows = [tuple(range(r + 1))]
    for i in range(1, g):
        minsuf = tables[i]
        row = []
        for n in range(r + 1):
            alphas = [lo + idx for idx, m in enumerate(minsuf) if m >= r + 1 - n]
            if not alphas or alphas[-1] == lo + len(minsuf) - 1:
                return None
            row.append(alphas[-1])
        rows.append(tuple(row))
    return tuple(rows)


def _random_bundles(rng, count):
    for _ in range(count):
        g = rng.randint(2, 8)
        d = rng.randint(0, 8)
        options = aspect_options(g, d, g + 1)
        yield LimitLineBundle(d, tuple(rng.choice(o) for o in options))


class TestWindowedMinima:
    def test_minima_tables_and_witness_match_quadratic_dp(self):
        rng = random.Random(8)
        for L in _random_bundles(rng, 60):
            w = L.g + 1
            for window in (w, 2 * w):
                best, witness, tables = oracles.suffix_dp(L, window)
                assert min_h0(L, window) == best
                rep = is_r_positive(L, 0, window)
                assert (rep.min_h0, rep.witness) == (best, witness)
                _, lo, states, pass_best, pass_witness = chain._suffix_pass(L, window)
                assert (pass_best, pass_witness) == (best, witness)
                for i in range(1, L.g):
                    n0, n1 = states[L.g - i - 1]
                    assert _norm(min(a, b) for a, b in zip(n0, n1))[::-1] == tables[i]
                r = best - 1
                if r < 0:
                    continue
                rows = _oracle_a_rows(tables, L.g, r, lo)
                if rows is None:
                    with pytest.raises(PreconditionError, match="not attained strictly inside window"):
                        vanishing_tables(L, r, window)
                else:
                    a_rows = vanishing_tables(L, r, window).a_rows
                    assert a_rows == rows
                    assert all(x < y for row in a_rows for x, y in zip(row, row[1:]))

    def test_ties_in_witnesses_on_every_small_bundle(self):
        # exhaustive over a box: many distributions tie for the minimum
        for g, d, windows in [(2, 2, (0, 1, 3)), (3, 1, (0, 1, 3)), (3, 3, (0, 1, 3)),
                              (4, 2, (0, 1, 2)), (4, 4, (0, 1, 2))]:
            for aspects in itertools.product(*aspect_options(g, d, 2)):
                L = LimitLineBundle(d, aspects)
                for window in windows:
                    best, witness, _ = oracles.suffix_dp(L, window)
                    rep = is_r_positive(L, 0, window)
                    assert (rep.min_h0, rep.witness) == (best, witness)

    def test_single_component(self):
        for L in (LimitLineBundle(0, ((0, 0),)), LimitLineBundle(2, (None,))):
            assert is_r_positive(L, 0, 1).witness == (L.d,)
            assert min_h0(L, 1) == oracles.suffix_dp(L, 1)[0]


class TestWitnessRegions:
    """``_witness`` finds each predecessor by region (``_predecessor``);
    ``oracles.scan_witness`` is the walk it replaced, which visits every key
    of each merged array from the top.  The two must give the same
    witness, or the same error."""

    #: (eps, where the predecessor key i lies against the degree-0 key t)
    REGIONS = {(0, "past t"), (0, "t"), (0, "t - 1"), (1, "t"), (1, "t - 1"), (1, "below")}

    @staticmethod
    def _walk(*args):
        try:
            return chain._witness(*args)
        except InternalCheckError as exc:
            return str(exc)

    @staticmethod
    def _scan(*args):
        try:
            return oracles.scan_witness(*args)
        except InternalCheckError as exc:
            return str(exc)

    def test_region_search_equals_the_scan_of_every_key(self, monkeypatch):
        """First every walk of the kernel passes over seeded bundles, with
        d < 0, d = 0 and d > 0, windows 0, 1, w and 2w, and exact aspects on
        both diagonals and off the window.  They reach both ranks and every
        region but (0, t - 1), an exact aspect at degree 1 ending with rank
        0: no pass reached it, nor any bundle with 2 <= g <= 4,
        d = -3..2g + 1, windows 0..2 and every aspect generic or (a, d - a)
        with lo - 1 <= a <= hi + 1.  Then one
        node over arbitrary arrays, states and targets, which reach every
        region and targets with no predecessor."""
        passes, regions, walk, find = [], set(), chain._witness, chain._predecessor

        def record_walk(*args):
            passes.append(args)
            return walk(*args)

        def record_region(C, key, t, eps, val):
            i = find(C, key, t, eps, val)
            if i is not None:
                regions.add((eps, "past t" if i > t else "t" if i == t else "t - 1" if i == t - 1 else "below"))
            return i

        monkeypatch.setattr(chain, "_witness", record_walk)
        monkeypatch.setattr(chain, "_predecessor", record_region)
        chain._kernel_pass.cache_clear()
        rng, off_window = random.Random(36), 0
        for g in range(2, 7):
            w = g + 1
            for d in (-g, -1, 0, 1, g, 2 * g):
                for window in (0, 1, w, 2 * w):
                    _, lo, hi = chain._window(g, d, window)
                    for _ in range(6):
                        aspects = tuple(_random_aspect(rng, d, lo, hi) for _ in range(g))
                        off_window += any(a and not lo <= a[0] <= hi for a in aspects)
                        min_h0(LimitLineBundle(d, aspects), window)
        chain._kernel_pass.cache_clear()
        monkeypatch.setattr(chain, "_witness", walk)
        assert len(passes) > 600 and off_window > 100
        for args in passes:
            assert self._walk(*args) == self._scan(*args)
        assert regions == self.REGIONS - {(0, "t - 1")}

        lo, width, missing = -3, 8, 0
        for _ in range(3000):
            C = [INF if rng.random() < 0.2 else rng.randint(0, 6) for _ in range(width)]
            prev1 = [INF if rng.random() < 0.3 else rng.randint(0, 7) for _ in range(width - 1)]
            key, t, eps = rng.choice([None, *range(width - 1)]), rng.randrange(width - 1), rng.randint(0, 1)
            val = rng.randint(0, 8)
            args = (lo + t, lo, (None, key), [([], prev1)], [C], eps, val)
            missing += isinstance(walked := self._walk(*args), str)
            assert walked == self._scan(*args), args
        assert regions == self.REGIONS and missing > 100


class TestKernelPassMemo:
    """``_kernel_pass`` keeps the last two passes, keyed by (bundle, lo, hi)
    after the window is validated, so the certify sequence at w and 2w runs
    the kernel once per window.  ``_tables`` keeps the last two tables,
    keyed by (bundle, r, window, lo, hi) after r and the window are
    validated, so the star condition reads the tables just built."""

    L = LimitLineBundle(4, ((0, 4), (2, 2), None, (4, 0)))

    def test_window_is_validated_before_the_memo(self):
        chain._kernel_pass.cache_clear()
        best = min_h0(self.L, 1)
        with pytest.raises(TypeError, match="need an integer window"):
            min_h0(self.L, 1.0)
        assert min_h0(self.L, True) == best
        info = chain._kernel_pass.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_certify_sequence_runs_one_pass_per_window(self):
        L, w = self.L, self.L.g + 1
        chain._kernel_pass.cache_clear()
        rep = is_r_positive(L, 0, w)
        rep2 = is_r_positive(L, 0, 2 * w)
        r = rep.min_h0 - 1
        assert r >= 0
        chain._tables.cache_clear()
        vanishing_tables(L, r, w)
        star_components(L, r, w)
        info = chain._kernel_pass.cache_info()
        assert (info.misses, info.hits) == (2, 1)
        tables = chain._tables.cache_info()
        assert (tables.misses, tables.hits) == (1, 1)
        # a read from the memo gives the quadratic DP's answer at each window
        for window, first in ((w, rep), (2 * w, rep2)):
            best, witness, _ = oracles.suffix_dp(L, window)
            again = is_r_positive(L, 0, window)
            assert (again.min_h0, again.witness) == (first.min_h0, first.witness) == (best, witness)
        assert chain._kernel_pass.cache_info().misses == 2

    def test_window_is_validated_before_the_tables_memo(self):
        chain._tables.cache_clear()
        tables = vanishing_tables(self.L, 1, 1)
        with pytest.raises(TypeError, match="need an integer window"):
            vanishing_tables(self.L, 1, 1.0)
        assert vanishing_tables(self.L, 1, True) is tables
        assert vanishing_tables(self.L, True, 1) is tables and tables.r == 1
        info = chain._tables.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_a_refusal_is_raised_on_every_call(self):
        """No refusal is cached: r >= min h0 and a threshold at the window's
        edge are refused again on every call, by the tables and the star."""
        chain._tables.cache_clear()
        for r, window, match in ((2, 1, "min h0 = 2 < r[+]1 = 3"), (0, 0, "enlarge it")):
            for _ in range(2):
                for call in (vanishing_tables, star_components):
                    with pytest.raises(PreconditionError, match=match):
                        call(self.L, r, window)
        info = chain._tables.cache_info()
        assert (info.misses, info.hits, info.currsize) == (8, 0, 0)

    def test_a_third_window_or_bundle_evicts_the_oldest(self):
        L, other = self.L, LimitLineBundle(3, ((0, 3), None, (3, 0)))
        for third in (lambda: min_h0(L, 3), lambda: min_h0(other, 1)):
            chain._kernel_pass.cache_clear()
            min_h0(L, 1)
            min_h0(L, 2)
            third()
            min_h0(L, 2)  # still held
            assert chain._kernel_pass.cache_info().misses == 3
            min_h0(L, 1)  # evicted by the third
            assert chain._kernel_pass.cache_info().misses == 4

    def test_one_witness_walk_per_pass_kept_with_the_states_and_min(self, monkeypatch):
        L, w = self.L, self.L.g + 1
        walks, walk = [], chain._witness
        monkeypatch.setattr(chain, "_witness", lambda *args: walks.append(args) or walk(*args))
        chain._kernel_pass.cache_clear()
        rep = is_r_positive(L, 0, w)
        is_r_positive(L, 0, 2 * w)
        vanishing_tables(L, rep.min_h0 - 1, w)
        star_components(L, rep.min_h0 - 1, w)
        is_r_positive(L, 0, w)
        assert len(walks) == chain._kernel_pass.cache_info().misses == 2
        for window in (w, 2 * w):
            best, witness, _ = oracles.suffix_dp(L, window)
            _, lo, hi = chain._window(L.g, L.d, window)
            states, *rest = entry = chain._kernel_pass(L, lo, hi)  # a hit: no walk
            assert len(entry) == 3 and rest == [best, witness]
            assert len(states) == L.g and all(len(state) == 2 for state in states)
        assert len(walks) == chain._kernel_pass.cache_info().misses == 2
        chain._kernel_pass.cache_clear()

    def test_windows_with_one_range_share_a_pass(self):
        # for d <= -window the range is [d, 0] whatever the window
        L = LimitLineBundle(-5, ((0, -5), None, (-5, 0)))
        chain._kernel_pass.cache_clear()
        assert chain._window(L.g, L.d, 2)[1:] == chain._window(L.g, L.d, 3)[1:]
        assert min_h0(L, 2) == min_h0(L, 3) == oracles.suffix_dp(L, 3)[0]
        info = chain._kernel_pass.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def _search(*args):
    """The counts and the witnesses of one search, as ``oracle_search``
    gives them."""
    return search_limit_bundles(*args), search_witnesses(*args)


class TestSearchAgainstOracleStep:
    def test_criterion_seven_grid(self):
        for g, r, d in GRID:
            assert _search(g, r, d) == oracles.oracle_search(g, r, d), (g, r, d)

    def test_genus_five(self):
        assert _search(5, 1, 4) == oracles.oracle_search(5, 1, 4)

    def test_every_window_rank_and_degree_on_small_chains(self):
        for g in range(1, 5):
            for d in range(-2, 2 * g + 2):
                for window in (0, 1, 2, None):
                    minima = oracles.oracle_minima(g, d, window)
                    for r in range(5):
                        want = oracles.oracle_search(g, r, d, window, minima)
                        assert _search(g, r, d, window) == want, (g, r, d, window)


class TestSearchSharesNodes:
    def test_one_kernel_call_per_depth_and_merged_state(self, monkeypatch):
        """The DP states a search uses: the kernel runs once per distinct
        (depth, merged state C) of each search, never per prefix: a node
        calls ``_search_step``, which runs one generic step, or at the last
        component ``_dp_end``, which runs none.  Depth is the index of the
        upper bound row that ``_search_step`` receives, and the last one for
        ``_dp_end``, so a node may pass any list of options.  Counting
        builds no witness."""
        real_bounds, real_generic = chain._search_bounds, chain._dp_step
        real_step, real_end = chain._search_step, chain._dp_end
        upper, calls, inner, generic = [], [], [], []

        def recorded_bounds(*args):
            tables = real_bounds(*args)
            upper[:] = tables[0]
            return tables

        def counted(real, log, depth_of):
            def call(aspects, C, *args):
                depth = depth_of(*args)
                calls.append((depth, *C))
                log.append(depth)
                return real(aspects, C, *args)

            return call

        def row_of(lo, U, *args):
            return next(j for j, row in enumerate(upper) if row is U)

        def no_witness(*args):
            raise AssertionError("search_limit_bundles built a SearchWitness")

        monkeypatch.setattr(chain, "_search_bounds", recorded_bounds)
        monkeypatch.setattr(chain, "_search_step", counted(real_step, inner, row_of))
        monkeypatch.setattr(chain, "_dp_end", counted(real_end, [], lambda t: len(upper)))
        monkeypatch.setattr(chain, "_dp_step", lambda *args: generic.append(args) or real_generic(*args))
        monkeypatch.setattr(chain, "SearchWitness", no_witness)
        hits = 0
        for g, r, d in GRID + [(5, 1, 3), (5, 1, 4), (5, 2, 6)]:
            start = len(calls)
            hits += search_limit_bundles(g, r, d, g + 1).total
            assert len(set(calls[start:])) == len(calls) - start, (g, r, d)
        # one kernel call per prefix would make 7,721 here
        assert (len(calls), hits) == (240, 10_671)
        assert len(generic) == len(inner) < len(calls)


class TestSearchBound:
    def test_tables_match_min_max_over_every_cell(self):
        """The closed forms of ``_search_bounds`` against the recursion
        over every cell: the worse outcome per cell for U, the better for
        Lb."""
        for g in range(1, 9):
            for d in range(-3, 2 * g + 4):
                for window in (0, 1, 2, g + 1):
                    _, lo, hi = chain._window(g, d, window)
                    upper, lower = chain._search_bounds(g, d, lo, hi)
                    assert upper == oracles.bound_tables(g, d, lo, hi), (g, d, window)
                    assert lower == oracles.bound_tables(g, d, lo, hi, min), (g, d, window)

    def test_bound_is_at_least_every_completion(self):
        """The sandwich at every prefix: min_u (C + Lb) <= the min h0 of
        every completion <= min_u (C + U)."""
        for g in (2, 3):
            for d in range(-2, 2 * g + 2):
                for window in (0, 1, 2):
                    _, lo, hi = chain._window(g, d, window)
                    upper, lower = chain._search_bounds(g, d, lo, hi)
                    options = aspect_options(g, d, window)
                    for j in range(1, g):
                        for prefix in itertools.product(*options[:j]):
                            C = chain._start(lo, hi)
                            for a in prefix:
                                C = chain._merge(*_state(a, C, lo))
                            minima = [
                                min_h0(LimitLineBundle(d, prefix + rest), window)
                                for rest in itertools.product(*options[j:])
                            ]
                            floor = min(map(add, C, lower[j - 1]))
                            bound = min(map(add, C, upper[j - 1]))
                            assert floor <= min(minima), (g, d, window, prefix)
                            assert max(minima) <= bound, (g, d, window, prefix)

    def test_clamped_searches_equal_the_unclamped_graph(self, monkeypatch):
        """Clamping changes no count and no witness: the counting search,
        clamped at r, and the listing, clamped at each child's own t, give
        what a search with the same upper tables and a lower table of
        -2 * _INF, which clamps no cell, gives.  On every search with
        g <= 6, r <= 4, d = -2..2g+1 at windows 0, 1, 2 and the default that
        the tuple guard admits; a listing over the hit guard is refused
        alike."""
        def outcome(g, r, d, window):
            counts = search_limit_bundles(g, r, d, window)  # the tuple guard refuses here
            try:
                return counts, search_witnesses(g, r, d, window)
            except PreconditionError as refusal:
                return counts, str(refusal)

        cases, got = [], []
        for g in range(1, 7):
            for r in range(5):
                for d in range(-2, 2 * g + 2):
                    for window in (0, 1, 2, None):
                        try:
                            got.append(outcome(g, r, d, window))
                        except PreconditionError:
                            continue
                        cases.append((g, r, d, window))
        assert len(cases) == 1_305
        assert sum(isinstance(listed, str) for _, listed in got) > 0
        bounds = chain._search_bounds

        def clamp_free(g, d, lo, hi):
            upper, lower = bounds(g, d, lo, hi)
            return upper, [[-2 * chain._INF] * len(row) for row in lower]

        monkeypatch.setattr(chain, "_search_bounds", clamp_free)
        for case, result in zip(cases, got):
            assert outcome(*case) == result, case

    def test_bound_free_search_agrees(self, monkeypatch):
        """Tables that neither prune nor clamp must give the same result:
        same counts, same witnesses in the same order.  This reaches
        g = 5 and 6, past the all-tuples oracle (g <= 4) and the prefix
        check (g <= 3)."""
        cases = [(5, r, d) for d in range(-2, 9) for r in range(5)]
        cases += [(6, r, d) for d in range(-2, 11) for r in range(5) if rho(6, r, d) <= 0]
        want = [_search(*case) for case in cases]

        def bound_free(g, d, lo, hi):
            # U = _INF never prunes; Lb = -2 * _INF clamps no cell, missing ones included
            width = hi - lo + 2
            return [[chain._INF] * width] * (g - 1), [[-2 * chain._INF] * width] * (g - 1)

        monkeypatch.setattr(chain, "_search_bounds", bound_free)
        for case, result in zip(cases, want):
            assert _search(*case) == result, case


class TestRhoZeroBeyondTheGuard:
    def test_counts_equal_count_grd_up_to_genus_sixteen(self, monkeypatch):
        """With the tuple guard lifted, the count at every rho = 0 triple
        with 7 <= g <= 16, r >= 1 and g - d + r > 0, at the default window,
        is the number of g^r_d on a general curve, and no hit has a generic
        aspect.  The guard refuses every one of them."""
        triples = [
            (g, r, d)
            for g in range(7, 17)
            for r in range(1, g + 1)
            for d in range(2 * g + 1)
            if rho(g, r, d) == 0 and g - d + r > 0
        ]
        assert len(triples) == 26
        with pytest.raises(PreconditionError, match="search refused"):
            search_limit_bundles(7, 6, 12)
        monkeypatch.setattr(chain, "_MAX_TUPLES", 10**40)
        for g, r, d in triples:
            assert search_limit_bundles(g, r, d) == (count_grd(g, r, d), 0), (g, r, d)


class TestVanishingTableCheck:
    def test_a_state_that_is_not_1_lipschitz_is_an_internal_error(self, monkeypatch):
        """The sanity check on each node's minima passes steps of 0 and 1
        and fires on a step of 2 or on a drop."""
        L = LimitLineBundle(2, ((0, 2), (1, 1), (2, 0)))
        window, lo, states, best, witness = chain._suffix_pass(L, None)
        ramp = [min(i, 4) for i in range(len(states[0][0]))]
        for forged, ok in ((ramp, True), ([2 * x for x in ramp], False), (ramp[::-1], False)):
            forged_states = ((forged, forged), *states[1:])
            monkeypatch.setattr(chain, "_kernel_pass", lambda *_: (forged_states, best, witness))
            chain._tables.cache_clear()  # a table held from before would not reach the pass
            if ok:
                vanishing_tables(L, 0)
            else:
                with pytest.raises(InternalCheckError, match="not 1-Lipschitz monotone"):
                    vanishing_tables(L, 0)
        chain._tables.cache_clear()  # drop the table built from the forged ramp
