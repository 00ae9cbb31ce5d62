"""Independent cross-check of the chain h0 engine.

The sweep in ``h0_chain`` is a combinatorial recursion.  This module
recomputes the same dimension by honest linear algebra: each component's
section space is modeled as a coordinate space over a large prime field,
its two node-evaluation functionals are realized exactly according to
the twist filtration (zero iff twisting down does not drop h0,
proportional iff the two point conditions overlap to corank one), and
the global section space is the kernel of the node-matching matrix.  Up
to a basis change on each block, that data determines the matrix rank,
so agreement here verifies the sweep against first principles rather
than against itself.
"""

import itertools
import random

from bnkit.chain import (
    LimitLineBundle,
    aspect_options,
    h0_chain,
    parse_aspects,
    restrict,
)

from oracles import brute_window_distributions, twist

P = 1_000_003


def _rank_mod_p(rows: list[list[int]]) -> int:
    rank = 0
    cols = len(rows[0]) if rows else 0
    rows = [r[:] for r in rows]
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % P), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], P - 2, P)
        rows[rank] = [(x * inv) % P for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % P:
                c = rows[i][col]
                rows[i] = [(a - c * b) % P for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _functional_pair(comp, rng):
    """Evaluation functionals (at the left and right marked point) on the
    section space of one component bundle, as coefficient rows, realized
    per the exact filtration h0(M), h0(M(-p_L)), h0(M(-p_R)), h0(M(-both)).
    """
    n = comp.h0()
    n_l = twist(comp, 1, 0).h0()
    n_r = twist(comp, 0, 1).h0()
    n_lr = twist(comp, 1, 1).h0()
    assert n_l in (n, n - 1) and n_r in (n, n - 1)
    e_l = [0] * n
    e_r = [0] * n
    if n == 0:
        return e_l, e_r
    left_zero = n_l == n
    right_zero = n_r == n
    # a vanished functional imposes nothing, so the joint corank must
    # match the surviving one
    if left_zero and right_zero:
        assert n_lr == n
    elif left_zero:
        assert n_lr == n_r
    elif right_zero:
        assert n_lr == n_l
    else:
        assert n_lr in (n - 1, n - 2)
    if not left_zero:
        e_l[0] = 1
    if not right_zero:
        if left_zero:
            e_r[0] = 1
        elif n_lr == n - 1:
            # the two point conditions cut the same hyperplane; the ratio
            # of the functionals is a free modulus, generic on the chain
            e_r[0] = rng.randrange(1, P)
        else:
            e_r[1] = 1
    return e_l, e_r


def oracle_h0(L: LimitLineBundle, dist, rng) -> int:
    comps = restrict(L, dist)
    pairs = [_functional_pair(c, rng) for c in comps]
    dims = [c.h0() for c in comps]
    total = sum(dims)
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    rows = []
    for i in range(len(comps) - 1):
        row = [0] * total
        e_r = pairs[i][1]
        e_l = pairs[i + 1][0]
        row[offsets[i]:offsets[i] + dims[i]] = e_r
        row[offsets[i + 1]:offsets[i + 1] + dims[i + 1]] = [(-x) % P for x in e_l]
        rows.append(row)
    if not rows:
        return total
    return total - _rank_mod_p(rows)


class TestAgainstLinearAlgebra:
    def test_worked_example_all_windowed_distributions(self):
        rng = random.Random(20240)
        L = parse_aspects("0,4;2,2;0,4")
        for dist in brute_window_distributions(L.g, L.d, 4):
            assert oracle_h0(L, dist, rng) == h0_chain(L, dist)

    def test_enumeration_box(self):
        rng = random.Random(99)
        for g in range(1, 5):
            for d in range(0, 4):
                dists = brute_window_distributions(g, d, 2)
                for aspects in itertools.product(*aspect_options(g, d, 2)):
                    L = LimitLineBundle(d, aspects)
                    for dist in dists:
                        assert oracle_h0(L, dist, rng) == h0_chain(L, dist), (
                            aspects,
                            dist,
                        )

    def test_longer_chains_sampled(self):
        rng = random.Random(7)
        for g, d in [(5, 3), (6, 2), (6, 4)]:
            options = aspect_options(g, d, 2)
            dists = brute_window_distributions(g, d, 2)
            for _ in range(60):
                aspects = tuple(rng.choice(o) for o in options)
                L = LimitLineBundle(d, aspects)
                for dist in rng.sample(dists, min(25, len(dists))):
                    assert oracle_h0(L, dist, rng) == h0_chain(L, dist)
