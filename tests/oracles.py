"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's own closed forms: tableaux are
counted by direct enumeration of fillings, or for large shapes by the
hook length formula as one big-integer division, rho-derived quantities by
explicit scans, the (d, g) lattice by a search over its moves, the chain
DP by the quadratic pairwise sweep and the left-to-right h0 sweep, and
its witness walk by a scan of every key, so that the fast paths are
checked against something that cannot share their bugs.
"""

from __future__ import annotations


def brute_syt_count(shape: tuple[int, ...]) -> int:
    """Count standard Young tableaux by enumerating all placements of
    1..n that grow along rows and columns.  Exponential; keep n small."""
    n = sum(shape)
    rows = len(shape)
    filled = [0] * rows  # boxes filled so far in each row

    def place(step: int) -> int:
        if step > n:
            return 1
        total = 0
        for i in range(rows):
            if filled[i] < shape[i] and (i == 0 or filled[i - 1] > filled[i]):
                filled[i] += 1
                total += place(step + 1)
                filled[i] -= 1
        return total

    return place(1)


def column_hook_lengths(p: tuple[int, ...]) -> list[int]:
    """All hook lengths of p, row by row, each column length counted by a
    scan of every row: O(rows * cols)."""
    cols = [sum(row > j for row in p) for j in range(p[0] if p else 0)]
    return [row - j + cols[j] - i - 1 for i, row in enumerate(p) for j in range(row)]


def divmod_syt_count(shape: tuple[int, ...]) -> int:
    """The hook length formula as one division: n! divmod the hook
    product, the hooks multiplied pairwise."""
    from math import factorial, prod

    hooks = column_hook_lengths(shape)
    while len(hooks) > 1:  # pairwise, so that big factors meet at similar sizes
        hooks = [a * b for a, b in zip(hooks[::2], hooks[1::2])] + hooks[len(hooks) & ~1:]
    count, rem = divmod(factorial(sum(shape)), prod(hooks))
    if rem:
        raise AssertionError(f"hook length formula non-integral on {shape}")
    return count


def divmod_count_grd(g: int, r: int, d: int) -> int:
    """N(g, r, d) = g! * prod_{a=0}^{r} a! / (g-d+r+a)! at rho = 0, as one
    division of the two products.  Slow for large r, where the products
    hold millions of bits: 23 s at (2500, 1249, 3747) with Python 3.11 on
    a 2-core Xeon."""
    from math import factorial, prod

    s = g - d + r
    num = factorial(g) * prod(factorial(a) for a in range(r + 1))
    count, rem = divmod(num, prod(factorial(s + a) for a in range(r + 1)))
    if rem:
        raise AssertionError(f"count_grd({g}, {r}, {d}) is not integral")
    return count


def rho_zero_triples(g_max: int, r_cap: int = 12):
    """All (g, r, d) with rho = 0, g <= g_max and r <= r_cap.  rho = 0
    forces g = (r+1)(g - d + r), so d is determined whenever r+1 divides
    g (with d = r for g = 0)."""
    out = []
    for g in range(g_max + 1):
        for r in range(r_cap + 1):
            if g == 0:
                out.append((0, r, r))
            elif g % (r + 1) == 0:
                d = g + r - g // (r + 1)
                out.append((g, r, d))
    return out


def small_k_cores(k: int, max_boxes: int) -> list[tuple[int, ...]]:
    """All k-cores with at most max_boxes boxes, by breadth-first strict
    residue additions from the empty partition."""
    from bnkit.tableaux import core_apply_residue

    seen = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for p in frontier:
            for res in range(k):
                q = core_apply_residue(p, res, k)
                if sum(q) > sum(p) and sum(q) <= max_boxes and q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen, key=lambda p: (sum(p), p))


def peel_length(core: tuple[int, ...], k: int) -> int:
    """Number of strict residue-removal steps from the core down to ();
    an independent oracle for the forced filling length."""
    from bnkit.tableaux import core_apply_residue

    steps = 0
    p = core
    while p:
        for res in range(k):
            q = core_apply_residue(p, res, k)
            if sum(q) < sum(p):
                p = q
                steps += 1
                break
        else:
            raise AssertionError(f"no residue removes boxes from {p}")
    return steps


def hook_is_core(p: tuple[int, ...], k: int) -> bool:
    """The definition: no hook length (arm + leg + 1) of p is divisible by k."""
    for i, row in enumerate(p):
        for j in range(row):
            leg = sum(1 for r in p[i + 1:] if r > j)
            if (row - j - 1 + leg + 1) % k == 0:
                return False
    return True


def hook_core_length(p: tuple[int, ...], k: int) -> int:
    """The forced filling length by listing every hook: the number of
    boxes of p whose hook length (arm + leg + 1) is below k."""
    return sum(
        1
        for i, row in enumerate(p)
        for j in range(row)
        if row - j - 1 + sum(1 for r in p[i + 1:] if r > j) + 1 < k
    )


def brute_k_fillings(core: tuple[int, ...], k: int, g: int) -> list[tuple[int, ...]]:
    """Every residue word of length g, in lexicographic order, that takes
    () to ``core`` by strict adds: all k**g words are enumerated and each is
    replayed with ``core_apply_residue`` until a step fails to add boxes."""
    from itertools import product

    from bnkit.tableaux import core_apply_residue

    out = []
    for word in product(range(k), repeat=g):
        p = ()
        for res in word:
            q = core_apply_residue(p, res, k)
            if sum(q) <= sum(p):
                break
            p = q
        else:
            if p == core:
                out.append(word)
    return out


def residue_graph(target: tuple[int, ...], k: int, g: int):
    """The strict-add graph below ``target`` rebuilt from the public
    ``core_apply_residue`` by trying all k residues at every core: the moves
    that add boxes and stay inside ``target``, by increasing residue, and
    per core the number of paths to ``target``, by recursion on the moves."""
    from functools import cache

    from bnkit.tableaux import core_apply_residue

    def inside(q):
        return len(q) <= len(target) and all(a <= b for a, b in zip(q, target))

    succ, frontier = {}, [()]
    for _ in range(g):
        for p in frontier:
            moves = [(res, core_apply_residue(p, res, k)) for res in range(k)]
            succ[p] = [(res, q) for res, q in moves if sum(q) > sum(p) and inside(q)]
        frontier = list(dict.fromkeys(q for p in frontier for _, q in succ[p]))

    @cache
    def paths(p):
        return int(p == target) if p not in succ else sum(paths(q) for _, q in succ[p])

    return succ, {p: paths(p) for p in [*succ, *frontier]}


def replay_by_box_diff(residues, k: int):
    """``FillingWitness.replay`` rebuilt by listing every box of the core
    before and after each step and taking the set difference: the final
    core and, per step, the sorted boxes it added."""
    from bnkit.tableaux import core_apply_residue

    def boxes(p):
        return {(i + 1, j + 1) for i in range(len(p)) for j in range(p[i])}

    p, steps = (), []
    for res in residues:
        q = core_apply_residue(p, res, k)
        steps.append(sorted(boxes(q) - boxes(p)))
        p = q
    return p, steps


# --- splitting types and loci: hand-written sums and stated bounds ---

def splitting_rank(parts) -> int:
    """r = sum_i max(0, e_i + 1) - 1: a summand of degree e on the line has
    max(0, e + 1) sections."""
    return sum(max(0, e + 1) for e in parts) - 1


def splitting_rho(g: int, parts) -> int:
    """g - sum_{i>j} max(0, e_i - e_j - 1) over the ascending type."""
    e = sorted(parts)
    return g - sum(max(0, e[i] - e[j] - 1) for i in range(len(e)) for j in range(i))


def rho_splitting_vs_gonality(g: int, r: int, d: int, k: int) -> int:
    """Max of rho_splitting over the maximal types; agrees with the
    gonality-refined rho."""
    from bnkit.errors import PreconditionError
    from bnkit.splitting import maximal_splitting_types, rho_splitting

    types = maximal_splitting_types(g, r, d, k)
    if not types:
        raise PreconditionError(f"no admissible maximal types for ({g}, {r}, {d}, {k})")
    return max(rho_splitting(g, w) for w in types)


def rho_k_scan(g: int, r: int, d: int, k: int) -> int | None:
    """max of rho(g, r-ell, d) - ell*k by a scan over every
    0 <= ell <= min(r, g-d+r-1); None when that range is empty."""
    from bnkit.invariants import rho

    ells = range(min(r, g - d + r - 1) + 1)
    return max((rho(g, r - ell, d) - ell * k for ell in ells), default=None)


def sqrt_bound_holds(g: int, r: int, d: int) -> bool:
    """The integer form of the codimension bound for expected-maximal
    loci: -rho <= isqrt(g) + 1 (weaker than the real bound -rho <= sqrt(g),
    kept exact)."""
    from math import isqrt

    from bnkit.invariants import rho

    return -rho(g, r, d) <= isqrt(g) + 1


def expected_maximal_rows(g: int) -> list:
    """Every expected-maximal locus of genus g, by a scan over every
    r >= 1 and 2 <= d <= g-1 for rho < 0 while both trivially larger loci,
    (g, r, d+1) and (g, r-1, d-1), have rho >= 0."""
    from bnkit.loci import MAXIMAL_EXCEPTIONS, ExpectedMaximalRow

    def rho(r, d):
        return g - (r + 1) * (g - d + r)

    return [
        ExpectedMaximalRow(g, r, d, rho(r, d), (g, r, d) in MAXIMAL_EXCEPTIONS)
        for r in range(1, g + 1)
        for d in range(2, g)
        if rho(r, d) < 0 <= min(rho(r, d + 1), rho(r - 1, d - 1))
    ]


def move_closure(r: int, g_max: int, d_max: int) -> set[tuple[int, int]]:
    """The closure of {(d, g) = (r, 0)} under the moves A: (1, 0),
    B: (1, 1) and C: (r, r+1) inside the box g <= g_max, d <= d_max, by
    a depth-first search over every move from every point reached."""
    steps = [(1, 0), (1, 1), (r, r + 1)]
    seen: set[tuple[int, int]] = set()
    frontier = [(r, 0)]
    while frontier:
        d, g = frontier.pop()
        if d > d_max or g > g_max or (d, g) in seen:
            continue
        seen.add((d, g))
        frontier.extend((d + dd, g + dg) for dd, dg in steps)
    return seen


# --- the quadratic chain DP, kept as an independent check of the kernel ---

#: a missing DP state
INF = 1 << 30


def brute_window_distributions(g: int, d: int, window: int) -> list[tuple[int, ...]]:
    """Every distribution of total degree d over g components whose prefix
    sums S_1..S_{g-1} lie in [min(-window, d), max(d + window, 0)], by an
    odometer over the prefix sums whose last digit turns fastest, so the
    list is in lexicographic order of the prefix sums."""
    lo, hi = min(-window, d), max(d + window, 0)
    sums = [lo] * (g - 1)
    out = []
    while True:
        full = [0, *sums, d]
        out.append(tuple(full[i + 1] - full[i] for i in range(g)))
        i = g - 2
        while i >= 0 and sums[i] == hi:
            sums[i] = lo
            i -= 1
        if i < 0:
            return out
        sums[i] += 1


def twist(comp, du: int, dv: int):
    """The component bundle ``comp`` twisted down by du more at its left
    marked point and dv more at its right one."""
    return comp._replace(left_twist=comp.left_twist + du, right_twist=comp.right_twist + dv)


def h0_chain_lr(L, dist) -> int:
    """Left-to-right mirror of ``bnkit.chain.h0_chain``; must agree with it."""
    from bnkit.chain import restrict

    B = restrict(L, dist)
    g = len(B)
    n = B[0].h0()
    if g == 1:
        return n
    eps = 1 if twist(B[0], 0, 1).h0() < n else 0
    for i in range(1, g):
        if eps == 1:
            defining = B[i]
        else:
            defining = twist(B[i], 1, 0)
        w = defining.h0()
        n = w + n - eps
        eps = 1 if twist(defining, 0, 1).h0() < w else 0
    return n


def suffix_dp(L, window: int):
    """Right-to-left DP over prefix-sum states, every pair of adjacent
    states tried.  State at node i (1 <= i <= g-1), keyed by s = S_i and
    the evaluation rank eps at p^i: the minimum, over windowed suffix
    distributions with that prefix sum, of h0 of the suffix X^{>i}.
    Returns the windowed minimum of h0_chain, the witness distribution
    that the first-found minimum leads to, and the per-node arrays
    min-suffix-h0(i, s)."""
    from bnkit.chain import h0_twisted

    g, d = L.g, L.d
    if g == 1:
        return h0_twisted(L.aspects[0], d, 0, 0), (d,), {}
    lo, hi = min(-window, d), max(d + window, 0)
    width = hi - lo + 1
    aspects = L.aspects

    # node g-1: suffix is E^g alone, with v = 0 at the free point p^g
    a_g = aspects[-1]
    n0 = [INF] * width
    n1 = [INF] * width
    parent0: list = [None] * width
    parent1: list = [None] * width
    for idx in range(width):
        s = lo + idx
        n = h0_twisted(a_g, d, s, 0)
        # parents record the prefix sums at the nodes strictly to the right
        if h0_twisted(a_g, d, s + 1, 0) < n:
            n1[idx] = n
            parent1[idx] = ()
        else:
            n0[idx] = n
            parent0[idx] = ()
    tables = {g - 1: [min(a, b) for a, b in zip(n0, n1)]}

    for comp in range(g - 1, 0, -1):  # add component E^comp, produce node comp-1
        a_i = aspects[comp - 1]
        prev_range = range(0, 1) if comp == 1 else range(lo, hi + 1)
        m0 = [INF] * width
        m1 = [INF] * width
        q0: list = [None] * width
        q1: list = [None] * width
        for s_prev in prev_range:
            u = s_prev
            jdx = s_prev - lo
            for idx in range(width):
                s = lo + idx
                v = d - s
                for eps, narr, parr in ((0, n0, parent0), (1, n1, parent1)):
                    n = narr[idx]
                    if n >= INF:
                        continue
                    vdef = v if eps else v + 1
                    w = h0_twisted(a_i, d, u, vdef)
                    n2 = w + n - eps
                    if h0_twisted(a_i, d, u + 1, vdef) < w:
                        if n2 < m1[jdx]:
                            m1[jdx] = n2
                            q1[jdx] = (s,) + parr[idx]
                    elif n2 < m0[jdx]:
                        m0[jdx] = n2
                        q0[jdx] = (s,) + parr[idx]
        n0, n1, parent0, parent1 = m0, m1, q0, q1
        if comp - 1 >= 1:
            tables[comp - 1] = [min(a, b) for a, b in zip(n0, n1)]

    zidx = 0 - lo
    best = min(n0[zidx], n1[zidx])
    chain_sums = parent0[zidx] if n0[zidx] <= n1[zidx] else parent1[zidx]
    prefixes = [0, *chain_sums, d]
    witness = tuple(b - a for a, b in zip(prefixes, prefixes[1:]))
    return best, witness, tables


def forward_dp_step(aspect, d: int, lo: int, hi: int, state):
    """Extend the prefix DP over [lo, hi] by one interior component,
    trying every pair of old and new prefix sums."""
    from bnkit.chain import h0_twisted

    n0, n1 = state
    width = hi - lo + 1
    m0 = [INF] * width
    m1 = [INF] * width
    for idx in range(width):
        u = lo + idx
        for eps, n in ((0, n0[idx]), (1, n1[idx])):
            if n >= INF:
                continue
            for jdx in range(width):
                v = d - (lo + jdx)
                w = h0_twisted(aspect, d, u + 1 - eps, v)
                n2 = w + n - eps
                target = m1 if h0_twisted(aspect, d, u + 1 - eps, v + 1) < w else m0
                if n2 < target[jdx]:
                    target[jdx] = n2
    return m0, m1


def accumulate_dp_step(C):
    """The generic step of ``bnkit.chain._dp_step`` on a merged array C as
    two ``accumulate`` folds that call builtin ``min`` per cell: the
    prefix minimum m1 from INF and the suffix minimum m0.  Exact, missing
    values above INF included."""
    from itertools import accumulate
    from operator import add, sub

    keys = range(len(C) - 1)
    m1 = list(map(add, keys, accumulate(map(sub, C, keys), min, initial=INF)))
    return list(accumulate(reversed(C), min))[:0:-1], m1


def scan_witness(d: int, lo: int, keys, states, merged, eps: int, val: int) -> tuple[int, ...]:
    """The walk of ``bnkit.chain._witness`` as a scan of every key of each
    merged array, from the top, one conditional and one tuple per cell.
    A distribution attaining the minimum ``val``, reached at S_0 with
    rank ``eps``, by walking back over the merged arrays C of the states,
    whose exact aspects are given by their ``keys`` (:func:`_kernel_pass`).
    At key u the component has degree k = s - u and adds (h0, eps) as in
    :func:`_dp_step`; each state is a minimum, so a key whose eps matches
    and C[u] + h0 equals the state has a predecessor attaining C[u].  Ties
    go to the smallest S_i, then eps 0 before eps 1."""
    from operator import sub

    from bnkit.errors import InternalCheckError

    g, s, sums = len(keys), d, []
    for j in range(g - 1, 0, -1):
        key, prev1, C = keys[j], states[j - 1][1], merged[j - 1]
        # the largest key first is the smallest S_{g-j}
        for i in range(len(C) - 1, -1, -1):
            k, exact = s - lo - i, key == i
            # (h0, eps) of the cell at k >= 2, k < 0, k = 1 and k = 0
            w, e = (k, 1) if k > 1 else (0, 0) if k < 0 else (1, not exact) if k else (exact, exact)
            if e == eps and C[i] + w == val:
                break
        else:
            raise InternalCheckError(f"chain DP state at node {g - j} has no predecessor")
        # at one key the eps-1 state at S = u comes before the eps-0 one at u - 1
        eps = int(i < len(prev1) and prev1[i] - 1 == C[i])
        s, val = lo + i - 1 + eps, C[i] + eps
        sums.append(d - s)
    return tuple(map(sub, (*sums, d), (0, *sums)))


def forward_dp_init(aspect, d: int, lo: int, hi: int):
    """State after E^1, keyed by S_1: (n, eps at p^1) minima."""
    from bnkit.chain import h0_twisted

    width = hi - lo + 1
    n0 = [INF] * width
    n1 = [INF] * width
    for idx in range(width):
        v = d - (lo + idx)
        n = h0_twisted(aspect, d, 0, v)
        if h0_twisted(aspect, d, 0, v + 1) < n:
            n1[idx] = n
        else:
            n0[idx] = n
    return n0, n1


def forward_dp_finish(aspect, d: int, lo: int, state) -> int:
    """Close the prefix DP with the last component (S_g = d, v = 0)."""
    from bnkit.chain import h0_twisted

    n0, n1 = state
    best = INF
    for idx, (a, b) in enumerate(zip(n0, n1)):
        u = lo + idx
        if a < INF:
            best = min(best, h0_twisted(aspect, d, u + 1, 0) + a)
        if b < INF:
            best = min(best, h0_twisted(aspect, d, u, 0) + b - 1)
    return best


def oracle_minima(g: int, d: int, window: int | None = None):
    """Every canonical aspect tuple with its windowed min h0, on the
    quadratic forward DP: a DFS over all tuples in option order."""
    from bnkit.chain import aspect_options, h0_twisted

    if window is None:
        window = g + 1
    options = aspect_options(g, d, window)
    lo, hi = min(-window, d), max(d + window, 0)
    minima = []

    def rec(prefix, state):
        comp = len(prefix) + 1
        for a in options[comp - 1]:
            if comp == g:
                minima.append((prefix + (a,), forward_dp_finish(a, d, lo, state)))
            else:
                rec(prefix + (a,), forward_dp_step(a, d, lo, hi, state))

    if g == 1:
        return [((a,), h0_twisted(a, d, 0, 0)) for a in options[0]]
    for first in options[0]:
        rec((first,), forward_dp_init(first, d, lo, hi))
    return minima


def oracle_search(g: int, r: int, d: int, window: int | None = None, minima=None):
    """``bnkit.chain.search_limit_bundles`` and ``search_witnesses``
    rebuilt by visiting every tuple of :func:`oracle_minima`, or of
    ``minima`` when given: the counts and the hits, in that order."""
    from bnkit.chain import SearchResult, SearchWitness

    if minima is None:
        minima = oracle_minima(g, d, window)
    hits = [SearchWitness(aspects, best) for aspects, best in minima if best >= r + 1]
    exact = sum(all(a is not None for a in w.aspects) for w in hits)
    return SearchResult(exact, len(hits) - exact), tuple(hits)


def bound_tables(g: int, d: int, lo: int, hi: int, pick=max):
    """The search's bound tables for c = 2..g by the recursion over every
    cell (u, s): at degree k = s - u the cell costs ``pick`` of its generic
    and its exact-at-u outcome (n added, eps), each plus the table of
    c + 1 at key s + 1 - eps minus eps; the last component meets only
    s = d and costs what it adds.  ``pick=max`` takes the worse outcome
    and gives the upper table U, ``pick=min`` the better and gives the
    lower table Lb."""
    nxt = None
    out = []
    for c in range(g, 1, -1):
        sums = [d] if c == g else range(lo, hi + 1)
        table = []
        for u in range(lo, hi + 2):
            best = INF
            for s in sums:
                k = s - u
                outcomes = {0: [(0, 0), (1, 1)], 1: [(1, 1), (1, 0)]}.get(
                    k, [(k, 1)] if k >= 2 else [(0, 0)]
                )
                costs = [
                    n if nxt is None else n - eps + nxt[s + 1 - eps - lo]
                    for n, eps in outcomes
                ]
                best = min(best, pick(costs))
            table.append(best)
        out.append(table)
        nxt = table
    return out[::-1]
