"""Symbolic limit line bundles on a chain of g elliptic curves with
general attaching points: chip firing between degree distributions,
exact h0 by a gluing sweep, r-positivity, vanishing tables, star
conditions, and branch-and-bound (non)existence searches.

Geometry of the chain X = E^1 u .. u E^g: the marked points are
p^0, .., p^g, with p^i the node joining E^i and E^{i+1} for
1 <= i <= g-1; p^0 and p^g are free general points.  Genericity is
axiomatized rather than computed on actual elliptic curves: on each
component a divisor a*p^{i-1} + b*p^i is principal iff a = b = 0, and a
"generic" degree class is nontrivial after every twist the engine forms.
Under these axioms every h0 below is a decidable integer.

Aspects: the i-th aspect of a limit line bundle is the degree-d class on
E^i obtained by concentrating all degree on E^i.  An aspect is either
``None`` (a generic class) or an exact pair (a, b) meaning
O(a*p^{i-1} + b*p^i) with a + b = d.

Degree distributions quantify over an infinite set; the engine works on
the prefix-sum window [-theta, d+theta] (default theta = g+1) and every
consumer is expected to re-check stability at 2*theta.  So one bundle
meets two windows, and the kernel pass is a memoized function of the
bundle and the window's range that keeps the last two passes: the tables
and the star condition at theta read the pass that r-positivity ran
there.  A pass keeps only its states, minimum h0 and witness: one of
994,800 cells (g = 100), near the _MAX_CELLS guard, keeps about 30 MiB by
tracemalloc, so the memo holds at most about 61 MiB.

The search over aspect tuples finds every r-positive tuple and skips
most of the others.  Closed-form tables, proven by induction on the
component, bound what E^c..E^g add to a prefix entering E^c at merged
key u, whatever aspects they carry: at least Lb[c][u] and at most
U[c][u].  A prefix with merged state C and min_u (C[u] + U[c][u]) < r + 1
has no r-positive completion and its subtree is skipped; the cells with
C[u] + Lb[c][u] above r when counting, or above min_u (C[u] + U[c][u])
when listing, are set missing, so more prefixes share a node.  The
subtree below a prefix depends only on its length and merged state, so
the search is a graph: one kernel call per distinct (component, state).
A node runs one generic step; every exact option whose key holds a
missing cell shares the generic child, and the others build theirs.
The last component is read at the one index S_g = d.  Each node counts
its all-exact and its generic completions from its children's counts, so
the hits are counted without being listed; the witnesses, when asked
for, come from a walk that enters only nodes with hits.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from math import prod
from operator import add, index, sub

from .errors import _MAX_HITS, InternalCheckError, PreconditionError, require

#: an aspect: None for a generic class, else (coeff at p^{i-1}, coeff at p^i)
Aspect = tuple[int, int] | None

#: marks a missing DP state; the kernel keeps every missing value >= _INF
_INF = 1 << 30

#: size guards, checked before any state is built: a DP sweep over 10**6
#: cells takes about 0.5 s and 64 MiB on one core, and 2,000,000 tuples admit
#: every default-window search with g <= 6, 0 <= d <= 2g - 2 and no g = 7 one
_MAX_CELLS = 10**6
_MAX_TUPLES = 2_000_000


class LimitLineBundle(namedtuple("LimitLineBundle", "d aspects")):
    """A degree-d limit line bundle on the chain of g elliptic curves,
    as the tuple of its g aspects."""

    __slots__ = ()

    def __new__(cls, d: int, aspects: tuple[Aspect, ...]) -> LimitLineBundle:
        if not aspects:
            raise PreconditionError("a chain needs at least one component")
        d, pairs = index(d), []
        for i, a in enumerate(aspects):
            if a is not None:
                x, y = a  # exactly two coefficients
                x, y = index(x), index(y)
                if x + y != d:
                    raise PreconditionError(f"aspect {i + 1} = {a} does not have total degree {d}")
                a = (x, y)
            pairs.append(a)
        return super().__new__(cls, d, tuple(pairs))

    #: ``_replace`` builds through ``_make``, so it validates too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def g(self) -> int:
        return len(self.aspects)


def h0_twisted(aspect: Aspect, d: int, u: int, v: int) -> int:
    """h0 on one elliptic component of the aspect twisted down by
    u*p^{i-1} + v*p^i.  Positive degree is nonspecial; degree zero is
    trivial exactly when the twist matches an exact aspect's coefficients
    (general points admit no other relation); negative degree has no
    sections."""
    deg = d - u - v
    if deg < 0:
        return 0
    if deg > 0:
        return deg
    return 1 if (aspect is not None and aspect[0] == u and aspect[1] == v) else 0


class ComponentBundle(namedtuple("ComponentBundle", "base left_twist right_twist aspect_degree")):
    """An aspect twisted down at its two marked points; the restriction
    of a multidegree limit to one component."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.aspect_degree - self.left_twist - self.right_twist

    def h0(self) -> int:
        return h0_twisted(self.base, self.aspect_degree, self.left_twist, self.right_twist)


# --- degree distributions and chip firing ---

def chip_fire(dist, i: int) -> tuple[int, ...]:
    """Twist by the i-th component (1-indexed): the degree distribution
    fires vertex i of the dual chain.  Interior: (.., d^{i-1}+1, d^i - 2,
    d^{i+1}+1, ..); the endpoints lose only 1 since they have a single
    node, and a lone component has none.  Total degree is conserved."""
    require(None, i=i)
    dist = tuple(map(index, dist))
    g = len(dist)
    if not 1 <= i <= g:
        raise PreconditionError(f"component index {i} out of range 1..{g}")
    out = list(dist)
    for j in (i - 2, i):  # the neighbours of vertex i, 0-indexed
        if 0 <= j < g:
            out[j] += 1
            out[i - 1] -= 1
    return tuple(out)


def prefix_fire(dist, i: int) -> tuple[int, ...]:
    """Twist by E^1 + .. + E^i: moves one unit of degree from component i
    to component i+1 across the node p^i."""
    require(None, i=i)
    dist = tuple(map(index, dist))
    g = len(dist)
    if not 1 <= i <= g - 1:
        raise PreconditionError(f"node index {i} out of range 1..{g - 1}")
    out = list(dist)
    out[i - 1] -= 1
    out[i] += 1
    return tuple(out)


def _check_dist(L: LimitLineBundle, dist) -> tuple[int, ...]:
    dist = tuple(map(index, dist))
    if len(dist) != L.g:
        raise PreconditionError(f"distribution {dist} has {len(dist)} entries, chain has {L.g}")
    if sum(dist) != L.d:
        raise PreconditionError(f"distribution {dist} has total {sum(dist)}, bundle degree {L.d}")
    return dist


def restrict(L: LimitLineBundle, dist) -> list[ComponentBundle]:
    """The multidegree-``dist`` limit determined by the aspects: component
    i carries the i-th aspect twisted down by S_{i-1} at the left node and
    d - S_i at the right node (S_i the prefix sums), so its degree is
    d^i."""
    dist = _check_dist(L, dist)
    out = []
    prefix = 0
    for i, a in enumerate(L.aspects):
        u = prefix
        prefix += dist[i]
        v = L.d - prefix
        out.append(ComponentBundle(a, u, v, L.d))
    return out


# --- exact h0 of a multidegree limit ---

def h0_chain(L: LimitLineBundle, dist) -> int:
    """Dimension of the space of global sections of the multidegree-
    ``dist`` limit: tuples of component sections agreeing at the nodes.

    Right-to-left sweep over the prefix sums carrying (n, eps): n is the
    h0 of the processed suffix and eps in {0, 1} the rank of evaluation of
    its sections at the next node to the left.  If eps = 1 the new
    component's sections are unconstrained and one matching condition is
    spent; if eps = 0 they must vanish at the shared node, one more twist
    at the right.  Component i is twisted down by S_{i-1} and d - S_i as
    in :func:`restrict`; the empty suffix enters as n = 1, eps = 1.
    """
    d = L.d
    n, eps, s = 1, 1, d
    for a, k in zip(reversed(L.aspects), reversed(_check_dist(L, dist))):
        u, v = s - k, d - s + 1 - eps
        w = h0_twisted(a, d, u, v)
        n += w - eps
        eps = 1 if h0_twisted(a, d, u + 1, v) < w else 0
        s = u
    return n


def default_window(g: int) -> int:
    """The degree window used when none is given: g + 1."""
    require(1, g=g)
    return g + 1


# --- the chain-DP kernel: one gluing step, linear in the window ---
#
# Every windowed computation below runs the same left-to-right recursion
# over prefix-sum states.  The state after the components E^1..E^j is a
# pair of arrays (n0, n1) over S_j = s in the window: the minimum h0 of
# the prefix X^{<=j} among windowed prefixes with that sum whose
# sections evaluate at p^j with rank eps = 0 resp. 1.

def _window(g: int, d: int, window: int | None) -> tuple[int, int, int]:
    """The degree window, ``default_window(g)`` when None, and its
    prefix-sum range [lo, hi].  The range keeps the forced boundary sums
    S_0 = 0 and S_g = d inside, and lo + hi = d, so the reflection
    s -> d - s maps it onto itself.  Refuses more than _MAX_CELLS cells."""
    require(None, d=d)
    if window is None:
        window = default_window(g)
    require(0, window=window)
    lo, hi = min(-window, d), max(d + window, 0)
    if (cells := g * (hi - lo + 2)) > _MAX_CELLS:
        raise PreconditionError(f"chain DP over {cells} cells refused (guard {_MAX_CELLS})")
    return window, lo, hi


def _start(lo: int, hi: int) -> list[int]:
    """The merged array of the empty prefix: one state, at S_0 = 0."""
    C = [_INF] * (hi - lo + 2)
    C[-lo] = 0
    return C


def _merge(n0: list[int], n1: list[int]) -> list[int]:
    """What the next component receives, keyed by its effective left
    twist u = lo + k (one entry longer than the state): an eps-0 state at
    S = u - 1 forces the new sections to vanish at the node, an eps-1
    state at S = u spends one matching condition.  So
    C[u] = min(n0[u - 1], n1[u] - 1), where a missing n1[u] never wins, and
    a key is missing exactly when both of its inputs are."""
    return [a if b >= _INF or a < b else b - 1 for a, b in zip([_INF, *n0], [*n1, _INF])]


def _dp_step(C: list[int], lo: int):
    """Glue one more component with a generic aspect onto the merged array
    ``C`` (see :func:`_merge`).  Returns (pre, suf, m0, m1): the prefix and
    suffix minima below, and the state they give, over the window's sums s
    at index s - lo.

    At left twist u and new prefix sum s the component has degree
    k = s - u.  For k >= 2 it adds k sections and leaves eps = 1; for
    k < 0 it adds none and leaves eps = 0.  Only on the diagonals can h0
    see the aspect: a generic class adds 1 at eps = 1 for k = 1 and 0 at
    eps = 0 for k = 0, while an exact aspect with aspect[0] == u adds 1
    at eps = 0 for k = 1 and 1 at eps = 1 for k = 0.  So the generic
    state is a suffix minimum, m0[s] = suf[s - lo] = min_{u >= s} C[u], and
    a prefix minimum, m1[s] = s + pre[s - lo] = s + min_{u < s} (C[u] - u).
    An exact aspect moves the cell u = aspect[0] between them at s = u and
    s = u + 1, so its state is this one with the cells at the indices
    aspect[0] - lo and aspect[0] - lo + 1 rewritten by :func:`_patch`.
    Linear in the window.
    """
    sums = range(lo, lo + len(C) - 1)
    # an empty prefix starts at _INF - lo, so that s + pre stays missing
    pre = list(accumulate(map(sub, C, sums), min, initial=_INF - lo))
    suf = list(accumulate(reversed(C), min))[::-1]
    return pre, suf, suf[:-1], list(map(add, sums, pre))


def _patch(u: int, C: list[int], lo: int, pre, suf, m0: list[int], m1: list[int]) -> None:
    """Turn the generic state (m0, m1) of :func:`_dp_step` on C into that
    of an exact aspect with aspect[0] = u in the window, in place: at s = u
    the degree-0 cell has a section, at s = u + 1 the degree-1 cell keeps
    eps = 0, and every other cell is generic."""
    k = u - lo
    p, q, c = pre[k], suf[k + 1], C[k] + 1
    m0[k], m1[k] = q, min(u + p, c)
    if k + 1 < len(m0):
        m0[k + 1], m1[k + 1] = min(q, c), u + 1 + p


def _dp_end(aspects, C: list[int], lo: int, d: int) -> list[int]:
    """min(m0[t], m1[t]) at t = d - lo of the state of each option of a
    search's last component, which ends at S_g = d: ``(d, 0)`` or generic
    (None).  The generic cell is min(C[t], suf[t + 1], d + pre[t]), and
    ``(d, 0)`` has aspect[0] = d, so :func:`_patch` adds one section at
    its degree-0 cell, C[t] + 1, and leaves the rest.  Each term is a
    minimum over a slice of C, so no list of the step is built; a missing
    value may come out as another missing value."""
    t = d - lo
    pre = min(map(sub, C[:t], range(lo, d)), default=_INF - lo)
    rest = min(min(C[t + 1:]), d + pre)
    return [min(C[t] + (a is not None), rest) for a in aspects]


# --- windowed minimum h0, tables and witnesses from one kernel pass ---

def _suffix_pass(L: LimitLineBundle, window: int | None):
    """Validate the window (see :func:`_window`) and read the kernel pass of
    L over its range.  Returns the resolved window, its lo, and the states,
    minimum h0 and witness of :func:`_kernel_pass`."""
    window, lo, hi = _window(L.g, L.d, window)
    return (window, lo, *_kernel_pass(L, lo, hi))


@lru_cache(maxsize=2)
def _kernel_pass(L: LimitLineBundle, lo: int, hi: int):
    """Run the kernel over the reflected chain E^g, .., E^1: aspects
    reversed and each pair's coordinates swapped, so that prefix sums map
    as S'_j = d - S_{g-j}.  The state after j components is the suffix
    X^{>g-j} of L keyed by d - S_{g-j}, with eps the evaluation rank at
    p^{g-j}; the last state is the whole chain at key d (S_0 = 0).  Returns
    every state, the minimum h0 and its :func:`_witness`, walked while the
    merged arrays are at hand, to be read and not changed (module docstring).
    Each state is the generic one with an exact aspect's two cells
    written in place by :func:`_patch`."""
    g, d = L.g, L.d
    aspects = tuple(None if a is None else (a[1], a[0]) for a in reversed(L.aspects))
    C = _start(lo, hi)
    states, merged = [], []
    for j, a in enumerate(aspects, 1):
        pre, suf, m0, m1 = _dp_step(C, lo)
        if a is not None and lo <= a[0] <= hi:
            _patch(a[0], C, lo, pre, suf, m0, m1)
        states.append((m0, m1))
        if j < g:
            merged.append(C := _merge(m0, m1))
    n0, n1 = (m[d - lo] for m in states[-1])
    if (best := min(n0, n1)) >= _INF:
        raise InternalCheckError("chain DP produced no state at S_0 = 0")
    # ties at S_0 go to eps 0
    return tuple(states), best, _witness(d, lo, aspects, states, merged, int(n1 < n0), best)


def _witness(d: int, lo: int, aspects, states, merged, eps: int, val: int) -> tuple[int, ...]:
    """A distribution attaining the minimum ``val``, reached at S_0 with
    rank ``eps``, by walking back over the merged arrays C of the states.
    At key u the component has degree k = s - u and adds (h0, eps) as in
    :func:`_dp_step`; each state is a minimum, so a key whose eps matches
    and C[u] + h0 equals the state has a predecessor attaining C[u].  Ties
    go to the smallest S_i, then eps 0 before eps 1."""
    g, s, sums = len(aspects), d, []
    for j in range(g - 1, 0, -1):
        a, prev1, C = aspects[j], states[j - 1][1], merged[j - 1]
        # the largest key first is the smallest S_{g-j}
        for i in range(len(C) - 1, -1, -1):
            k, exact = s - lo - i, a is not None and a[0] == lo + i
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


def min_h0(L: LimitLineBundle, window: int | None = None) -> int:
    """Minimum of h0_chain over all windowed degree distributions."""
    return _suffix_pass(L, window)[3]


class RPositivityReport(namedtuple("RPositivityReport", "is_r_positive min_h0 witness")):
    """The windowed minimum h0 of a bundle against r + 1, with
    ``witness`` a distribution attaining the minimum."""

    __slots__ = ()


def is_r_positive(L: LimitLineBundle, r: int, window: int | None = None) -> RPositivityReport:
    """Whether every windowed multidegree limit has at least r+1 sections,
    together with a distribution attaining the minimum."""
    require(0, r=r)
    *_, best, witness = _suffix_pass(L, window)
    return RPositivityReport(best >= r + 1, best, witness)


# --- vanishing tables and star conditions ---

class VanishingTable(namedtuple("VanishingTable", "r d g a_rows b_rows")):
    """Extremal degree thresholds at the nodes of an r-positive limit.

    a(i, n) for 0 <= i <= g-1: the largest windowed prefix sum alpha at
    node i such that every windowed completion with S_i = alpha keeps at
    least r+1-n sections on the suffix; a(0, n) = n by convention.
    b(i, n) = d - a(i, r-n) for 1 <= i <= g-1, and b(g, n) = n.
    Rows are strictly increasing in n.  ``a_rows[i]`` is row i of a, and
    ``b_rows[i - 1]`` row i of b.
    """

    __slots__ = ()

    def a(self, i: int, n: int) -> int:
        if not (0 <= i <= self.g - 1 and 0 <= n <= self.r):
            raise PreconditionError(f"a({i}, {n}) needs 0 <= i <= {self.g - 1}, 0 <= n <= {self.r}")
        return self.a_rows[i][n]

    def b(self, i: int, n: int) -> int:
        if not (1 <= i <= self.g and 0 <= n <= self.r):
            raise PreconditionError(f"b({i}, {n}) needs 1 <= i <= {self.g}, 0 <= n <= {self.r}")
        return self.b_rows[i - 1][n]


def vanishing_tables(L: LimitLineBundle, r: int, window: int | None = None) -> VanishingTable:
    """Compute the a/b threshold tables of an r-positive limit line
    bundle.  Raises :class:`PreconditionError` otherwise."""
    require(0, r=r)
    g, d = L.g, L.d
    window, lo, states, best, _ = _suffix_pass(L, window)
    if best < r + 1:
        raise PreconditionError(f"bundle has windowed min h0 = {best} < r+1 = {r + 1}")
    a_rows: list[tuple[int, ...]] = [tuple(range(r + 1))]
    for i in range(1, g):
        # node i is reflected node g - i, keyed by d - S_i
        n0, n1 = states[g - i - 1]
        minsuf = list(map(min, n0, n1))
        # sanity: min-suffix-h0 must rise by 0 or 1 per unit of the key d - s
        if not set(map(sub, minsuf[1:], minsuf)) <= {0, 1}:
            raise InternalCheckError(f"min-suffix-h0 at node {i} is not 1-Lipschitz monotone")
        row = []
        for n in range(r + 1):
            # the keys keeping r + 1 - n sections are those from t on, and alpha = d - (lo + t)
            t = bisect_left(minsuf, r + 1 - n)
            if not 0 < t < len(minsuf):
                raise PreconditionError(
                    f"a({i}, {n}) is not attained strictly inside window {window}; enlarge it"
                )
            row.append(d - lo - t)
        a_rows.append(tuple(row))
    b_rows = [
        tuple(d - a_rows[i][r - n] for n in range(r + 1)) for i in range(1, g)
    ]
    b_rows.append(tuple(range(r + 1)))
    return VanishingTable(r=r, d=d, g=g, a_rows=tuple(a_rows), b_rows=tuple(b_rows))


class StarReport(namedtuple("StarReport", "pairs per_n lower_bound")):
    """Components whose aspect is pinned by an extremal section: the pairs
    (i, n) with a(i-1, n) + b(i, r-n) = d.  At each such pair the aspect
    is checked to be the exact class O(a(i-1, n) p^{i-1} + b(i, r-n) p^i).
    ``per_n`` counts starred components for each n; each count is at
    least g - d + r."""

    __slots__ = ()


def star_components(L: LimitLineBundle, r: int, window: int | None = None) -> StarReport:
    """Find all star pairs of an r-positive limit line bundle and verify
    the forced aspects and the per-n counting bound."""
    t = vanishing_tables(L, r, window)
    g, d = L.g, L.d
    pairs = []
    per_n = {n: 0 for n in range(r + 1)}
    for i in range(1, g + 1):
        for n in range(r + 1):
            total = t.a(i - 1, n) + t.b(i, r - n)
            if total > d:
                raise InternalCheckError(
                    f"star bound violated at (i, n) = ({i}, {n}): {total} > d = {d}"
                )
            if total == d:
                pairs.append((i, n))
                per_n[n] += 1
                forced = (t.a(i - 1, n), t.b(i, r - n))
                actual = L.aspects[i - 1]
                if actual is None or actual != forced:
                    raise InternalCheckError(
                        f"component {i} is starred with forced aspect {forced} "
                        f"but carries {actual}"
                    )
    bound = g - d + r
    for n, c in per_n.items():
        if c < bound:
            raise InternalCheckError(
                f"star count {c} for n = {n} is below the forced bound {bound}"
            )
    return StarReport(pairs=tuple(pairs), per_n=per_n, lower_bound=bound)


# --- branch-and-bound search over symbolic aspect tuples ---

def aspect_options(g: int, d: int, window: int) -> list[list[Aspect]]:
    """The canonical symbolic aspect choices per component: exact classes
    (a, d-a) for a in [-window, d+window] on interior components, the
    all-degree-at-the-node exact class on end components (coefficients at
    the free points p^0 and p^g are normalized to zero, since nothing the
    engine computes can distinguish free-point mass from a generic
    class), and a generic class everywhere.  Exacts come first, ordered
    by left coefficient; the generic option is last."""
    require(1, g=g)
    require(None, d=d)
    require(0, window=window)
    if g == 1:
        return [[(0, 0), None] if d == 0 else [None]]
    options: list[list[Aspect]] = []
    for i in range(1, g + 1):
        if i == 1:
            options.append([(0, d), None])
        elif i == g:
            options.append([(d, 0), None])
        else:
            options.append([(a, d - a) for a in range(-window, d + window + 1)] + [None])
    return options


class SearchWitness(namedtuple("SearchWitness", "aspects min_h0")):
    __slots__ = ()


class SearchResult(namedtuple("SearchResult", "count_exact count_with_generic")):
    __slots__ = ()

    @property
    def total(self) -> int:
        return self.count_exact + self.count_with_generic


def _search_bounds(g: int, d: int, lo: int, hi: int) -> tuple[list[list[int]], list[list[int]]]:
    """The search's tables for c = 2..g, at index c - 2, over the merged
    keys u in [lo, hi + 1]: with x = d - u and n = g - c,
    U[c][u] = f_n(x) = max(x - n, x // 2 + 1), or 0 for x < 0, and
    Lb[c][u] = l_n(x) = max(0, x - n).  Whatever aspects E^c..E^g carry,
    what they add to a prefix entering E^c at key u is in [Lb, U]: both
    are the recursion over the cells (u, s) of :func:`_dp_step`, s in the
    window (s = d alone for c = g), that takes the best cell and in each
    cell the worse (U) or the better (Lb) of its generic and exact
    outcomes.  At t = s - u a cell adds (h0, eps) = (t, 1) for t >= 2,
    (0, 0) for t < 0, (0, 0) or (1, 1) for t = 0, (1, 1) or (1, 0) for
    t = 1, then goes on to key s + 1 - eps and adds -eps (:func:`_merge`).

    Proof by induction on c, down from g.  For c = g the one cell has
    t = x: x for x >= 1, 0 for x < 0, and 1 (U) or 0 (Lb) at x = 0.  For
    c < g, with f = f_{n-1} at c + 1, the cell s = u + t costs f(x - t - 1)
    for t < 0, f(x - 1) or f(x) for t = 0, f(x - 1) or 1 + f(x - 2) for
    t = 1, and t - 1 + f(x - t) for t >= 2; likewise with l = l_{n-1}.
    f_n is nondecreasing in x, nonincreasing in n and at least
    max(y - n, y // 2 + 1) at every y.  So the cells s <= u give at least
    f(x) >= f_n(x), the far cells at least max(x - n, (x + t) // 2, 0)
    >= f_n(x); for x >= 1 the diagonal s = u + 1 attains
    max(f(x - 1), 1 + f(x - 2)) = f_n(x), at x = 0 the cell s = d attains
    f(0) = 1, and at x < 0 the cell s = u - 1 >= d attains f(x) = 0.  l is
    nondecreasing and 1-Lipschitz, so every cell gives at least
    l(x - 1) = l_n(x), and s = u attains it (s = u - 1 at u = hi + 1 > d).
    Remark: on a subchain of genus n + 1, f_n is Clifford's bound joined
    with the non-special value, and l_n is Riemann-Roch.

    Each row is built from runs, u up from lo (x down from d - lo): U is
    x - n while x >= 2n + 2 (where x - n >= x // 2 + 1), then
    x // 2 + 1, the same for every row, down to x = 0, then zeros; Lb is
    x - n down to 1, then zeros."""
    width, x0 = hi - lo + 2, d - lo
    half = [x // 2 + 1 if x >= 0 else 0 for x in range(x0, x0 - width, -1)]
    upper, lower = [], []
    for n in range(g - 2, -1, -1):
        k, j = (min(max(0, m), width) for m in (x0 - 2 * n - 1, x0 - n))
        upper.append(list(range(x0 - n, x0 - n - k, -1)) + half[k:])
        lower.append(list(range(x0 - n, x0 - n - j, -1)) + [0] * (width - j))
    return upper, lower


def _child(m0: list[int], m1: list[int], U: list[int], Lb: list[int], r: int, clamp: bool):
    """The merged state C2 of (m0, m1), or None when t = min (C2 + U) <= r,
    with each key where C2[u] + Lb[u] exceeds r (``clamp``) or t set to
    _INF: with Lb >= 0, every missing key unless all are missing."""
    C2 = _merge(m0, m1)
    if (t := min(map(add, C2, U))) <= r:
        return None
    if clamp:
        t = r
    return [c if c + b <= t else _INF for c, b in zip(C2, Lb)]


def _search_step(aspects, C: list[int], lo: int, U: list[int], Lb: list[int], r: int, clamp: bool):
    """The children of a search node with merged state C: each option in
    ``aspects`` whose :func:`_child` is not None, with it.  One generic step
    (:func:`_dp_step`) gives the generic child, and every exact option at a
    key k = a[0] - lo outside the window or with C[k] missing shares it:
    with C[k] missing, :func:`_patch` changes only cells that are missing
    in both states, so only keys that are missing in both merged states,
    and the clamp writes those as _INF.  Each other exact option patches a
    copy of the generic state and builds its own child."""
    pre, suf, m0, m1 = _dp_step(C, lo)
    n, generic, kept = len(m0), _child(m0, m1, U, Lb, r, clamp), []
    for a in aspects:
        C2 = generic
        if a is not None and 0 <= (k := a[0] - lo) < n and C[k] < _INF:
            x0, x1 = m0[:], m1[:]
            _patch(a[0], C, lo, pre, suf, x0, x1)
            C2 = _child(x0, x1, U, Lb, r, clamp)
        if C2 is not None:
            kept.append((a, C2))
    return kept


def _search_graph(g: int, r: int, d: int, window: int | None, clamp: bool):
    """The search as a graph: the subtree below a prefix depends only on
    its length j and merged DP state C, so ``node`` runs the kernel once per
    key (j, *C), :func:`_search_step` or at the last component
    :func:`_dp_end`, and keeps the options that lead to a hit, each with its
    child's options (its min h0 at the last component), and two counts; a
    generic option moves its child's exact count into the generic one.
    The kernel is min-plus linear in C, so a completion's min h0 is
    min_u (C[u] + F(u)) with Lb <= F <= U (:func:`_search_bounds`, next
    component).  An option whose merged state has min_u (C[u] + U[u]) <= r
    is dropped: no completion is r-positive.  Then each cell with
    C[u] + Lb[u] > r, with ``clamp`` (counting), or > t = min_u (C[u] + U[u])
    without it (listing), is set missing before the node is keyed.  A
    clamped cell only raises its own term, and a completion's minimum is
    never clamped: when it fails, C + Lb <= C + F <= r at its argmin cell
    at every depth, so no count changes; and always C + Lb <= C + F =
    min h0 <= t there, since F <= U, so every listed min h0 is exact.
    Returns the root's options and both counts."""
    require(1, g=g)
    require(0, r=r)
    window, lo, hi = _window(g, d, window)
    options = aspect_options(g, d, window)
    if (size := prod(map(len, options))) > _MAX_TUPLES:
        raise PreconditionError(f"search refused: state space {size} tuples (guard {_MAX_TUPLES})")
    (upper, lower), memo = _search_bounds(g, d, lo, hi), {}

    def node(j: int, C: list[int]):
        if (found := memo.get(key := (j, *C))) is None:
            opts, kids, exact, generic = options[j], [], 0, 0
            if leaf := j == g - 1:  # the last component ends at S_g = d
                step = zip(opts, _dp_end(opts, C, lo, d))
            else:
                step = _search_step(opts, C, lo, upper[j], lower[j], r, clamp)
            for a, x in step:
                below, e, m = (x, int(x > r), 0) if leaf else node(j + 1, x)
                if a is None:  # every completion is generic
                    e, m = 0, e + m
                if e or m:
                    kids.append((a, below))
                    exact, generic = exact + e, generic + m
            memo[key] = found = kids, exact, generic
        return found

    return node(0, _start(lo, hi))


def search_limit_bundles(g: int, r: int, d: int, window: int | None = None) -> SearchResult:
    """Count the canonical symbolic aspect tuples that are r-positive by a
    branch-and-bound search over the graph of :func:`_search_graph`,
    without listing them.  ``count_exact`` counts tuples whose aspects are
    all exact; tuples containing a generic aspect are counted separately."""
    return SearchResult(*_search_graph(g, r, d, window, True)[1:])


def search_witnesses(
    g: int, r: int, d: int, window: int | None = None
) -> tuple[SearchWitness, ...]:
    """Every r-positive canonical aspect tuple with its min h0, in
    lexicographic option order, from a walk over the graph of
    :func:`_search_graph` that enters only nodes with hits.  Refuses more
    than ``_MAX_HITS`` hits before listing any."""

    def walk(j: int, kids, prefix: tuple[Aspect, ...]):
        for a, x in kids:
            if j == g - 1:
                yield SearchWitness(prefix + (a,), x)
            else:
                yield from walk(j + 1, x, prefix + (a,))

    kids, exact, generic = _search_graph(g, r, d, window, False)
    if exact + generic > _MAX_HITS:
        raise PreconditionError(f"listing refused: {exact + generic} hits (guard {_MAX_HITS})")
    return tuple(walk(0, kids, ()))


# --- serialization ---

def parse_aspects(text: str, d: int | None = None) -> LimitLineBundle:
    """Parse a limit line bundle from "0,4;2,2;0,4" or "[0,4; 2,2; 0,4]".

    Interior aspects are written (left, right) = coefficients at
    (p^{i-1}, p^i); the two end components are written free point first,
    i.e. (p^0 coeff, p^1 coeff) for E^1 and (p^g coeff, p^{g-1} coeff)
    for E^g, so the canonical all-degree-at-the-node classes read "0,d"
    at both ends.  "gen" denotes a generic aspect.  Unless given, the
    total degree is read off the exact aspects, which must agree on it."""
    body = text.strip().strip("[]")
    parts = [p.strip() for p in body.split(";")]
    raw: list[Aspect] = []
    for p in parts:
        if p.lower() == "gen":
            raw.append(None)
        else:
            x, y = (int(t) for t in p.split(","))
            raw.append((x, y))
    g = len(raw)
    if d is None:
        exact_sums = sorted({a[0] + a[1] for a in raw if a is not None})
        if not exact_sums:
            raise PreconditionError("no exact aspect fixes the total degree")
        if len(exact_sums) > 1:
            raise PreconditionError(f"exact aspects have different total degrees {exact_sums}")
        d = exact_sums[0]
    aspects: list[Aspect] = []
    for i, a in enumerate(raw):
        if a is not None and g >= 2 and i == g - 1:
            a = (a[1], a[0])  # last component is written free point first
        aspects.append(a)
    return LimitLineBundle(d=d, aspects=tuple(aspects))


def aspects_str(L: LimitLineBundle) -> str:
    """Inverse of :func:`parse_aspects`."""
    parts = []
    for i, a in enumerate(L.aspects):
        if a is None:
            parts.append("gen")
        elif L.g >= 2 and i == L.g - 1:
            parts.append(f"{a[1]},{a[0]}")
        else:
            parts.append(f"{a[0]},{a[1]}")
    return ";".join(parts)


def parse_distribution(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.strip().split(","))
