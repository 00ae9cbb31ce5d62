"""The (d, g) lattice of nonnegative rho for fixed ambient dimension r,
its generation from the rational normal curve by three attaching moves,
and h1-vanishing certificates built from the restricted-tangent-bundle
ledger.

Moves on (d, g), each realized by attaching a rational curve to an
embedded curve with the old invariants:

    A: (d, g) -> (d+1, g)        1-secant line
    B: (d, g) -> (d+1, g+1)      2-secant line
    C: (d, g) -> (d+r, g+r+1)    (r+2)-secant rational normal curve

The certificate for (d, g) records a move sequence from (r, 0), the
splitting type of each attached tangent-bundle restriction after
twisting down by the secancy divisor, the vanishing of h1 of each, and
the accumulated Euler characteristic.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PreconditionError, require
from .invariants import rho
from .normal_bundle import SplitBundle


def min_degree(r: int, g: int) -> int:
    """Least degree with rho(g, r, d) >= 0: ceil(rg/(r+1)) + r."""
    require(1, r=r)
    require(0, g=g)
    return -((-r * g) // (r + 1)) + r


def reachable_set(r: int, g_max: int, d_max: int) -> set[tuple[int, int]]:
    """Closure of {(d, g) = (r, 0)} under moves A, B, C inside the box
    g <= g_max, d <= d_max: the (d, g) with min_degree(r, g) <= d, where
    rho(g, r, d) >= 0.  No move lowers rho = g - (r+1)(g-d+r): A adds r+1,
    B adds 1, C adds 0, and rho(0, r, r) = 0.  With c, b = divmod(g, r+1),
    min_degree(r, g) = r + rc + b, so A^a B^b C^c, a = d - r - b - rc >= 0,
    reaches each such point, on a path inside the box: moves raise d and g."""
    require(1, r=r)
    require(0, g_max=g_max, d_max=d_max)
    return {(d, g) for g in range(g_max + 1) for d in range(min_degree(r, g), d_max + 1)}


def _moves(r: int) -> dict[str, SplitBundle]:
    """The splitting type of the tangent bundle of P^r restricted to the
    rational curve each move attaches, twisted down by the secancy
    divisor."""
    return {
        # line, 1 secancy point: O(1)^{r-1} + O(2) twisted down once
        "A": SplitBundle((0,) * (r - 1) + (1,)),
        # line, 2 secancy points
        "B": SplitBundle((-1,) * (r - 1) + (0,)),
        # rational normal curve, r+2 secancy points: O(r+1)^r twisted down r+2
        "C": SplitBundle((-1,) * r),
    }


class MoveStep(namedtuple("MoveStep", "move bundle h1")):
    __slots__ = ()


class MoveCertificate(namedtuple("MoveCertificate", "r d g moves steps base_bundle chi")):
    """A certified path from the rational normal curve (d, g) = (r, 0) to
    the target point: every attached bundle has h1 = 0, and the Euler
    characteristics accumulate to (r+1)d - r(g-1)."""

    __slots__ = ()


def h1_certificate(r: int, d: int, g: int) -> MoveCertificate:
    """Build the h1-vanishing certificate for (d, g) with rho >= 0 and
    r >= 3: the word A^a B^b C^c, c, b = divmod(g, r+1), a = d-r-b-c*r.

    It replays the greedy descent that undoes C while g >= r+1 (keeping
    rho), then B while g > 0 (rho drops by 1 each time, and rho = g = b
    mod r+1 gives rho >= b), then A down to (r, 0).  Each move bundle has
    entries >= -1, so h1 = 0 at every step, and the Euler characteristics
    add up to (r+1)d - r(g-1).
    """
    require(3, r=r)
    p = rho(g, r, d)
    if p < 0:
        raise PreconditionError(f"rho({g}, {r}, {d}) = {p} < 0; no certificate exists")
    c, b = divmod(g, r + 1)
    word = "A" * (d - r - b - c * r) + "B" * b + "C" * c
    moves = _moves(r)
    steps = tuple(MoveStep(m, moves[m], moves[m].h1) for m in word)
    base = SplitBundle((r + 1,) * r)  # tangent bundle restricted to the RNC
    return MoveCertificate(
        r=r,
        d=d,
        g=g,
        moves=word,
        steps=steps,
        base_bundle=base,
        chi=base.chi + sum(s.bundle.chi for s in steps),
    )
