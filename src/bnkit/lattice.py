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

from typing import NamedTuple

from .errors import InternalCheckError, PreconditionError, require
from .invariants import chi_pullback_tangent, rho
from .normal_bundle import SplitBundle


def min_degree(r: int, g: int) -> int:
    """Least degree with rho(g, r, d) >= 0: ceil(rg/(r+1)) + r."""
    require(1, r=r)
    require(0, g=g)
    d = -((-r * g) // (r + 1)) + r
    if rho(g, r, d) < 0 or rho(g, r, d - 1) >= 0:
        raise InternalCheckError(f"min_degree({r}, {g}) = {d} disagrees with the rho scan")
    return d


def reachable_set(r: int, g_max: int, d_max: int) -> set[tuple[int, int]]:
    """Closure of {(d, g) = (r, 0)} under moves A, B, C inside the box
    g <= g_max, d <= d_max.  Coincides with the set of (d, g) in the box
    with rho(g, r, d) >= 0."""
    require(1, r=r)
    require(0, g_max=g_max, d_max=d_max)
    steps = [step for step, _ in _moves(r).values()]
    seen: set[tuple[int, int]] = set()
    frontier = [(r, 0)]
    while frontier:
        d, g = frontier.pop()
        if d > d_max or g > g_max or (d, g) in seen:
            continue
        seen.add((d, g))
        frontier.extend((d + dd, g + dg) for dd, dg in steps)
    return seen


def _moves(r: int) -> dict[str, tuple[tuple[int, int], SplitBundle]]:
    """Each move's step on (d, g), and the splitting type of the tangent
    bundle of P^r restricted to the attached rational curve, twisted down
    by the secancy divisor."""
    return {
        # line, 1 secancy point: O(1)^{r-1} + O(2) twisted down once
        "A": ((1, 0), SplitBundle((0,) * (r - 1) + (1,))),
        # line, 2 secancy points
        "B": ((1, 1), SplitBundle((-1,) * (r - 1) + (0,))),
        # rational normal curve, r+2 secancy points: O(r+1)^r twisted down r+2
        "C": ((r, r + 1), SplitBundle((-1,) * r)),
    }


class MoveStep(NamedTuple):
    move: str
    bundle: SplitBundle
    h1: int


class MoveCertificate(NamedTuple):
    """A certified path from the rational normal curve (d, g) = (r, 0) to
    the target point: every attached bundle has h1 = 0, and the Euler
    characteristics accumulate to (r+1)d - r(g-1)."""

    r: int
    d: int
    g: int
    moves: str
    steps: tuple[MoveStep, ...]
    base_bundle: SplitBundle
    chi: int


def h1_certificate(r: int, d: int, g: int) -> MoveCertificate:
    """Build the h1-vanishing certificate for (d, g) with rho >= 0 and
    r >= 3.

    The move sequence is chosen deterministically by undoing moves
    greedily from (d, g): undo C whenever g >= r+1 (rho is preserved so
    the intermediate stays in the lattice), then undo B while g > 0
    (there rho >= 1, since rho = 0 forces g to be a multiple of r+1),
    then undo A down to the rational normal curve.  Any valid sequence
    would do; this one is reproducible.
    """
    require(3, r=r)
    p = rho(g, r, d)
    if p < 0:
        raise PreconditionError(f"rho({g}, {r}, {d}) = {p} < 0; no certificate exists")
    moves = _moves(r)
    moves_rev: list[str] = []
    cd, cg = d, g
    while cd > r or cg > 0:
        move = "C" if cg >= r + 1 else "B" if cg > 0 else "A"
        if move == "B" and rho(cg, r, cd) < 1:
            raise InternalCheckError("undoing B needs rho >= 1")
        moves_rev.append(move)
        (dd, dg), _ = moves[move]
        cd, cg = cd - dd, cg - dg
        if move == "C" and rho(cg, r, cd) != p:
            raise InternalCheckError("undoing C must preserve rho")
    if (cd, cg) != (r, 0):
        raise InternalCheckError(f"greedy descent ended at ({cd}, {cg}), not ({r}, 0)")

    base = SplitBundle((r + 1,) * r)  # tangent bundle restricted to the RNC
    if base.h1 != 0:
        raise InternalCheckError("base-case bundle must have h1 = 0")
    chi = base.chi
    steps = []
    pd, pg = r, 0
    for move in reversed(moves_rev):
        (dd, dg), bundle = moves[move]
        if bundle.h1 != 0:
            raise InternalCheckError(f"move {move} bundle {bundle} has h1 != 0")
        steps.append(MoveStep(move, bundle, bundle.h1))
        chi += bundle.chi
        pd, pg = pd + dd, pg + dg
    if (pd, pg) != (d, g):
        raise InternalCheckError(f"moves land at ({pd}, {pg}), not ({d}, {g})")
    if chi != chi_pullback_tangent(g, r, d):
        raise InternalCheckError(
            f"accumulated chi {chi} != closed form {chi_pullback_tangent(g, r, d)}"
        )
    return MoveCertificate(
        r=r,
        d=d,
        g=g,
        moves="".join(reversed(moves_rev)),
        steps=tuple(steps),
        base_bundle=base,
        chi=chi,
    )
