"""Splitting-type combinatorics of Hurwitz-Brill-Noether theory.

A splitting type is the ascending tuple (e_1 <= .. <= e_k) of degrees in
the direct-sum decomposition of the pushforward of a line bundle under a
degree-k cover of the line.  It refines (r, d), carries its own expected
dimension, and specializes along the majorization (prefix-sum) order.

Note on the rank formula: the number of sections contributed by a
summand of degree e on the line is max(0, e+1), so r = h0(E) - 1 =
sum_i max(0, e_i + 1) - 1, read off the split bundle E that
:class:`~bnkit.normal_bundle.SplitBundle` records.  (A version of this
formula sometimes circulates with e_i - 1 in place of e_i + 1; that
variant gets the trigonal genus-5 pencils wrong, so the h^0-consistent
form is used.)
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

from .errors import InternalCheckError, PreconditionError, require
from .normal_bundle import SplitBundle

SplittingType = tuple[int, ...]


def check_splitting(parts) -> SplittingType:
    """Normalize to an ascending tuple of integers; length must be at least 2."""
    e = tuple(sorted(map(index, parts)))
    if len(e) < 2:
        raise PreconditionError(f"a splitting type needs k >= 2 parts, got {e}")
    return e


def rd_from_splitting(g: int, parts) -> tuple[int, int]:
    """The (r, d) of the splitting type on a genus-g cover.  The type is
    the split bundle E = pi_*L on the line, so r = h0(E) - 1, and
    chi(E) = chi(L) = d - g + 1 gives d."""
    require(0, g=g)
    E = SplitBundle(check_splitting(parts))
    return E.h0 - 1, E.chi + g - 1


def rho_splitting(g: int, parts) -> int:
    """Expected dimension g - h1(End E) of the splitting-type locus W^e on
    a general genus-g cover, with End E the split bundle of the
    differences e_i - e_j."""
    require(0, g=g)
    e = check_splitting(parts)
    return g - SplitBundle(a - b for a in e for b in e).h1


class MajorizationResult(namedtuple("MajorizationResult", "holds reason", defaults=("",))):
    """Truthy wrapper so callers can ask both *whether* and *why not*."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.holds


def majorizes(outer, inner) -> MajorizationResult:
    """Whether W^inner is contained in W^outer: equal length and sum, and
    every prefix sum of inner at most the corresponding prefix sum of
    outer.  Shape mismatches are reported as False with a reason, not
    raised."""
    a = check_splitting(outer)
    b = check_splitting(inner)
    if len(a) != len(b):
        return MajorizationResult(False, "length-mismatch")
    if sum(a) != sum(b):
        return MajorizationResult(False, "sum-mismatch")
    pa = pb = 0
    for x, y in zip(a, b):
        pa += x
        pb += y
        if pb > pa:
            return MajorizationResult(False, "prefix-exceeds")
    return MajorizationResult(True)


def balanced_type(length: int, total: int) -> SplittingType:
    """The balanced degree tuple of the given length and sum: parts differ
    by at most one, listed ascending."""
    require(1, length=length)
    require(None, total=total)
    q, rem = divmod(total, length)
    return (q,) * (length - rem) + (q + 1,) * rem


def maximal_splitting_types(g: int, r: int, d: int, k: int) -> list[SplittingType]:
    """The splitting types maximal with respect to containment among those
    with invariants (r, d) on a degree-k cover, valid in the special
    regime g - d + r > 0:

        w_{r,ell} = b(k-r-1+ell, d-g+1-k-ell) ++ b(r+1-ell, ell)

    over max(0, r+2-k) <= ell <= r with ell = 0 or ell <= g-d+2r+1-k,
    where b is the balanced type of given length and sum.  Every emitted
    type is checked to reproduce (r, d).  Its locus can still be empty:
    (-4, 0, 0) at (g, r, d, k) = (5, 1, 3, 3), where ell = 0, and
    (-2, -2, 2) at (5, 2, 5, 3), where ell = 2, have rho_splitting = -1.
    """
    require(0, g=g, r=r)
    require(2, k=k)
    require(None, d=d)
    if g - d + r <= 0:
        raise PreconditionError(
            f"maximal splitting types are stated for g-d+r > 0, got {g - d + r}"
        )
    out = []
    for ell in range(max(0, r + 2 - k), r + 1):
        if ell != 0 and ell > g - d + 2 * r + 1 - k:
            continue
        w = tuple(
            sorted(
                balanced_type(k - r - 1 + ell, d - g + 1 - k - ell)
                + balanced_type(r + 1 - ell, ell)
            )
        )
        if rd_from_splitting(g, w) != (r, d):
            raise InternalCheckError(
                f"maximal type {w} for (g, r, d, k) = ({g}, {r}, {d}, {k}) "
                f"has invariants {rd_from_splitting(g, w)}"
            )
        out.append(w)
    return out


class HbnPredicates(namedtuple("HbnPredicates", "basepoint_free very_ample_sufficient")):
    """Geometric predicates read off a splitting type.  The very-ample
    flag is a sufficient criterion only, never a characterization."""

    __slots__ = ()


def hbn_predicates(parts) -> HbnPredicates:
    """Basepoint-freeness (iff the second-largest part is >= 0) and the
    sufficient very-ampleness criterion (third-largest part >= 0 and
    r >= 3, with r the rank the type fixes) for a general line bundle in
    the splitting locus."""
    e = check_splitting(parts)
    r, _ = rd_from_splitting(0, e)  # the rank does not depend on the genus
    # e_{k-2} exists only for k >= 3; for k = 2 the criterion never applies
    very_ample = len(e) >= 3 and e[-3] >= 0 and r >= 3
    return HbnPredicates(basepoint_free=e[-2] >= 0, very_ample_sufficient=very_ample)


def splitting_str(parts) -> str:
    return ",".join(str(x) for x in check_splitting(parts))


def parse_splitting(text: str) -> SplittingType:
    """Parse "-3,-1,1" into an ascending splitting type."""
    return check_splitting(int(t) for t in text.strip().split(","))

