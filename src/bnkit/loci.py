"""The lattice of Brill-Noether loci M^r_{g,d} inside the moduli of
genus-g curves: Serre duality, the two trivial containments (adding a
point, subtracting a general point), and the expected-maximal
classification with its three exceptional genera.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PreconditionError, require
from .invariants import rho
from .lattice import min_degree

#: Expected-maximal loci that nevertheless fail to be maximal with
#: respect to containment (the only three, for g >= 3).
MAXIMAL_EXCEPTIONS = frozenset({(7, 2, 6), (8, 1, 4), (9, 2, 7)})


def serre_dual(g: int, r: int, d: int) -> tuple[int, int, int]:
    """The Serre-dual locus index (g, g-d+r-1, 2g-2-d).  An involution
    that preserves rho; raises :class:`PreconditionError` if the dual rank
    would be negative."""
    require(0, g=g, r=r)
    require(None, d=d)
    if g - d + r - 1 < 0:
        raise PreconditionError(f"dual rank g-d+r-1 = {g - d + r - 1} < 0 for ({g}, {r}, {d})")
    return (g, g - d + r - 1, 2 * g - 2 - d)


class Containment(namedtuple("Containment", "g r d full_moduli")):
    """A trivially larger locus; ``full_moduli`` marks r = 0 targets,
    which are the whole moduli space rather than proper loci."""

    __slots__ = ()


def trivial_containments(g: int, r: int, d: int) -> list[Containment]:
    """The two loci trivially containing M^r_{g,d}: add a point
    (g, r, d+1) and subtract a general point (g, r-1, d-1).  The second
    has rank r - 1, so r >= 1."""
    require(0, g=g)
    require(1, r=r)
    require(None, d=d)
    return [
        Containment(g, r, d + 1, full_moduli=False),
        Containment(g, r - 1, d - 1, full_moduli=(r - 1 == 0)),
    ]


class ExpectedMaximalReport(namedtuple(
        "ExpectedMaximalReport", "is_expected_maximal is_maximal_exception rho d_formula")):
    """Expected-maximality of one locus; ``d_formula`` is the degree
    forced by expected-maximality, ceil(rg/(r+1)) + r - 1."""

    __slots__ = ()


def expected_maximal(g: int, r: int, d: int) -> ExpectedMaximalReport:
    """Whether M^r_{g,d} is expected maximal: rho < 0 while both trivial
    containment targets have rho >= 0.  Also reports membership in the
    three-element exception list of expected-maximal loci that are not
    maximal.

    An expected-maximal locus has d = ceil(rg/(r+1)) + r - 1, the
    reported ``d_formula``, and -rho <= r+1: both follow from
    rho(g, r, d) < 0 <= rho(g, r, d+1) = rho(g, r, d) + r + 1.
    """
    require(3, g=g)
    require(1, r=r)
    p = rho(g, r, d)
    is_em = p < 0 and all(rho(t.g, t.r, t.d) >= 0 for t in trivial_containments(g, r, d))
    d_formula = min_degree(r, g) - 1  # ceil(rg/(r+1)) + r - 1
    return ExpectedMaximalReport(
        is_expected_maximal=is_em,
        is_maximal_exception=(g, r, d) in MAXIMAL_EXCEPTIONS,
        rho=p,
        d_formula=d_formula,
    )


class ExpectedMaximalRow(namedtuple("ExpectedMaximalRow", "g r d rho is_maximal_exception")):
    __slots__ = ()


def enumerate_expected_maximal(g: int) -> list[ExpectedMaximalRow]:
    """All expected-maximal loci of genus g in the canonical range
    r >= 1, 2 <= d <= g-1, each annotated with rho and the exception
    flag.  Only d = ``min_degree(r, g) - 1`` can be expected maximal; it is
    at least 2 and rises strictly with r, so the scan stops at d >= g."""
    require(3, g=g)
    rows = []
    for r in range(1, g + 1):
        if (d := min_degree(r, g) - 1) >= g:
            break
        if (rep := expected_maximal(g, r, d)).is_expected_maximal:
            rows.append(ExpectedMaximalRow(g, r, d, rep.rho, rep.is_maximal_exception))
    return rows

