"""Degree/rank ledger for split vector bundles on the line, elementary
modifications, and the balancedness certificate for normal bundles of
odd-degree rational space curves.

This module tracks no sheaves: once splitting behaviour is given, every
step (projection sequences, positive/negative modifications, restriction
of the normal bundle of a nodal union to a component) is determined by
integer bookkeeping.  The Riemann-Roch identity h0 - h1 = deg + rank
holds for every split bundle, since max(0, e+1) - max(0, -e-1) = e+1
summand by summand; the additivity of each exact sequence is checked.
"""

from __future__ import annotations

from collections import namedtuple
from operator import index

from .errors import InternalCheckError, PreconditionError, require


class SplitBundle(namedtuple("SplitBundle", "degrees")):
    """A direct sum of line bundles on the line, recorded as the multiset
    of summand degrees.  Order is preserved as given so that individual
    summands keep their identity under modifications; serialization and
    multiset comparison use the sorted form."""

    __slots__ = ()

    def __new__(cls, degrees) -> SplitBundle:
        self = super().__new__(cls, tuple(map(index, degrees)))
        if not self.degrees:
            raise PreconditionError("a split bundle needs at least one summand")
        return self

    #: ``_replace`` builds through ``_make``, so it validates too
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.degrees))

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    @property
    def h0(self) -> int:
        return sum(max(0, e + 1) for e in self.degrees)

    @property
    def h1(self) -> int:
        return sum(max(0, -e - 1) for e in self.degrees)

    @property
    def chi(self) -> int:
        return self.degree + self.rank

    def twist(self, n: int) -> "SplitBundle":
        """Tensor by a degree-n line bundle: every summand shifts by n."""
        return SplitBundle(e + n for e in self.degrees)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.multiset)


def parse_split_bundle(text: str) -> SplitBundle:
    """Parse "2,1,1" into the split bundle with those summand degrees, in order."""
    return SplitBundle(int(t) for t in text.split(","))


def modify(bundle: SplitBundle, summand_index: int, sign: str, points: int) -> SplitBundle:
    """Elementary modification of a split bundle along a reduced divisor of
    length ``points`` toward the summand at ``summand_index``.

    Positive modification adds ``points`` to the chosen summand (the split
    case).  Negative modification is positive modification followed by the
    full downward twist: net effect, every other summand drops by
    ``points`` while the chosen one is unchanged.  Rank never changes.
    Only modifications toward a summand are defined on this ledger.
    """
    require(None, summand_index=summand_index)
    if not 0 <= summand_index < bundle.rank:
        raise PreconditionError(
            f"summand index {summand_index} out of range for rank {bundle.rank}"
        )
    require(0, points=points)
    if sign not in ("+", "-"):
        raise PreconditionError(f"sign must be '+' or '-', got {sign!r}")
    degrees = list(bundle.degrees)
    degrees[summand_index] += points
    out = SplitBundle(degrees)
    if sign == "-":
        out = out.twist(-points)
    return out


def pointing_degree(d: int, q_position: str) -> int:
    """Degree of the pointing line subbundle of the normal bundle of a
    degree-d curve, by the position of the center q: d for q off all
    tangent lines, d+2 for q a general point of the curve itself."""
    require(None, d=d)
    if q_position == "off_tangents":
        return d
    if q_position == "on_curve_general":
        return d + 2
    raise PreconditionError(
        f"q_position must be 'off_tangents' or 'on_curve_general', got {q_position!r}"
    )


class LedgerSequence(namedtuple("LedgerSequence", "sub quot total_rank total_degree")):
    """An exact sequence of split bundles recorded at ledger level: the
    sub and quotient are explicit splittings, the total may only be known
    by rank and degree.  Additivity of rank and degree is asserted."""

    __slots__ = ()

    def __new__(cls, sub: SplitBundle, quot: SplitBundle,
                total_rank: int, total_degree: int) -> LedgerSequence:
        if sub.rank + quot.rank != total_rank:
            raise InternalCheckError("ledger sequence rank additivity failed")
        if sub.degree + quot.degree != total_degree:
            raise InternalCheckError("ledger sequence degree additivity failed")
        return super().__new__(cls, sub, quot, total_rank, total_degree)

    #: ``_replace`` builds through ``_make``, so it validates too
    _make = classmethod(lambda cls, fields: cls(*fields))


def projection_ledger(d: int) -> LedgerSequence:
    """Projection from a general point q of a degree-d rational curve in
    3-space: sub O(d+2) (the pointing bundle twisted up through q), quotient
    the plane-image normal sheaf O(3d-5) twisted by q, giving O(3d-4).
    Total: the rank-2 normal bundle of degree 4d-2."""
    require(3, d=d)
    sub = SplitBundle([pointing_degree(d, "on_curve_general")])
    quot = SplitBundle([3 * (d - 1) - 2 + 1])
    return LedgerSequence(sub=sub, quot=quot, total_rank=2, total_degree=4 * d - 2)


def hh_restriction(bundle: SplitBundle, node_targets) -> SplitBundle:
    """Restriction of the normal bundle of a nodal union to one component:
    one positive modification (+1) toward the pointing summand per node.
    ``node_targets`` lists the pointing summand index for each node; the
    total degree grows by the number of nodes."""
    out = bundle
    for target in node_targets:
        out = modify(out, target, "+", 1)
    return out


class OddDegreeCertificate(namedtuple(
        "OddDegreeCertificate", "d peels reduced_degree sub quot balanced conclusion total")):
    """Balancedness certificate for the normal bundle of a general
    rational curve of odd degree d in 3-space.

    ``peels`` 1-secant-line degenerations reduce to a curve of degree
    ``reduced_degree``; the accumulated modifications turn the projection
    sequence of the reduced curve into one with sub and quotient both of
    degree (3d+1)/2, hence balanced.  The conclusion for the original
    curve is the perfectly balanced splitting (2d-1, 2d-1) of total
    degree ``total`` = 4d-2.
    """

    __slots__ = ()


def odd_degree_certificate(d: int) -> OddDegreeCertificate:
    """Run the 1-secant peeling ledger for an odd degree d >= 3.  Even
    degrees are refused: the ledger certifies odd d only.  For odd d the
    formulas give sub = quot = (3d+1)/2 and total = 4d-2 outright."""
    require(3, d=d)
    if d % 2 == 0:
        raise PreconditionError(
            f"degree {d} is even; this balancedness certificate covers odd degrees only"
        )
    peels = (d - 3) // 2
    reduced = (d + 3) // 2
    # sub: pointing bundle of the reduced curve through q, twisted by the
    # doubled secancy points 2p_1 + .. + 2p_peels
    sub = pointing_degree(reduced, "on_curve_general") + 2 * peels
    # quotient: plane-image normal sheaf of the reduced curve, twisted by q
    quot = 3 * reduced - 5 + 1
    conclusion = (2 * d - 1, 2 * d - 1)
    return OddDegreeCertificate(
        d=d,
        peels=peels,
        reduced_degree=reduced,
        sub=sub,
        quot=quot,
        balanced=(sub == quot),
        conclusion=conclusion,
        total=sum(conclusion),
    )
