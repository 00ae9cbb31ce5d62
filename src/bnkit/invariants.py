"""Closed-form numeric invariants of Brill-Noether problems.

Everything here is a polynomial or factorial expression in the triple
(g, r, d) = (genus, target projective dimension, degree).  All arithmetic
is exact: a count that is a ratio of factorials is n! over a product
given by its prime exponents (:func:`_factorial_quotient`), checked to be
integral.  No floats anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress
from math import comb, isqrt

from .errors import InternalCheckError, PreconditionError, require

#: The four (g, r, d) for which general curves interpolate strictly fewer
#: points than the dimension count predicts.
INTERPOLATION_EXCEPTIONS = frozenset({(2, 3, 5), (4, 3, 6), (2, 5, 7), (6, 5, 10)})


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number rho(g, r, d) = g - (r+1)(g-d+r)."""
    require(0, g=g, r=r)
    require(None, d=d)
    return g - (r + 1) * (g - d + r)


def rho_k(g: int, r: int, d: int, k: int) -> int:
    """Gonality-refined rho: max of rho(g, r-ell, d) - ell*k over
    0 <= ell <= min(r, g-d+r-1).  With s = g-d+r the maximand is
    -ell^2 + (r+1+s-k)*ell + g - (r+1)*s, a parabola with its top at
    (r+1+s-k)/2, so (r+1+s-k) // 2 clamped into the range attains it.

    Governs dim W^r_d on a general k-gonal curve.  Raises
    :class:`PreconditionError` when g-d+r-1 < 0, i.e. outside the special range
    where the refinement says anything.
    """
    require(0, g=g, r=r)
    require(None, d=d)
    require(2, k=k)
    s = g - d + r
    ell_max = min(r, s - 1)
    if ell_max < 0:
        raise PreconditionError(
            f"empty ell-range for (g, r, d) = ({g}, {r}, {d}): min(r, g-d+r-1) = {ell_max} < 0"
        )
    ell = min(max((r + 1 + s - k) // 2, 0), ell_max)
    return rho(g, r - ell, d) - ell * k


def count_grd(g: int, r: int, d: int) -> int:
    """Number of g^r_d's on a general genus-g curve when rho = 0:

        N(g, r, d) = g! * prod_{a=0}^{r} a! / (g-d+r+a)!

    which also counts standard Young tableaux on the (r+1) x (g-d+r)
    rectangle.  With s = g-d+r, the denominator prod_a (s+a)!/a! is the
    product of the integers a+1, .., a+s over a = 0..r, of which
    sum_a floor((s+a)/q) - floor(a/q) are multiples of q: three sums of
    floor(k/q) over a range of k, each in closed form.  Raises
    :class:`PreconditionError` away from rho = 0.
    """
    if rho(g, r, d) != 0:
        raise PreconditionError(f"rho({g}, {r}, {d}) = {rho(g, r, d)} != 0; count undefined")
    s = g - d + r  # rho = 0 forces s >= 0
    count = _factorial_quotient(
        g, s + r, lambda q: _floor_sum(s + r + 1, q) - _floor_sum(s, q) - _floor_sum(r + 1, q))
    if count is None:
        raise InternalCheckError(f"count_grd({g}, {r}, {d}) is not integral")
    return count


def _floor_sum(n: int, q: int) -> int:
    """sum(k // q for k in range(n)): m = n // q full runs of q equal
    quotients 0, .., m-1, then n - q*m more quotients m, which sum to
    q*m*(m-1)/2 + m*(n - q*m) = m*(2n - q - q*m)/2."""
    m = n // q
    return m * (2 * n - q - q * m) // 2


def _factorial_quotient(n: int, top: int, multiples) -> int | None:
    """n! / D, where D is a product of integers in [1, top] of which
    ``multiples(q)`` are multiples of q, for each prime power q <= top;
    None when D does not divide n!.

    By Legendre's formula p appears in the quotient to the power
    sum_{q = p^i} n // q - multiples(q), negative for some p iff D does not
    divide n!.  The powers p^e are multiplied pairwise, big factors meeting
    at similar sizes (Borwein 1985), with no big-integer division.
    """
    powers = [1]  # the product when no prime is at most n
    for p in _primes(max(n, top)):
        e, q = 0, p
        while q <= n or q <= top:
            e += n // q - (multiples(q) if q <= top else 0)
            q *= p
        if e < 0:
            return None
        powers.append(p ** e)
    while len(powers) > 1:
        powers = [a * b for a, b in zip(powers[::2], powers[1::2])] + powers[len(powers) & ~1:]
    return powers[0]


def _primes(n: int) -> list[int]:
    """The primes up to n, by the sieve of Eratosthenes."""
    sieve = bytearray(2) + bytearray([1]) * (n - 1)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), sieve))


def chi_pullback_tangent(g: int, r: int, d: int) -> int:
    """Euler characteristic (r+1)d - r(g-1) of the pulled-back tangent
    bundle of P^r along a degree-d genus-g curve; as a polynomial it equals
    rho(g, r, d) + (r+1)^2 - 1."""
    require(0, g=g, r=r)
    require(None, d=d)
    return (r + 1) * d - r * (g - 1)


def hilbert_function(g: int, r: int, d: int, k: int) -> int:
    """Hilbert function of a general Brill-Noether curve in P^r, i.e. the
    rank of restriction of degree-k forms: r + 1 at k = 1, since the curve
    is nondegenerate even when O_C(1) is special, and
    min(C(k+r, r), kd + 1 - g) for k >= 2 (maximal-rank behaviour).  No
    such curve exists at rho < 0."""
    require(0, g=g, r=r)
    require(1, k=k)
    require(0, rho=rho(g, r, d))
    if k == 1:
        return r + 1
    # C(k+r, r) by its increasing partial products C(max(r,k)+i, i), stopping at kd+1-g
    cap, n = k * d + 1 - g, 1
    for i in range(1, min(r, k) + 1):
        if n >= cap:
            break
        n = n * (max(r, k) + i) // i
    return min(n, cap)


def smrc_expected_dim(g: int, r: int, d: int, k: int) -> int:
    """Expected dimension rho - 1 - |C(r+k, k) - (dk+1-g)| of the locus of
    line bundles whose degree-k multiplication map drops rank.

    Only meaningful under the hypotheses g-d+r >= 0, 0 <= rho < r-2 and
    k >= 2; anything else raises :class:`PreconditionError` naming the
    violated inequality rather than extrapolating.
    """
    require(0, g=g, r=r)
    require(2, k=k)
    if g - d + r < 0:
        raise PreconditionError(f"need g-d+r >= 0, got {g - d + r}")
    p = rho(g, r, d)
    if p < 0:
        raise PreconditionError(f"need rho >= 0, got rho = {p}")
    if p >= r - 2:
        raise PreconditionError(f"need rho < r-2, got rho = {p}, r-2 = {r - 2}")
    return p - 1 - abs(comb(r + k, k) - (d * k + 1 - g))


class InterpolationReport(namedtuple("InterpolationReport", "formula_value is_exception count")):
    """Outcome of the interpolation count for Brill-Noether curves.

    ``count`` is None for the non-quadric exceptional triples, where the
    true count is strictly below the formula but not pinned to a number
    here.
    """

    __slots__ = ()


def interpolation_points(g: int, r: int, d: int) -> InterpolationReport:
    """How many general points a general degree-d genus-g curve in P^r
    passes through.

    The dimension count predicts floor(((r+1)d - (r-3)(g-1)) / (r-1)),
    and this is the answer except for the four exceptional triples.  For
    (2, 3, 5) the quadric-surface argument pins the count to one less
    than the formula; the other three exceptions are reported as "below
    formula" with count None.
    """
    require(3, r=r)
    require(0, rho=rho(g, r, d))
    formula = ((r + 1) * d - (r - 3) * (g - 1)) // (r - 1)
    if (g, r, d) not in INTERPOLATION_EXCEPTIONS:
        return InterpolationReport(formula, False, formula)
    if (g, r, d) == (2, 3, 5):
        # lies on a quadric surface, which interpolates only 9 points
        return InterpolationReport(formula, True, formula - 1)
    return InterpolationReport(formula, True, None)
