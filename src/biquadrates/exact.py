"""Exact integer and rational model of the quartic product equation.

The central object is a six-tuple (x1, x2, y1, y2, z1, z2) of integers
satisfying

    (x1**4 + x2**4) * (y1**4 + y2**4) == z1**4 + z2**4.

Solutions come in scaling families: (k1, k2) sends a solution to
(k1*x1, k1*x2, k2*y1, k2*y2, k1*k2*z1, k1*k2*z2), and the x-pair and
y-pair may be exchanged wholesale.  ``canonicalize`` quotients out the
whole symmetry group; two solutions are equivalent exactly when their
canonical keys agree.

``check_solution`` proves a tuple through Brahmagupta's split of the left
side into two squares: at half the width of z^4 when one square is a z^2,
as on every family's tuples (four routes), by the full residual otherwise.

Everything here is exact: plain ``int`` plus ``fractions.Fraction``.  The
derivation's error classes live here too, so that the CLI can catch them
without loading the derivation.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt


class DegenerateSolutionError(ValueError):
    """A coordinate pair that must be nonzero is (0, 0)."""


class PipelineError(RuntimeError):
    """An internal consistency check failed while deriving a solution."""


class DegenerateCurveError(ValueError):
    """The cubic has a repeated root (for the family here, m = 0)."""


class PoleError(ZeroDivisionError):
    """A pole: the map to the quartic model at X = 4M, or nP at infinity."""


class SolutionSix(namedtuple("SolutionSix", "x1 x2 y1 y2 z1 z2")):
    """Integer six-tuple for (x1^4+x2^4)(y1^4+y2^4) = z1^4+z2^4."""

    __slots__ = ()


class CanonicalKey(namedtuple("CanonicalKey", "xpair ypair zpair")):
    """Canonical form of a solution under scaling, signs, swaps and x/y exchange.

    ``xpair`` and ``ypair`` are sorted primitive nonnegative pairs with
    ``xpair <= ypair`` lexicographically; ``zpair`` is the z-pair divided by
    k1*k2, sorted ascending: ints where k1*k2 divides it (a primitive
    solution's), else ``Fraction``s.
    """

    __slots__ = ()


def check_solution(s: SolutionSix) -> bool:
    """True if s satisfies (x1^4+x2^4)(y1^4+y2^4) = z1^4+z2^4 exactly.

    Brahmagupta's split: with a, b, c, d = x1y1, x2y2, x1y2, x2y1 the left
    side is P^2 + Q^2 for (P, Q) = (a^2 + b^2, c^2 - d^2) and for
    (c^2 + d^2, a^2 - b^2).  Where a P equals z1^2 or z2^2 (four routes),
    the test is |Q| = the other z^2, on numbers half as wide as z^4; every
    family takes one.  Otherwise (P - z1^2)(P + z1^2) = (z2^2 - Q)(z2^2 + Q)
    decides it in full.
    """
    x1, x2, y1, y2, z1, z2 = s
    a, b, c, d = x1 * y1, x2 * y2, x1 * y2, x2 * y1
    u, v = z1 * z1, z2 * z2
    p = a * a + b * b
    if p == u or p == v:
        return abs((c - d) * (c + d)) == (v if p == u else u)
    p2 = c * c + d * d
    if p2 == u or p2 == v:
        return abs((a - b) * (a + b)) == (v if p2 == u else u)
    q = (c - d) * (c + d)
    return (p - u) * (p + u) == (v - q) * (v + q)


def scale_solution(s: SolutionSix, k1: int, k2: int) -> SolutionSix:
    """Apply the (k1, k2) scaling action.  k1, k2 must be nonzero."""
    if k1 == 0 or k2 == 0:
        raise ValueError("scale factors must be nonzero")
    if not check_solution(s):
        raise ValueError("input is not a solution")
    return SolutionSix(k1 * s.x1, k1 * s.x2, k2 * s.y1, k2 * s.y2,
                       k1 * k2 * s.z1, k1 * k2 * s.z2)


def canonicalize(s: SolutionSix, check: bool = True) -> CanonicalKey:
    """Canonical key of a solution; constant on equivalence classes.

    Takes absolute values, removes the gcd of each of the x- and y-pairs,
    divides the z-pair by the product of those gcds, sorts within pairs and
    exchanges the x- and y-pairs so the lexicographically smaller one comes
    first.  Raises DegenerateSolutionError if the x- or y-pair is (0, 0),
    ValueError if s is not a solution (unless ``check`` is false).
    """
    if check and not check_solution(s):
        raise ValueError("input is not a solution")
    ax = (abs(s.x1), abs(s.x2))
    ay = (abs(s.y1), abs(s.y2))
    if ax == (0, 0) or ay == (0, 0):
        raise DegenerateSolutionError("zero pair has no canonical form")
    k1 = gcd(ax[0], ax[1])
    k2 = gcd(ay[0], ay[1])
    xp = tuple(sorted((ax[0] // k1, ax[1] // k1)))
    yp = tuple(sorted((ay[0] // k2, ay[1] // k2)))
    if yp < xp:
        xp, yp = yp, xp
    k12 = k1 * k2
    z = sorted((abs(s.z1), abs(s.z2)))
    if z[0] % k12 or z[1] % k12:
        from fractions import Fraction   # here, so a key in integers loads no fractions
        zp = tuple(Fraction(v, k12) for v in z)
    else:
        zp = tuple(v // k12 for v in z)
    return CanonicalKey(xp, yp, zp)


def integer_fourth_root_floor(n: int) -> int:
    """floor(n ** (1/4)) for n >= 0, exactly."""
    if n < 0:
        raise ValueError("fourth root of negative integer")
    # floor(sqrt(floor(sqrt(n)))) equals floor(n^(1/4)): if r = isqrt(isqrt(n))
    # then r^4 <= n and (r+1)^4 > n.
    return isqrt(isqrt(n))


# Fourth powers mod 80 land in a small residue set; cheap rejection filter.
_RES80 = frozenset((r**4) % 80 for r in range(80))


def is_fourth_power(n: int) -> int | None:
    """The integer r >= 0 with r**4 == n, or None."""
    if n < 0:
        return None
    if n % 80 not in _RES80:
        return None
    r = isqrt(isqrt(n))
    return r if r**4 == n else None

