"""Exact verification of every identity the solution pipeline relies on.

Univariate claims are checked by polynomial arithmetic.  Multivariate
claims are checked on integer grids: a polynomial whose per-variable
degrees are at most d_i and which vanishes on a product grid with d_i + 2
nodes per axis is identically zero.  A residual that is a rational
function vanishes at a node off its poles exactly when its reduced
numerator does, so the bounds are on that numerator, and offsets move the
nodes off every pole (a node on one raises ZeroDivisionError; it never
passes).  A residual may be a tuple, and then every component must
vanish.  The verifier trusts the stated bounds (d_i + 1 nodes would
suffice; the spare node is margin against a bound that is off by one);
tests/test_identity_oracle.py checks each bound against a symbolic
expansion, for the correct formulas and for the corruptions in
tests/mutations.py.

Every grid evaluates the library's own formulas, looked up through their
modules: ``substitution_13`` and ``quartic_model`` take the solution
shapes from ``derive._solution_pairs`` and the quartic rhs from
``derive.quartic_rhs``; together with the quartic Brahmagupta split they
show that a point (p/q, v) of the quartic model gives a solution.  The
Pell shapes come from ``pell.pell_shapes`` and the mod-16 check runs
search's own parity filter.

The birational maps ``derive.to_quartic`` and ``derive.to_weierstrass``
between the Weierstrass model and the quartic model

    Y^2 = X^3 - (4M-1)X^2 + 32MX,    V^2 = U^4 - 2U^3 - (4M-1)U^2 - 8MU - 4M

(M = m^4; the maps use m only through M) are verified as round trips on
rational charts.  Each surface is linear in M, so it is the graph of

    M = (Y^2 - X^3 - X^2) / (4X(8 - X)),    M = (U^2(U-1)^2 - V^2) / (4(U+1)^2)

over two free variables, and a round trip is a pair of coordinate
differences in plain Fractions, with no square root of Y or V.  A chart is
enough: each surface is irreducible (its M coefficient and constant term
are coprime) and on the dense open set where that coefficient is nonzero
it is the graph of that M, so a rational function that vanishes on the
chart vanishes on the surface.  The offsets avoid every pole: on the
(X, Y) chart X >= 9 avoids X in {0, 8}, and 1 <= Y < 27 <= 3X avoids
2X - 8M = 0, which there is Y = +-3X; on the (U, V) chart U >= 0 avoids
U = -1, and V >= 1 avoids the pole curves V = U - U^2 and
V = -U^2 - 5U - 2.  ``to_quartic`` takes V from the inverse map, so the X
difference on the (X, Y) chart vanishes by construction; its Y difference
checks the U map, and the (U, V) chart checks both maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from biquadrates import derive, pell, search


@dataclass(frozen=True)
class GridIdentity:
    """A claimed identity, residual == 0, checked on an integer product grid."""

    variables: tuple
    degree_bounds: tuple
    residual: Callable
    offsets: tuple = ()

    def nodes(self) -> list:
        offs = self.offsets or (0,) * len(self.variables)
        return [list(range(o, o + d + 2))
                for d, o in zip(self.degree_bounds, offs)]


def grid_verify(g: GridIdentity) -> bool:
    """True iff the residual, every component of it if it is a tuple,
    vanishes at every grid node, which within the stated degree bounds
    means it is identically zero."""
    axes = [[Fraction(n) for n in ns] for ns in g.nodes()]
    residuals = (g.residual(*args) for args in product(*axes))
    return not any(any(r) if isinstance(r, tuple) else r for r in residuals)


# ---------------------------------------------------------------------------
# the individual identities

def brahmagupta_grid() -> GridIdentity:
    def residual(a, b, c, d):
        return (a**2 + b**2) * (c**2 + d**2) - (a * c + b * d) ** 2 - (a * d - b * c) ** 2
    return GridIdentity(("x1", "x2", "y1", "y2"), (2, 2, 2, 2), residual)


def verify_brahmagupta() -> bool:
    """(x1^2+x2^2)(y1^2+y2^2) = (x1y1+x2y2)^2 + (x1y2-x2y1)^2."""
    return grid_verify(brahmagupta_grid())


def quartic_brahmagupta_grid() -> GridIdentity:
    def residual(a, b, c, d):
        return ((a**4 + b**4) * (c**4 + d**4)
                - (a**2 * c**2 + b**2 * d**2) ** 2
                - (a**2 * d**2 - b**2 * c**2) ** 2)
    return GridIdentity(("x1", "x2", "y1", "y2"), (4, 4, 4, 4), residual)


def verify_quartic_brahmagupta() -> bool:
    """The square version applied to squares: splits the quartic product."""
    return grid_verify(quartic_brahmagupta_grid())


def substitution_grid() -> GridIdentity:
    def residual(p, q, m):
        (x1, x2), (y1, y2), (z1, _) = derive._solution_pairs(p, q, m, 0)
        return z1**2 - (x1 * y1) ** 2 - (x2 * y2) ** 2
    return GridIdentity(("p", "q", "m"), (4, 4, 2), residual)


def verify_substitution_13() -> bool:
    """derive's shapes x = (p-q, 2mq), y = (m(p+q), p), z1 = m(p^2+q^2)
    satisfy z1^2 = (x1 y1)^2 + (x2 y2)^2."""
    return grid_verify(substitution_grid())


def quartic_model_grid() -> GridIdentity:
    def residual(p, q, m, v):
        (x1, x2), (y1, y2), (_, z2) = derive._solution_pairs(p, q, m, v)
        return (z2**2 - (x1 * y2) ** 2 + (x2 * y1) ** 2
                - q**4 * (v**2 - derive.quartic_rhs(p / q, m**4)))
    return GridIdentity(("p", "q", "m", "v"), (4, 4, 4, 2), residual,
                        offsets=(0, 1, 0, 0))


def verify_quartic_model() -> bool:
    """With derive's shapes, z2 = q^2 v and z2^2 - (x1 y2)^2 + (x2 y1)^2 =
    q^4 (v^2 - quartic_rhs(p/q, m^4)), so z2 satisfies its square identity
    exactly when (p/q, v) lies on the quartic model."""
    return grid_verify(quartic_model_grid())


def pell_reduction_grid() -> GridIdentity:
    def residual(u, v):
        x1, x2, y1, y2, z1, z2 = pell.pell_shapes(u, v)
        lhs = (x1**4 + x2**4) * (y1**4 + y2**4) - z1**4 - z2**4
        return lhs + 256 * v**8 * (u**2 + 3 * v**2 + 1) * (u**2 - 3 * v**2 - 1)
    return GridIdentity(("u", "v"), (4, 16), residual)


def verify_pell_reduction() -> bool:
    """With the Pell shapes x=(1,2v), y=(4v^2+1, 2v(2v^2+1)),
    z=(4uv^2, 8v^4+4v^2+1) the equation residual is
    -256 v^8 (u^2+3v^2+1)(u^2-3v^2-1), so it vanishes exactly on the
    u^2 - 3v^2 = 1 locus (v != 0)."""
    return grid_verify(pell_reduction_grid())


def verify_mod16_obstruction() -> bool:
    """The pair combinations search skips have products that are no sum of
    two fourth powers mod 16.

    n^4 mod 16 is 1 for odd n and 0 for even n, so sums of two fourth
    powers are 0, 1 or 2 mod 16, while a product with x1, x2, y1, y2 all odd
    is 4.  A product mod 16 depends only on the parities, so search's own
    filter is run on one pair combination per parity pattern (the y-pair
    above the x-pair, so its order filter never fires).
    """
    if any(n**4 % 16 != n % 2 for n in range(16)):
        return False
    sums = {(a**4 + b**4) % 16 for a in range(16) for b in range(16)}
    xpairs = [(a, b, a**4 + b**4) for a in (1, 2) for b in (1, 2)]
    ypairs = [(a + 2, b + 2, (a + 2)**4 + (b + 2)**4) for a, b, _ in xpairs]
    kept = {row[:4] for row in search._pair_products(xpairs, ypairs)}
    return all(sx * sy % 16 not in sums
               for x1, x2, sx in xpairs for y1, y2, sy in ypairs
               if (x1, x2, y1, y2) not in kept)


# ---------------------------------------------------------------------------
# birational roundtrip

def curve_chart_grid() -> GridIdentity:
    def residual(X, Y):
        M = (Y**2 - X**3 - X**2) / (4 * X * (8 - X))
        X2, Y2 = derive.to_weierstrass(*derive.to_quartic(X, Y, M), M)
        return X2 - X, Y2 - Y
    return GridIdentity(("X", "Y"), (8, 5), residual, offsets=(9, 1))


def quartic_chart_grid() -> GridIdentity:
    def residual(U, V):
        M = (U**2 * (U - 1) ** 2 - V**2) / (4 * (U + 1) ** 2)
        U2, V2 = derive.to_quartic(*derive.to_weierstrass(U, V, M), M)
        return U2 - U, V2 - V
    return GridIdentity(("U", "V"), (8, 3), residual, offsets=(0, 1))


def verify_birational_roundtrip() -> bool:
    """Both compositions of derive's birational maps are the identity."""
    return grid_verify(curve_chart_grid()) and grid_verify(quartic_chart_grid())


ALL_VERIFIERS = {
    "brahmagupta": verify_brahmagupta,
    "quartic_brahmagupta": verify_quartic_brahmagupta,
    "substitution_13": verify_substitution_13,
    "quartic_model": verify_quartic_model,
    "birational_roundtrip": verify_birational_roundtrip,
    "pell_reduction": verify_pell_reduction,
    "mod16_obstruction": verify_mod16_obstruction,
}
