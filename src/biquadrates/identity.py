"""Exact verification of every identity the solution pipeline relies on.

Univariate claims are checked by polynomial arithmetic.  Multivariate
claims are checked on integer grids: a polynomial whose per-variable
degrees are at most d_i and which vanishes on a product grid with d_i + 2
nodes per axis is identically zero.  The verifier trusts the stated
bounds (d_i + 1 nodes would suffice; the spare node is margin against a
bound that is off by one); tests/test_identity_oracle.py checks each
bound against a symbolic expansion.

Variables that appear in denominators before clearing use nodes starting
at 1 instead of 0.

The two birational maps between the quartic model

    V^2 = U^4 - 2U^3 - (4M-1)U^2 - 8MU - 4M

and the Weierstrass model

    Y^2 = X^3 - (4M-1)X^2 + 32MX

with M = m^4 (so 4M-1 = (2m^2+1)(2m^2-1)) are verified as a roundtrip:
composing them and reducing even powers of Y (resp. V) by the curve
relation must give back the starting point.  The roundtrip runs derive's
own ``to_quartic`` and ``to_weierstrass``, looked up through the module,
so it checks the maps the pipeline runs; the Pell shapes likewise come
from ``pell.pell_shapes`` and the quartic rhs from ``derive.quartic_rhs``.
Both maps use m only through M, so the roundtrip is gridded over M
directly.  Each coordinate of image minus start is a + bY (resp. a + bV)
with a, b rational functions, and both must vanish on the grid.
``to_quartic`` takes V from the inverse map, so the X half of the (X, Y)
start holds by construction; its Y half checks the U map, and the (U, V)
start checks both maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from biquadrates import derive, pell, search


@dataclass(frozen=True)
class GridIdentity:
    """A claimed polynomial identity checked on an integer product grid."""

    variables: tuple
    degree_bounds: tuple
    residual: Callable
    offsets: tuple = ()

    def nodes(self) -> list:
        offs = self.offsets or (0,) * len(self.variables)
        return [list(range(o, o + d + 2))
                for d, o in zip(self.degree_bounds, offs)]


def grid_verify(g: GridIdentity) -> bool:
    """True iff the residual vanishes at every grid node, which within the
    stated degree bounds means it is identically zero."""
    axes = [[Fraction(n) for n in ns] for ns in g.nodes()]
    return all(g.residual(*args) == 0 for args in product(*axes))


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


def _substitution_bracket(f, p, g, q):
    # quartic form produced by substituting the Pythagorean parametrization
    return (f**4 * p**4 - 2 * f**4 * p**3 * q
            + (f**2 + 2 * g**2) * (f**2 - 2 * g**2) * p**2 * q**2
            - 8 * g**4 * p * q**3 - 4 * g**4 * q**4)


def substitution_grid() -> GridIdentity:
    def residual(f, g, p, q):
        lhs = f**2 * g**2 * ((f * (p - q)) ** 2 * (p / g) ** 2
                             - (2 * g * q) ** 2 * ((p + q) / f) ** 2)
        return lhs - _substitution_bracket(f, p, g, q)
    return GridIdentity(("f", "g", "p", "q"), (4, 4, 4, 4), residual,
                        offsets=(1, 1, 0, 0))


def verify_substitution_13() -> bool:
    """Substituting x1=f(p-q), x2=2gq, y1=(p+q)/f, y2=p/g into
    x1^2 y2^2 - x2^2 y1^2 and clearing by f^2 g^2 gives the quartic form."""
    return grid_verify(substitution_grid())


def quartic_model_grid() -> GridIdentity:
    def residual(U, mm, V):
        transformed = []
        for f, q in ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(3))):
            p = q * U
            g = f * mm
            z2 = q**2 * V / mm
            t = (f**2 * g**2 * z2**2 - _substitution_bracket(f, p, g, q)) / (f**4 * q**4)
            transformed.append(t)
        if transformed[0] != transformed[1]:
            raise AssertionError("transformed constraint must not depend on f, q")
        return transformed[0] - (V**2 - derive.quartic_rhs(U, mm**4))
    return GridIdentity(("U", "m", "V"), (4, 4, 2), residual, offsets=(0, 1, 0))


def verify_quartic_model() -> bool:
    """Under p=qU, g=fm, z2=q^2 V/m the quartic-form constraint becomes,
    after division by f^4 q^4, exactly V^2 = quartic rhs in (U, m)."""
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

class _Quad:
    """a + b*w in R[w]/(w^2 - s).

    R is whatever a, b and s live in: Fraction on the grid, or symbolic
    expressions when a test expands the same maps.  Division by a _Quad
    goes through its conjugate and norm a^2 - b^2 s."""

    __slots__ = ("a", "b", "s")

    def __init__(self, a, b, s):
        self.a = a
        self.b = b
        self.s = s

    def _lift(self, other):
        if isinstance(other, _Quad):
            return other
        return _Quad(other, 0, self.s)

    def __add__(self, other):
        o = self._lift(other)
        return _Quad(self.a + o.a, self.b + o.b, self.s)

    __radd__ = __add__

    def __neg__(self):
        return _Quad(-self.a, -self.b, self.s)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        return _Quad(self.a * o.a + self.b * o.b * self.s,
                     self.a * o.b + self.b * o.a, self.s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, _Quad):
            return _Quad(self.a / other, self.b / other, self.s)
        norm = other.a * other.a - other.b * other.b * self.s
        return self * _Quad(other.a, -other.b, self.s) / norm

    def __pow__(self, n: int):
        out = self
        for _ in range(n - 1):
            out = out * self
        return out


# Per-axis degree bounds of the reduced numerators of the roundtrip
# residuals, in (X, M) and (U, M); each grid axis gets bound + 2 nodes.
_WEIERSTRASS_ROUNDTRIP_BOUNDS = (10, 8)
_QUARTIC_ROUNDTRIP_BOUNDS = (12, 6)


def _weierstrass_start_sides(X, M) -> tuple:
    """(X,Y) -> (U,V) -> (X,Y) with Y^2 reduced by the curve relation.

    Returns (image, start) pairs for the X and Y coordinates.
    """
    Y = _Quad(0, 1, X**3 + (1 - 4 * M) * X**2 + 32 * M * X)
    X2, Y2 = derive.to_weierstrass(*derive.to_quartic(X, Y, M), M)
    return (X2, X), (Y2, Y)


def _quartic_start_sides(U, M) -> tuple:
    """(U,V) -> (X,Y) -> (U,V) with V^2 reduced by the quartic relation.

    Returns (image, start) pairs for the U and V coordinates.
    """
    V = _Quad(0, 1, derive.quartic_rhs(U, M))
    U2, V2 = derive.to_quartic(*derive.to_weierstrass(U, V, M), M)
    return (U2, U), (V2, V)


def _roundtrip_vanishes(sides: Callable, a_nodes, M_nodes) -> bool:
    for a, M in product(a_nodes, M_nodes):
        for image, start in sides(Fraction(a), Fraction(M)):
            d = image - start
            if d.a or d.b:
                return False
    return True


def _roundtrip_weierstrass_start() -> bool:
    dx, dM = _WEIERSTRASS_ROUNDTRIP_BOUNDS
    M_nodes = range(1, dM + 3)
    forbidden = {4 * M for M in M_nodes}  # both maps have a pole at X = 4M
    x_nodes = [x for x in range(1, dx + 3 + len(forbidden))
               if x not in forbidden][:dx + 2]
    return _roundtrip_vanishes(_weierstrass_start_sides, x_nodes, M_nodes)


def _roundtrip_quartic_start() -> bool:
    du, dM = _QUARTIC_ROUNDTRIP_BOUNDS
    return _roundtrip_vanishes(_quartic_start_sides, range(1, du + 3),
                               range(1, dM + 3))


def verify_birational_roundtrip() -> bool:
    """Both compositions of derive's birational maps are the identity."""
    return _roundtrip_weierstrass_start() and _roundtrip_quartic_start()


ALL_VERIFIERS = {
    "brahmagupta": verify_brahmagupta,
    "quartic_brahmagupta": verify_quartic_brahmagupta,
    "substitution_13": verify_substitution_13,
    "quartic_model": verify_quartic_model,
    "birational_roundtrip": verify_birational_roundtrip,
    "pell_reduction": verify_pell_reduction,
    "mod16_obstruction": verify_mod16_obstruction,
}
