"""Exact verification of every identity the solution pipeline relies on.

Univariate claims are checked by polynomial arithmetic.  Multivariate
claims are checked on integer grids: a polynomial whose per-variable
degrees are at most d_i and which vanishes on a product grid with d_i + 2
nodes per axis is identically zero.  A residual that is a rational
function vanishes at a node off its poles exactly when its reduced
numerator does, so the bounds are on that numerator, and offsets move the
nodes off every pole (a node on one raises ZeroDivisionError; it never
passes).  A residual may be a tuple, and then every component must
vanish.  The nodes are plain ints, so a polynomial residual runs on int
arithmetic; a residual that divides lifts the operands of its division to
``Fraction`` with ``_q``, which leaves any other value (a ``Fraction``, a
sympy symbol) as it is.  A division left unlifted would give a float, and
``grid_verify`` refuses one with TypeError rather than trust it.  The
verifier trusts the stated bounds (d_i + 1 nodes would suffice; the spare
node is margin against a bound that is off by one);
tests/test_identity_oracle.py checks each bound against a symbolic
expansion, for the correct formulas and for the corruptions in
tests/mutations.py.

Every grid evaluates the library's own formulas, looked up through their
modules, the ones the commands run: ``substitution_13`` and
``quartic_model`` take the solution shapes from ``derive._solution_pairs``
and the homogeneous quartic rhs q^4 quartic_rhs(p/q), which divides by
nothing, from ``derive.quartic_rhs``; together with the quartic Brahmagupta
split they show that a point (p/q, v) of the quartic model gives a
solution.  ``curve --m`` proves its image by that rhs and clears those
shapes.  The Pell shapes come from ``pell.pell_shapes``, which also build
eq26 (``pell --t``), and the residue check runs search's own filters.

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

The last two verifiers run the curve side itself: over Z[M] the ladder
from R = (4M, 12M) meets P and the extra point (Jacobian triples,
cross-multiplied), the extra point and the ladder's P, 2P and 3P lie on
the curve, and
``derive.solution_from_nP(3)`` gives, on each branch, a family with zero
residual and z-degrees of at least 120.  ``ALL_VERIFIERS`` lists them in
the order ``selftest`` prints them; ``selftest --quick`` skips
``curve_high_multiple``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product

from biquadrates import curve, derive, pell, search
from biquadrates.poly import IPoly


class GridIdentity(namedtuple("GridIdentity", "variables degree_bounds residual offsets",
                              defaults=((),))):
    """A claimed identity, residual == 0, checked on an integer product grid."""

    __slots__ = ()

    def nodes(self) -> list:
        offs = self.offsets or (0,) * len(self.variables)
        return [list(range(o, o + d + 2))
                for d, o in zip(self.degree_bounds, offs)]


def grid_verify(g: GridIdentity) -> bool:
    """True iff the residual, every component of it if it is a tuple,
    vanishes at every grid node, which within the stated degree bounds
    means it is identically zero.

    The nodes are ints and the residual must lift what it divides (``_q``):
    a float component raises TypeError, since a rounded 0.0 proves nothing.
    """
    for args in product(*g.nodes()):
        r = g.residual(*args)
        for c in r if isinstance(r, tuple) else (r,):
            if isinstance(c, float):
                raise TypeError("inexact residual %r at %r" % (c, args))
            if c:
                return False
    return True


def _q(x):
    """x as a Fraction if it is an int, else x itself: the operand of a
    residual's division, so that int nodes divide exactly."""
    return Fraction(x) if isinstance(x, int) else x


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
        (x1, x2), (y1, y2), (_, z2) = derive._solution_pairs(p, q, m, q * q * v)
        return (z2**2 - (x1 * y2) ** 2 + (x2 * y1) ** 2
                - q**4 * v**2 + derive.quartic_rhs(p, m**4, q))
    return GridIdentity(("p", "q", "m", "v"), (4, 4, 4, 2), residual)


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
    """Every pair combination and every z-pair search skips is one no
    solution needs.

    n^4 mod 16 is 1 for odd n and 0 for even n, and n^4 mod 5 is 0 or 1, so
    a sum of two fourth powers is 0, 1 or 2 mod 16 and mod 5.  The mod 16
    check is also what the sweep's keys rest on: the key (z1^4 + z2^4) >> 4
    that search looks up is (z1^4 >> 4) + (z2^4 >> 4).  A product of
    two pair sums mod 16 depends only on the parities and mod 5 only on the
    residues mod 5, so search's own class selection is run on one pair
    (a, b), a <= b, per pattern of residues mod 10, and every combination it
    drops must have a product that is no such sum mod 16 or mod 5.

    The sweep skips z-pairs whose gcd shares a prime p with
    ``search.SWEEP_COPRIME_TO``; such a pair's sum is divisible by p^4.  A
    product of two coprime-pair sums has p-adic valuation at most 2 when no
    coprime pair (a, b) mod p^2 has a^4 + b^4 = 0 mod p^2, and then no
    product is divisible by p^4.
    """
    if any(n**4 % 16 != n % 2 for n in range(16)):
        return False
    sums16 = {(a**4 + b**4) % 16 for a in range(16) for b in range(16)}
    sums5 = {(a**4 + b**4) % 5 for a in range(5) for b in range(5)}
    reps = [(a, b, a**4 + b**4) for a in range(1, 11) for b in range(a, 11)]
    ylists = search._ylists(reps)
    for x in reps:
        kept = set(ylists[search._pair_class(*x)])
        if any(x[2] * y[2] % 16 in sums16 and x[2] * y[2] % 5 in sums5
               for y in reps if y not in kept):
            return False
    skip = search.SWEEP_COPRIME_TO
    for p in range(2, skip + 1):
        if skip % p or any(p % d == 0 for d in range(2, p)):
            continue
        q = p * p
        if any((a**4 + b**4) % q == 0 for a in range(q) for b in range(q)
               if a % p or b % p):
            return False
    return True


# ---------------------------------------------------------------------------
# birational roundtrip

def curve_chart_grid() -> GridIdentity:
    def residual(X, Y):
        M = _q(Y**2 - X**3 - X**2) / (4 * X * (8 - X))
        X2, Y2 = derive.to_weierstrass(*derive.to_quartic(X, Y, M), M)
        return X2 - X, Y2 - Y
    return GridIdentity(("X", "Y"), (8, 5), residual, offsets=(9, 1))


def quartic_chart_grid() -> GridIdentity:
    def residual(U, V):
        M = _q(U**2 * (U - 1) ** 2 - V**2) / (4 * (U + 1) ** 2)
        U2, V2 = derive.to_quartic(*derive.to_weierstrass(U, V, M), M)
        return U2 - U, V2 - V
    return GridIdentity(("U", "V"), (8, 3), residual, offsets=(0, 1))


def verify_birational_roundtrip() -> bool:
    """Both compositions of derive's birational maps are the identity."""
    return grid_verify(curve_chart_grid()) and grid_verify(quartic_chart_grid())


# ---------------------------------------------------------------------------
# the curve and the derivation it feeds

def _same_point(a, b) -> bool:
    """Whether Jacobian triples (phi, omega, z) give one point, cross-multiplied."""
    (pa, wa, za), (pb, wb, zb) = a, b
    return pa * zb * zb == pb * za * za and wa * zb**3 == wb * za**3


def verify_curve_closure() -> bool:
    """Over Z[M], as Jacobian triples with no division: the half point
    R = (4M, 12M) lies on the curve, the ladder's P is ``curve._P_triple``
    (so P = -2R), its 3R, from at(1..5) by Silverman's formulas, is
    ``curve._extra_triple``, and the extra point and the ladder's P, 2P and
    3P lie on the curve.  The ladder's P, 2P and 3P come from the packed
    route at M = 2^W; at(1..5) come from the recurrence run over Z[M], so
    the closure compares the two routes."""
    M = IPoly.gen()
    if not curve.on_curve(4 * M, 12 * M, 1, M):
        return False
    if not _same_point(curve.multiple_P(1, M)[:3], curve._P_triple(M)):
        return False
    # with psi_k = M^floor(k^2/4) 2^(k^2-1) at(k), x(3R) = 4M - psi_2 psi_4 / psi_3^2
    # and y(3R) = (psi_5 psi_2^2 - psi_1 psi_4^2) / (48M psi_3^3)
    a1, a2, a3, a4, a5 = map(curve.half_point_psi(M), range(1, 6))
    three_r = (36 * M * (a3 * a3 - a2 * a4), 36 * M * (a2 * a2 * a5 - a1 * a4 * a4),
               3 * a3)
    if not _same_point(three_r, curve._extra_triple(M)):
        return False
    points = [curve._extra_triple(M)] + [curve.multiple_P(n, M)[:3] for n in (1, 2, 3)]
    return all(curve.on_curve(*pt, M) for pt in points)


def verify_curve_high_multiple() -> bool:
    """The 3P family on each branch has zero residual and z-degrees of at
    least 120.

    ``derive.solution_from_nP`` proves a family over Z[M] before it spreads
    the entries to m; the residual here is taken on the family it returns,
    so it also checks the spread, and both branches' divisions are run.
    """
    for sign in ("minus", "plus"):
        fam = derive.solution_from_nP(3, sign)
        degs = fam.degrees()
        if not (fam.residual().is_zero and degs[4] >= 120 and degs[5] >= 120):
            return False
    return True


# every grid identity by name; tests check each one's bounds and nodes
GRIDS = {
    "brahmagupta": brahmagupta_grid,
    "quartic_brahmagupta": quartic_brahmagupta_grid,
    "substitution_13": substitution_grid,
    "quartic_model": quartic_model_grid,
    "pell_reduction": pell_reduction_grid,
    "curve_chart": curve_chart_grid,
    "quartic_chart": quartic_chart_grid,
}

ALL_VERIFIERS = {
    "brahmagupta": verify_brahmagupta,
    "quartic_brahmagupta": verify_quartic_brahmagupta,
    "substitution_13": verify_substitution_13,
    "quartic_model": verify_quartic_model,
    "birational_roundtrip": verify_birational_roundtrip,
    "pell_reduction": verify_pell_reduction,
    "mod16_obstruction": verify_mod16_obstruction,
    "curve_closure": verify_curve_closure,
    "curve_high_multiple": verify_curve_high_multiple,
}
