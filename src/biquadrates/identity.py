"""Exact verification of every identity the solution pipeline relies on.

Univariate claims are checked by polynomial arithmetic.  Multivariate
claims are checked on integer grids: a polynomial whose per-variable
degrees are at most d_i and which vanishes on a product grid with d_i + 2
nodes per axis is identically zero.  The verifier does not trust the
stated bounds: it first asserts each bound by checking that the top-order
divided difference along every axis line vanishes, and only then draws
the zero conclusion.

Variables that appear in denominators before clearing use nodes starting
at 1 instead of 0.

The two birational maps between the quartic model

    V^2 = U^4 - 2U^3 - (2m^2+1)(2m^2-1)U^2 - 8m^4U - 4m^4

and the Weierstrass model

    Y^2 = X^3 - (2m^2+1)(2m^2-1)X^2 + 32m^4X

are verified as a roundtrip: composing the maps and reducing even powers
of Y (resp. V) by the curve relation must give back the starting point.
After clearing denominators each residual splits into two coefficient
polynomials (the part free of Y and the part linear in Y), and both are
grid-verified.  The denominator of the V-map is taken as 4(X-4m^4)^2;
the alternative reading 16(X-4m^4)^2 fails the worked rational point and
is rejected by this verifier (pass v_denominator_factor=16 to see it).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Sequence

from biquadrates.families import ParamSolution


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


def _top_divided_difference(xs: Sequence[int], ys: Sequence[Fraction]) -> Fraction:
    cur = [Fraction(y) for y in ys]
    for level in range(1, len(xs)):
        cur = [(cur[i + 1] - cur[i]) / (xs[i + level] - xs[i])
               for i in range(len(cur) - 1)]
    return cur[0]


def _tensor_grid_passes(axes_nodes: list, values: dict) -> bool:
    """Degree bounds asserted per axis line, then every value must be zero."""
    k = len(axes_nodes)
    for ax in range(k):
        others = [range(len(axes_nodes[j])) for j in range(k) if j != ax]
        for rest in product(*others):
            line = []
            for i in range(len(axes_nodes[ax])):
                idx = rest[:ax] + (i,) + rest[ax:]
                line.append(values[idx])
            if _top_divided_difference(axes_nodes[ax], line) != 0:
                return False
    return all(v == 0 for v in values.values())


def grid_verify(g: GridIdentity) -> bool:
    """True iff the residual is the zero polynomial within the stated bounds."""
    axes = g.nodes()
    values = {}
    for idx in product(*(range(len(ns)) for ns in axes)):
        args = [Fraction(axes[k][i]) for k, i in enumerate(idx)]
        values[idx] = Fraction(g.residual(*args))
    return _tensor_grid_passes(axes, values)


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


def _quartic_rhs(u, m):
    return (u**4 - 2 * u**3 - (2 * m**2 + 1) * (2 * m**2 - 1) * u**2
            - 8 * m**4 * u - 4 * m**4)


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
        return transformed[0] - (V**2 - _quartic_rhs(U, mm))
    return GridIdentity(("U", "m", "V"), (4, 4, 2), residual, offsets=(0, 1, 0))


def verify_quartic_model() -> bool:
    """Under p=qU, g=fm, z2=q^2 V/m the quartic-form constraint becomes,
    after division by f^4 q^4, exactly V^2 = quartic rhs in (U, m)."""
    return grid_verify(quartic_model_grid())


def pell_reduction_grid() -> GridIdentity:
    def residual(u, v):
        y1 = 4 * v**2 + 1
        y2 = 2 * v * (2 * v**2 + 1)
        z1 = 4 * u * v**2
        z2 = 8 * v**4 + 4 * v**2 + 1
        lhs = (1 + 16 * v**4) * (y1**4 + y2**4) - z1**4 - z2**4
        return lhs + 256 * v**8 * (u**2 + 3 * v**2 + 1) * (u**2 - 3 * v**2 - 1)
    return GridIdentity(("u", "v"), (4, 16), residual)


def verify_pell_reduction() -> bool:
    """With x=(1,2v), y=(4v^2+1, 2v(2v^2+1)), z=(4uv^2, 8v^4+4v^2+1) the
    equation residual is -256 v^8 (u^2+3v^2+1)(u^2-3v^2-1), so it vanishes
    exactly on the u^2 - 3v^2 = 1 locus (v != 0)."""
    return grid_verify(pell_reduction_grid())


def verify_mod16_obstruction(product_residue: int = 4) -> bool:
    """Fourth powers are 0 or 1 mod 16, sums of two are 0, 1 or 2, and the
    all-odd product is always product_residue (4), which is unreachable."""
    fourth = {(n**4) % 16 for n in range(16)}
    if fourth != {0, 1}:
        return False
    sums = {(a + b) % 16 for a in fourth for b in fourth}
    if sums != {0, 1, 2}:
        return False
    odds = range(1, 16, 2)
    products = {((a**4 + b**4) * (c**4 + d**4)) % 16
                for a in odds for b in odds for c in odds for d in odds}
    if products != {product_residue}:
        return False
    return product_residue not in sums


def verify_param_solution(ps: ParamSolution) -> bool:
    """Exact check that a one-parameter family solves the equation identically."""
    return ps.residual().is_zero


# ---------------------------------------------------------------------------
# birational roundtrip

class _Quad:
    """a + b*w in Q[w]/(w^2 - s); only ring operations, no inversion."""

    __slots__ = ("a", "b", "s")

    def __init__(self, a, b, s):
        self.a = Fraction(a)
        self.b = Fraction(b)
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


def _v_numerator(X, Y, m4):
    # X and Y may be _Quad values; the expression is linear in Y
    return (X * X * X - 12 * m4 * (X * X) + 8 * m4 * (4 * m4 - 5) * X
            - 24 * m4 * Y - 128 * m4 * m4)


def _roundtrip_weierstrass_start(v_factor: int) -> bool:
    """(X,Y) -> (U,V) -> (X,Y) with Y^2 reduced by the curve relation."""
    dx, dm = 10, 32
    m_nodes = list(range(1, dm + 3))
    forbidden = {4 * m**4 for m in m_nodes}
    x_nodes = []
    x = 1
    while len(x_nodes) < dx + 2:
        if x not in forbidden:
            x_nodes.append(x)
        x += 1
    grids = [dict() for _ in range(4)]
    for i, X in enumerate(x_nodes):
        for j, m in enumerate(m_nodes):
            m4 = m**4
            s = X**3 + (1 - 4 * m4) * X**2 + 32 * m4 * X
            w = _Quad(0, 1, s)
            D = Fraction(2 * X - 8 * m4)
            U = (X + 8 * m4 + w) * (1 / D)
            clear_v = Fraction(v_factor * (X - 4 * m4) ** 2)
            V = _v_numerator(_Quad(X, 0, s), w, m4) * (1 / clear_v)
            X2 = 2 * U * U - 2 * U + 2 * V
            Y2 = (4 * U * U * U - 6 * U * U + 4 * U * V
                  - 2 * (4 * m4 - 1) * U - 2 * V - 8 * m4)
            lam = clear_v * D * D
            RX = (X2 - X) * lam
            RY = (Y2 - w) * (lam * D)
            grids[0][(i, j)] = RX.a
            grids[1][(i, j)] = RX.b
            grids[2][(i, j)] = RY.a
            grids[3][(i, j)] = RY.b
    axes = [x_nodes, m_nodes]
    return all(_tensor_grid_passes(axes, g) for g in grids)


def _roundtrip_quartic_start(v_factor: int) -> bool:
    """(U,V) -> (X,Y) -> (U,V) with V^2 reduced by the quartic relation."""
    du, dm = 12, 24
    u_nodes = list(range(1, du + 3))
    m_nodes = list(range(1, dm + 3))
    grids = [dict() for _ in range(4)]
    for i, U in enumerate(u_nodes):
        for j, m in enumerate(m_nodes):
            m4 = m**4
            s = _quartic_rhs(Fraction(U), Fraction(m))
            w = _Quad(0, 1, s)
            X = 2 * U * U - 2 * U + 2 * w
            Y = (4 * U**3 - 6 * U**2 - 2 * (4 * m4 - 1) * U - 8 * m4
                 + (4 * U - 2) * w)
            alpha = Fraction(4 * U * U - 4 * U - 8 * m4)
            n1 = alpha * alpha - 16 * s
            if n1 == 0:
                raise AssertionError("degenerate node in quartic-start grid")
            conj = _Quad(alpha, -4, s)
            U2 = (X + Y + 8 * m4) * conj * (1 / n1)
            RU = (U2 - U) * n1
            nv = _v_numerator(X, Y, m4)
            # V2 = 4*nv*conj^2 / (v_factor*n1^2); clear by n1^2
            RV = nv * conj * conj * Fraction(4, v_factor) - w * (n1 * n1)
            grids[0][(i, j)] = RU.a
            grids[1][(i, j)] = RU.b
            grids[2][(i, j)] = RV.a
            grids[3][(i, j)] = RV.b
    axes = [u_nodes, m_nodes]
    return all(_tensor_grid_passes(axes, g) for g in grids)


def verify_birational_roundtrip(v_denominator_factor: int = 4) -> bool:
    """Both compositions of the birational maps are the identity.

    v_denominator_factor selects the reading of the V-map denominator
    (4 is the consistent one; 16 makes the verification fail).
    """
    return (_roundtrip_weierstrass_start(v_denominator_factor)
            and _roundtrip_quartic_start(v_denominator_factor))


ALL_VERIFIERS = {
    "brahmagupta": verify_brahmagupta,
    "quartic_brahmagupta": verify_quartic_brahmagupta,
    "substitution_13": verify_substitution_13,
    "quartic_model": verify_quartic_model,
    "birational_roundtrip": verify_birational_roundtrip,
    "pell_reduction": verify_pell_reduction,
    "mod16_obstruction": verify_mod16_obstruction,
}
