"""Elliptic curve arithmetic for Y^2 = X^3 + a2*X^2 + a4*X over an exact field.

The coefficient field is either Q (``fractions.Fraction``) or a rational
function field (``RatFn``); the same code runs over both.  For the family
studied here a2 = 1 - 4M and a4 = 32M with M = m^4, so the curve and its
base point live over Q(M), and the symbolic derivation runs there.

Affine coordinates with the chord-tangent law; no projective machinery.
Group operations validate their inputs against the curve equation, so an
off-curve point is rejected instead of silently producing nonsense.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from biquadrates.poly import RatFn

Element = Union[Fraction, RatFn]


def _lift(v) -> Element:
    return Fraction(v) if isinstance(v, int) else v


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y) or the point at infinity."""

    x: Optional[Element] = None
    y: Optional[Element] = None
    infinity: bool = False

    def __post_init__(self):
        if self.infinity:
            if self.x is not None or self.y is not None:
                raise ValueError("infinity carries no coordinates")
        else:
            if self.x is None or self.y is None:
                raise ValueError("affine point needs both coordinates")
            object.__setattr__(self, "x", _lift(self.x))
            object.__setattr__(self, "y", _lift(self.y))

    @classmethod
    def at_infinity(cls) -> "CurvePoint":
        return cls(infinity=True)

    def __repr__(self):
        if self.infinity:
            return "CurvePoint(infinity)"
        return "CurvePoint(%s, %s)" % (self.x, self.y)


INFINITY = CurvePoint.at_infinity()


class DegenerateCurveError(ValueError):
    """The cubic has a repeated root (for the family here, m = 0)."""


@dataclass(frozen=True)
class WeierstrassCurve:
    """Y^2 = X^3 + a2*X^2 + a4*X with a4 != 0 and a2^2 - 4*a4 != 0."""

    a2: Element
    a4: Element

    def __post_init__(self):
        object.__setattr__(self, "a2", _lift(self.a2))
        object.__setattr__(self, "a4", _lift(self.a4))
        if self.a4 == 0 or self.a2 * self.a2 - 4 * self.a4 == 0:
            raise DegenerateCurveError("degenerate curve: repeated root in x^3+a2x^2+a4x")

    def rhs(self, x: Element) -> Element:
        return x * (x * (x + self.a2) + self.a4)


def curve_from_parameter(M) -> WeierstrassCurve:
    """The curve with a2 = 1-4M, a4 = 32M, M = m^4, over Q or Q(M)."""
    M = _lift(M)
    return WeierstrassCurve(a2=1 - 4 * M, a4=32 * M)


def on_curve(c: WeierstrassCurve, p: CurvePoint) -> bool:
    if p.infinity:
        return True
    return p.y * p.y == c.rhs(p.x)


def _require_on_curve(c: WeierstrassCurve, p: CurvePoint):
    if not on_curve(c, p):
        raise ValueError("point %r is not on the curve" % (p,))


def neg(c: WeierstrassCurve, p: CurvePoint) -> CurvePoint:
    _require_on_curve(c, p)
    if p.infinity:
        return INFINITY
    return CurvePoint(p.x, -p.y)


def _add_unchecked(c: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    if p.infinity:
        return q
    if q.infinity:
        return p
    if p.x == q.x:
        if p.y + q.y == 0:
            return INFINITY
        lam = (3 * p.x * p.x + 2 * c.a2 * p.x + c.a4) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - c.a2 - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return CurvePoint(x3, y3)


def add(c: WeierstrassCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    _require_on_curve(c, p)
    _require_on_curve(c, q)
    return _add_unchecked(c, p, q)


def double(c: WeierstrassCurve, p: CurvePoint) -> CurvePoint:
    return add(c, p, p)


def mul_scalar(c: WeierstrassCurve, n: int, p: CurvePoint) -> CurvePoint:
    if not isinstance(n, int) or n < 0:
        raise ValueError("scalar must be a nonnegative integer")
    _require_on_curve(c, p)
    result = INFINITY
    base = p
    while n:
        if n & 1:
            result = _add_unchecked(c, result, base)
        n >>= 1
        if n:
            base = _add_unchecked(c, base, base)
    return result


def point_P(M) -> CurvePoint:
    """The rational point (4(M-2)^2/9, 4(M-2)(2M^2-17M-10)/27), M = m^4."""
    M = _lift(M)
    x = 4 * (M - 2) ** 2 / 9
    y = 4 * (M - 2) * (2 * M * M - 17 * M - 10) / 27
    return CurvePoint(x, y)


def extra_point(m) -> CurvePoint:
    """The further rational point with denominator (m^4+3m^2-2)(m^4-3m^2-2).

    It takes m, not M; it lies on ``curve_from_parameter(m**4)``.
    """
    m = _lift(m)
    m2 = m * m
    m4 = m2 * m2
    a = m4 + 3 * m2 - 2
    b = m4 - 3 * m2 - 2
    ab = a * b
    if ab == 0:
        raise ZeroDivisionError("coordinates have a pole at this m")
    core = m4**2 - 4 * m4 - 14
    x = 4 * m4 * core**2 / (ab * ab)
    y = 36 * m4 * core * (m4**4 - 11 * m4**3 + 30 * m4**2 - 74 * m4 - 8) / ab**3
    return CurvePoint(x, y)


def is_nontorsion_by_mazur(c: WeierstrassCurve, p: CurvePoint) -> bool:
    """True iff nP != infinity for all n in 1..12.

    A rational torsion point has order at most 12; surviving all twelve
    multiples therefore certifies infinite order.
    """
    if p.infinity:
        raise ValueError("infinity is torsion by definition")
    _require_on_curve(c, p)
    q = p
    for _ in range(12):
        if q.infinity:
            return False
        q = _add_unchecked(c, q, p)
    return True
