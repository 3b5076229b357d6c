"""Pipeline constructions that only tests use: the field route over Q and Q(M).

The library maps nP to the quartic model over Z and Z[M]
(``derive.quartic_image``) and proves each image by an identity on its
integers.  This module is the reference it is compared against: nP as an
affine point over Q or Q(M) (``signed_multiple``), its image through the
field branch of ``derive.to_quartic`` (``weierstrass_to_quartic``), checked
on the quartic model by ``QuarticPoint`` (over Q(M) cross-multiplied, with
no quotient and no gcd), and cleared to an integer solution at one value of
m (``solution_from_quartic_point``, ``numeric_solution_from_nP``).  derive's
formulas are looked up through the module, so a test that patches one
reaches this route too.  It also keeps the sampled rule that once resolved
"auto" (``sampled_sign``), as the reference for the lower-degree branch that
resolves it now.

The rest are the slow, obvious forms of the library's integer shortcuts:
the Pell ladder one step at a time (``pell3_ladder``), Horner's rule in
Fraction arithmetic (``fraction_horner``), and the text ``curve --m`` printed
when it built every value as a reduced Fraction (``curve_m_text``).
"""

from dataclasses import dataclass
from fractions import Fraction

from biquadrates import derive
from biquadrates.cli import _record
from biquadrates.curve import CurvePoint, Element, _lift, multiple_P
from biquadrates.exact import DegenerateSolutionError, SolutionSix, canonicalize
from biquadrates.pell import PellSolution
from biquadrates.poly import IPoly, PoleError, RatFn


@dataclass(frozen=True)
class QuarticPoint:
    """Point (u, v) with v^2 = quartic_rhs(u, M); checked on construction."""

    u: Element
    v: Element
    M: Element

    def __post_init__(self):
        object.__setattr__(self, "u", _lift(self.u))
        object.__setattr__(self, "v", _lift(self.v))
        object.__setattr__(self, "M", _lift(self.M))
        u, v, M = self.u, self.v, self.M
        if isinstance(u, RatFn):
            # u = n/d, v = a/b cross-multiplied: a^2 d^4 = b^2 quartic_rhs(n, M, d)
            (n, d), (a, b) = (u.num, u.den), (v.num, v.den)
            ok = a * a * d**4 == b * b * derive.quartic_rhs(n, M, d)
        else:
            ok = v * v == derive.quartic_rhs(u, M)
        if not ok:
            raise ValueError("point does not satisfy the quartic model")


def weierstrass_to_quartic(M, pt: CurvePoint) -> QuarticPoint:
    """Map a curve point to the quartic model; poles at X = 4M and infinity.

    Off the pole the ``QuarticPoint`` check is the curve equation."""
    M = _lift(M)
    if pt.infinity:
        raise PoleError("the point at infinity has no affine image")
    return QuarticPoint(*derive.to_quartic(pt.x, pt.y, M), M)


def solution_from_quartic_point(qp: QuarticPoint, m) -> SolutionSix:
    """Integer solution from a quartic-model point over Q at a fixed m."""
    m = Fraction(m)
    if m**4 != qp.M:
        raise ValueError("m^4 differs from the quartic point's M")
    u, v = Fraction(qp.u), Fraction(qp.v)
    p, q = Fraction(u.numerator), Fraction(u.denominator)
    return derive._clear_to_solution(*derive._solution_pairs(p, q, m, q * q * v))


def signed_multiple(n: int, M, sign: str = "auto") -> tuple:
    """The n-th multiple of the base point and the branch taken from it.

    M = m^4 is a rational value or ``RatFn.gen()``.  Returns affine points
    (nP, point) with point = nP on the "plus" branch and -nP on "minus";
    "auto" is resolved by ``derive._resolve_sign``.  nP is ``multiple_P``'s
    triple over Z at a rational M, and over Q(M) its triple over Z[M]
    reduced by ``RatFn`` and its gcds.
    """
    sign = derive._resolve_sign(sign)
    if isinstance(M, RatFn):
        x, y, z, *_ = multiple_P(n, IPoly.gen())
        w = CurvePoint(RatFn(x, z * z), RatFn(y, z * z * z))
    else:
        M = Fraction(M)
        x, y, z, *_ = multiple_P(n, M.numerator, M.denominator)
        w = CurvePoint(Fraction(x, z * z), Fraction(y, z * z * z))
    return w, w if sign == "plus" else CurvePoint(w.x, -w.y)


def numeric_solution_from_nP(n: int, m0, sign: str = "auto") -> SolutionSix:
    """Integer solution from nP at a fixed rational parameter value."""
    m0 = Fraction(m0)
    _, w = signed_multiple(n, m0**4, sign)
    return solution_from_quartic_point(weierstrass_to_quartic(m0**4, w), m0)


def sampled_sign(n: int) -> str:
    """The branch of nP whose solution has the smaller canonical key.

    Decided at m = 1, 2, 3 in turn: the first value where a branch gives a
    solution decides, by the smaller key if both do.
    """
    for m0 in (1, 2, 3):
        # P has infinite order at each sample m0, so nP is never infinity
        nP = multiple_P(n, m0**4)
        keys = {}
        for sign in ("minus", "plus"):
            try:
                p, q, s = derive.quartic_image(nP, m0**4, sign)
                pairs = derive._solution_pairs(p, q, m0, s)
                keys[sign] = canonicalize(derive._clear_to_solution(*pairs))
            except (DegenerateSolutionError, PoleError, derive.PipelineError):
                continue
        if len(keys) == 1:
            return next(iter(keys))
        if len(keys) == 2:
            return "minus" if keys["minus"] <= keys["plus"] else "plus"
    raise derive.PipelineError("no branch of nP gives a usable solution")


def pell3_ladder(k: int) -> PellSolution:
    """The k-th rung of the Pell ladder, k - 1 steps up from (2, 1)."""
    u, v = 2, 1
    for _ in range(k - 1):
        u, v = 2 * u + 3 * v, u + 2 * v
    return PellSolution(u, v)


def fraction_horner(coeffs, x) -> Fraction:
    """P(x) for P's coefficients, lowest first, by Horner's rule over Q."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def curve_m_text(n: int, m: Fraction, sign: str, as_json: bool = False) -> str:
    """What ``curve --n n --m m`` writes to stdout, each value built as a
    reduced Fraction and cleared by ``derive._clear_to_solution``.

    A value past the int-to-text digit limit ends the text where the
    command stops: before anything if it is in nP, after the curve point
    if it is in the quartic point, and before the record if it is there.
    """
    M = m**4
    nP = multiple_P(n, M.numerator, M.denominator)
    x, y, z = nP[:3]
    wx, wy = Fraction(x, z * z), Fraction(y, z**3)
    out = ""
    try:
        head = "nP: (%s, %s)\nsign: %s\ncurve point: (%s, %s)\n" % (
            wx, wy, sign, wx, wy if sign == "plus" else -wy)
        p, q, s = derive.quartic_image(nP, M, sign)
        out = head
        out += "quartic point: (%s, %s)\n" % (Fraction(p, q), Fraction(s, q * q))
        out += "U = p/q: p = %d, q = %d\n" % (p, q)
        sol = derive._clear_to_solution(*derive._solution_pairs(p, q, m, s))
        return out + _record(sol, "curve_nP", m, as_json) + "\n"
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        return out
