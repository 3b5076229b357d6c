"""Pipeline constructions that only tests use.

``numeric_solution_from_nP`` runs the curve pipeline over Q at one value of
m.  ``signed_multiple_over`` extends ``derive.signed_multiple``, which takes
a rational M only, to the generator of Q(M), M = m^4.
"""

from fractions import Fraction

from biquadrates.curve import CurvePoint, multiple_P
from biquadrates.derive import signed_multiple, solution_from_quartic_point, weierstrass_to_quartic
from biquadrates.exact import SolutionSix
from biquadrates.poly import IPoly, RatFn


def numeric_solution_from_nP(n: int, m0, sign: str = "auto") -> SolutionSix:
    """Integer solution from nP at a fixed rational parameter value."""
    m0 = Fraction(m0)
    _, w = signed_multiple(n, m0**4, sign)
    return solution_from_quartic_point(weierstrass_to_quartic(m0**4, w), m0)


def signed_multiple_over(n: int, M, sign: str) -> tuple:
    """``signed_multiple(n, M, sign)`` for M rational or ``RatFn.gen()``.

    Over Q(M), nP is the ladder's triple over Z[M] reduced by ``RatFn`` and
    its gcds, and the branch is "plus" or "minus".
    """
    if not isinstance(M, RatFn):
        return signed_multiple(n, M, sign)
    x, y, z, *_ = multiple_P(n, IPoly.gen())
    w = CurvePoint(RatFn(x, z * z), RatFn(y, z * z * z))
    return w, w if sign == "plus" else CurvePoint(w.x, -w.y)
