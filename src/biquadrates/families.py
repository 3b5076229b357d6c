"""One-parameter polynomial families solving the quartic product equation.

A ``ParamSolution`` holds six integer polynomials in a single variable
satisfying (x1^4+x2^4)(y1^4+y2^4) = z1^4+z2^4 identically; substituting
any rational parameter value gives a rational solution, which clears to
integers under the scaling action.

Of the four published families, eq20, eq21 and eq22 are the curve
families 2R, 4R and 3R for the half point R of the base point P = -2R:
``derive.solution_from_nP`` builds them, on the minus branch at n = 1 and
n = 2 and on the plus branch at n = 1, and ``derive.FAMILIES`` names all
four.  eq26, from the rational parametrization of u^2 - 3v^2 = 1, is
``pell.pell_shapes`` homogenised at (t^2+3, 2t, t^2-3) (``family_eq26``).
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from biquadrates import pell
from biquadrates.poly import IPoly, _mul_coeffs, _spread


def _stride(p: IPoly) -> tuple:
    """(r, g) with p = m^r P(m^g): the lowest exponent and the gcd of the
    others' distances from it (0 for a monomial and for zero)."""
    ks = [k for k, c in enumerate(p.coeffs) if c]
    return (ks[0], gcd(*[k - ks[0] for k in ks])) if ks else (0, 0)


def _mul(a: IPoly, b: IPoly) -> IPoly:
    """a * b, as m^(r+s) (PQ)(m^g) on the compressed tuples when
    a = m^r P(m^g) and b = m^s Q(m^g) with g >= 2."""
    r, g = _stride(a)
    s, h = (r, g) if b is a else _stride(b)
    g = gcd(g, h)
    if g < 2 or a.is_zero or b.is_zero:
        return a * b
    ca = a.coeffs[r::g]
    p = IPoly.__new__(IPoly)  # as IPoly.__mul__: the top entry lc(a) lc(b) != 0
    p.coeffs = _spread(_mul_coeffs(ca, ca if b is a else b.coeffs[s::g]), r + s, g)
    return p


class ParamSolution(namedtuple("ParamSolution", "x1 x2 y1 y2 z1 z2 var",
                               defaults=("m",))):
    """Six polynomials in one shared variable solving the equation identically.

    ``var`` is that variable's printed name (``t`` for the Pell family).
    """

    __slots__ = ()

    def polys(self) -> tuple:
        return (self.x1, self.x2, self.y1, self.y2, self.z1, self.z2)

    def residual(self) -> IPoly:
        """(x1^4+x2^4)(y1^4+y2^4) - z1^4 - z2^4; zero for a genuine family.

        It is formed as (A - z1^2)(A + z1^2) + (B - z2^2)(B + z2^2) with
        A = (x1 y1)^2 + (x2 y2)^2 and B = (x1 y2)^2 - (x2 y1)^2.  The quartic
        Brahmagupta identity A^2 + B^2 = (x1^4+x2^4)(y1^4+y2^4) holds for any
        six polynomials (``selftest`` checks it as quartic_brahmagupta), so
        this is the same polynomial.  A product whose first factor A - z1^2
        or B - z2^2 is zero is skipped, so a genuine family costs only squares
        of about half the degree of the fourth powers.  Each product runs at
        its operands' common stride (``_mul``): 4 for the curve families' m^r E(m^4).
        """
        x1, x2, y1, y2, z1, z2 = self.polys()
        res = IPoly(())
        sq = [_mul(e, e) for e in (_mul(x1, y1), _mul(x2, y2),
                                   _mul(x1, y2), _mul(x2, y1))]
        for ab, z in ((sq[0] + sq[1], z1), (sq[2] - sq[3], z2)):
            zz = _mul(z, z)
            lo = ab - zz
            if not lo.is_zero:
                res = res + _mul(lo, ab + zz)
        return res

    def degrees(self) -> tuple:
        return tuple(p.degree for p in self.polys())


def family_eq26() -> ParamSolution:
    """Pell-derived family in t: the Pell shapes at u = (t^2+3)/(t^2-3),
    v = 2t/(t^2-3), homogenised by w = t^2 - 3."""
    t = IPoly.gen()
    return ParamSolution(*pell.pell_shapes(t * t + 3, 2 * t, t * t - 3), var="t")
