"""One-parameter polynomial families solving the quartic product equation.

A ``ParamSolution`` holds six integer polynomials in a single variable
satisfying (x1^4+x2^4)(y1^4+y2^4) = z1^4+z2^4 identically; substituting
any rational parameter value gives a rational solution, which clears to
integers under the scaling action.

``family_eq20`` through ``family_eq26`` are the four published families
(the names are the stable identifiers used on the command line):
eq20 and eq21 come from the first and second multiples of the base point
on the associated elliptic curve, eq22 from an extra point on the same
curve, and eq26 from the rational parametrization of u^2 - 3v^2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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


@dataclass(frozen=True)
class ParamSolution:
    """Six polynomials in one shared variable solving the equation identically.

    ``var`` is that variable's printed name (``t`` for the Pell family).
    """

    x1: IPoly
    x2: IPoly
    y1: IPoly
    y2: IPoly
    z1: IPoly
    z2: IPoly
    var: str = "m"

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


def family_eq20() -> ParamSolution:
    """Base family: x-pair (6m, (m^2-2m+2)(m^2+2m+2)), z-pair of degrees 9 and 8."""
    m = IPoly.gen()
    return ParamSolution(
        x1=6 * m,
        x2=(m**2 - 2 * m + 2) * (m**2 + 2 * m + 2),
        y1=m * (m**4 - 2),
        y2=m**4 + 1,
        z1=m * (m**8 + 2 * m**4 + 10),
        z2=(m**4 + 3 * m**2 - 2) * (m**4 - 3 * m**2 - 2),
    )


def family_eq21() -> ParamSolution:
    """Doubled-point family: z-pair of degrees 49 and 48."""
    f = IPoly.from_terms
    return ParamSolution(
        x1=f({21: 12, 17: -282, 13: 1830, 9: -2256, 5: -984, 1: 480}),
        x2=f({24: 1, 16: -240, 12: 1652, 8: -1800, 4: 1668, 0: 256}),
        y1=f({25: 1, 21: -12, 17: 42, 13: -178, 9: 456, 5: 2652, 1: -224}),
        y2=f({24: 1, 20: -6, 16: -99, 12: 737, 8: -672, 4: 2160, 0: 16}),
        z1=f({49: 1, 45: -12, 41: -126, 37: 970, 33: 30474, 29: -405108,
              25: 1799754, 21: -3341016, 17: 3936600, 13: -1330304,
              9: 4344720, 5: -167040, 1: 57856}),
        z2=f({48: 1, 44: -78, 40: 1749, 36: -17069, 32: 79200, 28: -183456,
              24: 505284, 20: -3071484, 16: 10049220, 12: -5711360,
              8: -791232, 4: -831552, 0: 4096}),
    )


def family_eq22() -> ParamSolution:
    """Extra-point family: z-pair of degrees 25 and 24."""
    f = IPoly.from_terms
    return ParamSolution(
        x1=f({9: 6, 5: -78, 1: 24}),
        x2=f({12: 1, 8: -12, 4: 72, 0: 4}),
        y1=f({13: 1, 9: -6, 5: -6, 1: 28}),
        y2=f({12: 1, 8: -9, 4: 33, 0: 16}),
        z1=f({25: 1, 21: -18, 17: 156, 13: -796, 9: 2394, 5: 120, 1: 400}),
        z2=f({24: 1, 20: -39, 16: 357, 12: -808, 8: 132, 4: -2244, 0: 64}),
    )


def family_eq26() -> ParamSolution:
    """Pell-derived family in t, from u = (t^2+3)/(t^2-3), v = 2t/(t^2-3)."""
    t = IPoly.gen()
    return ParamSolution(
        x1=t**2 - 3,
        x2=4 * t,
        y1=(t**2 - 3) * (t**2 + 9) * (t**2 + 1),
        y2=4 * t * (t**2 + 2 * t + 3) * (t**2 - 2 * t + 3),
        z1=16 * t**2 * (t**2 - 3) * (t**2 + 3),
        z2=IPoly.from_terms({8: 1, 6: 4, 4: 86, 2: 36, 0: 81}),
        var="t",
    )


FAMILIES = {
    "eq20": family_eq20,
    "eq21": family_eq21,
    "eq22": family_eq22,
    "eq26": family_eq26,
}
