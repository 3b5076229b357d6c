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

from biquadrates.poly import IPoly, _spread, _stride


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
        of about half the degree of the fourth powers.

        Every entry is var^r * P(var^h), so every term is var^s * Q(var^g)
        once g divides each h and each gap between the shifts s of terms that
        get added: 2(r1+r3), 2(r2+r4) and 2r5 within A - z1^2, and 2(r1+r4),
        2(r2+r3) and 2r6 within B - z2^2.  The gap 4(r3-r4) between the two
        products is the difference of the two x-gaps, so it follows.  A zero
        entry counts with r = 0, which can only shrink g.  The work is done
        in var^g with each s reduced mod g and spread back once: g = 4 for
        the curve families and 2 for eq26.

        The result is kept on the instance, so a family that
        ``derive.quartic_point_to_param_solution`` has proved is not proved
        again when it is printed.
        """
        known = self.__dict__.get("_residual")
        if known is not None:
            return known
        polys = self.polys()
        shapes = [_stride(p.coeffs) if p.coeffs else (0, 0) for p in polys]
        r1, r2, r3, r4, r5, r6 = (r for r, _ in shapes)
        g = gcd(*(h for _, h in shapes), 2 * (r1 + r3 - r2 - r4), 2 * (r1 + r3 - r5),
                2 * (r1 + r4 - r2 - r3), 2 * (r1 + r4 - r6)) or 1

        # a term is (s, Q) for var^s * Q(var^g), 0 <= s < g; terms that get
        # added share s unless one is zero
        def mul(a, b):
            s, q = a[0] + b[0], a[1] * b[1]
            return (s, q) if s < g else (s - g, IPoly((0,) + q.coeffs))

        def sq(a):
            return mul(a, a)

        def add(a, b, sign=1):
            q = b[1] if sign > 0 else -b[1]
            return (b[0] if a[1].is_zero else a[0], a[1] + q)

        x1, x2, y1, y2, z1, z2 = ((r % g, IPoly(p.coeffs[r % g::g]))
                                  for p, (r, _) in zip(polys, shapes))
        a = add(sq(mul(x1, y1)), sq(mul(x2, y2)))
        b = add(sq(mul(x1, y2)), sq(mul(x2, y1)), -1)
        res = (0, IPoly(()))
        for ab, z in ((a, z1), (b, z2)):
            zz = sq(z)
            lo = add(ab, zz, -1)
            if not lo[1].is_zero:
                res = add(res, mul(lo, add(ab, zz)))
        s, q = res
        known = IPoly(_spread(q.coeffs, s, g)) if q.coeffs else q
        object.__setattr__(self, "_residual", known)
        return known

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
