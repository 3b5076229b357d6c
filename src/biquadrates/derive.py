"""Pipeline from curve points to solutions of the quartic product equation.

A point (X, Y) on Y^2 = X^3 + (1-4m^4)X^2 + 32m^4 X maps birationally to a
point (U, V) on the quartic model

    V^2 = U^4 - 2U^3 - (4m^4-1)U^2 - 8m^4U - 4m^4,

and writing U = p/q in lowest terms yields the solution

    x = (p-q, 2mq),  y = (m(p+q), p),  z = (m(p^2+q^2), q^2 V),

up to the scaling action.  The curve, its points and the quartic model
live over Q(M), M = m^4, and take M; m enters only through the solution
shapes.  Run over Q(M) the pipeline produces polynomial families in m; run
over Q at a fixed parameter it produces integer solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from biquadrates.curve import (
    CurvePoint,
    Element,
    _lift,
    curve_from_parameter,
    mul_scalar,
    on_curve,
    point_P,
)
from biquadrates.exact import (
    DegenerateSolutionError,
    SolutionSix,
    canonicalize,
    check_solution,
)
from biquadrates.families import ParamSolution
from biquadrates.poly import IPoly, PoleError, RatFn, _full_gcd, _positive, _spread

SAMPLES = (1, 2, 3, Fraction(1, 2), 5)


class PipelineError(RuntimeError):
    """An internal consistency check failed while deriving a solution."""


def quartic_rhs(u, M):
    """Right side of the quartic model in M = m^4, V^2 = quartic_rhs(U, M)."""
    return ((((u - 2) * u - (4 * M - 1)) * u - 8 * M) * u) - 4 * M


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
        if self.v * self.v != quartic_rhs(self.u, self.M):
            raise ValueError("point does not satisfy the quartic model")


def to_quartic(x, y, M):
    """The map (X, Y) -> (U, V) to the quartic model, in M = m^4.

    V comes from the inverse map's X = 2U^2 - 2U + 2V.  On the curve it equals
    the paper's cubic form over 4(X-4M)^2, which costs far more to reduce.
    """
    u = (x + y + 8 * M) / (2 * x - 8 * M)
    return u, x / 2 + u * (1 - u)


def to_weierstrass(u, v, M):
    """The inverse map (U, V) -> (X, Y), in M = m^4."""
    x = 2 * u * u - 2 * u + 2 * v
    y = (4 * u**3 - 6 * u * u + 4 * u * v - 2 * (4 * M - 1) * u
         - 2 * v - 8 * M)
    return x, y


def weierstrass_to_quartic(M, pt: CurvePoint) -> QuarticPoint:
    """Map a curve point to the quartic model; poles at X = 4M and infinity."""
    M = _lift(M)
    if pt.infinity:
        raise PoleError("the point at infinity has no affine image")
    if not on_curve(curve_from_parameter(M), pt):
        raise ValueError("point is not on the curve for this parameter")
    if 2 * pt.x - 8 * M == 0:
        raise PoleError("the map is undefined where X = 4m^4")
    return QuarticPoint(*to_quartic(pt.x, pt.y, M), M)


def _solution_pairs(p, q, m, v) -> tuple:
    """The module docstring's pairs, over Q or over Z[M] with v in Q(M)."""
    return ((p - q, 2 * m * q), (m * (p + q), p),
            (m * (p * p + q * q), q * q * v))


def quartic_point_to_param_solution(qp: QuarticPoint) -> ParamSolution:
    """Turn a quartic-model point over Q(M) into a polynomial family in m.

    With U = p/q over Z[M], the entries are the module docstring's pairs at
    m = 1, times m^e for e = (0, 1, 1, 0, 1, 0).  Each pair is freed of common
    factors, the z entries are cleared to polynomials, and they must satisfy
    Z1^2 = (X1 Y1)^2 + (X2 Y2)^2 and Z2^2 = (X1 Y2)^2 - M (X2 Y1)^2 exactly
    (the identities in m, over m^2).  That forces the residual to vanish, as
    (a^2c^2 + b^2d^2)^2 + (a^2d^2 - b^2c^2)^2 = (a^4 + b^4)(c^4 + d^4).  Then
    each entry is spread to m.

    The gcds are those over Z[m], gcd(A(m^4), m B(m^4)) = gcd(A, B)(m^4),
    since x1 = p - q and y2 = p, and with them the pair gcds, are nonzero at
    M = 0: U(0) is not 0, 1 or infinity.  At M = 0 the curve is
    Y^2 = X^2(X+1), P reduces to the smooth point with t = (Y-X)/(Y+X) = 1/4,
    so +-nP reduce to t = 4^-+n != 1, and U(0) = (1+s)/2 with
    s = Y/X = (1+t)/(1-t) != +-1.
    """
    M = qp.M
    if not isinstance(M, RatFn) or M != RatFn.gen():
        raise TypeError("parameter must be the generator of a function field")
    u = M._coerce(qp.u)
    v = M._coerce(qp.v)
    if u is None or v is None:
        raise TypeError("quartic point coordinates must live in Q(M)")
    p, q = u.num, u.den
    if p.degree == 0 and q.degree == 0:
        raise PipelineError("constant U gives no one-parameter family")
    (x1, x2), (y1, y2), (z1, z2) = _solution_pairs(p, q, 1, v)
    d1 = _full_gcd(x1, x2)
    x1, x2 = x1.exact_div(d1), x2.exact_div(d1)
    d2 = _full_gcd(y1, y2)
    y1, y2 = y1.exact_div(d2), y2.exact_div(d2)

    shared = d1 * d2
    z1 = RatFn(z1, shared)
    z2 = z2 / shared
    clear = (z1.den * z2.den).exact_div(_full_gcd(z1.den, z2.den))
    if clear.degree > 0 or clear.lc != 1:
        x1, x2 = x1 * clear, x2 * clear
        z1 = z1 * RatFn(clear)
        z2 = z2 * RatFn(clear)
    if z1.den != 1 or z2.den != 1:
        raise PipelineError("z entries did not clear to polynomials")

    entries = [_positive(e) for e in (x1, x2, y1, y2, z1.num, z2.num)]
    x1, x2, y1, y2, z1, z2 = entries
    if z1 * z1 != (x1 * y1) ** 2 + (x2 * y2) ** 2:
        raise PipelineError("z1 fails its square cross-check")
    if z2 * z2 != (x1 * y2) ** 2 - IPoly.gen() * (x2 * y1) ** 2:
        raise PipelineError("z2 fails its square cross-check")
    return ParamSolution(*(IPoly(_spread(e.coeffs, r, 4))
                           for e, r in zip(entries, (0, 1, 1, 0, 1, 0))))


def _clear_to_solution(xpair, ypair, zpair) -> SolutionSix:
    """Scale rational pairs to an integer solution of the equation."""
    if all(v == 0 for v in xpair) or all(v == 0 for v in ypair):
        raise DegenerateSolutionError("pair evaluated to (0, 0)")
    k1 = lcm(*(v.denominator for v in xpair))
    k2 = lcm(*(v.denominator for v in ypair))
    fix = lcm(*((v * k1 * k2).denominator for v in zpair))
    k1 *= fix
    vals = [int(v * k1) for v in xpair] + [int(v * k2) for v in ypair]
    vals += [int(v * k1 * k2) for v in zpair]
    sol = SolutionSix(*vals)
    if not check_solution(sol):
        raise PipelineError("cleared values fail the equation")
    return sol


def solution_from_quartic_point(qp: QuarticPoint, m) -> SolutionSix:
    """Integer solution from a quartic-model point over Q at a fixed m."""
    m = Fraction(m)
    if m**4 != qp.M:
        raise ValueError("m^4 differs from the quartic point's M")
    u, v = Fraction(qp.u), Fraction(qp.v)
    p, q = Fraction(u.numerator), Fraction(u.denominator)
    return _clear_to_solution(*_solution_pairs(p, q, m, v))


def signed_multiple(n: int, M, sign: str = "auto") -> tuple:
    """The n-th multiple of the base point and the branch taken from it.

    M = m^4 is a rational value or the generator of Q(M).  Returns
    (nP, point) with point = nP on the "plus" branch and -nP on "minus";
    "auto" is resolved by ``auto_sign``.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if sign not in ("auto", "plus", "minus"):
        raise ValueError("sign must be 'auto', 'plus' or 'minus'")
    if sign == "auto":
        sign = auto_sign(n)
    M = _lift(M)
    w = mul_scalar(curve_from_parameter(M), n, point_P(M))
    if w.infinity:
        raise PoleError("nP is the point at infinity")
    return w, w if sign == "plus" else CurvePoint(w.x, -w.y)


def auto_sign(n: int) -> str:
    """The branch of nP whose solution has the smaller canonical key.

    Decided numerically at small parameter values, one nP per value, so the
    symbolic run pays nothing extra.
    """
    for m0 in (1, 2, 3):
        # P has infinite order at each sample m0, so nP is never infinity
        w, w_minus = signed_multiple(n, m0**4, "minus")
        keys = {}
        for sign, pt in (("minus", w_minus), ("plus", w)):
            try:
                qp = weierstrass_to_quartic(m0**4, pt)
                keys[sign] = canonicalize(solution_from_quartic_point(qp, m0))
            except (DegenerateSolutionError, PoleError, PipelineError):
                continue
        if len(keys) == 1:
            return next(iter(keys))
        if len(keys) == 2:
            return "minus" if keys["minus"] <= keys["plus"] else "plus"
    raise PipelineError("no branch of nP gives a usable solution")


def solution_from_nP(n: int, sign: str = "auto") -> ParamSolution:
    """Polynomial family from the n-th multiple of the base point over Q(M)."""
    M = RatFn.gen()
    _, w = signed_multiple(n, M, sign)
    return quartic_point_to_param_solution(weierstrass_to_quartic(M, w))


def numeric_solution_from_nP(n: int, m0, sign: str = "auto") -> SolutionSix:
    """Integer solution from nP at a fixed rational parameter value."""
    m0 = Fraction(m0)
    _, w = signed_multiple(n, m0**4, sign)
    return solution_from_quartic_point(weierstrass_to_quartic(m0**4, w), m0)


def evaluate_param(ps: ParamSolution, m0) -> SolutionSix:
    """Evaluate a family at a rational parameter and clear to integers."""
    m0 = Fraction(m0)
    vals = [Fraction(p.evaluate(m0)) for p in ps.polys()]
    return _clear_to_solution(vals[0:2], vals[2:4], vals[4:6])


def param_equivalent(a: ParamSolution, b: ParamSolution) -> bool:
    """Whether two families give the same solution up to scaling and signs.

    Compares canonical keys at each sample parameter, skipping values where
    either family degenerates; at least one comparison must succeed.
    """
    compared = 0
    for m0 in SAMPLES:
        try:
            ka = canonicalize(evaluate_param(a, m0))
            kb = canonicalize(evaluate_param(b, m0))
        except DegenerateSolutionError:
            continue
        if ka != kb:
            return False
        compared += 1
    return compared > 0
