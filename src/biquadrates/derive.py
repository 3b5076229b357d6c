"""Pipeline from curve points to solutions of the quartic product equation.

A point (X, Y) on Y^2 = X^3 + (1-4m^4)X^2 + 32m^4 X maps birationally to a
point (U, V) on the quartic model

    V^2 = U^4 - 2U^3 - (4m^4-1)U^2 - 8m^4U - 4m^4,

and writing U = p/q in lowest terms yields the solution

    x = (p-q, 2mq),  y = (m(p+q), p),  z = (m(p^2+q^2), q^2 V),

up to the scaling action.  The curve, its points and the quartic model
take M = m^4; m enters only through the solution shapes.  One map gives
polynomial families in m over Z[M] and integer solutions over Z at a
rational m, with no polynomial gcd.  ``curve.multiple_P`` gives nP as a
triple with the odd division values around it; the map's pole factor
2x - 8Mz^2 is -72 times their product and U's numerator shares one of
them, so ``to_quartic`` divides it out of U's numerator exactly, takes
-72 times the other as what is left of the pole factor, then divides by
the integer content.  Clearing takes integer contents only; at a rational m
it clears ``_solution_pairs`` itself (``_clear_image``).  Each point is proved
once, through its image, where the map pulls the curve equation back to the
quartic one: over Z by ``quartic_rhs`` at the image (``quartic_image``), and
over Z[M] by one square identity on the family's entries, B = z2^2, checked
exactly at M = +-2^w (``quartic_point_to_param_solution``); the shapes make
the other, A = z1^2, hold for every p and q, and ``selftest`` proves that.  Of the two
branches, nP ("plus") and -nP ("minus"), "auto" names the one whose family has
the lower degree, which is "minus" at every n (``_resolve_sign``).  With
nP = -2nR for the half point R (``curve.multiple_P``), the family of jR is
the minus branch at n for the even j = 2n, as -nP = 2nR, and the plus branch
at n for the odd j = 2n + 1, as -kR and (k+1)R give one solution; its z1 has
degree (2j - 1)^2 in m.  The published families eq20, eq21 and eq22 are
j = 2, 4 and 3 with the x-pair swapped; ``FAMILIES`` tabulates how each
published family is built, and ``published_family``, the one builder,
proves each by its full residual once per process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from biquadrates import pell
from biquadrates.curve import PipelineError, _exact, multiple_P
from biquadrates.exact import (
    DegenerateSolutionError,
    SolutionSix,
    check_solution,
)
from biquadrates.families import ParamSolution
from biquadrates.poly import (IPoly, PoleError, _ipoly, _pack_pm, _positive, _spread,
                              _width_above, content)


def quartic_rhs(u, M, q=1, b=1):
    """Right side of the quartic model in M = m^4, V^2 = quartic_rhs(U, M),
    which is (U(U-1))^2 - 4M(U+1)^2; given q and b, the homogeneous value
    b q^4 quartic_rhs(u/q, M/b), with no division."""
    return b * (u * (u - q)) ** 2 - 4 * M * (q * (u + q)) ** 2


def to_quartic(x, y, M, z=1, g=None, r=None):
    """The map (X, Y) -> (U, V) to the quartic model at X = x/z^2, Y = y/z^3.

    U = (xz + y + 8Mz^3) / (z(2x - 8Mz^2)), with its pole where X = 4M.  V
    comes from the inverse map's X = 2U^2 - 2U + 2V: with U = p/q it is
    V = s/q^2, where s = (xq^2 + 2z^2 p(q-p)) / (2z^2).  On the curve V equals
    the paper's cubic form over 4(X-4M)^2, which costs far more to reduce.
    With V = X/2 + U - U^2 the quartic model's equation V^2 = quartic(U) is
    (Y^2 - X^3 - (1-4M)X^2 - 32MX) / (4(4M - X)) = 0, the curve equation
    pulled back, so proving the image on the quartic model proves (X, Y) on
    the curve.

    Over a field (no g) it returns (U, V).  Given ``multiple_P``'s triple
    over Z or Z[M], g, the odd value that U's numerator shares with
    2x - 8Mz^2, and r = (2x - 8Mz^2)/g, it returns (p, q, s); at M = A/B,
    z = 3Be (e the value at 2n) makes Mz^2 an integer.  r is taken as
    given, not divided out: ``multiple_P``'s phi = 36(ABe^2 - below above)
    and z = 3Be make 2x - 8Mz^2 = -72 below above, so ``quartic_image``
    passes -72 times the other odd value, and that division could never
    leave a remainder.  No proof rests on it: ``quartic_image``'s identity
    over Z and B's zero test over Z[M] prove whatever point p, q and s name.
    g is divided out of the numerator exactly, then the integer content c
    of p and zr, signed to make q (over Z[M], its leading coefficient)
    positive.  Then q = zr/c, so s = xr^2/(2c^2) + p(q-p) divides only by an
    integer, exactly, and V = s/q^2 is reduced: the caller proves
    s^2 = N with N = q^4 quartic_rhs(p/q) = p^4 + q * (terms in p and q), and
    a prime of Z[M] (an integer prime or an irreducible primitive
    polynomial) dividing s and q divides N and q, so p^4, so p; p and q are
    coprime, so s and q are.
    """
    zz = z * z
    mzz = M * zz
    if g is not None and isinstance(mzz, Fraction):
        mzz = _exact(mzz.numerator, mzz.denominator)
    num, pole = x * z + y + 8 * mzz * z, 2 * x - 8 * mzz
    if pole == 0:
        raise PoleError("the map is undefined where X = 4m^4")
    if g is None:
        u = num / (z * pole)
        w = 2 * zz
        return u, (x + w * u * (1 - u)) / w
    p, q = _exact(num, g), z * r
    c = gcd(content(p), content(q))
    if (q if isinstance(q, int) else q.lc) < 0:
        c = -c
    p, q = _exact(p, c), _exact(q, c)
    # q = zr/c, so s = xr^2/(2c^2) + p(q-p) divides by integers only
    return p, q, _exact(x * (r * r), 2 * c * c) + p * (q - p)


def to_weierstrass(u, v, M):
    """The inverse map (U, V) -> (X, Y), in M = m^4."""
    x = 2 * u * u - 2 * u + 2 * v
    y = (4 * u**3 - 6 * u * u + 4 * u * v - 2 * (4 * M - 1) * u
         - 2 * v - 8 * M)
    return x, y


def _solution_pairs(p, q, m, s) -> tuple:
    """The module docstring's pairs, over Q or over Z[M], with s = q^2 V."""
    return ((p - q, 2 * m * q), (m * (p + q), p), (m * (p * p + q * q), s))


_M_POWERS = (0, 1, 1, 0, 1, 0)
"""The power r of m in each entry, x1 to z2, of ``_solution_pairs``."""


def quartic_point_to_param_solution(p: IPoly, q: IPoly, s: IPoly) -> ParamSolution:
    """Turn U = p/q, V = s/q^2 over Z[M] into a proved polynomial family in m.

    p, q and s come as ``to_quartic`` gives them; the entries E1..E6 are the
    module docstring's pairs at m = 1, and the family's entries are m^r E(m^4)
    for r in ``_M_POWERS``.  gcd(p - q, 2q) and gcd(p + q, p) have
    polynomial part gcd(p, q) = 1, so each pair is freed of its integer content
    gcd alone, d1 and d2.  The contents of p and q are coprime, so d2 = 1 and
    d1 divides 2; if d1 = 2, p = q (mod 2), so 2 divides z1 = (p-q)^2 + 2pq
    and, on the quartic model, 4 divides z2^2 = (p-q)^2 p^2 - 4q^2(p+q)^2,
    hence 2 divides z2, and the z entries divide exactly by d1 d2.

    One square identity over Z[M] proves the point.  With
    A = (x1 y1)^2 + (x2 y2)^2 and B = (x1 y2)^2 - (x2 y1)^2 in m and
    M = m^4, (E1 E4)^2 - M (E2 E3)^2 = E6^2 is B = z2^2, and z2^2 - B is
    q^4 (V^2 - quartic_rhs(U)) / (d1 d2)^2, so it puts the image on the
    quartic model and nP on the curve (``to_quartic``).  The shapes make
    A = z1^2 for any p, q and s (``selftest`` proves it on these same
    ``_solution_pairs``: ``identity.verify_substitution_13``), and the checked
    divisions by d1, d2 and d1 d2 keep it, (E1 E3)^2 + (E2 E4)^2 = E5^2, on
    the entries.  The quartic Brahmagupta identity then gives
    (x1^4+x2^4)(y1^4+y2^4) = A^2 + B^2 = z1^4 + z2^4.

    B's residual R = 0 is checked at M = +-2^w (``poly._pack_pm``), exactly
    if all |R_i| < 4^w: R's even and odd parts then vanish at 4^w, and a
    nonzero one cannot, as 4^w would divide its lowest nonzero coefficient
    (4^w - M^2 is the edge).  A product of k entries has coefficients below
    2^(sum of their bit lengths) L^(k-1), L the longest packed entry's
    length, so |R_i| < 3 2^t L^3 for t = 2 max(b6, b1 + b4, b2 + b3), bi the
    bit length of Ei: w = ``_width_above((t + 1 + 3 bitlen(L)) // 2)`` makes
    2w >= t + 2 + 3 bitlen(L).  E5 is not packed.

    U is not 0, 1 or infinity at M = 0 (``solution_from_nP`` pins U(0)), so
    x1 = p - q and y2 = p have nonzero constant terms.  That makes the pair
    gcds over Z[m] those over Z[M]: gcd(A(m^4), m B(m^4)) is gcd(A, B)(m^4)
    when A(0) != 0.
    """
    if p.degree == 0 and q.degree == 0:
        raise PipelineError("constant U gives no one-parameter family")
    (x1, x2), (y1, y2), (z1, z2) = _solution_pairs(p, q, 1, s)
    d1 = gcd(content(x1), content(x2))
    d2 = gcd(content(y1), content(y2))
    entries = (_exact(x1, d1), _exact(x2, d1), _exact(y1, d2), _exact(y2, d2),
               _exact(z1, d1 * d2), _exact(z2, d1 * d2))
    cs = [e.coeffs for e in entries[:4] + entries[5:]]
    b1, b2, b3, b4, b6 = (max(map(int.bit_length, co), default=0) for co in cs)
    t = 2 * max(b6, b1 + b4, b2 + b3)
    w = _width_above((t + 1 + 3 * max(map(len, cs)).bit_length()) // 2)
    plus, minus = zip(*(_pack_pm(co, w) for co in cs))
    if any(((c := e1 * e4) - e6) * (c + e6) != sign * ((e2 * e3) ** 2 << w)
           for sign, (e1, e2, e3, e4, e6) in ((1, plus), (-1, minus))):
        raise PipelineError("the family's residual is nonzero: B != z2^2")
    return ParamSolution(*(_ipoly(_spread(_positive(e).coeffs, r, 4))
                           for e, r in zip(entries, _M_POWERS)))


def _clear_to_solution(hs, bs) -> SolutionSix:
    """Scale the six values h/b (the pairs in order, b > 0) to integers by the
    scaling action, unchecked, with the factors reduced Fractions would take:
    k1, k2 the lcms of the x- and y-pair's reduced denominators d = b/gcd(h, b),
    then k1 times that of the z-pair's after scaling by k1 k2, d/gcd(k1 k2, d)."""
    if not (hs[0] or hs[1]) or not (hs[2] or hs[3]):
        raise DegenerateSolutionError("pair evaluated to (0, 0)")
    d1, d2, d3, d4, d5, d6 = (b // gcd(h, b) for h, b in zip(hs, bs))
    k1, k2 = lcm(d1, d2), lcm(d3, d4)
    k1 *= lcm(d5 // gcd(k1 * k2, d5), d6 // gcd(k1 * k2, d6))
    fs = (k1, k1, k2, k2, k1 * k2, k1 * k2)
    return SolutionSix(*(h * f // b for h, b, f in zip(hs, bs, fs)))


def _clear_image(p: int, q: int, s: int, m) -> SolutionSix:
    """The pairs at U = p/q, V = s/q^2 and m = a/b, cleared to integers:
    ``_clear_to_solution`` of ``_solution_pairs`` at m = a, each entry over
    b^r for r in ``_M_POWERS``.  q > 0 and a != 0 (m = 0 is a singular
    curve) leave no pair (0, 0)."""
    b = m.denominator
    hs = [h for pair in _solution_pairs(p, q, m.numerator, s) for h in pair]
    return _clear_to_solution(hs, [b**r for r in _M_POWERS])


def _resolve_sign(sign: str) -> str:
    """The branch a sign names; "auto" is the one whose family has the
    lower degree, which is "minus" at every n.

    Over Z[M] the pole factor 2x - 8Mz^2 is -72 at(2n-1) at(2n+1)
    (``curve.multiple_P``).  The minus branch divides out at(2n+1) and the
    plus branch at(2n-1), so q is z = 3 at(2n) times the value left, over
    an integer content that changes no degree.  at(k) has degree
    (k^2 - 1)/4 in M for odd k, so deg q_plus - deg q_minus = 2n, and
    deg p = deg q + 1 on both.
    """
    if sign not in ("auto", "plus", "minus"):
        raise ValueError("sign must be 'auto', 'plus' or 'minus'")
    return "minus" if sign == "auto" else sign


def quartic_image(nP: tuple, M, sign: str) -> tuple:
    """U = p/q and V = s/q^2, the image of nP ("plus") or -nP ("minus").

    The sign goes through ``_resolve_sign``, so "auto" is "minus" and any
    other name raises ValueError.

    nP is ``multiple_P``'s tuple over Z[M] or at a rational M = A/B; U's
    numerator shares its odd value at 2n - 1 on the plus branch and at
    2n + 1 on the minus branch (the point 2nR).  At M = A/B the image is
    proved here by B s^2 = ``quartic_rhs(p, A, q, B)``, which is
    s^2 = q^4 quartic_rhs(p/q, M), so nP lies on the curve; over Z[M] the
    family's identity B = z2^2 proves it.
    """
    x, y, z, below, above = nP
    y, g, h = (y, below, above) if _resolve_sign(sign) == "plus" else (-y, above, below)
    p, q, s = to_quartic(x, y, M, z, g, -72 * h)
    if not isinstance(M, IPoly):
        A, B = M.numerator, M.denominator
        if B * s * s != quartic_rhs(p, A, q, B):
            raise PipelineError("the image of nP is not on the quartic model")
    return p, q, s


def solution_from_nP(n: int, sign: str = "auto") -> ParamSolution:
    """Polynomial family from the n-th multiple of the base point over Z[M].

    ``quartic_point_to_param_solution``'s identity B = z2^2 is the one
    run-time proof (the shapes' A = z1^2 is ``selftest``'s), after a check
    at M = 0 that pins the branch.  There the curve is
    Y^2 = X^2(X+1) and P reduces to the point with t = (Y-X)/(Y+X) = 1/4,
    so +-nP reduce to t = 4^-+n and U(0) = (1+w)/2, w = (1+t)/(1-t), is
    4^n/(4^n - 1) on the plus branch and -1/(4^n - 1) on the minus one.
    That catches a ladder that hands the plus branch -P at n = 1, where its
    division by the value at 2n - 1 = 1 checks nothing.
    """
    sign = _resolve_sign(sign)
    M = IPoly.gen()
    p, q, s = quartic_image(multiple_P(n, M), M, sign)
    if q[0] == 0 or p[0] * (4**n - 1) != q[0] * (4**n if sign == "plus" else -1):
        raise PipelineError("U at M = 0 is not the %s branch's value" % sign)
    return quartic_point_to_param_solution(p, q, s)


FAMILIES = {"eq20": (1, "minus"), "eq21": (2, "minus"), "eq22": (1, "plus"),
            "eq26": ((3, 0, 1), (0, 2), (-3, 0, 1))}
"""How each published family is built, by its command-line name.  A curve
family is the (n, sign) of ``solution_from_nP``, x-pair swapped; eq26 is the
coefficient tuples of (u, v, w) = (t^2+3, 2t, t^2-3), at which
``pell.pell_shapes`` gives the Pell family in t."""


@cache
def published_family(name: str) -> ParamSolution:
    """The family ``FAMILIES[name]`` describes, proved by its full residual
    (``solution_from_nP`` proves B = z2^2 alone) and cached: each is built
    and proved once per process and shared, as a family is immutable."""
    how = FAMILIES[name]
    if isinstance(how[0], int):
        x1, x2, *rest = solution_from_nP(*how).polys()
        ps = ParamSolution(x2, x1, *rest)
    else:
        ps = ParamSolution(*pell.pell_shapes(*map(IPoly, how)), var="t")
    if not ps.residual().is_zero:
        raise PipelineError("the residual is nonzero")
    return ps


def evaluate_param(ps: ParamSolution, m0, check: bool = True) -> SolutionSix:
    """Evaluate a family at a rational parameter and clear to integers,
    checked against the equation unless ``check`` is false (the CLI checks
    what it prints); at m0 = a/b, b^d P(a/b) over b^d is cleared in integers."""
    m0 = Fraction(m0)
    a, b = m0.numerator, m0.denominator
    sol = _clear_to_solution(*zip(*(p.homogenized(a, b) for p in ps.polys())))
    if check and not check_solution(sol):
        raise PipelineError("cleared values fail the equation")
    return sol
