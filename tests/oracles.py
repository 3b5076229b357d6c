"""Slow, obvious references that only tests use: the field route over Q and Q(M).

The library keeps one kind of curve point, a Jacobian triple over Z or
Z[M], and computes every nP one way, by the division-value ladder
(``curve.multiple_P``); it maps nP to the quartic model over Z and Z[M]
(``derive.quartic_image``) and proves each image by an identity on its
integers.  This module is what those are compared against.  ``RatFn`` is
the field Q(M) of rational functions, kept fully reduced through
``poly.poly_gcd`` (looked up through its module, so a test that patches the
gcd reaches it).  The affine chord-tangent law (``add``, ``mul_scalar``) on
``CurvePoint``s over Q and Q(M) starts from ``point_P`` and ``extra_point``,
the affine images of the library's triples; ``on_curve`` is its membership
test (over Q(M) cross-multiplied, with no quotient and no gcd) and
``is_nontorsion_by_mazur`` its certificate of infinite order.  nP as an
affine point (``signed_multiple``) goes through the field branch of
``derive.to_quartic`` (``weierstrass_to_quartic``), is checked on the
quartic model by ``QuarticPoint``, and is cleared to an integer solution at
one value of m (``solution_from_quartic_point``, ``numeric_solution_from_nP``).
derive's formulas are looked up through the module, so a test that patches
one reaches this route too.  It also keeps the sampled rule that once
resolved "auto" (``sampled_sign``), as the reference for the lower-degree
branch that resolves it now.

``from_terms`` builds a polynomial from its {degree: coefficient} terms, the
way the published tables (tests/known_solutions.py) are written, and
``evaluate`` gives its value at an int or a Fraction.  The rest are the
slow, obvious forms of the library's integer shortcuts:
the sums of two fourth powers among a set of targets, by search's key sweep
and an exact membership test (``fourth_power_sums``), the equation as
written, four fourth powers and a product (``plain_equation``,
for ``exact.check_solution``'s Brahmagupta split), the Pell ladder one step at
a time (``pell3_ladder``), Horner's rule in Fraction arithmetic
(``fraction_horner``), a family's value cleared from reduced Fractions
(``clear_fractions``, ``fraction_evaluate_param``), and the text
``curve --m`` printed when it built every value as a reduced Fraction
(``curve_m_text``).  ``param_equivalent`` compares two families by their
canonical keys at the ``SAMPLES`` parameters.

``argparse_parser`` builds the CLI's commands with argparse: the reference
that the table parser (``cli.parse_args``) is compared against.
"""

import argparse
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from biquadrates import cli, derive, poly, search
from biquadrates.cli import _record
from biquadrates.curve import DegenerateCurveError, _extra_triple, _P_triple, multiple_P
from biquadrates.exact import DegenerateSolutionError, SolutionSix, canonicalize
from biquadrates.pell import PellSolution
from biquadrates.poly import IPoly, PoleError, content


# ---------------------------------------------------------------------------
# Z[M]: building and evaluating polynomials the way tests write them

def from_terms(terms: dict) -> IPoly:
    """The polynomial with a {degree: coefficient} mapping's terms."""
    if not terms:
        return IPoly(())
    cs = [0] * (max(terms) + 1)
    for k, c in terms.items():
        if k < 0:
            raise ValueError("negative exponent")
        cs[k] += c
    return IPoly(cs)


def evaluate(p: IPoly, x):
    """p's value at an int or Fraction x = a/b, ``IPoly.homogenized`` reduced once."""
    h, bd = p.homogenized(x.numerator, x.denominator)
    return h if bd == 1 else Fraction(h, bd)


# ---------------------------------------------------------------------------
# Q(M): rational functions in one variable

def _reduced(n: IPoly, d: IPoly, coprime: bool = False) -> "RatFn":
    """n/d, d nonzero, in RatFn's canonical form.

    The integer content is divided out and d's leading coefficient made
    positive; ``poly.poly_gcd`` runs only when n and d are both nonconstant
    and ``coprime`` does not already say their polynomial parts are coprime.
    """
    if n.is_zero:
        return RatFn._raw(IPoly(()), IPoly((1,)))
    if not coprime and n.degree > 0 and d.degree > 0:
        g = poly.poly_gcd(n, d)
        if g.degree > 0:
            n, d = n.exact_div(g), d.exact_div(g)
    c = gcd(content(n), content(d))
    c = -c if d.lc < 0 else c
    if c != 1:
        n = IPoly(tuple(x // c for x in n.coeffs))
        d = IPoly(tuple(x // c for x in d.coeffs))
    return RatFn._raw(n, d)


class RatFn:
    """Rational function num/den over Z in fully reduced canonical form.

    Invariant: den != 0 with positive leading coefficient, and num/den share
    no factor (their integer contents and polynomial parts are coprime), so
    two equal values are structurally identical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        n, d = self._coerce(num), self._coerce(den)
        if n is None or d is None:
            raise TypeError("cannot interpret %r/%r as a rational function" % (num, den))
        q = n * d.reciprocal()
        self.num, self.den = q.num, q.den

    @classmethod
    def _raw(cls, num: IPoly, den: IPoly) -> "RatFn":
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def gen(cls) -> "RatFn":
        return cls._raw(IPoly.gen(), IPoly((1,)))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def _is_const(self) -> bool:
        # with n/d reduced and p/q constant, no nonconstant factor of d*q
        # divides n*p or n*q + p*d: only integer content can cancel
        return self.num.degree <= 0 and self.den.degree == 0

    def _coerce(self, other) -> Optional["RatFn"]:
        if isinstance(other, RatFn):
            return other
        if isinstance(other, IPoly):
            return RatFn._raw(other, IPoly((1,)))
        if isinstance(other, (int, Fraction)):
            return RatFn._raw(IPoly((other.numerator,)), IPoly((other.denominator,)))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _reduced(self.num * o.den + o.num * self.den, self.den * o.den,
                        self._is_const or o._is_const)

    __radd__ = __add__

    def __neg__(self):
        return RatFn._raw(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o is self:  # num^2 and den^2 stay coprime, den^2 stays positive
            return RatFn._raw(self.num * self.num, self.den * self.den)
        return _reduced(self.num * o.num, self.den * o.den, self._is_const or o._is_const)

    __rmul__ = __mul__

    def reciprocal(self) -> "RatFn":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero rational function")
        n, d = self.den, self.num
        if d.lc < 0:
            n, d = -n, -d
        return RatFn._raw(n, d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("exponent must be an integer")
        if k < 0:
            return self.reciprocal() ** (-k)
        return RatFn._raw(self.num ** k, self.den ** k)

    def evaluate(self, x) -> Fraction:
        dv = evaluate(self.den, x)
        if dv == 0:
            raise PoleError("denominator vanishes at %s" % (x,))
        return Fraction(evaluate(self.num, x), 1) / dv

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num.coeffs == o.num.coeffs and self.den.coeffs == o.den.coeffs

    def __repr__(self):
        if self.den.degree == 0 and self.den.lc == 1:
            return "RatFn(%s)" % (self.num,)
        return "RatFn((%s)/(%s))" % (self.num, self.den)


# ---------------------------------------------------------------------------
# the affine chord-tangent law over Q and Q(M)

Element = Union[Fraction, IPoly, RatFn]


def _lift(v) -> Element:
    """An int as an element of Q; any other value (a polynomial too) as it is."""
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

    def __repr__(self):
        if self.infinity:
            return "CurvePoint(infinity)"
        return "CurvePoint(%s, %s)" % (self.x, self.y)


INFINITY = CurvePoint(infinity=True)


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

    def rhs(self, x: Element, d: Element = 1) -> Element:
        """x^3 + a2 x^2 d + a4 x d^2, which is d^3 rhs(x/d), with no division."""
        return x * (x * (x + self.a2 * d) + self.a4 * d * d)


def curve_from_parameter(M) -> WeierstrassCurve:
    """The curve with a2 = 1-4M, a4 = 32M, M = m^4, over Q, Z[M] or Q(M)."""
    M = _lift(M)
    return WeierstrassCurve(a2=1 - 4 * M, a4=32 * M)


def on_curve(c: WeierstrassCurve, p: CurvePoint) -> bool:
    """Whether the affine point p satisfies the curve equation exactly.

    Over Q(M), with x = n/d and y = a/b, it is a^2 d^3 = b^2 rhs(n, d),
    cross-multiplied over Z[M]: no quotient is formed and, with a2 and a4
    polynomials as ``curve_from_parameter`` makes them, no gcd is taken.
    Over Q and Z[M] it is y^2 = rhs(x).
    """
    if p.infinity:
        return True
    if isinstance(p.x, RatFn):
        (n, d), (a, b) = (p.x.num, p.x.den), (p.y.num, p.y.den)
        return a * a * d**3 == b * b * c.rhs(n, d)
    return p.y * p.y == c.rhs(p.x)


def _require_on_curve(c: WeierstrassCurve, p: CurvePoint):
    if not on_curve(c, p):
        raise ValueError("point %r is not on the curve" % (p,))


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


def _affine(phi, omega, z) -> CurvePoint:
    """The point (phi/z^2, omega/z^3) of a Jacobian triple."""
    zz = z * z
    return CurvePoint(phi / zz, omega / (zz * z))


def point_P(M) -> CurvePoint:
    """The base point (4(M-2)^2/9, 4(M-2)(2M^2-17M-10)/27), M = m^4, the
    affine image of ``curve._P_triple``: the group law starts from it."""
    return _affine(*_P_triple(_lift(M)))


def extra_point(M) -> CurvePoint:
    """The extra point 3R, with denominator (m^4+3m^2-2)(m^4-3m^2-2), the
    affine image of ``curve._extra_triple``."""
    return _affine(*_extra_triple(_lift(M)))


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


# ---------------------------------------------------------------------------
# the field route from nP to a solution

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
    return clear_fractions(*derive._solution_pairs(p, q, m, q * q * v))


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
                keys[sign] = canonicalize(clear_fractions(*pairs))
            except (DegenerateSolutionError, PoleError, derive.PipelineError):
                continue
        if len(keys) == 1:
            return next(iter(keys))
        if len(keys) == 2:
            return "minus" if keys["minus"] <= keys["plus"] else "plus"
    raise derive.PipelineError("no branch of nP gives a usable solution")


def fourth_power_sums(targets, coprime_to: int = 1) -> set:
    """The members of targets that are z1^4 + z2^4 for some 0 <= z1 <= z2.

    targets is a set or range of positive integers.  search's key sweep
    (looked up through the module, so a test that patches it reaches this
    too) gives the z-sums whose key n >> 4 is a target's, skipping the
    z-pairs whose gcd shares a prime with coprime_to, and the exact test
    keeps the targets among them.
    """
    return {n for n in search._key_sums({t >> 4 for t in targets}, coprime_to)
            if n in targets}


def plain_equation(s) -> bool:
    """(x1^4 + x2^4)(y1^4 + y2^4) == z1^4 + z2^4, expanded as written."""
    x1, x2, y1, y2, z1, z2 = s
    return (x1**4 + x2**4) * (y1**4 + y2**4) == z1**4 + z2**4


SAMPLES = (1, 2, 3, Fraction(1, 2), 5)


def param_equivalent(a, b) -> bool:
    """Whether two families give the same solution up to scaling and signs.

    Compares canonical keys at each sample parameter, skipping values where
    either family degenerates; at least one comparison must succeed.
    """
    compared = 0
    for m0 in SAMPLES:
        try:
            ka = canonicalize(derive.evaluate_param(a, m0))
            kb = canonicalize(derive.evaluate_param(b, m0))
        except DegenerateSolutionError:
            continue
        if ka != kb:
            return False
        compared += 1
    return compared > 0


def pell3_ladder(k: int) -> PellSolution:
    """The k-th rung of the Pell ladder, k - 1 steps up from (2, 1)."""
    u, v = 2, 1
    for _ in range(k - 1):
        u, v = 2 * u + 3 * v, u + 2 * v
    return PellSolution(u, v)


def clear_fractions(xpair, ypair, zpair) -> SolutionSix:
    """Scale rational pairs to integers by the scaling action, one reduced
    Fraction at a time: what ``derive._clear_to_solution`` does in integers."""
    if all(v == 0 for v in xpair) or all(v == 0 for v in ypair):
        raise DegenerateSolutionError("pair evaluated to (0, 0)")
    k1 = lcm(*(v.denominator for v in xpair))
    k2 = lcm(*(v.denominator for v in ypair))
    k1 *= lcm(*((v * k1 * k2).denominator for v in zpair))
    vals = [int(v * k1) for v in xpair] + [int(v * k2) for v in ypair]
    vals += [int(v * k1 * k2) for v in zpair]
    return SolutionSix(*vals)


def fraction_evaluate_param(ps, m0) -> SolutionSix:
    """``derive.evaluate_param(ps, m0, check=False)`` by the Fraction route:
    each entry's value as a reduced Fraction (``evaluate``), cleared by
    ``clear_fractions``."""
    m0 = Fraction(m0)
    vals = [evaluate(p, m0) for p in ps.polys()]
    return clear_fractions(vals[0:2], vals[2:4], vals[4:6])


def fraction_horner(coeffs, x) -> Fraction:
    """P(x) for P's coefficients, lowest first, by Horner's rule over Q."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def curve_m_text(n: int, m: Fraction, sign: str, as_json: bool = False) -> str:
    """What ``curve --n n --m m`` writes to stdout, each value built as a
    reduced Fraction and cleared by ``clear_fractions``.

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
        sol = clear_fractions(*derive._solution_pairs(p, q, m, s))
        return out + _record(sol, "curve_nP", m, as_json) + "\n"
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        return out


# ---------------------------------------------------------------------------
# The command line, as argparse reads it

def argparse_parser() -> argparse.ArgumentParser:
    """The CLI's parser as argparse built it, handlers bound as ``func``."""
    parser = argparse.ArgumentParser(
        prog="biquadrates",
        description="Products of sums of two fourth powers that are again "
                    "sums of two fourth powers: search, verify, derive.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check six integers against the equation")
    p.add_argument("values", nargs=6, type=int, metavar="N")
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("search", help="enumerate solutions within bounds")
    p.add_argument("--bx", type=int, required=True, help="largest x2")
    p.add_argument("--by", type=int, required=True, help="largest y2")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_search)

    p = sub.add_parser("family", help="evaluate or print a published family")
    p.add_argument("name", choices=tuple(sorted(derive.FAMILIES)))
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--param", type=cli.fraction, metavar="a/b")
    mode.add_argument("--symbolic", action="store_true")
    p.add_argument("--descending", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_family)

    p = sub.add_parser("curve", help="derive a solution from a curve multiple")
    p.add_argument("--n", type=cli.positive, required=True,
                   help="which multiple of the base point")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--m", type=cli.fraction, metavar="a/b")
    mode.add_argument("--symbolic", action="store_true")
    p.add_argument("--sign", choices=("auto", "plus", "minus"), default="auto",
                   help="branch: nP (plus, the family of jR for the odd "
                        "j=2n+1) or -nP (minus, the even j=2n); auto is the "
                        "lower-degree branch, minus")
    p.add_argument("--descending", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_curve)

    p = sub.add_parser("pell", help="solutions from the Pell ladder or slice")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--k", type=cli.positive, help="ladder index")
    mode.add_argument("--t", type=cli.fraction, metavar="a/b",
                      help="rational slice parameter")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cli.cmd_pell)

    p = sub.add_parser("selftest", help="run the symbolic verifier suite")
    p.add_argument("--quick", action="store_true",
                   help="skip the high-multiple degree check")
    p.set_defaults(func=cli.cmd_selftest)

    return parser
