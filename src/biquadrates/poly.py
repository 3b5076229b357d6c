"""Dense univariate integer polynomials and their quotient field.

``IPoly`` stores coefficients ascending over plain ``int``; all arithmetic
is exact.  Multiplication switches to Kronecker substitution (pack the
coefficients into one big integer, multiply, unpack balanced digits) once
operands are large, which keeps degree-several-hundred products cheap.

A polynomial whose nonzero exponents are r, r + g, r + 2g, ... is
m^r * P(m^g) for a g-times-shorter P (the curve family's coordinates are
functions of m^4, so g = 4 there).  Kronecker products, exact divisions
past the schoolbook size, and every gcd run on P and spread the result back: m^ra P(m^g) * m^rb Q(m^g) = m^(ra+rb) (PQ)(m^g), the quotient
is m^(ra-rb) (P/Q)(m^g) when ra >= rb, and with P(0) * Q(0) != 0,
gcd(m^ra P(m^g), m^rb Q(m^g)) = m^min(ra,rb) * gcd(P, Q)(m^g), because
gcd(P(x^g), Q(x^g)) = gcd(P, Q)(x^g) (von zur Gathen and Gerhard, *Modern
Computer Algebra*).  Gcds are unique after normalization, so the results
are the dense ones exactly.

``poly_gcd`` certifies coprimality with a single gcd computation modulo a
prime, then tries an evaluation/reconstruction gcd at xi = 2**w
(Char-Geddes-Gonnet GCDHEU; the gcd of the two packed values is unpacked
by the same balanced-digit codec as Kronecker products, and verified by
exact trial division, so a wrong guess can only cost a retry).  Inputs of
every size take this route; a primitive pseudo-remainder sequence runs
only when the heuristic gives up.  Every returned gcd is exact; the
heuristics only affect speed.  The screen prime is below 2**30, one CPython
int digit, so its residues take the single-digit fast paths.

``RatFn`` is the field Q(m): quotients kept fully reduced (polynomial part
and integer content both coprime, denominator with positive leading
coefficient), so equality is structural.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Iterable, Optional


class ExactDivisionError(ArithmeticError):
    """Polynomial division that was required to be exact left a remainder."""


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a zero of its denominator."""


class IPoly:
    """Univariate polynomial over Z, coefficients ascending.

    Trailing zeros are stripped, so the zero polynomial has an empty
    coefficient tuple and degree -1.  Instances are immutable.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[int] = (), var: str = "m"):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("integer coefficients required, got %r" % (c,))
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def const(cls, c: int, var: str = "m") -> "IPoly":
        return cls((c,), var)

    @classmethod
    def gen(cls, var: str = "m") -> "IPoly":
        """The polynomial equal to the variable itself."""
        return cls((0, 1), var)

    @classmethod
    def from_terms(cls, terms: dict, var: str = "m") -> "IPoly":
        """Build from a {degree: coefficient} mapping."""
        if not terms:
            return cls((), var)
        cs = [0] * (max(terms) + 1)
        for k, c in terms.items():
            if k < 0:
                raise ValueError("negative exponent")
            cs[k] += c
        return cls(cs, var)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def _join_var(self, other: "IPoly") -> str:
        if self.var == other.var:
            return self.var
        if len(other.coeffs) <= 1:
            return self.var
        if len(self.coeffs) <= 1:
            return other.var
        raise ValueError("mixed variables %r and %r" % (self.var, other.var))

    def _coerce(self, other) -> Optional["IPoly"]:
        if isinstance(other, IPoly):
            return other
        if isinstance(other, int):
            return IPoly((other,), self.var)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        var = self._join_var(o)
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return IPoly(cs, var)

    __radd__ = __add__

    def __neg__(self):
        return IPoly(tuple(-c for c in self.coeffs), self.var)

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
        var = self._join_var(o)
        return IPoly(_mul_coeffs(self.coeffs, o.coeffs), var)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = IPoly((1,), self.var)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def exact_div(self, other: "IPoly") -> "IPoly":
        """Quotient self/other when the division is exact over Z; else raises."""
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot divide by %r" % (other,))
        var = self._join_var(o)
        return IPoly(_exact_div_coeffs(self.coeffs, o.coeffs), var)

    def evaluate(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.coeffs != o.coeffs:
            return False
        return len(self.coeffs) <= 1 or self.var == o.var

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "IPoly(%r, %r)" % (list(self.coeffs), self.var)

    def __str__(self):
        return format_poly(self)


def format_poly(p: IPoly, descending: bool = False) -> str:
    """Sparse human-readable form, e.g. ``4 + 6*m^2 - m^3``."""
    if p.is_zero:
        return "0"
    terms = []
    ks = range(len(p.coeffs))
    for k in (reversed(ks) if descending else ks):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else "%d*" % mag
            body = "%s%s" % (head, p.var) if k == 1 else "%s%s^%d" % (head, p.var, k)
        terms.append((c < 0, body))
    out = []
    for i, (neg, body) in enumerate(terms):
        if i == 0:
            out.append("-" + body if neg else body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


# ---------------------------------------------------------------------------
# coefficient-level arithmetic

_SCHOOLBOOK_LIMIT = 1600


def _mul_coeffs(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if len(a) * len(b) <= _SCHOOLBOOK_LIMIT:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return tuple(out)
    # a square (a is b) compresses and packs one operand: the product squares
    ra, ga = _stride(a)
    rb, gb = (ra, ga) if a is b else _stride(b)
    g = gcd(ga, gb)
    if g > 1:
        pa = a[ra::g]
        pb = pa if a is b else b[rb::g]
        return _spread(_mul_coeffs(pa, pb), ra + rb, g)
    return _kronecker_mul(a, b)


def _stride(cs: tuple) -> tuple:
    """(r, g) with cs = m^r * P(m^g), P(0) != 0; g = 0 for a monomial.

    r is the lowest exponent with a nonzero coefficient and g the gcd of the
    gaps between such exponents; cs must be nonzero.
    """
    exps = compress(range(len(cs)), cs)
    r = next(exps)
    g = 0
    for e in exps:
        g = gcd(g, e - r)
        if g == 1:
            break
    return r, g


def _spread(cs: tuple, r: int, g: int) -> tuple:
    """Coefficients of m^r * P(m^g) from those of P; the inverse of _stride."""
    out = [0] * (r + g * (len(cs) - 1) + 1)
    out[r::g] = cs
    return tuple(out)


def _pack(cs, width: int) -> int:
    """sum(cs[i] << (i*width)) -- also the value of the polynomial at 2**width."""
    n = len(cs)
    if n == 1:
        return cs[0]
    h = n // 2
    return _pack(cs[:h], width) + (_pack(cs[h:], width) << (h * width))


def _unpack(v: int, width: int, n: int) -> list:
    """Recover n balanced base-2**width digits of v; the inverse of _pack."""
    half = 1 << (width - 1)
    u = v + _pack((half,) * n, width)  # every digit shifted into [0, 2**width)
    if u < 0 or u >> (n * width):
        raise AssertionError("unpack width too small")
    return [d - half for d in _split(u, width, n)]


def _split(u: int, width: int, n: int) -> list:
    """The n base-2**width digits of u >= 0, halving as _pack joins."""
    if n == 1:
        return [u]
    h = n // 2
    lo = u & ((1 << (h * width)) - 1)
    return _split(lo, width, h) + _split(u >> (h * width), width, n - h)


def _kronecker_mul(a: tuple, b: tuple) -> tuple:
    amax = max(map(abs, a))
    bmax = amax if a is b else max(map(abs, b))
    bound = amax * bmax * min(len(a), len(b))
    width = bound.bit_length() + 2
    pa = _pack(a, width)
    prod = pa * pa if a is b else pa * _pack(b, width)
    return tuple(_unpack(prod, width, len(a) + len(b) - 1))


def _exact_div_coeffs(a: tuple, b: tuple) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    if len(a) < len(b):
        raise ExactDivisionError("degree of divisor exceeds degree of dividend")
    if len(b) * (len(a) - len(b) + 1) > _SCHOOLBOOK_LIMIT:
        ra, ga = _stride(a)
        rb, gb = _stride(b)
        g = gcd(ga, gb)
        if g > 1 and ra >= rb:
            return _spread(_exact_div_coeffs(a[ra::g], b[rb::g]), ra - rb, g)
    r = list(a)
    lb = b[-1]
    nb = len(b)
    qn = len(a) - nb + 1
    q = [0] * qn
    for k in range(qn - 1, -1, -1):
        top = r[k + nb - 1]
        if top == 0:
            continue
        qq, rem = divmod(top, lb)
        if rem:
            raise ExactDivisionError("leading coefficient does not divide")
        q[k] = qq
        for j in range(nb):
            r[k + j] -= qq * b[j]
    if any(r):
        raise ExactDivisionError("nonzero remainder")
    return tuple(q)


# ---------------------------------------------------------------------------
# content, gcd, square root

def content(p: IPoly) -> int:
    """gcd of the coefficients (nonnegative); 0 for the zero polynomial."""
    g = 0
    for c in p.coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def primitive_part(p: IPoly) -> IPoly:
    """p divided by its content; keeps the sign of the leading coefficient."""
    c = content(p)
    if c == 0:
        raise ValueError("zero polynomial has no primitive part")
    if c == 1:
        return p
    return IPoly(tuple(x // c for x in p.coeffs), p.var)


def divides(d: IPoly, p: IPoly) -> bool:
    """True if d divides p exactly over Z."""
    try:
        p.exact_div(d)
        return True
    except (ExactDivisionError, ZeroDivisionError):
        return False


_SCREEN_PRIME = 1073741789  # the largest prime below 2**30


def _mod_gcd_degree(ac: tuple, bc: tuple, p: int) -> Optional[int]:
    """Degree of gcd of the images mod p, or None if a leading coeff vanishes."""
    if ac[-1] % p == 0 or bc[-1] % p == 0:
        return None
    a = [c % p for c in ac]
    b = [c % p for c in bc]
    while b:
        db = len(b) - 1
        inv = pow(b[-1], -1, p)
        r = list(a)
        for k in range(len(r) - 1, db - 1, -1):
            c = r[k]
            if c:
                f = (c * inv) % p
                off = k - db
                for j in range(db):
                    r[off + j] = (r[off + j] - f * b[j]) % p
        del r[db:]
        while r and r[-1] == 0:
            r.pop()
        a, b = b, r
    return len(a) - 1


def _heu_gcd_attempt(a: IPoly, b: IPoly, max_tries: int = 4) -> Optional[IPoly]:
    """Evaluation gcd at 2**w with trial-division verification.

    Returns a verified common divisor (frequently the full gcd) or None.
    A constant candidate comes back as 1: it divides both inputs and
    2**w > 2*norm + 2, so by the GCDHEU lemma the gcd is 1.
    """
    var = a.var if a.degree > 0 else b.var
    norm = max(max(map(abs, a.coeffs)), max(map(abs, b.coeffs)))
    w = norm.bit_length() + 3
    for _ in range(max_tries):
        g = gcd(_pack(a.coeffs, w), _pack(b.coeffs, w))
        # one spare digit: the balanced top digit may carry into a new one
        cand = IPoly(_unpack(g, w, g.bit_length() // w + 2), var)
        if not cand.is_zero:
            cand = _positive(primitive_part(cand))
            if cand.degree == 0 or (divides(cand, a) and divides(cand, b)):
                return cand
        w = 2 * w + 1
    return None


def _prem_coeffs(a: tuple, b: tuple) -> list:
    """Pseudo-remainder of a by b, up to a scalar; content stripped periodically."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    steps = 0
    while len(r) - 1 >= db and r:
        t = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r[:-1]]
        for j in range(db):
            r[shift + j] -= t * b[j]
        while r and r[-1] == 0:
            r.pop()
        steps += 1
        if steps % 8 == 0 and r:
            g = content(IPoly(r))
            if g > 1:
                r = [c // g for c in r]
    return r


def _prs_gcd(a: IPoly, b: IPoly) -> IPoly:
    """Primitive pseudo-remainder sequence; a, b primitive, deg a >= deg b >= 1."""
    var = a.var
    ac, bc = a.coeffs, b.coeffs
    while bc:
        rc = _prem_coeffs(ac, bc)
        ac, bc = bc, tuple(primitive_part(IPoly(rc, var)).coeffs) if rc else ()
    return IPoly(ac, var)


def poly_gcd(a: IPoly, b: IPoly) -> IPoly:
    """Primitive gcd with positive leading coefficient (contents discarded)."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    var = a._join_var(b)
    if a.is_zero:
        return _positive(primitive_part(b))
    if b.is_zero:
        return _positive(primitive_part(a))
    A = primitive_part(a)
    B = primitive_part(b)
    # A = m^ra * P(m^g), B = m^rb * Q(m^g) with P(0) * Q(0) != 0, so
    # gcd(A, B) = m^min(ra, rb) * gcd(P, Q)(m^g)
    ra, ga = _stride(A.coeffs)
    rb, gb = _stride(B.coeffs)
    g = gcd(ga, gb) or 1
    G = _primitive_gcd(IPoly(A.coeffs[ra::g], var), IPoly(B.coeffs[rb::g], var))
    return IPoly(_spread(G.coeffs, min(ra, rb), g), var)


def _primitive_gcd(A: IPoly, B: IPoly) -> IPoly:
    """poly_gcd of primitive A, B: mod-p screen, then heuristic, then PRS."""
    one = IPoly((1,), A.var)
    if A.degree == 0 or B.degree == 0:
        return one
    if A.degree < B.degree:
        A, B = B, A
    if _mod_gcd_degree(A.coeffs, B.coeffs, _SCREEN_PRIME) == 0:
        return one
    cand = _heu_gcd_attempt(A, B)
    if cand is not None:
        if cand.degree == 0:
            return cand
        # cand is a certified common divisor; recurse on cofactors so the
        # result is the full gcd even if the heuristic undershot.
        rest = poly_gcd(A.exact_div(cand), B.exact_div(cand))
        return _positive(cand * rest)
    return _positive(_prs_gcd(A, B))


def _positive(p: IPoly) -> IPoly:
    return -p if p.lc < 0 else p


# ---------------------------------------------------------------------------
# rational functions

def _full_gcd(p: IPoly, q: IPoly) -> IPoly:
    """gcd in Z[var] including integer content, positive leading coefficient."""
    c = gcd(content(p), content(q))
    g = poly_gcd(p, q)
    return g if c == 1 else IPoly.const(c, g.var) * g


class RatFn:
    """Rational function num/den over Z in fully reduced canonical form.

    Invariant: den != 0 with positive leading coefficient, and num/den share
    no factor (their integer contents and polynomial parts are coprime), so
    two equal values are structurally identical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        n = _as_poly(num)
        d = _as_poly(den, like=n)
        n, d = _reduce_pair(n, d)
        self.num = n
        self.den = d

    @classmethod
    def _raw(cls, num: IPoly, den: IPoly) -> "RatFn":
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def gen(cls, var: str = "m") -> "RatFn":
        return cls._raw(IPoly.gen(var), IPoly((1,), var))

    @property
    def var(self) -> str:
        return self.num.var if self.num.degree > 0 else self.den.var

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _coerce(self, other) -> Optional["RatFn"]:
        if isinstance(other, RatFn):
            return other
        if isinstance(other, IPoly):
            return RatFn._raw(other, IPoly((1,), other.var))
        if isinstance(other, int):
            return RatFn._raw(IPoly((other,), self.var), IPoly((1,), self.var))
        if isinstance(other, Fraction):
            num, den = other.numerator, other.denominator
            return RatFn._raw(IPoly((num,), self.var), IPoly((den,), self.var))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        g = _full_gcd(self.den, o.den)
        if g.degree == 0 and g.lc == 1:
            n = self.num * o.den + o.num * self.den
            if n.is_zero:
                return RatFn._raw(IPoly((), n.var), IPoly((1,), n.var))
            return RatFn._raw(n, self.den * o.den)
        b2 = self.den.exact_div(g)
        d2 = o.den.exact_div(g)
        t = self.num * d2 + o.num * b2
        if t.is_zero:
            return RatFn._raw(IPoly((), t.var), IPoly((1,), t.var))
        h = _full_gcd(t, g)
        if h.degree == 0 and h.lc == 1:
            return RatFn._raw(t, b2 * o.den)
        return RatFn._raw(t.exact_div(h), b2 * o.den.exact_div(h))

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
        if self.is_zero or o.is_zero:
            var = self.var
            return RatFn._raw(IPoly((), var), IPoly((1,), var))
        if o is self:  # num^2 and den^2 stay coprime, den^2 stays positive
            return RatFn._raw(self.num * self.num, self.den * self.den)
        g1 = _full_gcd(self.num, o.den)
        g2 = _full_gcd(o.num, self.den)
        n = self.num.exact_div(g1) * o.num.exact_div(g2)
        d = self.den.exact_div(g2) * o.den.exact_div(g1)
        return RatFn._raw(n, d)

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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ValueError("exponent must be an integer")
        if k < 0:
            return self.reciprocal() ** (-k)
        return RatFn._raw(self.num ** k, self.den ** k)

    def evaluate(self, x) -> Fraction:
        dv = self.den.evaluate(x)
        if dv == 0:
            raise PoleError("denominator vanishes at %s" % (x,))
        return Fraction(self.num.evaluate(x), 1) / dv

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.num.coeffs == o.num.coeffs and self.den.coeffs == o.den.coeffs
                and (self.var == o.var
                     or (self.num.degree <= 0 and self.den.degree <= 0)))

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        if self.den.degree == 0 and self.den.lc == 1:
            return "RatFn(%s)" % (self.num,)
        return "RatFn((%s)/(%s))" % (self.num, self.den)


def _as_poly(v, like: Optional[IPoly] = None) -> IPoly:
    if isinstance(v, IPoly):
        return v
    if isinstance(v, int):
        return IPoly((v,), like.var if like is not None else "m")
    raise TypeError("cannot interpret %r as a polynomial" % (v,))


def _reduce_pair(n: IPoly, d: IPoly) -> tuple:
    if d.is_zero:
        raise ZeroDivisionError("zero denominator")
    var = n._join_var(d)
    if n.is_zero:
        return IPoly((), var), IPoly((1,), var)
    g = _full_gcd(n, d)
    if g.degree > 0 or g.lc > 1:
        n = n.exact_div(g)
        d = d.exact_div(g)
    if d.lc < 0:
        n, d = -n, -d
    return n, d
