"""Dense univariate integer polynomials and their quotient field.

``IPoly`` is its tuple of coefficients, ascending over plain ``int``; it
names no variable (``format_poly`` takes the name when printing).  All
arithmetic is exact.  Multiplication switches to Kronecker substitution (pack
the coefficients into one big integer, multiply, unpack balanced digits) once
operands are large, which keeps degree-several-hundred products cheap.

``poly_gcd`` has one route.  For primitive A, B, a gcd of the images
modulo a prime below 2**30 (one CPython int digit, so its residues take the
single-digit fast paths) proves coprimality when it is constant.  Otherwise
GCDHEU (Char, Geddes and Gonnet, "GCDHEU: Heuristic polynomial GCD algorithm
based on integer GCD computation", J. Symbolic Comp. 7, 1989) unpacks the
balanced base-xi digits h of gamma = gcd(A(xi), B(xi)), xi = 2**w, with the
Kronecker codec, and returns cand = pp(h) once exact trial division shows
that cand divides A and B; if not, w grows to at least 2w + 1.  The codec
works in whole bytes, so every w is a multiple of 8; the proofs below need
only the lower bounds and the unbounded growth.
* No undershoot.  w starts at >= bitlen(max(|A|_inf, |B|_inf)) + 3, so
  xi > 2|A|_inf + 2.  If cand divides A and B, write gcd(A, B) = cand * k.
  Then k(xi) divides the content c of h, 0 < |c| <= xi/2, and each root of k
  is a root of A, so of modulus < 1 + |A|_inf <= xi/2 (Cauchy bound).  If
  deg k >= 1, then |k(xi)| > (xi/2)**deg k >= |c|, too big to divide c.  So
  k = 1, cand is the gcd, and a constant cand proves the gcd is 1.
* Termination.  With A = G*A' and B = G*B', gamma = delta*|G(xi)|, where
  delta = gcd(A'(xi), B'(xi)) divides Res(A', B') != 0 (delta = 1 if A' or B'
  is +-1).  Once xi > 2|Res|*|G|_inf the balanced digits of gamma are
  +-delta*G, so cand = G; w grows without bound, so the loop ends.

``RatFn`` is the field of rational functions in one variable (Q(M) in the
curve pipeline): quotients kept fully reduced (polynomial part
and integer content both coprime, denominator with positive leading
coefficient), so equality is structural.  ``monic_at`` evaluates a monic
polynomial over Z[M] at a reduced quotient with no gcd: its homogenised
Horner sum is reduced already.
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

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("integer coefficients required, got %r" % (c,))
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c: int) -> "IPoly":
        return cls((c,))

    @classmethod
    def gen(cls) -> "IPoly":
        """The polynomial equal to the variable itself."""
        return cls((0, 1))

    @classmethod
    def from_terms(cls, terms: dict) -> "IPoly":
        """Build from a {degree: coefficient} mapping."""
        if not terms:
            return cls(())
        cs = [0] * (max(terms) + 1)
        for k, c in terms.items():
            if k < 0:
                raise ValueError("negative exponent")
            cs[k] += c
        return cls(cs)

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

    def _coerce(self, other) -> Optional["IPoly"]:
        if isinstance(other, IPoly):
            return other
        if isinstance(other, int):
            return IPoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return IPoly(cs)

    __radd__ = __add__

    def __neg__(self):
        return IPoly(tuple(-c for c in self.coeffs))

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
        return IPoly(_mul_coeffs(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = IPoly((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __truediv__(self, other):
        """The reduced quotient in Q(M), the field of fractions."""
        return RatFn(self, other)

    def exact_div(self, other: "IPoly") -> "IPoly":
        """Quotient self/other when the division is exact over Z; else raises."""
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot divide by %r" % (other,))
        return IPoly(_exact_div_coeffs(self.coeffs, o.coeffs))

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
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "IPoly(%r)" % (list(self.coeffs),)

    def __str__(self):
        return format_poly(self)


def format_poly(p: IPoly, var: str = "m", descending: bool = False) -> str:
    """Sparse human-readable form in ``var``, e.g. ``4 + 6*m^2 - m^3``.

    ``var`` is the one place a variable is named; ``descending`` reverses
    the ascending term order.
    """
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
            body = "%s%s" % (head, var) if k == 1 else "%s%s^%d" % (head, var, k)
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


def _whole_bytes(bits: int) -> int:
    """The least multiple of 8 that is at least bits: the codec's widths."""
    return (bits + 7) & -8


def _pack(cs, width: int) -> int:
    """sum(cs[i] << (i*width)) -- also the value of the polynomial at 2**width.

    width is a multiple of 8 and every |cs[i]| < 2**width: the positive
    parts and the negated negative parts are joined as little-endian bytes.
    """
    nb = width >> 3
    zero = bytes(nb)
    pos = b"".join([c.to_bytes(nb, "little") if c > 0 else zero for c in cs])
    neg = b"".join([zero if c >= 0 else (-c).to_bytes(nb, "little") for c in cs])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(v: int, width: int, n: int) -> list:
    """Recover n balanced base-2**width digits of v; the inverse of _pack."""
    nb = width >> 3
    half = 1 << (width - 1)
    # every digit shifted into [0, 2**width)
    u = v + int.from_bytes(half.to_bytes(nb, "little") * n, "little")
    if u < 0 or u >> (n * width):
        raise AssertionError("unpack width too small")
    bs = u.to_bytes(n * nb, "little")
    return [int.from_bytes(bs[i:i + nb], "little") - half for i in range(0, n * nb, nb)]


def _kronecker_mul(a: tuple, b: tuple) -> tuple:
    amax = max(map(abs, a))
    bmax = amax if a is b else max(map(abs, b))
    bound = amax * bmax * min(len(a), len(b))
    width = _whole_bytes(bound.bit_length() + 2)
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
    return IPoly(tuple(x // c for x in p.coeffs))


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


def poly_gcd(a: IPoly, b: IPoly) -> IPoly:
    """Primitive gcd with positive leading coefficient (contents discarded)."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return _positive(primitive_part(b))
    if b.is_zero:
        return _positive(primitive_part(a))
    A = primitive_part(a)
    B = primitive_part(b)
    if (A.degree == 0 or B.degree == 0
            or _mod_gcd_degree(A.coeffs, B.coeffs, _SCREEN_PRIME) == 0):
        return IPoly((1,))
    norm = max(max(map(abs, A.coeffs)), max(map(abs, B.coeffs)))
    w = _whole_bytes(norm.bit_length() + 3)
    while True:
        g = gcd(_pack(A.coeffs, w), _pack(B.coeffs, w))
        # one spare digit: the balanced top digit may carry into a new one
        cand = _positive(primitive_part(IPoly(_unpack(g, w, g.bit_length() // w + 2))))
        if cand.degree == 0 or (divides(cand, A) and divides(cand, B)):
            return cand
        w = _whole_bytes(2 * w + 1)


def _positive(p: IPoly) -> IPoly:
    return -p if p.lc < 0 else p


# ---------------------------------------------------------------------------
# rational functions

def _full_gcd(p: IPoly, q: IPoly) -> IPoly:
    """gcd in Z[m] including integer content, positive leading coefficient."""
    c = gcd(content(p), content(q))
    if p.degree == 0 or q.degree == 0:
        return IPoly.const(c)
    g = poly_gcd(p, q)
    return g if c == 1 else IPoly.const(c) * g


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
        if self.is_zero:
            return o
        if o.is_zero:
            return self
        g = _full_gcd(self.den, o.den)
        if g.degree == 0 and g.lc == 1:
            n = self.num * o.den + o.num * self.den
            if n.is_zero:
                return RatFn._raw(IPoly(()), IPoly((1,)))
            return RatFn._raw(n, self.den * o.den)
        b2 = self.den.exact_div(g)
        d2 = o.den.exact_div(g)
        t = self.num * d2 + o.num * b2
        if t.is_zero:
            return RatFn._raw(IPoly(()), IPoly((1,)))
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
            return RatFn._raw(IPoly(()), IPoly((1,)))
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
        return self.num.coeffs == o.num.coeffs and self.den.coeffs == o.den.coeffs

    def __hash__(self):
        return hash((self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        if self.den.degree == 0 and self.den.lc == 1:
            return "RatFn(%s)" % (self.num,)
        return "RatFn((%s)/(%s))" % (self.num, self.den)


def monic_at(coeffs, x: RatFn) -> RatFn:
    """P(x) for monic P = X^k + coeffs[k-1] X^(k-1) + ... + coeffs[0] over Z[M].

    coeffs are ints, IPolys, or elements of Q(M) that are polynomials (a
    TypeError otherwise).  With x = n/d reduced, homogenised Horner gives
    N = d^k P(n/d) in Z[M], and N - n^k = d * sum(coeffs[i] n^i d^(k-1-i)),
    so N = n^k (mod d).  Z[M] has unique factorisation; its primes are the
    integer primes and the primitive polynomials irreducible over Q.  A
    prime dividing d^k and N divides d, so N - n^k, so n^k, so n; but n and
    d are coprime in Z[M] (their contents and their polynomial parts are).
    So N/d^k is already reduced, contents included, and d^k has d's
    positive leading coefficient: no gcd of any kind is taken.  The result
    is Horner in Q(M), coefficient for coefficient, since the reduced form
    is unique.
    """
    cs = [x._coerce(c) for c in coeffs]
    if not cs or any(c is None or c.den.coeffs != (1,) for c in cs):
        raise TypeError("need k >= 1 coefficients, each a polynomial over Z")
    n, d = x.num, x.den
    acc, dk = n + cs[-1].num * d, d
    for c in reversed(cs[:-1]):
        dk = dk * d
        acc = acc * n + c.num * dk
    return RatFn._raw(acc, dk if acc.coeffs else IPoly((1,)))
