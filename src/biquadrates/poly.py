"""Dense univariate integer polynomials.

``IPoly`` is its tuple of coefficients, ascending over plain ``int``; it names
no variable (``format_poly`` takes the name when printing).  All arithmetic is
exact.  Z[M] is closed: ``IPoly`` has no ``/``, so code that would leave it
raises TypeError, and a quotient that must be exact goes through ``exact_div``.

Products switch to Kronecker substitution once the operand lengths' product
passes 400, its measured crossover, and this module alone knows its packed
format.  At a width W, a multiple of 8 (``_width_above``), ``_pack`` maps
coefficients c_i to sum(c_i 2^(iW)), the value at 2^W, and ``_pack_pm`` gives
the values at +-2^W: ring maps, on which sums, products and exact quotients
run.  While every |c_i| < 2^(W-1), the c_i are the balanced base-2^W digits
that ``_unpack`` recovers.  Each caller bounds its coefficients and passes the
bound's bit length: ``_kronecker_mul``, ``curve``'s ladder and ``derive``'s
zero test (D. Harvey, J. Symbolic Comput. 44, 2009).

``poly_gcd`` is the primitive polynomial remainder sequence (W. S. Brown,
"On Euclid's algorithm and the computation of polynomial greatest common
divisors", J. ACM 18, 1971).  No command takes one.  It stays because
perfbench's tracer patches ``poly.poly_gcd`` by name, and the tests'
rational functions over Q(M) (tests/oracles.py) reduce through it.
"""

from __future__ import annotations

from math import gcd
from operator import add, neg, sub

from biquadrates.exact import PoleError


class ExactDivisionError(ArithmeticError):
    """Polynomial division that was required to be exact left a remainder."""


class IPoly:
    """Univariate polynomial over Z, coefficients ascending.

    Trailing zeros are stripped, so the zero polynomial has an empty
    coefficient tuple and degree -1.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError("integer coefficients required, got %r" % (c,))
        self.coeffs = tuple(cs)

    @classmethod
    def gen(cls) -> "IPoly":
        """The polynomial equal to the variable itself."""
        return cls((0, 1))

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

    def _coerce(self, other) -> IPoly | None:
        if isinstance(other, IPoly):
            return other
        if isinstance(other, int):
            return _ipoly((other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        return _ipoly([*map(add, a, b), *a[len(b):], *b[len(a):]])

    __radd__ = __add__

    def __neg__(self):
        return _ipoly(tuple(map(neg, self.coeffs)))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        return _ipoly([*map(sub, a, b), *a[len(b):], *map(neg, b[len(a):])])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, int):
            # a scalar scales each coefficient; only 0 makes a zero one
            return _ipoly(tuple(map(other.__mul__, self.coeffs)) if other else ())
        if not isinstance(other, IPoly):
            return NotImplemented
        # int coefficients, the top one lc(a) lc(b) != 0
        return _ipoly(_mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = _ipoly((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def exact_div(self, other: "IPoly") -> "IPoly":
        """Quotient self/other when the division is exact over Z; else raises.

        A constant divisor (an int or a degree-0 IPoly) divides each
        coefficient in one pass; 1 and -1 give self and -self.
        """
        o = self._coerce(other)
        if o is None:
            raise TypeError("cannot divide by %r" % (other,))
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if o.coeffs == (1,):
            return self
        if o.coeffs == (-1,):
            return -self
        if len(o.coeffs) == 1:
            c, q = o.coeffs[0], []
            for a in self.coeffs:
                qa, r = divmod(a, c)
                if r:
                    raise ExactDivisionError("nonzero remainder")
                q.append(qa)
            return _ipoly(q)
        if self.is_zero:
            return self
        if self.degree < o.degree:
            raise ExactDivisionError("degree of divisor exceeds degree of dividend")
        q, r = _divide(self.coeffs, o.coeffs)
        if any(r):
            raise ExactDivisionError("nonzero remainder")
        return _ipoly(q)

    def homogenized(self, a: int, b: int) -> tuple:
        """(b^d P(a/b), b^d), d the degree (0 for zero), by Horner's rule over Z."""
        acc, bj = 0, 1
        for c in reversed(self.coeffs):
            acc, bj = acc * a + c * bj, bj * b
        return acc, bj // b or 1

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


def _ipoly(cs) -> IPoly:
    """``IPoly(cs)`` for a list or tuple of ints, without the type checks."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    p = IPoly.__new__(IPoly)
    p.coeffs = tuple(cs[:n])
    return p


def format_poly(p: IPoly, var: str = "m", descending: bool = False) -> str:
    """Sparse human-readable form in ``var``, e.g. ``4 + 6*m^2 - m^3``.

    ``var`` is the one place a variable is named; ``descending`` reverses
    the ascending term order.
    """
    cs = p.coeffs
    out = []
    for k in (range(len(cs) - 1, -1, -1) if descending else range(len(cs))):
        c = cs[k]
        if c:
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                body = var if k == 1 else "%s^%d" % (var, k)
                if mag != 1:
                    body = "%d*%s" % (mag, body)
            if out:
                out.append(("- " if c < 0 else "+ ") + body)
            else:
                out.append("-" + body if c < 0 else body)
    return " ".join(out) or "0"


# ---------------------------------------------------------------------------
# coefficient-level arithmetic

_SCHOOLBOOK_LIMIT = 400


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


def _spread(cs: tuple, r: int, g: int) -> tuple:
    """Coefficients of m^r * P(m^g) from those of P."""
    out = [0] * (r + g * (len(cs) - 1) + 1)
    out[r::g] = cs
    return tuple(out)


def _width_above(bits: int) -> int:
    """The least multiple of 8, W, above bits: bits-bit coefficients are below 2^(W-1)."""
    return (bits + 8) & -8


def _pack(cs, width: int) -> int:
    """sum(cs[i] << (i*width)) for |cs[i]| < 2**width, from little-endian bytes."""
    nb = width >> 3
    zero = bytes(nb)
    pos = b"".join([c.to_bytes(nb, "little") if c > 0 else zero for c in cs])
    neg = b"".join([zero if c >= 0 else (-c).to_bytes(nb, "little") for c in cs])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _pack_pm(cs, width: int) -> tuple:
    """The values at +-2**width: even and odd parts packed at 2*width, added, subtracted."""
    even, odd = _pack(cs[::2], 2 * width), _pack(cs[1::2], 2 * width) << width
    return even + odd, even - odd


def _unpack(v: int, width: int, n: int | None = None) -> list:
    """n balanced base-2**width digits of v, in [-2**(width-1), 2**(width-1)).
    Without n, bitlen(v) // width + 1: all of them if each is below 2**(width-1)."""
    nb = width >> 3
    half = 1 << (width - 1)
    n = abs(v).bit_length() // width + 1 if n is None else n
    # every digit shifted into [0, 2**width)
    u = v + int.from_bytes(half.to_bytes(nb, "little") * n, "little")
    if u < 0 or u >> (n * width):
        raise AssertionError("unpack width too small")
    bs = u.to_bytes(n * nb, "little")
    return [int.from_bytes(bs[i:i + nb], "little") - half for i in range(0, n * nb, nb)]


def _kronecker_mul(a: tuple, b: tuple) -> tuple:
    """a * b by one packed product; a and b each have a nonzero entry.  Its coefficients
    are at most max|a_i| max|b_j| min(len(a), len(b)) = bound; W is above bitlen(bound) + 1."""
    amax = max(map(abs, a))
    bmax = amax if a is b else max(map(abs, b))
    width = _width_above((amax * bmax * min(len(a), len(b))).bit_length() + 1)
    pa = _pack(a, width)
    prod = pa * pa if a is b else pa * _pack(b, width)
    return tuple(_unpack(prod, width, len(a) + len(b) - 1))


def _divide(a, b) -> tuple:
    """(q, r) with a = q*b + r over Z and r's entries from len(b) - 1 up zero.

    Raises ExactDivisionError when lc(b) fails to divide a leading term.
    """
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
    return q, r


# ---------------------------------------------------------------------------
# content, gcd

def content(p) -> int:
    """gcd of the coefficients (nonnegative); 0 for the zero polynomial; |p| for an int."""
    return abs(p) if isinstance(p, int) else gcd(*p.coeffs)


def primitive_part(p: IPoly) -> IPoly:
    """p divided by its content; keeps the sign of the leading coefficient."""
    c = content(p)
    if c == 0:
        raise ValueError("zero polynomial has no primitive part")
    if c == 1:
        return p
    return IPoly(tuple(x // c for x in p.coeffs))


def poly_gcd(a: IPoly, b: IPoly) -> IPoly:
    """Primitive gcd with positive leading coefficient (contents discarded).

    The primitive PRS: for deg A >= deg B and B primitive,
    lc(B)^(deg A - deg B + 1) * A divides by B with an integer quotient term
    at every step of ``_divide``, and the primitive part of the remainder
    has the same gcd with B as A has.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.degree < b.degree:
        a, b = b, a
    a = primitive_part(a)
    while not b.is_zero:
        if b.degree == 0:
            return IPoly((1,))
        b = primitive_part(b)
        scale = b.lc ** (a.degree - b.degree + 1)
        _, r = _divide([scale * c for c in a.coeffs], b.coeffs)
        a, b = b, IPoly(r)
    return _positive(a)


def _positive(p: IPoly) -> IPoly:
    return -p if p.lc < 0 else p
