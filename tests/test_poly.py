"""Tests for integer polynomials and the tests' rational functions over Q(M)."""

from fractions import Fraction
from itertools import zip_longest
from math import gcd as igcd
from math import isqrt

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biquadrates import poly
from biquadrates.poly import (
    ExactDivisionError,
    IPoly,
    PoleError,
    content,
    format_poly,
    poly_gcd,
    primitive_part,
    _SCHOOLBOOK_LIMIT,
    _kronecker_mul,
    _mul_coeffs,
    _pack,
    _pack_pm,
    _positive,
    _unpack,
    _width_above,
)

from oracles import RatFn, evaluate, fraction_horner, from_terms

M = IPoly.gen()


def P(*cs):
    """Ascending-coefficient shorthand."""
    return IPoly(cs)


# -- basic ring operations --------------------------------------------------

def test_construction_strips_trailing_zeros():
    assert IPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IPoly([0, 0]).is_zero
    assert IPoly([]).degree == -1
    assert P(0, 0, 3).degree == 2


def test_construction_rejects_non_integer():
    with pytest.raises(TypeError):
        IPoly([Fraction(1, 2)])
    with pytest.raises(TypeError):
        IPoly([1.5])


def test_mul_example():
    assert (M + 1) * (M - 1) == P(-1, 0, 1)


def test_evaluate_examples():
    assert evaluate(M**4 + 1, 2) == 17
    assert evaluate(M**4 + 1, Fraction(1, 2)) == Fraction(17, 16)
    assert evaluate(P(), 5) == 0


def test_exact_div_examples():
    assert (M**2 - 1).exact_div(M + 1) == M - 1
    assert ((M + 3) * (M**2 + 7)).exact_div(M + 3) == M**2 + 7
    with pytest.raises(ExactDivisionError):
        (M**2 + 1).exact_div(M + 1)
    with pytest.raises(ExactDivisionError):
        P(2, 2).exact_div(P(4))
    with pytest.raises(ZeroDivisionError):
        M.exact_div(P())
    for unit in (1, -1, P(1), P(-1)):
        for a in (P(), P(-7), 3 * M**5 - M + 2):
            assert a.exact_div(unit) == a * unit


def test_true_division_leaves_no_way_out_of_z_m():
    # Z[M] is closed: a stray / raises instead of leaving it
    for divisor in (2, Fraction(1, 2), M + 1):
        with pytest.raises(TypeError):
            M / divisor


def test_int_coercion():
    assert 2 * M + 1 == P(1, 2)
    assert (1 - M) == P(1, -1)
    assert (M + 0) == M
    assert M != 7
    assert P(7) == 7


def test_from_terms():
    p = from_terms({21: 12, 1: -3, 0: 4})
    assert p.degree == 21
    assert p[21] == 12 and p[1] == -3 and p[0] == 4 and p[5] == 0


def test_pow():
    assert (M + 1) ** 0 == P(1)
    assert (M + 1) ** 3 == P(1, 3, 3, 1)
    with pytest.raises(ValueError):
        (M + 1) ** -1


# -- content / primitive part ----------------------------------------------

def test_content_examples():
    assert content(P(0, 12, 6)) == 6
    assert primitive_part(P(0, 12, 6)) == P(0, 2, 1)
    assert content(P(0, -4)) == 4
    assert primitive_part(P(0, -4)) == -M
    assert content(from_terms({9: 4, 5: 8, 1: 40})) == 4
    assert content(P()) == 0
    with pytest.raises(ValueError):
        primitive_part(P())


# -- gcd --------------------------------------------------------------------

def test_poly_gcd_examples():
    assert poly_gcd(M**2 - 1, M**2 - 2 * M + 1) == M - 1
    assert poly_gcd(M**3, M**2) == M**2
    assert poly_gcd(M**4 - 2, M**4 + 1) == P(1)
    assert poly_gcd(P(), M + 1) == M + 1
    assert poly_gcd(2 * M + 2, P()) == M + 1
    with pytest.raises(ValueError):
        poly_gcd(P(), P())


def test_poly_gcd_sign_and_content():
    # result is primitive with positive leading coefficient
    assert poly_gcd(-2 * M - 2, -4 * M - 4) == M + 1
    assert poly_gcd(P(6), M + 1) == P(1)


def test_poly_gcd_large_inputs():
    a = (M**37 - 5 * M + 3) * (M**11 + 7) ** 2
    b = (M**41 + M + 9) * (M**11 + 7) ** 2
    assert poly_gcd(a, b) == (M**11 + 7) ** 2
    c = M**60 + 4 * M**13 + 1
    d = M**59 + 11
    assert poly_gcd(c, d) == P(1)


# the largest prime below 2**30
BIG_PRIME = 1073741789


def test_poly_gcd_coprime_pair_equal_mod_a_large_prime():
    # M^2 - 1 and M^2 - (1 + p)^2 agree mod p, where their gcd has degree 2
    assert poly_gcd(M**2 - 1, M**2 - (1 + BIG_PRIME) ** 2) == P(1)


def test_poly_gcd_with_a_large_leading_coefficient():
    # a's leading coefficient is the large prime; c makes the gcd nontrivial
    a = (BIG_PRIME * M + 1) * (M**2 + 3)
    b = (M + 2) * (M - 5)
    c = M**2 + M + 7
    assert poly_gcd(a, b) == P(1)
    assert poly_gcd(b, a) == P(1)
    assert poly_gcd(a * c, b * c) == c
    assert poly_gcd(-a * c, 6 * b * c) == c


def test_poly_gcd_quadratic_factor_of_a_cubic_and_a_quartic():
    # (2m^2 + m - 7)(-31m + 22) and (2m^2 + m - 7)(37m^2 - 32m + 14)
    a, b = P(-154, 239, 13, -62), P(-98, 238, -263, -27, 74)
    assert poly_gcd(a, b) == P(-7, 1, 2)
    assert poly_gcd(b, a) == P(-7, 1, 2)
    assert poly_gcd(a, b) == _reference_gcd(a, b)


# -- formatting -------------------------------------------------------------

def test_format_poly():
    p = from_terms({0: 4, 2: 6, 3: -1})
    assert format_poly(p) == "4 + 6*m^2 - m^3"
    assert format_poly(p, descending=True) == "-m^3 + 6*m^2 + 4"
    assert format_poly(P()) == "0"
    assert format_poly(P(), descending=True) == "0"
    assert format_poly(P(0, -1)) == "-m"
    assert format_poly(P(-1)) == "-1"
    assert format_poly(P(-1), "t", descending=True) == "-1"
    # +-1 at degrees 0 and 1: no "1*", and the constant keeps its 1
    assert format_poly(P(1, -1)) == "1 - m"
    assert format_poly(P(-1, 1), "t") == "-1 + t"
    assert format_poly(P(-1, 1), descending=True) == "m - 1"
    # a negative leading term with coefficient 1
    q = from_terms({0: 1, 1: 1, 4: -1})
    assert format_poly(q) == "1 + m - m^4"
    assert format_poly(q, "t", descending=True) == "-t^4 + t + 1"
    assert format_poly(from_terms({1: -2, 5: 3}), descending=True) == "3*m^5 - 2*m"


# -- hypothesis: ring and gcd laws ------------------------------------------

coeffs = st.lists(st.integers(min_value=-50, max_value=50), max_size=9)
polys = coeffs.map(IPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - b) + b == a


@given(nonzero_polys, nonzero_polys)
def test_exact_div_of_product(a, b):
    assert (a * b).exact_div(b) == a


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=60)
def test_gcd_scales_with_common_factor(a, b, c):
    g = poly_gcd(a * c, b * c)
    expected = poly_gcd(a, b) * primitive_part(c)
    if expected.lc < 0:
        expected = -expected
    assert g == expected


@given(nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert primitive_part(a).exact_div(g) * g == primitive_part(a)
    assert primitive_part(b).exact_div(g) * g == primitive_part(b)


@given(polys, polys, st.integers(min_value=-20, max_value=20))
def test_evaluate_is_homomorphism(a, b, x):
    assert evaluate(a * b, x) == evaluate(a, x) * evaluate(b, x)
    assert evaluate(a + b, x) == evaluate(a, x) + evaluate(b, x)


big_coeffs = st.lists(st.integers(min_value=-10**12, max_value=10**12),
                      min_size=1, max_size=90)


def _schoolbook(a: tuple, b: tuple) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@given(big_coeffs.filter(any), big_coeffs.filter(any))
@example([1], [0] * 399 + [-1, 256])    # a unit operand against a wider one
@settings(max_examples=40)
def test_kronecker_matches_schoolbook(a, b):
    # no caller passes an all-zero operand: IPoly strips trailing zeros and
    # families._mul's slices end at the top coefficient.  Both operands pack
    # at the bound's bit length plus 9, rounded down to whole bytes
    ta, tb = tuple(a), tuple(b)
    widths = []

    def pack_spy(cs, width):
        widths.append(width)
        return _pack(cs, width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_pack", pack_spy)
        assert list(_kronecker_mul(ta, tb)) == _schoolbook(ta, tb)
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    assert widths == [(bound.bit_length() + 9) & -8] * 2


def _lengths_around_the_limit() -> list:
    """Operand lengths whose product is one below, at and one above the
    schoolbook limit, each pair in both orders."""
    out = []
    for n in (_SCHOOLBOOK_LIMIT - 1, _SCHOOLBOOK_LIMIT, _SCHOOLBOOK_LIMIT + 1):
        d = max(k for k in range(1, isqrt(n) + 1) if n % k == 0)
        out += [(d, n // d)] + ([(n // d, d)] if d * d != n else [])
    return out


@pytest.mark.parametrize("la, lb", _lengths_around_the_limit())
@given(st.data())
@settings(max_examples=10, deadline=None)
def test_mul_routes_agree_around_the_limit(la, lb, data):
    # mixed signs; Kronecker runs exactly when la * lb passes the limit
    coeff = st.integers(-10**40, 10**40)
    a = tuple(data.draw(st.lists(coeff, min_size=la, max_size=la)))
    b = tuple(data.draw(st.lists(coeff, min_size=lb, max_size=lb)))
    assume(min(a + b) < 0 < max(a + b))
    routes = []

    def kronecker_spy(x, y):
        routes.append("kronecker")
        return _kronecker_mul(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_kronecker_mul", kronecker_spy)
        assert list(_mul_coeffs(a, b)) == _schoolbook(a, b)
    assert routes == (["kronecker"] if la * lb > _SCHOOLBOOK_LIMIT else [])


any_polys = st.lists(st.integers(-10**30, 10**30), max_size=45).map(IPoly)


@given(any_polys, st.one_of(any_polys, st.integers(-5, 5)))
@settings(deadline=None)
def test_products_are_built_canonical(a, b):
    # products skip the constructor's checks, so they must already pass them
    for prod in (a * b, b * a):
        assert IPoly(prod.coeffs).coeffs == prod.coeffs
        assert type(prod.coeffs) is tuple
        assert all(type(c) is int for c in prod.coeffs)


@st.composite
def balanced_digits(draw, inner=False):
    # the codec packs whole bytes, so widths are multiples of 8; inner digits
    # are below 2^(W-1) in size, as every caller's width makes them, up to
    # the edge 2^(W-1) - 1, and the top one is nonzero
    width = 8 * draw(st.integers(min_value=1, max_value=9))
    half = 1 << (width - 1)
    cs = draw(st.lists(st.integers(min_value=-half + inner, max_value=half - 1),
                       min_size=1, max_size=40).filter(lambda cs: cs[-1] or not inner))
    return cs, width


@given(balanced_digits())
def test_unpack_inverts_pack(case):
    cs, width = case
    assert _unpack(_pack(cs, width), width, len(cs)) == cs


@given(balanced_digits(inner=True))
@example(([-127, 127, -127], 8))
@example(([2**71 - 1, -(2**71 - 1), 0, 2**71 - 1], 72))
def test_packed_values_at_both_signs(case):
    # the pair is Horner's rule at +-2^W, and _unpack without a digit count
    # gives back every coefficient, the odd ones negated at -2^W
    cs, width = case
    plus, minus = _pack_pm(cs, width)
    assert plus == _pack(cs, width) == fraction_horner(cs, 2**width)
    assert minus == fraction_horner(cs, -(2**width))
    assert _unpack(plus, width) == cs
    assert _unpack(minus, width) == [-c if i & 1 else c for i, c in enumerate(cs)]


@given(st.integers(1, 2**400), st.integers(0, 2**14), st.integers(1, 2**12))
@example(1, 0, 1)
def test_width_rule_gives_each_sites_width(bound, t, length):
    # the least multiple of 8 above the bits, fed each site's bits, equals the
    # rounding each site once wrote out itself, so no packed width moved: the
    # product kernel's bound, the ladder's largest majorant, and the zero
    # test's t and longest entry length L
    b, lb = bound.bit_length(), length.bit_length()
    assert _width_above(b + 1) == (b + 9) & -8
    assert _width_above(b) == (b + 8) & -8
    assert _width_above((t + 1 + 3 * lb) // 2) == -(-(t + 2 + 3 * lb) // 16) * 8
    assert _width_above(b) % 8 == 0
    assert b < _width_above(b) <= b + 8


def test_unpack_rejects_too_few_digits():
    # 32896 = -128 - 127*256 + 1*256^2: the balanced top digit carries into a
    # third digit, although 32896 < 2^16 has only two unsigned base-256 digits
    assert _unpack(32896, 8, 3) == [-128, -127, 1]
    with pytest.raises(AssertionError):
        _unpack(32896, 8, 2)
    with pytest.raises(AssertionError):
        _unpack(-32897, 8, 2)


# -- the fast paths against the generic route ---------------------------------
# A scalar product, a difference and a division by a constant each take a
# shortcut, and every result is built without the constructor's checks;
# each must equal the coefficient-wise result built through IPoly().

scalars = st.one_of(st.sampled_from((0, 1, -1, 2**200, -(2**200) - 7)), st.integers())


def _canonical(p: IPoly) -> bool:
    return (type(p.coeffs) is tuple and IPoly(p.coeffs).coeffs == p.coeffs
            and all(type(c) is int for c in p.coeffs))


def _difference(a: IPoly, b: IPoly) -> IPoly:
    return IPoly([x - y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)])


@given(any_polys, scalars)
@settings(deadline=None)
def test_scalar_fast_paths_match_the_generic_route(p, c):
    scaled = IPoly([c * a for a in p.coeffs])
    for got in (p * c, c * p):
        assert got.coeffs == scaled.coeffs and got == p * IPoly([c]) and _canonical(got)
    for got, want in ((p - c, _difference(p, IPoly([c]))), (c - p, _difference(IPoly([c]), p)),
                      (p + c, _difference(p, IPoly([-c])))):
        assert got.coeffs == want.coeffs and _canonical(got)


@given(any_polys, any_polys)
@example(P(1, 0, 5), P(0, 1, 5))     # the top coefficient cancels
@example(P(1, 2), P(1, 2, 3, 4))     # the subtrahend is longer
@settings(deadline=None)
def test_difference_matches_the_generic_route(p, q):
    for a, b in ((p, q), (q, p)):
        d = a - b
        assert d.coeffs == _difference(a, b).coeffs and d == a + (-b) and _canonical(d)
    assert (p - p).coeffs == () and (p - p).is_zero


@given(any_polys, scalars.filter(bool), st.booleans())
@example(P(3, 7), 3, False)      # a remainder at the top coefficient only
@example(P(1, 6), 3, False)      # a remainder at digit 0 only
@example(P(), -5, False)
@settings(deadline=None)
def test_exact_div_by_a_constant_matches_the_generic_route(p, c, multiple):
    if multiple:
        p = p * c
    try:
        # the general division loop, which a constant divisor no longer takes
        q, _ = poly._divide(p.coeffs, (c,))
    except ExactDivisionError:
        q = None
    assert (q is None) == any(a % c for a in p.coeffs)
    for divisor in (c, IPoly([c])):
        if q is None:
            with pytest.raises(ExactDivisionError):
                p.exact_div(divisor)
        else:
            got = p.exact_div(divisor)
            assert got.coeffs == IPoly(q).coeffs and _canonical(got)
            assert got * c == p


# -- sparse operands: m^r * P(m^g) -------------------------------------------

def _strided(cs, r, g) -> IPoly:
    """m^r * P(m^g) for P with ascending coefficients cs, built term by term."""
    return from_terms({r + g * i: c for i, c in enumerate(cs)})


def _reference_gcd(a: IPoly, b: IPoly) -> IPoly:
    """sympy's gcd, made primitive with a positive leading coefficient."""
    x = sympy.Symbol("x")
    g = sympy.Poly(a.coeffs[::-1], x).gcd(sympy.Poly(b.coeffs[::-1], x))
    return _positive(primitive_part(IPoly(int(c) for c in g.all_coeffs()[::-1])))


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=40)
def test_poly_gcd_matches_sympy(a, b):
    assert poly_gcd(a, b) == _reference_gcd(a, b)


def _check_against_dense(a: IPoly, b: IPoly):
    assert len(a.coeffs) * len(b.coeffs) > _SCHOOLBOOK_LIMIT
    prod = _mul_coeffs(a.coeffs, b.coeffs)
    assert list(prod) == _schoolbook(a.coeffs, b.coeffs)
    ab = IPoly(prod)
    assert ab.exact_div(b) == a
    assert ab.exact_div(a) == b
    # m^(ra+1) * b has the larger r, so it cannot divide ab
    ra = next(i for i, c in enumerate(a.coeffs) if c)
    with pytest.raises(ExactDivisionError):
        ab.exact_div(M ** (ra + 1) * b)
    assert poly_gcd(a, b) == _reference_gcd(a, b)


# P(0) != 0 and a nonzero leading coefficient: the gaps are exactly g
sparse_coeffs = st.lists(st.integers(-9, 9), min_size=22, max_size=32).filter(
    lambda cs: cs[0] != 0 and cs[-1] != 0)
factor_coeffs = st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(
    lambda cs: cs[0] != 0 and cs[-1] != 0)


@given(sparse_coeffs, sparse_coeffs, factor_coeffs, st.integers(0, 5),
       st.integers(0, 5), st.sampled_from((2, 3, 4)))
@settings(max_examples=30, deadline=None)
def test_sparse_operands_match_dense_reference(p, q, c, ra, rb, g):
    # a common factor C makes the gcd nontrivial
    pc = (IPoly(p) * IPoly(c)).coeffs
    qc = (IPoly(q) * IPoly(c)).coeffs
    a, b = _strided(pc, ra, g), _strided(qc, rb, g)
    _check_against_dense(a, b)
    # gcd(m^ra P(m^g), m^rb Q(m^g)) = m^min(ra, rb) * gcd(P, Q)(m^g)
    inner = poly_gcd(IPoly(pc), IPoly(qc))
    assert poly_gcd(a, b) == _strided(inner.coeffs, min(ra, rb), g)


def test_monomial_operand_matches_dense_reference():
    b = _strided(range(1, 50), 2, 3)
    for a in (7 * M**45, -M**41):
        _check_against_dense(a, b)
        _check_against_dense(b, a)
    assert poly_gcd(6 * M**45, b) == M**2
    assert poly_gcd(M**40, 3 * M**44) == M**40


def test_mixed_sparse_operands_match_dense_reference():
    # a is m * (a polynomial in m^2), b is m^3 * (one in m^4); gcd m^3 - m
    a = M * (M**2 - 1) * _strided(range(1, 24), 0, 2)
    b = M**3 * (M**4 - 1) * _strided((5, 0, -2, 7) * 4, 0, 4)
    _check_against_dense(a, b)
    assert poly_gcd(a, b) == M**3 - M


# -- squaring: one operand, packed once ---------------------------------------

# P(0), P'(0) and the leading coefficient nonzero, so m^r * P(m^g) has gaps
# of exactly g and P alone is past the schoolbook size
square_inner = st.lists(st.integers(-10**12, 10**12), min_size=41, max_size=90).filter(
    lambda cs: cs[0] != 0 and cs[1] != 0 and cs[-1] != 0)


@given(square_inner, st.integers(0, 5), st.sampled_from((1, 2, 3, 4)))
@settings(max_examples=30, deadline=None)
def test_square_packs_one_operand(cs, r, g):
    a = _strided(cs, r, g).coeffs
    copy = tuple(list(a))
    assert copy is not a
    ref = _schoolbook(a, a)
    for b, same in ((a, True), (copy, False)):
        seen, operands, packs = [], [], []

        def kronecker_spy(x, y):
            seen.append(x is y)
            operands.extend((x, y))
            return _kronecker_mul(x, y)

        def pack_spy(xs, width):
            packs.append(any(xs is o for o in operands))
            return _pack(xs, width)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(poly, "_kronecker_mul", kronecker_spy)
            mp.setattr(poly, "_pack", pack_spy)
            assert list(_mul_coeffs(a, b)) == ref
        assert seen == [same]
        assert packs.count(True) == (1 if same else 2)


@given(square_inner, st.integers(0, 3), st.sampled_from((1, 4)), st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_pow_matches_repeated_multiplication(cs, r, g, k):
    a = _strided(cs, r, g)
    expect = P(1)
    for _ in range(k):
        expect = expect * a
    assert a ** k == expect


# -- rational functions -----------------------------------------------------

def test_ratfn_reduction_examples():
    f = RatFn(M**2 - 1, M - 1)
    assert f.num == M + 1 and f.den == P(1)
    assert RatFn(M, 1) / RatFn(M, 1) == 1
    assert RatFn(1, M) + RatFn(1, M**2) == RatFn(M + 1, M**2)


def test_ratfn_canonical_form():
    a = RatFn(2 * M + 2, 4 * M)
    assert (a.num, a.den) == (M + 1, 2 * M)
    b = RatFn(-(M + 1), -2 * M)
    assert a == b
    c = RatFn(M + 1, -2 * M)
    assert c.num == -(M + 1) and c.den == 2 * M


def test_ratfn_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFn(M, P())
    with pytest.raises(ZeroDivisionError):
        RatFn(1, M).reciprocal() / M * 0 + RatFn(1, 1) / RatFn(0, 1)


def test_ratfn_rejects_non_polynomial():
    with pytest.raises(TypeError):
        RatFn("m")
    with pytest.raises(TypeError):
        RatFn(M, 1.5)


def test_ratfn_evaluate():
    f = RatFn(M**2 + 1, M - 1)
    assert f.evaluate(2) == 5
    assert f.evaluate(Fraction(1, 2)) == Fraction(5, 4) / Fraction(-1, 2)
    with pytest.raises(PoleError):
        f.evaluate(1)


def test_ratfn_int_and_fraction_mixing():
    mg = RatFn.gen()
    x = 4 * (mg**4 - 2) ** 2 / 9
    assert x.evaluate(1) == Fraction(4, 9)
    y = mg + Fraction(1, 2)
    assert y.evaluate(0) == Fraction(1, 2)
    assert (mg * 0).is_zero
    assert mg**0 == 1


def test_ratfn_pow_negative():
    mg = RatFn.gen()
    assert (mg / (mg + 1)) ** -2 == (mg + 1) ** 2 / mg**2


ratfns = st.tuples(polys, nonzero_polys).map(lambda t: RatFn(t[0], t[1]))


@given(ratfns, ratfns)
@settings(max_examples=60)
def test_ratfn_add_matches_naive(a, b):
    fast = a + b
    naive = RatFn(a.num * b.den + b.num * a.den, a.den * b.den)
    assert fast == naive
    assert fast.num == naive.num and fast.den == naive.den


@given(ratfns, ratfns)
@settings(max_examples=60)
def test_ratfn_mul_matches_naive(a, b):
    fast = a * b
    naive = RatFn(a.num * b.num, a.den * b.den)
    assert fast.num == naive.num and fast.den == naive.den


@given(ratfns)
@settings(max_examples=60)
def test_ratfn_square_takes_no_gcd(a):
    # num^2/den^2 of a reduced fraction is reduced, so a * a needs no gcd
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "poly_gcd", lambda *args: calls.append(args) or poly_gcd(*args))
        square = a * a
    naive = RatFn(a.num * a.num, a.den * a.den)
    assert square.num == naive.num and square.den == naive.den
    assert calls == []


@given(ratfns)
def test_ratfn_canonical_invariants(a):
    assert a.den.lc > 0
    if not a.is_zero:
        assert poly_gcd(a.num, a.den).degree == 0
        assert igcd(content(a.num), content(a.den)) == 1


@given(ratfns, ratfns, ratfns)
@settings(max_examples=40)
def test_ratfn_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    if not b.is_zero:
        assert (a / b) * b == a



@given(st.lists(st.integers(-50, 50) | st.just(0), max_size=9),
       st.integers(-40, 40), st.integers(1, 40))
@example([], -3, 4)
@example([7], -3, 4)
@example([0, 0, 5, 0, -1], -7, 1)
@example([0, 0, 0, 3], 0, 5)
@settings(max_examples=200, deadline=None)
def test_evaluation_matches_fraction_horner(cs, a, b):
    # b^d P(a/b) over the integers, reduced once, is Horner's rule over Q,
    # for the zero polynomial, constants, zero coefficients, a < 0 and b = 1
    x = Fraction(a, b)
    assert evaluate(IPoly(cs), x) == fraction_horner(cs, x)
    assert evaluate(IPoly(cs), a) == fraction_horner(cs, a)
    h, bd = IPoly(cs).homogenized(a, b)
    assert bd == b ** max(IPoly(cs).degree, 0)
    assert Fraction(h, bd) == fraction_horner(cs, x)
