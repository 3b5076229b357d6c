"""The ladder's multiples and the Jacobian membership test on the Weierstrass
model Y^2 = X^3 + (1-4m^4)X^2 + 32m^4 X, against the tests' affine group law
over Q and Q(M), and that oracle's own checks."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import biquadrates.curve as curve
import biquadrates.derive as derive
import biquadrates.identity as identity
from biquadrates.curve import (
    DegenerateCurveError,
    PipelineError,
    half_point_psi,
    multiple_P,
)
from biquadrates.poly import IPoly, PoleError
from mutations import psi3_doubled, psi3_plus_one, psi_changed
from oracles import (
    INFINITY,
    CurvePoint,
    QuarticPoint,
    RatFn,
    WeierstrassCurve,
    add,
    curve_from_parameter,
    evaluate,
    extra_point,
    is_nontorsion_by_mazur,
    mul_scalar,
    on_curve,
    point_P,
    signed_multiple,
)


def test_curve_coefficients():
    c = curve_from_parameter(1)
    assert c.a2 == -3 and c.a4 == 32
    c2 = curve_from_parameter(2**4)
    assert c2.a2 == 1 - 64 and c2.a4 == 32 * 16
    ch = curve_from_parameter(Fraction(1, 2) ** 4)
    assert ch.a2 == Fraction(3, 4) and ch.a4 == 2


def test_degenerate_curves_rejected():
    with pytest.raises(ValueError):
        curve_from_parameter(0)
    with pytest.raises(ValueError):
        WeierstrassCurve(a2=2, a4=1)
    with pytest.raises(ValueError):
        WeierstrassCurve(a2=5, a4=0)


def test_on_curve_examples():
    c = curve_from_parameter(1)
    assert on_curve(c, CurvePoint(Fraction(4, 9), Fraction(100, 27)))
    # rhs at x=1 is 1 - 3 + 32 = 30, so y=1 cannot work
    assert not on_curve(c, CurvePoint(1, 1))
    assert on_curve(c, INFINITY)
    assert on_curve(c, CurvePoint(0, 0))


def test_point_P_values():
    p1 = point_P(1)
    assert (p1.x, p1.y) == (Fraction(4, 9), Fraction(100, 27))
    p2 = point_P(2**4)
    assert (p2.x, p2.y) == (Fraction(784, 9), Fraction(12880, 27))
    for m in (1, 2, 3, Fraction(1, 2), 5):
        assert on_curve(curve_from_parameter(m**4), point_P(m**4))


def test_extra_point_values():
    q = extra_point(1)
    assert (q.x, q.y) == (Fraction(289, 16), Fraction(-4743, 64))
    assert on_curve(curve_from_parameter(1), q)
    # at m=0 the formulas collapse onto the 2-torsion point
    assert extra_point(0) == CurvePoint(0, 0)
    for m in (2, 3, Fraction(3, 2)):
        assert on_curve(curve_from_parameter(m**4), extra_point(m**4))


def test_point_validation():
    with pytest.raises(ValueError):
        CurvePoint(1, None)
    with pytest.raises(ValueError):
        CurvePoint(1, 2, infinity=True)
    c = curve_from_parameter(1)
    bad = CurvePoint(1, 1)
    with pytest.raises(ValueError):
        add(c, bad, point_P(1))
    with pytest.raises(ValueError):
        add(c, point_P(1), bad)
    with pytest.raises(ValueError):
        mul_scalar(c, 2, bad)


def test_identity_and_inverse():
    c = curve_from_parameter(1)
    p = point_P(1)
    assert add(c, p, INFINITY) == p
    assert add(c, INFINITY, p) == p
    assert add(c, p, CurvePoint(p.x, -p.y)) == INFINITY
    assert mul_scalar(c, 0, p) == INFINITY
    assert mul_scalar(c, 1, p) == p


def test_two_torsion():
    c = curve_from_parameter(1)
    t = CurvePoint(0, 0)
    assert add(c, t, t) == INFINITY
    assert mul_scalar(c, 2, t) == INFINITY
    assert mul_scalar(c, 3, t) == t


def test_negative_scalar_rejected():
    c = curve_from_parameter(1)
    with pytest.raises(ValueError):
        mul_scalar(c, -1, point_P(1))


def test_closure():
    for m in (1, 2, Fraction(3, 2)):
        c = curve_from_parameter(m**4)
        p = point_P(m**4)
        q = extra_point(m**4)
        for r in (add(c, p, q), add(c, p, p), mul_scalar(c, 5, p), CurvePoint(q.x, -q.y)):
            assert on_curve(c, r)


def test_commutativity_and_associativity():
    for m in (1, 2, Fraction(3, 2)):
        c = curve_from_parameter(m**4)
        p = point_P(m**4)
        q = extra_point(m**4)
        r = add(c, p, p)
        assert add(c, p, q) == add(c, q, p)
        assert add(c, add(c, p, q), r) == add(c, p, add(c, q, r))
        assert add(c, add(c, q, r), p) == add(c, q, add(c, r, p))


def test_scalar_additivity():
    c = curve_from_parameter(1)
    p = point_P(1)
    multiples = [INFINITY]
    for _ in range(12):
        multiples.append(add(c, multiples[-1], p))
    for a in range(7):
        for b in range(7):
            assert add(c, multiples[a], multiples[b]) == multiples[a + b]
            assert mul_scalar(c, a + b, p) == multiples[a + b]


def test_mazur_criterion():
    c = curve_from_parameter(1)
    p = point_P(1)
    assert is_nontorsion_by_mazur(c, p)
    assert is_nontorsion_by_mazur(c, add(c, p, p))
    assert not is_nontorsion_by_mazur(c, CurvePoint(0, 0))
    with pytest.raises(ValueError):
        is_nontorsion_by_mazur(c, INFINITY)


def test_symbolic_points_on_curve():
    mm = RatFn.gen()
    c = curve_from_parameter(mm**4)
    assert on_curve(c, point_P(mm**4))
    assert on_curve(c, extra_point(mm**4))


def test_symbolic_numeric_commutation():
    M = RatFn.gen()  # read as M = m^4
    c_sym = curve_from_parameter(M)
    p_sym = point_P(M)
    for n in (1, 2, 3):
        np_sym = mul_scalar(c_sym, n, p_sym)
        assert on_curve(c_sym, np_sym)
        for m0 in (1, 2, 3):
            c_num = curve_from_parameter(m0**4)
            np_num = mul_scalar(c_num, n, point_P(m0**4))
            assert np_sym.x.evaluate(m0**4) == np_num.x
            assert np_sym.y.evaluate(m0**4) == np_num.y


# -- nP from the division-value ladder, against the group law -----------------

@given(st.integers(-30, 30).filter(bool), st.integers(1, 30), st.integers(1, 12),
       st.sampled_from(("plus", "minus")))
@settings(max_examples=60, deadline=None)
def test_ladder_matches_group_law_over_q(a, b, n, sign):
    M = Fraction(a, b) ** 4
    w, pt = signed_multiple(n, M, sign)
    ref = mul_scalar(curve_from_parameter(M), n, point_P(M))
    assert w == ref
    assert pt == (ref if sign == "plus" else CurvePoint(ref.x, -ref.y))


def _degree_bounds(n):
    """Degrees in M of the reduced x(nP) and y(nP) over Q(M), numerator and
    denominator: measured with sympy for n <= 8, checked here for n <= 4."""
    return (2 * n * n, 2 * n * n - 2), (3 * n * n, 3 * n * n - 3)


@pytest.mark.parametrize("n", range(1, 9))
def test_ladder_matches_group_law_over_q_m(n):
    x, y, z, *_ = multiple_P(n, IPoly.gen())
    if n <= 4:
        M = RatFn.gen()
        w, pt = signed_multiple(n, M, "minus")
        ref = mul_scalar(curve_from_parameter(M), n, point_P(M))
        assert (w, pt) == (ref, CurvePoint(ref.x, -ref.y))
        got = ((ref.x.num.degree, ref.x.den.degree), (ref.y.num.degree, ref.y.den.degree))
        assert got == _degree_bounds(n)
    # x(nP) = a/b over Q(M) with deg a <= ax and deg b <= bx, so x/z^2 = a/b
    # once x*b - a*z^2, of degree below need, vanishes at need values of M;
    # likewise y(nP).  The curve is smooth at every integer M0 >= 1, so where
    # nP is finite there the group law over Q gives its value at M0.
    (ax, bx), (ay, by) = _degree_bounds(n)
    need = 1 + max(x.degree + bx, ax + 2 * z.degree, y.degree + by, ay + 3 * z.degree)
    compared, M0 = 0, 0
    while compared < need:
        M0 += 1
        ref = mul_scalar(curve_from_parameter(M0), n, point_P(M0))
        zv = evaluate(z, M0)
        if ref.infinity or zv == 0:
            continue
        assert ref == CurvePoint(Fraction(evaluate(x, M0), zv * zv),
                                 Fraction(evaluate(y, M0), zv**3)), M0
        compared += 1


def test_ladder_degenerate_and_torsion():
    with pytest.raises(DegenerateCurveError):
        signed_multiple(1, 0, "plus")
    with pytest.raises(DegenerateCurveError):
        multiple_P(3, IPoly(()))
    # at M = 2 (not a fourth power) P is the 2-torsion point (0, 0)
    assert point_P(2) == CurvePoint(0, 0)
    assert mul_scalar(curve_from_parameter(2), 2, point_P(2)) == INFINITY
    for n in (2, 4):
        with pytest.raises(PoleError, match="point at infinity"):
            multiple_P(n, 2)
    with pytest.raises(ValueError):
        multiple_P(0, 1)


def test_ladder_at_m4_equal_2_meets_torsion():
    # at M = 2, P = (0, 0) has order 2, so nP is (0, 0) for odd n and the
    # point at infinity for even n; the ladder divides by no coordinate of P
    c = curve_from_parameter(2)
    for n in range(1, 7):
        ref = mul_scalar(c, n, point_P(2))
        for sign in ("plus", "minus"):
            if ref.infinity:
                with pytest.raises(PoleError):
                    signed_multiple(n, 2, sign)
            else:
                assert signed_multiple(n, 2, sign) == (ref, ref)


@given(st.integers(-30, 30).filter(bool), st.integers(1, 30), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_jacobian_membership_matches_the_affine_oracle(a, b, n):
    # at a rational M, not only a fourth power, the triple's equation agrees
    # with y^2 = rhs(x) on +-nP and on their y + 1 shifts (omega + z^3)
    M = Fraction(a, b)
    try:
        x, y, z, *_ = multiple_P(n, M.numerator, M.denominator)
    except PoleError:
        assume(False)
    c, zz = curve_from_parameter(M), z * z
    for w in (y, -y):
        assert curve.on_curve(x, w, z, M)
        for shift in (0, 1):
            pt = CurvePoint(Fraction(x, zz), Fraction(w, zz * z) + shift)
            assert curve.on_curve(x, w + shift * zz * z, z, M) == on_curve(c, pt)


def _ladder_certifies_infinite_order(M) -> bool:
    """nP = -2nR is finite, at(2n) != 0, for n = 1..12; by Mazur's bound a
    rational torsion point has order at most 12."""
    try:
        for n in range(1, 13):
            multiple_P(n, M.numerator, M.denominator)
    except PoleError:
        return False
    return True


@pytest.mark.parametrize("M", [Fraction(1), Fraction(16), Fraction(3, 5) ** 4, Fraction(2)],
                         ids=["m=1", "m=2", "m=3/5", "M=2"])
def test_ladder_certificate_matches_mazur_oracle(M):
    # at M = 2 (not a fourth power) P = (0, 0) has order 2
    ok = _ladder_certifies_infinite_order(M)
    assert ok == is_nontorsion_by_mazur(curve_from_parameter(M), point_P(M))
    assert ok == (M != 2)


@pytest.mark.parametrize("M", [Fraction(16), RatFn.gen()], ids=["m=2", "Q(M)"])
def test_corrupted_psi3_fails_the_curve_check(M, monkeypatch):
    # psi_3 + 1 leaves a remainder where psi_3 is normalised; 2 psi_3
    # normalises exactly, and the 2P it gives is off the curve, so its image
    # fails the quartic model, the curve equation pulled back.  The oracle's
    # QuarticPoint check is the reference here; the integral map's division
    # by U's known factor catches the fault first, over Z and over Z[M]
    initial = curve._initial_psi
    monkeypatch.setattr(curve, "_initial_psi", psi3_plus_one(initial))
    with pytest.raises(PipelineError, match="remainder"):
        signed_multiple(2, M, "plus")
    monkeypatch.setattr(curve, "_initial_psi", psi3_doubled(initial))
    _, pt = signed_multiple(2, M, "plus")
    with pytest.raises(ValueError, match="quartic model"):
        QuarticPoint(*derive.to_quartic(pt.x, pt.y, pt.x * 0 + M), M)
    if isinstance(M, RatFn):
        with pytest.raises(PipelineError, match="remainder"):
            derive.solution_from_nP(2, "plus")
    else:
        nP = multiple_P(2, M.numerator, M.denominator)
        with pytest.raises(PipelineError, match="remainder"):
            derive.quartic_image(nP, M, "plus")


def test_inexact_ladder_division_fails(monkeypatch):
    monkeypatch.setattr(curve, "_initial_psi",
                        psi_changed(4, lambda v: v + 1)(curve._initial_psi))
    for A in (16, IPoly.gen()):
        # psi_4 is normalised by A^4 2^15
        with pytest.raises(PipelineError, match="remainder"):
            multiple_P(2, A)


def test_symbolic_map_pole(monkeypatch):
    # (4M, 12M) lies on the curve over Z[M], where the map to the quartic
    # model has its pole
    M = IPoly.gen()
    assert curve.on_curve(4 * M, 12 * M, 1, M)
    monkeypatch.setattr(derive, "multiple_P", lambda n, A, B=1: (4 * M, 12 * M, 1, 1, 1))
    with pytest.raises(PoleError, match="X = 4m"):
        derive.solution_from_nP(1, "plus")


def _plain_psi(A, B, top):
    """psi_0 .. psi_top at R' by Ward's recurrences with no normalisation."""
    x, y = 4 * A * B, 12 * A * B * B
    psi = curve._initial_psi(x, y, B * (B - 4 * A), 32 * A * B**3)
    for k in range(5, top + 1):
        h = k >> 1
        if k & 1:
            psi[k] = psi[h + 2] * psi[h] ** 3 - psi[h - 1] * psi[h + 1] ** 3
        else:
            t = psi[h] * (psi[h + 2] * psi[h - 1] ** 2 - psi[h - 2] * psi[h + 1] ** 2)
            psi[k] = t.exact_div(psi[2]) if isinstance(t, IPoly) else t // psi[2]
    return psi


def _check_normalised(A, B, top):
    psi, at = _plain_psi(A, B, top), half_point_psi(A, B)
    for k in range(1, top + 1):
        norm = (A * B * B) ** (k * k // 4) * 2 ** (k * k - 1)
        assert psi[k] == norm * at(k), k


def test_half_point_psi_divisibility_over_q_m():
    # psi_k(R') over Z[M] is divisible by M^floor(k^2/4) 2^(k^2-1), and the
    # ladder's normalised values are the quotients; at M = A/B the power of
    # A comes with the same power of B^2
    _check_normalised(IPoly.gen(), 1, 30)


@given(st.integers(-12, 12).filter(bool), st.integers(1, 12))
@settings(max_examples=25, deadline=None)
def test_half_point_psi_divisibility_over_q(a, b):
    M = Fraction(a, b) ** 4
    _check_normalised(M.numerator, M.denominator, 30)


# -- the packed ladder over Z[M], against the recurrence run there ------------

def _ladder_over_z_m(n, A, B=1):
    """multiple_P's tuple from half_point_psi's values over Z[M], combined
    as multiple_P combines them."""
    at = half_point_psi(A, B)
    g, below, above = at(2 * n), at(2 * n - 1), at(2 * n + 1)
    t = at(2 * n + 2) * below * below - at(2 * n - 2) * above * above
    return 36 * (A * B * g * g - below * above), -36 * t, 3 * B * g, below, above


@pytest.mark.parametrize("n", range(1, 17))
def test_packed_ladder_equals_the_z_m_recurrence(n):
    assert multiple_P(n, IPoly.gen()) == _ladder_over_z_m(n, IPoly.gen())


class _RationalNorm(Fraction):
    """A 1-norm majorant kept exact over Q: sums and differences add,
    products multiply and exact divisions divide, as in ``curve._Norm``,
    with no rounding anywhere."""

    def __add__(self, other):
        return _RationalNorm(Fraction(self) + abs(other))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return _RationalNorm(Fraction(self) * abs(other))

    __rmul__ = __mul__

    def __pow__(self, k):
        return _RationalNorm(Fraction(self) ** k)

    def __neg__(self):
        return self

    def __divmod__(self, other):
        return _RationalNorm(Fraction(self) / abs(other)), 0


def _five(n, A):
    """half_point_psi's values at 2n-2 .. 2n+2 at A, which the packed
    ladder to nP unpacks."""
    return [half_point_psi(A)(k) for k in range(2 * n - 2, 2 * n + 3)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12])
def test_majorants_bound_every_unpacked_value(n):
    # each value the packed ladder unpacks, taken over Z[M], has a 1-norm at
    # most the exact rational majorant, and the library's rounded-up
    # majorant is at least that one
    values = _five(n, IPoly.gen())
    rational = _five(n, _RationalNorm(1))
    bounds = _five(n, curve._Norm(1))
    for v, exact_norm, bound in zip(values, rational, bounds):
        assert type(bound) is curve._Norm
        assert sum(map(abs, v.coeffs)) <= exact_norm <= bound
    # the width is the least multiple of 8 that holds every majorant
    width = curve._width(n)
    assert width % 8 == 0 and 2 ** (width - 9) <= max(bounds) < 2 ** (width - 1)


def test_majorants_round_up(monkeypatch):
    # on the recurrence as it stands every division of the majorants is
    # exact (each at(k), k >= 2, is a multiple of 3); psi_3 written as
    # psi_3 + 1 - 1 is the same polynomial with majorant 6146, which 2^8
    # does not divide, so the quotient must round up to stay a bound
    assert divmod(curve._Norm(6146), 2**8) == (25, 0)
    written = psi_changed(3, lambda v: v + 1 - 1)(curve._initial_psi)
    monkeypatch.setattr(curve, "_initial_psi", written)
    rational, bound = half_point_psi(_RationalNorm(1)), half_point_psi(curve._Norm(1))
    assert rational(3) == Fraction(6146, 2**8) and bound(3) == 25
    assert all(rational(k) <= bound(k) for k in range(4, 9))
    assert multiple_P(3, IPoly.gen()) == _ladder_over_z_m(3, IPoly.gen())


def test_other_ipoly_inputs_keep_the_generic_route(monkeypatch):
    def no_packing(n):
        raise AssertionError("packed route taken")

    monkeypatch.setattr(curve, "_width", no_packing)
    M = IPoly.gen()
    for A, B in ((2 * M, 1), (M + 1, 1), (M, 2)):
        for n in (1, 2, 3):
            assert multiple_P(n, A, B) == _ladder_over_z_m(n, A, B)
    with pytest.raises(DegenerateCurveError):
        multiple_P(3, IPoly(()))
    with pytest.raises(AssertionError, match="packed route taken"):
        multiple_P(1, M)


def test_a_ladder_unpacked_too_narrow_is_refused(monkeypatch):
    # at a width that does not hold the five values the packed run still
    # divides exactly (evaluation at 2^8 is a ring map), but the values
    # unpack wrong: derive's map to the quartic model and selftest's
    # closure check refuse them
    monkeypatch.setattr(curve, "_width", lambda n: 8)
    for n in (2, 3, 4):
        for sign in ("plus", "minus"):
            with pytest.raises(PipelineError):
                derive.solution_from_nP(n, sign)
    assert identity.verify_curve_closure() is False
