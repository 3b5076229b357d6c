"""Group-law checks for the Weierstrass model Y^2 = X^3 + (1-4m^4)X^2 + 32m^4 X."""

from fractions import Fraction

import pytest

from biquadrates.curve import (
    INFINITY,
    CurvePoint,
    WeierstrassCurve,
    add,
    curve_from_parameter,
    extra_point,
    is_nontorsion_by_mazur,
    mul_scalar,
    on_curve,
    point_P,
)
from biquadrates.poly import RatFn


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
        assert on_curve(curve_from_parameter(m**4), extra_point(m))


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
        q = extra_point(m)
        for r in (add(c, p, q), add(c, p, p), mul_scalar(c, 5, p), CurvePoint(q.x, -q.y)):
            assert on_curve(c, r)


def test_commutativity_and_associativity():
    for m in (1, 2, Fraction(3, 2)):
        c = curve_from_parameter(m**4)
        p = point_P(m**4)
        q = extra_point(m)
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
    assert on_curve(c, extra_point(mm))


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
