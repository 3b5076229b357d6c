"""Tests for the curve-point-to-solution pipeline."""

from fractions import Fraction

import pytest

import biquadrates.derive as derive
from biquadrates.curve import (
    INFINITY,
    CurvePoint,
    curve_from_parameter,
    double,
    mul_scalar,
    point_P,
)
from biquadrates.derive import (
    PipelineError,
    QuarticPoint,
    auto_sign,
    evaluate_param,
    numeric_solution_from_nP,
    param_equivalent,
    quartic_point_to_param_solution,
    quartic_rhs,
    signed_multiple,
    solution_from_nP,
    solution_from_quartic_point,
    to_weierstrass,
    weierstrass_to_quartic,
)
from biquadrates.exact import DegenerateSolutionError, SolutionSix, canonicalize, check_solution
from biquadrates.families import ParamSolution, family_eq20, family_eq21
from biquadrates.poly import IPoly, PoleError, RatFn

THIRD = Fraction(-2, 3)
VVAL = Fraction(-8, 9)


def test_quartic_rhs_worked_value():
    # V^2 at the image of -P for m=1, so M = m^4 = 1: (-8/9)^2 = 64/81
    assert quartic_rhs(THIRD, Fraction(1)) == Fraction(64, 81)
    # m=2 gives M = 16: U=1 has V^2 = 1 - 2 - 63 - 128 - 64 = -256
    assert quartic_rhs(1, 16) == -256


def test_quartic_point_validation():
    QuarticPoint(THIRD, VVAL, 1)
    with pytest.raises(ValueError):
        QuarticPoint(THIRD, Fraction(8, 9) + 1, 1)
    with pytest.raises(ValueError):
        QuarticPoint(0, 0, 1)


def test_weierstrass_to_quartic_worked_chain():
    qp = weierstrass_to_quartic(1, CurvePoint(Fraction(4, 9), Fraction(-100, 27)))
    assert (qp.u, qp.v) == (THIRD, VVAL)


def test_map_poles_and_validation():
    with pytest.raises(PoleError):
        weierstrass_to_quartic(1, INFINITY)
    # X = 4m^4 is on the curve (rhs(4) = 144) but blows up both U and V
    with pytest.raises(PoleError):
        weierstrass_to_quartic(1, CurvePoint(4, 12))
    with pytest.raises(ValueError):
        weierstrass_to_quartic(1, CurvePoint(1, 1))
    with pytest.raises(ValueError):
        weierstrass_to_quartic(2**4, point_P(1))


def test_roundtrip_through_quartic_model():
    half = Fraction(1, 2)
    for m, pt in ((1, point_P(1)),
                  (2, point_P(2**4)),
                  (1, double(curve_from_parameter(1), point_P(1))),
                  (half, point_P(half**4))):
        qp = weierstrass_to_quartic(m**4, pt)
        assert to_weierstrass(qp.u, qp.v, qp.M) == (pt.x, pt.y)


def _paper_image(M, pt):
    """(U, V) by the paper's formulas: V is a cubic form over 4(X-4M)^2."""
    x, y = pt.x, pt.y
    v_num = (x * x * x - 12 * M * (x * x) + 8 * M * (4 * M - 5) * x
             - 24 * M * y - 128 * M * M)
    return (x + y + 8 * M) / (2 * x - 8 * M), v_num / (4 * (x - 4 * M) ** 2)


def _check_against_paper(M, n_max):
    for n in range(1, n_max + 1):
        w, _ = signed_multiple(n, M, "plus")
        for pt in (w, CurvePoint(w.x, -w.y)):
            qp = weierstrass_to_quartic(M, pt)
            assert (qp.u, qp.v) == _paper_image(qp.M, pt), (n, pt)


@pytest.mark.parametrize("m0", derive.SAMPLES)
def test_v_map_matches_paper_formula(m0):
    # to_quartic takes V from the inverse map; on the curve it must agree
    # with the paper's quotient at +-nP
    _check_against_paper(Fraction(m0) ** 4, 6)


def test_v_map_matches_paper_formula_over_q_m():
    # the symbolic pipeline runs over Q(M), M = m^4, a subfield of Q(m)
    _check_against_paper(RatFn.gen(), 3)


def test_solution_from_quartic_point_worked_chain():
    sol = solution_from_quartic_point(QuarticPoint(THIRD, VVAL, 1), 1)
    assert sol == SolutionSix(-5, 6, 1, -2, 13, -8)
    assert canonicalize(sol).xpair == (1, 2)
    assert canonicalize(sol).ypair == (5, 6)


def test_solution_from_quartic_point_checks_m():
    qp = QuarticPoint(THIRD, VVAL, 1)
    for m in (2, Fraction(1, 2), 0):
        with pytest.raises(ValueError):
            solution_from_quartic_point(qp, m)
    # m = -1 has m^4 = 1 too: the shapes flip the signs of x2, y1 and z1
    assert solution_from_quartic_point(qp, -1) == SolutionSix(-5, -6, -1, -2, -13, -8)


def test_numeric_solution_branches_at_m1():
    minus = numeric_solution_from_nP(1, 1, sign="minus")
    assert minus == SolutionSix(-5, 6, 1, -2, 13, -8)
    plus = numeric_solution_from_nP(1, 1, sign="plus")
    assert canonicalize(plus) == canonicalize(SolutionSix(65, 48, 17, 41, 2257, 2537))
    # auto resolves to the branch with the smaller canonical key
    assert numeric_solution_from_nP(1, 1) == minus


def test_signed_multiple_branches():
    w, pt = signed_multiple(1, 1, "minus")
    assert w == point_P(1)
    assert pt == CurvePoint(Fraction(4, 9), Fraction(-100, 27))
    assert signed_multiple(1, 1, "plus") == (w, w)
    assert auto_sign(1) == "minus"
    assert signed_multiple(1, 1) == (w, pt)


def test_auto_sign_computes_each_multiple_once(monkeypatch):
    calls = []

    def counting(c, n, p):
        calls.append(n)
        return mul_scalar(c, n, p)

    monkeypatch.setattr(derive, "mul_scalar", counting)
    assert derive.auto_sign(5) in ("minus", "plus")
    assert calls == [5]


def test_numeric_solution_n2():
    sol = numeric_solution_from_nP(2, 1, sign="minus")
    assert sol == SolutionSix(1537, 1200, 2737, 2137, 4926769, 33319)
    assert check_solution(sol)
    assert numeric_solution_from_nP(2, 1) == sol


def test_numeric_matches_family_slice():
    for n, fam in ((1, family_eq20()), (2, family_eq21())):
        for m0 in (1, 2, 3, Fraction(1, 2)):
            direct = canonicalize(numeric_solution_from_nP(n, m0))
            sliced = canonicalize(evaluate_param(fam, m0))
            assert direct == sliced


def test_symbolic_n1_reproduces_base_family():
    fam = solution_from_nP(1)
    ref = family_eq20()
    assert (fam.x1, fam.x2) == (ref.x2, ref.x1)
    assert (fam.y1, fam.y2) == (ref.y1, ref.y2)
    assert (fam.z1, fam.z2) == (ref.z1, ref.z2)
    assert param_equivalent(fam, ref)


def test_symbolic_n2_reproduces_doubled_family():
    fam = solution_from_nP(2)
    assert fam.residual().is_zero
    assert param_equivalent(fam, family_eq21())


def test_symbolic_plus_branch_is_a_family():
    fam = solution_from_nP(1, sign="plus")
    assert fam.residual().is_zero
    assert not param_equivalent(fam, family_eq20())


def test_symbolic_n3_family():
    fam = solution_from_nP(3)
    assert fam.residual().is_zero
    degs = fam.degrees()
    assert degs[4] >= 120 and degs[5] >= 120
    assert check_solution(evaluate_param(fam, 2))


def _check_square_identities(fam):
    x1, x2, y1, y2, z1, z2 = fam.polys()
    assert z1 * z1 == (x1 * y1) ** 2 + (x2 * y2) ** 2
    assert z2 * z2 == (x1 * y2) ** 2 - (x2 * y1) ** 2
    assert fam.residual().is_zero


@pytest.mark.parametrize("sign", ("minus", "plus"))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_symbolic_family_square_identities(n, sign):
    _check_square_identities(solution_from_nP(n, sign=sign))


@pytest.mark.slow
def test_symbolic_family_square_identities_n8():
    fam = solution_from_nP(8)
    assert fam.degrees()[4:] == (961, 960)
    _check_square_identities(fam)


def test_pipeline_commutes_with_evaluation():
    for n in (1, 2):
        fam = solution_from_nP(n, sign="minus")
        for m0 in (1, 2, Fraction(1, 2)):
            a = canonicalize(numeric_solution_from_nP(n, m0, sign="minus"))
            b = canonicalize(evaluate_param(fam, m0))
            assert a == b


def test_evaluate_param_known_value():
    key = canonicalize(evaluate_param(family_eq20(), 2))
    assert key.xpair == (3, 5)
    assert key.ypair == (17, 28)
    assert key.zpair == (Fraction(13), Fraction(149))


def test_param_equivalent_distinguishes():
    assert param_equivalent(family_eq20(), family_eq20())
    assert not param_equivalent(family_eq20(), family_eq21())


def test_degenerate_and_corrupt_families():
    z = IPoly.const(0)
    one = IPoly.const(1)
    broken = ParamSolution(z, z, one, one, one, z)
    with pytest.raises(DegenerateSolutionError):
        evaluate_param(broken, 1)
    ref = family_eq20()
    corrupt = ParamSolution(ref.x1, ref.x2, ref.y1, ref.y2, ref.z1 + 1, ref.z2)
    with pytest.raises(PipelineError):
        evaluate_param(corrupt, 1)


def test_symbolic_input_validation():
    with pytest.raises(TypeError):
        quartic_point_to_param_solution(QuarticPoint(THIRD, VVAL, 1))
    with pytest.raises(ValueError):
        solution_from_nP(0)
    with pytest.raises(ValueError):
        solution_from_nP(1, sign="sometimes")
    with pytest.raises(ValueError):
        numeric_solution_from_nP(-2, 1)


def test_symbolic_quartic_point_roundtrip():
    M = RatFn.gen()
    w = CurvePoint(point_P(M).x, -point_P(M).y)
    qp = weierstrass_to_quartic(M, w)
    assert to_weierstrass(qp.u, qp.v, qp.M) == (w.x, w.y)
    fam = quartic_point_to_param_solution(qp)
    assert fam.residual().is_zero
