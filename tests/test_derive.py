"""Tests for the curve-point-to-solution pipeline."""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import biquadrates.derive as derive
import biquadrates.families as families
import biquadrates.poly as poly
from biquadrates.curve import multiple_P
from biquadrates.derive import (
    FAMILIES,
    PipelineError,
    evaluate_param,
    family_eq20,
    family_eq21,
    quartic_image,
    quartic_point_to_param_solution,
    quartic_rhs,
    solution_from_nP,
    to_weierstrass,
)
from biquadrates.exact import DegenerateSolutionError, SolutionSix, canonicalize, check_solution
from biquadrates.families import ParamSolution
from biquadrates.poly import IPoly, PoleError, content
from known_solutions import PUBLISHED_FAMILIES
from mutations import entry_bent, fresh_families, psi_changed
from oracles import (
    INFINITY,
    CurvePoint,
    QuarticPoint,
    SAMPLES,
    RatFn,
    add,
    clear_fractions,
    curve_from_parameter,
    evaluate,
    mul_scalar,
    on_curve,
    point_P,
    fraction_evaluate_param,
    fraction_horner,
    numeric_solution_from_nP,
    param_equivalent,
    sampled_sign,
    signed_multiple,
    solution_from_quartic_point,
    weierstrass_to_quartic,
)

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
                  (1, add(curve_from_parameter(1), point_P(1), point_P(1))),
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


@pytest.mark.parametrize("m0", SAMPLES)
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
    # auto resolves to the minus branch, which here has the smaller key too
    assert numeric_solution_from_nP(1, 1) == minus


def test_signed_multiple_branches():
    w, pt = signed_multiple(1, 1, "minus")
    assert w == point_P(1)
    assert pt == CurvePoint(Fraction(4, 9), Fraction(-100, 27))
    assert signed_multiple(1, 1, "plus") == (w, w)
    assert signed_multiple(1, 1) == (w, pt)


def test_auto_is_the_lower_degree_branch():
    # on one triple over Z[M], q on the plus branch has degree 2n more than
    # on the minus branch, and p has degree deg q + 1 on both
    M = IPoly.gen()
    for n in range(1, 9):
        nP = multiple_P(n, M)
        (pm, qm, _), (pp, qp, _) = (quartic_image(nP, M, s) for s in ("minus", "plus"))
        assert qp.degree - qm.degree == 2 * n
        assert (qm.degree, qp.degree) == (2 * n * n - n - 1, 2 * n * n + n - 1)
        assert (pm.degree, pp.degree) == (qm.degree + 1, qp.degree + 1)
    assert derive._resolve_sign("auto") == "minus"
    with pytest.raises(ValueError, match="sign must be"):
        derive._resolve_sign("both")


def test_sampled_rule_picks_minus():
    # the rule "auto" once ran, smaller canonical key at m = 1, 2, 3,
    # agrees with the lower-degree branch
    assert all(sampled_sign(n) == "minus" for n in range(1, 41))


def test_numeric_solution_n2():
    sol = numeric_solution_from_nP(2, 1, sign="minus")
    assert sol == SolutionSix(1537, 1200, 2737, 2137, 4926769, 33319)
    assert check_solution(sol)
    assert numeric_solution_from_nP(2, 1) == sol


def test_numeric_matches_family_slice():
    for n, fam in ((1, PUBLISHED_FAMILIES["eq20"]), (2, PUBLISHED_FAMILIES["eq21"])):
        for m0 in (1, 2, 3, Fraction(1, 2)):
            direct = canonicalize(numeric_solution_from_nP(n, m0))
            sliced = canonicalize(evaluate_param(fam, m0))
            assert direct == sliced


def _reproduces_published(fam, name):
    # the paper prints the ladder's family with the x-pair swapped
    ref = PUBLISHED_FAMILIES[name]
    assert (fam.x1, fam.x2) == (ref.x2, ref.x1)
    assert (fam.y1, fam.y2) == (ref.y1, ref.y2)
    assert (fam.z1, fam.z2) == (ref.z1, ref.z2)
    assert param_equivalent(fam, ref)
    assert FAMILIES[name]() == ref


def test_symbolic_n1_reproduces_base_family():
    _reproduces_published(solution_from_nP(1), "eq20")


def test_symbolic_n2_reproduces_doubled_family():
    fam = solution_from_nP(2)
    assert fam.residual().is_zero
    _reproduces_published(fam, "eq21")


def test_symbolic_plus_branch_is_a_family():
    fam = solution_from_nP(1, sign="plus")
    assert fam.residual().is_zero
    assert not param_equivalent(fam, PUBLISHED_FAMILIES["eq20"])
    _reproduces_published(fam, "eq22")


def _solution_of(pt, m):
    """The canonical key of the solution an affine point over Q maps to."""
    return canonicalize(solution_from_quartic_point(weierstrass_to_quartic(m**4, pt), m))


INDEX_MS = (Fraction(2), Fraction(3, 5), Fraction(-2, 7))


@pytest.mark.parametrize("m", INDEX_MS)
def test_minus_k_r_gives_the_solution_of_k_plus_1_r(m):
    # by the affine law, from the half point R = (4M, 12M), P = -2R
    M = m**4
    c, R = curve_from_parameter(M), CurvePoint(4 * M, 12 * M)
    for k in range(2, 7):
        kR = mul_scalar(c, k, R)
        assert _solution_of(CurvePoint(kR.x, -kR.y), m) == _solution_of(mul_scalar(c, k + 1, R), m)


@pytest.mark.parametrize("m", INDEX_MS)
def test_branches_are_the_families_of_even_and_odd_multiples_of_r(m):
    # the minus branch at n maps -nP = 2nR; the plus branch maps nP = -2nR,
    # whose solution is that of (2n + 1)R
    M = m**4
    c, R = curve_from_parameter(M), CurvePoint(4 * M, 12 * M)
    for n in (1, 2, 3):
        for sign, j in (("minus", 2 * n), ("plus", 2 * n + 1)):
            got = canonicalize(evaluate_param(solution_from_nP(n, sign), m))
            assert got == _solution_of(mul_scalar(c, j, R), m), (n, sign)


def test_z1_degree_is_2j_minus_1_squared():
    for j in range(2, 14):
        n, sign = divmod(j, 2)
        fam = solution_from_nP(n, "plus" if sign else "minus")
        assert fam.z1.degree == (2 * j - 1) ** 2, j


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


@pytest.mark.parametrize("n", range(1, 9))
def test_symbolic_pipeline_takes_no_polynomial_gcd(n, monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("polynomial gcd taken")

    monkeypatch.setattr(poly, "poly_gcd", no_gcd)
    for sign in ("minus", "plus"):
        assert solution_from_nP(n, sign).residual().is_zero


def _no_check(*args, **kwargs):
    raise AssertionError("a second membership check ran")


@pytest.mark.parametrize("n", range(1, 9))
def test_symbolic_pipeline_proves_each_point_once(n, monkeypatch):
    # B's square identity over Z[M] is the one proof: derive holds no
    # QuarticPoint, on_curve or RatFn, and the field route is not reached
    import biquadrates.curve as curve
    import oracles

    assert not {"QuarticPoint", "on_curve", "RatFn"} & set(vars(derive))
    monkeypatch.setattr(curve, "on_curve", _no_check)
    monkeypatch.setattr(oracles, "QuarticPoint", _no_check)
    for sign in ("minus", "plus"):
        assert solution_from_nP(n, sign).residual().is_zero


def test_numeric_map_runs_no_curve_check(monkeypatch, capsys):
    # at a rational m the integer identity in quartic_image is the curve
    # equation pulled back, so the map runs no on_curve and no QuarticPoint,
    # and it rejects a point off the curve
    import biquadrates.cli as cli
    import biquadrates.curve as curve
    import oracles

    monkeypatch.setattr(curve, "on_curve", _no_check)
    monkeypatch.setattr(oracles, "QuarticPoint", _no_check)
    for m0 in (1, 2, Fraction(3, 5)):
        M = Fraction(m0) ** 4
        for n in (1, 2, 3):
            x, y, z, below, above = multiple_P(n, M.numerator, M.denominator)
            for sign, w in (("plus", y), ("minus", -y)):
                p, q, s = quartic_image((x, y, z, below, above), M, sign)
                assert (to_weierstrass(Fraction(p, q), Fraction(s, q * q), M)
                        == (Fraction(x, z * z), Fraction(w, z**3)))
                with pytest.raises(PipelineError):
                    quartic_image((x, y + 1, z, below, above), M, sign)
    assert cli.main(["curve", "--n", "4", "--m", "3/5"]) == 0
    assert "source: curve_nP" in capsys.readouterr().out


@pytest.mark.parametrize("m0", [1, 2, 3, Fraction(1, 2), Fraction(3, 5), Fraction(-2, 7),
                                Fraction(7, 2)], ids=str)
def test_integer_route_equals_field_route(m0, monkeypatch):
    # quartic_image over Z gives the oracle's nP, U, V and solution over Q
    # on both branches, with U = p/q in lowest terms; a point off the curve
    # (y + 1) or an image off the quartic model (s + 1) raises PipelineError
    M = Fraction(m0) ** 4
    for n in range(1, 9):
        nP = multiple_P(n, M.numerator, M.denominator)
        x, y, z = nP[:3]
        for sign in ("minus", "plus"):
            w, pt = signed_multiple(n, M, sign)
            assert w == CurvePoint(Fraction(x, z * z), Fraction(y, z**3))
            p, q, s = quartic_image(nP, M, sign)
            qp = weierstrass_to_quartic(M, pt)
            assert (Fraction(p, q), Fraction(s, q * q)) == (qp.u, qp.v)
            assert (p, q) == (qp.u.numerator, qp.u.denominator)
            sol = clear_fractions(*derive._solution_pairs(p, q, m0, s))
            assert sol == solution_from_quartic_point(qp, m0)
            with pytest.raises(PipelineError):
                quartic_image((x, y + 1) + nP[2:], M, sign)
    original = derive.to_quartic

    def s_plus_one(*args):
        p, q, s = original(*args)
        return p, q, s + 1

    monkeypatch.setattr(derive, "to_quartic", s_plus_one)
    for sign in ("minus", "plus"):
        with pytest.raises(PipelineError, match="quartic model"):
            quartic_image(multiple_P(2, M.numerator, M.denominator), M, sign)


def _moved_constant(p0):
    """A stand-in for to_quartic whose p has constant term p0(p, q)."""
    original = derive.to_quartic

    def stand_in(*args):
        p, q, s = original(*args)
        return p + (p0(p, q) - p[0]), q, s
    return stand_in


@pytest.mark.parametrize("p0", [lambda p, q: 0, lambda p, q: q[0]], ids=["U(0)=0", "U(0)=1"])
def test_guard_rejects_u_0_or_1_at_m_0(p0, monkeypatch):
    # x1 = p - q and y2 = p must not vanish at M = 0 (the gcd argument in
    # quartic_point_to_param_solution relies on it); the pin of U(0) says so
    # before B's square identity is formed
    monkeypatch.setattr(derive, "to_quartic", _moved_constant(p0))
    for n in (1, 2):
        for sign in ("minus", "plus"):
            with pytest.raises(PipelineError, match="at M = 0"):
                solution_from_nP(n, sign)


PSI_CHANGES = {"plus_one": lambda v: v + 1, "doubled": lambda v: 2 * v,
               "negated": lambda v: -v}


@pytest.mark.parametrize("change", PSI_CHANGES)
@pytest.mark.parametrize("k", (2, 3, 4))
def test_psi_corruptions_fail_or_change_nothing(k, change, monkeypatch):
    # a corrupted division value of the half point raises PipelineError
    # (an exact division leaves a remainder, the pin of U at M = 0 fails, or
    # a square identity fails) or still gives a genuine family.  Negating
    # psi_2 or psi_4 negates nP; at n = 1 the plus branch divides U by
    # psi_1 = 1, so it maps -P unreduced, and -P is on the curve: only the
    # pin, U(0) = -1/3 where the plus branch has 4/3, rejects it
    import biquadrates.curve as curve

    ref = {(n, s): solution_from_nP(n, s) for n in range(1, 5) for s in ("minus", "plus")}
    monkeypatch.setattr(curve, "_initial_psi",
                        psi_changed(k, PSI_CHANGES[change])(curve._initial_psi))
    accepted = []
    for (n, sign), fam in ref.items():
        try:
            got = solution_from_nP(n, sign)
        except PipelineError:
            continue
        if got.polys() != fam.polys():
            other = ref[n, "minus" if sign == "plus" else "plus"]
            assert got.residual().is_zero and param_equivalent(got, other)
            accepted.append((n, sign))
    assert accepted == []


def _coprime(a: IPoly, b: IPoly) -> bool:
    """gcd(a, b) = 1 in Z[M], integer contents included, by sympy's gcd."""
    x = sympy.Symbol("M")
    g = sympy.Poly(a.coeffs[::-1], x).gcd(sympy.Poly(b.coeffs[::-1], x))
    return g.degree() == 0 and abs(g.LC()) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_known_factor_reduces_u(n):
    # dividing out the ladder's odd value and the integer content leaves U =
    # p/q and V = s/q^2 with the map's values, cross-multiplied over Z[M],
    # and reduced: q's leading coefficient is positive and p, s are prime to q
    M = IPoly.gen()
    x, y, z, below, above = multiple_P(n, M)
    zz = z * z
    for y, g, h in ((y, below, above), (-y, above, below)):
        p, q, s = derive.to_quartic(x, y, M, z, g, -72 * h)
        assert q.lc > 0
        # U = (xz + y + 8Mz^3) / (z(2x - 8Mz^2)) and V = x/(2z^2) + U(1 - U)
        assert p * z * (2 * x - 8 * M * zz) == q * (x * z + y + 8 * M * z * zz)
        assert 2 * zz * s == x * q * q + 2 * zz * p * (q - p)
        assert _coprime(p, q) and _coprime(s, q)


@pytest.mark.parametrize("M", [IPoly.gen(), Fraction(2, 3) ** 4, Fraction(-5, 7) ** 4],
                         ids=["Z[M]", "(2/3)^4", "(-5/7)^4"])
def test_pole_cofactor_is_the_old_division(M, monkeypatch):
    # quartic_image hands to_quartic the pole factor's cofactor r, -72 times
    # the odd value not shared with U's numerator, in place of dividing
    # 2x - 8Mz^2 by the shared one g: r is that quotient on both branches
    original, seen = derive.to_quartic, []

    def recording(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(derive, "to_quartic", recording)
    A, B = (M, 1) if isinstance(M, IPoly) else (M.numerator, M.denominator)
    for n in range(1, 9):
        for sign in ("minus", "plus"):
            quartic_image(multiple_P(n, A, B), M, sign)
            x, _, _, z, g, r = seen.pop()
            pole = 2 * x - 8 * M * z * z
            if not isinstance(M, IPoly):
                assert pole.denominator == 1
                pole = pole.numerator
            assert r == derive._exact(pole, g)
    assert seen == []


def test_family_is_proved_once(monkeypatch, capsys):
    # derive proves each family with B's square identity over Z[M] and
    # printing runs no residual; a published family is checked by cmd_family
    import biquadrates.cli as cli

    assert cli.main(["curve", "--n", "3", "--symbolic"]) == 0
    printed = capsys.readouterr().out

    def no_residual(self):
        raise AssertionError("ParamSolution.residual ran")

    with monkeypatch.context() as mp:
        mp.setattr(families.ParamSolution, "residual", no_residual)
        for n in (1, 2, 3, 4):
            for sign in ("minus", "plus"):
                solution_from_nP(n, sign)
        assert cli.main(["curve", "--n", "3", "--symbolic"]) == 0
        assert capsys.readouterr().out == printed
    monkeypatch.setattr(families.ParamSolution, "residual", lambda self: IPoly((1,)))
    assert cli.main(["family", "eq21", "--symbolic"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "family: the residual is nonzero\n"


def test_published_families_are_derived_once(monkeypatch, capsys, fresh_families):
    # family and pell --t build a published family on first use and reuse it;
    # curve --symbolic derives on every call
    import biquadrates.cli as cli

    derived = []
    prove = derive.quartic_point_to_param_solution
    monkeypatch.setattr(derive, "quartic_point_to_param_solution",
                        lambda p, q, s: derived.append(1) or prove(p, q, s))
    for _ in range(2):
        for name in ("eq20", "eq21", "eq22", "eq26"):
            assert cli.main(["family", name, "--param", "2"]) == 0
            assert cli.main(["family", name, "--symbolic"]) == 0
        assert cli.main(["pell", "--t", "5/17"]) == 0
    assert len(derived) == 3
    for _ in range(2):
        assert cli.main(["curve", "--n", "2", "--symbolic"]) == 0
    assert len(derived) == 5
    capsys.readouterr()


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


# a family whose x-pair vanishes at m = 2 and whose y-pair vanishes at m = -1/3
PAIR_ZERO = ParamSolution(IPoly((-2, 1)), IPoly((-6, 3)), IPoly((1, 3)), IPoly((-2, -6)),
                          IPoly((1, 0, 1)), IPoly((0, 5)))


@given(st.sampled_from(sorted(FAMILIES) + ["pair_zero", "corrupt"]),
       st.integers(-40, 40), st.integers(1, 40))
@example("eq20", 0, 1)       # m = 0: zero coordinates, no (0, 0) pair
@example("eq21", -6, 7)
@example("eq26", 3, 1)
@example("eq22", 12, 8)      # a/b not in lowest terms
@example("pair_zero", 2, 1)
@example("pair_zero", -1, 3)
@example("corrupt", 2, 3)
@settings(max_examples=150, deadline=None)
def test_evaluate_param_matches_fraction_horner(name, a, b):
    # evaluate_param clears b^d P(a/b) over b^d in integers; the oracle
    # reduces each value to a Fraction (oracles.evaluate, Horner's rule over Q)
    # and clears those
    fam = {"pair_zero": PAIR_ZERO,
           "corrupt": ParamSolution(*family_eq20().polys()[:4], family_eq20().z1 + 1,
                                    family_eq20().z2)}.get(name) or FAMILIES[name]()
    m0 = Fraction(a, b)
    assert [evaluate(p, m0) for p in fam.polys()] == [fraction_horner(p.coeffs, m0)
                                                      for p in fam.polys()]
    try:
        want = fraction_evaluate_param(fam, m0)
    except DegenerateSolutionError as exc:
        for check in (True, False):
            with pytest.raises(DegenerateSolutionError) as got:
                evaluate_param(fam, m0, check=check)
            assert str(got.value) == str(exc) == "pair evaluated to (0, 0)"
        return
    assert evaluate_param(fam, m0, check=False) == want
    if check_solution(want):
        assert evaluate_param(fam, m0) == want
    else:
        assert name in ("corrupt", "pair_zero")
        with pytest.raises(PipelineError):
            evaluate_param(fam, m0)


@given(st.lists(st.integers(-10**9, 10**9), min_size=6, max_size=6),
       st.lists(st.integers(1, 10**5), min_size=6, max_size=6),
       st.lists(st.integers(1, 36), min_size=6, max_size=6))
@example([0, 0, 1, 1, 1, 1], [1] * 6, [1] * 6)
@example([1, 1, 0, 0, 1, 1], [1] * 6, [1] * 6)
@example([3, 0, 0, 5, 7, 0], [4, 9, 25, 1, 36, 8], [6, 1, 10, 4, 1, 2])
@settings(max_examples=200, deadline=None)
def test_clear_to_solution_matches_fraction_clearing(hs, bs, cs):
    # values h/b given unreduced (h c over b c) clear as their Fractions do
    fracs = [Fraction(h, b) for h, b in zip(hs, bs)]
    scaled = ([h * c for h, c in zip(hs, cs)], [b * c for b, c in zip(bs, cs)])
    try:
        want = clear_fractions(fracs[0:2], fracs[2:4], fracs[4:6])
    except DegenerateSolutionError:
        with pytest.raises(DegenerateSolutionError, match=r"pair evaluated to \(0, 0\)"):
            derive._clear_to_solution(*scaled)
        return
    assert derive._clear_to_solution(*scaled) == want


@given(st.integers(1, 24), st.integers(-13, 13).filter(bool), st.integers(1, 13),
       st.sampled_from(("minus", "plus")))
@example(24, 1, 2, "minus")
@example(24, 13, 6, "plus")
@example(1, -1, 1, "minus")
@example(5, 7, 13, "minus")
@settings(max_examples=80, deadline=None)
def test_integer_clearing_matches_fraction_clearing(n, a, b, sign):
    # small-jobs' heights: max(|a|, b) <= 13, n <= 24
    m = Fraction(a, b)
    M = m**4
    try:
        p, q, s = quartic_image(multiple_P(n, M.numerator, M.denominator), M, sign)
    except (PoleError, PipelineError):
        assume(False)
    want = clear_fractions(*derive._solution_pairs(p, q, m, s))
    assert derive._clear_image(p, q, s, m) == want


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool),
       st.integers(-10**6, 10**6), st.integers(-60, 60).filter(bool), st.integers(1, 60))
@example(1, 1, 0, 1, 4)
@example(4, 4, 7, -3, 32)
@example(7, 9, 1, 5, 8)
@settings(max_examples=300, deadline=None)
def test_integer_clearing_matches_fraction_clearing_off_the_curve(p, q, s, a, b):
    # on the curve b divides 2q; any p, q != 0 and s also reach odd 2q and
    # p + q sharing primes with b, where the Fraction route's z-pair lcm is
    # still 1 because those prime powers divide p^2 + q^2
    m = Fraction(a, b)
    want = clear_fractions(*derive._solution_pairs(p, q, m, s))
    assert derive._clear_image(p, q, s, m) == want


# -- the two-point zero test of B's square identity --------------------------

@st.composite
def bounded_polys(draw):
    """(w, R) with every |R_i| < 4^w, drawn towards the bound's edge."""
    w = draw(st.integers(1, 40))
    top = 4**w - 1
    coeff = st.one_of(st.integers(-top, top),
                      st.sampled_from((0, 1, -1, top, -top, 2**w, -(2**w))))
    return w, IPoly(draw(st.lists(coeff, max_size=8)))


@given(bounded_polys())
@example((8, IPoly((4**8 - 1, 0, -1))))
@example((8, IPoly((0, 4**8 - 1, 0, -1))))
def test_zero_test_is_exact_within_the_bound(case):
    w, r = case
    assert (evaluate(r, 2**w) == 0 and evaluate(r, -(2**w)) == 0) == r.is_zero


@given(st.integers(1, 40), st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=6))
def test_polynomials_vanishing_at_both_points_leave_the_bound(w, cs):
    # an integer polynomial vanishing at +-2^w is S (M^2 - 4^w), and every
    # nonzero one has a coefficient of at least 4^w
    sq = IPoly(cs)
    assume(not sq.is_zero)
    r = sq * IPoly((-(4**w), 0, 1))
    assert evaluate(r, 2**w) == evaluate(r, -(2**w)) == 0
    assert max(map(abs, r.coeffs)) >= 4**w


@pytest.mark.parametrize("w", (1, 8, 64, 1120))
def test_zero_test_bound_is_tight(w):
    # 4^w - M^2 vanishes at +-2^w and its top coefficient, 4^w, has 2w + 1
    # bits: a width w whose 2w is one bit short of that passes a nonzero R,
    # and at w + 1 it no longer vanishes
    r = IPoly((4**w, 0, -1))
    assert max(map(abs, r.coeffs)) == 4**w
    assert evaluate(r, 2**w) == evaluate(r, -(2**w)) == 0
    assert evaluate(r, 2 ** (w + 1)) != 0


def _packed_entries_and_error(p, q, s, pairs=None):
    """The five entries E1..E4 and E6 and the width the zero test packs, the
    family (None if it is rejected) and the PipelineError's text (None if
    it is accepted)."""
    packs = []

    def pack_spy(cs, width):
        packs.append((tuple(cs), width))
        return poly._pack(cs, width)

    family = error = None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derive, "_pack", pack_spy)
        if pairs is not None:
            mp.setattr(derive, "_solution_pairs", pairs)
        try:
            family = derive.quartic_point_to_param_solution(p, q, s)
        except PipelineError as exc:
            error = str(exc)
    return [IPoly(cs) for cs, _ in packs[:5]], packs[0][1] if packs else None, family, error


small_entry = st.lists(st.integers(-10**40, 10**40), min_size=1, max_size=12)
small_bend = st.lists(st.integers(-9, 9), max_size=5)


@given(small_entry, small_entry, small_entry, small_bend, small_bend)
@settings(max_examples=60, deadline=None)
# the minus branch at n = 1: as it is, with z1 bent, with z1 negated, with z2 bent
@example([-1, -1], [3], [4, -13, 1], [], [])
@example([-1, -1], [3], [4, -13, 1], [0, 0, 1], [])
@example([-1, -1], [3], [4, -13, 1], [-20, -4, -2], [])
@example([-1, -1], [3], [4, -13, 1], [], [0, 0, 1])
# one long entry of equal coefficients of 64 bits: its square's middle
# coefficient is about L 2^128, so the L^3 term of the width is needed
@example([1, 1], [1], [2**64 - 1] * 12, [], [])
@example([1, 1], [1], [1], [], [2**64 - 1] * 12)
def test_zero_test_width_bounds_every_residual(pc, qc, sc, bend1, bend2):
    # random p, q, s with z1 and z2 bent: the width puts every coefficient of
    # B's residual below 4^w, and the zero test rejects exactly the nonzero
    # ones.  It proves B alone: a bent z1 is accepted, and only the family's
    # residual sees it
    p, q = IPoly(pc), IPoly(qc)
    assume(not p.is_zero and not q.is_zero)
    d = gcd(content(p - q), content(2 * q)) * gcd(content(p + q), content(p))
    pairs = derive._solution_pairs

    def bent(p, q, m, v):
        x, y, (z1, z2) = pairs(p, q, m, v)
        return x, y, (z1 + d * IPoly(bend1), z2 + d * IPoly(bend2))

    entries, w, family, error = _packed_entries_and_error(p, q, d * IPoly(sc), bent)
    assume(w is not None)
    e1, e2, e3, e4, e6 = entries
    r = (e1 * e4) ** 2 - e6 * e6 - IPoly.gen() * (e2 * e3) ** 2
    assert w % 8 == 0
    assert max(map(abs, r.coeffs), default=0) < 4**w
    if not r.is_zero:
        assert (family, error) == (None, "the family's residual is nonzero: B != z2^2")
        return
    assert error is None
    # A = z1^2 holds on the unbent E5, so the residual vanishes exactly when
    # the bent E5 is +-E5
    e5, b = (p * p + q * q).exact_div(d), IPoly(bend1)
    assert family.residual().is_zero == (b.is_zero or b == -2 * e5)


@pytest.mark.parametrize("where", ("top", "constant", "edge"))
@pytest.mark.parametrize("k, name", ((0, "A != z1^2"), (1, "B != z2^2")))
@pytest.mark.parametrize("sign", ("minus", "plus"))
def test_mutated_entries_fail_the_zero_test(sign, k, name, where):
    # one changed coefficient of E1 (k = 0) breaks A = z1^2 and B = z2^2,
    # and one of E6 (k = 1) breaks B alone; B's zero test rejects both.  At
    # the edge the width is the family's own
    bent = entry_bent(derive._solution_pairs, (0, 5)[k], where)
    X = IPoly.gen()
    for n in range(1, 7):
        p, q, s = quartic_image(multiple_P(n, X), X, sign)
        _, w, _, error = _packed_entries_and_error(p, q, s)
        assert error is None
        (x1, x2), (y1, y2), (z1, _) = bent(p, q, 1, s)
        assert ((x1 * y1) ** 2 + (x2 * y2) ** 2 != z1 * z1) == (name == "A != z1^2")
        _, bent_w, _, error = _packed_entries_and_error(p, q, s, bent)
        assert error == "the family's residual is nonzero: B != z2^2"
        assert bent_w == w or where != "edge"


def test_param_equivalent_distinguishes():
    assert param_equivalent(family_eq20(), family_eq20())
    assert not param_equivalent(family_eq20(), family_eq21())


def test_degenerate_and_corrupt_families():
    z = IPoly(())
    one = IPoly((1,))
    broken = ParamSolution(z, z, one, one, one, z)
    with pytest.raises(DegenerateSolutionError):
        evaluate_param(broken, 1)
    ref = family_eq20()
    corrupt = ParamSolution(ref.x1, ref.x2, ref.y1, ref.y2, ref.z1 + 1, ref.z2)
    with pytest.raises(PipelineError):
        evaluate_param(corrupt, 1)


def test_symbolic_input_validation():
    with pytest.raises(ValueError):
        solution_from_nP(0)
    with pytest.raises(ValueError):
        solution_from_nP(1, sign="sometimes")
    with pytest.raises(ValueError):
        numeric_solution_from_nP(-2, 1)


def test_quartic_image_rejects_an_unknown_sign():
    nP = multiple_P(2, 1)
    with pytest.raises(ValueError):
        quartic_image(nP, Fraction(1), "Plus")
    assert quartic_image(nP, Fraction(1), "auto") == quartic_image(nP, Fraction(1), "minus")


def test_symbolic_quartic_point_roundtrip():
    M = RatFn.gen()
    w = CurvePoint(point_P(M).x, -point_P(M).y)
    qp = weierstrass_to_quartic(M, w)
    assert to_weierstrass(qp.u, qp.v, qp.M) == (w.x, w.y)
    fam = quartic_point_to_param_solution(qp.u.num, qp.u.den, qp.v.num)
    assert fam.residual().is_zero


@pytest.mark.parametrize("M", [RatFn.gen(), Fraction(2, 3) ** 4], ids=["Q(M)", "m=2/3"])
def test_membership_checks_accept_multiples_and_reject_shifts(M):
    # over Q(M) on_curve and QuarticPoint cross-multiply over Z[M]; at
    # m = 2/3 they compare y^2 with Horner over Q
    c = curve_from_parameter(M)
    for n in range(1, 5):
        w, _ = signed_multiple(n, M, "plus")
        for pt in (w, CurvePoint(w.x, -w.y)):
            assert on_curve(c, pt)
            qp = weierstrass_to_quartic(M, pt)
            assert QuarticPoint(qp.u, qp.v, M) == qp
            bad = CurvePoint(pt.x, pt.y + 1)
            assert not on_curve(c, bad)
            with pytest.raises(ValueError):
                weierstrass_to_quartic(M, bad)
            with pytest.raises(ValueError):
                mul_scalar(c, 2, bad)
            with pytest.raises(ValueError):
                QuarticPoint(qp.u, qp.v + 1, M)
