"""Tests for the identity verifiers, including mutation falsifiers."""

from fractions import Fraction
from itertools import product

import pytest

from biquadrates import cli, curve, derive, pell, search
from biquadrates.exact import SolutionSix
from biquadrates.derive import FAMILIES, family_eq20
from biquadrates.families import ParamSolution
from biquadrates.identity import (
    ALL_VERIFIERS,
    GRIDS,
    GridIdentity,
    brahmagupta_grid,
    curve_chart_grid,
    grid_verify,
    pell_reduction_grid,
    quartic_brahmagupta_grid,
    quartic_chart_grid,
    quartic_model_grid,
    substitution_grid,
    verify_birational_roundtrip,
    verify_curve_closure,
    verify_curve_high_multiple,
    verify_mod16_obstruction,
    verify_pell_reduction,
)
from biquadrates.poly import IPoly
from mutations import (
    brahmagupta_square_twice,
    fresh_families,
    mod5_class_1,
    pell_factor_255,
    pell_z2_plus_one,
    psi_changed,
    quartic_brahmagupta_plus_abcd,
    quartic_rhs_7mu,
    skip_odd_x1,
    substitution_3m2p2q2,
    v_denominator_16,
    v_term_23,
    y_plus_2uv,
    z1_plus_q2,
    z2_doubled,
)
import oracles
from oracles import point_P


def test_all_verifiers_true():
    for name, fn in ALL_VERIFIERS.items():
        assert fn(), name


def test_grid_verify_basics():
    always_zero = GridIdentity(("x", "y"), (2, 2), lambda x, y: 0)
    assert grid_verify(always_zero)
    xy = GridIdentity(("x", "y"), (1, 1), lambda x, y: x * y)
    assert not grid_verify(xy)  # fails at (1,1)
    cubic = GridIdentity(("x",), (2,), lambda x: x**3)
    assert not grid_verify(cubic)  # nonzero at x = 1
    # the bounds are trusted, not checked: a quartic vanishing on the four
    # nodes of a degree-2 axis passes (test_identity_oracle checks bounds)
    quartic = GridIdentity(("x",), (2,), lambda x: x * (x - 1) * (x - 2) * (x - 3))
    assert grid_verify(quartic)


def test_grid_verify_refuses_a_float_residual():
    # the nodes are plain ints
    assert grid_verify(GridIdentity(("x",), (1,), lambda x: type(x) is not int))
    # so an unlifted division gives a float, whose 0.0 proves nothing
    same = GridIdentity(("a", "b"), (1, 1), lambda a, b: a / b - a / b, (1, 1))
    with pytest.raises(TypeError):
        grid_verify(same)
    pair = GridIdentity(("a", "b"), (1, 1), lambda a, b: (0, a / b - a / b), (1, 1))
    with pytest.raises(TypeError):
        grid_verify(pair)


# every corruption that reaches a grid: a residual wrapper, or a formula
# patched into its module as (module, name, wrapper)
NODE_CASES = [(name, None) for name in GRIDS] + [
    ("brahmagupta", brahmagupta_square_twice),
    ("quartic_brahmagupta", quartic_brahmagupta_plus_abcd),
    ("substitution_13", substitution_3m2p2q2),
    ("substitution_13", (derive, "_solution_pairs", z2_doubled)),
    ("substitution_13", (derive, "_solution_pairs", z1_plus_q2)),
    ("quartic_model", quartic_rhs_7mu),
    ("quartic_model", (derive, "_solution_pairs", z2_doubled)),
    ("pell_reduction", pell_factor_255),
    ("pell_reduction", (pell, "pell_shapes", pell_z2_plus_one)),
] + [(chart, (derive, name, wrap)) for chart in ("curve_chart", "quartic_chart")
     for name, wrap in (("to_quartic", v_denominator_16), ("to_quartic", v_term_23),
                        ("to_weierstrass", y_plus_2uv))]
POLYNOMIAL_GRIDS = ("brahmagupta", "quartic_brahmagupta", "substitution_13",
                    "quartic_model", "pell_reduction")


def _case_id(case) -> str:
    name, mutation = case
    wrap = mutation[-1] if isinstance(mutation, tuple) else mutation
    return name if wrap is None else "%s-%s" % (name, wrap.__name__)


def _components(g, lift) -> list:
    """Each residual component at each node, the nodes passed through lift."""
    values = (g.residual(*map(lift, args)) for args in product(*g.nodes()))
    return [c for r in values for c in (r if isinstance(r, tuple) else (r,))]


@pytest.mark.parametrize("case", NODE_CASES, ids=_case_id)
def test_int_nodes_match_fraction_nodes(case, monkeypatch):
    # grid_verify's int nodes see exactly the values Fraction nodes give, for
    # the formulas and their corruptions, and the polynomial grids stay on int
    name, mutation = case
    g = GRIDS[name]()
    if isinstance(mutation, tuple):
        module, attr, wrap = mutation
        monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    elif mutation is not None:
        g = g._replace(residual=mutation(g.residual))
    fast = _components(g, int)
    assert not any(isinstance(c, float) for c in fast)
    assert fast == _components(g, Fraction)
    if name in POLYNOMIAL_GRIDS:
        assert all(type(c) is int for c in fast)


def test_brahmagupta_point_values():
    r = brahmagupta_grid().residual
    assert r(1, 2, 3, 4) == 0  # 5*25 = 11^2 + 2^2
    assert r(1, 0, 1, 0) == 0


def test_quartic_brahmagupta_point_values():
    r = quartic_brahmagupta_grid().residual
    assert r(1, 2, 1, 3) == 0  # 17*82 = 37^2 + 25
    assert r(1, 1, 1, 1) == 0


def test_substitution_point_value():
    # p=2, q=1, m=1: x = (1, 2), y = (3, 2), z1 = 5 and 25 = 9 + 16
    r = substitution_grid().residual
    assert r(Fraction(2), Fraction(1), Fraction(1)) == 0


def test_quartic_model_worked_point():
    # m=1, U=-2/3 gives rhs 64/81, so V=-8/9 lies on the quartic model
    r = quartic_model_grid().residual
    assert r(Fraction(-2), Fraction(3), Fraction(1), Fraction(-8, 9)) == 0
    assert derive.quartic_rhs(Fraction(-2, 3), Fraction(1)) == Fraction(64, 81)
    # there the shapes, given s = q^2 V = -8, satisfy the square identity for z2
    (x1, x2), (y1, y2), (_, z2) = derive._solution_pairs(-2, 3, 1, -8)
    assert z2**2 == (x1 * y2) ** 2 - (x2 * y1) ** 2


def test_pell_reduction_point_values():
    # the identity itself holds everywhere
    r = pell_reduction_grid().residual
    assert r(2, 1) == 0
    assert r(1, 1) == 0

    # the equation residual vanishes only where u^2 - 3v^2 = 1
    def eq_residual(u, v):
        return ((1 + 16 * v**4) * ((4 * v**2 + 1) ** 4 + (2 * v * (2 * v**2 + 1)) ** 4)
                - (4 * u * v**2) ** 4 - (8 * v**4 + 4 * v**2 + 1) ** 4)

    assert eq_residual(2, 1) == 0
    assert eq_residual(1, 1) == 3840
    assert eq_residual(1, 1) == -256 * (1 + 3 + 1) * (1 - 3 - 1)


# -- mutation falsifiers: one perturbed coefficient each ---------------------

def _mutated(grid, mutation):
    g = grid()
    return g._replace(residual=mutation(g.residual))


def test_mutated_brahmagupta_fails():
    assert not grid_verify(_mutated(brahmagupta_grid, brahmagupta_square_twice))


def test_mutated_quartic_brahmagupta_fails():
    assert not grid_verify(_mutated(quartic_brahmagupta_grid,
                                    quartic_brahmagupta_plus_abcd))


def test_mutated_substitution_fails():
    assert not grid_verify(_mutated(substitution_grid, substitution_3m2p2q2))


def test_mutated_quartic_model_fails():
    assert not grid_verify(_mutated(quartic_model_grid, quartic_rhs_7mu))


def _selftest_fails(capsys, name) -> bool:
    code = cli.main(["selftest", "--quick"])
    return code == 1 and "%s: FAIL" % name in capsys.readouterr().out


def test_mutated_roundtrip_fails(monkeypatch, capsys):
    # one patch of derive's map reaches the roundtrip grid, the selftest, the
    # oracle's field route, and the integral map over Z and over Z[M]
    original = derive.to_quartic
    for mutation in (v_denominator_16, v_term_23):
        monkeypatch.setattr(derive, "to_quartic", mutation(original))
        with pytest.raises(ValueError, match="quartic model"):
            oracles.weierstrass_to_quartic(1, point_P(1))
        assert not verify_birational_roundtrip()
        assert _selftest_fails(capsys, "birational_roundtrip")
        # the symbolic pipeline reads V as s over q^2: V/4 doubles p and q,
        # and the shifted V multiplies them by 2(x - 4Mz^2); either way an
        # exact division or a square identity fails on both branches
        for n in (1, 2, 3):
            for sign in ("minus", "plus"):
                with pytest.raises(derive.PipelineError):
                    derive.solution_from_nP(n, sign)
    # at a rational m the integer identity rejects the shifted V before
    # anything is printed, on both branches
    for argv in (["curve", "--n", "1", "--m", "1"], ["curve", "--n", "3", "--m=-2/7"],
                 ["curve", "--n", "2", "--m", "3/5", "--sign", "plus"]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("curve: ")


def test_curve_closure_checks_the_half_point(monkeypatch, capsys):
    # -P and 2P lie on the curve like P, but neither is -2R
    triple = curve._P_triple
    for wrong in (lambda M: (lambda t: (t[0], -t[1], t[2]))(triple(M)),
                  lambda M: curve.multiple_P(2, M)[:3]):
        with monkeypatch.context() as mp:
            mp.setattr(curve, "_P_triple", wrong)
            assert not verify_curve_closure()
            assert _selftest_fails(capsys, "curve_closure")
    # 3R read as R, which is not the extra point
    with monkeypatch.context() as mp:
        mp.setattr(curve, "_extra_triple", lambda M: (4 * M, 12 * M, 1))
        assert not verify_curve_closure()
    # a ladder fault: psi_2 or psi_4 negated turns multiple_P(1, M) into -P,
    # psi_3 doubled moves 3R; each passes the ladder's exact divisions
    for k, change in ((2, lambda v: -v), (4, lambda v: -v), (3, lambda v: 2 * v)):
        with monkeypatch.context() as mp:
            mp.setattr(curve, "_initial_psi", psi_changed(k, change)(curve._initial_psi))
            assert not verify_curve_closure()
            assert _selftest_fails(capsys, "curve_closure")


def test_curve_closure_checks_the_ladder_at_2p(monkeypatch, capsys):
    # 2P read with omega + 1 is off the curve; the closure takes 2P and 3P
    # from the ladder itself
    ladder = curve.multiple_P

    def shifted(n, A, B=1):
        phi, omega, *rest = ladder(n, A, B)
        return (phi, omega + 1 if n == 2 else omega, *rest)

    monkeypatch.setattr(curve, "multiple_P", shifted)
    assert not verify_curve_closure()
    assert _selftest_fails(capsys, "curve_closure")


def test_mutated_inverse_map_fails(monkeypatch, capsys):
    monkeypatch.setattr(derive, "to_weierstrass", y_plus_2uv(derive.to_weierstrass))
    assert not verify_birational_roundtrip()
    assert _selftest_fails(capsys, "birational_roundtrip")


def test_mutated_shapes_fail(monkeypatch, capsys, fresh_families):
    # z2 = 2q^2 V: the quartic model check and the pipeline both reject it
    monkeypatch.setattr(derive, "_solution_pairs", z2_doubled(derive._solution_pairs))
    assert _selftest_fails(capsys, "quartic_model")
    # the family is proved where it is derived, before anything prints it,
    # and the published curve families are derived
    with pytest.raises(derive.PipelineError, match="residual"):
        derive.solution_from_nP(2, "minus")
    assert cli.main(["curve", "--n", "2", "--symbolic"]) == 1
    capsys.readouterr()
    for name in ("eq20", "eq21", "eq22"):
        assert cli.main(["family", name, "--param", "2"]) == 1
        assert capsys.readouterr() == ("", "family: the family's residual is nonzero: "
                                           "B != z2^2\n")


def test_mutated_z1_shape_fails(monkeypatch, capsys, fresh_families):
    # z1 = m(p^2 + q^2) + q^2 leaves z2 and B as they were, and derive
    # proves B alone: selftest's substitution check sees it, and so does
    # the residual of each family derived under it
    monkeypatch.setattr(derive, "_solution_pairs", z1_plus_q2(derive._solution_pairs))
    assert _selftest_fails(capsys, "substitution_13")
    for n in (1, 2, 3):
        for sign in ("minus", "plus"):
            assert not derive.solution_from_nP(n, sign).residual().is_zero
    for name in ("eq20", "eq21", "eq22"):
        assert cli.main(["family", name, "--symbolic"]) == 1
        assert capsys.readouterr() == ("", "family: the residual is nonzero\n")


def test_high_multiple_rechecks_the_spread_family(monkeypatch, capsys):
    # entries spread to m with no factor m^r: derive's identities over Z[M]
    # pass, but B - z2^2 is then M (E2 E3)^2 - (E2 E3)^2 in m, so the family
    # is no solution, and only selftest's residual on the 3P family sees it
    spread = derive._spread
    monkeypatch.setattr(derive, "_spread", lambda cs, r, g: spread(cs, 0, g))
    for sign in ("minus", "plus"):
        assert not derive.solution_from_nP(3, sign).residual().is_zero
    assert not verify_curve_high_multiple()
    assert cli.main(["selftest"]) == 1
    assert "curve_high_multiple: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("chart", [curve_chart_grid, quartic_chart_grid])
def test_each_roundtrip_half_rejects_mutations(chart, monkeypatch):
    assert grid_verify(chart())
    for name, mutation in (("to_quartic", v_denominator_16),
                           ("to_quartic", v_term_23),
                           ("to_weierstrass", y_plus_2uv)):
        with monkeypatch.context() as mp:
            mp.setattr(derive, name, mutation(getattr(derive, name)))
            assert not grid_verify(chart())


def test_mutated_pell_reduction_fails(monkeypatch, capsys):
    g = pell_reduction_grid()
    # factored side with 256 -> 255
    bad = g._replace(residual=lambda u, v: g.residual(u, v)
                     - v**8 * (u**2 + 3 * v**2 + 1) * (u**2 - 3 * v**2 - 1))
    assert not grid_verify(bad)
    monkeypatch.setattr(pell, "pell_shapes", pell_z2_plus_one(pell.pell_shapes))
    assert pell.pell_to_solution(pell.pell3_nth(1)) != (1, 2, 5, 6, 8, 13)
    assert not verify_pell_reduction()
    assert _selftest_fails(capsys, "pell_reduction")


def test_mutated_mod16_fails(monkeypatch, capsys):
    monkeypatch.setattr(search, "_pair_class", skip_odd_x1(search._pair_class))
    assert not verify_mod16_obstruction()
    assert _selftest_fails(capsys, "mod16_obstruction")


def test_mutated_mod5_class_fails(monkeypatch, capsys):
    # one patch of the class selection reaches the search and the selftest alike
    lost = SolutionSix(4, 15, 20, 21, 288, 325)     # both pair sums 1 mod 5
    assert lost in search.search(24, 24)
    monkeypatch.setattr(search, "_pair_class", mod5_class_1(search._pair_class))
    assert lost not in search.search(24, 24)
    assert not verify_mod16_obstruction()
    assert _selftest_fails(capsys, "mod16_obstruction")


def test_sweep_skip_primes(monkeypatch, capsys):
    # 7 = 7 mod 8 divides no coprime pair sum, so skipping it is sound;
    # 17 = 1 mod 8 divides 1^4 + 2^4 and 17^2 divides a coprime pair sum
    monkeypatch.setattr(search, "SWEEP_COPRIME_TO", 30 * 7)
    assert verify_mod16_obstruction()
    monkeypatch.setattr(search, "SWEEP_COPRIME_TO", 30 * 17)
    assert not verify_mod16_obstruction()
    assert _selftest_fails(capsys, "mod16_obstruction")


# -- families ---------------------------------------------------------------

def test_all_families_verify():
    for name, builder in FAMILIES.items():
        assert builder().residual().is_zero, name


def test_corrupted_family_fails():
    ps = family_eq20()
    m = IPoly.gen()
    bad = ParamSolution(ps.x1, ps.x2, ps.y1, ps.y2,
                        z1=m * (m**8 + 2 * m**4 + 11),  # constant 10 -> 11
                        z2=ps.z2)
    assert not bad.residual().is_zero


def test_family_degrees():
    assert FAMILIES["eq20"]().degrees() == (1, 4, 5, 4, 9, 8)
    assert FAMILIES["eq21"]().degrees() == (21, 24, 25, 24, 49, 48)
    assert FAMILIES["eq22"]().degrees() == (9, 12, 13, 12, 25, 24)
    assert FAMILIES["eq26"]().degrees() == (2, 1, 6, 5, 6, 8)
