"""Tests for the identity verifiers, including mutation falsifiers."""

from dataclasses import replace
from fractions import Fraction

import pytest

from biquadrates import cli, derive, pell, search
from biquadrates.curve import point_P
from biquadrates.families import FAMILIES, ParamSolution, family_eq20
from biquadrates.identity import (
    ALL_VERIFIERS,
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
    verify_mod16_obstruction,
    verify_pell_reduction,
)
from biquadrates.poly import IPoly
from mutations import (
    pell_z2_plus_one,
    skip_odd_x1,
    v_denominator_16,
    v_term_23,
    y_plus_2uv,
    z2_doubled,
)


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
    # there the shapes satisfy the square identity for z2
    (x1, x2), (y1, y2), (_, z2) = derive._solution_pairs(-2, 3, 1, Fraction(-8, 9))
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

def test_mutated_brahmagupta_fails():
    g = brahmagupta_grid()
    # coefficient of (x1y2-x2y1)^2 changed 1 -> 2
    bad = replace(g, residual=lambda a, b, c, d: g.residual(a, b, c, d)
                  - (a * d - b * c) ** 2)
    assert not grid_verify(bad)


def test_mutated_quartic_brahmagupta_fails():
    g = quartic_brahmagupta_grid()
    bad = replace(g, residual=lambda a, b, c, d: g.residual(a, b, c, d)
                  + a**2 * b**2 * c**2 * d**2)
    assert not grid_verify(bad)


def test_mutated_substitution_fails():
    g = substitution_grid()
    # (x2 y2)^2 = 4 m^2 p^2 q^2 read as 3 m^2 p^2 q^2
    bad = replace(g, residual=lambda p, q, m: g.residual(p, q, m)
                  + m**2 * p**2 * q**2)
    assert not grid_verify(bad)


def test_mutated_quartic_model_fails():
    g = quartic_model_grid()
    # -8 m^4 U term of the quartic rhs read as -7 m^4 U, times q^4
    bad = replace(g, residual=lambda p, q, m, v: g.residual(p, q, m, v)
                  + m**4 * p * q**3)
    assert not grid_verify(bad)


def _selftest_fails(capsys, name) -> bool:
    code = cli.main(["selftest", "--quick"])
    return code == 1 and "%s: FAIL" % name in capsys.readouterr().out


def test_mutated_roundtrip_fails(monkeypatch, capsys):
    # one patch of derive's map reaches the pipeline and the selftest alike
    original = derive.to_quartic
    for mutation in (v_denominator_16, v_term_23):
        monkeypatch.setattr(derive, "to_quartic", mutation(original))
        with pytest.raises(ValueError):
            derive.weierstrass_to_quartic(1, point_P(1))
        assert not verify_birational_roundtrip()
        assert _selftest_fails(capsys, "birational_roundtrip")


def test_mutated_inverse_map_fails(monkeypatch, capsys):
    monkeypatch.setattr(derive, "to_weierstrass", y_plus_2uv(derive.to_weierstrass))
    assert not verify_birational_roundtrip()
    assert _selftest_fails(capsys, "birational_roundtrip")


def test_mutated_shapes_fail(monkeypatch, capsys):
    # z2 = 2q^2 V: the quartic model check and the pipeline both reject it
    monkeypatch.setattr(derive, "_solution_pairs", z2_doubled(derive._solution_pairs))
    assert _selftest_fails(capsys, "quartic_model")
    assert cli.main(["curve", "--n", "2", "--symbolic"]) == 1


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
    bad = replace(g, residual=lambda u, v: g.residual(u, v)
                  - v**8 * (u**2 + 3 * v**2 + 1) * (u**2 - 3 * v**2 - 1))
    assert not grid_verify(bad)
    monkeypatch.setattr(pell, "pell_shapes", pell_z2_plus_one(pell.pell_shapes))
    assert pell.pell_to_solution(pell.pell3_nth(1)) != (1, 2, 5, 6, 8, 13)
    assert not verify_pell_reduction()
    assert _selftest_fails(capsys, "pell_reduction")


def test_mutated_mod16_fails(monkeypatch, capsys):
    monkeypatch.setattr(search, "_pair_products",
                        skip_odd_x1(search._pair_products))
    assert not verify_mod16_obstruction()
    assert _selftest_fails(capsys, "mod16_obstruction")


# -- families ---------------------------------------------------------------

def test_all_families_verify():
    for name, builder in FAMILIES.items():
        assert builder().residual().is_zero, name


def test_corrupted_family_fails():
    ps = family_eq20()
    m = IPoly.gen("m")
    bad = ParamSolution(ps.x1, ps.x2, ps.y1, ps.y2,
                        z1=m * (m**8 + 2 * m**4 + 11),  # constant 10 -> 11
                        z2=ps.z2)
    assert not bad.residual().is_zero


def test_family_degrees():
    assert FAMILIES["eq20"]().degrees() == (1, 4, 5, 4, 9, 8)
    assert FAMILIES["eq21"]().degrees() == (21, 24, 25, 24, 49, 48)
    assert FAMILIES["eq22"]().degrees() == (9, 12, 13, 12, 25, 24)
    assert FAMILIES["eq26"]().degrees() == (2, 1, 6, 5, 6, 8)
