"""Tests for the Pell-equation route."""

from fractions import Fraction

import pytest

from biquadrates.derive import _clear_to_solution, evaluate_param, param_equivalent
from biquadrates.exact import SolutionSix, canonicalize, check_solution
from biquadrates.families import family_eq26
from biquadrates.identity import verify_param_solution
from biquadrates.pell import (
    PellSolution,
    pell3_nth,
    pell_to_solution,
    rational_pell,
)


def test_ladder_start():
    assert pell3_nth(1) == PellSolution(2, 1)
    assert pell3_nth(2) == PellSolution(7, 4)
    assert pell3_nth(3) == PellSolution(26, 15)
    with pytest.raises(ValueError):
        pell3_nth(0)


def test_ladder_stays_on_pell_curve():
    for k in range(1, 51):
        u, v = pell3_nth(k)
        assert u * u - 3 * v * v == 1


def test_pell_to_solution_small_rows():
    assert pell_to_solution(PellSolution(2, 1)) == SolutionSix(1, 2, 5, 6, 8, 13)
    assert pell_to_solution(PellSolution(7, 4)) == SolutionSix(1, 8, 65, 264, 448, 2113)
    assert pell_to_solution(PellSolution(26, 15)) == SolutionSix(1, 30, 901, 13530, 23400, 405901)


def test_pell_to_solution_validation():
    with pytest.raises(ValueError):
        pell_to_solution(PellSolution(3, 2))
    with pytest.raises(ValueError):
        pell_to_solution(PellSolution(-1, 0))
    # negative u is fine as long as the invariant and v >= 1 hold
    assert check_solution(pell_to_solution(PellSolution(-2, 1)))


def test_ladder_solutions_check_out():
    for k in range(1, 11):
        sol = pell_to_solution(pell3_nth(k))
        assert check_solution(sol)


def test_rational_pell_values():
    assert rational_pell(3) == (Fraction(2), Fraction(1))
    assert rational_pell(1) == (Fraction(-2), Fraction(-1))
    assert rational_pell(0) == (Fraction(-1), Fraction(0))


def test_rational_pell_on_curve():
    for t in (2, 3, 5, Fraction(1, 2), Fraction(-7, 3), 11):
        u, v = rational_pell(t)
        assert u * u - 3 * v * v == 1


def test_param_family_is_valid():
    fam = family_eq26()
    assert verify_param_solution(fam)
    assert fam.var == "t"


def test_param_family_matches_rational_slice():
    fam = family_eq26()
    for t in (2, 3, 5):
        u, v = rational_pell(t)
        shaped = _clear_to_solution(
            (Fraction(1), 2 * v),
            (4 * v * v + 1, 2 * v * (2 * v * v + 1)),
            (4 * u * v * v, 8 * v**4 + 4 * v * v + 1),
        )
        assert canonicalize(shaped) == canonicalize(evaluate_param(fam, t))


def test_param_family_sample_values():
    fam = family_eq26()
    key = canonicalize(evaluate_param(fam, 3))
    assert key.xpair == (1, 2) and key.ypair == (5, 6)
    assert key.zpair == (Fraction(8), Fraction(13))
    assert check_solution(evaluate_param(fam, 1))
