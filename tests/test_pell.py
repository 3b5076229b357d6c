"""Tests for the Pell-equation route."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biquadrates.derive import evaluate_param, published_family
from biquadrates.exact import SolutionSix, canonicalize, check_solution
from biquadrates.pell import PellSolution, pell3_nth, pell_shapes, pell_to_solution
from oracles import clear_fractions, pell3_ladder


def test_ladder_start():
    assert pell3_nth(1) == PellSolution(2, 1)
    assert pell3_nth(2) == PellSolution(7, 4)
    assert pell3_nth(3) == PellSolution(26, 15)
    with pytest.raises(ValueError):
        pell3_nth(0)


@given(st.integers(1, 3000))
@example(1)
@example(2)
@example(2730)
@settings(max_examples=40, deadline=None)
def test_doubling_matches_the_step_ladder(k):
    assert pell3_nth(k) == pell3_ladder(k)


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


def test_param_family_is_valid():
    fam = published_family("eq26")
    assert fam.residual().is_zero
    assert fam.var == "t"


def test_param_family_matches_rational_slice():
    fam = published_family("eq26")
    for t in (2, 3, 5):
        t = Fraction(t)
        u, v = (t * t + 3) / (t * t - 3), 2 * t / (t * t - 3)
        assert u * u - 3 * v * v == 1
        x1, x2, y1, y2, z1, z2 = pell_shapes(u, v)
        shaped = clear_fractions((x1, x2), (y1, y2), (z1, z2))
        assert canonicalize(shaped) == canonicalize(evaluate_param(fam, t))


def test_param_family_sample_values():
    fam = published_family("eq26")
    key = canonicalize(evaluate_param(fam, 3))
    assert key.xpair == (1, 2) and key.ypair == (5, 6)
    assert key.zpair == (Fraction(8), Fraction(13))
    assert check_solution(evaluate_param(fam, 1))
