"""Tests for the integer/rational layer."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biquadrates.curve import multiple_P
from biquadrates.derive import _clear_image, quartic_image
from biquadrates.exact import (
    CanonicalKey,
    DegenerateSolutionError,
    SolutionSix,
    canonicalize,
    check_solution,
    integer_fourth_root_floor,
    is_fourth_power,
    scale_solution,
)
from biquadrates.pell import pell3_nth, pell_to_solution
from known_solutions import SMALL_SOLUTIONS
from oracles import plain_equation


def test_known_solutions_check():
    for s in SMALL_SOLUTIONS:
        assert check_solution(s)


def test_check_solution_rejects_near_miss():
    assert not check_solution(SolutionSix(1, 2, 5, 6, 8, 14))
    assert not check_solution(SolutionSix(1, 2, 5, 6, 9, 13))
    assert not check_solution(SolutionSix(1, 1, 1, 1, 1, 1))


def _oriented(s, swap_x, swap_y, swap_z, exchange):
    x1, x2, y1, y2, z1, z2 = s
    if swap_x:
        x1, x2 = x2, x1
    if swap_y:
        y1, y2 = y2, y1
    if swap_z:
        z1, z2 = z2, z1
    if exchange:
        x1, x2, y1, y2 = y1, y2, x1, x2
    return SolutionSix(x1, x2, y1, y2, z1, z2)


def _near(s, entry, delta):
    """s with delta added to one entry (entry 6 leaves s as it is)."""
    return s if entry == 6 else s._replace(**{s._fields[entry]: s[entry] + delta})


@given(st.tuples(*[st.integers(-40, 40)] * 6))
@example((0, 0, 0, 0, 0, 0))
@example((0, 3, -2, 0, 0, 6))
@example((-1, 2, 5, -6, -8, 13))
@settings(max_examples=300)
def test_check_solution_matches_the_plain_equation_on_small_tuples(t):
    assert check_solution(SolutionSix(*t)) == plain_equation(t)


def test_check_solution_matches_the_plain_equation_around_known_solutions():
    # each orientation sends Brahmagupta's split down a different route
    # (a P equal to z1^2 or z2^2, with Q of either sign, or the full
    # residual), and every entry is pushed one either way off the solution
    for s in SMALL_SOLUTIONS:
        for flags in product((False, True), repeat=4):
            base = _oriented(s, *flags)
            assert check_solution(base)
            for entry, delta in product(range(6), (-1, 1)):
                near = _near(base, entry, delta)
                assert check_solution(near) == plain_equation(near)


def _curve_solution(n, m, sign):
    """The tuple ``curve --n n --m m --sign sign`` emits, built as it builds it."""
    M = m**4
    return _clear_image(*quartic_image(multiple_P(n, M.numerator, M.denominator),
                                       M, sign), m)


big_solutions = st.one_of(
    st.builds(_curve_solution, st.integers(18, 24),
              st.builds(Fraction, st.integers(-13, 13).filter(bool), st.integers(1, 13)),
              st.sampled_from(("plus", "minus"))),
    st.builds(lambda k: pell_to_solution(pell3_nth(k)), st.integers(1, 1800)))


@given(big_solutions, st.tuples(*[st.booleans()] * 4),
       st.tuples(*[st.sampled_from((-1, 1))] * 6), st.integers(0, 6),
       st.sampled_from((-1, 1)))
@settings(max_examples=100, deadline=None)
def test_check_solution_matches_the_plain_equation_on_big_tuples(s, flags, signs,
                                                                 entry, delta):
    # curve --m tuples run to 27 000 bits and take the route P = z1^2, pell's
    # P = z2^2 with Q = -z1^2; orientations and one-off entries leave them
    t = SolutionSix(*(e * v for e, v in zip(signs, _oriented(s, *flags))))
    assert plain_equation(t)
    t = _near(t, entry, delta)
    assert check_solution(t) == plain_equation(t)


def test_trivial_zero_solution():
    assert check_solution(SolutionSix(0, 0, 0, 0, 0, 0))
    assert check_solution(SolutionSix(1, 1, 0, 0, 0, 0))


def test_scale_solution_example():
    s = SolutionSix(1, 2, 5, 6, 8, 13)
    assert scale_solution(s, 3, 2) == SolutionSix(3, 6, 10, 12, 48, 78)
    assert check_solution(scale_solution(s, -7, 5))


def test_scale_solution_rejects_zero_factor():
    s = SolutionSix(1, 2, 5, 6, 8, 13)
    with pytest.raises(ValueError):
        scale_solution(s, 0, 2)
    with pytest.raises(ValueError):
        scale_solution(s, 2, 0)


def test_scale_solution_rejects_non_solution():
    with pytest.raises(ValueError):
        scale_solution(SolutionSix(1, 2, 3, 4, 5, 6), 1, 1)


def test_canonicalize_mixed_signs_and_order():
    # x=(6,-5) shares nothing, y=(-1,2), z=(13,-8): same class as row 1.
    s = SolutionSix(6, -5, -1, 2, 13, -8)
    assert check_solution(s)
    assert canonicalize(s) == CanonicalKey((1, 2), (5, 6), (Fraction(8), Fraction(13)))


def test_canonicalize_strips_scaling():
    s = SolutionSix(1, 2, 5, 6, 8, 13)
    scaled = scale_solution(s, 3, 2)
    key = canonicalize(scaled)
    assert key == canonicalize(s)
    assert key.zpair == (Fraction(8), Fraction(13))


def test_canonicalize_fractional_zpair():
    # Scaling can leave a z-pair that only clears to integers after division.
    s = SolutionSix(2, 4, 5, 6, 16, 26)  # row 1 scaled by (2, 1)
    assert canonicalize(s).zpair == (Fraction(8), Fraction(13))
    # A solution whose canonical z-pair is non-integral: scale x of row 1 by 2
    # but fold an extra factor into z only via y.  Construct directly instead:
    t = scale_solution(SolutionSix(1, 2, 5, 6, 8, 13), 2, 3)
    assert canonicalize(t) == canonicalize(s)


def test_canonicalize_rejects_zero_pair():
    with pytest.raises(DegenerateSolutionError):
        canonicalize(SolutionSix(0, 0, 1, 2, 0, 0))
    with pytest.raises(DegenerateSolutionError):
        canonicalize(SolutionSix(1, 2, 0, 0, 0, 0))


def test_canonicalize_rejects_non_solution():
    with pytest.raises(ValueError):
        canonicalize(SolutionSix(1, 2, 3, 4, 5, 6))


def test_canonical_keys_of_known_solutions_are_themselves():
    for s in SMALL_SOLUTIONS:
        key = canonicalize(s)
        assert key.xpair == (s.x1, s.x2)
        assert key.ypair == (s.y1, s.y2)
        assert key.zpair == (Fraction(s.z1), Fraction(s.z2))


def test_equivalent_on_scalings():
    a = SolutionSix(1, 2, 5, 6, 8, 13)
    b = SolutionSix(3, 10, 6, 17, 8, 171)
    assert canonicalize(a) == canonicalize(scale_solution(a, -4, 9))
    assert canonicalize(scale_solution(a, 2, 1)) == canonicalize(scale_solution(a, 1, 5))
    assert canonicalize(a) != canonicalize(b)


small_nonzero = st.integers(min_value=-30, max_value=30).filter(lambda k: k != 0)


@given(st.sampled_from(SMALL_SOLUTIONS), small_nonzero, small_nonzero)
def test_scaling_closure_property(s, k1, k2):
    scaled = scale_solution(s, k1, k2)
    assert check_solution(scaled)
    assert canonicalize(scaled) == canonicalize(s)


@given(st.sampled_from(SMALL_SOLUTIONS), small_nonzero, small_nonzero)
def test_xy_exchange_invariance(s, k1, k2):
    scaled = scale_solution(s, k1, k2)
    swapped = SolutionSix(scaled.y1, scaled.y2, scaled.x1, scaled.x2,
                          scaled.z1, scaled.z2)
    assert check_solution(swapped)
    assert canonicalize(swapped) == canonicalize(s)


@given(st.sampled_from(SMALL_SOLUTIONS),
       st.tuples(*[st.sampled_from((-1, 1)) for _ in range(6)]))
def test_sign_flip_invariance(s, signs):
    flipped = SolutionSix(*(c * e for c, e in zip(signs, s)))
    assert check_solution(flipped)
    assert canonicalize(flipped) == canonicalize(s)


@given(st.sampled_from(SMALL_SOLUTIONS))
def test_within_pair_swap_invariance(s):
    swapped = SolutionSix(s.x2, s.x1, s.y2, s.y1, s.z2, s.z1)
    assert check_solution(swapped)
    assert canonicalize(swapped) == canonicalize(s)


def test_integer_fourth_root_floor_examples():
    assert integer_fourth_root_floor(0) == 0
    assert integer_fourth_root_floor(1) == 1
    assert integer_fourth_root_floor(15) == 1
    assert integer_fourth_root_floor(16) == 2
    assert integer_fourth_root_floor(28560) == 12
    assert integer_fourth_root_floor(28561) == 13
    with pytest.raises(ValueError):
        integer_fourth_root_floor(-1)


@given(st.integers(min_value=0, max_value=10**40))
def test_integer_fourth_root_floor_property(n):
    r = integer_fourth_root_floor(n)
    assert r**4 <= n < (r + 1) ** 4


def test_is_fourth_power_examples():
    assert is_fourth_power(0) == 0
    assert is_fourth_power(1) == 1
    assert is_fourth_power(16) == 2
    assert is_fourth_power(28561) == 13
    assert is_fourth_power(28560) is None
    assert is_fourth_power(28562) is None
    assert is_fourth_power(-16) is None


@given(st.integers(min_value=0, max_value=10**6))
def test_is_fourth_power_property(r):
    assert is_fourth_power(r**4) == r


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=10**12))
def test_is_fourth_power_no_false_positives(n):
    r = is_fourth_power(n)
    if r is None:
        q = integer_fourth_root_floor(n)
        assert q**4 != n
    else:
        assert r**4 == n
