"""Cross-layer checks: solutions built by the families, the curve pipeline
and the Pell ladder must be found by the bounded search over a window that
contains them."""

from fractions import Fraction

import pytest

from biquadrates.derive import FAMILIES, evaluate_param, published_family
from biquadrates.exact import canonicalize
from biquadrates.pell import pell3_nth, pell_to_solution
from biquadrates.search import search
from oracles import numeric_solution_from_nP


def _family(name, t):
    return evaluate_param(published_family(name), Fraction(t))


def _search_keys(bx, by):
    return {canonicalize(s) for s in search(bx, by)}


def test_ladder_and_families_found_in_8_by_264():
    keys = _search_keys(8, 264)
    built = [pell_to_solution(pell3_nth(1)), pell_to_solution(pell3_nth(2)),
             _family("eq26", 1), _family("eq26", Fraction(3, 2)),
             _family("eq20", 1)]
    for sol in built:
        assert canonicalize(sol) in keys


def test_family_and_curve_found_in_5_by_28():
    keys = _search_keys(5, 28)
    curve_key = canonicalize(numeric_solution_from_nP(1, 2))
    assert (curve_key.xpair, curve_key.ypair) == ((3, 5), (17, 28))
    assert curve_key in keys
    assert canonicalize(_family("eq20", 2)) in keys


@pytest.mark.slow
def test_families_found_in_41_by_65():
    keys = _search_keys(41, 65)
    for sol in (_family("eq20", Fraction(1, 2)), _family("eq22", 1)):
        assert canonicalize(sol) in keys
