"""Tests for the bounded solution search."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquadrates.exact import SolutionSix, canonicalize, check_solution
from biquadrates.search import (
    SearchConfig,
    build_sum_table,
    decompose_fourth,
    search,
)
from known_solutions import SMALL_SOLUTIONS


def test_decompose_examples():
    assert decompose_fourth(32657) == [(8, 13)]
    assert decompose_fourth(2) == [(1, 1)]
    assert decompose_fourth(31) == []
    assert decompose_fourth(1) == [(0, 1)]
    assert decompose_fourth(97) == [(2, 3)]


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose_fourth(0)
    with pytest.raises(ValueError):
        decompose_fourth(-5)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=200000))
def test_decompose_matches_naive_loop(n):
    naive = []
    z1 = 0
    while z1**4 * 2 <= n:
        z2 = z1
        while z1**4 + z2**4 < n:
            z2 += 1
        if z1**4 + z2**4 == n:
            naive.append((z1, z2))
        z1 += 1
    assert decompose_fourth(n) == naive


def test_sum_table_small():
    table = build_sum_table(100)
    for n, pairs in ((2, [(1, 1)]), (17, [(1, 2)]), (32, [(2, 2)]),
                     (82, [(1, 3)]), (97, [(2, 3)])):
        assert table.lookup(n) == pairs
    assert table.lookup(31) == []
    assert 16 in table
    with pytest.raises(ValueError):
        table.lookup(101)


def test_sum_table_guards():
    with pytest.raises(ValueError):
        build_sum_table(1)
    with pytest.raises(ValueError):
        build_sum_table(10**8, entry_budget=10)


def test_sum_table_agrees_with_root_loop():
    table = build_sum_table(50000)
    for n in range(1, 50001):
        direct = decompose_fourth(n)
        assert (n in table) == (direct != [])
        assert table.lookup(n) == direct


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(bx=1, by=10)
    with pytest.raises(ValueError):
        SearchConfig(bx=10, by=0)
    with pytest.raises(ValueError):
        SearchConfig(bx=4, by=4, strategy="guess")


def test_search_empty_window():
    assert search(SearchConfig(bx=2, by=2)) == []


def _oracle_canonical_set(bound):
    """Brute force over all pair combinations with plain loops.

    Non-primitive pairs are walked too, so agreement with the search (which
    uses coprime pairs only) also shows that they add no canonical key.
    """
    keys = set()
    zmax = 1
    top = (bound**4 + (bound - 1) ** 4) ** 2
    while zmax**4 < top:
        zmax += 1
    for x1 in range(1, bound + 1):
        for x2 in range(x1 + 1, bound + 1):
            for y1 in range(1, bound + 1):
                for y2 in range(y1 + 1, bound + 1):
                    if (y1, y2) < (x1, x2):
                        continue
                    n = (x1**4 + x2**4) * (y1**4 + y2**4)
                    for z1 in range(zmax + 1):
                        if 2 * z1**4 > n:
                            break
                        for z2 in range(z1, zmax + 1):
                            if z1**4 + z2**4 == n:
                                keys.add(canonicalize(
                                    SolutionSix(x1, x2, y1, y2, z1, z2)))
    return keys


def test_search_matches_bruteforce_oracle():
    result = search(SearchConfig(bx=8, by=8))
    assert {canonicalize(s) for s in result} == _oracle_canonical_set(8)
    for sol in result:
        assert check_solution(sol)


def test_search_finds_smallest_known_solution():
    result = search(SearchConfig(bx=2, by=6))
    keys = {canonicalize(s) for s in result}
    assert canonicalize(SMALL_SOLUTIONS[0]) in keys


def test_search_output_is_deduplicated_and_sorted():
    result = search(SearchConfig(bx=8, by=12))
    keys = [canonicalize(s) for s in result]
    assert len(keys) == len(set(keys))
    order = [(s.x2, s.x1, s.y2, s.y1, s.z2) for s in result]
    assert order == sorted(order)


def test_strategies_agree():
    a = search(SearchConfig(bx=8, by=12, strategy="root_loop"))
    b = search(SearchConfig(bx=8, by=12, strategy="sum_table"))
    assert a == b
