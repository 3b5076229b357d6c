"""Tests for the bounded solution search."""

import hashlib
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquadrates import search as search_module
from biquadrates.cli import main as cli_main
from biquadrates.exact import SolutionSix, canonicalize, check_solution
from biquadrates.search import SWEEP_COPRIME_TO, _key_sums, decompose_fourth, search
from known_solutions import SMALL_SOLUTIONS
from oracles import fourth_power_sums


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


def naive_decompose(n):
    """The z-pairs of n found by stepping z2 up from each z1."""
    naive = []
    z1 = 0
    while z1**4 * 2 <= n:
        z2 = z1
        while z1**4 + z2**4 < n:
            z2 += 1
        if z1**4 + z2**4 == n:
            naive.append((z1, z2))
        z1 += 1
    return naive


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=200000))
def test_decompose_matches_naive_loop(n):
    assert decompose_fourth(n) == naive_decompose(n)


def test_decompose_at_the_bound_edges():
    # the last z1 is floor((N >> 1)^(1/4)): N = 2 z^4 takes z1 = z2 = z,
    # and N = 2 z^4 - 1 stops one short of it
    edges = [n for z in range(1, 61) for n in (z**4, 2 * z**4 - 1, 2 * z**4, 2 * z**4 + 1)]
    for n in edges + [635318657]:
        assert decompose_fourth(n) == naive_decompose(n), n


def test_fourth_power_sums_agrees_with_decompose():
    hits = fourth_power_sums(range(1, 50001))
    for n in range(1, 50001):
        assert (n in hits) == (decompose_fourth(n) != [])


def test_fourth_power_sums_edge_cases():
    assert fourth_power_sums(set()) == set()
    assert fourth_power_sums({1, 2, 3, 17}) == {1, 2, 17}
    # largest target 2 * z^4: the sweep's last z1 is z1 == z2
    assert fourth_power_sums({2}) == {2}
    assert fourth_power_sums({31, 32}) == {32}


def test_fourth_power_sums_repeated_sum():
    # a^4 + b^4 is not injective on coprime pairs
    assert fourth_power_sums({635318657}) == {635318657}
    assert decompose_fourth(635318657) == [(59, 158), (133, 134)]


def test_fourth_power_sums_skip_precondition():
    # coprime pairs only: 1 = 0^4 + 1^4, 17 = 1^4 + 2^4, 97 = 2^4 + 3^4
    assert fourth_power_sums({1, 2, 17, 97}, 30) == {1, 2, 17, 97}
    # 2592 = 6^4 + 6^4 is divisible by 2^4 and 3^4: skipping either gcd loses it
    assert fourth_power_sums({2592}) == {2592}
    assert fourth_power_sums({2592}, 2) == fourth_power_sums({2592}, 3) == set()


near_sums = st.builds(lambda z1, z2, d: z1**4 + z2**4 + d, st.integers(0, 99),
                      st.integers(0, 99), st.integers(-2, 2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(near_sums, st.integers(1, 10**8 - 1)), max_size=40))
def test_fourth_power_sums_is_decompose_on_random_targets(targets):
    targets = {n for n in targets if 0 < n < 10**8}
    for coprime_to in (1, 2, 3, 5, 6, 10, 15, 30):
        # the precondition of the skip: no target divisible by p^4, p | coprime_to
        kept = {n for n in targets
                if all(n % p**4 for p in (2, 3, 5) if coprime_to % p == 0)}
        assert fourth_power_sums(kept, coprime_to) == {
            n for n in kept if decompose_fourth(n)}


near_keys = st.builds(lambda z1, z2, d: (z1**4 + z2**4 + d) >> 4, st.integers(0, 99),
                      st.integers(1, 99), st.integers(-1, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(near_keys, st.integers(0, 10**7)), max_size=30))
def test_key_sums_is_brute_force_on_random_keys(keys):
    keys = set(keys)
    zmax = isqrt(isqrt(16 * max(keys, default=0) + 15))
    pairs = [(z1, z2, z1**4 + z2**4) for z1 in range(zmax + 1)
             for z2 in range(z1, zmax + 1) if (z1**4 + z2**4) >> 4 in keys]
    for coprime_to in (1, 2, 3, 30):
        assert _key_sums(keys, coprime_to) == {
            n for z1, z2, n in pairs if gcd(gcd(z1, z2), coprime_to) == 1}


def test_pruned_sweep_equals_plain_sweep(monkeypatch):
    """The sweep's 2/3/5 skip loses no candidate on the keys search builds."""
    calls = []

    def recording(keys, coprime_to=1):
        sums = _key_sums(keys, coprime_to)
        calls.append((keys, coprime_to, sums))
        return sums

    monkeypatch.setattr(search_module, "_key_sums", recording)
    for bx in range(2, 25):
        for by in range(2, 25):
            search(bx, by)
            (keys, coprime_to, sums), = calls
            calls.clear()
            assert coprime_to == SWEEP_COPRIME_TO
            assert sums == _key_sums(keys, 1)
    # the largest window's sweep runs z1 past 60, so z1 = 0 mod 30 occurs
    assert isqrt(isqrt(16 * max(keys) // 2)) > 60


@pytest.mark.parametrize("bx, by", ((6, 6), (8, 12), (2, 40), (12, 12)))
def test_candidates_that_are_no_products_give_no_rows(monkeypatch, bx, by):
    # every z-sum up to the sweep's limit is a candidate; all but a few are
    # no pair product, and none of those may give a row
    rows = search(bx, by)

    def padded(keys, coprime_to=1):
        zmax = isqrt(isqrt(16 * max(keys) + 15))
        return _key_sums(keys, coprime_to) | {
            z1**4 + z2**4 for z2 in range(1, zmax + 1) for z1 in range(z2 + 1)}

    monkeypatch.setattr(search_module, "_key_sums", padded)
    assert search(bx, by) == rows


def test_config_validation():
    with pytest.raises(ValueError, match="at least 2"):
        search(1, 10)
    with pytest.raises(ValueError, match="at least 2"):
        search(10, 0)
    with pytest.raises(ValueError, match="integers"):
        search(10, 2.5)


def test_search_empty_window():
    assert search(2, 2) == []


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
    result = search(8, 8)
    assert {canonicalize(s) for s in result} == _oracle_canonical_set(8)
    for sol in result:
        assert check_solution(sol)


def test_search_finds_smallest_known_solution():
    result = search(2, 6)
    keys = {canonicalize(s) for s in result}
    assert canonicalize(SMALL_SOLUTIONS[0]) in keys


@pytest.mark.parametrize("bx, by", ((8, 12), (2, 158), (24, 24)))
def test_search_rows_are_their_own_canonical_keys_and_sorted(bx, by):
    # each row is formed once, so it is its own key and no key repeats; in
    # 2 x 158 the y-pairs (59, 158) and (133, 134) share a sum, so two pair
    # combinations share each product they form
    result = search(bx, by)
    keys = [canonicalize(s) for s in result]
    assert keys == [((s.x1, s.x2), (s.y1, s.y2), (s.z1, s.z2)) for s in result]
    assert len(keys) == len(set(keys))
    order = [(s.x2, s.x1, s.y2, s.y1, s.z2) for s in result]
    assert order == sorted(order)


def _pairs(bound):
    return [(a, b, a**4 + b**4) for a in range(1, bound)
            for b in range(a + 1, bound + 1) if gcd(a, b) == 1]


def _root_loop_search(bx, by):
    """The search's output from a two-pointer root loop on every product."""
    found = []
    for x1, x2, sx in _pairs(bx):
        for y1, y2, sy in _pairs(by):
            if (y1, y2) < (x1, x2) or x1 & y1 & x2 & y2 & 1:
                continue
            n = sx * sy
            z1, z2 = 0, isqrt(isqrt(n))
            while z1 <= z2:
                s = z1**4 + z2**4
                if s == n:
                    found.append(SolutionSix(x1, x2, y1, y2, z1, z2))
                if s <= n:
                    z1 += 1
                else:
                    z2 -= 1
    found.sort(key=lambda s: (s.x2, s.x1, s.y2, s.y1, s.z2))
    seen = set()
    out = []
    for sol in found:
        key = canonicalize(sol)
        if key not in seen:
            seen.add(key)
            out.append(sol)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=12))
def test_search_matches_root_loop(bx, by):
    assert search(bx, by) == _root_loop_search(bx, by)


def test_search_with_a_repeated_pair_product():
    # (59,158) and (133,134) share a fourth-power sum, so the window holds
    # pair combinations with equal products; equality with the oracle means
    # rows for both y-pairs exactly where the oracle has them
    assert 59**4 + 158**4 == 133**4 + 134**4
    assert search(2, 158) == _root_loop_search(2, 158)


SEARCH_40_60_SHA256 = "19b83b8aedca789b97ecf156ee931ed24acb322682b930160458461769f4b384"


@pytest.mark.slow
def test_search_40_60_pinned_digest(capsys):
    assert cli_main(["search", "--bx", "40", "--by", "60"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_40_60_SHA256
