"""Acceptance suite: one check per numbered criterion, exact arithmetic only.

Each test prints a single aligned PASS/FAIL line (visible with pytest -s)
and then asserts, so the pytest report carries the same verdict.
"""

import time
from fractions import Fraction
from math import gcd

import pytest

from biquadrates import derive, search as search_module
from biquadrates.cli import main as cli_main
from biquadrates.curve import _extra_triple, _P_triple, multiple_P, on_curve
from biquadrates.derive import FAMILIES, solution_from_nP
from biquadrates.exact import SolutionSix, canonicalize, check_solution
from biquadrates.identity import (
    ALL_VERIFIERS,
    brahmagupta_grid,
    grid_verify,
    pell_reduction_grid,
    quartic_brahmagupta_grid,
    quartic_model_grid,
    substitution_grid,
    verify_birational_roundtrip,
    verify_mod16_obstruction,
)
from biquadrates.pell import pell3_nth, pell_to_solution
from biquadrates.poly import IPoly, PoleError
from biquadrates.search import decompose_fourth, fourth_power_sums, search
from known_solutions import PUBLISHED_FAMILIES, SMALL_SOLUTIONS
from mutations import (
    brahmagupta_square_twice,
    mod5_class_1,
    pell_factor_255,
    quartic_brahmagupta_plus_abcd,
    quartic_rhs_7mu,
    skip_odd_x1,
    substitution_3m2p2q2,
    v_denominator_16,
)
from oracles import param_equivalent


def _report(num: int, label: str, ok: bool):
    print("criterion %02d  %-62s %s" % (num, label, "PASS" if ok else "FAIL"))
    assert ok


def test_criterion_01_small_window_reproduction():
    t0 = time.perf_counter()
    results = search(14, 30)
    dt = time.perf_counter() - t0
    keys = {canonicalize(s) for s in results}
    wanted = [canonicalize(s) for i, s in enumerate(SMALL_SOLUTIONS) if i != 4]
    ok = all(k in keys for k in wanted) and dt < 60
    _report(1, "search 14/30 covers the 11 small published rows (%.1fs)" % dt, ok)


def test_criterion_02_extended_window_row5():
    t0 = time.perf_counter()
    results = search(8, 264)
    dt = time.perf_counter() - t0
    target = canonicalize(SMALL_SOLUTIONS[4])
    ok = target in {canonicalize(s) for s in results} and dt < 600
    _report(2, "search 8/264 finds ((1,8),(65,264),(448,2113)) (%.1fs)" % dt, ok)


CRITERION_03_RESIDUAL_MUTATIONS = [
    (brahmagupta_grid, brahmagupta_square_twice),
    (quartic_brahmagupta_grid, quartic_brahmagupta_plus_abcd),
    (substitution_grid, substitution_3m2p2q2),
    (quartic_model_grid, quartic_rhs_7mu),
    (pell_reduction_grid, pell_factor_255),
]


def test_criterion_03_identity_suite_with_mutations(monkeypatch):
    ok = all(fn() for fn in ALL_VERIFIERS.values())

    for grid, mutation in CRITERION_03_RESIDUAL_MUTATIONS:
        g = grid()
        ok &= not grid_verify(g._replace(residual=mutation(g.residual)))
    with monkeypatch.context() as mp:
        mp.setattr(derive, "to_quartic", v_denominator_16(derive.to_quartic))
        ok &= not verify_birational_roundtrip()
    for mutation in (skip_odd_x1, mod5_class_1):
        with monkeypatch.context() as mp:
            mp.setattr(search_module, "_pair_class",
                       mutation(search_module._pair_class))
            ok &= not verify_mod16_obstruction()
    with monkeypatch.context() as mp:
        # 17 = 1 mod 8: some coprime pair sums are divisible by 17^2
        mp.setattr(search_module, "SWEEP_COPRIME_TO", 30 * 17)
        ok &= not verify_mod16_obstruction()
    _report(3, "nine verifiers true, each false under its mutations", ok)


def test_criterion_04_published_families():
    # the paper's tables of eq20, eq21 and eq22, and eq26; the library
    # builds the first three from the ladder, which must give the tables
    published = {**PUBLISHED_FAMILIES, "eq26": FAMILIES["eq26"]()}
    ok = all(published[name].residual().is_zero
             for name in ("eq20", "eq21", "eq22", "eq26"))
    ok &= all(FAMILIES[name]() == published[name] for name in PUBLISHED_FAMILIES)
    _report(4, "all four published families have zero residual", ok)


def test_criterion_05_pipeline_matches_published():
    t0 = time.perf_counter()
    f1 = solution_from_nP(1)
    d1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    f2 = solution_from_nP(2)
    d2 = time.perf_counter() - t0
    ok = (param_equivalent(f1, PUBLISHED_FAMILIES["eq20"]) and d1 < 10
          and param_equivalent(f2, PUBLISHED_FAMILIES["eq21"]) and d2 < 120
          and param_equivalent(solution_from_nP(1, "plus"), PUBLISHED_FAMILIES["eq22"]))
    _report(5, "nP pipeline equals the published families "
               "(n=1 %.2fs, n=2 %.2fs)" % (d1, d2), ok)


@pytest.mark.slow
def test_criterion_06_third_multiple_degrees():
    t0 = time.perf_counter()
    fam = solution_from_nP(3)
    dt = time.perf_counter() - t0
    degs = fam.degrees()
    ok = (degs[4] >= 120 and degs[5] >= 120
          and fam.residual().is_zero and dt < 1800)
    _report(6, "3P family: z-degrees %d/%d, residual zero (%.1fs)"
            % (degs[4], degs[5], dt), ok)


def test_criterion_07_points_on_curve_symbolically():
    # an identity over Z[M] is the one over Q(m) cross-multiplied
    M = IPoly.gen()
    phi, omega, z = _P_triple(1)
    p1 = (Fraction(phi, z * z), Fraction(omega, z**3))
    ok = (on_curve(*_P_triple(M), M) and on_curve(*_extra_triple(M), M)
          and p1 == (Fraction(4, 9), Fraction(100, 27)))
    _report(7, "P and the extra point lie on the curve over Z[M]", ok)


def test_criterion_08_nontorsion_certificate():
    # nP = -2nR is the point at infinity exactly when at(2n) = 0, where
    # multiple_P raises PoleError
    try:
        ok = all(multiple_P(n, 1) for n in range(1, 13))
    except PoleError:
        ok = False
    _report(8, "twelve multiples of P at m=1 avoid infinity", ok)


def test_criterion_09_pell_ladder():
    ok = pell3_nth(1) == (2, 1) and pell3_nth(2) == (7, 4)
    ok &= pell_to_solution(pell3_nth(1)) == SMALL_SOLUTIONS[0]
    ok &= pell_to_solution(pell3_nth(2)) == SMALL_SOLUTIONS[4]
    ok &= all(check_solution(pell_to_solution(pell3_nth(k)))
              for k in range(1, 11))
    _report(9, "Pell ladder reproduces rows 1 and 5; k<=10 all check", ok)


def _oracle_keys_bound8():
    keys = set()
    for x1 in range(1, 9):
        for x2 in range(x1 + 1, 9):
            if gcd(x1, x2) != 1:
                continue
            for y1 in range(1, 9):
                for y2 in range(y1 + 1, 9):
                    if gcd(y1, y2) != 1 or (y1, y2) < (x1, x2):
                        continue
                    n = (x1**4 + x2**4) * (y1**4 + y2**4)
                    z1 = 0
                    while 2 * z1**4 <= n:
                        z2 = z1
                        while z1**4 + z2**4 < n:
                            z2 += 1
                        if z1**4 + z2**4 == n:
                            keys.add(canonicalize(
                                SolutionSix(x1, x2, y1, y2, z1, z2)))
                        z1 += 1
    return keys


def test_criterion_10_oracle_equivalence():
    found = {canonicalize(s) for s in search(8, 8)}
    ok = found == _oracle_keys_bound8()
    hits = fourth_power_sums(range(1, 10**6 + 1))
    for n in range(1, 10**6 + 1):
        if (n in hits) != bool(decompose_fourth(n)):
            ok = False
            break
    _report(10, "search equals the brute-force oracle; sum sweep agrees to 1e6", ok)


def test_criterion_11_worked_chain_bit_exact(capsys):
    code = cli_main(["curve", "--n", "1", "--m", "1"])
    out = capsys.readouterr().out.splitlines()
    ok = (code == 0
          and out[2] == "curve point: (4/9, -100/27)"
          and out[3] == "quartic point: (-2/3, -8/9)"
          and out[4] == "U = p/q: p = -2, q = 3"
          and out[6] == "canonical: (1,2) (5,6) (8,13)")
    _report(11, "cmd_curve --n 1 --m 1 reprints the worked chain", ok)
