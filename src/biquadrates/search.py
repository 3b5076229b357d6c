"""Exhaustive search for small solutions of (x1^4+x2^4)(y1^4+y2^4) = z1^4+z2^4.

Enumerates coprime pairs x1 < x2 <= bx and y1 < y2 <= by, forms the product,
and asks when it is a sum of two fourth powers.  Two interchangeable answers
to that question are provided: a direct root loop over z1 with a fourth-power
test on the remainder, and a precomputed table of all attainable sums.

Output is deduplicated by canonical key, so each family of scaled or
rearranged solutions appears once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from biquadrates.exact import (
    SolutionSix,
    canonicalize,
    check_solution,
    integer_fourth_root_floor,
    is_fourth_power,
)

DEFAULT_ENTRY_BUDGET = 2**25


@dataclass(frozen=True)
class SearchConfig:
    """Bounds and strategy for a search run."""

    bx: int
    by: int
    strategy: str = "root_loop"

    def __post_init__(self):
        if not (isinstance(self.bx, int) and isinstance(self.by, int)):
            raise ValueError("bounds must be integers")
        if self.bx < 2 or self.by < 2:
            raise ValueError("bounds must be at least 2")
        if self.strategy not in ("root_loop", "sum_table"):
            raise ValueError("strategy must be 'root_loop' or 'sum_table'")


def decompose_fourth(N: int) -> list:
    """All (z1, z2) with 0 <= z1 <= z2 and z1^4 + z2^4 = N, ascending in z1."""
    if not isinstance(N, int) or N < 1:
        raise ValueError("N must be a positive integer")
    out = []
    z1 = 0
    while 2 * z1**4 <= N:
        rest = N - z1**4
        if is_fourth_power(rest):
            out.append((z1, integer_fourth_root_floor(rest)))
        z1 += 1
    return out


class SumTable:
    """Set of all values z1^4 + z2^4 up to a cap, with pair recovery."""

    def __init__(self, max_n: int, sums):
        self.max_n = max_n
        self._sums = sums

    def __contains__(self, n: int) -> bool:
        if n > self.max_n:
            raise ValueError("value beyond the table cap")
        return n in self._sums

    def lookup(self, n: int) -> list:
        """Preimage pairs of n, ascending in z1; [] when n is not a sum."""
        if n in self:
            return decompose_fourth(n)
        return []


def build_sum_table(max_n: int, entry_budget: int = DEFAULT_ENTRY_BUDGET) -> SumTable:
    """Tabulate every z1^4 + z2^4 <= max_n with 0 <= z1 <= z2.

    Refuses to build when the pair count would exceed entry_budget, since
    the table is the one part of the search that costs real memory.
    """
    if not isinstance(max_n, int) or max_n < 2:
        raise ValueError("max_n must be an integer >= 2")
    r = integer_fourth_root_floor(max_n)
    if (r + 1) * (r + 2) // 2 > entry_budget:
        raise ValueError("sum table would exceed the entry budget")
    powers = [z**4 for z in range(r + 1)]
    sums = set()
    for i, a in enumerate(powers):
        if 2 * a > max_n:
            break
        for b in powers[i:]:
            s = a + b
            if s > max_n:
                break
            sums.add(s)
    return SumTable(max_n, sums)


def _coprime_pairs(bound: int) -> list:
    """Coprime (a, b, a^4 + b^4) with 1 <= a < b <= bound, in lex order."""
    pairs = []
    for a in range(1, bound):
        for b in range(a + 1, bound + 1):
            if gcd(a, b) != 1:
                continue
            pairs.append((a, b, a**4 + b**4))
    return pairs


def search(cfg: SearchConfig) -> list:
    """All solutions within the bounds, one representative per canonical key.

    Results are sorted by (x2, x1, y2, y1, z2) and deduplicated keeping the
    first entry in that order, so the output is independent of strategy.
    """
    xpairs = _coprime_pairs(cfg.bx)
    ypairs = _coprime_pairs(cfg.by)
    if cfg.strategy == "sum_table":
        max_n = xpairs[-1][2] * ypairs[-1][2] if xpairs and ypairs else 2
        table = build_sum_table(max_n)
        lookup = table.lookup
    else:
        lookup = decompose_fourth

    found = []
    for x1, x2, sx in xpairs:
        for y1, y2, sy in ypairs:
            if (y1, y2) < (x1, x2):
                continue
            if x1 & y1 & x2 & y2 & 1:
                # all four odd: the product is 4 mod 16, never a sum
                continue
            for z1, z2 in lookup(sx * sy):
                found.append(SolutionSix(x1, x2, y1, y2, z1, z2))
    found.sort(key=lambda s: (s.x2, s.x1, s.y2, s.y1, s.z2))
    seen = set()
    out = []
    for sol in found:
        key = canonicalize(sol)
        if key in seen:
            continue
        seen.add(key)
        assert check_solution(sol)
        out.append(sol)
    return out
