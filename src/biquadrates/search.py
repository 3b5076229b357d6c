"""Exhaustive search for small solutions of (x1^4+x2^4)(y1^4+y2^4) = z1^4+z2^4.

Enumerates coprime pairs x1 < x2 <= bx and y1 < y2 <= by and collects the set
of products (x1^4+x2^4)(y1^4+y2^4).  One sweep over z1 <= z2 then tests each
z1^4 + z2^4 up to the largest product for membership in that set, and every
hit is confirmed and decomposed by ``decompose_fourth``.  Memory is the
product set plus one list of fourth powers.

Output is deduplicated by canonical key, so each family of scaled or
rearranged solutions appears once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd

from biquadrates.exact import (
    SolutionSix,
    canonicalize,
    check_solution,
    integer_fourth_root_floor,
    is_fourth_power,
)


@dataclass(frozen=True)
class SearchConfig:
    """Bounds for a search run."""

    bx: int
    by: int

    def __post_init__(self):
        if not (isinstance(self.bx, int) and isinstance(self.by, int)):
            raise ValueError("bounds must be integers")
        if self.bx < 2 or self.by < 2:
            raise ValueError("bounds must be at least 2")


def decompose_fourth(N: int) -> list:
    """All (z1, z2) with 0 <= z1 <= z2 and z1^4 + z2^4 = N, ascending in z1."""
    if not isinstance(N, int) or N < 1:
        raise ValueError("N must be a positive integer")
    out = []
    z1 = 0
    while 2 * z1**4 <= N:
        z2 = is_fourth_power(N - z1**4)
        if z2 is not None:
            out.append((z1, z2))
        z1 += 1
    return out


def fourth_power_sums(targets) -> set:
    """The members of targets that are z1^4 + z2^4 for some 0 <= z1 <= z2.

    targets holds positive integers and should answer ``in`` quickly (a set
    or a range).  The sweep makes one membership test per pair z1 <= z2 with
    z1^4 + z2^4 <= max(targets).
    """
    limit = max(targets, default=0)
    powers = [z**4 for z in range(integer_fourth_root_floor(limit) + 1)]
    hits = set()
    for z1, a in enumerate(powers):
        if 2 * a > limit:
            break
        top = bisect_right(powers, limit - a)
        hits.update(filter(targets.__contains__, map(a.__add__, powers[z1:top])))
    return hits


def _coprime_pairs(bound: int) -> list:
    """Coprime (a, b, a^4 + b^4) with 1 <= a < b <= bound, in lex order."""
    pairs = []
    for a in range(1, bound):
        for b in range(a + 1, bound + 1):
            if gcd(a, b) != 1:
                continue
            pairs.append((a, b, a**4 + b**4))
    return pairs


def _pair_products(xpairs, ypairs):
    """(x1, x2, y1, y2, product) for each pair combination the search tries."""
    for x1, x2, sx in xpairs:
        for y1, y2, sy in ypairs:
            if (y1, y2) < (x1, x2):
                continue
            if x1 & y1 & x2 & y2 & 1:
                # all four odd: the product is 4 mod 16, never a sum
                continue
            yield x1, x2, y1, y2, sx * sy


def search(cfg: SearchConfig) -> list:
    """All solutions within the bounds, one representative per canonical key.

    Results are sorted by (x2, x1, y2, y1, z2) and deduplicated keeping the
    first entry in that order.
    """
    xpairs = _coprime_pairs(cfg.bx)
    ypairs = _coprime_pairs(cfg.by)
    # Sums of two fourth powers are not unique (59^4 + 158^4 = 133^4 + 134^4),
    # and neither are pair products, so every hit lists all its z-pairs.
    products = {row[4] for row in _pair_products(xpairs, ypairs)}
    hits = {n: decompose_fourth(n) for n in fourth_power_sums(products)}
    found = []
    for x1, x2, y1, y2, n in _pair_products(xpairs, ypairs):
        for z1, z2 in hits.get(n, ()):
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
