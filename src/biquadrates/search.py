"""Exhaustive search for small solutions of (x1^4+x2^4)(y1^4+y2^4) = z1^4+z2^4.

Enumerates coprime pairs x1 < x2 <= bx and y1 < y2 <= by and collects the set
of keys n >> 4 of the products n = (x1^4+x2^4)(y1^4+y2^4) with
(y1, y2) >= (x1, x2).  z^4 is 0 or 1 mod 16, so the key of z1^4 + z2^4 is
(z1^4 >> 4) + (z2^4 >> 4): one sweep over z1 <= z2 adds those and tests
each sum up to the largest key for membership in the key set, at one
C-level add and one set lookup per probed pair.  (Every product is 1 or 2
mod 16, and a set picks a slot from an int's low bits, so the products
themselves would crowd 2 of every 16 slots; their keys do not.)  A run of
pairs that meets a key is summed again in full, and each sum whose key is
in the set is a candidate, confirmed and decomposed by ``decompose_fourth``.
The rows of a candidate n are the x-pairs whose sum divides n, each with the
y-pairs whose sum is the quotient; a candidate that is no product has none.

Residue laws prune both sides exactly.  n^4 is 0 or 1 mod 16 and mod 5, so
z1^4 + z2^4 is 0, 1 or 2 mod 16 and mod 5.  The sum of a coprime pair is 1
or 2 mod 16 (2 when both entries are odd), never 0 mod 3 and never 0 mod 5.
Hence:

* a product of two all-odd pairs is 4 mod 16 and a product of two sums
  that are 2 mod 5 is 4 mod 5; neither is a sum of two fourth powers, so
  those pair combinations are never formed;
* no product is divisible by 16, 81 or 625, so the sweep skips every
  z-pair whose gcd shares a prime with 30 (a common factor p puts p^4 in
  the sum).

Memory is the key set plus two lists, the fourth powers and their keys; the
y-lists per pair class hold references to the y-pairs, and the sum-to-pairs
lookup the rows use holds only the quotients of candidates.

Each row is unique by construction: it pairs two coprime ascending pairs,
(x1, x2) <= (y1, y2), with an ascending z-pair, so its canonical key is the
row itself, and each (x, y, z) is formed once.  Each row holds by
construction, in exact integers: its z-pair decomposes n = z1^4 + z2^4 and n
is the product of its two pair sums.  The command line checks each row it
prints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from math import gcd
from operator import add, mul, rshift

from biquadrates.exact import (
    SolutionSix,
    integer_fourth_root_floor,
    is_fourth_power,
)

# The primes of the z-pair gcds the sweep skips: no product is divisible by
# the fourth power of any of them.
SWEEP_COPRIME_TO = 30


def decompose_fourth(N: int) -> list:
    """All (z1, z2) with 0 <= z1 <= z2 and z1^4 + z2^4 = N, ascending in z1."""
    if not isinstance(N, int) or N < 1:
        raise ValueError("N must be a positive integer")
    # z2 steps down from floor(N^(1/4)) to the least z with 2 z^4 >= N, that
    # is z^4 > (N - 1) >> 1, so z1 = (N - z2^4)^(1/4) <= z2 ascends
    return [(z1, z2) for z2 in range(integer_fourth_root_floor(N),
                                     integer_fourth_root_floor((N - 1) >> 1), -1)
            if (z1 := is_fourth_power(N - z2**4)) is not None]


def _key_sums(keys: set, coprime_to: int = 1) -> set:
    """The sums n = z1^4 + z2^4, 0 <= z1 <= z2, whose key n >> 4 is in keys.

    z^4 is 0 or 1 mod 16, so the key of z1^4 + z2^4 is
    (z1^4 >> 4) + (z2^4 >> 4), and the sweep probes each pair with
    n <= 16 max(keys) + 15 by one C-level add and one lookup in keys,
    except the pairs whose gcd shares a prime with coprime_to: for each z1
    it takes z2 from one stride slice per residue mod g = gcd(z1, coprime_to)
    prime to g.  A slice that meets a key is summed again in full and gives
    its sums whose key is in keys.
    """
    limit = 16 * max(keys, default=0) + 15
    powers = [z**4 for z in range(integer_fourth_root_floor(limit) + 1)]
    lows = [a >> 4 for a in powers]
    units = {}
    sums = set()
    for z1, a in enumerate(powers):
        if 2 * a > limit:
            break
        top = bisect_right(powers, limit - a)
        g = gcd(z1, coprime_to)
        if g not in units:
            units[g] = [r for r in range(g) if gcd(r, g) == 1]
        # g divides z1, so z1 + r is the first z2 >= z1 that is r mod g
        for r in units[g]:
            if not keys.isdisjoint(map(add, lows[z1 + r:top:g], repeat(a >> 4))):
                sums.update(n for n in map(add, powers[z1 + r:top:g], repeat(a))
                            if n >> 4 in keys)
    return sums


def _coprime_pairs(bound: int) -> list:
    """Coprime (a, b, a^4 + b^4) with 1 <= a < b <= bound, in lex order."""
    p4 = [a**4 for a in range(bound + 1)]
    return [(a, b, p4[a] + p4[b]) for a in range(1, bound)
            for b in range(a + 1, bound + 1) if gcd(a, b) == 1]


def _pair_class(a: int, b: int, s: int) -> int:
    """Bit 0 set if a and b are odd, bit 1 set if s = a^4 + b^4 is 2 mod 5."""
    return (a & b & 1) | (s % 5 == 2) << 1


def _ylists(ypairs: list) -> list:
    """For each pair class c, the y-pairs search combines with an x-pair of
    class c: those whose class shares no bit with c.  The product of two
    pairs sharing bit 0 is 4 mod 16, sharing bit 1 it is 4 mod 5."""
    classes = [_pair_class(*y) for y in ypairs]
    return [[y for y, cy in zip(ypairs, classes) if not cy & c] for c in range(4)]


def search(bx: int, by: int) -> list:
    """All solutions with x2 <= bx and y2 <= by, one per canonical key.

    Results are sorted by (x2, x1, y2, y1, z2); each row is its own
    canonical key and no two rows share one.  Raises ValueError unless both
    bounds are integers of at least 2.
    """
    if not (isinstance(bx, int) and isinstance(by, int)):
        raise ValueError("bounds must be integers")
    if bx < 2 or by < 2:
        raise ValueError("bounds must be at least 2")
    xpairs = _coprime_pairs(bx)
    ypairs = _coprime_pairs(by)
    ylists = [(ys, [y[2] for y in ys]) for ys in _ylists(ypairs)]
    keys = set()
    for x1, x2, sx in xpairs:
        ys, sums = ylists[_pair_class(x1, x2, sx)]
        # a triple (y1, y2, sy) sorts at or after (x1, x2) iff (y1, y2) does
        keys.update(map(rshift, map(mul, sums[bisect_left(ys, (x1, x2)):],
                                    repeat(sx)), repeat(4)))
    # Sums of two fourth powers are not unique (59^4 + 158^4 = 133^4 + 134^4),
    # and neither are pair products, so every candidate lists all its z-pairs.
    candidates = {n: decompose_fourth(n)
                  for n in _key_sums(keys, SWEEP_COPRIME_TO)}
    # A candidate shares its key with a product but may be none, and then no
    # pair combination divides it out.  A combination the keys skip is 4 mod
    # 16 or 4 mod 5, so it is no z-sum, and the order test is the only
    # filter the rows need.
    divisions = [(x1, x2, n, n // sx) for n in candidates for x1, x2, sx in xpairs
                 if n % sx == 0]
    by_sum = {q: [] for *_, q in divisions}
    for y1, y2, sy in ypairs:
        if sy in by_sum:
            by_sum[sy].append((y1, y2))
    found = []
    for x1, x2, n, q in divisions:
        for y1, y2 in by_sum[q]:
            if (y1, y2) < (x1, x2):
                continue
            for z1, z2 in candidates[n]:
                found.append(SolutionSix(x1, x2, y1, y2, z1, z2))
    found.sort(key=lambda s: (s.x2, s.x1, s.y2, s.y1, s.z2))
    return found
