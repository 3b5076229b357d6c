"""Seeded job lists for the benchmark workloads.

A job is the argv list of one ``biquadrates`` command.  The seed draws only
these inputs; every job list is a plain function of (workload, seed).

The workloads keep their total work nearly independent of the seed, so that
run-to-run spread reflects the program and the machine, not the draw:

* a search round runs every window of a fixed list, in seeded order; the
  windows' root-loop work (the number of z1 values tried over every searched
  pair product, see ``window_work``) lies within +-4% of a common target, so
  no window dominates the round;
* derive-symbolic runs every k = 1..6 once.  The seed picks the sign branch
  only for k <= 2: at k = 4..6 the two branches differ by up to 1.6x in cost
  (k = 6: 5.7 s minus, 8.9 s plus), which would make the round time depend
  on the draw.  Larger k use ``--sign auto``, the CLI default;
* small-jobs draws a fixed number of jobs of each kind.  Its slowest tenth
  is mostly ``curve --n k --m a/b`` and ``pell --k`` past 1500, whose cost
  grows with k and with max(a, b); so each curve job's max(a, b) is fixed by
  its k (the seed draws the fraction of that height) and the large pell
  rungs are drawn one from each quarter of their range.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

DEFAULT_SEED = 1

WORKLOADS = ("search-square", "search-tall", "derive-symbolic", "small-jobs")

# 14 <= bx <= by <= 30 with window_work in [1.98e6, 2.10e6].
SQUARE_WINDOWS = ((14, 29), (15, 28), (16, 27), (17, 25), (19, 23), (22, 22))

# bx <= 8, 60 <= by <= 160 with window_work in [1.94e6, 2.09e6].
TALL_WINDOWS = ((3, 115), (3, 117), (4, 90), (5, 71), (6, 63), (6, 64))

DERIVE_MAX_N = 6
DERIVE_SEEDED_SIGN_MAX_N = 2

CURVE_MAX_N = 24
# Rungs past ~1880 print more than 4300 digits; one is drawn from each
# quarter of [1500, 3000).
PELL_LARGE_K = (1500, 3000)
PELL_LARGE_JOBS = 4

# Published primitive solutions, canonical orientation (x-pair <= y-pair).
KNOWN_SOLUTIONS = (
    (1, 2, 5, 6, 8, 13),
    (1, 2, 25, 28, 39, 62),
    (1, 4, 4, 15, 49, 52),
    (1, 5, 16, 29, 97, 141),
    (1, 8, 65, 264, 448, 2113),
    (1, 10, 8, 11, 2, 117),
    (2, 5, 16, 19, 78, 97),
    (3, 5, 17, 28, 13, 149),
    (3, 10, 6, 17, 8, 171),
    (3, 14, 5, 6, 39, 92),
    (5, 6, 6, 13, 16, 87),
    (8, 11, 13, 15, 163, 167),
)

FAMILY_NAMES = ("eq20", "eq21", "eq22", "eq26")


def window_work(bx: int, by: int) -> int:
    """z1 values the root loop tries over one window: a cost model for search."""
    def pairs(b):
        return [(a, c, a**4 + c**4) for a in range(1, b)
                for c in range(a + 1, b + 1) if gcd(a, c) == 1]
    work = 0
    ypairs = pairs(by)
    for x1, x2, sx in pairs(bx):
        for y1, y2, sy in ypairs:
            if (y1, y2) < (x1, x2) or x1 & y1 & x2 & y2 & 1:
                continue
            work += isqrt(isqrt(sx * sy // 2)) + 1
    return work


def _search_jobs(rng, windows):
    return [["search", "--bx", str(bx), "--by", str(by)]
            for bx, by in rng.sample(windows, len(windows))]


def _derive_jobs(rng):
    jobs = []
    for n in range(1, DERIVE_MAX_N + 1):
        if n <= DERIVE_SEEDED_SIGN_MAX_N:
            sign = rng.choice(("auto", "plus", "minus"))
        else:
            sign = "auto"
        job = ["curve", "--n", str(n), "--symbolic", "--sign", sign]
        if rng.random() < 0.5:
            job.append("--descending")
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def _fraction(rng, max_num, max_den) -> str:
    """A positive a/b in lowest terms (argparse would read "-a/b" as a flag)."""
    while True:
        a = rng.randint(1, max_num)
        b = rng.randint(1, max_den)
        if gcd(a, b) == 1:
            return str(Fraction(a, b))


def _height_fraction(rng, height) -> str:
    """A positive a/b in lowest terms with max(a, b) == height >= 2."""
    a = rng.choice([a for a in range(1, height) if gcd(a, height) == 1])
    return str(Fraction(a, height) if rng.random() < 0.5 else Fraction(height, a))


def _curve_heights(n):
    """max(a, b) of the two curve --n n jobs: one in 2..5, one in 6..13."""
    return 2 + n % 4, 6 + n % 8


def _verify_job(rng):
    x1, x2, y1, y2, z1, z2 = rng.choice(KNOWN_SOLUTIONS)
    k1, k2 = rng.randint(1, 9), rng.randint(1, 9)
    xs = [k1 * x1, k1 * x2]
    ys = [k2 * y1, k2 * y2]
    zs = [k1 * k2 * z1, k1 * k2 * z2]
    for pair in (xs, ys, zs):
        rng.shuffle(pair)
        for i in range(2):
            if rng.random() < 0.25:
                pair[i] = -pair[i]
    if rng.random() < 0.5:
        xs, ys = ys, xs
    return ["verify"] + [str(v) for v in xs + ys + zs]


def _small_jobs(rng):
    jobs = [["selftest"]]
    jobs += [_verify_job(rng) for _ in range(80)]
    for name in FAMILY_NAMES:
        for _ in range(12):
            job = ["family", name, "--param", _fraction(rng, 12, 12)]
            if rng.random() < 0.25:
                job.append("--json")
            jobs.append(job)
        for _ in range(2):
            job = ["family", name, "--symbolic"]
            if rng.random() < 0.5:
                job.append("--descending")
            jobs.append(job)
    jobs += [["pell", "--k", str(rng.randint(1, 300))] for _ in range(36)]
    lo, hi = PELL_LARGE_K
    step = (hi - lo) // PELL_LARGE_JOBS
    jobs += [["pell", "--k", str(rng.randrange(k, k + step))] for k in range(lo, hi, step)]
    jobs += [["pell", "--t", _fraction(rng, 30, 30)] for _ in range(40)]
    for n in range(1, CURVE_MAX_N + 1):
        for height in _curve_heights(n):
            jobs.append(["curve", "--n", str(n), "--m", _height_fraction(rng, height)])
    rng.shuffle(jobs)
    return jobs


def job_list(workload: str, seed: int) -> list:
    """The argv lists of one round of the workload, drawn from the seed."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "search-square":
        return _search_jobs(rng, SQUARE_WINDOWS)
    if workload == "search-tall":
        return _search_jobs(rng, TALL_WINDOWS)
    if workload == "derive-symbolic":
        return _derive_jobs(rng)
    if workload == "small-jobs":
        return _small_jobs(rng)
    raise ValueError("unknown workload %r" % (workload,))
