"""Known solutions and families shared by several test modules.

Each row of ``SMALL_SOLUTIONS`` satisfies (x1^4+x2^4)(y1^4+y2^4) = z1^4+z2^4
and is already in canonical orientation: both pairs primitive and ascending,
x-pair lexicographically at most the y-pair.

``PUBLISHED_FAMILIES`` holds the paper's curve families eq20, eq21 and eq22
and its Pell family eq26 as it prints them, coefficient by coefficient: the
data that the library's ``derive.FAMILIES`` entries, built from the ladder
and from the Pell shapes, are checked against.
"""

from biquadrates.exact import SolutionSix
from biquadrates.families import ParamSolution
from biquadrates.poly import IPoly
from oracles import from_terms as f

SMALL_SOLUTIONS = [
    SolutionSix(1, 2, 5, 6, 8, 13),
    SolutionSix(1, 2, 25, 28, 39, 62),
    SolutionSix(1, 4, 4, 15, 49, 52),
    SolutionSix(1, 5, 16, 29, 97, 141),
    SolutionSix(1, 8, 65, 264, 448, 2113),
    SolutionSix(1, 10, 8, 11, 2, 117),
    SolutionSix(2, 5, 16, 19, 78, 97),
    SolutionSix(3, 5, 17, 28, 13, 149),
    SolutionSix(3, 10, 6, 17, 8, 171),
    SolutionSix(3, 14, 5, 6, 39, 92),
    SolutionSix(5, 6, 6, 13, 16, 87),
    SolutionSix(8, 11, 13, 15, 163, 167),
]

m = IPoly.gen()
t = IPoly.gen()

PUBLISHED_FAMILIES = {
    # the base family: x-pair (6m, (m^2-2m+2)(m^2+2m+2)), z-pair of degrees 9 and 8
    "eq20": ParamSolution(
        x1=6 * m,
        x2=(m**2 - 2 * m + 2) * (m**2 + 2 * m + 2),
        y1=m * (m**4 - 2),
        y2=m**4 + 1,
        z1=m * (m**8 + 2 * m**4 + 10),
        z2=(m**4 + 3 * m**2 - 2) * (m**4 - 3 * m**2 - 2),
    ),
    # the doubled-point family: z-pair of degrees 49 and 48
    "eq21": ParamSolution(
        x1=f({21: 12, 17: -282, 13: 1830, 9: -2256, 5: -984, 1: 480}),
        x2=f({24: 1, 16: -240, 12: 1652, 8: -1800, 4: 1668, 0: 256}),
        y1=f({25: 1, 21: -12, 17: 42, 13: -178, 9: 456, 5: 2652, 1: -224}),
        y2=f({24: 1, 20: -6, 16: -99, 12: 737, 8: -672, 4: 2160, 0: 16}),
        z1=f({49: 1, 45: -12, 41: -126, 37: 970, 33: 30474, 29: -405108,
              25: 1799754, 21: -3341016, 17: 3936600, 13: -1330304,
              9: 4344720, 5: -167040, 1: 57856}),
        z2=f({48: 1, 44: -78, 40: 1749, 36: -17069, 32: 79200, 28: -183456,
              24: 505284, 20: -3071484, 16: 10049220, 12: -5711360,
              8: -791232, 4: -831552, 0: 4096}),
    ),
    # the family of 3R: z-pair of degrees 25 and 24
    "eq22": ParamSolution(
        x1=f({9: 6, 5: -78, 1: 24}),
        x2=f({12: 1, 8: -12, 4: 72, 0: 4}),
        y1=f({13: 1, 9: -6, 5: -6, 1: 28}),
        y2=f({12: 1, 8: -9, 4: 33, 0: 16}),
        z1=f({25: 1, 21: -18, 17: 156, 13: -796, 9: 2394, 5: 120, 1: 400}),
        z2=f({24: 1, 20: -39, 16: 357, 12: -808, 8: 132, 4: -2244, 0: 64}),
    ),
    # the Pell family in t, from u = (t^2+3)/(t^2-3), v = 2t/(t^2-3)
    "eq26": ParamSolution(
        x1=t**2 - 3,
        x2=4 * t,
        y1=(t**2 - 3) * (t**2 + 9) * (t**2 + 1),
        y2=4 * t * (t**2 + 2 * t + 3) * (t**2 - 2 * t + 3),
        z1=16 * t**2 * (t**2 - 3) * (t**2 + 3),
        z2=t**8 + 4 * t**6 + 86 * t**4 + 36 * t**2 + 81,
        var="t",
    ),
}
