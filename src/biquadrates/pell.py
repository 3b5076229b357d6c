"""Solutions of the product equation through the Pell equation u^2 - 3v^2 = 1.

Every solution of the Pell equation with v >= 1 plugs into fixed shapes

    x = (1, 2v),  y = (4v^2+1, 2v(2v^2+1)),  z = (4uv^2, 8v^4+4v^2+1)

and satisfies the product equation, because the difference of the two sides
factors through (u^2-3v^2-1).  The ladder of integer solutions is generated
from (2, 1) by (u, v) -> (2u+3v, u+2v), multiplication by 2 + sqrt(3), so
its k-th rung is (2 + sqrt(3))^k.  The rational one-parameter slice
u = (t^2+3)/(t^2-3), v = 2t/(t^2-3) gives the family eq26 in ``families``.
"""

from __future__ import annotations

from collections import namedtuple

from biquadrates.exact import SolutionSix


class PellSolution(namedtuple("PellSolution", "u v")):
    """Integer pair (u, v) with u^2 - 3v^2 = 1."""

    __slots__ = ()


def pell3_nth(k: int) -> PellSolution:
    """k-th solution of u^2 - 3v^2 = 1, counting (2, 1) as the first."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("k must be a positive integer")
    u, v = 2, 1   # (2 + sqrt 3)^k by squaring, from the top bit of k down
    for bit in bin(k)[3:]:
        u, v = u * u + 3 * v * v, 2 * u * v
        if bit == "1":
            u, v = 2 * u + 3 * v, u + 2 * v
    return PellSolution(u, v)


def pell_shapes(u, v) -> tuple:
    """The six shapes (x1, x2, y1, y2, z1, z2) of the Pell route at (u, v)."""
    return (
        1,
        2 * v,
        4 * v * v + 1,
        2 * v * (2 * v * v + 1),
        4 * u * v * v,
        8 * v**4 + 4 * v * v + 1,
    )


def pell_to_solution(ps) -> SolutionSix:
    """Map a Pell pair with v >= 1 into a solution of the product equation."""
    u, v = ps
    if u * u - 3 * v * v != 1 or v < 1:
        raise ValueError("need u^2 - 3v^2 = 1 with v >= 1")
    return SolutionSix(*pell_shapes(u, v))
