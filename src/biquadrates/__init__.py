"""Exact tools for (x1^4+x2^4)(y1^4+y2^4) = z1^4+z2^4.

Search for integer solutions, generate one-parameter polynomial families
from an elliptic curve or from Pell pairs, and verify every identity
involved with exact arithmetic.
"""

from biquadrates.exact import (
    CanonicalKey,
    DegenerateSolutionError,
    SolutionSix,
    canonicalize,
    check_solution,
    integer_fourth_root_floor,
    is_fourth_power,
    scale_solution,
)

__all__ = [
    "CanonicalKey",
    "DegenerateSolutionError",
    "SolutionSix",
    "canonicalize",
    "check_solution",
    "integer_fourth_root_floor",
    "is_fourth_power",
    "scale_solution",
]

__version__ = "0.1.0"
