"""The base point's multiples on Y^2 = X^3 + a2*X^2 + a4*X, exactly.

For the family studied here a2 = 1 - 4M and a4 = 32M with M = m^4.  The
one kind of point is a Jacobian triple (phi : omega : z), standing for
(phi/z^2, omega/z^3), over Z at a fixed M or over Z[M] symbolically, where
nothing divides.  ``on_curve`` is the curve equation on a triple.

The derivation takes nP from ``multiple_P``: P = -2R for the half point
R = (4M, 12M), and nP = -2nR comes from the division values of R on an
integral model, by Ward's recurrences, over Z at a fixed M and over Z[M]
symbolically, with no gcd.  ``half_point_psi`` keeps them normalised,
psi_k divided by (AB^2)^floor(k^2/4) 2^(k^2-1) (M = A/B); every division it
makes, the normalisation of psi_2..psi_4 and the even step's division by
the normalised psi_2, is exact or raises PipelineError.  Nothing here
checks nP against the curve: the map to the quartic model pulls the curve
equation back to the quartic one, which derive proves once per point.
``_P_triple`` and ``_extra_triple`` are the paper's base point and extra
point as triples, which ``identity``'s closure check compares with the
ladder.  The affine chord-tangent law over Q and Q(M) is the tests' slow
oracle (tests/oracles.py), not part of the library.
"""

from __future__ import annotations

from biquadrates.poly import ExactDivisionError, PoleError


class PipelineError(RuntimeError):
    """An internal consistency check failed while deriving a solution."""


class DegenerateCurveError(ValueError):
    """The cubic has a repeated root (for the family here, m = 0)."""


def on_curve(phi, omega, z, M) -> bool:
    """Whether (phi/z^2, omega/z^3) lies on the curve with parameter M:
    omega^2 = phi^3 + (1-4M) phi^2 z^2 + 32M phi z^4, over Z, Q or Z[M]."""
    zz = z * z
    return omega * omega == phi * (phi * (phi + (1 - 4 * M) * zz) + 32 * M * zz * zz)


def _P_triple(M) -> tuple:
    """P as a Jacobian triple (phi, omega, z) in M = m^4, over Z[M] or at a
    value: the base point (4(M-2)^2/9, 4(M-2)(2M^2-17M-10)/27), which is -2R
    for the half point R = (4M, 12M) that ``multiple_P`` starts from."""
    return 4 * (M - 2) ** 2, 4 * (M - 2) * (2 * M * M - 17 * M - 10), 3


def _extra_triple(M) -> tuple:
    """The further rational point 3R as a Jacobian triple, R = (4M, 12M);
    z = (m^4+3m^2-2)(m^4-3m^2-2)."""
    core = M * M - 4 * M - 14
    return (4 * M * core**2, 36 * M * core * (M**4 - 11 * M**3 + 30 * M**2 - 74 * M - 8),
            M * M - 13 * M + 4)


def _exact(a, b):
    """a/b in Z or Z[M], which must leave no remainder."""
    try:
        q, r = divmod(a, b) if isinstance(a, int) else (a.exact_div(b), 0)
    except ExactDivisionError:
        r = 1
    if r:
        raise PipelineError("an exact division in Z or Z[M] left a remainder")
    return q


def _initial_psi(x, y, a2, a4) -> dict:
    """psi_-1 .. psi_4 at (x, y) on y^2 = x^3 + a2 x^2 + a4 x (b2 = 4a2,
    b4 = 2a4, b6 = 0, b8 = -a4^2 in Silverman, Ex. 3.7)."""
    one = y ** 0
    x2, aa = x * x, a4 * a4
    return {-1: -one, 0: 0 * one, 1: one, 2: 2 * y,
            3: 3 * x2 * x2 + 4 * a2 * x2 * x + 6 * a4 * x2 - aa,
            4: 2 * y * (2 * x2 * x2 * x2 + 4 * a2 * x2 * x2 * x + 10 * a4 * x2 * x2
                        - 10 * aa * x2 - 4 * a2 * aa * x - 2 * aa * a4)}


def half_point_psi(A, B=1):
    """The normalised division values of the half point R of the base point.

    Over Z (A/B a rational M in lowest terms) or Z[M] (A = ``IPoly.gen()``,
    B = 1).  X = B^2 x, Y = B^3 y give the integral model
    Y^2 = X^3 + a2 X^2 + a4 X, a2 = B(B-4A), a4 = 32AB^3, with the point
    R' = (4AB, 12AB^2), the image of R = (4M, 12M); P = -2R.  Returns at(k),
    memoised, with at(k) = psi_k(R') / (D^floor(k^2/4) 2^(k^2-1)), D = AB^2.
    psi_k(R') is homogeneous of degree k^2 - 1 in A and B, so the power of
    B^2 comes with the power of A: over Z[M] D is M, and at a rational M the
    value is the one over Z[M] made homogeneous.

    The values follow Ward's recurrences (M. Ward, "Memoir on elliptic
    divisibility sequences", Amer. J. Math. 70, 1948),
    psi_2k+1 = psi_k+2 psi_k^3 - psi_k-1 psi_k+1^3 and
    psi_2k = psi_k (psi_k+2 psi_k-1^2 - psi_k-2 psi_k+1^2) / psi_2.  Scaling
    psi_k by c^(k^2-1) keeps both, and so does the power of D on the even
    step.  On the odd step the term psi_k+2 psi_k^3 (k even) or
    psi_k-1 psi_k+1^3 (k odd) holds one factor D more than the normaliser of
    psi_2k+1, so its normalised product is multiplied by D (over Z[M], a
    shift).  The divisions, psi_2..psi_4 by their normalisers and the even
    step by at(2) = 3, are exact (the tests check k <= 30); a remainder
    raises PipelineError.
    """
    a2, a4 = B * (B - 4 * A), 32 * A * B**3
    if a4 == 0 or a2 * a2 - 4 * a4 == 0:
        raise DegenerateCurveError("degenerate curve: repeated root in x^3+a2x^2+a4x")
    D = A * B * B
    psi = _initial_psi(4 * A * B, 12 * D, a2, a4)
    for k in (2, 3, 4):
        psi[k] = _exact(psi[k], D ** (k * k // 4) * 2 ** (k * k - 1))

    def at(k):
        if k not in psi:
            h = k >> 1
            if k & 1:
                s, t = at(h + 2) * at(h) ** 3, at(h - 1) * at(h + 1) ** 3
                psi[k] = D * s - t if h & 1 == 0 else s - D * t
            else:
                psi[k] = _exact(at(h) * (at(h + 2) * at(h - 1) ** 2
                                         - at(h - 2) * at(h + 1) ** 2), psi[2])
        return psi[k]

    return at


def multiple_P(n: int, A, B=1) -> tuple:
    """nP = (phi/z^2, omega/z^3) for the base point on the curve with M = A/B.

    Returns (phi, omega, z, below, above), over Z or Z[M] as in
    ``half_point_psi``, where below and above are the normalised values at
    2n - 1 and 2n + 1 around g at 2n, and nP = -2nR.  Silverman (*The
    Arithmetic of Elliptic Curves*, Ex. 3.7) gives
    x(kR) - x(R) = -psi_k-1 psi_k+1 / psi_k^2 and
    y(kR) = (psi_k+2 psi_k-1^2 - psi_k-2 psi_k+1^2) / (4 y(R) psi_k^3); in
    the normalised values, with W = at(2n+2) below^2 - at(2n-2) above^2,
    phi = 36(ABg^2 - below*above), omega = -36W and z = 3Bg.  Over Z[M] the
    map's pole factor is then x - 4Mz^2 = -36 below*above.  Nothing here
    checks the curve equation: derive's one proof that the map's image lies
    on the quartic model is that equation (``derive.to_quartic``).
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    at = half_point_psi(A, B)
    g, below, above = at(2 * n), at(2 * n - 1), at(2 * n + 1)
    if g == 0:
        raise PoleError("nP is the point at infinity")
    w = at(2 * n + 2) * below * below - at(2 * n - 2) * above * above
    return 36 * (A * B * g * g - below * above), -36 * w, 3 * B * g, below, above
