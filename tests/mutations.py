"""Corrupted readings of formulas the library defines once.

Each function wraps the real definition; tests monkeypatch the result into
its module, so the pipeline and the verifiers both run the corrupted copy.
The residual corruptions at the end wrap a grid's residual instead, and
tests put the result into the grid with the grid's ``_replace``.

``derive.published_family`` builds and proves each published family once
per process, so a test that patches the derivation, the Pell shapes or the
residual and then asks for one takes the ``fresh_families`` fixture: the
family is built under the patch, and no family built under it outlives the
test.
"""

from math import gcd

import pytest

from biquadrates import derive
from biquadrates.poly import IPoly, content


@pytest.fixture
def fresh_families():
    """An empty published-family cache before and after the test."""
    derive.published_family.cache_clear()
    yield
    derive.published_family.cache_clear()


def v_denominator_16(to_quartic):
    """V scaled by 1/4: the paper's V read over 16(X-4M)^2, not 4(X-4M)^2.

    Further arguments (z, and the known factor g) pass through.  Over a
    field the image is (U, V); over Z or Z[M] it is (p, q, s) with
    V = s/q^2, and V/4 is s/(2q)^2 with U = 2p/2q."""
    def mutated(x, y, M, z=1, *rest):
        image = to_quartic(x, y, M, z, *rest)
        if len(image) == 2:
            u, v = image
            return u, v / 4
        p, q, s = image
        return 2 * p, 2 * q, s
    return mutated


def v_term_23(to_quartic):
    """V shifted by MY/(4(X-4M)^2): the paper's -24MY term read as -23MY.

    At X = x/z^2, Y = y/z^3 the shift is Myz/w^2 with w = 2(x - 4Mz^2), so
    over Z or Z[M] V = s/q^2 becomes (s w^2 + q^2 Myz)/(qw)^2, with
    U = pw/qw."""
    def mutated(x, y, M, z=1, *rest):
        image = to_quartic(x, y, M, z, *rest)
        w = 2 * (x - 4 * M * z * z)
        if len(image) == 2:
            u, v = image
            return u, v + M * y * z / (w * w)
        p, q, s = image
        return p * w, q * w, s * w * w + q * q * M * y * z
    return mutated


def psi_changed(k, change):
    """The division value psi_k of the half point read as change(psi_k)."""
    def wrap(initial_psi):
        def mutated(x, y, a2, a4):
            psi = initial_psi(x, y, a2, a4)
            psi[k] = change(psi[k])
            return psi
        return mutated
    return wrap


psi3_plus_one = psi_changed(3, lambda v: v + 1)   # psi_3 read one too large
psi3_doubled = psi_changed(3, lambda v: 2 * v)    # psi_3 read twice too large


def y_plus_2uv(to_weierstrass):
    """The inverse map's Y with its 4UV term read as 6UV."""
    def mutated(u, v, M):
        x, y = to_weierstrass(u, v, M)
        return x, y + 2 * u * v
    return mutated


def z2_doubled(solution_pairs):
    """The solution shape z2 = q^2 V read as 2q^2 V."""
    def mutated(p, q, m, v):
        x, y, (z1, z2) = solution_pairs(p, q, m, v)
        return x, y, (z1, 2 * z2)
    return mutated


def z1_plus_q2(solution_pairs):
    """The solution shape z1 = m(p^2 + q^2) read as m(p^2 + q^2) + q^2."""
    def mutated(p, q, m, v):
        x, y, (z1, z2) = solution_pairs(p, q, m, v)
        return x, y, (z1 + q * q, z2)
    return mutated


def entry_bent(solution_pairs, i, where):
    """The family entry E(i+1) (i = 0..5: x1, x2, y1, y2, z1, z2) with one
    coefficient changed.

    "top" and "constant" add 2 to the top coefficient or the constant term;
    "edge" sets the middle coefficient to 2^b - 1 (or its negative, if it is
    that already), b the entry's largest bit length, so the zero test's width
    stays as it was.  The entry is its pair's over the pair's gcd d (d1 d2
    for the z-pair), so the pair changes by d times as much and still
    divides exactly."""
    def mutated(p, q, m, v):
        pairs = [list(pair) for pair in solution_pairs(p, q, m, v)]
        d1, d2 = (gcd(content(a), content(b)) for a, b in pairs[:2])
        d = (d1, d2, d1 * d2)[i // 2]
        es = [c // d for c in pairs[i // 2][i % 2].coeffs]
        if where == "edge":
            j, edge = len(es) // 2, (1 << max(map(int.bit_length, es))) - 1
            delta = (edge if es[j] != edge else -edge) - es[j]
        else:
            j, delta = (len(es) - 1 if where == "top" else 0), 2
        es[j] += delta
        pairs[i // 2][i % 2] = IPoly(c * d for c in es)
        return tuple(map(tuple, pairs))
    return mutated


def pell_z2_plus_one(pell_shapes):
    """The Pell shape z2 = 8v^4+4v^2+1 read as 8v^4+4v^2+2 (at w = 1)."""
    def mutated(u, v, w=1):
        *rest, z2 = pell_shapes(u, v, w)
        return (*rest, z2 + 1)
    return mutated


def skip_odd_x1(pair_class):
    """search's parity class widened to every pair whose first entry is odd."""
    def mutated(a, b, s):
        return pair_class(a, b, s) & ~1 | a & 1
    return mutated


def mod5_class_1(pair_class):
    """search's mod-5 class read as a pair sum of 1 mod 5, not 2."""
    def mutated(a, b, s):
        return pair_class(a, b, s) & ~2 | (s % 5 == 1) << 1
    return mutated


def brahmagupta_square_twice(residual):
    """Brahmagupta's (x1 y2 - x2 y1)^2 counted twice."""
    def mutated(a, b, c, d):
        return residual(a, b, c, d) - (a * d - b * c) ** 2
    return mutated


def quartic_brahmagupta_plus_abcd(residual):
    """The quartic split off by (x1 x2 y1 y2)^2."""
    def mutated(a, b, c, d):
        return residual(a, b, c, d) + (a * b * c * d) ** 2
    return mutated


def substitution_3m2p2q2(residual):
    """(x2 y2)^2 = 4 m^2 p^2 q^2 read as 3 m^2 p^2 q^2."""
    def mutated(p, q, m):
        return residual(p, q, m) + m**2 * p**2 * q**2
    return mutated


def quartic_rhs_plus_q4(quartic_rhs):
    """The quartic rhs with q^4 added: its constant term -4M read as 1 - 4M
    (at b = 1)."""
    def mutated(u, M, q=1, b=1):
        return quartic_rhs(u, M, q, b) + q**4
    return mutated


def quartic_rhs_7mu(residual):
    """The quartic rhs's -8 m^4 U term read as -7 m^4 U, times q^4."""
    def mutated(p, q, m, v):
        return residual(p, q, m, v) + m**4 * p * q**3
    return mutated


def pell_factor_255(residual):
    """The Pell reduction's factor 256 v^8 read as 255 v^8."""
    def mutated(u, v):
        return residual(u, v) - v**8 * (u**2 + 3 * v**2 + 1) * (u**2 - 3 * v**2 - 1)
    return mutated
