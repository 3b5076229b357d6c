"""Corrupted readings of formulas the library defines once.

Each function wraps the real definition; tests monkeypatch the result into
its module, so the pipeline and the verifiers both run the corrupted copy.
"""


def v_denominator_16(to_quartic):
    """V scaled by 1/4: the paper's V read over 16(X-4M)^2, not 4(X-4M)^2."""
    def mutated(x, y, M):
        u, v = to_quartic(x, y, M)
        return u, v / 4
    return mutated


def v_term_23(to_quartic):
    """V shifted by MY/(4(X-4M)^2): the paper's -24MY term read as -23MY."""
    def mutated(x, y, M):
        u, v = to_quartic(x, y, M)
        return u, v + M * y / (4 * (x - 4 * M) ** 2)
    return mutated


def pell_z2_plus_one(pell_shapes):
    """The Pell shape z2 = 8v^4+4v^2+1 read as 8v^4+4v^2+2."""
    def mutated(u, v):
        *rest, z2 = pell_shapes(u, v)
        return (*rest, z2 + 1)
    return mutated


def skip_odd_x1(pair_products):
    """search's parity filter widened to every combination with x1 odd."""
    def mutated(xpairs, ypairs):
        return (row for row in pair_products(xpairs, ypairs) if row[0] % 2 == 0)
    return mutated
