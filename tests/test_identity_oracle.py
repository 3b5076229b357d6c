"""Symbolic oracle for the grid verifiers in ``biquadrates.identity``.

The grid verifiers conclude "identically zero" from zeros on a grid with
bound + 2 nodes per axis, so they rest on the stated degree bounds.  Here
sympy expands each identity and checks the residual is zero and that the
terms it cancels between, over their common denominator, have
per-variable degrees within those bounds.  It also checks that under each
corruption in tests/mutations.py the residual's reduced numerator is
nonzero and within the same bounds, which is what lets the grid reject
the corruption.
"""

from functools import reduce

import pytest

sympy = pytest.importorskip("sympy")

from sympy import QQ  # noqa: E402
from sympy.polys.fields import field  # noqa: E402

from biquadrates import derive, pell  # noqa: E402
from biquadrates.identity import (  # noqa: E402
    GRIDS,
    curve_chart_grid,
    pell_reduction_grid,
    quartic_chart_grid,
    quartic_model_grid,
)
from mutations import (  # noqa: E402
    pell_z2_plus_one,
    v_denominator_16,
    v_term_23,
    y_plus_2uv,
    z2_doubled,
)
from oracles import curve_from_parameter  # noqa: E402


def _components(residual) -> tuple:
    return residual if isinstance(residual, tuple) else (residual,)


def _degrees(poly) -> tuple:
    return tuple(max(d, 0) for d in poly.degrees())


def _fits(degrees, bounds) -> bool:
    return all(d <= b for d, b in zip(degrees, bounds))


@pytest.mark.parametrize("name", GRIDS)
def test_grid_residual_is_zero(name):
    g = GRIDS[name]()
    K, *gens = field(",".join(g.variables), QQ)
    assert all(c == 0 for c in _components(g.residual(*gens)))


# The quartic chart's U round trip is one quotient that sympy reduces to U
# itself (x + y + 8M = U(2x - 8M) for every M), so its terms are taken with
# each quotient's numerator and denominator reduced apart, not against each
# other.
UNFOLD = {"quartic_chart"}


def _term(K, t, unfold):
    """A term as (numerator, denominator) in K's polynomial ring."""
    if not unfold:
        t = K.from_expr(t)
        return t.numer, t.denom
    n, d = (K.from_expr(e) for e in sympy.fraction(t))
    return n.numer * d.denom, n.denom * d.numer


@pytest.mark.parametrize("name", GRIDS)
def test_grid_terms_fit_bounds(name):
    # the terms of the correct formulas fit the bounds and reach them on some
    # axis, so each bound is what the identity itself needs
    g = GRIDS[name]()
    K, *gens = field(",".join(g.variables), QQ)
    reached = [0] * len(g.variables)
    for expr in _components(g.residual(*sympy.symbols(g.variables))):
        terms = [_term(K, t, name in UNFOLD) for t in sympy.Add.make_args(expr)]
        den = reduce(lambda a, b: a.lcm(b), (d for _, d in terms))
        for n, d in terms:
            degrees = _degrees(n * den.exquo(d))
            assert _fits(degrees, g.degree_bounds), name
            reached = [max(r, e) for r, e in zip(reached, degrees)]
    assert any(r == b for r, b in zip(reached, g.degree_bounds)), (name, reached)


def _numerators_fit(g) -> bool:
    """Assert each component's reduced numerator fits the bounds; return
    whether any component is nonzero."""
    # the grid sees each component as its reduced numerator over a
    # denominator that is nonzero on the nodes; the bounds must hold for the
    # broken formulas too, since that is what lets the grid reject them
    K, *gens = field(",".join(g.variables), QQ)
    components = [K(c) for c in _components(g.residual(*gens))]
    for c in components:
        assert _fits(_degrees(c.numer), g.degree_bounds)
    return any(c != 0 for c in components)


ROUNDTRIPS = {"weierstrass": curve_chart_grid, "quartic": quartic_chart_grid}


@pytest.mark.parametrize("mutated", [False, True])
@pytest.mark.parametrize("v_factor", [4, 16])
@pytest.mark.parametrize("name", ROUNDTRIPS)
def test_roundtrip_sides_fit_bounds(name, v_factor, mutated, monkeypatch):
    if v_factor == 16:
        monkeypatch.setattr(derive, "to_quartic", v_denominator_16(derive.to_quartic))
    if mutated:
        monkeypatch.setattr(derive, "to_quartic", v_term_23(derive.to_quartic))
    assert _numerators_fit(ROUNDTRIPS[name]()) == (v_factor == 16 or mutated)


MUTATIONS = {
    "curve_chart-y_plus_2uv": (curve_chart_grid, derive, "to_weierstrass", y_plus_2uv),
    "quartic_chart-y_plus_2uv": (quartic_chart_grid, derive, "to_weierstrass", y_plus_2uv),
    "quartic_model-z2_doubled": (quartic_model_grid, derive, "_solution_pairs", z2_doubled),
    "pell_reduction-pell_z2_plus_one": (pell_reduction_grid, pell, "pell_shapes",
                                        pell_z2_plus_one),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_fits_bounds(name, monkeypatch):
    grid, module, attr, mutation = MUTATIONS[name]
    monkeypatch.setattr(module, attr, mutation(getattr(module, attr)))
    assert _numerators_fit(grid())


@pytest.mark.parametrize("jacobian", [False, True])
def test_quartic_check_is_the_pulled_back_curve_equation(jacobian):
    # with to_quartic's V = X/2 + U - U^2, V^2 - quartic_rhs(U) is the curve
    # equation over 4(4M - X), so one proof that the image of a point lies
    # on the quartic model (the QuarticPoint check over Q, the family's
    # residual over Z[M]) proves the point was on the curve
    x, y, z, M = sympy.symbols("x y z M")
    X, Y = (x / z**2, y / z**3) if jacobian else (x, y)
    u, v = derive.to_quartic(x, y, M, z) if jacobian else derive.to_quartic(x, y, M)
    pulled_back = v**2 - derive.quartic_rhs(u, M)
    c = curve_from_parameter(M)
    assert sympy.cancel(pulled_back - (Y**2 - c.rhs(X)) / (4 * (4 * M - X))) == 0
