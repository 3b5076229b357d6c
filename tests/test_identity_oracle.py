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
    brahmagupta_grid,
    curve_chart_grid,
    pell_reduction_grid,
    quartic_brahmagupta_grid,
    quartic_chart_grid,
    quartic_model_grid,
    substitution_grid,
)
from mutations import (  # noqa: E402
    pell_z2_plus_one,
    v_denominator_16,
    v_term_23,
    y_plus_2uv,
    z2_doubled,
)

GRIDS = {
    "brahmagupta": brahmagupta_grid,
    "quartic_brahmagupta": quartic_brahmagupta_grid,
    "substitution_13": substitution_grid,
    "quartic_model": quartic_model_grid,
    "pell_reduction": pell_reduction_grid,
    "curve_chart": curve_chart_grid,
    "quartic_chart": quartic_chart_grid,
}


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


@pytest.mark.parametrize("name", GRIDS)
def test_grid_terms_fit_bounds(name):
    g = GRIDS[name]()
    K, *gens = field(",".join(g.variables), QQ)
    for expr in _components(g.residual(*sympy.symbols(g.variables))):
        terms = [K.from_expr(t) for t in sympy.Add.make_args(expr)]
        den = reduce(lambda a, b: a.lcm(b), (t.denom for t in terms))
        for t in terms:
            assert _fits(_degrees(t.numer * den.exquo(t.denom)), g.degree_bounds), name


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
