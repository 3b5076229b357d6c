"""Symbolic oracle for the grid verifiers in ``biquadrates.identity``.

The grid verifiers conclude "identically zero" from zeros on a grid with
bound + 2 nodes per axis, so they rest on the stated degree bounds.  Here
sympy expands each identity and checks the residual is zero and that the
terms it cancels between have per-variable degrees within those bounds.
"""

import pytest

sympy = pytest.importorskip("sympy")

from sympy import QQ  # noqa: E402
from sympy.polys.fields import field  # noqa: E402

from biquadrates import derive  # noqa: E402
from biquadrates.derive import quartic_rhs  # noqa: E402
from biquadrates.identity import (  # noqa: E402
    _QUARTIC_ROUNDTRIP_BOUNDS,
    _WEIERSTRASS_ROUNDTRIP_BOUNDS,
    _quartic_start_sides,
    _weierstrass_start_sides,
    brahmagupta_grid,
    pell_reduction_grid,
    quartic_brahmagupta_grid,
    quartic_model_grid,
    substitution_grid,
)
from mutations import v_denominator_16, v_term_23  # noqa: E402

GRIDS = {
    "brahmagupta": brahmagupta_grid,
    "quartic_brahmagupta": quartic_brahmagupta_grid,
    "substitution_13": substitution_grid,
    "quartic_model": quartic_model_grid,
    "pell_reduction": pell_reduction_grid,
}


def _degrees(K, value) -> tuple:
    """Per-variable degrees of value, which must be a polynomial."""
    f = K(value)
    assert f.denom == 1, "not a polynomial after clearing"
    return tuple(max(d, 0) for d in f.numer.degrees())


def _fits(degrees, bounds) -> bool:
    return all(d <= b for d, b in zip(degrees, bounds))


@pytest.mark.parametrize("name", GRIDS)
def test_grid_residual_is_zero(name):
    g = GRIDS[name]()
    K, *gens = field(",".join(g.variables), QQ)
    assert g.residual(*gens) == 0


@pytest.mark.parametrize("name", GRIDS)
def test_grid_terms_fit_bounds(name):
    g = GRIDS[name]()
    K, *gens = field(",".join(g.variables), QQ)
    if name == "quartic_model":
        # the residual compares two substitutions, which an expression tree
        # cannot do; its terms are the transformed constraint and the model
        U, m, V = gens
        model = V**2 - quartic_rhs(U, m**4)
        terms = [g.residual(*gens) + model, model]
    else:
        expr = g.residual(*sympy.symbols(g.variables))
        terms = [K.from_expr(t) for t in sympy.Add.make_args(expr)]
    for t in terms:
        assert _fits(_degrees(K, t), g.degree_bounds), name


ROUNDTRIPS = {
    "weierstrass": (_weierstrass_start_sides, "X,M", _WEIERSTRASS_ROUNDTRIP_BOUNDS),
    "quartic": (_quartic_start_sides, "U,M", _QUARTIC_ROUNDTRIP_BOUNDS),
}


def _components(sides, a, M) -> list:
    """The two _Quad components of image - start for each coordinate."""
    out = []
    for image, start in sides(a, M):
        d = image - start
        out += [d.a, d.b]
    return out


@pytest.mark.parametrize("name", ROUNDTRIPS)
def test_roundtrip_components_are_zero(name):
    sides, names, _ = ROUNDTRIPS[name]
    K, a, M = field(names, QQ)
    components = _components(sides, a, M)
    assert len(components) == 4
    assert all(K(c) == 0 for c in components)


@pytest.mark.parametrize("mutated", [False, True])
@pytest.mark.parametrize("v_factor", [4, 16])
@pytest.mark.parametrize("name", ROUNDTRIPS)
def test_roundtrip_sides_fit_bounds(name, v_factor, mutated, monkeypatch):
    # the grid sees each component as its reduced numerator over a
    # denominator that is nonzero on the nodes; the bounds must hold for the
    # broken maps too, since that is what lets the grid reject them
    if v_factor == 16:
        monkeypatch.setattr(derive, "to_quartic", v_denominator_16(derive.to_quartic))
    if mutated:
        monkeypatch.setattr(derive, "to_quartic", v_term_23(derive.to_quartic))
    sides, names, bounds = ROUNDTRIPS[name]
    K, a, M = field(names, QQ)
    components = _components(sides, a, M)
    for c in components:
        assert _fits(tuple(max(d, 0) for d in K(c).numer.degrees()), bounds)
    assert any(K(c) != 0 for c in components) == (v_factor == 16 or mutated)
