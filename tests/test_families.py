"""Tests for ParamSolution's residual, which is formed in var^g."""

from hypothesis import given, settings
from hypothesis import strategies as st

from biquadrates.families import FAMILIES, ParamSolution
from biquadrates.poly import IPoly


def _dense_residual(ps: ParamSolution) -> IPoly:
    x1, x2, y1, y2, z1, z2 = ps.polys()
    return (x1**4 + x2**4) * (y1**4 + y2**4) - z1**4 - z2**4


@st.composite
def sparse_entry(draw, hs):
    """var^r * P(var^h) with h drawn from hs, or the zero polynomial."""
    if draw(st.integers(0, 4)) == 0:
        return IPoly(())
    h = draw(st.sampled_from(hs))
    r = draw(st.integers(0, 5))
    cs = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=1 if h == 0 else 7))
    return IPoly.from_terms({r + h * i: c for i, c in enumerate(cs)})


@st.composite
def sparse_families(draw):
    # every h a multiple of step, so the shared g takes each value often; at
    # h = 8 an odd r caps g at gcd(8, 4r) = 4
    step = draw(st.sampled_from((1, 2, 4, 8)))
    hs = tuple(h for h in (0, 1, 2, 4, 8) if h % step == 0)
    return ParamSolution(*(draw(sparse_entry(hs)) for _ in range(6)))


@given(sparse_families())
@settings(max_examples=80, deadline=None)
def test_residual_matches_dense_formula(ps):
    assert ps.residual() == _dense_residual(ps)


def test_published_families_and_a_corruption():
    for make in FAMILIES.values():
        ps = make()
        assert ps.residual().is_zero
        bent = ParamSolution(ps.x1, ps.x2, ps.y1, ps.y2 + 1, ps.z1, ps.z2, ps.var)
        assert bent.residual() == _dense_residual(bent) != IPoly(())
