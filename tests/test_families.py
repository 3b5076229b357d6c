"""Tests for ParamSolution's residual, formed through the Brahmagupta split
with each product run at its operands' common stride."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biquadrates.families as families
from biquadrates.derive import FAMILIES, published_family, solution_from_nP
from biquadrates.families import ParamSolution
from biquadrates.poly import IPoly
from oracles import from_terms


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
    return from_terms({r + h * i: c for i, c in enumerate(cs)})


@st.composite
def sparse_families(draw):
    # every h a multiple of step, so that sparse entries in var^4 and var^2,
    # the curve families' and eq26's shapes, are drawn often
    step = draw(st.sampled_from((1, 2, 4, 8)))
    hs = tuple(h for h in (0, 1, 2, 4, 8) if h % step == 0)
    return ParamSolution(*(draw(sparse_entry(hs)) for _ in range(6)))


@st.composite
def strided_entry(draw):
    """m^r E(m^g) with g drawn from 1, 2, 4 for each entry on its own: a
    monomial (one coefficient), the zero polynomial, or up to 7 terms."""
    kind = draw(st.sampled_from(("zero", "monomial", "strided", "strided")))
    if kind == "zero":
        return IPoly(())
    g, r = draw(st.sampled_from((1, 2, 4))), draw(st.integers(0, 6))
    size = 1 if kind == "monomial" else 7
    cs = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=size))
    cs[-1] = cs[-1] or 1
    return from_terms({r + g * i: c for i, c in enumerate(cs)})


@st.composite
def mixed_stride_families(draw):
    """Six strided entries, and maybe one coefficient bent off its entry's
    stride (or onto it): the residual of a family with one wrong term."""
    entries = [draw(strided_entry()) for _ in range(6)]
    if draw(st.booleans()):
        i, k = draw(st.integers(0, 5)), draw(st.integers(0, 12))
        entries[i] = entries[i] + from_terms({k: draw(st.sampled_from((-1, 1, 3)))})
    return ParamSolution(*entries)


@given(st.one_of(sparse_families(), mixed_stride_families()))
@example(ParamSolution(*(from_terms({r: 1, r + 4: -2}) for r in (0, 1, 1, 0, 1, 0))))
@example(ParamSolution(IPoly(()), from_terms({5: 3}), from_terms({2: 1, 6: 1}),
                       from_terms({7: -1}), IPoly(()), from_terms({1: 2, 3: 1})))
@settings(max_examples=200, deadline=None)
def test_residual_matches_dense_formula(ps):
    assert ps.residual() == _dense_residual(ps)
    for a in ps.polys():
        for b in ps.polys():
            assert families._mul(a, b) == a * b


def test_published_families_and_a_corruption():
    for name in FAMILIES:
        ps = published_family(name)
        assert ps.residual().is_zero
        bent = ParamSolution(ps.x1, ps.x2, ps.y1, ps.y2 + 1, ps.z1, ps.z2, ps.var)
        assert bent.residual() == _dense_residual(bent) != IPoly(())


def _family(*entries, var="m"):
    return ParamSolution(*(from_terms(e) for e in entries), var=var)


def _shifted(*rs, h=8):
    """Entry i is (i+1) var^r_i + (-1)^i var^(r_i+h), for the shifts rs."""
    return _family(*({r: i + 1, r + h: (-1) ** i} for i, r in enumerate(rs)))


EDGE_FAMILIES = {
    "all_zero": _family({}, {}, {}, {}, {}, {}),
    "one_zero_entry": ParamSolution(IPoly(()), *published_family("eq20").polys()[1:]),
    "monomials": _family({3: 2}, {1: -1}, {5: -1}, {0: 3}, {2: 1}, {7: 4}),
    # odd r with h = 4 or 8
    "odd_r_h4": _family({1: 1, 5: -2}, {3: 2, 7: 1}, {1: 3}, {5: -1, 9: 1},
                        {3: 1, 11: 2}, {1: 1, 5: 1}),
    "odd_r_h8": _family({1: 1, 9: -2}, {3: 2, 11: 1}, {1: 3, 17: 1}, {5: -1, 13: 1},
                        {3: 1, 19: 2}, {1: 1, 9: 1}),
    # h = 8, with shifts that put two summands 4 apart mod 8, one case each:
    # the two terms of A, A and z1^2, the two terms of B, B and z2^2
    "gap_x_in_A": _shifted(1, 0, 1, 0, 2, 1),
    "gap_z1_in_A": _shifted(0, 0, 0, 0, 2, 0),
    "gap_x_in_B": _shifted(1, 0, 0, 1, 1, 2),
    "gap_z2_in_B": _shifted(0, 0, 0, 0, 0, 2),
    # eq26's entries with z1 bent by t^10, so the residual is nonzero
    "eq26_shape": ParamSolution(*published_family("eq26").polys()[:4],
                                published_family("eq26").z1 + from_terms({10: 1}),
                                published_family("eq26").z2, var="t"),
}


@pytest.mark.parametrize("name", sorted(EDGE_FAMILIES))
def test_residual_edge_cases_match_dense(name):
    ps = EDGE_FAMILIES[name]
    assert ps.residual() == _dense_residual(ps)
    assert ps.residual().is_zero == (name == "all_zero")


@pytest.mark.parametrize("n", (2, 3))
def test_corrupted_curve_families_keep_a_nonzero_residual(n):
    # the curve families are m^r * P(m^4) with r = (0, 1, 1, 0, 1, 0); adding
    # m^(r+4) to one entry keeps that shape, so only a coefficient is wrong
    ps = solution_from_nP(n)
    assert ps.residual().is_zero
    for i, r in enumerate((0, 1, 1, 0, 1, 0)):
        entries = list(ps.polys())
        entries[i] = entries[i] + from_terms({r + 4: 1})
        assert {k % 4 for k, c in enumerate(entries[i].coeffs) if c} == {r}
        bent = ParamSolution(*entries)
        res = bent.residual()
        assert not res.is_zero, i
        assert res == _dense_residual(bent), i


@pytest.mark.parametrize("sign", ("minus", "plus"))
def test_3p_families_on_both_branches(sign):
    ps = solution_from_nP(3, sign)
    assert ps.residual().is_zero
    assert _dense_residual(ps).is_zero
    # a wrong coefficient on the stride and one off it
    for bend in (from_terms({4: 1}), from_terms({2: -1})):
        bent = ParamSolution(ps.x1, ps.x2 + bend, *ps.polys()[2:])
        assert bent.residual() == _dense_residual(bent) != IPoly(())


def test_eq21_residual_runs_every_product_compressed(monkeypatch):
    # eq21's entries are m^r E(m^4): the four pair products, their squares,
    # z1^2 and z2^2 run on a quarter of the coefficients; its A - z1^2 and
    # B - z2^2 are nonzero (their products cancel), with exponents 0 and
    # 2 mod 4, so the two outer products run on half; no product is dense
    lengths = []
    compressed = families._mul_coeffs

    def spy(a, b):
        lengths.append((len(a), len(b)))
        return compressed(a, b)

    def no_dense(self, other):
        raise AssertionError("dense product taken")

    eq21 = published_family("eq21")
    monkeypatch.setattr(families, "_mul_coeffs", spy)
    monkeypatch.setattr(IPoly, "__mul__", no_dense)
    assert eq21.residual().is_zero
    quarter = [(6, 7), (7, 7), (6, 7), (7, 7), (12, 12), (13, 13), (12, 12), (13, 13)]
    # then for A and for B: z^2 on a quarter, of 49 coefficients, and the
    # outer product on half, of 99
    assert lengths == quarter + [(13, 13), (50, 50)] * 2
