"""Exchange-axiom checks for the cyclic trace functors."""

import pytest

from test_intlinalg import entries
from wittnorm.abgroups import FgAbGroup, GroupHom
from wittnorm.intlinalg import IntMatrix
from wittnorm.polywitt import CapExceeded, FpVectorSpace, norm_over_W
from wittnorm.traces import (
    NormTraceTheory,
    OrbitTraceTheory,
    RawPowerTraceTheory,
    check_acyclicity,
    check_involution,
    check_naturality,
    check_unity,
    negative_raw_power,
    polywitt_trace,
    run_axiom_checks,
)


def test_orbit_values_frozen():
    # orbits of cyclic rotation on tuples over a rank-d basis
    th = OrbitTraceTheory(2, 2, rank_cap=2)
    assert th.value(1).group == FgAbGroup([2])
    assert th.value(2).group == FgAbGroup([2, 2, 2])
    th3 = OrbitTraceTheory(3, 2, rank_cap=2)
    assert th3.value(2).group == FgAbGroup([2, 2, 2, 2])
    free = OrbitTraceTheory(2, 0, rank_cap=2)
    assert free.value(2).group == FgAbGroup([0, 0, 0])


def test_orbit_projection_respects_rotation():
    th = OrbitTraceTheory(2, 2, rank_cap=2)
    pres = th.value(2)
    # basis order 00, 01, 10, 11; rotation swaps the middle two
    assert pres.project_vec([0, 1, 0, 0]) == pres.project_vec([0, 0, 1, 0])
    assert pres.project_vec([1, 0, 0, 0]) != pres.project_vec([0, 0, 0, 1])
    for k in range(pres.group.n):
        elt = tuple(1 if i == k else 0 for i in range(pres.group.n))
        assert pres.project_vec(pres.lift_elt(elt)) == elt


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("char", [0, 2, 3])
def test_orbit_axioms_exhaustive(m, char):
    th = OrbitTraceTheory(m, char, rank_cap=2)
    for rep in run_axiom_checks(th, samples=8):
        assert rep.ok, (m, char, rep)


def test_unity_checks_every_rank():
    rep = check_unity(OrbitTraceTheory(2, 2, rank_cap=2))
    assert rep.ok and rep.checked == 2
    rep = check_acyclicity(OrbitTraceTheory(2, 2, rank_cap=2))
    assert rep.ok and rep.checked == 8


def test_raw_power_fails_unity_and_involution():
    raw = RawPowerTraceTheory(2, 2, rank_cap=2)
    assert not check_unity(raw).ok
    assert not check_involution(raw).ok
    # the triple rotation and the exchange square still hold on the nose
    assert check_acyclicity(raw).ok
    assert check_naturality(raw, samples=8).ok


@pytest.mark.parametrize("m", [2, 3])
def test_negative_raw_power_finds_witness(m):
    rep = negative_raw_power(m, 2, rank_cap=2)
    assert rep.passed and rep.found == (1, 2)
    # rank one is rotation-fixed, so (1, 1) cannot separate anything
    assert rep.degenerate == ((1, 1),)


def test_negative_raw_power_vacuous_at_m_one():
    rep = negative_raw_power(1, 2, rank_cap=2)
    assert rep.vacuous and rep.passed and rep.found is None


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_norm_theory_line_value(p, r):
    assert NormTraceTheory(p, r).value(1).group == FgAbGroup([p ** r])


def test_norm_theory_matches_mackey_pipeline():
    th = NormTraceTheory(2, 2, rank_cap=3)
    assert th.value(2).group == FgAbGroup([2, 4, 4])
    for d in (1, 2, 3):
        want = norm_over_W(FpVectorSpace(2, d), 2).levels[1]
        assert th.value(d).group == want


def test_norm_theory_morphism_functorial():
    th = NormTraceTheory(2, 2, rank_cap=2)
    f = IntMatrix(2, 2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    g = IntMatrix(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1})
    fg = f * g
    # the integer product has an entry of 2; reduce to the 0..p-1 lift
    assert 2 in entries(fg).values()
    red = IntMatrix(2, 2, {k: v % 2 for k, v in entries(fg).items() if v % 2})
    assert th.morphism(f).compose(th.morphism(g)) == th.morphism(red)
    assert th.morphism(IntMatrix.identity(2)) == GroupHom.identity(th.value(2).group)


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 2)])
def test_polywitt_trace_descends(p, r):
    data = polywitt_trace(p, r, rank_cap=2, samples=8)
    assert data.m == p ** (r - 1)
    assert data.descended
    assert [rep.axiom for rep in data.reports] == [
        "unity", "acyclicity", "involution", "naturality"]
    assert all(rep.ok for rep in data.reports)


def test_tensor_cap_enforced():
    with pytest.raises(CapExceeded):
        OrbitTraceTheory(13, 2, rank_cap=2).value(2)
    with pytest.raises(CapExceeded):
        NormTraceTheory(2, 4).value(3)  # dimension 3^8 = 6561
