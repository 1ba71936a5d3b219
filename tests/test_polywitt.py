"""Polynomial Witt vectors: Tate and norm pipelines, comparison, F/V."""

import os
import random
import sys

import pytest

from wittnorm.abgroups import FgAbGroup, GroupHom, present_quotient
from wittnorm.intlinalg import (
    IntMatrix,
    kernel_basis,
    kron,
    kron_power,
    random_unimodular,
    solve_int_matrix,
)
from wittnorm.mackey import (
    CyclicGroupSpec,
    constant_mackey,
    find_cyclic_iso,
    orbit_gmodule,
    regular_gmodule,
    witt_mackey,
)
from wittnorm.polywitt import (
    CapExceeded,
    ComparisonReport,
    FpVectorSpace,
    FreeLift,
    PolyWittResult,
    canonical_lift,
    compare_pipelines,
    comparison_grid,
    conjugate_gmodule,
    descend_map,
    fixed_mod_norm,
    fv_on_norm,
    inflate_action,
    lift_independence_report,
    norm_over_W,
    norm_over_Z,
    rotation_matrix,
    tate_h0,
    tate_polywitt,
    tensor_power_action,
)
from wittnorm.traces import NormTraceTheory

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import oracles  # noqa: E402
from test_abgroups import order_histogram  # noqa: E402


def test_tate_h0_frozen():
    # the orbit of the whole group is Z with the trivial action
    assert tate_h0(orbit_gmodule(2, 1, 1)) == FgAbGroup([2])
    assert tate_h0(regular_gmodule(2, 1)).is_trivial()
    assert tate_h0(orbit_gmodule(2, 2, 2)) == FgAbGroup([4])


def test_tensor_power_action_swap():
    mod = tensor_power_action(FreeLift(2), CyclicGroupSpec(2, 1))
    # basis e00, e01, e10, e11; the rotation swaps the middle two
    assert mod.action.matrix.to_rows() == [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]
    triv = tensor_power_action(FreeLift(1), CyclicGroupSpec(3, 2))
    assert triv.action.matrix.to_rows() == [[1]]


def test_tensor_power_shift_order():
    m = 4
    mod = tensor_power_action(FreeLift(2), CyclicGroupSpec(2, 2))
    a = mod.action.matrix
    ident = IntMatrix.identity(a.rows)
    power = a
    for _ in range(m // 2 - 1):
        power = a * power
    assert power != ident  # order is exactly m, not m/p
    for _ in range(m // 2):
        power = a * power
    assert power == ident


def test_tensor_power_cap():
    with pytest.raises(CapExceeded):
        tensor_power_action(FreeLift(2), CyclicGroupSpec(2, 2), cap=10)


def test_inflate_action():
    mod = tensor_power_action(FreeLift(2), CyclicGroupSpec(2, 1))
    big = inflate_action(mod)
    assert big.spec == CyclicGroupSpec(2, 2)
    assert big.action.matrix == mod.action.matrix


def test_tate_polywitt_one_dimensional():
    for p in (2, 3, 5):
        for r in (1, 2, 3):
            res = tate_polywitt(FpVectorSpace(p, 1), r)
            assert res.group == FgAbGroup([p ** r])
            assert res.provenance == "tate"


def test_tate_polywitt_truncation_one():
    for (p, d) in [(2, 3), (3, 2), (5, 2)]:
        res = tate_polywitt(FpVectorSpace(p, d), 1)
        assert res.group == FgAbGroup([p] * d)


def brute_force_headline_histogram():
    """Order histogram of the headline group, no lattice algebra involved.

    Fixed vectors of the swap on Z^4 are spanned by k1 = e00,
    k2 = e01 + e10, k3 = e11 (written down by hand).  The full norm is
    2(1 + swap), whose image is spanned by 4k1, 2k2, 4k3.  The quotient
    has exponent dividing 4, so enumerate K/4K and quotient by the image
    classes directly.
    """
    image_classes = set()
    gens = [(0, 2, 0)]  # 2k2 mod 4; 4k1 and 4k3 are zero mod 4
    # subgroup generated inside (Z/4)^3
    frontier = [(0, 0, 0)]
    seen = {(0, 0, 0)}
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % 4 for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    subgroup = seen
    cosets = {}
    for a in range(4):
        for b in range(4):
            for c in range(4):
                key = min(tuple((x + s) % 4 for x, s in zip((a, b, c), h)) for h in subgroup)
                cosets.setdefault(key, (a, b, c))
    hist = {}
    for rep in cosets.values():
        order = 1
        cur = rep
        while any(v % 4 for v in cur) and cur not in subgroup:
            cur = tuple((x + y) % 4 for x, y in zip(cur, rep))
            order += 1
        hist[order] = hist.get(order, 0) + 1
    return hist


def test_headline_instance_with_brute_force_oracle():
    res = tate_polywitt(FpVectorSpace(2, 2), 2)
    assert res.group == FgAbGroup([2, 4, 4])
    assert order_histogram(res.group) == brute_force_headline_histogram()


def test_norm_over_Z_frozen():
    nz = norm_over_Z(FreeLift(2), 2, 2)
    assert [g.rank for g in nz.levels] == [4, 3]
    assert all(g.torsion == () for g in nz.levels)
    # one-dimensional lift gives the constant functor
    assert norm_over_Z(FreeLift(1), 2, 2) == constant_mackey(2, 1)
    # truncation one gives a single level
    single = norm_over_Z(FreeLift(3), 5, 1)
    assert single.n == 0 and single.levels[0].rank == 3


def test_norm_over_W_one_dimensional_is_witt():
    for (p, r) in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        w = norm_over_W(FpVectorSpace(p, 1), r)
        iso = find_cyclic_iso(w, witt_mackey(p, r - 1))
        assert iso is not None and iso.is_isomorphism()


def test_norm_top_level_exponent():
    for (p, d, r) in [(2, 2, 2), (2, 2, 3), (3, 2, 2)]:
        top = norm_over_W(FpVectorSpace(p, d), r).levels[r - 1]
        assert top.rank == 0 and p ** r % top.exponent() == 0


def test_polywitt_result_validation():
    with pytest.raises(ValueError):
        PolyWittResult(2, 2, FgAbGroup([0]), "tate")
    with pytest.raises(ValueError):
        PolyWittResult(2, 1, FgAbGroup([4]), "tate")


def test_compare_pipelines_samples():
    rep = compare_pipelines(FpVectorSpace(2, 2), 2)
    assert rep.passed and rep.tate == (2, 4, 4) and rep.norm == (2, 4, 4)
    rep = compare_pipelines(FpVectorSpace(3, 1), 2)
    assert rep.passed and rep.tate == (9,)
    rep = compare_pipelines(FpVectorSpace(5, 2), 1)
    assert rep.passed and rep.tate == (5, 5)
    d = rep.to_dict()
    assert d["pass"] is True and "ms" not in d
    assert "ms" in rep.to_dict(with_timings=True)


def test_comparison_grid_contents():
    grid = comparison_grid()
    assert (2, 3, 3) in grid          # 81 dimensions, inside the cap
    assert (2, 3, 4) not in grid      # would need 3^8 = 6561 > 4096
    assert (3, 2, 2) in grid and (5, 1, 3) in grid


def test_fv_reports():
    rep, one, degenerate = (fv_on_norm(space, r, norm_over_W(space, r)) for space, r in
                            [(FpVectorSpace(2, 2), 2), (FpVectorSpace(3, 1), 2), (FpVectorSpace(2, 3), 1)])
    assert rep.ok
    names = [name for name, _ in rep.checks]
    assert any("transfer after restriction" in n for n in names)
    assert any("restriction after transfer" in n for n in names)
    assert one.ok and any("Witt functor" in n for n, _ in one.checks)
    assert degenerate.ok


def test_lift_independence():
    flags = lift_independence_report(FpVectorSpace(2, 2), 2, samples=8, seed=3)
    assert len(flags) == 8 and all(flags)
    flags = lift_independence_report(FpVectorSpace(3, 2), 2, samples=4, seed=7)
    assert all(flags)


def test_tensor_form_conjugation_is_invisible():
    # the rotation commutes with diagonal tensor maps, so a change of
    # lift basis does not move the action matrix at all: this is the
    # reason the construction cannot see the choice of lift
    rot = tensor_power_action(FreeLift(2), CyclicGroupSpec(2, 1))
    u = IntMatrix.from_rows([[1, 1], [0, 1]])
    u_inv = IntMatrix.from_rows([[1, -1], [0, 1]])
    conj = conjugate_gmodule(rot, kron_power(u, 2), kron_power(u_inv, 2))
    assert conj.action.matrix == rot.action.matrix


def test_general_conjugation_changes_matrix_but_not_tate():
    rot = inflate_action(tensor_power_action(FreeLift(2), CyclicGroupSpec(2, 1)))
    u = IntMatrix.from_rows(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    u_inv = IntMatrix.from_rows(
        [[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    conj = conjugate_gmodule(rot, u, u_inv)
    assert conj.action.matrix != rot.action.matrix
    assert tate_h0(conj) == tate_h0(rot)


def test_conjugation_rejects_a_wrong_inverse():
    rot = inflate_action(tensor_power_action(FreeLift(2), CyclicGroupSpec(2, 1)))
    u, u_inv = random_unimodular(4, random.Random(5))
    assert conjugate_gmodule(rot, u, u_inv).action.matrix.rows == 4
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    for base_change, inverse in [
        (u, u),                                             # not the inverse
        (u, u_inv.scale(-1)),                               # off by a sign
        (IntMatrix.from_rows([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
         IntMatrix.identity(4)),                            # not unimodular
        (IntMatrix.from_rows([[1, 0, 0, 0]]), IntMatrix.from_rows([[1], [0], [0], [0]])),
        (kron_power(swap, 2), IntMatrix.identity(3)),       # wrong shape
    ]:
        with pytest.raises(ValueError):
            conjugate_gmodule(rot, base_change, inverse)


def test_functoriality_composite_is_identity():
    incl = IntMatrix.from_rows([[1], [0]])
    proj = IntMatrix.from_rows([[1, 0]])
    for (p, r) in [(2, 2), (3, 2)]:
        theory = NormTraceTheory(p, r)
        f, g = theory.morphism(incl), theory.morphism(proj)
        comp = g.compose(f)
        assert comp.src == FgAbGroup([p ** r])
        assert comp == GroupHom.identity(comp.src)


def _three_step_tate(action, order):
    """The norm N and the Tate group by kernel basis, solve and quotient."""
    n = action.rows
    ident = IntMatrix.identity(n)
    fixed = kernel_basis(action - ident)
    norm = power = ident
    for _ in range(order - 1):
        power = action * power
        norm = norm + power
    coords = solve_int_matrix(fixed, norm)
    assert coords is not None
    return norm, present_quotient(fixed.cols, coords).group


def _tate_oracle_cases():
    """(action, order) pairs: rotation modules and their seeded conjugates,
    orbit and regular modules, and the trace theory's rotations."""
    rng = random.Random(2510)
    for p, d, r in [(2, 2, 2), (2, 4, 3), (3, 2, 2), (3, 3, 2)]:
        mod = inflate_action(tensor_power_action(FreeLift(d), CyclicGroupSpec(p, r - 1)))
        yield mod.action.matrix, mod.spec.order()
        for _ in range(8):
            conj = conjugate_gmodule(mod, *random_unimodular(mod.carrier.n, rng))
            yield conj.action.matrix, conj.spec.order()
    for p, n, h in [(2, 1, 1), (2, 2, 0), (2, 2, 1), (2, 3, 1), (3, 1, 0), (3, 2, 1)]:
        for mod in (orbit_gmodule(p, n, h), regular_gmodule(p, n)):
            yield mod.action.matrix, mod.spec.order()
    for p, r in [(2, 2), (2, 3), (3, 2)]:
        m = p ** (r - 1)
        for rank in (1, 2, 3):
            if rank ** m <= 256:
                yield rotation_matrix(rank, m), p * m


def test_fixed_mod_norm_matches_three_step_oracle():
    # one Smith form of (A - I)^T against kernel basis, solve and quotient
    for action, order in _tate_oracle_cases():
        fixed, coord, pres = fixed_mod_norm(action, order)
        norm, group = _three_step_tate(action, order)
        assert pres.group == group
        assert action * fixed == fixed
        assert coord * fixed == IntMatrix.identity(fixed.cols)
        assert fixed * pres.relations == norm


def test_fixed_mod_norm_rejects_an_order_the_action_misses():
    # A^order != I: the norm image leaves the fixed lattice
    for action, order in [(rotation_matrix(2, 2), 3), (rotation_matrix(2, 3), 4),
                          (rotation_matrix(3, 2), 1)]:
        with pytest.raises(AssertionError, match="norm image must lie in the fixed lattice"):
            fixed_mod_norm(action, order)


def test_descend_map_rejects_a_map_off_the_fixed_lattices():
    # the swap of the two factors of Z^2 (x) Z^2 commutes with the rotation
    # and descends; moving e00 to e01 does not keep the fixed lattice
    data = fixed_mod_norm(rotation_matrix(2, 2), 4)
    swap = kron_power(IntMatrix.from_rows([[0, 1], [1, 0]]), 2)
    assert descend_map(swap, data, data).src == data[2].group
    shear = IntMatrix.identity(4) + IntMatrix(4, 4, {(1, 0): 1})
    with pytest.raises(AssertionError, match="equivariant map must preserve fixed lattices"):
        descend_map(shear, data, data)


def test_not_additive():
    whole = tate_polywitt(FpVectorSpace(2, 2), 2).group.order()
    piece = tate_polywitt(FpVectorSpace(2, 1), 2).group.order()
    assert whole == 32 and piece * piece == 16
    assert whole != piece * piece


def test_kron():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    k = kron(a, b)
    assert k.to_rows() == [
        [0, 1, 0, 2],
        [1, 0, 2, 0],
        [0, 3, 0, 4],
        [3, 0, 4, 0],
    ]


def test_pipelines_match_orbit_count_at_dimension_1296():
    # compare_pipelines runs tate_polywitt and the norm pipeline
    rep = compare_pipelines(FpVectorSpace(2, 6), 3)
    assert oracles.check_factors(2, 6, 3, rep.tate) == []
    assert oracles.check_factors(2, 6, 3, rep.norm) == []
