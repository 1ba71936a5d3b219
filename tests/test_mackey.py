"""Mackey functor layer: constructors, validator, box pairing, resolution."""

import random
from math import gcd

import pytest

from wittnorm import intlinalg
from wittnorm.abgroups import FgAbGroup, GroupHom, direct_sum_group
from wittnorm.intlinalg import IntMatrix
from wittnorm.mackey import (
    CyclicGroupSpec,
    CyclicMackeyFunctor,
    GModule,
    MackeyError,
    MackeyMap,
    augmentation,
    augmentation_cokernel,
    base_change_to_witt,
    box_counit,
    box_with_permutation,
    check_exact,
    constant_mackey,
    express_matrix_via,
    express_via,
    find_cyclic_iso,
    fixed_point_mackey,
    fixed_point_mackey_map,
    gmodule_direct_sum,
    inflate_mackey,
    mackey_cokernel,
    mackey_direct_sum,
    mackey_induce,
    mackey_kernel,
    mackey_restrict,
    orbit_gmodule,
    permutation_mackey,
    regular_gmodule,
    tambara_power_check,
    trivial_gmodule,
    witt_mackey,
    witt_mackey_resolution,
    zero_mackey,
)
from wittnorm.rings import ZModRing


def level_moduli(m):
    return [g.moduli for g in m.levels]


def test_witt_mackey_frozen():
    w = witt_mackey(2, 3)
    assert level_moduli(w) == [(2,), (4,), (8,), (16,)]
    for k in range(3):
        assert w.res[k].matrix.to_rows() == [[1]]
        assert w.tr[k].matrix.to_rows() == [[2]]
    w5 = witt_mackey(5, 1)
    assert level_moduli(w5) == [(5,), (25,)]


def test_validator_rejects_broken_maps():
    g = FgAbGroup([0])
    ident = GroupHom.identity(g)
    neg = GroupHom(g, g, IntMatrix.from_rows([[-1]]))
    spec = CyclicGroupSpec(2, 1)
    # generator acts by -1 upstairs but restriction is the identity
    with pytest.raises(MackeyError):
        CyclicMackeyFunctor(spec, [g, g], [ident], [GroupHom.scalar(g, 2)], [ident, neg])
    # transfer after restriction must be multiplication by p
    with pytest.raises(MackeyError):
        CyclicMackeyFunctor(spec, [g, g], [ident], [GroupHom.scalar(g, 3)], [ident, ident])
    # wrong level count
    with pytest.raises(MackeyError):
        CyclicMackeyFunctor(spec, [g], [], [], [ident])


def test_fixed_points_of_regular_module():
    fp = fixed_point_mackey(regular_gmodule(2, 2))
    assert [g.rank for g in fp.levels] == [4, 2, 1]
    assert all(g.torsion == () for g in fp.levels)
    fp3 = fixed_point_mackey(regular_gmodule(3, 1))
    assert [g.rank for g in fp3.levels] == [3, 1]


def test_permutation_equals_box_on_free_orbit():
    # two independent constructions of the same functor agree on the nose
    for p in (2, 3, 5):
        pm = permutation_mackey(p, 1, [0])
        bx = box_with_permutation(constant_mackey(p, 1), 0)
        assert pm == bx


def test_permutation_additive():
    one = permutation_mackey(2, 2, [0])
    other = permutation_mackey(2, 2, [1])
    both = permutation_mackey(2, 2, [0, 1])
    for k in range(3):
        expect = direct_sum_group([one.levels[k], other.levels[k]])
        assert both.levels[k] == expect


def test_box_with_trivial_orbit_is_identity():
    w = witt_mackey(2, 2)
    assert box_with_permutation(w, 2) == w
    fp = fixed_point_mackey(regular_gmodule(3, 1))
    assert box_with_permutation(fp, 1) == fp


def test_box_level_zero_rank():
    w = witt_mackey(2, 3)
    for k in range(4):
        bx = box_with_permutation(w, k)
        assert bx.levels[0].order() == w.levels[0].order() ** (2 ** (3 - k))


def tensor_with_orbit(p, n, h, mod):
    """Z[C_{p^n}/C_{p^h}] tensor mod, diagonal action; independent oracle."""
    m = p ** (n - h)
    summed = gmodule_direct_sum([trivial_gmodule(p, n, mod.carrier)] * m)
    total = summed.carrier
    d = mod.carrier.n
    # diagonal action: the generator shifts the coset index and acts on the
    # coefficient in every block
    data = {}
    for a in range(m):
        dst = (a + 1) % m
        for (i, j), v in mod.action.matrix.data.items():
            data[(dst * d + i, a * d + j)] = v
    act = GroupHom(total, total, IntMatrix(m * d, m * d, data))
    return GModule(CyclicGroupSpec(p, n), total, act)


@pytest.mark.parametrize("p,n,h", [(2, 1, 0), (2, 2, 0), (2, 2, 1), (3, 1, 0)])
def test_box_matches_tensor_oracle(p, n, h):
    # box pairing of a fixed-point functor against the orbit equals the
    # fixed points of the tensor product module, computed independently
    sign = GroupHom(FgAbGroup([4]), FgAbGroup([4]), IntMatrix.from_rows([[-1]]))
    vmod = GModule(CyclicGroupSpec(p, n), FgAbGroup([4]), sign if p == 2 else GroupHom.identity(FgAbGroup([4])))
    left = box_with_permutation(fixed_point_mackey(vmod), h)
    right = fixed_point_mackey(tensor_with_orbit(p, n, h, vmod))
    assert level_moduli(left) == level_moduli(right)


def test_augmentation_frozen_c2():
    eps = augmentation(2, 1)
    assert eps.components[0].matrix.to_rows() == [[1, 1]]
    assert eps.components[1].matrix.to_rows() == [[2]]


def test_section_then_counit_is_p_at_top():
    res = witt_mackey_resolution(2, 3)
    section, _, _, _ = res.maps
    eps = augmentation(2, 2)
    comp = eps.compose(section)
    n = 2
    assert comp.components[n].matrix.to_rows() == [[2 ** n]]
    # and p * counit composed with the section is p^(n+1) at the top
    comp2 = res.maps[2].compose(section)
    assert comp2.components[n].matrix.to_rows() == [[2 ** (n + 1)]]


def test_counit_on_nontrivial_orbit():
    w = witt_mackey(2, 2)
    for k in range(3):
        eps = box_counit(w, k)
        assert eps.source.levels[0].order() == w.levels[0].order() ** (2 ** (2 - k))


def test_q_functor_frozen():
    q = augmentation_cokernel(constant_mackey(2, 2))
    assert level_moduli(q) == [(), (2,), (4,)]
    q3 = augmentation_cokernel(constant_mackey(3, 1))
    assert level_moduli(q3) == [(), (3,)]


def test_q_functor_is_inflated_witt():
    for (p, n) in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        q = augmentation_cokernel(constant_mackey(p, n))
        infl = inflate_mackey(witt_mackey(p, n - 1)) if n >= 1 else None
        iso = find_cyclic_iso(q, infl)
        assert iso is not None and iso.is_isomorphism()


def test_q_functor_additive():
    single = augmentation_cokernel(constant_mackey(2, 2))
    double = augmentation_cokernel(mackey_direct_sum(constant_mackey(2, 2), constant_mackey(2, 2)))
    for k in range(3):
        assert double.levels[k] == direct_sum_group([single.levels[k], single.levels[k]])


def test_q_functor_of_free_permutation_vanishes_at_level_zero():
    q = augmentation_cokernel(permutation_mackey(2, 2, [0]))
    assert q.levels[0].is_trivial()


def test_base_change_frozen():
    bc = base_change_to_witt(constant_mackey(2, 1))
    assert level_moduli(bc) == [(2,), (4,)]
    assert base_change_to_witt(zero_mackey(3, 2)) == zero_mackey(3, 2) or all(
        g.is_trivial() for g in base_change_to_witt(zero_mackey(3, 2)).levels
    )


def test_base_change_of_constant_is_witt():
    for (p, n) in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        bc = base_change_to_witt(constant_mackey(p, n))
        iso = find_cyclic_iso(bc, witt_mackey(p, n))
        assert iso is not None and iso.is_isomorphism()


def test_resolution_exact_grid():
    for p in (2, 3):
        for r in (1, 2, 3):
            rep = witt_mackey_resolution(p, r).check()
            assert rep.ok, rep.failures()


def test_check_exact_reports_failure_position():
    res = witt_mackey_resolution(2, 2)
    shift = res.maps[1]
    rep = check_exact([shift, shift], left_exact=False, right_exact=False)
    assert not rep.ok
    pos, level, flag = rep.failures()[0]
    assert "image" in pos and not flag


def test_restrict_and_induce():
    w = witt_mackey(2, 3)
    r = mackey_restrict(w, 1)
    assert level_moduli(r) == [(2,), (4,)]
    fp = fixed_point_mackey(regular_gmodule(2, 1))
    ind = mackey_induce(fp, 3)
    assert ind.levels[0].rank == 2 * 4
    assert ind.n == 3


def test_inflate():
    infl = inflate_mackey(witt_mackey(2, 1))
    assert level_moduli(infl) == [(), (2,), (4,)]
    assert infl.n == 2


def test_kernel_and_cokernel_orders_multiply():
    w = witt_mackey(2, 2)
    doubling = MackeyMap(w, w, [GroupHom.scalar(g, 2) for g in w.levels])
    ker = mackey_kernel(doubling)
    cok = mackey_cokernel(doubling)
    for k in range(3):
        image_order = w.levels[k].order() // ker.levels[k].order()
        assert image_order * ker.levels[k].order() == w.levels[k].order()
        assert cok.levels[k].order() == w.levels[k].order() // image_order


def test_fixed_point_functoriality():
    reg = regular_gmodule(2, 1)
    triv = trivial_gmodule(2, 1, FgAbGroup([0]))
    total = GroupHom(reg.carrier, triv.carrier, IntMatrix.from_rows([[1, 1]]))
    induced = fixed_point_mackey_map(reg, triv, total)
    assert induced.source == fixed_point_mackey(reg)
    assert induced.target == fixed_point_mackey(triv)
    bad = GroupHom(reg.carrier, triv.carrier, IntMatrix.from_rows([[1, 0]]))
    with pytest.raises(MackeyError):
        fixed_point_mackey_map(reg, triv, bad)


def test_tambara_power_check():
    rep = tambara_power_check(ZModRing(8), 2)
    assert rep.ok and rep.pairs_checked == 64
    rep3 = tambara_power_check(ZModRing(3), 3)
    assert rep3.ok
    with pytest.raises(ValueError):
        tambara_power_check(__import__("wittnorm.rings", fromlist=["ZRing"]).ZRing(), 2)


def test_mackey_map_validation():
    w = witt_mackey(2, 1)
    # components are valid homs but do not commute with restriction
    with pytest.raises(MackeyError):
        MackeyMap(w, w, [GroupHom.identity(w.levels[0]), GroupHom.scalar(w.levels[1], 2)])
    # identity passes
    assert MackeyMap.identity(w).is_isomorphism()


def test_witt_mackey_matches_tower_orders():
    # cross-module check: levels of the Witt functor agree with the
    # truncation tower over the prime field
    from wittnorm.witt import cartier_tower, witt_fp_to_zmod

    tower = cartier_tower(ZModRing(2), 2, 3)
    w = witt_mackey(2, 2)
    for k in range(3):
        ring = tower.level(k + 1)
        assert len(list(ring.elements())) == w.levels[k].order()
        # the additive identification with Z/p^(k+1) matches the level group
        one = witt_fp_to_zmod(ring.one())
        assert one == 1


def _seeded_homs(seed):
    """Seeded homs between small groups, each with a few image elements."""
    rng = random.Random(seed)
    for src_mods, dst_mods in [((0, 0), (4,)), ((8, 0, 0), (2, 4, 0)),
                               ((4, 4, 0), (2, 4)), ((0,), (3, 9, 0))]:
        src, dst = FgAbGroup(src_mods), FgAbGroup(dst_mods)
        data = {}
        for j, s in enumerate(src.moduli):
            for i, t in enumerate(dst.moduli):
                if s == 0:
                    data[(i, j)] = rng.randint(-5, 5)
                elif t:  # s * entry must vanish mod t; torsion never reaches a free summand
                    data[(i, j)] = rng.randint(-5, 5) * (t // gcd(s, t))
        h = GroupHom(src, dst, IntMatrix(dst.n, src.n, data))
        images = [h.apply(src.random_element(rng, bound=6)) for _ in range(rng.randint(2, 5))]
        yield h, images


def test_express_matrix_via_matches_express_via():
    for h, images in _seeded_homs(11):
        cols = IntMatrix.from_columns(images, rows=h.dst.n)
        got = express_matrix_via(h, cols)
        want = IntMatrix.from_columns([express_via(h, c) for c in images], rows=h.src.n)
        assert got == want
        assert [h.apply(got.column(j)) for j in range(got.cols)] == images


def test_express_matrix_via_rejects_column_outside_image():
    h = GroupHom.scalar(FgAbGroup([4]), 2)
    assert express_via(h, (1,)) is None
    with pytest.raises(MackeyError):
        express_matrix_via(h, IntMatrix.from_columns([[2], [1], [0]]))


def test_express_matrix_via_factors_once(monkeypatch):
    calls = []
    snf = intlinalg.smith_normal_form

    def counted(m):
        calls.append((m.rows, m.cols))
        return snf(m)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    for h, images in _seeded_homs(5):
        calls.clear()
        express_matrix_via(h, IntMatrix.from_columns(images, rows=h.dst.n))
        assert len(calls) == 1
