"""Mackey functor layer: constructors, validator, box pairing, resolution."""

import json
import random
from math import gcd

import pytest

from test_intlinalg import entries
from wittnorm import abgroups, intlinalg, mackey, polywitt
from wittnorm.abgroups import (
    FgAbGroup,
    GroupHom,
    Presentation,
    _block_matrix,
    direct_sum_presentation,
    hom_cokernel,
    hom_kernel,
    induced_hom,
)
from wittnorm.intlinalg import IntMatrix, matrix_mod
from wittnorm.mackey import (
    _functor_on_subgroups,
    CyclicGroupSpec,
    CyclicMackeyFunctor,
    GModule,
    MackeyError,
    MackeyMap,
    WittResolution,
    augmentation,
    augmentation_cokernel,
    base_change_to_witt,
    box_with_permutation,
    check_exact,
    constant_mackey,
    express_matrix_via,
    express_via,
    find_cyclic_iso,
    fixed_point_mackey,
    fixed_point_witt_mackey,
    gmodule_direct_sum,
    hom_power,
    inflate_mackey,
    mackey_cokernel,
    mackey_direct_sum,
    mackey_induce,
    mackey_kernel,
    mackey_restrict,
    orbit_gmodule,
    permutation_mackey,
    regular_gmodule,
    translate_sum,
    validate_mackey,
    witt_mackey,
    zero_mackey,
)
from wittnorm.polywitt import (
    FpVectorSpace,
    FreeLift,
    comparison_grid,
    conjugate_gmodule,
    inflate_action,
    norm_over_W,
    norm_over_Z,
    tensor_power_action,
)
from wittnorm.rings import ZModRing
from wittnorm.serialize import dumps_value, mackey_json


def level_moduli(m):
    return [g.moduli for g in m.levels]


def kernel_fixed_points(mod):
    """Fixed points by elimination, the oracle for `fixed_point_mackey`.

    Level k is the kernel of action^(p^(n-k)) - 1 and every structure map
    is solved through the inclusions; the carrier may have torsion and the
    action need not permute a basis.  Returns the functor and the
    inclusions of its levels into the carrier.
    """
    p, n = mod.spec.p, mod.spec.n
    ident = GroupHom.identity(mod.carrier)
    incls = [hom_kernel(hom_power(mod.action, p ** (n - k)) - ident) for k in range(n + 1)]
    traces = [translate_sum(hom_power(mod.action, p ** (n - k - 1)), p).matrix for k in range(n)]
    functor = _functor_on_subgroups(mod.spec, incls, [None] * n, traces, [mod.action.matrix] * (n + 1))
    return functor, incls


def box_counit(m, k=0):
    """The counit box_with_permutation(m, k) -> m by the block coset
    construction, the oracle for `augmentation` and the Q construction.

    On the copy indexed by the a-th coset representative at level j it is
    the transfer from level min(j, k) composed with the a-th power of the
    generator action, descended by `induced_hom` from the copies'
    presentations (recomputed; `direct_sum_presentation` is deterministic)
    to the canonical one of level j.
    """
    p, n = m.p, m.n
    comps = []
    for j, g in enumerate(m.levels):
        lo, copies = min(j, k), p ** (n - max(j, k))
        pres, ranges = direct_sum_presentation([m.levels[lo]] * copies)
        tr_up = wpow = GroupHom.identity(m.levels[lo])
        for t in m.tr[lo:j]:
            tr_up = t.compose(tr_up)
        blocks = {}
        for a in range(copies):
            blocks[(0, a)] = tr_up.compose(wpow).matrix
            wpow = m.weyl[lo].compose(wpow)
        ident = IntMatrix.identity(g.n)
        target = Presentation(g.n, g.relation_matrix(), g, matrix_mod(ident, g.moduli), ident)
        comps.append(induced_hom(pres, target, _block_matrix([(0, g.n)], ranges, blocks)))
    return MackeyMap(box_with_permutation(m, k), m, comps)


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


def test_permutation_equals_box_of_constant():
    # two independent constructions of the same functor agree on the nose,
    # and the counit sends each orbit sum to its size
    cases = 0
    for p, top in [(2, 3), (3, 3), (5, 2)]:
        for n in range(top + 1):
            const = constant_mackey(p, n)
            for k in range(n + 1):
                pm = permutation_mackey(p, n, [k])
                assert box_with_permutation(const, k) == pm, (p, n, k)
                eps = box_counit(const, k)
                for j, c in enumerate(eps.components):
                    size = p ** max(0, j - k)
                    assert c.matrix.to_rows() == [[size] * pm.levels[j].n], (p, n, k, j)
                cases += 1
    assert cases == 26


def test_resolution_maps_match_the_counit_oracle():
    # the augmentation and p times it, built from orbit sums, are the
    # counit of the box pairing on the constant functor
    for p, n in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]:
        eps = box_counit(constant_mackey(p, n), 0)
        assert augmentation(p, n) == eps, (p, n)
        assert WittResolution(p, n + 1).maps[2] == eps.scale(p), (p, n)


def test_resolution_builds_no_presentation(monkeypatch):
    calls = []
    for module in (abgroups, mackey):
        for name in ("induced_hom", "direct_sum_presentation"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    WittResolution(2, 3)
    assert calls == []
    # the counters see the block coset construction
    box_with_permutation(constant_mackey(2, 2), 0)
    assert "induced_hom" in calls and "direct_sum_presentation" in calls


def test_permutation_additive():
    one = permutation_mackey(2, 2, [0])
    other = permutation_mackey(2, 2, [1])
    both = permutation_mackey(2, 2, [0, 1])
    for k in range(3):
        expect = direct_sum_presentation([one.levels[k], other.levels[k]])[0].group
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
    total = direct_sum_presentation([mod.carrier] * m)[0].group
    d = mod.carrier.n
    # diagonal action: the generator shifts the coset index and acts on the
    # coefficient in every block
    data = {}
    for a in range(m):
        dst = (a + 1) % m
        for (i, j), v in entries(mod.action.matrix).items():
            data[(dst * d + i, a * d + j)] = v
    act = GroupHom(total, total, IntMatrix(m * d, m * d, data))
    return GModule(CyclicGroupSpec(p, n), total, act)


def test_free_direct_sum_is_block_diagonal():
    # the sum of free carriers needs no presentation; the Smith-form path
    # it replaced is the oracle
    mods = [orbit_gmodule(2, 2, h) for h in (1, 0, 2, 0)]
    summed = gmodule_direct_sum(mods)
    pres, ranges = direct_sum_presentation([m.carrier for m in mods])
    amb = _block_matrix(ranges, ranges, {(t, t): m.action.matrix for t, m in enumerate(mods)})
    assert summed.carrier == pres.group
    assert summed.action == induced_hom(pres, pres, amb)
    with pytest.raises(ValueError, match="free carriers"):
        gmodule_direct_sum([mods[0], _sign_module(2, 2)])


@pytest.mark.parametrize("p,n,h", [(2, 1, 0), (2, 2, 0), (2, 2, 1), (3, 1, 0)])
def test_box_matches_tensor_oracle(p, n, h):
    # box pairing of a fixed-point functor against the orbit equals the
    # fixed points of the tensor product module, computed independently
    vmod = _sign_module(p, n)
    left = box_with_permutation(kernel_fixed_points(vmod)[0], h)
    right = kernel_fixed_points(tensor_with_orbit(p, n, h, vmod))[0]
    assert level_moduli(left) == level_moduli(right)


def test_augmentation_frozen_c2():
    eps = augmentation(2, 1)
    assert eps.components[0].matrix.to_rows() == [[1, 1]]
    assert eps.components[1].matrix.to_rows() == [[2]]


def test_section_then_counit_is_p_at_top():
    res = WittResolution(2, 3)
    section, _, _, _ = res.maps
    eps = augmentation(2, 2)
    n = 2
    assert eps.components[n].compose(section.components[n]).matrix.to_rows() == [[2 ** n]]
    # and p * counit composed with the section is p^(n+1) at the top
    paug = res.maps[2].components[n]
    assert paug.compose(section.components[n]).matrix.to_rows() == [[2 ** (n + 1)]]


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
        assert double.levels[k] == direct_sum_presentation([single.levels[k]] * 2)[0].group


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
            rep = WittResolution(p, r).check()
            assert rep.ok, rep.failures()


def test_check_exact_reports_failure_position():
    res = WittResolution(2, 2)
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


# each derived functor's levels and structure maps, generators included
DERIVED_FROZEN = {
    "kernel": (
        lambda: mackey_kernel(augmentation(2, 2)),
        '{"kind":"cyclic-mackey-functor","levels":[["0","0","0"],["0"],[]],"n":"2","p":"2",'
        '"res":[[["1"],["-1"],["1"]],[[]]],"tr":[[["1","0","1"]],[]],'
        '"weyl":[[["-1","-1","-1"],["1","0","0"],["0","1","0"]],[["-1"]],[]]}',
    ),
    "cokernel": (
        lambda: mackey_cokernel(augmentation(2, 2)),
        '{"kind":"cyclic-mackey-functor","levels":[[],["2"],["4"]],"n":"2","p":"2",'
        '"res":[[],[["1"]]],"tr":[[[]],[["2"]]],"weyl":[[],[["1"]],[["1"]]]}',
    ),
    "witt base change": (
        lambda: base_change_to_witt(constant_mackey(2, 2)),
        '{"kind":"cyclic-mackey-functor","levels":[["2"],["4"],["8"]],"n":"2","p":"2",'
        '"res":[[["1"]],[["1"]]],"tr":[[["2"]],[["2"]]],"weyl":[[["1"]],[["1"]],[["1"]]]}',
    ),
    "direct sum": (
        lambda: mackey_direct_sum(witt_mackey(2, 1), constant_mackey(2, 1)),
        '{"kind":"cyclic-mackey-functor","levels":[["2","0"],["4","0"]],"n":"1","p":"2",'
        '"res":[[["1","0"],["0","1"]]],"tr":[[["2","0"],["0","2"]]],'
        '"weyl":[[["1","0"],["0","1"]],[["1","0"],["0","1"]]]}',
    ),
    "induction": (
        lambda: mackey_induce(constant_mackey(2, 1), 2),
        '{"kind":"cyclic-mackey-functor","levels":[["0","0"],["0","0"],["0"]],"n":"2","p":"2",'
        '"res":[[["1","0"],["0","1"]],[["1"],["1"]]],"tr":[[["2","0"],["0","2"]],[["1","1"]]],'
        '"weyl":[[["0","1"],["1","0"]],[["0","1"],["1","0"]],[["1"]]]}',
    ),
    "fixed points of an orbit": (
        lambda: fixed_point_mackey(orbit_gmodule(3, 2, 1)),
        '{"kind":"cyclic-mackey-functor","levels":[["0","0","0"],["0","0","0"],["0"]],"n":"2","p":"3",'
        '"res":[[["1","0","0"],["0","1","0"],["0","0","1"]],[["1"],["1"],["1"]]],'
        '"tr":[[["3","0","0"],["0","3","0"],["0","0","3"]],[["1","1","1"]]],'
        '"weyl":[[["0","0","1"],["1","0","0"],["0","1","0"]],'
        '[["0","0","1"],["1","0","0"],["0","1","0"]],[["1"]]]}',
    ),
}


@pytest.mark.parametrize("name", sorted(DERIVED_FROZEN))
def test_derived_functor_maps_frozen(name):
    build, expected = DERIVED_FROZEN[name]
    doc = json.loads(dumps_value(mackey_json(build())))
    got = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert got == expected


def tambara_power_check(ring, p, pair_limit=8192, seed=0):
    """For constant coefficients over C_p: the p-th power map is a norm.

    Checks multiplicativity, unitality, and that the additivity defect
    N(a+b) - N(a) - N(b) lies in the transfer image p*k.  Returns
    (ok, pairs checked, failures).
    """
    if not getattr(ring, "is_finite", False):
        raise ValueError("norm check needs finite coefficients")

    def npow(x):
        out = ring.one()
        for _ in range(p):
            out = ring.mul(out, x)
        return out

    elems = list(ring.elements())
    transfer_image = {ring.mul(ring.from_int(p), t) for t in elems}
    failures = []
    if npow(ring.one()) != ring.one():
        failures.append(("unit", ring.one()))
    if npow(ring.zero()) != ring.zero():
        failures.append(("zero", ring.zero()))
    pairs = [(a, b) for a in elems for b in elems]
    if len(pairs) > pair_limit:
        rng = random.Random(seed)
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(pair_limit)]
    for a, b in pairs:
        if npow(ring.mul(a, b)) != ring.mul(npow(a), npow(b)):
            failures.append(("multiplicative", (a, b)))
        defect = ring.sub(ring.sub(npow(ring.add(a, b)), npow(a)), npow(b))
        if defect not in transfer_image:
            failures.append(("additivity defect outside transfer image", (a, b)))
    return not failures, len(pairs), failures


def test_tambara_power_check():
    assert tambara_power_check(ZModRing(8), 2)[:2] == (True, 64)
    assert tambara_power_check(ZModRing(3), 3)[0]
    with pytest.raises(ValueError):
        tambara_power_check(__import__("wittnorm.rings", fromlist=["ZRing"]).ZRing(), 2)


def test_mackey_map_validation():
    w = witt_mackey(2, 1)
    # components are valid homs but do not commute with restriction
    with pytest.raises(MackeyError):
        MackeyMap(w, w, [GroupHom.identity(w.levels[0]), GroupHom.scalar(w.levels[1], 2)])
    # identity passes
    assert MackeyMap(w, w, [GroupHom.identity(g) for g in w.levels]).is_isomorphism()


def test_witt_mackey_matches_tower_orders():
    # cross-module check: levels of the Witt functor agree with the
    # truncation tower over the prime field
    from test_witt import witt_fp_to_zmod
    from wittnorm.witt import CartierTower

    tower = CartierTower(ZModRing(2), 2, 3)
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
        columns = [[got.entry(i, j) for i in range(got.rows)] for j in range(got.cols)]
        assert [h.apply(col) for col in columns] == images


def test_express_matrix_via_rejects_column_outside_image():
    h = GroupHom.scalar(FgAbGroup([4]), 2)
    assert express_via(h, (1,)) is None
    with pytest.raises(MackeyError):
        express_matrix_via(h, IntMatrix.from_columns([[2], [1], [0]]))
    with pytest.raises(ValueError):
        express_matrix_via(h, IntMatrix.from_columns([[2, 0]]))


def test_express_matrix_via_factors_once(monkeypatch):
    calls = []
    snf = intlinalg.smith_normal_form

    def counted(m, **transforms):
        calls.append((m.rows, m.cols))
        return snf(m, **transforms)

    monkeypatch.setattr(intlinalg, "smith_normal_form", counted)
    for h, images in _seeded_homs(5):
        calls.clear()
        express_matrix_via(h, IntMatrix.from_columns(images, rows=h.dst.n))
        assert len(calls) == 1


def _oracle_preimage(h, elt):
    """A preimage of elt under h solved column by column off smith_normal_form."""
    a = h.matrix.hstack(h.dst.relation_matrix())
    u, d, v, _ = intlinalg.smith_normal_form(a, v=True)
    ub = u.apply(list(h.dst.normalize(elt)))
    y = [0] * a.cols
    for i in range(a.rows):
        di = d.entry(i, i) if i < a.cols else 0
        if di:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i]:
            return None
    return h.src.normalize(v.apply(y)[: h.src.n])


def test_express_via_matches_per_column_oracle():
    rng = random.Random(17)
    outside = 0
    for seed in range(6):
        for h, images in _seeded_homs(seed):
            elts = images + [h.dst.random_element(rng, bound=6) for _ in range(2)]
            want = [_oracle_preimage(h, e) for e in elts]
            assert [express_via(h, e) for e in elts] == want
            cols = IntMatrix.from_columns(elts, rows=h.dst.n)
            if any(w is None for w in want):
                outside += 1
                with pytest.raises(MackeyError):
                    express_matrix_via(h, cols)
                continue
            got = express_matrix_via(h, cols)
            expected = IntMatrix.from_columns(want, rows=h.src.n)
            assert (got.rows, got.cols) == (expected.rows, expected.cols)
            assert list(entries(got).items()) == list(entries(expected).items())
    assert outside


def _sign_module(p, n):
    """Z/4 with the generator acting by -1 (by 1 for odd p): no free carrier."""
    g = FgAbGroup([4])
    return GModule(CyclicGroupSpec(p, n), g, GroupHom(g, g, IntMatrix.from_rows([[-1 if p == 2 else 1]])))


def _shuffled(mod, seed):
    """The module with its basis permuted by a seeded permutation."""
    size = mod.carrier.n
    order = list(range(size))
    random.Random(seed).shuffle(order)
    perm = IntMatrix(size, size, {(order[j], j): 1 for j in range(size)})
    return conjugate_gmodule(mod, perm, perm.transpose())


def _orbit_multisets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((2, 3))
        n = rng.randint(1, 3 if p == 2 else 2)
        yield p, n, [rng.randint(0, n) for _ in range(rng.randint(1, 4))]


def _permutation_modules():
    """(name, module, bases agree): the modules of every `mackey` CLI kind
    and suite instance, the tensor powers of the compare grid plus
    (2, 4, 3), seeded orbit multisets and shuffled bases.  The orbit-sum
    basis is the kernel basis for single orbits and for distinct orbits in
    increasing order."""
    for p, n in [(2, 2), (3, 1), (2, 3), (3, 2)]:
        for h in range(n + 1):
            yield f"orbit p={p} n={n} h={h}", orbit_gmodule(p, n, h), True
    for p, n, orbits, agree in [(2, 2, [0, 1, 2], True), (3, 1, [0, 1], True),
                                (2, 3, [0, 0, 1, 3], False), (3, 2, [2, 1, 0], False)]:
        yield f"orbits {orbits} p={p} n={n}", gmodule_direct_sum([orbit_gmodule(p, n, h) for h in orbits]), agree
    for p, d, r in comparison_grid() + [(2, 4, 3)]:
        yield f"tensor p={p} d={d} r={r}", tensor_power_action(FreeLift(d), CyclicGroupSpec(p, r - 1)), None
    for t, (p, n, orbits) in enumerate(_orbit_multisets(3, 12)):
        mod = gmodule_direct_sum([orbit_gmodule(p, n, h) for h in orbits])
        yield f"orbits {orbits} p={p} n={n}", mod, None
        yield f"shuffled orbits {orbits} p={p} n={n}", _shuffled(mod, t), None


def test_orbit_sums_match_the_kernel_oracle():
    # both constructions take bases of the same fixed lattices: where the
    # bases differ, the orbit sums (read in the carrier by restricting down
    # to level 0, the carrier itself) are solved in the kernel basis, and
    # that change of basis is an isomorphism of Mackey functors
    differ = 0
    for name, mod, agree in _permutation_modules():
        fast = fixed_point_mackey(mod)
        slow, incls = kernel_fixed_points(mod)
        assert fast.levels[0] == mod.carrier and fast.weyl[0] == mod.action, name
        if agree is not None:
            assert (fast == slow) == agree, name
        if fast == slow:
            continue
        differ += 1
        down = GroupHom.identity(mod.carrier)
        comps = []
        for k in range(fast.n + 1):
            if k:
                down = down.compose(fast.res[k - 1])
            comps.append(GroupHom(fast.levels[k], slow.levels[k], express_matrix_via(incls[k], down.matrix)))
        assert MackeyMap(fast, slow, comps).is_isomorphism(), name
    assert differ


def orbit_summand_map(mod):
    """(fast, smith, f): the base change of the fixed points of mod read off
    the orbits, the one from Smith forms, and the map f between them.

    Level j of the Smith path is the cokernel of p Tr_0^j on the orbit-sum
    basis of `fixed_point_mackey(mod)`.  The orbit path puts the orbit O at
    the place of its modulus p^(j+1)/|O| in ascending order, ties in the
    order of least points; |O| is read off the restriction down to the
    carrier.  f sends each summand to the class of its orbit sum.
    """
    fp = fixed_point_mackey(mod)
    fast, smith = fixed_point_witt_mackey(mod), base_change_to_witt(fp)
    p = fp.p
    down = chain = GroupHom.identity(fp.levels[0])
    comps = []
    for j in range(fp.n + 1):
        if j:
            down = down.compose(fp.res[j - 1])
            chain = fp.tr[j - 1].compose(chain)
        moduli = [p ** (j + 1) // sum(col) for col in zip(*down.matrix.to_rows())]
        order = sorted(range(len(moduli)), key=moduli.__getitem__)
        place = IntMatrix(len(order), len(order), {(i, t): 1 for t, i in enumerate(order)})
        comps.append(GroupHom(fast.levels[j], smith.levels[j], hom_cokernel(chain.scale(p)).proj * place))
    return fast, smith, MackeyMap(fast, smith, comps)


def test_base_change_is_the_cokernel_of_p_times_the_counit():
    # read off the bottom transfer, the base change equals the cokernel of
    # p times the free-orbit counit, maps included
    functors = [fixed_point_mackey(mod) for _, mod, _ in _permutation_modules()]
    functors += [kernel_fixed_points(_sign_module(p, n))[0] for p, n in [(2, 1), (2, 2), (3, 1)]]
    for p, n in [(2, 0), (2, 2), (3, 1), (3, 2), (5, 1)]:
        functors += [constant_mackey(p, n), witt_mackey(p, n), zero_mackey(p, n)]
    for m in functors:
        eps = box_counit(m, 0)
        assert base_change_to_witt(m) == mackey_cokernel(eps.scale(m.p)), m
        assert augmentation_cokernel(m) == mackey_cokernel(eps), m
    # read off the orbits, it is the same functor up to the order of
    # summands of equal modulus: the map between the two is a validated
    # permutation of summands, and the identity where the orders agree
    differ = 0
    for name, mod, _ in _permutation_modules():
        fast, smith, f = orbit_summand_map(mod)
        assert fast.levels == smith.levels and f.is_isomorphism(), name
        for c in f.components:
            rows = c.matrix.by_row
            assert len(rows) == c.src.n and all(list(r.values()) == [1] for r in rows.values()), name
        same = all(c.is_identity() for c in f.components)
        assert (fast == smith) == same, name
        differ += not same
    assert differ


def test_orbit_base_change_runs_no_smith_form(monkeypatch):
    calls = []
    for module in (intlinalg, abgroups, mackey, polywitt):
        for name in ("smith_normal_form", "induced_hom"):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **kw:
                                    calls.append(name) or real(*a, **kw))
    norm_over_W(FpVectorSpace(2, 4), 3)
    assert calls == []
    # the counters see the Smith path
    base_change_to_witt(norm_over_Z(FreeLift(4), 2, 3))
    assert "smith_normal_form" in calls


def test_fixed_points_need_a_permutation_module():
    # a torsion carrier, a free one with a signed permutation, and a
    # rotation rewritten in a non-permutation basis; a plain ValueError,
    # which the CLI reports as an invalid invocation
    z2 = FgAbGroup([0, 0])
    signed = GModule(CyclicGroupSpec(2, 2), z2, GroupHom(z2, z2, IntMatrix.from_rows([[0, -1], [1, 0]])))
    rot = tensor_power_action(FreeLift(2), CyclicGroupSpec(2, 1))
    u = IntMatrix.from_rows([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    u_inv = IntMatrix.from_rows([[1, -1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for mod in (_sign_module(2, 1), signed, conjugate_gmodule(rot, u, u_inv)):
        with pytest.raises(ValueError) as exc:
            fixed_point_mackey(mod)
        assert not isinstance(exc.value, MackeyError)
        assert kernel_fixed_points(mod)[0].spec == mod.spec  # the oracle takes any module


def test_validation_builds_no_throwaway_homs(monkeypatch):
    # the validator compares against p and the identity without building
    # them; its only identities start the n translate sums
    functors = [fixed_point_mackey(tensor_power_action(FreeLift(2), CyclicGroupSpec(2, 2))),
                witt_mackey(3, 2), inflate_mackey(witt_mackey(2, 1))]
    built = []
    identity = IntMatrix.identity
    monkeypatch.setattr(IntMatrix, "identity", staticmethod(lambda n: built.append(n) or identity(n)))
    for name in ("scalar", "zero"):
        monkeypatch.setattr(GroupHom, name, staticmethod(lambda *a, name=name: built.append(name)))
    for m in functors:
        built.clear()
        validate_mackey(m)
        assert len(built) == m.n and "scalar" not in built and "zero" not in built


def test_inflation_checks_the_order_once(monkeypatch):
    # the tensor power checks A^2 = 1, which implies A^4 = 1 for the inflation
    calls = []
    power = mackey.hom_power
    monkeypatch.setattr(mackey, "hom_power", lambda h, m: calls.append(m) or power(h, m))
    rot = tensor_power_action(FreeLift(2), CyclicGroupSpec(2, 1))
    assert calls == [2]
    assert inflate_action(rot).spec == CyclicGroupSpec(2, 2)
    assert calls == [2]


def test_gmodule_rejects_non_invertible_action():
    z = FgAbGroup([0])
    with pytest.raises(MackeyError):
        GModule(CyclicGroupSpec(2, 1), z, GroupHom.scalar(z, 2))
