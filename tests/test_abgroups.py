"""Canonical abelian group, presentation, and hom tests."""

import random
from collections import Counter
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_intlinalg import entries
from wittnorm.abgroups import (
    FgAbGroup,
    GroupHom,
    Presentation,
    direct_sum_presentation,
    hom_cokernel,
    hom_kernel,
    induced_hom,
    is_injective,
    is_isomorphism,
    is_surjective,
    present_quotient,
    subgroups_equal,
)
from wittnorm.intlinalg import IntMatrix, smith_normal_form, solve_int_matrix


def test_canonical_validation():
    FgAbGroup([2, 4, 0])
    FgAbGroup([])
    with pytest.raises(ValueError):
        FgAbGroup([4, 2])
    with pytest.raises(ValueError):
        FgAbGroup([0, 2])
    with pytest.raises(ValueError):
        FgAbGroup([1, 2])
    with pytest.raises(ValueError):
        FgAbGroup([2, 3])


def test_present_quotient_canonicalizes_diagonal():
    # Z^n modulo a diagonal of cyclic orders: 0 keeps a free summand, 1 drops
    for orders, moduli in [([2, 3], (6,)), ([4, 2, 0], (2, 4, 0)), ([1, 1], ()), ([6, 4], (2, 12))]:
        diag = IntMatrix(len(orders), len(orders), {(i, i): v for i, v in enumerate(orders)})
        assert present_quotient(len(orders), diag).group.moduli == moduli


def test_group_basics():
    g = FgAbGroup([2, 4])
    assert g.order() == 8
    assert g.exponent() == 4
    assert g.normalize([3, 5]) == (1, 1)
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 3)
    assert len(list(g.elements())) == 8
    assert element_order(g, (1, 2)) == 2
    assert element_order(g, (0, 1)) == 4
    with pytest.raises(ValueError):
        element_order(FgAbGroup([0]), (1,))
    free = FgAbGroup([0])
    assert free.order() is None
    with pytest.raises(ValueError):
        list(free.elements())


def element_order(group, a):
    """The additive order of a in group; ValueError for infinite order."""
    out = 1
    for v, m in zip(group.normalize(a), group.moduli):
        if m == 0:
            if v:
                raise ValueError("element of infinite order")
        elif v:
            out = lcm(out, m // gcd(v, m))
    return out


def order_histogram(group):
    """Map from element order to its multiplicity, over a finite group."""
    return dict(Counter(element_order(group, a) for a in group.elements()))


def test_order_histogram():
    g = FgAbGroup([2, 4, 4])
    # 32 elements: order 1 x1, order 2 x7, order 4 x24
    assert order_histogram(g) == {1: 1, 2: 7, 4: 24}


def test_present_quotient_diag():
    pres = present_quotient(2, IntMatrix(2, 1, {(0, 0): 4}))
    assert pres.group.moduli == (4, 0)
    # projection then lift is the identity on the group
    for elt in [(1, 0), (3, -2), (0, 5)]:
        e = pres.group.normalize(elt)
        assert pres.project_vec(pres.lift_elt(e)) == e


def test_present_quotient_lift_matches_solved_inverse():
    # the lift comes from the U^-1 tracked inside the Smith reduction; the
    # oracle inverts U by solving U * X = I on its own factorization
    rng = random.Random(7)
    for n, c in [(1, 1), (3, 2), (4, 4), (5, 3), (6, 7)]:
        rows = [[rng.randint(-6, 6) if rng.random() < 0.6 else 0 for _ in range(c)]
                for _ in range(n)]
        lattice = IntMatrix.from_rows(rows, cols=c)
        pres = present_quotient(n, lattice)
        u, d, _, _ = smith_normal_form(lattice)
        kept = [i for i in range(n) if (d.entry(i, i) if i < c else 0) != 1]
        oracle = solve_int_matrix(u, IntMatrix.identity(n))
        assert pres.lift == oracle.take_columns(kept)


def test_present_quotient_nontrivial_coords():
    # Z^2 / <(2, 4)> = Z/2 + Z
    lat = IntMatrix.from_columns([[2, 4]])
    pres = present_quotient(2, lat)
    assert pres.group.moduli == (2, 0)
    assert pres.project_vec([2, 4]) == pres.group.zero()
    assert pres.project_vec([1, 2]) != pres.group.zero()


def test_group_hom_well_defined():
    a = FgAbGroup([2])
    b = FgAbGroup([4])
    GroupHom(a, b, IntMatrix.from_rows([[2]]))  # 1 -> 2 is fine: 2*2 = 0 mod 4
    with pytest.raises(ValueError):
        GroupHom(a, b, IntMatrix.from_rows([[1]]))  # 2*1 != 0 mod 4
    z = FgAbGroup([0])
    with pytest.raises(ValueError):
        GroupHom(a, z, IntMatrix.from_rows([[1]]))  # torsion cannot map to Z


def test_group_hom_names_smallest_bad_generator():
    # generators 1 and 2 of Z/2 + Z/4 + Z/4 are not killed by their
    # orders; the entry of generator 2 comes first in the matrix's data
    src = FgAbGroup([2, 4, 4])
    dst = FgAbGroup([8, 0])
    m = IntMatrix(2, 3, {(0, 2): 1, (1, 1): 3, (0, 0): 4})
    with pytest.raises(ValueError, match=r"map does not kill 4 \* generator 1$"):
        GroupHom(src, dst, m)


def test_identity_zero_scalar_match_validating_constructor():
    # identity, zero and scalar skip the order check; each must be the hom
    # the checking constructor builds from the same matrix, layout included
    groups = [FgAbGroup(m) for m in [(), (0,), (4,), (2, 0), (3, 9, 0), (2, 2, 8, 0, 0)]]
    for g in groups:
        cases = [(GroupHom.identity(g), (g, g, IntMatrix.identity(g.n)))]
        cases += [(GroupHom.scalar(g, c), (g, g, IntMatrix.identity(g.n).scale(c)))
                  for c in (-3, 0, 2, 9)]
        cases += [(GroupHom.zero(g, h), (g, h, IntMatrix.zero(h.n, g.n))) for h in groups]
        for got, raw in cases:
            want = GroupHom(*raw)
            assert got == want
            assert list(entries(got.matrix).items()) == list(entries(want.matrix).items())


def _random_hom(rng, src, dst):
    """A seeded valid hom: each image entry is killed by its generator's order."""
    data = {}
    for j, s in enumerate(src.moduli):
        for i, t in enumerate(dst.moduli):
            if s == 0:
                data[(i, j)] = rng.randint(-9, 9)
            elif t:  # torsion never reaches a free summand
                data[(i, j)] = rng.randint(-9, 9) * (t // gcd(s, t))
    return GroupHom(src, dst, IntMatrix(dst.n, src.n, data))


def test_hom_arithmetic_matches_validating_constructor():
    # compose, +, - and scale skip the order check; their results must be
    # what the checking constructor builds from the raw matrices
    rng = random.Random(606)
    groups = [FgAbGroup(m) for m in [(), (0,), (4,), (2, 4), (2, 0), (3, 9, 0), (2, 2, 8, 0, 0)]]
    for _ in range(150):
        a, b, c = (rng.choice(groups) for _ in range(3))
        f, f2, g = _random_hom(rng, a, b), _random_hom(rng, a, b), _random_hom(rng, b, c)
        k = rng.randint(-6, 6)
        for got, raw in [(g.compose(f), (a, c, g.matrix * f.matrix)),
                         (f + f2, (a, b, f.matrix + f2.matrix)),
                         (f - f2, (a, b, f.matrix - f2.matrix)),
                         (f.scale(k), (a, b, f.matrix.scale(k)))]:
            want = GroupHom(*raw)
            assert got == want
            assert list(entries(got.matrix).items()) == list(entries(want.matrix).items())


def test_hom_apply_compose():
    g = FgAbGroup([4])
    h = GroupHom.scalar(g, 2)
    assert h.apply((3,)) == (2,)
    assert h.compose(h).is_zero()
    assert (h + h).is_zero()
    assert h - h == GroupHom.zero(g, g)


def test_hom_kernel_cokernel():
    g = FgAbGroup([4])
    h = GroupHom.scalar(g, 2)
    k = hom_kernel(h)
    assert k.src.moduli == (2,) and k.dst == g
    assert h.compose(k).is_zero()
    c = hom_cokernel(h)
    assert c.group.moduli == (2,)
    assert GroupHom(g, c.group, c.proj).compose(h).is_zero()


def test_kernel_of_free_projection():
    # Z^2 -> Z, (x, y) -> x + y
    src = FgAbGroup([0, 0])
    dst = FgAbGroup([0])
    h = GroupHom(src, dst, IntMatrix.from_rows([[1, 1]]))
    k = hom_kernel(h)
    assert k.src.moduli == (0,)
    assert h.compose(k).is_zero()
    assert is_surjective(h)
    assert not is_injective(h)


def test_iso_detection():
    g = FgAbGroup([2, 4])
    assert is_isomorphism(GroupHom.identity(g))
    # multiplication by 3 is invertible mod 4
    assert is_isomorphism(GroupHom.scalar(g, 3))
    assert not is_isomorphism(GroupHom.scalar(g, 2))


def test_is_identity_agrees_with_the_built_identity():
    # free, torsion, mixed and trivial groups, and maps between two groups
    groups = [FgAbGroup([0, 0]), FgAbGroup([2, 4]), FgAbGroup([3, 0]), FgAbGroup([])]
    homs = [make(g) for g in groups for make in (
        GroupHom.identity,
        lambda g: GroupHom.zero(g, g),
        lambda g: GroupHom.scalar(g, -1),
        lambda g: GroupHom.scalar(g, 5),  # the identity on Z/2 + Z/4 only
    )]
    z2z2, z4 = FgAbGroup([2, 2]), FgAbGroup([4])
    homs += [
        GroupHom(groups[0], groups[0], IntMatrix.from_rows([[1, 1], [0, 1]])),
        GroupHom(z2z2, z2z2, IntMatrix.from_rows([[0, 1], [1, 0]])),
        GroupHom(z2z2, z2z2, IntMatrix.from_rows([[3, 0], [2, 1]])),
        GroupHom(z4, FgAbGroup([8]), IntMatrix.from_rows([[2]])),
        GroupHom(FgAbGroup([0]), z4, IntMatrix.from_rows([[1]])),
        GroupHom.zero(FgAbGroup([]), z4),
    ]
    got = [h.is_identity() for h in homs]
    assert got == [h == GroupHom.identity(h.src) for h in homs]
    # four identities, 5 on Z/2 + Z/4, diag(3, 1) on Z/2 + Z/2, and every
    # endomorphism of the trivial group
    assert got.count(True) == 9
    # is_scalar against the built scalar, for scalars that vanish on some
    # summands (4 on Z/2 + Z/4) and for multiples of p
    for c in (-1, 0, 1, 2, 3, 4, 5):
        got = [h.is_scalar(c) for h in homs]
        assert got == [h == GroupHom.scalar(h.src, c) for h in homs], c
        assert any(got)


def test_subgroup_ops():
    g = FgAbGroup([8])
    two = IntMatrix.from_columns([[2]])
    four = IntMatrix.from_columns([[4]])
    six = IntMatrix.from_columns([[6]])
    assert subgroups_equal(g, two, six)  # gcd(6, 8) = 2
    assert not subgroups_equal(g, two, four)


def test_induced_hom_descends():
    # Z -> Z, x -> 2x descends to Z/4 -> Z/8
    src = present_quotient(1, IntMatrix.from_columns([[4]]))
    dst = present_quotient(1, IntMatrix.from_columns([[8]]))
    h = induced_hom(src, dst, IntMatrix.from_rows([[2]]))
    assert h.apply((1,)) == (2,)
    with pytest.raises(ValueError):
        induced_hom(src, dst, IntMatrix.from_rows([[1]]))


def test_direct_sum():
    a = FgAbGroup([2])
    b = FgAbGroup([4, 0])
    pres, ranges = direct_sum_presentation([a, b])
    assert pres.group.moduli == (2, 4, 0)
    assert ranges == [(0, 1), (1, 3)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=3), st.data())
def test_quotient_group_order(mods, data):
    # |Z^n / diag(d)| with all d nonzero equals the product of the d's
    lat = IntMatrix(len(mods), len(mods), {(i, i): m for i, m in enumerate(mods)})
    pres = present_quotient(len(mods), lat)
    if all(mods):
        expect = 1
        for m in mods:
            expect *= m
        assert pres.group.order() == expect
    else:
        assert pres.group.order() is None
    # projection kills exactly the lattice
    vec = data.draw(
        st.lists(st.integers(min_value=-15, max_value=15), min_size=len(mods), max_size=len(mods))
    )
    in_lattice = all(m and v % m == 0 for v, m in zip(vec, mods)) or all(
        (v == 0) if not m else (v % m == 0) for v, m in zip(vec, mods)
    )
    assert (pres.project_vec(vec) == pres.group.zero()) == in_lattice
