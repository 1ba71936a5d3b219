"""Canonical abelian group, presentation, and hom tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittnorm.abgroups import (
    CokernelData,
    FgAbGroup,
    GroupHom,
    Presentation,
    canonical_presentation,
    direct_sum_group,
    direct_sum_presentation,
    hom_cokernel,
    hom_image_group,
    hom_kernel,
    induced_hom,
    is_injective,
    is_isomorphism,
    is_surjective,
    present_free,
    present_quotient,
    subgroup_contains,
    subgroup_group,
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


def test_from_moduli_canonicalizes():
    assert FgAbGroup.from_moduli([2, 3]).moduli == (6,)
    assert FgAbGroup.from_moduli([4, 2, 0]).moduli == (2, 4, 0)
    assert FgAbGroup.from_moduli([1, 1]).moduli == ()
    assert FgAbGroup.from_moduli([6, 4]).moduli == (2, 12)


def test_group_basics():
    g = FgAbGroup([2, 4])
    assert g.order() == 8
    assert g.exponent() == 4
    assert g.normalize([3, 5]) == (1, 1)
    assert g.add((1, 3), (1, 2)) == (0, 1)
    assert g.neg((1, 1)) == (1, 3)
    assert len(list(g.elements())) == 8
    assert g.element_order((1, 2)) == 2
    assert g.element_order((0, 1)) == 4
    free = FgAbGroup([0])
    assert free.order() is None
    with pytest.raises(ValueError):
        list(free.elements())


def test_order_histogram():
    g = FgAbGroup([2, 4, 4])
    # 32 elements: order 1 x1, order 2 x7, order 4 x24
    assert g.order_histogram() == {1: 1, 2: 7, 4: 24}


def test_present_quotient_diag():
    pres = present_quotient(2, IntMatrix.diagonal([4, 0]).take_columns([0]))
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
    assert k.group.moduli == (2,)
    assert h.compose(k.incl).is_zero()
    c = hom_cokernel(h)
    assert c.group.moduli == (2,)
    assert c.proj.compose(h).is_zero()
    assert hom_image_group(h).moduli == (2,)


def test_kernel_of_free_projection():
    # Z^2 -> Z, (x, y) -> x + y
    src = FgAbGroup([0, 0])
    dst = FgAbGroup([0])
    h = GroupHom(src, dst, IntMatrix.from_rows([[1, 1]]))
    k = hom_kernel(h)
    assert k.group.moduli == (0,)
    assert h.compose(k.incl).is_zero()
    assert is_surjective(h)
    assert not is_injective(h)


def test_iso_detection():
    g = FgAbGroup([2, 4])
    assert is_isomorphism(GroupHom.identity(g))
    # multiplication by 3 is invertible mod 4
    assert is_isomorphism(GroupHom.scalar(g, 3))
    assert not is_isomorphism(GroupHom.scalar(g, 2))


def test_subgroup_ops():
    g = FgAbGroup([8])
    two = IntMatrix.from_columns([[2]])
    four = IntMatrix.from_columns([[4]])
    six = IntMatrix.from_columns([[6]])
    assert subgroup_contains(g, two, (6,))
    assert not subgroup_contains(g, four, (2,))
    assert subgroups_equal(g, two, six)  # gcd(6, 8) = 2
    assert not subgroups_equal(g, two, four)
    assert subgroup_group(g, two).moduli == (4,)
    assert subgroup_group(g, IntMatrix.zero(1, 0)).moduli == ()


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
    s = direct_sum_group([a, b])
    assert s.moduli == (2, 4, 0)
    pres, ranges = direct_sum_presentation([a, b])
    assert ranges == [(0, 1), (1, 3)]
    assert pres.group == s


def test_canonical_presentation_roundtrip():
    g = FgAbGroup([2, 6, 0])
    pres = canonical_presentation(g)
    for elt in [(1, 5, -3), (0, 2, 7)]:
        e = g.normalize(elt)
        assert pres.project_vec(pres.lift_elt(e)) == e


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=3), st.data())
def test_quotient_group_order(mods, data):
    # |Z^n / diag(d)| with all d nonzero equals the product of the d's
    lat = IntMatrix.diagonal(mods)
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
