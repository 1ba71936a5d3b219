"""Smith normal form and integer solve tests.

The oracle for every SNF call is structural: U*A*V must equal D exactly,
U and V must be unimodular, the returned U^-1 must invert U on both
sides, and D must be a divisibility chain.  Expected
diagonals below were computed by hand.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittnorm.intlinalg import (
    IntMatrix,
    kernel_basis,
    lattice_contains,
    lattice_contains_all,
    matrix_mod,
    random_unimodular,
    require_prime,
    smith_diagonal,
    smith_normal_form,
    solve_int,
    solve_int_matrix,
)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = m.rows
    assert n == m.cols
    a = [row[:] for row in m.to_rows()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def assert_snf_contract(m: IntMatrix):
    u, d, v, u_inv = smith_normal_form(m)
    assert u * m * v == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    ident = IntMatrix.identity(m.rows)
    assert u * u_inv == ident
    assert u_inv * u == ident
    diag = [d.entry(i, i) for i in range(min(m.rows, m.cols))]
    # off-diagonal must vanish
    for (i, j), val in d.data.items():
        assert i == j and val
    # nonnegative divisibility chain, zeros trailing
    seen_zero = False
    for k, val in enumerate(diag):
        assert val >= 0
        if val == 0:
            seen_zero = True
        else:
            assert not seen_zero
            if k > 0 and diag[k - 1]:
                assert val % diag[k - 1] == 0
    return diag


def test_snf_two_by_two_diag():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    diag = assert_snf_contract(m)
    assert diag == [1, 6]


def test_snf_with_free_part():
    m = IntMatrix.from_rows([[4, 0], [0, 0]])
    diag = assert_snf_contract(m)
    assert diag == [4, 0]


def test_snf_zero_and_identity():
    assert assert_snf_contract(IntMatrix.zero(3, 2)) == [0, 0]
    assert assert_snf_contract(IntMatrix.identity(4)) == [1, 1, 1, 1]


def test_snf_rectangular():
    m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    diag = assert_snf_contract(m)
    assert diag == [2, 2, 156]  # det = +-624 = 2*2*156


def test_snf_norm_element_matrix():
    # sum of the two group translates on Z[C2]
    m = IntMatrix.from_rows([[1, 1], [1, 1]])
    diag = assert_snf_contract(m)
    assert diag == [1, 0]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_snf_random_contract(r, c, data):
    entries = data.draw(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=r * c, max_size=r * c)
    )
    m = IntMatrix.from_rows([entries[i * c : (i + 1) * c] for i in range(r)])
    assert_snf_contract(m)


def test_matrix_arithmetic():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b).to_rows() == [[2, 1], [4, 3]]
    assert (a + b).to_rows() == [[1, 3], [4, 4]]
    assert (a - a).is_zero()
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    assert a.apply([1, 1]) == [3, 7]
    assert a.hstack(b).to_rows() == [[1, 2, 0, 1], [3, 4, 1, 0]]
    assert a.vstack(b).to_rows() == [[1, 2], [3, 4], [0, 1], [1, 0]]
    assert a.take_columns([1]).to_rows() == [[2], [4]]
    assert a.take_rows([1, 0]).to_rows() == [[3, 4], [1, 2]]


def test_solve_int_basic():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_int(a, [4, 9]) == [2, 3]
    assert solve_int(a, [1, 0]) is None
    # inconsistent overdetermined system
    b = IntMatrix.from_rows([[1], [1]])
    assert solve_int(b, [1, 2]) is None
    assert solve_int(b, [5, 5]) == [5]


def test_solve_int_matrix_roundtrip():
    a = IntMatrix.from_rows([[1, 2], [0, 1], [1, 0]])
    x = IntMatrix.from_rows([[3, -1], [2, 5]])
    b = a * x
    got = solve_int_matrix(a, b)
    assert got is not None
    assert a * got == b


def test_kernel_basis():
    a = IntMatrix.from_rows([[1, 1, 1]])
    k = kernel_basis(a)
    assert k.cols == 2
    assert (a * k).is_zero()
    # saturation: (1,-1,0) and (0,1,-1) must lie in the kernel lattice
    assert lattice_contains(k, [1, -1, 0])
    assert lattice_contains(k, [0, 1, -1])
    # full-rank map has trivial kernel
    assert kernel_basis(IntMatrix.from_rows([[2, 0], [0, 3]])).cols == 0


def test_lattice_membership():
    gens = IntMatrix.from_columns([[2, 0], [0, 3]])
    assert lattice_contains(gens, [4, 3])
    assert not lattice_contains(gens, [1, 0])
    assert lattice_contains_all(gens, IntMatrix.from_columns([[2, 3], [-2, 0]]))
    assert not lattice_contains_all(gens, IntMatrix.from_columns([[2, 3], [1, 1]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_kernel_is_saturated(n, data):
    entries = data.draw(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n * n, max_size=n * n)
    )
    a = IntMatrix.from_rows([entries[i * n : (i + 1) * n] for i in range(n)])
    k = kernel_basis(a)
    assert (a * k).is_zero()
    # any rational kernel vector scaled to integrality lies in the lattice
    for j in range(k.cols):
        col = k.column(j)
        assert lattice_contains(k, [2 * x for x in col])


def test_matrix_mod():
    m = IntMatrix.from_rows([[5, -1], [7, 3]])
    assert matrix_mod(m, [4, 0]).to_rows() == [[1, 3], [7, 3]]


def test_random_unimodular_has_unit_det():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            u = random_unimodular(n, rng)
            assert abs(det(u)) == 1


def test_require_prime():
    for p in (2, 3, 5, 7, 97):
        require_prime(p)
    for p in (-3, 0, 1, 4, 6, 9, 91):
        with pytest.raises(ValueError):
            require_prime(p)
