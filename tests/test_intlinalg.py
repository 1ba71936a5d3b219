"""Smith normal form and integer solve tests.

The oracle for every SNF call is structural: U*A*V must equal D exactly,
U and V must be unimodular, the returned U^-1 must invert U on both
sides, and D must be a divisibility chain.  Expected
diagonals below were computed by hand.  The pivot scan's early stops are
checked against the full scan kept here as a reference: both must give
the same (U, D, V, U^-1), entry order included, since entry order feeds
later pivot choices.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittnorm import intlinalg
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


class _ReferenceWorker(intlinalg._SmithWorker):
    """Pivot choice and divisibility sweep as they were before the early stops."""

    def pick_pivot(self, t):
        best = None
        for i in range(t, self.r):
            for j, v in self.rows[i].items():
                if j < t:
                    continue
                key = (abs(v), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
                    if key[0] == 1 and i == t:
                        break
        if best is None:
            return None
        return best[1], best[2]

    def offending_row(self, t):
        p = self.rows[t].get(t, 0)
        for i in range(t + 1, self.r):
            for j, v in self.rows[i].items():
                if j > t and v % p:
                    return i
        return None


def _shuffled(rows, cols, data, rng):
    """IntMatrix with its entries listed in a seeded random order."""
    items = list(data.items())
    rng.shuffle(items)
    return IntMatrix(rows, cols, dict(items))


def _snf_cases(seed, count):
    """Seeded matrices of the shapes the library factors."""
    rng = random.Random(seed)
    for k in range(count):
        kind = k % 5
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        if kind == 0:  # sparse 0/+-1
            data = {(i, j): rng.choice([-1, 1]) for i in range(r) for j in range(c)
                    if rng.random() < 0.3}
        elif kind == 1:  # dense small entries
            data = {(i, j): rng.randint(-6, 6) for i in range(r) for j in range(c)}
        elif kind == 2:  # rank-deficient: a product through a thin middle
            inner = rng.randint(1, max(1, min(r, c) - 1))
            left = IntMatrix(r, inner, {(i, j): rng.randint(-3, 3) for i in range(r)
                                        for j in range(inner)})
            right = IntMatrix(inner, c, {(i, j): rng.randint(-3, 3) for i in range(inner)
                                         for j in range(c)})
            data = (left * right).data
        elif kind == 3:  # non-square, with entries sharing a common factor
            r, c = rng.choice([(2, 7), (7, 2), (3, 9), (9, 4)])
            g = rng.choice([2, 3, 4])
            data = {(i, j): g * rng.randint(-4, 4) + (1 if rng.random() < 0.1 else 0)
                    for i in range(r) for j in range(c)}
        else:  # permutation minus identity, as fixed_mod_norm factors
            r = c = rng.randint(2, 24)
            perm = list(range(r))
            rng.shuffle(perm)
            data = {}
            for j in range(r):
                data[(perm[j], j)] = data.get((perm[j], j), 0) + 1
                data[(j, j)] = data.get((j, j), 0) - 1
        yield _shuffled(r, c, data, rng)


def test_snf_matches_reference_pivoting(monkeypatch):
    mats = list(_snf_cases(2024, 300))
    got = [smith_normal_form(m) for m in mats]
    monkeypatch.setattr(intlinalg, "_SmithWorker", _ReferenceWorker)
    for m, out in zip(mats, got):
        want = smith_normal_form(m)
        for x, y in zip(out, want):
            assert (x.rows, x.cols) == (y.rows, y.cols)
            assert list(x.data.items()) == list(y.data.items())


def _oracle_solve_column(a, b):
    """One solution of a*x = b read off smith_normal_form, or None."""
    u, d, v, _ = smith_normal_form(a)
    ub = u.apply(b)
    y = [0] * a.cols
    for i in range(a.rows):
        di = d.entry(i, i) if i < a.cols else 0
        if di:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i]:
            return None
    return v.apply(y)


def _solve_cases(seed):
    rng = random.Random(seed)
    for a in _snf_cases(seed, 60):
        x = IntMatrix(a.cols, 4, {(i, j): rng.randint(-3, 3) for i in range(a.cols)
                                  for j in range(4) if rng.random() < 0.5})
        b = (a * x).to_rows()
        if rng.random() < 0.5:  # an extra column, often outside the image
            extra = rng.randrange(len(b[0]))
            for row in b:
                row[extra] += rng.randint(-2, 2)
        yield a, IntMatrix.from_rows(b)


def test_solve_int_matrix_matches_per_column_oracle():
    unsolvable = 0
    for a, b in _solve_cases(31):
        cols = [_oracle_solve_column(a, col) for col in b.transpose().to_rows()]
        got = solve_int_matrix(a, b)
        for col, want in zip(b.transpose().to_rows(), cols):
            assert solve_int(a, col) == want
        if any(c is None for c in cols):
            unsolvable += 1
            assert got is None
            continue
        want = IntMatrix.from_columns(cols, rows=a.cols)
        assert (got.rows, got.cols) == (want.rows, want.cols)
        assert list(got.data.items()) == list(want.data.items())
    assert unsolvable
