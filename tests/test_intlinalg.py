"""Smith normal form and integer solve tests.

The oracle for every SNF call is structural: U*A*V must equal D exactly,
U and V must be unimodular, the returned U^-1 must invert U on both
sides, and D must be a divisibility chain.  Expected
diagonals below were computed by hand.  The pivot scan's early stops are
checked against the full scan kept here as a reference: both must give
the same (U, D, V, U^-1), entry order included, since entry order feeds
later pivot choices.  That reference also keeps the row and column swaps
and the row clearing that built every transform on every call, so each
transform a caller asks for is checked against it.
"""

import ast
import pathlib
import random
from bisect import bisect_left, insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittnorm import intlinalg
from wittnorm.intlinalg import (
    IntMatrix,
    kernel_basis,
    matrix_mod,
    random_unimodular,
    require_prime,
    smith_normal_form,
    solve_int,
    solve_int_matrix,
)
from wittnorm.polywitt import rotation_matrix


def entries(m: IntMatrix) -> dict:
    """{(i, j): value} of the nonzero entries, row by row in stored order."""
    return {(i, j): v for i, row in m.by_row.items() for j, v in row.items()}


def lattice_contains(gens: IntMatrix, vec) -> bool:
    """Is vec in the column span (over Z) of gens?"""
    return solve_int(gens, vec) is not None


def lattice_contains_all(gens: IntMatrix, other: IntMatrix) -> bool:
    """Is every column of other in the column span of gens?"""
    return solve_int_matrix(gens, other) is not None


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
    u, d, v, u_inv = smith_normal_form(m, v=True, u_inv=True)
    assert u * m * v == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    ident = IntMatrix.identity(m.rows)
    assert u * u_inv == ident
    assert u_inv * u == ident
    diag = [d.entry(i, i) for i in range(min(m.rows, m.cols))]
    # off-diagonal must vanish
    for (i, j), val in entries(d).items():
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
    assert IntMatrix.zero(2, 3).transpose() == IntMatrix.zero(3, 2)
    assert a.apply([1, 1]) == [3, 7]
    assert a.hstack(b).to_rows() == [[1, 2, 0, 1], [3, 4, 1, 0]]
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
        col = [k.entry(i, j) for i in range(k.rows)]
        assert lattice_contains(k, [2 * x for x in col])


def test_matrix_mod():
    m = IntMatrix.from_rows([[5, -1], [7, 3]])
    assert matrix_mod(m, [4, 0]).to_rows() == [[1, 3], [7, 3]]


def test_random_unimodular_has_unit_det():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(5):
            u, _ = random_unimodular(n, rng)
            assert abs(det(u)) == 1


def _dense_unimodular(n, rng):
    """The dense construction random_unimodular replaced, draw for draw."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(12):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    if rng.random() < 0.5 and n > 1:
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        m[i], m[j] = m[j], m[i]
    return IntMatrix.from_rows(m)


def test_random_unimodular_returns_its_inverse():
    for seed in (0, 1, 7, 2024):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for n in range(1, 7):
            for _ in range(4):
                u, u_inv = random_unimodular(n, rng)
                want = _dense_unimodular(n, ref_rng)
                # the same draws give the same U, rows and entries in order
                assert (u.rows, u.cols) == (want.rows, want.cols)
                assert list(entries(u).items()) == list(entries(want).items())
                ident = IntMatrix.identity(n)
                assert u * u_inv == ident and u_inv * u == ident
                for row in u_inv.by_row.values():
                    assert list(row) == sorted(row)
        # the stream stays in step after the last sample
        assert rng.random() == ref_rng.random()


def test_require_prime():
    for p in (2, 3, 5, 7, 97):
        require_prime(p)
    for p in (-3, 0, 1, 4, 6, 9, 91):
        with pytest.raises(ValueError):
            require_prime(p)


class _ReferenceWorker(intlinalg._SmithWorker):
    """The worker as it was before the pivot scan's early stops and before
    transforms were built on demand: it builds U, V and U^-1 every time,
    writes every entry through set_entry, swaps with two set_entry calls
    per row, and clears row t with a full column operation."""

    def __init__(self, m, v, u_inv):
        super().__init__(m, True, True)

    def set_entry(self, i, j, v):
        row = self.rows[i]
        if v:
            if not row:
                insort(self.live, i)
            row[j] = v
            self.colindex[j].add(i)
        elif row.pop(j, None) is not None:
            self.colindex[j].discard(i)
            if not row:
                del self.live[bisect_left(self.live, i)]

    def row_axpy(self, q, src, dst):
        if q == 0:
            return
        for j, v in list(self.rows[src].items()):
            self.set_entry(dst, j, self.rows[dst].get(j, 0) - q * v)
        intlinalg._axpy(self.urows[dst], self.urows[src], q)
        intlinalg._axpy(self.uinvcols[src], self.uinvcols[dst], -q)

    def col_axpy(self, q, src, dst):
        if q == 0:
            return
        for i in list(self.colindex[src]):
            v = self.rows[i].get(src, 0)
            if v:
                self.set_entry(i, dst, self.rows[i].get(dst, 0) - q * v)
        intlinalg._axpy(self.vcols[dst], self.vcols[src], q)

    def reduce_row_entry(self, t, j):
        self.col_axpy(self.rows[t][j] // self.rows[t][t], t, j)
        return self.rows[t].get(j, 0)

    def swap_rows(self, a, b):
        if a == b:
            return
        for j in set(self.rows[a]) | set(self.rows[b]):
            self.colindex[j].discard(a)
            self.colindex[j].discard(b)
        if bool(self.rows[a]) != bool(self.rows[b]):
            full, empty = (a, b) if self.rows[a] else (b, a)
            del self.live[bisect_left(self.live, full)]
            insort(self.live, empty)
        self.rows[a], self.rows[b] = self.rows[b], self.rows[a]
        for j in self.rows[a]:
            self.colindex[j].add(a)
        for j in self.rows[b]:
            self.colindex[j].add(b)
        self.urows[a], self.urows[b] = self.urows[b], self.urows[a]
        self.uinvcols[a], self.uinvcols[b] = self.uinvcols[b], self.uinvcols[a]

    def swap_cols(self, a, b):
        if a == b:
            return
        for i in list(self.colindex[a] | self.colindex[b]):
            va = self.rows[i].get(a, 0)
            vb = self.rows[i].get(b, 0)
            self.set_entry(i, a, vb)
            self.set_entry(i, b, va)
        self.vcols[a], self.vcols[b] = self.vcols[b], self.vcols[a]

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
            data = entries(left * right)
        elif kind == 3:  # non-square, with entries sharing a common factor
            r, c = rng.choice([(2, 7), (7, 2), (3, 9), (9, 4)])
            g = rng.choice([2, 3, 4])
            data = {(i, j): g * rng.randint(-4, 4) + (1 if rng.random() < 0.1 else 0)
                    for i in range(r) for j in range(c)}
        else:  # permutation minus identity
            r = c = rng.randint(2, 24)
            data = _perm_minus_identity(r, rng)
        yield _shuffled(r, c, data, rng)


def _perm_minus_identity(n, rng):
    """Entries of a seeded n x n permutation matrix minus the identity."""
    perm = list(range(n))
    rng.shuffle(perm)
    data = {}
    for j in range(n):
        data[(perm[j], j)] = data.get((perm[j], j), 0) + 1
        data[(j, j)] = data.get((j, j), 0) - 1
    return data


def test_transpose_is_the_entrywise_swap():
    for m in _snf_cases(7, 40):
        t = m.transpose()
        assert (t.rows, t.cols) == (m.cols, m.rows)
        assert dict(entries(t)) == {(j, i): v for (i, j), v in entries(m).items()}
        assert t.transpose() == m


def test_snf_contract_on_transposed_permutation_minus_identity():
    # fixed_mod_norm factors (A - I)^T: the rows of U past the rank span
    # the integer kernel of A - I, and U^-1 reads coordinates in it
    rng = random.Random(41)
    cases = [_shuffled(n, n, _perm_minus_identity(n, rng), rng)
             for n in (1, 2, 5, 9, 16, 24)]
    for d, k in [(2, 2), (2, 3), (3, 2)]:
        rot = rotation_matrix(d, k)
        u, u_inv = random_unimodular(rot.rows, rng)
        cases += [rot - IntMatrix.identity(rot.rows),
                  u * rot * u_inv - IntMatrix.identity(rot.rows)]
    for a in cases:
        n = a.rows
        diag = assert_snf_contract(a.transpose())
        rank = sum(1 for x in diag if x)
        u, _, _, u_inv = smith_normal_form(a.transpose(), u_inv=True)
        fixed = u.take_rows(range(rank, n)).transpose()
        coord = u_inv.take_columns(range(rank, n)).transpose()
        assert (a * fixed).is_zero()
        assert coord * fixed == IntMatrix.identity(n - rank)
        assert fixed.cols == kernel_basis(a).cols


# every set of transforms a caller can ask for, as keyword arguments
TRANSFORMS = [{}, {"v": True}, {"u_inv": True}, {"v": True, "u_inv": True}]


def _assert_matches_reference(mats, got, monkeypatch):
    """got[k][m] is smith_normal_form(m, **TRANSFORMS[k]).  Each transform
    asked for equals the reference's entry for entry, in the same order;
    one not asked for is None."""
    monkeypatch.setattr(intlinalg, "_SmithWorker", _ReferenceWorker)
    want = [smith_normal_form(m, v=True, u_inv=True) for m in mats]
    for transforms, outs in zip(TRANSFORMS, got):
        asked = (True, True, "v" in transforms, "u_inv" in transforms)
        for out, ref in zip(outs, want):
            for x, y, ask in zip(out, ref, asked):
                if not ask:
                    assert x is None
                    continue
                assert (x.rows, x.cols) == (y.rows, y.cols)
                assert list(entries(x).items()) == list(entries(y).items())


def test_snf_matches_reference_pivoting(monkeypatch):
    mats = list(_snf_cases(2024, 300))
    got = [[smith_normal_form(m, **transforms) for m in mats] for transforms in TRANSFORMS]
    _assert_matches_reference(mats, got, monkeypatch)


class _CheckedWorker(intlinalg._SmithWorker):
    """The live worker, checking its index of nonempty rows before each scan."""

    def pick_pivot(self, t):
        assert self.live == [i for i, row in enumerate(self.rows) if row]
        return super().pick_pivot(t)

    def offending_row(self, t):
        assert self.live == [i for i, row in enumerate(self.rows) if row]
        return super().offending_row(t)


def _sparse_row_cases(seed):
    """Rank-deficient inputs full of empty rows, as the Tate pipeline factors.

    A conjugate U R U^-1 of a tensor rotation R, minus the identity, has
    rank n minus the number of orbits; its row-reduced form empties many
    rows.  The other cases interleave zero rows (and columns) with the
    rows of the seeded SNF cases.
    """
    rng = random.Random(seed)
    for d, m in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]:
        rot = rotation_matrix(d, m)
        n = rot.rows
        for _ in range(3):
            u, u_inv = random_unimodular(n, rng)
            a = u * rot * u_inv - IntMatrix.identity(n)
            yield _shuffled(n, n, dict(entries(a)), rng)
    for base in _snf_cases(seed, 40):
        gap = rng.randint(1, 3)
        rows = base.rows * (gap + 1) + rng.randint(0, 2)
        cols = base.cols + rng.randint(0, 3)
        data = {(gap * (i + 1) + i, j): v for (i, j), v in entries(base).items()}
        yield _shuffled(rows, cols, data, rng)


def test_snf_on_empty_rows_matches_reference_pivoting(monkeypatch):
    mats = list(_sparse_row_cases(99))
    assert any(not m.by_row.keys() >= set(range(m.rows)) for m in mats)
    monkeypatch.setattr(intlinalg, "_SmithWorker", _CheckedWorker)
    got = [[smith_normal_form(m, **transforms) for m in mats] for transforms in TRANSFORMS]
    _assert_matches_reference(mats, got, monkeypatch)


def _snf_assignments(tree):
    """(line, unpacked targets, keywords, enclosing function) of each call
    of smith_normal_form in a module; a call not unpacked has targets None."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "smith_normal_form"):
            continue
        owner = parents[node]
        targets = None
        if isinstance(owner, ast.Assign) and isinstance(owner.targets[0], ast.Tuple):
            targets = owner.targets[0].elts
        scope = owner
        while not isinstance(scope, ast.FunctionDef):
            scope = parents[scope]
        keywords = {k.arg: k.value.value for k in node.keywords}
        yield node.lineno, targets, keywords, scope


def _reads(target, scope, tree):
    """Is the name or attribute bound by target read again?"""
    if isinstance(target, ast.Name):
        return any(isinstance(n, ast.Name) and n.id == target.id and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(scope))
    return any(isinstance(n, ast.Attribute) and n.attr == target.attr
               and isinstance(n.ctx, ast.Load) for n in ast.walk(tree))


def test_src_callers_build_only_the_transforms_they_read():
    # each of V and U^-1 costs an update per elimination step: a caller
    # asks for one exactly when it reads it, and reads U, which is always built
    src = pathlib.Path(intlinalg.__file__).parent
    seen = 0
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for line, targets, keywords, scope in _snf_assignments(tree):
            where = f"{path.name}:{line}"
            seen += 1
            assert targets is not None and len(targets) == 4, where
            assert set(keywords) <= {"v", "u_inv"} and all(v is True for v in keywords.values()), where
            u, _, v, u_inv = (None if isinstance(t, ast.Name) and t.id == "_" else t
                              for t in targets)
            assert u is not None and _reads(u, scope, tree), where
            for name, target in (("v", v), ("u_inv", u_inv)):
                assert (name in keywords) == (target is not None), where
                assert target is None or _reads(target, scope, tree), where
    assert seen == 3


def _oracle_solve_column(a, b):
    """One solution of a*x = b read off smith_normal_form, or None."""
    u, d, v, _ = smith_normal_form(a, v=True)
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
        assert list(entries(got).items()) == list(entries(want).items())
    assert unsolvable


# Layout oracle: the flat-dict matrix that IntMatrix stored before it kept
# rows.  Its entry order is one flat list; the pivot scan reads each row in
# the order that list gives it, so the row-major IntMatrix must give every
# row the same entries in the same order.


class _FlatReference:
    """Integer matrix as one dict {(i, j): value}, entries in insertion order."""

    def __init__(self, rows, cols, data=None):
        self.rows, self.cols = rows, cols
        self.data = {k: int(v) for k, v in (data or {}).items() if v}

    @staticmethod
    def from_rows(rows, cols=None):
        c = cols if cols is not None else (len(rows[0]) if rows else 0)
        return _FlatReference(len(rows), c, {(i, j): v for i, row in enumerate(rows)
                                             for j, v in enumerate(row)})

    @staticmethod
    def from_columns(cols, rows=None):
        r = rows if rows is not None else (len(cols[0]) if cols else 0)
        return _FlatReference(r, len(cols), {(i, j): v for j, col in enumerate(cols)
                                             for i, v in enumerate(col)})

    @staticmethod
    def identity(n):
        return _FlatReference(n, n, {(i, i): 1 for i in range(n)})

    def __add__(self, other):
        data = dict(self.data)
        for k, v in other.data.items():
            s = data.get(k, 0) + v
            if s:
                data[k] = s
            else:
                data.pop(k, None)
        return _FlatReference(self.rows, self.cols, data)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return _FlatReference(self.rows, self.cols, {k: c * v for k, v in self.data.items()})

    def __mul__(self, other):
        by_row, other_rows = {}, {}
        for (i, j), v in self.data.items():
            by_row.setdefault(i, {})[j] = v
        for (i, j), v in other.data.items():
            other_rows.setdefault(i, {})[j] = v
        data = {}
        for i, row in by_row.items():
            acc = {}
            for k, a in row.items():
                for j, b in other_rows.get(k, {}).items():
                    acc[j] = acc.get(j, 0) + a * b
            data.update(((i, j), s) for j, s in acc.items() if s)
        return _FlatReference(self.rows, other.cols, data)

    def hstack(self, other):
        data = dict(self.data)
        data.update(((i, j + self.cols), v) for (i, j), v in other.data.items())
        return _FlatReference(self.rows, self.cols + other.cols, data)

    def take_columns(self, idx):
        pos = {j: t for t, j in enumerate(idx)}
        return _FlatReference(self.rows, len(idx), {(i, pos[j]): v for (i, j), v in
                                                    self.data.items() if j in pos})

    def take_rows(self, idx):
        pos = {i: t for t, i in enumerate(idx)}
        return _FlatReference(len(idx), self.cols, {(pos[i], j): v for (i, j), v in
                                                     self.data.items() if i in pos})


def _flat_matrix_mod(m, moduli):
    return _FlatReference(m.rows, m.cols, {(i, j): v % moduli[i] if moduli[i] else v
                                           for (i, j), v in m.data.items()})


def _flat_kron(a, b):
    return _FlatReference(a.rows * b.rows, a.cols * b.cols, {
        (i * b.rows + k, j * b.cols + l): u * v
        for (i, j), u in a.data.items() for (k, l), v in b.data.items()})


def _flat_snf(m, monkeypatch):
    """(U, D, V, U^-1) of a flat matrix: the worker reads its entries in flat order."""
    workers = []

    class _FlatWorker(intlinalg._SmithWorker):
        def __init__(self, flat, v, u_inv):
            self.r, self.c = flat.rows, flat.cols
            self.rows = [dict() for _ in range(flat.rows)]
            self.colindex = [set() for _ in range(flat.cols)]
            for (i, j), v in flat.data.items():
                self.rows[i][j] = v
                self.colindex[j].add(i)
            self.live = sorted(i for i, row in enumerate(self.rows) if row)
            self.urows = [{i: 1} for i in range(flat.rows)]
            self.uinvcols = [{i: 1} for i in range(flat.rows)]
            self.vcols = [{j: 1} for j in range(flat.cols)]
            self.floor = 1
            workers.append(self)

    with monkeypatch.context() as mp:
        mp.setattr(intlinalg, "_SmithWorker", _FlatWorker)
        smith_normal_form(m, v=True, u_inv=True)
    w = workers[0]

    def by_rows(rows, n, c):
        return _FlatReference(n, c, {(i, j): v for i, row in enumerate(rows) for j, v in row.items()})

    def by_cols(cols, n, c):
        return _FlatReference(n, c, {(i, j): v for j, col in enumerate(cols) for i, v in col.items()})

    return (by_rows(w.urows, w.r, w.r), by_rows(w.rows, w.r, w.c),
            by_cols(w.vcols, w.c, w.c), by_cols(w.uinvcols, w.r, w.r))


def _flat_solve(a, b, monkeypatch):
    u, d, v, _ = _flat_snf(a, monkeypatch)
    diag = {i: x for (i, _), x in d.data.items()}
    y = {}
    for (i, j), s in (u * b).data.items():
        if i not in diag or s % diag[i]:
            return None
        y[(i, j)] = s // diag[i]
    x = v * _FlatReference(a.cols, b.cols, y)
    return _FlatReference(x.rows, x.cols, dict(sorted(x.data.items(), key=lambda e: e[0][::-1])))


def _assert_same_layout(got: IntMatrix, ref: _FlatReference):
    """Same shape and entries, and each row lists them in the reference's order."""
    assert (got.rows, got.cols) == (ref.rows, ref.cols)
    ref_rows = {}
    for (i, j), v in ref.data.items():
        ref_rows.setdefault(i, []).append((j, v))
    assert {i: list(row.items()) for i, row in got.by_row.items()} == ref_rows


def _layout_pair(r, c, data):
    """The same shuffled entries as an IntMatrix and as a flat reference."""
    return IntMatrix(r, c, data), _FlatReference(r, c, data)


def _layout_cases(seed):
    """Seeded (IntMatrix, flat reference) pairs of every shape the library builds."""
    rng = random.Random(seed)
    for m in _snf_cases(seed, 60):
        yield _layout_pair(m.rows, m.cols, entries(m))
    for r, c in [(0, 0), (0, 3), (3, 0), (3, 4)]:  # empty and all-zero
        yield _layout_pair(r, c, {})
    for _ in range(6):  # permutations
        n = rng.randint(1, 12)
        perm = list(range(n))
        rng.shuffle(perm)
        items = [((perm[j], j), rng.choice([-1, 1])) for j in range(n)]
        rng.shuffle(items)
        yield _layout_pair(n, n, dict(items))


def _random_flat(rng, r, c, density=0.4):
    items = [((i, j), rng.randint(-4, 4)) for i in range(r) for j in range(c)
             if rng.random() < density]
    rng.shuffle(items)
    return dict(items)


def test_row_layout_matches_flat_reference(monkeypatch):
    rng = random.Random(4242)
    for m, ref in _layout_cases(4242):
        r, c = m.rows, m.cols
        _assert_same_layout(m, ref)
        # products on both sides, including a one-entry-per-row factor
        k = rng.randint(0, 6)
        for om, oref in (_layout_pair(c, k, _random_flat(rng, c, k)),
                         (IntMatrix.identity(c), _FlatReference.identity(c))):
            _assert_same_layout(m * om, ref * oref)
        for om, oref in (_layout_pair(k, r, _random_flat(rng, k, r)),
                         (IntMatrix.identity(r), _FlatReference.identity(r))):
            _assert_same_layout(om * m, oref * ref)
        # sums that cancel whole rows, and single entries within rows
        flip = {k: -v for k, v in entries(m).items() if rng.random() < 0.5}
        other = dict(list(flip.items()) + list(_random_flat(rng, r, c, 0.3).items()))
        items = list(other.items())
        rng.shuffle(items)
        om, oref = _layout_pair(r, c, dict(items))
        _assert_same_layout(m + om, ref + oref)
        _assert_same_layout(m - om, ref - oref)
        _assert_same_layout(om + m, oref + ref)
        for s in (-2, -1, 0, 1, 3):
            _assert_same_layout(m.scale(s), ref.scale(s))
        om, oref = _layout_pair(r, 3, _random_flat(rng, r, 3))
        _assert_same_layout(m.hstack(om), ref.hstack(oref))
        _assert_same_layout(om.hstack(m), oref.hstack(ref))
        rows = rng.sample(range(r), rng.randint(0, r))
        cols = rng.sample(range(c), rng.randint(0, c))
        _assert_same_layout(m.take_rows(rows), ref.take_rows(rows))
        _assert_same_layout(m.take_columns(cols), ref.take_columns(cols))
        moduli = [rng.choice([0, 1, 2, 3, 4, 9]) for _ in range(r)]
        _assert_same_layout(matrix_mod(m, moduli), _flat_matrix_mod(ref, moduli))
        if r * c <= 16:
            om, oref = _layout_pair(2, 3, _random_flat(rng, 2, 3, 0.6))
            _assert_same_layout(intlinalg.kron(m, om), _flat_kron(ref, oref))
            _assert_same_layout(intlinalg.kron(om, m), _flat_kron(oref, ref))
        dense = m.to_rows()
        _assert_same_layout(IntMatrix.from_rows(dense, cols=c), _FlatReference.from_rows(dense, cols=c))
        columns = [[row[j] for row in dense] for j in range(c)]
        _assert_same_layout(IntMatrix.from_columns(columns, rows=r),
                            _FlatReference.from_columns(columns, rows=r))
        _assert_same_layout(IntMatrix.identity(r), _FlatReference.identity(r))
        for got, want in zip(smith_normal_form(m, v=True, u_inv=True), _flat_snf(ref, monkeypatch)):
            _assert_same_layout(got, want)


def test_solve_layout_matches_flat_reference(monkeypatch):
    solved = 0
    for a, b in _solve_cases(77):
        fa, fb = _FlatReference(a.rows, a.cols, entries(a)), _FlatReference(b.rows, b.cols, entries(b))
        got, want = solve_int_matrix(a, b), _flat_solve(fa, fb, monkeypatch)
        assert (got is None) == (want is None)
        if got is not None:
            solved += 1
            _assert_same_layout(got, want)
            # rows in the order the column-major entries first reach them
            assert list(entries(got).items()) == list(entries(IntMatrix(want.rows, want.cols,
                                                                        want.data)).items())
    assert solved


def test_public_constructor_validates():
    with pytest.raises(ValueError):
        IntMatrix(-1, 2)
    with pytest.raises(ValueError):
        IntMatrix(2, -1)
    for key in [(2, 0), (0, 3), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            IntMatrix(2, 3, {key: 1})
    m = IntMatrix(2, 3, {(0, 2): 0, (1, 0): True, (1, 2): 5.0, (0, 1): -3})
    assert m.nnz() == 3
    assert list(entries(m).items()) == [((1, 0), 1), ((1, 2), 5), ((0, 1), -3)]
    assert all(type(v) is int for v in entries(m).values())
    assert m == IntMatrix.from_rows([[0, -3, 0], [1, 0, 5]])
    for bad in (lambda: IntMatrix.identity(-1), lambda: IntMatrix.from_rows([], cols=-1),
                lambda: IntMatrix.from_columns([], rows=-1)):
        with pytest.raises(ValueError):
            bad()
