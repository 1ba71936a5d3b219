"""Exact integer matrices, Smith normal form, and lattice solves.

Everything here is pure integer arithmetic on sparse matrices.  The Smith
normal form drives kernels, cokernels, lattice membership and quotient
presentations for the rest of the library, so its contract is strict:
``smith_normal_form(m)`` returns (U, D, V, U^-1) with U*m*V = D exactly, U
and V unimodular, U^-1 the inverse of U, and the diagonal of D nonnegative
with d1 | d2 | ... .
"""

from __future__ import annotations

from math import isqrt
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class IntMatrix:
    """Immutable sparse integer matrix (dict of nonzero entries)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[Dict[Tuple[int, int], int]] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        d: Dict[Tuple[int, int], int] = {}
        if data:
            for (i, j), v in data.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError("entry out of range")
                if v:
                    d[(i, j)] = int(v)
        self.data = d

    # construction helpers

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        r = len(rows)
        c = cols if cols is not None else (len(rows[0]) if r else 0)
        data = {}
        for i, row in enumerate(rows):
            if len(row) != c:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    data[(i, j)] = int(v)
        return IntMatrix(r, c, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, {(i, i): 1 for i in range(n)})

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols)

    @staticmethod
    def diagonal(entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return IntMatrix(n, n, {(i, i): int(v) for i, v in enumerate(entries) if v})

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        c = len(cols)
        r = rows if rows is not None else (len(cols[0]) if c else 0)
        data = {}
        for j, col in enumerate(cols):
            if len(col) != r:
                raise ValueError("ragged columns")
            for i, v in enumerate(col):
                if v:
                    data[(i, j)] = int(v)
        return IntMatrix(r, c, data)

    # basic queries

    def entry(self, i: int, j: int) -> int:
        return self.data.get((i, j), 0)

    def to_rows(self) -> List[List[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.data.items():
            out[i][j] = v
        return out

    def column(self, j: int) -> List[int]:
        col = [0] * self.rows
        for (i, jj), v in self.data.items():
            if jj == j:
                col[i] = v
        return col

    def is_zero(self) -> bool:
        return not self.data

    def nnz(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(sorted(self.data.items()))))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, nnz={len(self.data)})"

    # arithmetic

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        data = dict(self.data)
        for k, v in other.data.items():
            s = data.get(k, 0) + v
            if s:
                data[k] = s
            else:
                data.pop(k, None)
        return IntMatrix(self.rows, self.cols, data)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        if c == 0:
            return IntMatrix.zero(self.rows, self.cols)
        return IntMatrix(self.rows, self.cols, {k: c * v for k, v in self.data.items()})

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        # row-major sparse product
        by_row: Dict[int, Dict[int, int]] = {}
        for (i, j), v in self.data.items():
            by_row.setdefault(i, {})[j] = v
        other_rows: Dict[int, Dict[int, int]] = {}
        for (i, j), v in other.data.items():
            other_rows.setdefault(i, {})[j] = v
        data: Dict[Tuple[int, int], int] = {}
        for i, row in by_row.items():
            acc: Dict[int, int] = {}
            for k, a in row.items():
                orow = other_rows.get(k)
                if not orow:
                    continue
                for j, b in orow.items():
                    acc[j] = acc.get(j, 0) + a * b
            for j, s in acc.items():
                if s:
                    data[(i, j)] = s
        return IntMatrix(self.rows, other.cols, data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.data.items()})

    def apply(self, vec: Sequence[int]) -> List[int]:
        """Matrix-vector product (vector as a plain list)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for (i, j), v in self.data.items():
            x = vec[j]
            if x:
                out[i] += v * x
        return out

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        data = dict(self.data)
        for (i, j), v in other.data.items():
            data[(i, j + self.cols)] = v
        return IntMatrix(self.rows, self.cols + other.cols, data)

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        data = dict(self.data)
        for (i, j), v in other.data.items():
            data[(i + self.rows, j)] = v
        return IntMatrix(self.rows + other.rows, self.cols, data)

    def take_columns(self, idx: Sequence[int]) -> "IntMatrix":
        pos = {j: t for t, j in enumerate(idx)}
        data = {}
        for (i, j), v in self.data.items():
            t = pos.get(j)
            if t is not None:
                data[(i, t)] = v
        return IntMatrix(self.rows, len(idx), data)

    def take_rows(self, idx: Sequence[int]) -> "IntMatrix":
        pos = {i: t for t, i in enumerate(idx)}
        data = {}
        for (i, j), v in self.data.items():
            t = pos.get(i)
            if t is not None:
                data[(t, j)] = v
        return IntMatrix(len(idx), self.cols, data)


def _axpy(dst: Dict[int, int], src: Dict[int, int], q: int) -> None:
    """dst -= q * src on sparse vectors, dropping entries that cancel."""
    for j, v in src.items():
        s = dst.get(j, 0) - q * v
        if s:
            dst[j] = s
        else:
            dst.pop(j, None)


class _SmithWorker:
    """Mutable row-dict workspace for the Smith reduction."""

    def __init__(self, m: IntMatrix):
        self.r = m.rows
        self.c = m.cols
        self.rows: List[Dict[int, int]] = [dict() for _ in range(m.rows)]
        self.colindex: List[set] = [set() for _ in range(m.cols)]
        for (i, j), v in m.data.items():
            self.rows[i][j] = v
            self.colindex[j].add(i)
        # U tracks row ops (U*m), V tracks col ops (m*V); stored same way.
        # U^-1 is kept by columns: a row op U -> E*U turns U^-1 into
        # U^-1 * E^-1, which is a column op.
        self.urows: List[Dict[int, int]] = [{i: 1} for i in range(m.rows)]
        self.uinvcols: List[Dict[int, int]] = [{i: 1} for i in range(m.rows)]
        self.vcols: List[Dict[int, int]] = [{j: 1} for j in range(m.cols)]

    def set_entry(self, i: int, j: int, v: int) -> None:
        if v:
            self.rows[i][j] = v
            self.colindex[j].add(i)
        else:
            if self.rows[i].pop(j, None) is not None:
                self.colindex[j].discard(i)

    def row_axpy(self, q: int, src: int, dst: int) -> None:
        """row[dst] -= q * row[src], mirrored in U and (as col[src] += q * col[dst]) in U^-1."""
        if q == 0:
            return
        for j, v in list(self.rows[src].items()):
            self.set_entry(dst, j, self.rows[dst].get(j, 0) - q * v)
        _axpy(self.urows[dst], self.urows[src], q)
        _axpy(self.uinvcols[src], self.uinvcols[dst], -q)

    def col_axpy(self, q: int, src: int, dst: int) -> None:
        """col[dst] -= q * col[src], mirrored in V."""
        if q == 0:
            return
        for i in list(self.colindex[src]):
            v = self.rows[i].get(src, 0)
            if v:
                self.set_entry(i, dst, self.rows[i].get(dst, 0) - q * v)
        _axpy(self.vcols[dst], self.vcols[src], q)

    def swap_rows(self, a: int, b: int) -> None:
        if a == b:
            return
        for j in set(self.rows[a]) | set(self.rows[b]):
            self.colindex[j].discard(a)
            self.colindex[j].discard(b)
        self.rows[a], self.rows[b] = self.rows[b], self.rows[a]
        for j in self.rows[a]:
            self.colindex[j].add(a)
        for j in self.rows[b]:
            self.colindex[j].add(b)
        self.urows[a], self.urows[b] = self.urows[b], self.urows[a]
        self.uinvcols[a], self.uinvcols[b] = self.uinvcols[b], self.uinvcols[a]

    def swap_cols(self, a: int, b: int) -> None:
        if a == b:
            return
        for i in list(self.colindex[a] | self.colindex[b]):
            va = self.rows[i].get(a, 0)
            vb = self.rows[i].get(b, 0)
            self.set_entry(i, a, vb)
            self.set_entry(i, b, va)
        self.vcols[a], self.vcols[b] = self.vcols[b], self.vcols[a]

    def negate_row(self, i: int) -> None:
        for vec in (self.rows[i], self.urows[i], self.uinvcols[i]):
            for j in vec:
                vec[j] = -vec[j]

    def pick_pivot(self, t: int) -> Optional[Tuple[int, int]]:
        """Nonzero entry of minimal |value| in the trailing block, ties by (i, j)."""
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


def smith_normal_form(m: IntMatrix) -> Tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V, U^-1) with U*m*V = D, U and V unimodular, D in Smith form.

    Pivot policy: minimal absolute value in the active block, deterministic
    (row, col) tie break, so outputs are bit-reproducible.
    """
    w = _SmithWorker(m)
    t = 0
    limit = min(w.r, w.c)
    while t < limit:
        piv = w.pick_pivot(t)
        if piv is None:
            break
        pi, pj = piv
        w.swap_rows(t, pi)
        w.swap_cols(t, pj)
        while True:
            p = w.rows[t].get(t, 0)
            # clear column t
            changed = False
            for i in list(w.colindex[t]):
                if i <= t:
                    continue
                v = w.rows[i].get(t, 0)
                if v:
                    q = v // p
                    w.row_axpy(q, t, i)
                    if w.rows[i].get(t, 0):
                        # remainder smaller than |p|: promote it to pivot
                        w.swap_rows(t, i)
                        changed = True
                        break
            if changed:
                continue
            # clear row t
            p = w.rows[t].get(t, 0)
            changed = False
            for j in [j for j in list(w.rows[t]) if j > t]:
                v = w.rows[t].get(j, 0)
                if v:
                    q = v // p
                    w.col_axpy(q, t, j)
                    if w.rows[t].get(j, 0):
                        w.swap_cols(t, j)
                        changed = True
                        break
            if changed:
                continue
            break
        # divisibility sweep: pivot must divide the rest of the block
        p = w.rows[t].get(t, 0)
        bad = None
        for i in range(t + 1, w.r):
            for j, v in w.rows[i].items():
                if j > t and v % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            w.row_axpy(-1, bad, t)  # add offending row onto pivot row
            continue  # redo this pivot index
        if p < 0:
            w.negate_row(t)
        t += 1
    # assemble dense-free outputs
    ddata = {}
    for i in range(w.r):
        for j, v in w.rows[i].items():
            ddata[(i, j)] = v
    D = IntMatrix(w.r, w.c, ddata)
    U = IntMatrix(w.r, w.r, {(i, j): v for i, row in enumerate(w.urows) for j, v in row.items()})
    V = IntMatrix(w.c, w.c, {(i, j): v for j, col in enumerate(w.vcols) for i, v in col.items()})
    U_inv = IntMatrix(w.r, w.r, {(i, j): v for j, col in enumerate(w.uinvcols) for i, v in col.items()})
    return U, D, V, U_inv


def smith_diagonal(m: IntMatrix) -> List[int]:
    """Nonzero-padded diagonal of the Smith form (length min(rows, cols))."""
    d = smith_normal_form(m)[1]
    return [d.entry(i, i) for i in range(min(m.rows, m.cols))]


class _SolveContext:
    """Factor A once, answer many A*x = b queries."""

    def __init__(self, a: IntMatrix):
        self.a = a
        self.u, self.d, self.v, _ = smith_normal_form(a)
        self.rank = sum(1 for i in range(min(a.rows, a.cols)) if self.d.entry(i, i))

    def solve(self, b: Sequence[int]) -> Optional[List[int]]:
        """One integer solution of A*x = b, or None."""
        ub = self.u.apply(list(b))
        y = [0] * self.a.cols
        for i in range(self.a.rows):
            di = self.d.entry(i, i) if i < self.a.cols else 0
            if di:
                if ub[i] % di:
                    return None
                y[i] = ub[i] // di
            else:
                if ub[i]:
                    return None
        return self.v.apply(y)

    def kernel(self) -> IntMatrix:
        """Columns form a basis of the integer kernel of A."""
        free = [j for j in range(self.a.cols) if j >= self.rank or self.d.entry(j, j) == 0]
        return self.v.take_columns(free)


def solve_int(a: IntMatrix, b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution x of a*x = b, or None when none exists."""
    return _SolveContext(a).solve(b)


def solve_int_matrix(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """X with a*X = b over the integers, or None."""
    ctx = _SolveContext(a)
    cols = []
    for j in range(b.cols):
        x = ctx.solve(b.column(j))
        if x is None:
            return None
        cols.append(x)
    return IntMatrix.from_columns(cols, rows=a.cols)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of {x : a*x = 0} as matrix columns (saturated lattice)."""
    return _SolveContext(a).kernel()


def lattice_contains(gens: IntMatrix, vec: Sequence[int]) -> bool:
    """Is vec in the column span (over Z) of gens?"""
    return solve_int(gens, vec) is not None


def lattice_contains_all(gens: IntMatrix, other: IntMatrix) -> bool:
    """Is every column of other in the column span of gens?"""
    return solve_int_matrix(gens, other) is not None


def matrix_mod(m: IntMatrix, moduli: Sequence[int]) -> IntMatrix:
    """Reduce row i modulo moduli[i] (0 means no reduction)."""
    data = {}
    for (i, j), v in m.data.items():
        mod = moduli[i]
        w = v % mod if mod else v
        if w:
            data[(i, j)] = w
    return IntMatrix(m.rows, m.cols, data)


def random_unimodular(n: int, rng, steps: int = 12) -> IntMatrix:
    """Seeded unimodular matrix built from elementary row operations."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
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


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product, block (i, j) equal to a[i, j] * b."""
    data = {}
    for (i, j), u in a.data.items():
        for (k, l), v in b.data.items():
            data[(i * b.rows + k, j * b.cols + l)] = u * v
    return IntMatrix(a.rows * b.rows, a.cols * b.cols, data)


def kron_power(a: IntMatrix, m: int) -> IntMatrix:
    """The m-fold Kronecker power of a, for m >= 1."""
    out = a
    for _ in range(m - 1):
        out = kron(out, a)
    return out


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime."""
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be a prime, got {p}")
