"""Exact integer matrices, Smith normal form, and lattice solves.

Everything here is pure integer arithmetic on sparse matrices.  The Smith
normal form drives kernels, cokernels, lattice membership and quotient
presentations for the rest of the library, so its contract is strict:
``smith_normal_form(m, v=True, u_inv=True)`` returns (U, D, V, U^-1) with
U*m*V = D exactly, U and V unimodular, U^-1 the inverse of U, and the
diagonal of D nonnegative with d1 | d2 | ... .  U and D are always built;
V and U^-1 only when asked for, and None otherwise, so each caller builds
exactly the transforms it reads: presentations and fixed lattices read
U^-1, solves and kernels read V.  Which transforms are asked for changes
none of the entries, nor their order, of the ones returned.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Sequence, Tuple


class IntMatrix:
    """Immutable sparse integer matrix, stored by rows.

    ``by_row`` maps a row index to ``{column: value}`` for the nonzero
    entries of that row; a row with no nonzero entry is absent.  The entry
    order inside each row is part of the value: ``smith_normal_form``
    reads it to choose pivots, so every operation here keeps it.  Row
    dicts are shared between matrices and never mutated.

    ``IntMatrix(rows, cols, data)`` takes a dict of ``(i, j): value``
    entries, checks the shape and the indices, drops zeros and coerces to
    ``int``.  ``IntMatrix._trusted`` takes ready-made rows and checks
    nothing; only this module and ``abgroups`` call it.
    """

    __slots__ = ("rows", "cols", "by_row")

    def __init__(self, rows: int, cols: int, data: Optional[Dict[Tuple[int, int], int]] = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        by_row: Dict[int, Dict[int, int]] = {}
        if data:
            for (i, j), v in data.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError("entry out of range")
                if v and (v := int(v)):
                    by_row.setdefault(i, {})[j] = v
        self.by_row = by_row

    @classmethod
    def _trusted(cls, rows: int, cols: int, by_row: Dict[int, Dict[int, int]]) -> "IntMatrix":
        """A matrix on ready-made rows: in range, nonzero ints, no empty row."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.by_row = by_row
        return m

    # construction helpers

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        r = len(rows)
        c = cols if cols is not None else (len(rows[0]) if r else 0)
        if c < 0:
            raise ValueError("negative matrix dimensions")
        by_row = {}
        for i, row in enumerate(rows):
            if len(row) != c:
                raise ValueError("ragged rows")
            out = {j: w for j, v in enumerate(row) if v and (w := int(v))}
            if out:
                by_row[i] = out
        return IntMatrix._trusted(r, c, by_row)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError("negative matrix dimensions")
        return IntMatrix._trusted(n, n, {i: {i: 1} for i in range(n)})

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        c = len(cols)
        r = rows if rows is not None else (len(cols[0]) if c else 0)
        if r < 0:
            raise ValueError("negative matrix dimensions")
        if any(len(col) != r for col in cols):
            raise ValueError("ragged columns")
        sparse = [{i: w for i, v in enumerate(col) if v and (w := int(v))} for col in cols]
        return IntMatrix._trusted(r, c, _rows_of_columns(sparse))

    # basic queries

    def entry(self, i: int, j: int) -> int:
        row = self.by_row.get(i)
        return row.get(j, 0) if row else 0

    def to_rows(self) -> List[List[int]]:
        out = [[0] * self.cols for _ in range(self.rows)]
        for i, row in self.by_row.items():
            for j, v in row.items():
                out[i][j] = v
        return out

    def is_zero(self) -> bool:
        return not self.by_row

    def nnz(self) -> int:
        return sum(map(len, self.by_row.values()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.by_row == other.by_row
        )

    def __hash__(self):
        return hash((self.rows, self.cols,
                     frozenset((i, frozenset(row.items())) for i, row in self.by_row.items())))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    # arithmetic

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        by_row = dict(self.by_row)
        for i, orow in other.by_row.items():
            row = by_row.get(i)
            if row is None:
                by_row[i] = orow
                continue
            row = dict(row)
            for j, v in orow.items():
                s = row.get(j, 0) + v
                if s:
                    row[j] = s
                else:
                    del row[j]
            if row:
                by_row[i] = row
            else:
                del by_row[i]
        return IntMatrix._trusted(self.rows, self.cols, by_row)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        if c == 0:
            return IntMatrix.zero(self.rows, self.cols)
        return IntMatrix._trusted(
            self.rows,
            self.cols,
            {i: {j: c * v for j, v in row.items()} for i, row in self.by_row.items()},
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in mul")
        other_rows = other.by_row
        by_row: Dict[int, Dict[int, int]] = {}
        for i, row in self.by_row.items():
            if len(row) == 1:
                # a multiple of one row of other; a unit shares that row
                [(k, a)] = row.items()
                orow = other_rows.get(k)
                if orow:
                    by_row[i] = orow if a == 1 else {j: a * b for j, b in orow.items()}
                continue
            acc: Dict[int, int] = {}
            for k, a in row.items():
                orow = other_rows.get(k)
                if not orow:
                    continue
                for j, b in orow.items():
                    acc[j] = acc.get(j, 0) + a * b
            if not all(acc.values()):
                acc = {j: s for j, s in acc.items() if s}
            if acc:
                by_row[i] = acc
        return IntMatrix._trusted(self.rows, other.cols, by_row)

    def apply(self, vec: Sequence[int]) -> List[int]:
        """Matrix-vector product (vector as a plain list)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [0] * self.rows
        for i, row in self.by_row.items():
            out[i] = sum(v * vec[j] for j, v in row.items())
        return out

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        shift = self.cols
        by_row = dict(self.by_row)
        for i, orow in other.by_row.items():
            moved = {j + shift: v for j, v in orow.items()}
            row = by_row.get(i)
            if row is None:
                by_row[i] = moved
            else:
                row = dict(row)
                row.update(moved)
                by_row[i] = row
        return IntMatrix._trusted(self.rows, self.cols + other.cols, by_row)

    def transpose(self) -> "IntMatrix":
        """The transpose; row j lists its entries in the row order of self."""
        by_row: Dict[int, Dict[int, int]] = {}
        for i, row in self.by_row.items():
            for j, v in row.items():
                out = by_row.get(j)
                if out is None:
                    by_row[j] = out = {}
                out[i] = v
        return IntMatrix._trusted(self.cols, self.rows, by_row)

    def take_columns(self, idx: Sequence[int]) -> "IntMatrix":
        pos = {j: t for t, j in enumerate(idx)}
        by_row = {}
        for i, row in self.by_row.items():
            out = {pos[j]: v for j, v in row.items() if j in pos}
            if out:
                by_row[i] = out
        return IntMatrix._trusted(self.rows, len(idx), by_row)

    def take_rows(self, idx: Sequence[int]) -> "IntMatrix":
        pos = {i: t for t, i in enumerate(idx)}
        by_row = {pos[i]: row for i, row in self.by_row.items() if i in pos}
        return IntMatrix._trusted(len(idx), self.cols, by_row)


def _axpy(dst: Dict[int, int], src: Dict[int, int], q: int) -> None:
    """dst -= q * src on sparse vectors, dropping entries that cancel."""
    for j, v in src.items():
        s = dst.get(j, 0) - q * v
        if s:
            dst[j] = s
        else:
            dst.pop(j, None)


class _SmithWorker:
    """Mutable row-dict workspace for the Smith reduction.

    U is always tracked; V and U^-1 only when asked for, and ``vcols`` and
    ``uinvcols`` are None otherwise.
    """

    def __init__(self, m: IntMatrix, v: bool, u_inv: bool):
        self.r = m.rows
        self.c = m.cols
        self.rows: List[Dict[int, int]] = [dict() for _ in range(m.rows)]
        self.colindex: List[set] = [set() for _ in range(m.cols)]
        for i, row in m.by_row.items():
            self.rows[i] = dict(row)
            for j in row:
                self.colindex[j].add(i)
        # the nonempty rows, ascending; the pivot scans read only these
        self.live: List[int] = sorted(i for i, row in m.by_row.items() if row)
        # U tracks row ops (U*m), V tracks col ops (m*V); stored same way.
        # U^-1 is kept by columns: a row op U -> E*U turns U^-1 into
        # U^-1 * E^-1, which is a column op.
        self.urows: List[Dict[int, int]] = [{i: 1} for i in range(m.rows)]
        self.uinvcols: Optional[List[Dict[int, int]]] = (
            [{i: 1} for i in range(m.rows)] if u_inv else None)
        self.vcols: Optional[List[Dict[int, int]]] = (
            [{j: 1} for j in range(m.cols)] if v else None)
        # the last pivot placed; it divides every entry of the trailing block
        self.floor = 1

    def row_axpy(self, q: int, src: int, dst: int) -> None:
        """row[dst] -= q * row[src], mirrored in U and (as col[src] += q * col[dst]) in U^-1."""
        if q == 0:
            return
        row, colindex = self.rows[dst], self.colindex
        for j, v in self.rows[src].items():
            s = row.get(j, 0) - q * v
            if s:
                # row dst can empty and fill again within one operation
                if not row:
                    insort(self.live, dst)
                row[j] = s
                colindex[j].add(dst)
            else:
                del row[j]
                colindex[j].discard(dst)
                if not row:
                    del self.live[bisect_left(self.live, dst)]
        _axpy(self.urows[dst], self.urows[src], q)
        if self.uinvcols is not None:
            _axpy(self.uinvcols[src], self.uinvcols[dst], -q)

    def reduce_row_entry(self, t: int, j: int) -> int:
        """Entry (t, j) reduced by col[j] -= q * col[t], q = entry // pivot; returns what is left.

        Column t holds only the pivot once it is cleared, so that column
        operation moves entry (t, j) and V and nothing else, and row t
        keeps its pivot.
        """
        row = self.rows[t]
        q, left = divmod(row[j], row[t])
        if left:
            row[j] = left
        else:
            del row[j]
            self.colindex[j].discard(t)
        if self.vcols is not None:
            _axpy(self.vcols[j], self.vcols[t], q)
        return left

    def swap_rows(self, a: int, b: int) -> None:
        """Swap two rows, moving only the index entries that change.

        A column only one of the two rows fills trades that row for the
        other in its index; a column both fill keeps its index as it is.
        """
        if a == b:
            return
        ra, rb, colindex = self.rows[a], self.rows[b], self.colindex
        for j in ra:
            if j not in rb:
                col = colindex[j]
                col.discard(a)
                col.add(b)
        for j in rb:
            if j not in ra:
                col = colindex[j]
                col.discard(b)
                col.add(a)
        if bool(ra) != bool(rb):
            # one of the two is empty: the index trades the full one for it
            full, empty = (a, b) if ra else (b, a)
            del self.live[bisect_left(self.live, full)]
            insort(self.live, empty)
        self.rows[a], self.rows[b] = rb, ra
        self.urows[a], self.urows[b] = self.urows[b], self.urows[a]
        if self.uinvcols is not None:
            self.uinvcols[a], self.uinvcols[b] = self.uinvcols[b], self.uinvcols[a]

    def swap_cols(self, a: int, b: int) -> None:
        """Swap two columns in place, and their indices whole.

        A row keeps the places of entries in both columns and moves a lone
        entry to its end, so its entry order stays a pivot input.
        """
        if a == b:
            return
        rows, colindex = self.rows, self.colindex
        for i in colindex[a] | colindex[b]:
            row = rows[i]
            if a not in row:
                row[a] = row.pop(b)
            elif b in row:
                row[a], row[b] = row[b], row[a]
            else:
                row[b] = row.pop(a)
        colindex[a], colindex[b] = colindex[b], colindex[a]
        if self.vcols is not None:
            self.vcols[a], self.vcols[b] = self.vcols[b], self.vcols[a]

    def negate_row(self, i: int) -> None:
        vecs = [self.rows[i], self.urows[i]]
        if self.uinvcols is not None:
            vecs.append(self.uinvcols[i])
        for vec in vecs:
            for j in vec:
                vec[j] = -vec[j]

    def pick_pivot(self, t: int) -> Optional[Tuple[int, int]]:
        """A nonzero entry of minimal |value| in the trailing block.

        In row t the first unit in dict order wins; otherwise the least
        (|value|, i, j) wins.  No entry is smaller than ``floor``, so once a
        row holds an entry of that size no later row can beat it, and the
        scan stops there.  Empty rows hold no candidate, so only the rows
        in ``live`` are read.
        """
        best = None
        live, rows = self.live, self.rows
        for k in range(bisect_left(live, t), len(live)):
            i = live[k]
            for j, v in rows[i].items():
                if j < t:
                    continue
                key = (abs(v), i, j)
                if best is None or key < best:
                    best = key
                    if key[0] == 1 and i == t:
                        break
            if best is not None and best[0] == self.floor:
                break
        if best is None:
            return None
        return best[1], best[2]

    def offending_row(self, t: int) -> Optional[int]:
        """First row below t with an entry right of t not divisible by the pivot.

        A pivot of size ``floor`` divides every entry already.
        """
        p = self.rows[t][t]
        if abs(p) == self.floor:
            return None
        live = self.live
        for k in range(bisect_left(live, t + 1), len(live)):
            i = live[k]
            if any(j > t and v % p for j, v in self.rows[i].items()):
                return i
        return None


def smith_normal_form(m: IntMatrix, *, v: bool = False, u_inv: bool = False
                      ) -> Tuple[IntMatrix, IntMatrix, Optional[IntMatrix], Optional[IntMatrix]]:
    """Return (U, D, V, U^-1) with U*m*V = D, U and V unimodular, D in Smith form.

    Only U and D are always built: V is None unless ``v`` is set, and
    U^-1 is None unless ``u_inv`` is set, so a caller pays for exactly
    the transforms it reads.  Asking for one changes none of the others.

    Pivot policy: see ``_SmithWorker.pick_pivot``.  It reads each row of
    ``m`` in its entry order, so that order is an input: two matrices with
    equal entries listed in a different order within a row can give
    different U and V.  Column t is cleared in ascending row order, so the
    history of the column indices steers nothing: outputs are
    bit-reproducible for a fixed entry order.  D and U take the rows the
    reduction leaves; V and U^-1 are assembled column by column, so each
    of their rows lists its entries by ascending column.
    """
    w = _SmithWorker(m, v, u_inv)
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
            p = w.rows[t][t]
            # clear column t, in ascending row order
            changed = False
            for i in sorted(w.colindex[t]):
                if i <= t:
                    continue
                w.row_axpy(w.rows[i][t] // p, t, i)
                if w.rows[i].get(t, 0):
                    # remainder smaller than |p|: promote it to pivot
                    w.swap_rows(t, i)
                    changed = True
                    break
            if changed:
                continue
            # clear row t, now that column t holds only the pivot
            for j in [j for j in w.rows[t] if j > t]:
                if w.reduce_row_entry(t, j):
                    w.swap_cols(t, j)
                    break
            else:
                break
        # divisibility sweep: pivot must divide the rest of the block
        bad = w.offending_row(t)
        if bad is not None:
            w.row_axpy(-1, bad, t)  # add offending row onto pivot row
            continue  # redo this pivot index
        if w.rows[t][t] < 0:
            w.negate_row(t)
        w.floor = w.rows[t][t]
        t += 1
    D = IntMatrix._trusted(w.r, w.c, {i: row for i, row in enumerate(w.rows) if row})
    U = IntMatrix._trusted(w.r, w.r, dict(enumerate(w.urows)))
    V = U_inv = None
    if w.vcols is not None:
        V = IntMatrix._trusted(w.c, w.c, _rows_of_columns(w.vcols))
    if w.uinvcols is not None:
        U_inv = IntMatrix._trusted(w.r, w.r, _rows_of_columns(w.uinvcols))
    return U, D, V, U_inv


def _rows_of_columns(cols: List[Dict[int, int]]) -> Dict[int, Dict[int, int]]:
    """Rows of the matrix with the given sparse columns, rows in first-column order."""
    by_row: Dict[int, Dict[int, int]] = {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            row = by_row.get(i)
            if row is None:
                by_row[i] = row = {}
            row[j] = v
    return by_row


class _SolveContext:
    """Factor A once, answer many A*X = B queries."""

    def __init__(self, a: IntMatrix):
        self.a = a
        self.u, d, self.v, _ = smith_normal_form(a, v=True)
        self.diag = {i: row[i] for i, row in d.by_row.items()}
        self.rank = len(self.diag)

    def solve_matrix(self, b: IntMatrix) -> Optional[IntMatrix]:
        """X = V * D^-1 * U * B with A*X = B, or None when a column has no solution.

        Each row of X lists its entries by ascending column, and the rows
        come in order of their first column, then of row index: X is laid
        out as if built from its entries listed column-major.
        """
        y = {}
        for i, row in (self.u * b).by_row.items():
            di = self.diag.get(i)
            if di is None:
                return None
            out = {}
            for j, s in row.items():
                if s % di:
                    return None
                out[j] = s // di
            y[i] = out
        x = self.v * IntMatrix._trusted(self.a.cols, b.cols, y)
        rows = {i: dict(sorted(row.items())) for i, row in x.by_row.items()}
        order = sorted(rows, key=lambda i: (next(iter(rows[i])), i))
        return IntMatrix._trusted(x.rows, x.cols, {i: rows[i] for i in order})

    def kernel(self) -> IntMatrix:
        """Columns form a basis of the integer kernel of A."""
        return self.v.take_columns(range(self.rank, self.a.cols))


def solve_int(a: IntMatrix, b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution x of a*x = b, or None when none exists."""
    x = _SolveContext(a).solve_matrix(IntMatrix.from_columns([b], rows=a.rows))
    return None if x is None else [row[0] for row in x.to_rows()]


def solve_int_matrix(a: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """X with a*X = b over the integers, or None."""
    return _SolveContext(a).solve_matrix(b)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of {x : a*x = 0} as matrix columns (saturated lattice)."""
    return _SolveContext(a).kernel()


def matrix_mod(m: IntMatrix, moduli: Sequence[int]) -> IntMatrix:
    """Reduce row i modulo moduli[i] (0 means no reduction).

    A row that is already reduced is shared with m, not copied.
    """
    by_row = {}
    for i, row in m.by_row.items():
        mod = moduli[i]
        if mod:
            for v in row.values():
                if not 0 <= v < mod:
                    row = {j: w for j, v in row.items() if (w := v % mod)}
                    break
            if not row:
                continue
        by_row[i] = row
    return IntMatrix._trusted(m.rows, m.cols, by_row)


def random_unimodular(n: int, rng) -> Tuple[IntMatrix, IntMatrix]:
    """Seeded unimodular U and its inverse, from up to twelve row operations.

    Each row operation E on U (U -> E*U) is mirrored on U^-1 as the column
    operation U^-1 -> U^-1 * E^-1.  Every row of both lists its entries by
    ascending column.
    """
    urows: List[Dict[int, int]] = [{i: 1} for i in range(n)]
    invcols: List[Dict[int, int]] = [{i: 1} for i in range(n)]
    for _ in range(12):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        # row[i] += c * row[j]; on the inverse, col[j] -= c * col[i]
        _axpy(urows[i], urows[j], -c)
        _axpy(invcols[j], invcols[i], c)
    if rng.random() < 0.5 and n > 1:
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        urows[i], urows[j] = urows[j], urows[i]
        invcols[i], invcols[j] = invcols[j], invcols[i]
    u = {i: row if len(row) == 1 else dict(sorted(row.items())) for i, row in enumerate(urows)}
    return (IntMatrix._trusted(n, n, u),
            IntMatrix._trusted(n, n, _rows_of_columns(invcols)))


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product, block (i, j) equal to a[i, j] * b.

    Row (i, k) lists its entries by a's row i, then by b's row k.
    """
    br, bc = b.rows, b.cols
    by_row = {}
    for i, arow in a.by_row.items():
        for k, brow in b.by_row.items():
            by_row[i * br + k] = {j * bc + l: u * v for j, u in arow.items()
                                  for l, v in brow.items()}
    return IntMatrix._trusted(a.rows * br, a.cols * bc, by_row)


def kron_power(a: IntMatrix, m: int) -> IntMatrix:
    """The m-fold Kronecker power of a, for m >= 1."""
    out = a
    for _ in range(m - 1):
        out = kron(out, a)
    return out

