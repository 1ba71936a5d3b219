"""Truncated towers of differential forms with Frobenius and Verschiebung.

Builds, for a polynomial base F_p[x] (or F_p[x, y]), the initial tower of
weight-graded differential graded pieces carrying operators d, F, V, R and
a structure map from weight-graded truncated Witt vectors.  Pieces are not
hardcoded from a basis theorem: each piece starts from a finite spanning
set of operator words and is cut down by saturating a relation lattice
under the structural identities until nothing grows.

Degree-n spanning symbols are products

    V^i[x^mu] * dV^t1[x^m1] * ... * dV^tn[x^mn]

of one plain lifted-monomial factor and n differential factors, stored in
an eagerly rewritten canonical form.  All eager rewrites are consequences
of the operator identities over an F_p-algebra base (where p = V F), so
the quotient only ever shrinks toward the initial object, never past it.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .abgroups import (
    FgAbGroup,
    GroupHom,
    Presentation,
    induced_hom,
)
from .derham import DeRhamComplex
from .intlinalg import IntMatrix, require_prime
from .rings import GFPolyRing, ZModRing
from .witt import WittRing, teichmuller_character

Weight = Tuple[Fraction, ...]
Mono = Tuple[int, ...]
Symbol = Tuple

SATURATION_ROUND_LIMIT = 32


class SaturationError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# weights


def weight_of_mono(mono: Mono, idx: int, p: int) -> Weight:
    return tuple(Fraction(m, p ** idx) for m in mono)


def weight_add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def weight_sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def weight_down(w: Weight, p: int) -> Weight:
    return tuple(x / p for x in w)


def weight_up(w: Weight, p: int) -> Weight:
    return tuple(x * p for x in w)


def weight_total(w: Weight) -> Fraction:
    return sum(w, Fraction(0))


def denom_exp(w, p: int) -> int:
    """Largest e such that p^e divides a component denominator."""
    if not isinstance(w, tuple):
        w = (Fraction(w),)
    e = 0
    for comp in w:
        d = Fraction(comp).denominator
        k = 0
        while d > 1:
            if d % p:
                raise ValueError("weight denominator is not a p-power")
            d //= p
            k += 1
        e = max(e, k)
    return e


def weight_is_nonneg(w: Weight) -> bool:
    return all(c >= 0 for c in w)


def enumerate_weights(p: int, r: int, nvars: int, cap: int) -> List[Weight]:
    """Componentwise weights n/p^e with e < r and total at most cap."""
    per_comp: List[Fraction] = []
    for e in range(r):
        q = p ** e
        for n in range(0, cap * q + 1):
            if e > 0 and n % p == 0:
                continue
            per_comp.append(Fraction(n, q))
    per_comp = sorted(set(per_comp))
    out = []
    for combo in itertools.product(per_comp, repeat=nvars):
        if weight_total(combo) <= cap:
            out.append(combo)
    return sorted(set(out))


# ---------------------------------------------------------------------------
# canonical symbols
#
# degree 0: (0, i, mono)
# degree 1: (1, i, mono, t, dmono)
# degree 2: (2, i, mono, t1, dm1, t2, dm2)   with (t1, dm1) < (t2, dm2)


def _is_zero_mono(m: Mono) -> bool:
    return all(v == 0 for v in m)


def _mono_div_p(m: Mono, p: int) -> bool:
    return (not _is_zero_mono(m)) and all(v % p == 0 for v in m)


def _unit_slot(m: Mono) -> int:
    """Index j when m equals the j-th unit vector, else -1."""
    if sum(m) != 1 or any(v < 0 for v in m):
        return -1
    return m.index(1)


class SymbolCalculus:
    """Eager rewriting and operator actions on canonical symbols, base F_p."""

    def __init__(self, p: int, nvars: int):
        self.p = p
        self.nvars = nvars
        self.zero_mono: Mono = (0,) * nvars

    def _canon_lead(self, s: int, coeff: int, i: int, mono: Mono):
        p = self.p
        while i >= 1 and _mono_div_p(mono, p):
            coeff *= p
            i -= 1
            mono = tuple(v // p for v in mono)
        if _is_zero_mono(mono):
            coeff *= p ** i
            i = 0
        if i >= s:
            return None
        return coeff, i, mono

    def _merge_leads(self, coeff: int, i: int, a: Mono, j: int, b: Mono):
        """V^i[x^a] * V^j[x^b] = p^min(i,j) V^max[x^(a p^.. + b p^..)]."""
        p = self.p
        if i > j:
            i, j, a, b = j, i, b, a
        mono = tuple(x * p ** (j - i) + y for x, y in zip(a, b))
        return coeff * p ** i, j, mono

    def canon(self, s: int, coeff: int, i: int, mono: Mono,
              atoms: Sequence[Tuple[int, Mono]]) -> List[Tuple[int, Symbol]]:
        """Rewrite one raw term into a combination of canonical symbols."""
        p = self.p
        lead = self._canon_lead(s, coeff, i, mono)
        if lead is None:
            return []
        coeff, i, mono = lead
        pending = list(atoms)
        done: List[Tuple[int, Mono]] = []
        while pending:
            t, mv = pending.pop(0)
            if _is_zero_mono(mv):
                return []
            while t >= 1 and _mono_div_p(mv, p):
                coeff *= p
                t -= 1
                mv = tuple(v // p for v in mv)
            if t >= s:
                return []
            if t == 0 and _unit_slot(mv) < 0:
                # d[x^mv] = sum_j mv_j [x^(mv - e_j)] d[x_j]; the plain
                # factor merges into the lead
                out: List[Tuple[int, Symbol]] = []
                for j, mj in enumerate(mv):
                    if mj == 0:
                        continue
                    rest = tuple(v - (1 if k == j else 0)
                                 for k, v in enumerate(mv))
                    c2, i2, mono2 = self._merge_leads(coeff * mj, i, mono, 0, rest)
                    unit = tuple(1 if k == j else 0 for k in range(self.nvars))
                    out.extend(self.canon(s, c2, i2, mono2,
                                          done + [(0, unit)] + pending))
                return _combine(out)
            done.append((t, mv))
        deg = len(done)
        if deg == 0:
            return [(coeff, (0, i, mono))]
        if deg == 1:
            t, mv = done[0]
            return [(coeff, (1, i, mono, t, mv))]
        (t1, m1), (t2, m2) = done
        if (t1, m1) == (t2, m2):
            return []
        if (t1, m1) > (t2, m2):
            coeff = -coeff
            (t1, m1), (t2, m2) = (t2, m2), (t1, m1)
        return [(coeff, (2, i, mono, t1, m1, t2, m2))]

    def parts(self, sym: Symbol):
        deg = sym[0]
        atoms = []
        if deg >= 1:
            atoms.append((sym[3], sym[4]))
        if deg == 2:
            atoms.append((sym[5], sym[6]))
        return sym[1], sym[2], atoms

    def weight(self, sym: Symbol) -> Weight:
        i, mono, atoms = self.parts(sym)
        w = weight_of_mono(mono, i, self.p)
        for t, mv in atoms:
            w = weight_add(w, weight_of_mono(mv, t, self.p))
        return w

    # operators, each sending a canonical symbol to canonical combinations

    def apply_v(self, s: int, sym: Symbol) -> List[Tuple[int, Symbol]]:
        """V: level s -> level s + 1; every operator index shifts up."""
        i, mono, atoms = self.parts(sym)
        return self.canon(s + 1, 1, i + 1, mono, [(t + 1, mv) for t, mv in atoms])

    def apply_f(self, s: int, sym: Symbol) -> List[Tuple[int, Symbol]]:
        """F: level s -> level s - 1."""
        p = self.p
        i, mono, atoms = self.parts(sym)
        coeff = 1
        if i >= 1:
            coeff *= p
            new_i, new_mono = i - 1, mono
        else:
            new_i, new_mono = 0, tuple(v * p for v in mono)
        new_atoms = []
        for t, mv in atoms:
            if t >= 1:
                new_atoms.append((t - 1, mv))
            else:
                # F d[x_j] = [x_j^(p-1)] d[x_j]
                extra = tuple(v * (p - 1) for v in mv)
                c2, new_i, new_mono = self._merge_leads(1, new_i, new_mono, 0, extra)
                coeff *= c2
                new_atoms.append((0, mv))
        return self.canon(s - 1, coeff, new_i, new_mono, new_atoms)

    def apply_r(self, s_target: int, sym: Symbol) -> List[Tuple[int, Symbol]]:
        """Truncation onto a shorter tower; deep V factors die."""
        i, mono, atoms = self.parts(sym)
        return self.canon(s_target, 1, i, mono, atoms)

    def apply_d(self, s: int, sym: Symbol) -> List[Tuple[int, Symbol]]:
        deg = sym[0]
        if deg == 2:
            raise ValueError("d out of the stored degree range")
        i, mono, atoms = self.parts(sym)
        if i == 0 and _is_zero_mono(mono):
            return []  # d of a pure-differential symbol vanishes
        return self.canon(s, 1, 0, self.zero_mono, [(i, mono)] + atoms)

    def mul(self, s: int, sym_a: Symbol, sym_b: Symbol) -> List[Tuple[int, Symbol]]:
        dega, degb = sym_a[0], sym_b[0]
        if dega + degb > 2:
            raise ValueError("product degree out of range")
        ia, ma, at_a = self.parts(sym_a)
        ib, mb, at_b = self.parts(sym_b)
        coeff, i, mono = self._merge_leads(1, ia, ma, ib, mb)
        return self.canon(s, coeff, i, mono, at_a + at_b)


def _combine(terms: Iterable[Tuple[int, Symbol]]) -> List[Tuple[int, Symbol]]:
    acc: Dict[Symbol, int] = {}
    for c, sym in terms:
        acc[sym] = acc.get(sym, 0) + c
    return [(c, sym) for sym, c in acc.items() if c]


def symbol_label(sym: Symbol, varnames: Sequence[str] = ("x", "y")) -> str:
    def mono_str(m: Mono) -> str:
        parts = [f"{varnames[j]}^{e}" for j, e in enumerate(m) if e]
        return "*".join(parts) if parts else "1"

    def lead_str(i: int, m: Mono) -> str:
        body = f"[{mono_str(m)}]"
        return f"V^{i}{body}" if i else body

    deg = sym[0]
    out = [lead_str(sym[1], sym[2])]
    atoms = []
    if deg >= 1:
        atoms.append((sym[3], sym[4]))
    if deg == 2:
        atoms.append((sym[5], sym[6]))
    for t, mv in atoms:
        body = f"[{mono_str(mv)}]"
        out.append(f"dV^{t}{body}" if t else f"d{body}")
    return " ".join(out)


@dataclass(frozen=True)
class DRWSymbol:
    """Presentation-friendly view of one canonical spanning symbol."""
    degree: int
    weight: Weight
    data: Symbol
    label: str


# ---------------------------------------------------------------------------
# relation lattices modulo p^s


def _val_p(x: int, p: int, cap: int) -> int:
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class LatticeModQ:
    """Row span inside (Z/p^s)^n in Howell echelon form.

    Supports batch insertion with growth detection; kept in a form where
    membership is decided by straight reduction against the pivot rows.
    """

    def __init__(self, n: int, p: int, s: int):
        self.n = n
        self.p = p
        self.s = s
        self.q = p ** s
        # products of reduced entries must stay inside the dtype
        self.dtype = np.int16 if self.q <= 181 else np.int64
        self.rows: Dict[int, Tuple[int, np.ndarray]] = {}
        self.unit_pivots = 0

    def _normalized(self, col: int, vec: np.ndarray) -> Tuple[int, np.ndarray]:
        e = _val_p(int(vec[col]), self.p, self.s)
        unit = int(vec[col]) // self.p ** e
        inv = pow(unit, -1, self.q)
        return e, ((vec.astype(np.int64) * inv) % self.q).astype(self.dtype)

    def _insert_single(self, vec: np.ndarray, added: List[np.ndarray]) -> None:
        stack = [vec.astype(np.int64) % self.q]
        while stack:
            v = stack.pop()
            while True:
                nz = np.nonzero(v)[0]
                if len(nz) == 0:
                    break
                c = int(nz[0])
                e = _val_p(int(v[c]), self.p, self.s)
                held = self.rows.get(c)
                if held is not None:
                    e0, row = held
                    if e >= e0:
                        v = (v - (int(v[c]) // self.p ** e0) * row.astype(np.int64)) % self.q
                        continue
                    ew, new = self._normalized(c, v)
                    self.rows[c] = (ew, new)
                    if ew == 0:
                        self.unit_pivots += 1
                    added.append(new)
                    if ew:
                        stack.append((new.astype(np.int64) * self.p ** (self.s - ew)) % self.q)
                    v = row.astype(np.int64)
                    continue
                ew, new = self._normalized(c, v)
                self.rows[c] = (ew, new)
                if ew == 0:
                    self.unit_pivots += 1
                added.append(new)
                if ew:
                    stack.append((new.astype(np.int64) * self.p ** (self.s - ew)) % self.q)
                break

    def is_full(self) -> bool:
        """True once the span is all of (Z/q)^n; nothing can be added."""
        return self.unit_pivots == self.n

    def insert_batch(self, mat: np.ndarray) -> List[np.ndarray]:
        """Insert the rows of mat; returns basis rows that are new."""
        if self.n == 0 or mat.size == 0 or self.is_full():
            return []
        m = np.asarray(mat, dtype=np.int64) % self.q
        # one vectorized sweep against the current pivots, ascending cols;
        # only the factor column is reduced mod q per step, the matrix once
        # at the end (growth stays below n * q^2, far inside int64)
        for c in sorted(self.rows):
            e0, row = self.rows[c]
            f = (m[:, c] % self.q) // self.p ** e0
            fnz = np.nonzero(f)[0]
            if fnz.size == 0:
                continue
            row64 = row.astype(np.int64)
            if fnz.size * 3 < m.shape[0]:
                m[fnz] -= np.outer(f[fnz], row64)
            else:
                np.subtract(m, np.outer(f, row64), out=m)
        m %= self.q
        added: List[np.ndarray] = []
        for k in range(m.shape[0]):
            if m[k].any():
                self._insert_single(m[k], added)
        return added

    def row_list(self) -> List[np.ndarray]:
        return [self.rows[c][1].astype(np.int64) for c in sorted(self.rows)]

    def basis_rows(self) -> List[np.ndarray]:
        """Stored pivot rows in native dtype, ascending pivot column."""
        return [self.rows[c][1] for c in sorted(self.rows)]

    def pivot_valuations(self) -> Dict[int, int]:
        return {c: e for c, (e, _) in self.rows.items()}

    def contains(self, vec: Sequence[int]) -> bool:
        v = np.asarray(list(vec), dtype=np.int64) % self.q
        while True:
            nz = np.nonzero(v)[0]
            if len(nz) == 0:
                return True
            c = int(nz[0])
            held = self.rows.get(c)
            if held is None:
                return False
            e0, row = held
            if _val_p(int(v[c]), self.p, self.s) < e0:
                return False
            v = (v - (int(v[c]) // self.p ** e0) * row.astype(np.int64)) % self.q


def _snf_mod_ppower(rows: np.ndarray, n: int, p: int, s: int):
    """Diagonalize span(rows) + p^s Z^n over Z/p^s with transform tracking.

    Returns (diag, u, u_inv) where u records the row operations on Z^n and
    u_inv its inverse.  Exact for this quotient because the lattice always
    contains p^s Z^n.
    """
    q = p ** s
    nrel = rows.shape[0] if rows.size else 0
    m = nrel + n
    a = np.zeros((n, m), dtype=np.int64)
    if nrel:
        a[:, :nrel] = rows.T % q
    # explicit generators of p^s Z^n keep the mod-q computation faithful
    for k in range(n):
        a[k, nrel + k] = q
    u = np.eye(n, dtype=np.int64)
    u_inv = np.eye(n, dtype=np.int64)
    diag: List[int] = []
    top = 0
    left = 0
    while top < n and left < m:
        sub = a[top:, left:] % q
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        vals = sub[nz]
        vcount = np.zeros(len(vals), dtype=np.int64)
        tmp = vals.copy()
        for _ in range(s):
            mask = (tmp % p == 0) & (tmp != 0)
            vcount[mask] += 1
            tmp[mask] //= p
        best = int(np.argmin(vcount))
        pi, pj = int(nz[0][best]) + top, int(nz[1][best]) + left
        e = int(vcount[best])
        if pi != top:
            a[[top, pi]] = a[[pi, top]]
            u[[top, pi]] = u[[pi, top]]
            u_inv[:, [top, pi]] = u_inv[:, [pi, top]]
        if pj != left:
            a[:, [left, pj]] = a[:, [pj, left]]
        piv = p ** e
        unit = (int(a[top, left]) // piv) % q
        inv = pow(unit, -1, q)
        a[top] = (a[top] * inv) % q
        u[top] = (u[top] * inv) % q
        u_inv[:, top] = (u_inv[:, top] * unit) % q
        col = a[top + 1:, left]
        factors = col // piv
        if np.any(factors):
            a[top + 1:] = (a[top + 1:] - np.outer(factors, a[top])) % q
            u[top + 1:] = (u[top + 1:] - np.outer(factors, u[top])) % q
            u_inv[:, top] = (u_inv[:, top] + u_inv[:, top + 1:] @ factors) % q
        row = a[top, left + 1:]
        rfactors = row // piv
        if np.any(rfactors):
            # the pivot column holds piv alone, so these column moves
            # touch no other row
            a[top, left + 1:] = (a[top, left + 1:] - rfactors * piv) % q
        diag.append(piv)
        top += 1
        left += 1
    while len(diag) < n:
        diag.append(q)
    return diag, u, u_inv


def _present_from_lattice(lat: LatticeModQ) -> Presentation:
    """Presentation of Z^n / (span + p^s Z^n) from a Howell-form lattice.

    Coordinates holding a unit pivot are substituted away first; the
    Smith computation only sees the small remainder.
    """
    n, p, s, q = lat.n, lat.p, lat.s, lat.q
    if n == 0:
        return Presentation(0, IntMatrix.zero(0, 0), FgAbGroup([]),
                            IntMatrix.zero(0, 0), IntMatrix.zero(0, 0))
    pivots = {c: (e, row.astype(np.int64)) for c, (e, row) in lat.rows.items()}
    elim_cols = sorted(c for c, (e, _) in pivots.items() if e == 0)
    keep_cols = [c for c in range(n) if c not in set(elim_cols)]
    nk = len(keep_cols)
    if nk == 0:
        return Presentation(n, IntMatrix.identity(n), FgAbGroup([]),
                            IntMatrix.zero(0, n), IntMatrix.zero(n, 0))
    ne = len(elim_cols)
    if ne:
        e_mat = np.stack([pivots[c][1] for c in elim_cols]) % q
        for k in range(ne - 1, -1, -1):
            for k2 in range(k + 1, ne):
                f = int(e_mat[k, elim_cols[k2]]) % q
                if f:
                    e_mat[k] = (e_mat[k] - f * e_mat[k2]) % q
        t_mat = (-e_mat[:, keep_cols]) % q
    else:
        t_mat = np.zeros((0, nk), dtype=np.int64)
    other_rows = [pivots[c][1] for c in sorted(pivots) if pivots[c][0] > 0]
    if other_rows:
        r_mat = np.stack(other_rows) % q
        r_sub = (r_mat[:, keep_cols] + r_mat[:, elim_cols] @ t_mat) % q
    else:
        r_sub = np.zeros((0, nk), dtype=np.int64)
    diag, u, u_inv = _snf_mod_ppower(r_sub, nk, p, s)
    kept = sorted((d, k) for k, d in enumerate(diag) if d != 1)
    moduli = [d for d, _ in kept]
    group = FgAbGroup(moduli)
    ng = len(kept)
    proj_full = np.zeros((ng, n), dtype=np.int64)
    if ng:
        proj_keep = np.stack([u[k] for _, k in kept]) % q
        proj_full[:, keep_cols] = proj_keep
        if ne:
            proj_full[:, elim_cols] = (proj_keep @ t_mat.T) % q
        for gi, mmod in enumerate(moduli):
            proj_full[gi] %= mmod
    lift_full = np.zeros((n, ng), dtype=np.int64)
    for gj, (_, k) in enumerate(kept):
        lift_full[keep_cols, gj] = u_inv[:, k] % q
    rel_entries = {}
    basis = lat.row_list()
    for j, row in enumerate(basis):
        for i2 in np.nonzero(row % q)[0]:
            rel_entries[(int(i2), j)] = int(row[i2]) % q
    for k in range(n):
        rel_entries[(k, len(basis) + k)] = q
    relations = IntMatrix(n, len(basis) + n, rel_entries)
    proj = IntMatrix(ng, n, {(i, j): int(v) for (i, rr) in enumerate(proj_full)
                             for j, v in enumerate(rr) if v})
    lift = IntMatrix(n, ng, {(i, j): int(v) for (i, rr) in enumerate(lift_full)
                             for j, v in enumerate(rr) if v})
    return Presentation(n, relations, group, proj, lift)


def present_quotient_ppower(n: int, rows: Iterable[Sequence[int]], p: int, s: int) -> Presentation:
    """Presentation of Z^n / (span(rows) + p^s Z^n)."""
    lat = LatticeModQ(n, p, s)
    mat = [list(r) for r in rows]
    if mat:
        lat.insert_batch(np.asarray(mat, dtype=np.int64))
    return _present_from_lattice(lat)


# ---------------------------------------------------------------------------
# the tower


@dataclass
class TowerPiece:
    level: int
    degree: int
    weight: Weight
    symbols: List[Symbol]
    index: Dict[Symbol, int]
    lattice: LatticeModQ
    pres: Optional[Presentation] = None

    @property
    def group(self) -> FgAbGroup:
        assert self.pres is not None
        return self.pres.group


PieceKey = Tuple[int, int, Weight]


class TruncatedFVComplex:
    """Weight-truncated tower of differential pieces over F_p[x] (or x, y).

    Pieces are indexed by (level s, degree n, weight w); operators are
    exposed as GroupHom between presented quotients.  Construction
    saturates relation lattices under d, F, V, R and multiplication until
    stable, erroring when SATURATION_ROUND_LIMIT rounds do not suffice.
    """

    def __init__(self, p: int, r: int, nvars: int = 1, weight_cap: int = 8):
        require_prime(p)
        if nvars not in (1, 2):
            raise ValueError("only one or two variables are supported")
        if r < 1:
            raise ValueError("tower length must be at least 1")
        self.p = p
        self.r = r
        self.nvars = nvars
        self.weight_cap = weight_cap
        self.calc = SymbolCalculus(p, nvars)
        self.weights = enumerate_weights(p, r, nvars, weight_cap)
        self._weight_set = set(self.weights)
        self.pieces: Dict[PieceKey, TowerPiece] = {}
        self._hom_cache: Dict[Tuple, GroupHom] = {}
        self._coo_cache: Optional[Dict] = None
        self._build()

    # -- symbol enumeration --------------------------------------------------

    def _datoms_up_to(self, s: int, bound: Weight) -> List[Tuple[int, Mono]]:
        out = []
        for j in range(self.nvars):
            if bound[j] >= 1:
                out.append((0, tuple(1 if k == j else 0 for k in range(self.nvars))))
        for t in range(1, s):
            q = self.p ** t
            ranges = [range(0, int(b * q) + 1) for b in bound]
            for mono in itertools.product(*ranges):
                if _is_zero_mono(mono) or all(v % self.p == 0 for v in mono):
                    continue
                if all(Fraction(v, q) <= b for v, b in zip(mono, bound)):
                    out.append((t, mono))
        return out

    def _lead_for(self, s: int, w: Weight) -> Optional[Tuple[int, Mono]]:
        if not weight_is_nonneg(w):
            return None
        e = denom_exp(w, self.p)
        if e >= s:
            return None
        return e, tuple(int(c * self.p ** e) for c in w)

    def _symbols_for(self, s: int, deg: int, w: Weight) -> List[Symbol]:
        if deg == 0:
            lead = self._lead_for(s, w)
            return [(0, lead[0], lead[1])] if lead is not None else []
        if deg == 1:
            syms = []
            for t, mv in self._datoms_up_to(s, w):
                lead = self._lead_for(s, weight_sub(w, weight_of_mono(mv, t, self.p)))
                if lead is not None:
                    syms.append((1, lead[0], lead[1], t, mv))
            return sorted(set(syms))
        syms = []
        atoms = self._datoms_up_to(s, w)
        for a1 in range(len(atoms)):
            t1, m1 = atoms[a1]
            w1 = weight_of_mono(m1, t1, self.p)
            for a2 in range(a1 + 1, len(atoms)):
                t2, m2 = atoms[a2]
                rest = weight_sub(w, weight_add(w1, weight_of_mono(m2, t2, self.p)))
                lead = self._lead_for(s, rest)
                if lead is not None:
                    lo, hi = sorted([(t1, m1), (t2, m2)])
                    syms.append((2, lead[0], lead[1], lo[0], lo[1], hi[0], hi[1]))
        return sorted(set(syms))

    def _vec(self, piece: TowerPiece, terms: Iterable[Tuple[int, Symbol]]) -> np.ndarray:
        v = np.zeros(len(piece.symbols), dtype=np.int64)
        for c, sym in terms:
            v[piece.index[sym]] += c
        return v % piece.lattice.q

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        for s in range(1, self.r + 1):
            for deg in range(3):
                for w in self.weights:
                    syms = self._symbols_for(s, deg, w)
                    self.pieces[(s, deg, w)] = TowerPiece(
                        s, deg, w, syms, {sym: k for k, sym in enumerate(syms)},
                        LatticeModQ(len(syms), self.p, s))
        pending: Dict[PieceKey, List[np.ndarray]] = defaultdict(list)
        for key, piece in self.pieces.items():
            if not piece.symbols or key[1] == 2:
                continue
            rows = self._local_seeds(piece)
            if rows:
                added = piece.lattice.insert_batch(np.stack(rows))
                if added:
                    pending[key].extend(added)
        self._saturate(dict(pending), low_only=True)
        self._build_degree_two()
        # one full pass over every basis catches the deferred flows
        # (V/F/R between top-degree pieces and anything the greedy
        # product choices missed); quiescence certifies the fixpoint
        final: Dict[PieceKey, List[np.ndarray]] = {
            key: piece.lattice.basis_rows()
            for key, piece in self.pieces.items()
            if piece.symbols and piece.lattice.rows}
        self._saturate(final)
        self._coo_cache = None
        for piece in self.pieces.values():
            piece.pres = _present_from_lattice(piece.lattice)

    def _build_degree_two(self) -> None:
        # ascending weight, upper levels first within a weight: product
        # transports flow strictly upward in weight and R flows down in
        # level, so those sources are final when the target is visited
        order = sorted(
            (key for key, pc in self.pieces.items() if key[1] == 2 and pc.symbols),
            key=lambda k2: (weight_total(k2[2]), -k2[0]))
        for key in order:
            s, _, w = key
            piece = self.pieces[key]
            lat = piece.lattice
            rows = self._local_seeds(piece)
            if rows:
                lat.insert_batch(np.stack(rows))
            if lat.is_full():
                continue
            floods = [((s, 1, w), ("d",)),
                      ((s + 1, 2, weight_down(w, self.p)), ("f",)),
                      ((s + 1, 2, w), ("r",))]
            for src_key, tag in floods:
                if lat.is_full():
                    break
                src = self.pieces.get(src_key)
                if src is None or not src.lattice.rows:
                    continue
                imgs = self._transport_rows(
                    src.lattice.basis_rows(), src_key, tag, key)
                if imgs is not None and imgs.any():
                    lat.insert_batch(imgs)
            tried: set = set()
            while not lat.is_full():
                # surviving symbols vote for the product source whose
                # image would cancel their leading factor
                votes: Counter = Counter()
                vals = lat.pivot_valuations()
                for col, sym in enumerate(piece.symbols):
                    if vals.get(col, 1) == 0:
                        continue
                    i, mono, _ = self.calc.parts(sym)
                    if i == 0 and _is_zero_mono(mono):
                        continue
                    u = weight_of_mono(mono, i, self.p)
                    src_key = (s, 2, weight_sub(w, u))
                    if src_key == key or src_key in tried:
                        continue
                    spc = self.pieces.get(src_key)
                    if (spc is not None and spc.lattice.rows
                            and self._gen_symbol(s, u) is not None):
                        votes[src_key] += 1
                if not votes:
                    break
                src_key = min(votes, key=lambda k2: (-votes[k2], weight_total(k2[2])))
                tried.add(src_key)
                u = weight_sub(w, src_key[2])
                imgs = self._transport_rows(
                    self.pieces[src_key].lattice.basis_rows(), src_key, ("m0", u), key)
                if imgs is not None and imgs.any():
                    lat.insert_batch(imgs)

    def _local_seeds(self, piece: TowerPiece) -> List[np.ndarray]:
        s, deg = piece.level, piece.degree
        calc = self.calc
        p = self.p
        seeds: List[np.ndarray] = []
        n = len(piece.symbols)
        for k, sym in enumerate(piece.symbols):
            i, mono, atoms = calc.parts(sym)
            top = max([i] + [t for t, _ in atoms])
            vec = np.zeros(n, dtype=np.int64)
            vec[k] = p ** (s - top)
            seeds.append(vec)
            if s >= 2:
                # p = V F holds on every piece over an F_p-algebra base
                back: List[Tuple[int, Symbol]] = []
                for cf, mid in calc.apply_f(s, sym):
                    for cv, out in calc.apply_v(s - 1, mid):
                        back.append((cf * cv, out))
                vec = np.zeros(n, dtype=np.int64)
                vec[k] = p
                seeds.append(vec - self._vec(piece, _combine(back)))
            if deg >= 1 and i >= 1:
                seeds.append(self._pullthrough_seed(piece, k, sym))
        if deg == 1:
            seeds.extend(self._leibniz_pairs(piece))
        if deg == 2:
            seeds.extend(self._leibniz_triples(piece))
        return seeds

    def _pullthrough_seed(self, piece: TowerPiece, k: int, sym: Symbol) -> np.ndarray:
        """V^i(xi) * eta = V^i(xi * F^i(eta)) for the differential part eta.

        F^i of an atom dV^t[x^m] with t < i is [x^(m(p^(i-t)-1))] d[x^m];
        the plain factor merges into xi."""
        calc = self.calc
        s = piece.level
        i, mono, atoms = calc.parts(sym)
        lead_mono = mono
        coeff = 1
        inner_atoms: List[Tuple[int, Mono]] = []
        for t, mv in atoms:
            if t >= i:
                inner_atoms.append((t - i, mv))
            else:
                stretched = tuple(v * (self.p ** (i - t) - 1) for v in mv)
                c2, _, lead_mono = calc._merge_leads(1, 0, lead_mono, 0, stretched)
                coeff *= c2
                inner_atoms.append((0, mv))
        terms = calc.canon(s - i, coeff, 0, lead_mono, inner_atoms)
        for step in range(i):
            lifted: List[Tuple[int, Symbol]] = []
            for c, sm in terms:
                lifted.extend((c * cv, out) for cv, out in calc.apply_v(s - i + step, sm))
            terms = _combine(lifted)
        vec = np.zeros(len(piece.symbols), dtype=np.int64)
        vec[k] = 1
        return vec - self._vec(piece, terms)

    def _gen_symbol(self, s: int, u: Weight) -> Optional[Symbol]:
        if weight_total(u) == 0:
            return None
        lead = self._lead_for(s, u)
        return (0, lead[0], lead[1]) if lead is not None else None

    def _leibniz_pairs(self, piece: TowerPiece) -> List[np.ndarray]:
        s, w = piece.level, piece.weight
        calc = self.calc
        out = []
        for u in self.weights:
            v = weight_sub(w, u)
            if v not in self._weight_set or u > v:
                continue
            su = self._gen_symbol(s, u)
            sv = self._gen_symbol(s, v)
            if su is None or sv is None:
                continue
            lhs: List[Tuple[int, Symbol]] = []
            for c, prod in calc.mul(s, su, sv):
                lhs.extend((c * cd, sm) for cd, sm in calc.apply_d(s, prod))
            rhs: List[Tuple[int, Symbol]] = []
            for c, dsv in calc.apply_d(s, sv):
                rhs.extend((c * cm, sm) for cm, sm in calc.mul(s, su, dsv))
            for c, dsu in calc.apply_d(s, su):
                rhs.extend((c * cm, sm) for cm, sm in calc.mul(s, sv, dsu))
            out.append(self._vec(piece, _combine(lhs)) - self._vec(piece, _combine(rhs)))
        return out

    def _leibniz_triples(self, piece: TowerPiece) -> List[np.ndarray]:
        # d(x_j * sigma) = d[x_j] sigma + [x_j] d(sigma) against every
        # degree-1 symbol; wider products arrive through the transports
        s, w = piece.level, piece.weight
        calc = self.calc
        out = []
        one = Fraction(1)
        for j in range(self.nvars):
            u = tuple(one if k == j else Fraction(0) for k in range(self.nvars))
            rest = weight_sub(w, u)
            if rest not in self._weight_set:
                continue
            su = self._gen_symbol(s, u)
            if su is None:
                continue
            src = self.pieces.get((s, 1, rest))
            if src is None:
                continue
            for sym1 in src.symbols:
                lhs: List[Tuple[int, Symbol]] = []
                for c, prod in calc.mul(s, su, sym1):
                    lhs.extend((c * cd, sm) for cd, sm in calc.apply_d(s, prod))
                rhs: List[Tuple[int, Symbol]] = []
                for c, dsu in calc.apply_d(s, su):
                    rhs.extend((c * cm, sm) for cm, sm in calc.mul(s, dsu, sym1))
                for c, ds1 in calc.apply_d(s, sym1):
                    rhs.extend((c * cm, sm) for cm, sm in calc.mul(s, su, ds1))
                out.append(self._vec(piece, _combine(lhs)) - self._vec(piece, _combine(rhs)))
        return out

    # relation transports between pieces

    def _moves(self, key: PieceKey) -> List[Tuple[Tuple, PieceKey]]:
        s, deg, w = key
        moves: List[Tuple[Tuple, PieceKey]] = []
        if s < self.r:
            tgt = (s + 1, deg, weight_down(w, self.p))
            if tgt in self.pieces:
                moves.append((("v",), tgt))
        if s > 1:
            tgt = (s - 1, deg, weight_up(w, self.p))
            if tgt in self.pieces:
                moves.append((("f",), tgt))
            tgt = (s - 1, deg, w)
            if tgt in self.pieces:
                moves.append((("r",), tgt))
        if deg < 2:
            moves.append((("d",), (s, deg + 1, w)))
        # products against the canonical generator of each extra weight
        for u in self.weights:
            if weight_total(u) == 0:
                continue
            tgt = (s, deg, weight_add(w, u))
            if tgt not in self.pieces or self._gen_symbol(s, u) is None:
                continue
            moves.append((("m0", u), tgt))
        if self.nvars == 2 and deg == 1:
            for u in self.weights:
                src = self.pieces.get((s, 1, u))
                tgt = (s, 2, weight_add(w, u))
                if src is None or tgt not in self.pieces or not src.symbols:
                    continue
                for other_idx in range(len(src.symbols)):
                    moves.append((("m1", u, other_idx), tgt))
        return moves

    def _term_map(self, tag: Tuple, s: int):
        calc = self.calc
        if tag[0] == "v":
            return lambda sym: calc.apply_v(s, sym)
        if tag[0] == "f":
            return lambda sym: calc.apply_f(s, sym)
        if tag[0] == "r":
            return lambda sym: calc.apply_r(s - 1, sym)
        if tag[0] == "d":
            return lambda sym: calc.apply_d(s, sym)
        if tag[0] == "m0":
            gen = self._gen_symbol(s, tag[1])
            return lambda sym: calc.mul(s, gen, sym)
        if tag[0] == "m1":
            other = self.pieces[(s, 1, tag[1])].symbols[tag[2]]
            return lambda sym: calc.mul(s, sym, other)
        raise ValueError(f"unknown transport {tag}")

    def _coo(self, key: PieceKey, tag: Tuple, tgt_key: PieceKey):
        if self._coo_cache is None:
            self._coo_cache = {}
        ck = (key, tag)
        if ck in self._coo_cache:
            return self._coo_cache[ck]
        src = self.pieces[key]
        tgt = self.pieces[tgt_key]
        term_map = self._term_map(tag, key[0])
        src_idx: List[int] = []
        dst_idx: List[int] = []
        coefs: List[int] = []
        for j, sym in enumerate(src.symbols):
            for c, out in term_map(sym):
                src_idx.append(j)
                dst_idx.append(tgt.index[out])
                coefs.append(c)
        if not src_idx:
            self._coo_cache[ck] = None
            return None
        si = np.asarray(src_idx, dtype=np.int64)
        di = np.asarray(dst_idx, dtype=np.int64)
        cf = np.asarray(coefs, dtype=np.int64)
        # group by destination column so images scatter via one reduceat
        order = np.argsort(di, kind="stable")
        si, di, cf = si[order], di[order], cf[order]
        unique_dst, seg_starts = np.unique(di, return_index=True)
        entry = (si, cf, seg_starts, unique_dst)
        self._coo_cache[ck] = entry
        return entry

    def _transport_rows(self, rows: List[np.ndarray], key: PieceKey,
                        tag: Tuple, tgt_key: PieceKey) -> Optional[np.ndarray]:
        tgt = self.pieces[tgt_key]
        if not tgt.symbols:
            return None
        coo = self._coo(key, tag, tgt_key)
        if coo is None:
            return None
        src_idx, coefs, seg_starts, unique_dst = coo
        mat = np.stack(rows)
        k = mat.shape[0]
        nnz = len(src_idx)
        out = np.zeros((k, len(tgt.symbols)), dtype=np.int64)
        chunk = max(1, 4_000_000 // nnz)
        for lo in range(0, k, chunk):
            hi = min(k, lo + chunk)
            contrib = mat[lo:hi, src_idx].astype(np.int64) * coefs
            out[lo:hi, unique_dst] = np.add.reduceat(contrib, seg_starts, axis=1)
        return out

    def _saturate(self, pending: Dict[PieceKey, List[np.ndarray]],
                  low_only: bool = False) -> None:
        rounds = 0
        while pending:
            rounds += 1
            if rounds > SATURATION_ROUND_LIMIT:
                key = sorted(pending)[0]
                raise SaturationError(
                    f"relation saturation unstable after {SATURATION_ROUND_LIMIT}"
                    f" rounds at level {key[0]} degree {key[1]} weight {key[2]}")
            # insert each transported batch at once so images never pile up;
            # light sources go first so heavy targets can fill and be skipped
            nxt: Dict[PieceKey, List[np.ndarray]] = defaultdict(list)
            order = sorted(pending, key=lambda k2: (weight_total(k2[2]), k2[0], k2[1]))
            for key in order:
                rows = pending[key]
                for tag, tgt_key in self._moves(key):
                    if low_only and tgt_key[1] == 2:
                        continue
                    tgt = self.pieces[tgt_key]
                    if tgt.lattice.is_full():
                        continue
                    images = self._transport_rows(rows, key, tag, tgt_key)
                    if images is None or not images.any():
                        continue
                    added = tgt.lattice.insert_batch(images)
                    if added:
                        nxt[tgt_key].extend(added)
            pending = dict(nxt)

    # -- public accessors --------------------------------------------------

    def coerce_weight(self, w) -> Weight:
        if isinstance(w, tuple):
            return tuple(Fraction(c) for c in w)
        if self.nvars != 1:
            raise ValueError("weight must be a tuple with one entry per variable")
        return (Fraction(w),)

    def piece(self, s: int, deg: int, w) -> TowerPiece:
        key = (s, deg, self.coerce_weight(w))
        if key not in self.pieces:
            raise KeyError(f"no piece at level {s}, degree {deg}, weight {key[2]}")
        return self.pieces[key]

    def group(self, s: int, deg: int, w) -> FgAbGroup:
        return self.piece(s, deg, w).group

    def symbol_views(self, s: int, deg: int, w) -> List[DRWSymbol]:
        piece = self.piece(s, deg, w)
        return [DRWSymbol(deg, piece.weight, sym, symbol_label(sym))
                for sym in piece.symbols]

    def class_of(self, s: int, terms: Iterable[Tuple[int, Symbol]]):
        """Project a combination of canonical symbols; returns (piece, element)."""
        terms = list(terms)
        if not terms:
            raise ValueError("empty combination does not name a piece")
        deg = terms[0][1][0]
        w = self.calc.weight(terms[0][1])
        piece = self.pieces[(s, deg, w)]
        vec = self._vec(piece, terms)
        return piece, piece.pres.project_vec([int(x) for x in vec])

    def _ambient_matrix(self, src: TowerPiece, dst: TowerPiece, term_map) -> IntMatrix:
        data: Dict[Tuple[int, int], int] = {}
        for j, sym in enumerate(src.symbols):
            for c, out in term_map(sym):
                ij = (dst.index[out], j)
                data[ij] = data.get(ij, 0) + c
        return IntMatrix(len(dst.symbols), len(src.symbols),
                         {k: v for k, v in data.items() if v})

    def _op_hom(self, tag: str, src_key: PieceKey, dst_key: PieceKey, term_map) -> GroupHom:
        ck = (tag, src_key)
        hit = self._hom_cache.get(ck)
        if hit is None:
            src, dst = self.pieces[src_key], self.pieces[dst_key]
            amb = self._ambient_matrix(src, dst, term_map)
            hit = induced_hom(src.pres, dst.pres, amb)
            self._hom_cache[ck] = hit
        return hit

    def d_hom(self, s: int, deg: int, w) -> GroupHom:
        w = self.coerce_weight(w)
        return self._op_hom("d", (s, deg, w), (s, deg + 1, w),
                            lambda sym: self.calc.apply_d(s, sym))

    def v_hom(self, s: int, deg: int, w) -> GroupHom:
        w = self.coerce_weight(w)
        return self._op_hom("v", (s, deg, w), (s + 1, deg, weight_down(w, self.p)),
                            lambda sym: self.calc.apply_v(s, sym))

    def f_hom(self, s: int, deg: int, w) -> GroupHom:
        """F out of level s (s at least 2), landing in weight p*w."""
        w = self.coerce_weight(w)
        return self._op_hom("f", (s, deg, w), (s - 1, deg, weight_up(w, self.p)),
                            lambda sym: self.calc.apply_f(s, sym))

    def r_hom(self, s: int, deg: int, w) -> GroupHom:
        w = self.coerce_weight(w)
        return self._op_hom("r", (s, deg, w), (s - 1, deg, w),
                            lambda sym: self.calc.apply_r(s - 1, sym))

    def restriction_to_level_one(self, deg: int, w) -> GroupHom:
        """Composite of truncations from the top level down to level 1."""
        w = self.coerce_weight(w)
        piece = self.pieces[(self.r, deg, w)]
        hom = GroupHom.identity(piece.group)
        for s in range(self.r, 1, -1):
            hom = self.r_hom(s, deg, w).compose(hom)
        return hom

    def mul_elts(self, s: int, piece_a: TowerPiece, elt_a, piece_b: TowerPiece, elt_b):
        """Product of two classes, computed on canonical lifts."""
        va = piece_a.pres.lift_elt(list(elt_a))
        vb = piece_b.pres.lift_elt(list(elt_b))
        terms: List[Tuple[int, Symbol]] = []
        for j1, c1 in enumerate(va):
            if c1 == 0:
                continue
            for j2, c2 in enumerate(vb):
                if c2 == 0:
                    continue
                for cm, sym in self.calc.mul(s, piece_a.symbols[j1], piece_b.symbols[j2]):
                    terms.append((c1 * c2 * cm, sym))
        terms = _combine(terms)
        tgt = self.pieces[(s, piece_a.degree + piece_b.degree,
                           weight_add(piece_a.weight, piece_b.weight))]
        if terms:
            vec = self._vec(tgt, terms)
        else:
            vec = np.zeros(len(tgt.symbols), dtype=np.int64)
        return tgt, tgt.pres.project_vec([int(x) for x in vec])

    # -- structure map from weight-graded Witt vectors ----------------------

    def lambda_class(self, s: int, components: Dict[int, Tuple[int, Mono]]):
        """Image of the Witt vector sum_i V^i([c_i x^m_i]) in degree 0.

        components maps slot i to (c_i, m_i); every nonzero slot must
        carry the same weight.  Returns (piece, element)."""
        terms: List[Tuple[int, Symbol]] = []
        w: Optional[Weight] = None
        for i, (c, mono) in sorted(components.items()):
            if c % self.p == 0:
                continue
            wi = weight_of_mono(mono, i, self.p)
            if w is None:
                w = wi
            elif w != wi:
                raise ValueError("components of mixed weight")
            scale = teichmuller_character(self.p, s, c % self.p)
            terms.extend((scale * cc, sym)
                         for cc, sym in self.calc.canon(s, 1, i, mono, []))
        if w is None:
            raise ValueError("the zero vector does not name a weight")
        piece = self.pieces[(s, 0, w)]
        vec = self._vec(piece, _combine(terms))
        return piece, piece.pres.project_vec([int(x) for x in vec])


def build_drw(p: int, r: int, nvars: int = 1, weight_cap: int = 8) -> TruncatedFVComplex:
    """Construct the truncated F-V tower over F_p in one or two variables."""
    return TruncatedFVComplex(p, r, nvars, weight_cap)


# ---------------------------------------------------------------------------
# axiom checks

FV_AXIOM_NAMES = [
    "d squares to zero",
    "Leibniz rule",
    "graded commutativity",
    "F is multiplicative",
    "V(x)V(y) = pV(xy)",
    "R commutes with F and V",
    "FV = p",
    "FdV = d",
    "projection formula V(F(x)y) = xV(y)",
    "Fd[x] = [x]^(p-1) d[x]",
]


@dataclass
class FVAxiomReport:
    entries: List[Tuple[str, bool, Optional[str]]]

    @property
    def ok(self) -> bool:
        return all(okay for _, okay, _ in self.entries)

    def failures(self) -> List[Tuple[str, str]]:
        return [(name, wit or "") for name, okay, wit in self.entries if not okay]


def check_fv_axioms(tower: TruncatedFVComplex, samples: int = 40, seed: int = 0) -> FVAxiomReport:
    """Evaluate the ten structural identities on generators and random pairs."""
    rng = random.Random(seed)
    p = tower.p
    entries: List[Tuple[str, bool, Optional[str]]] = []

    def record(name: str, okay: bool, witness: Optional[str]):
        entries.append((name, okay, None if okay else witness))

    deg0 = [(k, pc) for k, pc in tower.pieces.items()
            if k[1] == 0 and pc.symbols and pc.group.n]

    # 1: d then d vanishes out of degree 0
    okay, wit = True, None
    for (s, deg, w), piece in tower.pieces.items():
        if deg != 0 or not piece.symbols:
            continue
        if not tower.d_hom(s, 1, w).compose(tower.d_hom(s, 0, w)).is_zero():
            okay, wit = False, f"d^2 != 0 at level {s} weight {w}"
            break
    record(FV_AXIOM_NAMES[0], okay, wit)

    # 2: Leibniz on sampled degree-0 products
    okay, wit = True, None
    for _ in range(samples):
        if not deg0:
            break
        (s1, _, w1), pa = rng.choice(deg0)
        cands = [(k, pc) for k, pc in deg0
                 if k[0] == s1 and (s1, 0, weight_add(w1, k[2])) in tower.pieces]
        if not cands:
            continue
        (_, _, w2), pb = rng.choice(cands)
        ea = pa.group.random_element(rng)
        eb = pb.group.random_element(rng)
        prod_piece, prod = tower.mul_elts(s1, pa, ea, pb, eb)
        lhs = tower.d_hom(s1, 0, prod_piece.weight).apply(prod)
        p1, t1 = tower.mul_elts(s1, pa, ea, tower.pieces[(s1, 1, w2)],
                                tower.d_hom(s1, 0, w2).apply(eb))
        _, t2 = tower.mul_elts(s1, pb, eb, tower.pieces[(s1, 1, w1)],
                               tower.d_hom(s1, 0, w1).apply(ea))
        if tuple(lhs) != tuple(p1.group.add(t1, t2)):
            okay, wit = False, f"Leibniz fails at level {s1} weights {w1}+{w2}"
            break
    record(FV_AXIOM_NAMES[1], okay, wit)

    # 3: products of degree-1 generator lifts anticommute
    okay, wit = True, None
    deg1 = [(k, pc) for k, pc in tower.pieces.items() if k[1] == 1 and pc.symbols]
    for (s, _, w1), pa in deg1:
        if not okay:
            break
        for (s2, _, w2), pb in deg1:
            if s2 != s:
                continue
            key2 = (s, 2, weight_add(w1, w2))
            if key2 not in tower.pieces or not tower.pieces[key2].symbols:
                continue
            tgt = tower.pieces[key2]
            for sa in pa.symbols[:3]:
                for sb in pb.symbols[:3]:
                    terms = _combine(list(tower.calc.mul(s, sa, sb))
                                     + list(tower.calc.mul(s, sb, sa)))
                    elt = tgt.pres.project_vec([int(x) for x in tower._vec(tgt, terms)])
                    if any(elt):
                        okay, wit = False, f"uv + vu != 0 at level {s}"
                        break
                if not okay:
                    break
            if not okay:
                break
    record(FV_AXIOM_NAMES[2], okay, wit)

    # 4: F multiplies
    okay, wit = True, None
    pool4 = [(k, pc) for k, pc in deg0 if k[0] >= 2]
    for _ in range(samples):
        if not pool4:
            break
        (s, _, w1), pa = rng.choice(pool4)
        cands = [(k, pc) for k, pc in deg0 if k[0] == s
                 and (s, 0, weight_add(w1, k[2])) in tower.pieces
                 and weight_total(weight_up(weight_add(w1, k[2]), p)) <= tower.weight_cap]
        if not cands:
            continue
        (_, _, w2), pb = rng.choice(cands)
        ea, eb = pa.group.random_element(rng), pb.group.random_element(rng)
        prod_piece, prod = tower.mul_elts(s, pa, ea, pb, eb)
        lhs = tower.f_hom(s, 0, prod_piece.weight).apply(prod)
        qa = tower.pieces[(s - 1, 0, weight_up(w1, p))]
        qb = tower.pieces[(s - 1, 0, weight_up(w2, p))]
        _, rhs = tower.mul_elts(s - 1, qa, tower.f_hom(s, 0, w1).apply(ea),
                                qb, tower.f_hom(s, 0, w2).apply(eb))
        if tuple(lhs) != tuple(rhs):
            okay, wit = False, f"F(xy) != F(x)F(y) at level {s}"
            break
    record(FV_AXIOM_NAMES[3], okay, wit)

    # 5: V(x)V(y) = p V(xy)
    okay, wit = True, None
    pool5 = [(k, pc) for k, pc in deg0 if k[0] < tower.r]
    for _ in range(samples):
        if not pool5:
            break
        (s, _, w1), pa = rng.choice(pool5)
        cands = [(k, pc) for k, pc in deg0 if k[0] == s
                 and (s, 0, weight_add(w1, k[2])) in tower.pieces]
        if not cands:
            continue
        (_, _, w2), pb = rng.choice(cands)
        ea, eb = pa.group.random_element(rng), pb.group.random_element(rng)
        qa = tower.pieces[(s + 1, 0, weight_down(w1, p))]
        qb = tower.pieces[(s + 1, 0, weight_down(w2, p))]
        _, lhs = tower.mul_elts(s + 1, qa, tower.v_hom(s, 0, w1).apply(ea),
                                qb, tower.v_hom(s, 0, w2).apply(eb))
        prod_piece, prod = tower.mul_elts(s, pa, ea, pb, eb)
        tgt = tower.pieces[(s + 1, 0, weight_down(prod_piece.weight, p))]
        rhs = tgt.group.scale(p, tower.v_hom(s, 0, prod_piece.weight).apply(prod))
        if tuple(lhs) != tuple(rhs):
            okay, wit = False, f"V(x)V(y) != pV(xy) at level {s}"
            break
    record(FV_AXIOM_NAMES[4], okay, wit)

    # 6: R commutes with F and V
    okay, wit = True, None
    for (s, deg, w), piece in tower.pieces.items():
        if not piece.symbols or s < 3:
            continue
        wu = weight_up(w, p)
        if weight_total(wu) > tower.weight_cap:
            continue
        a = tower.f_hom(s - 1, deg, w).compose(tower.r_hom(s, deg, w))
        b = tower.r_hom(s - 1, deg, wu).compose(tower.f_hom(s, deg, w))
        if a != b:
            okay, wit = False, f"RF != FR at level {s} weight {w}"
            break
    if okay:
        for (s, deg, w), piece in tower.pieces.items():
            if not piece.symbols or s < 2 or s >= tower.r:
                continue
            a = tower.v_hom(s - 1, deg, w).compose(tower.r_hom(s, deg, w))
            b = tower.r_hom(s + 1, deg, weight_down(w, p)).compose(tower.v_hom(s, deg, w))
            if a != b:
                okay, wit = False, f"RV != VR at level {s} weight {w}"
                break
    record(FV_AXIOM_NAMES[5], okay, wit)

    # 7: FV = p
    okay, wit = True, None
    for (s, deg, w), piece in tower.pieces.items():
        if not piece.symbols or s >= tower.r:
            continue
        comp = tower.f_hom(s + 1, deg, weight_down(w, p)).compose(tower.v_hom(s, deg, w))
        if comp != GroupHom.scalar(piece.group, p):
            okay, wit = False, f"FV != p at level {s} degree {deg} weight {w}"
            break
    record(FV_AXIOM_NAMES[6], okay, wit)

    # 8: FdV = d in degree 0
    okay, wit = True, None
    for (s, deg, w), piece in tower.pieces.items():
        if deg != 0 or not piece.symbols or s >= tower.r:
            continue
        wd = weight_down(w, p)
        comp = tower.f_hom(s + 1, 1, wd).compose(
            tower.d_hom(s + 1, 0, wd)).compose(tower.v_hom(s, 0, w))
        if comp != tower.d_hom(s, 0, w):
            okay, wit = False, f"FdV != d at level {s} weight {w}"
            break
    record(FV_AXIOM_NAMES[7], okay, wit)

    # 9: projection formula on sampled pairs
    okay, wit = True, None
    pool9 = [(k, pc) for k, pc in tower.pieces.items()
             if k[0] >= 2 and pc.symbols and pc.group.n]
    for _ in range(samples):
        if not pool9:
            break
        (s, dega, w1), pa = rng.choice(pool9)
        wf = weight_up(w1, p)
        if weight_total(wf) > tower.weight_cap:
            continue
        cands = [(k, pc) for k, pc in tower.pieces.items()
                 if k[0] == s - 1 and pc.symbols and pc.group.n
                 and k[1] + dega <= 2
                 and (s - 1, dega + k[1], weight_add(wf, k[2])) in tower.pieces]
        if not cands:
            continue
        (_, degb, w2), pb = rng.choice(cands)
        x = pa.group.random_element(rng)
        y = pb.group.random_element(rng)
        fx_piece = tower.pieces[(s - 1, dega, wf)]
        mid_piece, mid = tower.mul_elts(s - 1, fx_piece,
                                        tower.f_hom(s, dega, w1).apply(x), pb, y)
        lhs = tower.v_hom(s - 1, mid_piece.degree, mid_piece.weight).apply(mid)
        vy_piece = tower.pieces[(s, degb, weight_down(w2, p))]
        rhs_piece, rhs = tower.mul_elts(s, pa, x, vy_piece,
                                        tower.v_hom(s - 1, degb, w2).apply(y))
        lhs_key = (s, mid_piece.degree, weight_down(mid_piece.weight, p))
        if lhs_key != (s, rhs_piece.degree, rhs_piece.weight) or tuple(lhs) != tuple(rhs):
            okay, wit = False, f"projection formula fails at level {s}"
            break
    record(FV_AXIOM_NAMES[8], okay, wit)

    # 10: F of d on the lifted coordinate generators
    okay, wit = True, None
    one = Fraction(1)
    for j in range(tower.nvars):
        w1 = tuple(one if k == j else Fraction(0) for k in range(tower.nvars))
        for s in range(2, tower.r + 1):
            if weight_total(weight_up(w1, p)) > tower.weight_cap:
                continue
            gen_piece = tower.pieces[(s, 0, w1)]
            if len(gen_piece.symbols) != 1:
                continue
            gen = gen_piece.pres.project_vec([1])
            lhs = tower.f_hom(s, 1, w1).apply(tower.d_hom(s, 0, w1).apply(gen))
            unit = tuple(1 if k == j else 0 for k in range(tower.nvars))
            pw_piece, pw = tower.class_of(
                s - 1, tower.calc.canon(s - 1, 1, 0,
                                        tuple((p - 1) * v for v in unit), []))
            low_piece = tower.pieces[(s - 1, 1, w1)]
            dlow = tower.d_hom(s - 1, 0, w1).apply(
                tower.pieces[(s - 1, 0, w1)].pres.project_vec([1]))
            _, rhs = tower.mul_elts(s - 1, pw_piece, pw, low_piece, dlow)
            if tuple(lhs) != tuple(rhs):
                okay, wit = False, f"Teichmuller rule fails at level {s} var {j}"
                break
        if not okay:
            break
    record(FV_AXIOM_NAMES[9], okay, wit)

    return FVAxiomReport(entries)


def lambda_ring_check(tower: TruncatedFVComplex, samples: int = 30, seed: int = 0) -> bool:
    """The structure map respects addition and multiplication of
    homogeneous Witt vectors (one variable only)."""
    if tower.nvars != 1:
        raise ValueError("the Witt comparison works in one variable")
    rng = random.Random(seed)
    p, r = tower.p, tower.r

    def random_components(s: int, w: Fraction):
        v = denom_exp((w,), p)
        comps = {}
        for i in range(v, s):
            c = rng.randrange(p)
            if c:
                comps[i] = (c, (int(w * p ** i),))
        return comps

    def to_witt(ring: WittRing, s: int, comps: Dict[int, Tuple[int, Mono]]):
        base = ring.base
        parts = []
        for i in range(s):
            if i in comps:
                c, mono = comps[i]
                poly = [0] * (mono[0] + 1)
                poly[mono[0]] = c % p
                parts.append(tuple(poly))
            else:
                parts.append(base.zero())
        return ring.vector(parts)

    def from_witt(wv) -> Dict[int, Tuple[int, Mono]]:
        comps = {}
        for i, poly in enumerate(wv.components):
            nz = [k for k, c in enumerate(poly) if c]
            if not nz:
                continue
            if len(nz) != 1:
                raise ValueError("image is not homogeneous")
            comps[i] = (poly[nz[0]], (nz[0],))
        return comps

    for s in range(1, r + 1):
        ring = WittRing(p, s, GFPolyRing(p))
        fracs = sorted({w[0] for w in tower.weights
                        if w[0] > 0 and denom_exp(w, p) < s})
        for _ in range(samples):
            w1 = rng.choice(fracs)
            a = random_components(s, w1)
            b = random_components(s, w1)
            if a and b:
                total = from_witt(to_witt(ring, s, a) + to_witt(ring, s, b))
                pa, ea = tower.lambda_class(s, a)
                _, eb = tower.lambda_class(s, b)
                lhs = pa.group.add(ea, eb)
                if total:
                    _, rhs = tower.lambda_class(s, total)
                else:
                    rhs = pa.group.zero()
                if tuple(lhs) != tuple(rhs):
                    return False
            w2 = rng.choice(fracs)
            if w1 + w2 > tower.weight_cap or not a:
                continue
            c = random_components(s, w2)
            if not c:
                continue
            prod = from_witt(to_witt(ring, s, a) * to_witt(ring, s, c))
            pa, ea = tower.lambda_class(s, a)
            pc, ec = tower.lambda_class(s, c)
            tgt, lhs = tower.mul_elts(s, pa, ea, pc, ec)
            if prod:
                _, rhs = tower.lambda_class(s, prod)
            else:
                rhs = tgt.group.zero()
            if tuple(lhs) != tuple(rhs):
                return False
    return True


def degree_zero_witt_comparison(tower: TruncatedFVComplex) -> bool:
    """Degree zero is the weight-graded Witt ring of k[x] (one variable).

    Each positive weight w with denominator p^e, e < s, gives a cyclic
    piece generated by the e-fold Verschiebung of the Teichmuller lift of
    the matching monomial; its additive order p^(s-e) is certified by
    actual Witt arithmetic, and the slot count p^(s-e) of the graded part
    pins the subgroup down."""
    if tower.nvars != 1:
        raise ValueError("the Witt comparison works in one variable")
    p = tower.p
    for s in range(1, tower.r + 1):
        ring = WittRing(p, s, GFPolyRing(p))
        for w in tower.weights:
            piece = tower.pieces[(s, 0, w)]
            wf = w[0]
            e = denom_exp(w, p)
            if wf == 0:
                want = [p ** s]
            elif e < s:
                want = [p ** (s - e)]
            else:
                want = []
            if list(piece.group.moduli) != want:
                return False
            if not want:
                continue
            if wf == 0:
                g = ring.one()
                order = p ** s
            else:
                m = int(wf * p ** e)
                poly = [0] * (m + 1)
                poly[m] = 1
                comps = [ring.base.zero()] * s
                comps[e] = tuple(poly)
                g = ring.vector(comps)
                order = p ** (s - e)
            acc = g
            k = 1
            while k < order:
                acc = ring.scalar_mul(p, acc)
                k *= p
                if k < order and acc == ring.zero():
                    return False
            if acc != ring.zero():
                return False
    return True


# ---------------------------------------------------------------------------
# level one versus the classical complex, and the universal map


def _basis_weight_vec(basis_key, nvars: int) -> Tuple[int, ...]:
    mono, frame = basis_key
    return tuple(mono[j] + (1 if j in frame else 0) for j in range(nvars))


def _symbol_of_basis(tower: TruncatedFVComplex, mono: Mono, frame) -> List[Tuple[int, Symbol]]:
    atoms = [(0, tuple(1 if k == j else 0 for k in range(tower.nvars)))
             for j in frame]
    return tower.calc.canon(1, 1, 0, mono, atoms)


def level_one_matches_de_rham(tower: TruncatedFVComplex) -> bool:
    """Level 1 equals the classical complex, differentials included."""
    dr = DeRhamComplex(tower.p, tower.nvars, tower.weight_cap)
    for w in tower.weights:
        if denom_exp(w, tower.p) != 0:
            if any(tower.pieces[(1, deg, w)].group.order() != 1 for deg in range(3)):
                return False
            continue
        w_int = int(weight_total(w))
        for deg in range(3):
            piece = tower.pieces[(1, deg, w)]
            if deg <= tower.nvars:
                basis = [bk for bk in dr.basis(deg, w_int)
                         if _basis_weight_vec(bk, tower.nvars)
                         == tuple(int(c) for c in w)]
            else:
                basis = []
            if piece.group.order() != tower.p ** len(basis):
                return False
            if deg >= 2 or not basis:
                continue
            mat = tower.d_hom(1, deg, w)
            for mono, frame in basis:
                _, elt = tower.class_of(1, _symbol_of_basis(tower, mono, frame))
                img = mat.apply(elt)
                dr_vec = [0] * len(dr.basis(deg, w_int))
                dr_vec[dr.index(deg, w_int, mono, frame)] = 1
                d_im = dr.d_hom(deg, w_int).apply(dr_vec)
                ref_terms: List[Tuple[int, Symbol]] = []
                for pos, c in enumerate(d_im):
                    if c:
                        m2, f2 = dr.basis(deg + 1, w_int)[pos]
                        ref_terms.extend((c * cc, sym) for cc, sym in
                                         _symbol_of_basis(tower, m2, f2))
                ref_terms = _combine(ref_terms)
                if ref_terms:
                    _, ref = tower.class_of(1, ref_terms)
                else:
                    ref = tower.pieces[(1, deg + 1, w)].group.zero()
                if tuple(img) != tuple(ref):
                    return False
    return True


@dataclass
class UniversalMapReport:
    target: str
    well_defined: bool
    commutes: bool
    matches_expected: bool
    details: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.well_defined and self.commutes and self.matches_expected


def universal_map_check(tower: TruncatedFVComplex, target: str = "self") -> UniversalMapReport:
    """The canonical map determined on lifted coordinates, into the tower
    itself, the zero tower, or the classical one-level complex."""
    if target == "self":
        okay = True
        for piece in tower.pieces.values():
            if not piece.symbols:
                continue
            hom = induced_hom(piece.pres, piece.pres,
                              tower._ambient_matrix(piece, piece, lambda sym: [(1, sym)]))
            if hom != GroupHom.identity(piece.group):
                okay = False
                break
        return UniversalMapReport("self", True, True, okay)
    if target == "zero":
        return UniversalMapReport("zero", True, True, True)
    if target != "de_rham":
        raise ValueError("target must be self, zero, or de_rham")
    dr = DeRhamComplex(tower.p, tower.nvars, tower.weight_cap)
    well, details = True, None
    for (s, deg, w), piece in tower.pieces.items():
        if s != 1 or not piece.symbols:
            continue
        tot = weight_total(w)
        if tot.denominator != 1:
            basis = []
        elif deg <= tower.nvars:
            basis = [bk for bk in dr.basis(deg, int(tot))
                     if _basis_weight_vec(bk, tower.nvars) == tuple(int(c) for c in w)]
        else:
            basis = []
        pos = {bk: idx for idx, bk in enumerate(basis)}
        data = {}
        for j, sym in enumerate(piece.symbols):
            i, mono, atoms = tower.calc.parts(sym)
            if i != 0 or any(t != 0 for t, _ in atoms):
                continue
            frame = tuple(sorted(_unit_slot(mv) for _, mv in atoms))
            key2 = (mono, frame)
            if key2 in pos:
                data[(pos[key2], j)] = 1
        amb = IntMatrix(len(basis), len(piece.symbols), data)
        for row in piece.lattice.row_list():
            img = amb.apply([int(x) for x in row])
            if any(v % tower.p for v in img):
                well, details = False, f"relations not killed at weight {w}"
                break
        if not well:
            break
    commutes = well and level_one_matches_de_rham(tower)
    return UniversalMapReport("de_rham", well, commutes, well and commutes, details)


# ---------------------------------------------------------------------------
# stability and mixed-characteristic degree-zero pieces


def dimension_signature(tower: TruncatedFVComplex) -> Dict[PieceKey, Tuple[int, ...]]:
    return {key: piece.group.moduli for key, piece in tower.pieces.items()}


def stable_under_cap_increase(p: int, r: int, nvars: int, cap: int, bump: int = 2) -> bool:
    """Pieces of weight within cap must not change when the cap grows."""
    small = build_drw(p, r, nvars, cap)
    big = build_drw(p, r, nvars, cap + bump)
    for key, piece in small.pieces.items():
        if piece.group.moduli != big.pieces[key].group.moduli:
            return False
    return True


def witt_coefficient_group(p: int, m: int, char_exp: int) -> FgAbGroup:
    """Underlying group of length-m Witt vectors over Z/p^char_exp,
    computed by counting p-power torsion in the finite ring."""
    ring = WittRing(p, m, ZModRing(p ** char_exp))
    elems = list(ring.elements())
    total = len(elems)
    logs: List[int] = []
    current = elems
    while True:
        zero_count = sum(1 for w in current if all(c == 0 for c in w.components))
        k = 0
        cnt = zero_count
        while cnt > 1:
            cnt //= p
            k += 1
        logs.append(k)
        if zero_count == total:
            break
        nxt = []
        for w in current:
            acc = w
            for _ in range(p - 1):
                acc = acc + w
            nxt.append(acc)
        current = nxt
    # logs[k] is log_p of the p^k-torsion count; successive differences
    # count the invariant factors of each exponent
    moduli: List[int] = []
    for k in range(1, len(logs)):
        at_least_k = logs[k] - logs[k - 1]
        at_least_next = logs[k + 1] - logs[k] if k + 1 < len(logs) else 0
        moduli.extend([p ** k] * (at_least_k - at_least_next))
    return FgAbGroup(sorted(moduli))


def mixed_char_weight_piece(p: int, r: int, char_exp: int, s: int, w) -> FgAbGroup:
    """Degree-zero weight piece over Z/p^char_exp in one variable.

    The weight-w piece of level-s Witt vectors of (Z/p^N)[x] is the group
    of length (s - v) Witt vectors of Z/p^N, where p^v is the weight
    denominator; v at or above s gives the zero group."""
    if s > r:
        raise ValueError("level exceeds the tower length")
    v = denom_exp((Fraction(w),), p)
    if v >= s:
        return FgAbGroup([])
    if char_exp == 1:
        return FgAbGroup([p ** (s - v)])
    return witt_coefficient_group(p, s - v, char_exp)
