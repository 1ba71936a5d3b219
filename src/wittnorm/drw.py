"""Truncated towers of differential forms with Frobenius and Verschiebung.

Builds, for a polynomial base F_p[x] (or F_p[x, y]), the initial tower of
weight-graded differential graded pieces carrying operators d, F, V, R and
a structure map from weight-graded truncated Witt vectors.  Pieces are not
hardcoded from a basis theorem: each piece starts from a finite spanning
set of operator words and is cut down by saturating a relation lattice
under the structural identities until nothing grows.  Only the vanishing
above the top degree is taken as known (see TruncatedFVComplex).

Degree-n spanning symbols are products

    V^i[x^mu] * dV^t1[x^m1] * ... * dV^tn[x^mn]

of one plain lifted-monomial factor and n differential factors, stored in
an eagerly rewritten canonical form.  All eager rewrites are consequences
of the operator identities over an F_p-algebra base (where p = V F), so
the quotient only ever shrinks toward the initial object, never past it.

The build, the saturation and `check_fv_axioms` need only the lattice
layers (`intlinalg`, `abgroups`).  The comparison oracles import what
they compare against where they run: `witt` and `rings` in
`lambda_ring_check`, `degree_zero_witt_comparison` and
`TruncatedFVComplex.lambda_class`, `derham` in
`level_one_matches_de_rham`.
"""

from __future__ import annotations

import heapq
import itertools
import random
import weakref
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import SaturationError, require_prime
from .abgroups import (
    FgAbGroup,
    GroupHom,
    Presentation,
    induced_hom,
    present_quotient,
)
from .intlinalg import IntMatrix, matrix_mod

Weight = Tuple[Fraction, ...]
Num = Tuple[int, ...]
Mono = Tuple[int, ...]
# (i, mono, atoms): V^i[x^mono] times the atoms dV^t[x^dmono], each a
# pair (t, dmono); the degree is len(atoms)
Symbol = Tuple[int, Mono, Tuple[Tuple[int, Mono], ...]]

SATURATION_ROUND_LIMIT = 32


# ---------------------------------------------------------------------------
# weights
#
# Every weight component is n/p^e with e < r, so inside a tower a weight is
# the tuple of its integer numerators over D = p^(r-1).  Integer tuples sort
# like the rational tuples they stand for, so the piece order is the same in
# both.  `tower.pieces`, `TowerPiece.weight` and the accessors speak
# rational weights; `TruncatedFVComplex.fraction` is the one conversion.


def weight_add(a: Num, b: Num) -> Num:
    return tuple(x + y for x, y in zip(a, b))


def weight_sub(a: Num, b: Num) -> Num:
    return tuple(x - y for x, y in zip(a, b))


def weight_down(w: Num, p: int) -> Optional[Num]:
    """w / p, or None when a numerator is prime to p: that weight has
    denominator p^r and is never a piece."""
    if any(c % p for c in w):
        return None
    return tuple(c // p for c in w)


def weight_up(w: Num, p: int) -> Num:
    return tuple(c * p for c in w)


def enumerate_weights(p: int, r: int, nvars: int, cap: int) -> List[Num]:
    """Numerators over p^(r-1) of the weights with total at most cap."""
    top = cap * p ** (r - 1)
    return [w for w in itertools.product(range(top + 1), repeat=nvars) if sum(w) <= top]


# ---------------------------------------------------------------------------
# canonical symbols
#
# A symbol (i, mono, atoms) holds its atoms sorted and distinct: swapping
# two atoms changes the sign, and a repeated atom squares to zero.  Every
# degree shares the layout, and a piece holds symbols of one degree only,
# so sorting them sorts by lead first, then by atoms.  No tower stores a
# degree above 2, so `canon` orders one pair at most.


def _p_power_in(m: Mono, p: int, cap: int) -> int:
    """Largest k <= cap such that p^k divides every entry of m (m nonzero)."""
    g = gcd(*m)
    k = 0
    while k < cap and g % p == 0:
        g //= p
        k += 1
    return k


class SymbolCalculus:
    """Eager rewriting and operator actions on canonical symbols, base F_p."""

    def __init__(self, p: int, nvars: int):
        self.p = p
        self.nvars = nvars
        self.zero_mono: Mono = (0,) * nvars

    def _canon_lead(self, s: int, coeff: int, i: int, mono: Mono):
        # V^i[x^(p m)] = p V^(i-1)[x^m] over F_p, and V^i[1] = p^i
        p = self.p
        if i:
            if not any(mono):
                coeff *= p ** i
                i = 0
            elif gcd(*mono) % p == 0:
                k = _p_power_in(mono, p, i)
                pk = p ** k
                coeff *= pk
                i -= k
                mono = tuple(v // pk for v in mono)
        if i >= s:
            return None
        return coeff, i, mono

    def _merge_leads(self, coeff: int, i: int, a: Mono, j: int, b: Mono):
        """V^i[x^a] * V^j[x^b] = p^min(i,j) V^max[x^(a p^.. + b p^..)]."""
        p = self.p
        if i > j:
            i, j, a, b = j, i, b, a
        f = p ** (j - i)
        mono = tuple(x * f + y for x, y in zip(a, b))
        return coeff * p ** i, j, mono

    def canon(self, s: int, coeff: int, i: int, mono: Mono,
              atoms: Sequence[Tuple[int, Mono]]) -> List[Tuple[int, Symbol]]:
        """Rewrite one raw term of at most two atoms into a combination of
        canonical symbols."""
        if len(atoms) > 2:
            raise ValueError("symbol degree out of range")
        p = self.p
        lead = self._canon_lead(s, coeff, i, mono)
        if lead is None:
            return []
        coeff, i, mono = lead
        done: List[Tuple[int, Mono]] = []
        for at, (t, mv) in enumerate(atoms):
            if not any(mv):
                return []
            if t and gcd(*mv) % p == 0:
                # dV^t[x^(p m)] = p dV^(t-1)[x^m]
                k = _p_power_in(mv, p, t)
                pk = p ** k
                coeff *= pk
                t -= k
                mv = tuple(v // pk for v in mv)
            if t >= s:
                return []
            if t == 0 and sum(mv) != 1:
                # d[x^mv] is not d[x_j] (monomials are nonnegative):
                # d[x^mv] = sum_j mv_j [x^(mv - e_j)] d[x_j]; the plain
                # factor merges into the lead
                rest_atoms = list(atoms[at + 1:])
                out: List[Tuple[int, Symbol]] = []
                for j, mj in enumerate(mv):
                    if mj == 0:
                        continue
                    rest = tuple(v - (1 if k == j else 0)
                                 for k, v in enumerate(mv))
                    c2, i2, mono2 = self._merge_leads(coeff * mj, i, mono, 0, rest)
                    unit = tuple(1 if k == j else 0 for k in range(self.nvars))
                    out.extend(self.canon(s, c2, i2, mono2,
                                          done + [(0, unit)] + rest_atoms))
                return _combine(out)
            done.append((t, mv))
        if len(done) == 2:
            a, b = done
            if a == b:
                return []
            if a > b:
                return [(-coeff, (i, mono, (b, a)))]
        return [(coeff, (i, mono, tuple(done)))]

    # operators, each sending a canonical symbol to canonical combinations

    def apply_v(self, s: int, sym: Symbol) -> List[Tuple[int, Symbol]]:
        """V: level s -> level s + 1; every operator index shifts up."""
        i, mono, atoms = sym
        return self.canon(s + 1, 1, i + 1, mono, [(t + 1, mv) for t, mv in atoms])

    def apply_f(self, s: int, sym: Symbol) -> List[Tuple[int, Symbol]]:
        """F: level s -> level s - 1."""
        p = self.p
        i, mono, atoms = sym
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
        i, mono, atoms = sym
        return self.canon(s_target, 1, i, mono, atoms)

    def apply_d(self, s: int, sym: Symbol) -> List[Tuple[int, Symbol]]:
        i, mono, atoms = sym
        if len(atoms) == 2:
            raise ValueError("d out of the stored degree range")
        if i == 0 and not any(mono):
            return []  # d of a pure-differential symbol vanishes
        return self.canon(s, 1, 0, self.zero_mono, ((i, mono),) + atoms)

    def mul(self, s: int, sym_a: Symbol, sym_b: Symbol) -> List[Tuple[int, Symbol]]:
        ia, ma, at_a = sym_a
        ib, mb, at_b = sym_b
        coeff, i, mono = self._merge_leads(1, ia, ma, ib, mb)
        return self.canon(s, coeff, i, mono, at_a + at_b)


def _combine(terms: Iterable[Tuple[int, Symbol]]) -> List[Tuple[int, Symbol]]:
    acc: Dict[Symbol, int] = {}
    for c, sym in terms:
        acc[sym] = acc.get(sym, 0) + c
    return [(c, sym) for sym, c in acc.items() if c]


def _vf_fixes(atoms: Sequence[Tuple[int, Mono]]) -> bool:
    """VF sigma = p sigma on the canonical symbol sigma with these atoms:
    F then V gives back every dV^t[x^m] with t >= 2 and every dV[x_j]."""
    return all(t >= 2 or (t == 1 and sum(mv) == 1) for t, mv in atoms)


def _pullthrough_fixes(i: int, atoms: Sequence[Tuple[int, Mono]]) -> bool:
    """V^i(xi F^i(eta)) is the canonical symbol V^i(xi) eta itself: F^i
    then V^i gives back every atom dV^t[x^m] with t > i and dV^i[x_j]."""
    return all(t > i or (t == i and sum(mv) == 1) for t, mv in atoms)


def symbol_label(sym: Symbol) -> str:
    """The label `drw build` lists for a canonical symbol, e.g. "[x^1] dV^1[x^1]"."""
    def mono_str(m: Mono) -> str:
        parts = [f"{'xy'[j]}^{e}" for j, e in enumerate(m) if e]
        return "*".join(parts) if parts else "1"

    def lead_str(i: int, m: Mono) -> str:
        body = f"[{mono_str(m)}]"
        return f"V^{i}{body}" if i else body

    i, mono, atoms = sym
    out = [lead_str(i, mono)]
    for t, mv in atoms:
        body = f"[{mono_str(mv)}]"
        out.append(f"dV^{t}{body}" if t else f"d{body}")
    return " ".join(out)


# ---------------------------------------------------------------------------
# relation lattices modulo p^s
#
# A Howell-form lattice (Storjohann-Mulders 1998) does one job: incremental
# insertion with growth detection while a piece saturates.  Relation rows
# are sparse, {column: nonzero residue mod p^s} with Python ints: the
# relations of a tower piece touch a handful of its symbols, so a dense
# row would be almost all zeros.  Rows are offered in batches: each batch
# is first swept against the pivots held when it starts, ascending pivot
# column, and then every surviving row is inserted on its own, in order.
# The stored rows hang on that order, the span does not: presentations read
# the reduced Howell form, unique for the span (Howell 1986), so every report
# depends on the lattice alone.  The finished quotient is presented by the
# package's one Smith reduction, abgroups.present_quotient, on those rows.
# Every step works on Python ints, so p^s is not bounded by a machine word.

Row = Dict[int, int]


def _val_p(x: int, p: int, cap: int) -> int:
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _densify(row: Row, n: int) -> List[int]:
    out = [0] * n
    for j, x in row.items():
        out[j] = x
    return out


class LatticeModQ:
    """Row span inside (Z/p^s)^n in Howell echelon form, with sparse rows.

    `rows` maps each pivot column c to (e, row): the row leads at column
    c with entry exactly p^e, and every row is a {column: residue} map
    holding nonzero residues only.  Membership is decided by straight
    reduction against the pivot rows.  `insert_batch` takes and returns
    rows in the same sparse form; the returned rows are the new basis rows.
    """

    def __init__(self, n: int, p: int, s: int):
        self.n = n
        self.p = p
        self.s = s
        self.q = p ** s
        self._ppow = [p ** e for e in range(s + 1)]
        self.rows: Dict[int, Tuple[int, Row]] = {}
        self.unit_pivots = 0

    def _subtract(self, v: Row, f: int, row: Row) -> List[int]:
        """v -= f * row (mod q) in place; returns the columns it created."""
        q = self.q
        created = []
        for j, y in row.items():
            old = v.get(j)
            z = ((old or 0) - f * y) % q
            if z:
                v[j] = z
                if old is None:
                    created.append(j)
            elif old is not None:
                del v[j]
        return created

    def _sweep(self, v: Row) -> None:
        """Reduce v against the held pivots, ascending pivot column.

        Subtracting the row held at c only touches columns c and above, so
        a heap of the pivot columns present in v visits each in order."""
        rows, ppow = self.rows, self._ppow
        heap = [c for c in v if c in rows]
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            x = v.get(c)
            if x is None:
                continue
            e0, row = rows[c]
            f = x // ppow[e0]
            if f:
                for j in self._subtract(v, f, row):
                    if j in rows:
                        heapq.heappush(heap, j)

    def _normalized(self, col: int, v: Row) -> Tuple[int, Row]:
        e = _val_p(v[col], self.p, self.s)
        inv = pow(v[col] // self._ppow[e], -1, self.q)
        return e, {j: x * inv % self.q for j, x in v.items()}

    def _insert_single(self, vec: Row, added: List[Row]) -> None:
        p, s, q, ppow = self.p, self.s, self.q, self._ppow
        stack = [vec]
        while stack:
            v = stack.pop()
            while v:
                c = min(v)
                held = self.rows.get(c)
                if held is not None and _val_p(v[c], p, s) >= held[0]:
                    self._subtract(v, v[c] // ppow[held[0]], held[1])
                    continue
                # v takes over pivot column c; a displaced row is reinserted
                ew, new = self._normalized(c, v)
                self.rows[c] = (ew, new)
                if ew == 0:
                    self.unit_pivots += 1
                added.append(new)
                if ew:
                    push = ((j, x * ppow[s - ew] % q) for j, x in new.items())
                    stack.append({j: x for j, x in push if x})
                if held is None:
                    break
                v = dict(held[1])

    def is_full(self) -> bool:
        """True once the span is all of (Z/q)^n; nothing can be added."""
        return self.unit_pivots == self.n

    def insert_batch(self, rows: Sequence[Row]) -> List[Row]:
        """Insert sparse rows; returns the basis rows that are new."""
        if self.n == 0 or not rows or self.is_full():
            return []
        q = self.q
        batch = []
        for row in rows:
            v = {j: x % q for j, x in row.items() if x % q}
            self._sweep(v)
            if v:
                batch.append(v)
        added: List[Row] = []
        for v in batch:
            self._insert_single(v, added)
        return added

    def reduced_rows(self) -> Dict[int, Tuple[int, Row]]:
        """The reduced Howell form, {pivot column: (e, row)} ascending.

        Each stored row less its pivot p^e is swept against the later pivots,
        so its entry at a later pivot column j lies in [0, p^e_j).  With the
        Howell property insertion keeps, the form is unique for the span."""
        out = {}
        for c in sorted(self.rows):
            e, row = self.rows[c]
            v = {j: x for j, x in row.items() if j != c}
            self._sweep(v)
            v[c] = self._ppow[e]
            out[c] = (e, v)
        return out


def _present_from_lattice(lat: LatticeModQ) -> Presentation:
    """Presentation of Z^n / (span + p^s Z^n) from its reduced Howell rows.

    A reduced row is empty at every other unit-pivot column, so those
    coordinates drop out; `present_quotient` only sees the remainder.
    """
    n, q = lat.n, lat.q
    if n == 0:
        return Presentation(0, IntMatrix.zero(0, 0), FgAbGroup([]),
                            IntMatrix.zero(0, 0), IntMatrix.zero(0, 0))
    rows = lat.reduced_rows()
    elim_cols = [c for c, (e, _) in rows.items() if e == 0]
    elim_set = set(elim_cols)
    keep_cols = [c for c in range(n) if c not in elim_set]
    nk = len(keep_cols)
    if nk == 0:
        return Presentation(n, IntMatrix.identity(n), FgAbGroup([]),
                            IntMatrix.zero(0, n), IntMatrix.zero(n, 0))

    keep_at = {c: j for j, c in enumerate(keep_cols)}
    others = [row for e, row in rows.values() if e > 0]
    nr = len(others)
    sub = {(keep_at[j], i): v[j] for i, v in enumerate(others) for j in sorted(v)}
    sub.update({(k, nr + k): q for k in range(nk)})
    small = present_quotient(nk, IntMatrix(nk, nr + nk, sub))
    # Z^n -> Z^nk: identity on keep_cols; in the quotient a unit-pivot
    # coordinate c equals -(rest of its reduced row)
    to_small = {(j, c): 1 for j, c in enumerate(keep_cols)}
    for c in elim_cols:
        v = rows[c][1]
        to_small.update(((keep_at[j], c), -v[j] % q) for j in sorted(v) if j != c)
    proj = matrix_mod(small.proj * IntMatrix(nk, n, to_small), small.group.moduli)
    lift = IntMatrix(n, small.group.n,
                     {(keep_cols[i], j): v for i, row in small.lift.by_row.items()
                      for j, v in row.items()})
    rel = {(i, j): row[i] for j, (_, row) in enumerate(rows.values()) for i in sorted(row)}
    rel.update({(k, len(rows) + k): q for k in range(n)})
    relations = IntMatrix(n, len(rows) + n, rel)
    return Presentation(n, relations, small.group, proj, lift)


def present_quotient_ppower(n: int, rows: Iterable[Sequence[int]], p: int, s: int) -> Presentation:
    """Presentation of Z^n / (span(rows) + p^s Z^n)."""
    lat = LatticeModQ(n, p, s)
    batch = []
    for r in rows:
        if len(r) != n:
            raise ValueError(f"relation row of length {len(r)}, expected {n}")
        batch.append({j: int(x) for j, x in enumerate(r) if x})
    lat.insert_batch(batch)
    return _present_from_lattice(lat)


# ---------------------------------------------------------------------------
# the tower


@dataclass
class TowerPiece:
    level: int
    degree: int
    weight: Weight
    num: Num
    symbols: List[Symbol]
    index: Dict[Symbol, int]
    lattice: LatticeModQ
    pres: Optional[Presentation] = None

    @property
    def group(self) -> FgAbGroup:
        assert self.pres is not None
        return self.pres.group

    @property
    def key(self) -> "PieceKey":
        """The tower's internal key: level, degree and weight numerators."""
        return self.level, self.degree, self.num


PieceKey = Tuple[int, int, Num]


class ZeroPiece(TowerPiece):
    """A piece above the top degree, zero by Illusie's vanishing.

    Its group is trivial from the start, and it has no lattice or
    presentation.  Its symbols, the labels `drw build` lists, are made on
    first read, from the same enumeration as any other piece.  It holds its
    tower weakly, so that the tower, which holds the piece, is freed
    without the cyclic collector."""

    def __init__(self, tower: "TruncatedFVComplex", s: int, deg: int, w: Num):
        self.level, self.degree, self.weight, self.num = s, deg, tower.fraction(w), w
        self._tower = weakref.ref(tower)

    @property
    def group(self) -> FgAbGroup:
        return FgAbGroup([])

    @cached_property
    def symbols(self) -> List[Symbol]:
        return self._tower()._symbols_for(self.level, self.degree, self.num)


# the structure maps exposed as homs, in the order reports list them
OPERATORS = ("d", "v", "f", "r")


class TruncatedFVComplex:
    """Weight-truncated tower of differential pieces over F_p[x] (or x, y).

    Pieces are indexed by (level s, degree n, weight w); operators are
    exposed as GroupHom between presented quotients.  Construction seeds
    every piece below the top degree with its local relations and runs one
    saturation loop over all degrees, transporting new rows under V, d and
    products until no piece gains one; SATURATION_ROUND_LIMIT bounds the
    rounds of that loop, and SaturationError is raised when they do not
    suffice.  Products are taken against generators only: the lifts
    [x^k y^l], and in degree 1 the atoms d[x_j] and dV^t[x^m].  That is
    exact.  A degree-1 symbol is its lead times its atom, and by the
    projection formula V^e[x^m] y = V^e([x^m] F^e y) a fractional generator
    needs no move of its own ([x^k] V^e[x^m] = V^e[x^(k p^e + m)] covers
    the mixed weights).
    Neither R nor F is transported: each already maps relations into
    relations.  R commutes with d, F, V and products and sends each seed at
    level s into the span of the seeds at level s - 1.  F is
    multiplicative, FV = p, FdV = d and dF = pFd, so F of a seed or of a
    move's image is built from seeds and moves one level down; F d[x^k] =
    [x^(k(p-1))] d[x^k] brings in z d[x] = d(z [x]) - [x] dz.  The degree-2
    Leibniz rule is not seeded: for a degree-1 symbol lam w (lead, atom),
    d([x_j] lam w) - d[x_j] lam w - [x_j] d(lam w) is the degree-1 Leibniz
    relation of [x_j] and lam times the atom w, a product move.  Every F
    and R hom is still descended by induced_hom, and one that does not
    descend raises SaturationError.  A Tier-1 fixpoint test certifies that
    built towers are closed under F, R and every product, near the cap too.
    The first round carries only seeded rows and takes no product by a
    lift g = [x^k y^l]: each piece's seed span is closed under the lifts,
    so every such image already lies in its target's seed span.  g sigma
    is one symbol sigma' with sigma's lead index and atoms, so g times the
    p^(s-top) seed of sigma is that of sigma'; g (p - VF) sigma =
    (p - VF) sigma', as g V(y) = V(F(g) y) and F is multiplicative; g times
    the pullthrough seed of V^i(xi) eta is that of V^i(xi F^i(g)) eta.  For
    a Leibniz pair L(a, b) = d(ab) - a db - b da, g L(a, b) = L(ga, b) -
    L(g, ab) + b L(g, a), and the same with a and b swapped; ga and gb are
    generators and ab a multiple of one, so only the last term can leave
    the pair seeds.  When a or b is a lift that term is the zero row: d[x^k]
    is k [x^(k-1)] d[x] in the symbols, so two lifts have no Leibniz
    defect.  When a and b are both fractional no argument is written down;
    a Tier-1 test checks the closure on ten towers, as the fixpoint test
    does for the whole build.  V and d still move in round 1: V of a seeded
    row can leave the target's seed span (8 of 246 rows at (3,3,1,8)), and
    so can d in two variables, and the products by a degree-1 atom, whose
    degree-2 targets hold no Leibniz seeds.
    The seeding builds no row that is zero by construction.  Every stored
    symbol is canonical: a t = 0 atom is d[x_j], a t >= 1 atom's monomial
    is prime to p, and so is the lead's monomial when i >= 1.  On such a
    symbol VF sigma = p sigma when every atom has t >= 2, or t = 1 and a
    unit monomial, and then its p - VF row is zero; V^i(xi F^i(eta)) is
    V^i(xi) eta itself when every atom has t > i, or t = i and a unit
    monomial, and then its pullthrough row is zero; its p^(s-top) row is
    p^s sigma = 0 when top = 0; and the Leibniz row of two lifts is zero.
    The lift lemma above also holds row for row for
    g = [x]: [x] V^i[x^m] eta = V^i[x^(m + p^i e_x)] eta is one canonical
    symbol, so the p^(s-top), p - VF and pullthrough rows of [x] tau are
    those of tau, relabelled through tau' -> [x] tau'.  Each piece takes
    them from the piece one [x] below, which holds them only until then:
    they are seed rows, each made once, not a memo of transport images.
    The Leibniz rows are computed in every piece.  A Tier-1 test compares
    every piece's seeds with their direct computation.
    Pieces of degree above `nvars` are zero by Illusie's vanishing
    [Ill79, I.1] (a Langer-Zink basic Witt differential of degree n needs
    n variables), so they are not derived: each is a ZeroPiece, the
    trivial group, whose symbols and full lattice are made on first read.
    Operators into a trivial group are zero homs, built from no symbol.

    `pieces` is keyed by rational weights.  Internally a weight is the
    tuple of its numerators over D = p^(r-1) (`nums`, `_pieces`, and the
    PieceKey taken by `operators` and `operator_hom`).
    """

    def __init__(self, p: int, r: int, nvars: int = 1, weight_cap: int = 8):
        require_prime(p)
        if nvars not in (1, 2):
            raise ValueError("only one or two variables are supported")
        if r < 1:
            raise ValueError("tower length must be at least 1")
        if weight_cap < 0:
            raise ValueError(f"weight cap must be at least 0, got {weight_cap}")
        self.p = p
        self.r = r
        self.nvars = nvars
        self.weight_cap = weight_cap
        self.D = p ** (r - 1)
        # a V^i or dV^i factor of monomial m has weight m p^(r-1-i) / D
        self._scale = [p ** (r - 1 - i) for i in range(r)]
        self.calc = SymbolCalculus(p, nvars)
        self.nums = enumerate_weights(p, r, nvars, weight_cap)
        self._num_set = set(self.nums)
        # the generator V^e[x^m] of each nonzero weight (at the levels
        # above e), and the lifts [x^k y^l] of the integral ones
        self._gens: Dict[Num, Symbol] = {
            u: self._lead_for(r, u) + ((),) for u in self.nums if any(u)}
        self._lifts = [(u, gen) for u, gen in self._gens.items() if gen[0] == 0]
        # the seed rows held for the piece one [x] above until it is seeded
        self._held_seeds: Dict[PieceKey, Tuple[TowerPiece, List[List[Row]]]] = {}
        self._pieces: Dict[PieceKey, TowerPiece] = {}
        self._hom_cache: Dict[Tuple, GroupHom] = {}
        self._build()
        self.pieces: Dict[Tuple[int, int, Weight], TowerPiece] = {
            (pc.level, pc.degree, pc.weight): pc for pc in self._pieces.values()}

    # -- weights -------------------------------------------------------------

    def fraction(self, w: Num) -> Weight:
        """The rational weight with numerators w over D."""
        return tuple(Fraction(c, self.D) for c in w)

    def mono_weight(self, mono: Mono, i: int) -> Num:
        """Weight of V^i[x^mono], or of dV^i[x^mono]."""
        f = self._scale[i]
        return tuple(v * f for v in mono)

    def denom_exp(self, w: Num) -> int:
        """Largest e such that p^e divides a component denominator."""
        g = gcd(*w)
        top = self.r - 1
        return top - _p_power_in((g,), self.p, top) if g else 0

    def _symbol_weight(self, sym: Symbol) -> Num:
        i, mono, atoms = sym
        w = self.mono_weight(mono, i)
        for t, mv in atoms:
            w = weight_add(w, self.mono_weight(mv, t))
        return w

    # -- symbol enumeration --------------------------------------------------

    def _datoms_up_to(self, s: int, bound: Num) -> List[Tuple[int, Mono]]:
        out = []
        for j in range(self.nvars):
            if bound[j] >= self.D:
                out.append((0, tuple(1 if k == j else 0 for k in range(self.nvars))))
        for t in range(1, s):
            f = self._scale[t]
            ranges = [range(0, b // f + 1) for b in bound]
            for mono in itertools.product(*ranges):
                if not any(mono) or all(v % self.p == 0 for v in mono):
                    continue
                out.append((t, mono))
        return out

    def _lead_for(self, s: int, w: Num) -> Optional[Tuple[int, Mono]]:
        if any(c < 0 for c in w):
            return None
        e = self.denom_exp(w)
        if e >= s:
            return None
        f = self._scale[e]
        return e, tuple(c // f for c in w)

    def _symbols_for(self, s: int, deg: int, w: Num) -> List[Symbol]:
        # atoms by total weight, so each scan stops at the first atom that
        # outweighs what is left of w; distinct atom sets give distinct symbols
        weighted = []
        if deg:
            for t, mv in self._datoms_up_to(s, w):
                aw = self.mono_weight(mv, t)
                weighted.append((sum(aw), aw, (t, mv)))
            weighted.sort()
        syms: List[Symbol] = []
        # depth-first over (next atom, atoms so far, weight left); the
        # result is sorted, so the visiting order does not matter
        stack: List[Tuple[int, Tuple[Tuple[int, Mono], ...], Num]] = [(0, (), w)]
        while stack:
            start, atoms, left = stack.pop()
            if len(atoms) == deg:
                lead = self._lead_for(s, left)
                if lead is not None:
                    syms.append((lead[0], lead[1], tuple(sorted(atoms))))
                continue
            room = sum(left)
            for k in range(start, len(weighted)):
                n, aw, atom = weighted[k]
                if n > room:
                    break
                stack.append((k + 1, atoms + (atom,), weight_sub(left, aw)))
        return sorted(syms)

    def _vec(self, piece: TowerPiece, terms: Iterable[Tuple[int, Symbol]]) -> Row:
        """Sparse row mod q of a combination of the piece's symbols."""
        acc: Row = {}
        for c, sym in terms:
            k = piece.index[sym]
            acc[k] = acc.get(k, 0) + c
        q = piece.lattice.q
        return {k: c % q for k, c in acc.items() if c % q}

    def _project(self, piece: TowerPiece, terms: Iterable[Tuple[int, Symbol]]):
        if not piece.group.n:
            return ()
        return piece.pres.project_vec(_densify(self._vec(piece, terms), len(piece.symbols)))

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        for s in range(1, self.r + 1):
            for deg in range(3):
                for w in self.nums:
                    if deg > self.nvars:
                        # zero above the top degree; no transport lowers
                        # the degree, so no lower piece sees it
                        self._pieces[(s, deg, w)] = ZeroPiece(self, s, deg, w)
                        continue
                    syms = self._symbols_for(s, deg, w)
                    self._pieces[(s, deg, w)] = TowerPiece(
                        s, deg, self.fraction(w), w, syms,
                        {sym: k for k, sym in enumerate(syms)},
                        LatticeModQ(len(syms), self.p, s))
        # one saturation closes every degree: each piece below the top
        # degree starts from its local seeds, and the loop runs until no
        # transport adds a row.  That certifies the fixpoint, given the
        # class docstring's lemma for the lift products round 1 skips
        pending: Dict[PieceKey, List[Row]] = {}
        for key, piece in self._pieces.items():
            if key[1] > self.nvars or not piece.symbols:
                continue
            added = piece.lattice.insert_batch(self._local_seeds(piece))
            if added:
                pending[key] = added
        self._saturate(pending)
        for key, piece in self._pieces.items():
            if key[1] <= self.nvars:
                piece.pres = _present_from_lattice(piece.lattice)

    def _local_seeds(self, piece: TowerPiece) -> List[Row]:
        """The seed rows of each symbol, then the Leibniz pairs.  A symbol
        [x] tau takes the rows the piece below held for tau, relabelled."""
        s, deg, w = piece.key
        by_symbol: List[Optional[List[Row]]] = [None] * len(piece.symbols)
        held = self._held_seeds.pop(piece.key, None)
        if held is not None:
            below, below_rows = held
            # [x] V^i[x^m] eta = V^i[x^(m + p^i e_x)] eta, one canonical symbol
            up = [piece.index[(i, (m[0] + self.p ** i,) + m[1:], atoms)]
                  for i, m, atoms in below.symbols]
            for k, rows in zip(up, below_rows):
                by_symbol[k] = [{up[j]: c for j, c in row.items()} for row in rows]
        seeds: List[Row] = []
        for k, sym in enumerate(piece.symbols):
            if by_symbol[k] is None:
                by_symbol[k] = self._symbol_seeds(piece, sym)
            seeds.extend(by_symbol[k])
        above = (s, deg, (w[0] + self.D,) + w[1:])
        if above in self._pieces:
            self._held_seeds[above] = (piece, by_symbol)
        if deg == 1:
            seeds.extend(self._leibniz_pairs(piece))
        return seeds

    def _symbol_seeds(self, piece: TowerPiece, sym: Symbol) -> List[Row]:
        """The p^(s-top), p - VF and pullthrough rows of one symbol, less
        those that are zero by construction (see the class docstring)."""
        s, p, calc = piece.level, self.p, self.calc
        i, mono, atoms = sym
        top = max([i] + [t for t, _ in atoms])
        rows = [self._vec(piece, [(p ** (s - top), sym)])] if top else []
        if s >= 2 and not _vf_fixes(atoms):
            # p = V F holds on every piece over an F_p-algebra base
            rel: List[Tuple[int, Symbol]] = [(p, sym)]
            for cf, mid in calc.apply_f(s, sym):
                for cv, out in calc.apply_v(s - 1, mid):
                    rel.append((-cf * cv, out))
            rows.append(self._vec(piece, rel))
        if i >= 1 and atoms and not _pullthrough_fixes(i, atoms):
            rows.append(self._pullthrough_seed(piece, sym))
        return rows

    def _pullthrough_seed(self, piece: TowerPiece, sym: Symbol) -> Row:
        """V^i(xi) * eta = V^i(xi * F^i(eta)) for the differential part eta.

        F^i of an atom dV^t[x^m] with t < i is [x^(m(p^(i-t)-1))] d[x^m];
        the plain factor merges into xi."""
        calc = self.calc
        s = piece.level
        i, mono, atoms = sym
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
        return self._vec(piece, [(1, sym)] + [(-c, sm) for c, sm in terms])

    def _gen_symbol(self, s: int, u: Num) -> Optional[Symbol]:
        """The generator of the tower weight u at level s, if it has one."""
        gen = self._gens.get(u)
        return gen if gen is not None and gen[0] < s else None

    def _leibniz_row(self, piece: TowerPiece, a: Symbol, b: Symbol) -> Row:
        """The relation d(ab) - d(a) b - a d(b) in the piece of d(ab)."""
        s, calc = piece.level, self.calc
        terms = [(c * cd, sm) for c, ab in calc.mul(s, a, b) for cd, sm in calc.apply_d(s, ab)]
        terms += [(-c * cm, sm) for c, da in calc.apply_d(s, a) for cm, sm in calc.mul(s, da, b)]
        terms += [(-c * cm, sm) for c, db in calc.apply_d(s, b) for cm, sm in calc.mul(s, a, db)]
        return self._vec(piece, terms)

    def _leibniz_pairs(self, piece: TowerPiece) -> List[Row]:
        s, w = piece.level, piece.num
        out = []
        for u in self.nums:
            v = weight_sub(w, u)
            if v not in self._num_set or u > v:
                continue
            su = self._gen_symbol(s, u)
            sv = self._gen_symbol(s, v)
            # two lifts have no Leibniz defect (see the class docstring)
            if su is not None and sv is not None and (su[0] or sv[0]):
                out.append(self._leibniz_row(piece, su, sv))
        return out

    # relation transports between pieces

    def _moves(self, key: PieceKey) -> List[Tuple[Tuple, PieceKey]]:
        s, deg, w = key
        # v, then d.  No F and no R, see the class docstring.
        ops = dict(self.operators(key))
        moves = [((op,), ops[op]) for op in "vd" if op in ops]
        # products, tagged ("m", generator), against generators only, exact
        # by the class docstring: the lifts [x^k y^l] of the integral
        # weights (a fractional generator is reached through F, V and these
        # by the projection formula), then in two variables the degree-1
        # symbols with lead [1].  Every integral weight stays: with [x]
        # alone a relation would climb one [x] per saturation round.
        for u, gen in self._lifts:
            tgt = (s, deg, weight_add(w, u))
            if tgt in self._pieces:
                moves.append((("m", gen), tgt))
        if self.nvars == 2 and deg == 1:
            for u in self.nums:
                src = self._pieces.get((s, 1, u))
                tgt = (s, 2, weight_add(w, u))
                if src is None or tgt not in self._pieces:
                    continue
                moves.extend((("m", sym), tgt) for sym in src.symbols
                             if sym[0] == 0 and not any(sym[1]))
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
        if tag[0] == "m":
            # sym * gen; a degree-0 gen gives the same terms on either side
            gen = tag[1]
            return lambda sym: calc.mul(s, sym, gen)
        raise ValueError(f"unknown transport {tag}")

    def _images(self, key: PieceKey, tag: Tuple, tgt_key: PieceKey) -> List[Row]:
        """Each source symbol's image under the move, a sparse row mod the target q."""
        tgt, term_map = self._pieces[tgt_key], self._term_map(tag, key[0])
        return [self._vec(tgt, term_map(sym)) for sym in self._pieces[key].symbols]

    def _transport_rows(self, rows: List[Row], key: PieceKey,
                        tag: Tuple, tgt_key: PieceKey) -> List[Row]:
        """Images of sparse rows, computed on their stored residues and
        reduced mod the target q; images that vanish are dropped."""
        tgt = self._pieces[tgt_key]
        if not tgt.symbols:
            return []
        images = self._images(key, tag, tgt_key)
        q = tgt.lattice.q
        out = []
        for row in rows:
            acc: Row = {}
            for j, x in row.items():
                for t, c in images[j].items():
                    acc[t] = acc.get(t, 0) + x * c
            img = {t: c % q for t, c in acc.items() if c % q}
            if img:
                out.append(img)
        return out

    def _saturate(self, pending: Dict[PieceKey, List[Row]]) -> None:
        """Transport the pending new rows of each piece along its moves,
        round after round, until a round adds nothing to any piece."""
        rounds = 0
        while pending:
            rounds += 1
            if rounds > SATURATION_ROUND_LIMIT:
                key = sorted(pending)[0]
                raise SaturationError(
                    f"relation saturation unstable after {SATURATION_ROUND_LIMIT}"
                    f" rounds at level {key[0]} degree {key[1]}"
                    f" weight {self.fraction(key[2])}")
            # insert each transported batch at once so images never pile up;
            # light sources go first so heavy targets can fill and be skipped
            nxt: Dict[PieceKey, List[Row]] = defaultdict(list)
            order = sorted(pending, key=lambda k2: (sum(k2[2]), k2[0], k2[1]))
            for key in order:
                rows = pending[key]
                for tag, tgt_key in self._moves(key):
                    if rounds == 1 and tag[0] == "m" and not tag[1][2]:
                        # round 1 carries seeded rows, and each seed span
                        # is closed under the lifts (see the class docstring)
                        continue
                    tgt = self._pieces[tgt_key]
                    if tgt_key[1] > self.nvars or tgt.lattice.is_full():
                        continue
                    images = self._transport_rows(rows, key, tag, tgt_key)
                    if not images:
                        continue
                    added = tgt.lattice.insert_batch(images)
                    if added:
                        nxt[tgt_key].extend(added)
            pending = dict(nxt)

    # -- public accessors --------------------------------------------------

    def class_of(self, s: int, terms: Iterable[Tuple[int, Symbol]]):
        """Project a combination of canonical symbols; returns (piece, element)."""
        terms = list(terms)
        if not terms:
            raise ValueError("empty combination does not name a piece")
        sym = terms[0][1]
        piece = self._pieces[(s, len(sym[2]), self._symbol_weight(sym))]
        return piece, self._project(piece, terms)

    def operators(self, key: PieceKey) -> List[Tuple[str, PieceKey]]:
        """The OPERATORS out of the piece at key (a TowerPiece.key) whose
        target is a piece, with that target's key."""
        s, deg, w = key
        targets = ((s, deg + 1, w), (s + 1, deg, weight_down(w, self.p)),
                   (s - 1, deg, weight_up(w, self.p)), (s - 1, deg, w))
        return [(op, tgt) for op, tgt in zip(OPERATORS, targets) if tgt in self._pieces]

    def operator_hom(self, op: str, key: PieceKey) -> GroupHom:
        """The operator op, one of OPERATORS, out of the piece at key."""
        hit = self._hom_cache.get((op, key))
        if hit is None:
            src = self._pieces[key]
            dst_key = dict(self.operators(key)).get(op)
            if dst_key is None:
                raise KeyError(f"no {op} out of level {key[0]}, degree {key[1]},"
                               f" weight {src.weight}")
            dst = self._pieces[dst_key]
            if not dst.group.n:
                # the descent test is vacuous into the zero group, and the
                # map is zero; a trivial source still takes the test below
                hit = GroupHom.zero(src.group, dst.group)
            else:
                # reduced mod the target q, the ambient matrix descends to
                # the same hom: q e_j lies in every target's relation lattice
                data = {(t, j): c for j, img in enumerate(self._images(key, (op,), dst_key))
                        for t, c in img.items()}
                amb = IntMatrix(len(dst.symbols), len(src.symbols), data)
                try:
                    hit = induced_hom(src.pres, dst.pres, amb)
                except ValueError as exc:
                    raise SaturationError(f"{op} out of level {key[0]}, degree {key[1]},"
                                          f" weight {src.weight}: {exc}") from exc
            self._hom_cache[(op, key)] = hit
        return hit

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
        tgt = self._pieces[(s, piece_a.degree + piece_b.degree,
                            weight_add(piece_a.num, piece_b.num))]
        return tgt, self._project(tgt, terms)

    # -- structure map from weight-graded Witt vectors ----------------------

    def lambda_class(self, s: int, components: Dict[int, Tuple[int, Mono]]):
        """Image of the Witt vector sum_i V^i([c_i x^m_i]) in degree 0.

        components maps slot i to (c_i, m_i); every nonzero slot must
        carry the same weight.  Returns (piece, element)."""
        from .witt import teichmuller_character

        terms: List[Tuple[int, Symbol]] = []
        w: Optional[Num] = None
        for i, (c, mono) in sorted(components.items()):
            if c % self.p == 0:
                continue
            wi = self.mono_weight(mono, i)
            if w is None:
                w = wi
            elif w != wi:
                raise ValueError("components of mixed weight")
            scale = teichmuller_character(self.p, s, c % self.p)
            terms.extend((scale * cc, sym)
                         for cc, sym in self.calc.canon(s, 1, i, mono, []))
        if w is None:
            raise ValueError("the zero vector does not name a weight")
        piece = self._pieces[(s, 0, w)]
        return piece, self._project(piece, terms)


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
    """Evaluate the ten structural identities on generators and random pairs.

    Each identity is a local check that returns its first witness, or None
    when it holds; they run in FV_AXIOM_NAMES order on one seeded stream."""
    rng = random.Random(seed)
    p = tower.p
    # integer-keyed pieces and homs; witnesses print the rational weights
    pieces, hom = tower._pieces, tower.operator_hom
    cap = tower.weight_cap * tower.D
    # above the top degree both sides of 6 and 7 are maps out of the zero
    # group, so those pieces are skipped there
    top = tower.nvars
    deg0 = [(k, pc) for k, pc in pieces.items()
            if k[1] == 0 and pc.symbols and pc.group.n]

    def d_squared():
        # d then d vanishes out of degree 0
        for (s, deg, w), piece in pieces.items():
            if deg != 0 or not piece.symbols:
                continue
            if not hom("d", (s, 1, w)).compose(hom("d", (s, 0, w))).is_zero():
                return f"d^2 != 0 at level {s} weight {piece.weight}"

    def leibniz():
        # on sampled degree-0 products
        for _ in range(samples if deg0 else 0):
            (s1, _, w1), pa = rng.choice(deg0)
            cands = [(k, pc) for k, pc in deg0
                     if k[0] == s1 and (s1, 0, weight_add(w1, k[2])) in pieces]
            if not cands:
                continue
            (_, _, w2), pb = rng.choice(cands)
            ea = pa.group.random_element(rng)
            eb = pb.group.random_element(rng)
            prod_piece, prod = tower.mul_elts(s1, pa, ea, pb, eb)
            lhs = hom("d", prod_piece.key).apply(prod)
            p1, t1 = tower.mul_elts(s1, pa, ea, pieces[(s1, 1, w2)],
                                    hom("d", (s1, 0, w2)).apply(eb))
            _, t2 = tower.mul_elts(s1, pb, eb, pieces[(s1, 1, w1)],
                                   hom("d", (s1, 0, w1)).apply(ea))
            if tuple(lhs) != tuple(p1.group.add(t1, t2)):
                return f"Leibniz fails at level {s1} weights {pa.weight}+{pb.weight}"

    def graded_commutativity():
        # products of degree-1 generator lifts anticommute
        deg1 = [(k, pc) for k, pc in pieces.items() if k[1] == 1 and pc.symbols]
        for (s, _, w1), pa in deg1:
            for (s2, _, w2), pb in deg1:
                if s2 != s:
                    continue
                # a projection into the zero group is zero, so a trivial target
                # (every one-variable degree-2 piece) cannot change the verdict
                tgt = pieces.get((s, 2, weight_add(w1, w2)))
                if tgt is None or not tgt.group.n:
                    continue
                for sa in pa.symbols[:3]:
                    for sb in pb.symbols[:3]:
                        elt = tower._project(tgt, tower.calc.mul(s, sa, sb)
                                             + tower.calc.mul(s, sb, sa))
                        if any(elt):
                            return f"uv + vu != 0 at level {s}"

    def f_multiplicative():
        pool = [(k, pc) for k, pc in deg0 if k[0] >= 2]
        for _ in range(samples if pool else 0):
            (s, _, w1), pa = rng.choice(pool)
            cands = [(k, pc) for k, pc in deg0 if k[0] == s
                     and (s, 0, weight_add(w1, k[2])) in pieces
                     and p * sum(weight_add(w1, k[2])) <= cap]
            if not cands:
                continue
            (_, _, w2), pb = rng.choice(cands)
            ea, eb = pa.group.random_element(rng), pb.group.random_element(rng)
            prod_piece, prod = tower.mul_elts(s, pa, ea, pb, eb)
            lhs = hom("f", prod_piece.key).apply(prod)
            qa = pieces[(s - 1, 0, weight_up(w1, p))]
            qb = pieces[(s - 1, 0, weight_up(w2, p))]
            _, rhs = tower.mul_elts(s - 1, qa, hom("f", (s, 0, w1)).apply(ea),
                                    qb, hom("f", (s, 0, w2)).apply(eb))
            if tuple(lhs) != tuple(rhs):
                return f"F(xy) != F(x)F(y) at level {s}"

    def v_products():
        pool = [(k, pc) for k, pc in deg0 if k[0] < tower.r]
        for _ in range(samples if pool else 0):
            (s, _, w1), pa = rng.choice(pool)
            cands = [(k, pc) for k, pc in deg0 if k[0] == s
                     and (s, 0, weight_add(w1, k[2])) in pieces]
            if not cands:
                continue
            (_, _, w2), pb = rng.choice(cands)
            ea, eb = pa.group.random_element(rng), pb.group.random_element(rng)
            qa = pieces[(s + 1, 0, weight_down(w1, p))]
            qb = pieces[(s + 1, 0, weight_down(w2, p))]
            _, lhs = tower.mul_elts(s + 1, qa, hom("v", (s, 0, w1)).apply(ea),
                                    qb, hom("v", (s, 0, w2)).apply(eb))
            prod_piece, prod = tower.mul_elts(s, pa, ea, pb, eb)
            tgt = pieces[(s + 1, 0, weight_down(prod_piece.num, p))]
            rhs = tgt.group.scale(p, hom("v", prod_piece.key).apply(prod))
            if tuple(lhs) != tuple(rhs):
                return f"V(x)V(y) != pV(xy) at level {s}"

    def r_commutes():
        for (s, deg, w), piece in pieces.items():
            if deg > top or not piece.symbols or s < 3:
                continue
            wu = weight_up(w, p)
            if sum(wu) > cap:
                continue
            a = hom("f", (s - 1, deg, w)).compose(hom("r", (s, deg, w)))
            b = hom("r", (s - 1, deg, wu)).compose(hom("f", (s, deg, w)))
            if a != b:
                return f"RF != FR at level {s} weight {piece.weight}"
        for (s, deg, w), piece in pieces.items():
            if deg > top or not piece.symbols or s < 2 or s >= tower.r:
                continue
            a = hom("v", (s - 1, deg, w)).compose(hom("r", (s, deg, w)))
            b = hom("r", (s + 1, deg, weight_down(w, p))).compose(hom("v", (s, deg, w)))
            if a != b:
                return f"RV != VR at level {s} weight {piece.weight}"

    def fv_is_p():
        for (s, deg, w), piece in pieces.items():
            if deg > top or not piece.symbols or s >= tower.r:
                continue
            comp = hom("f", (s + 1, deg, weight_down(w, p))).compose(hom("v", (s, deg, w)))
            if comp != GroupHom.scalar(piece.group, p):
                return f"FV != p at level {s} degree {deg} weight {piece.weight}"

    def fdv_is_d():
        # in degree 0
        for (s, deg, w), piece in pieces.items():
            if deg != 0 or not piece.symbols or s >= tower.r:
                continue
            wd = weight_down(w, p)
            comp = hom("f", (s + 1, 1, wd)).compose(
                hom("d", (s + 1, 0, wd))).compose(hom("v", (s, 0, w)))
            if comp != hom("d", (s, 0, w)):
                return f"FdV != d at level {s} weight {piece.weight}"

    def projection_formula():
        # on sampled pairs; a nontrivial group has symbols, and the zero
        # pieces are never read
        pool = [(k, pc) for k, pc in pieces.items() if k[0] >= 2 and pc.group.n]
        for _ in range(samples if pool else 0):
            (s, dega, w1), pa = rng.choice(pool)
            wf = weight_up(w1, p)
            if sum(wf) > cap:
                continue
            cands = [(k, pc) for k, pc in pieces.items()
                     if k[0] == s - 1 and pc.group.n
                     and k[1] + dega <= 2
                     and (s - 1, dega + k[1], weight_add(wf, k[2])) in pieces]
            if not cands:
                continue
            (_, degb, w2), pb = rng.choice(cands)
            x = pa.group.random_element(rng)
            y = pb.group.random_element(rng)
            fx_piece = pieces[(s - 1, dega, wf)]
            mid_piece, mid = tower.mul_elts(s - 1, fx_piece,
                                            hom("f", (s, dega, w1)).apply(x), pb, y)
            lhs = hom("v", mid_piece.key).apply(mid)
            vy_piece = pieces[(s, degb, weight_down(w2, p))]
            rhs_piece, rhs = tower.mul_elts(s, pa, x, vy_piece,
                                            hom("v", (s - 1, degb, w2)).apply(y))
            lhs_key = (s, mid_piece.degree, weight_down(mid_piece.num, p))
            if lhs_key != rhs_piece.key or tuple(lhs) != tuple(rhs):
                return f"projection formula fails at level {s}"

    def teichmuller_rule():
        # F of d on the lifted coordinate generators
        for j in range(tower.nvars):
            w1 = tuple(tower.D if k == j else 0 for k in range(tower.nvars))
            for s in range(2, tower.r + 1):
                if sum(weight_up(w1, p)) > cap:
                    continue
                gen_piece = pieces[(s, 0, w1)]
                if len(gen_piece.symbols) != 1:
                    continue
                gen = gen_piece.pres.project_vec([1])
                lhs = hom("f", (s, 1, w1)).apply(hom("d", (s, 0, w1)).apply(gen))
                unit = tuple(1 if k == j else 0 for k in range(tower.nvars))
                pw_piece, pw = tower.class_of(
                    s - 1, tower.calc.canon(s - 1, 1, 0,
                                            tuple((p - 1) * v for v in unit), []))
                low_piece = pieces[(s - 1, 1, w1)]
                dlow = hom("d", (s - 1, 0, w1)).apply(
                    pieces[(s - 1, 0, w1)].pres.project_vec([1]))
                _, rhs = tower.mul_elts(s - 1, pw_piece, pw, low_piece, dlow)
                if tuple(lhs) != tuple(rhs):
                    return f"Teichmuller rule fails at level {s} var {j}"

    checks = (d_squared, leibniz, graded_commutativity, f_multiplicative, v_products,
              r_commutes, fv_is_p, fdv_is_d, projection_formula, teichmuller_rule)
    entries = []
    for name, check in zip(FV_AXIOM_NAMES, checks):
        wit = check()
        entries.append((name, wit is None, wit))
    return FVAxiomReport(entries)


def lambda_ring_check(tower: TruncatedFVComplex, samples: int = 30, seed: int = 0) -> bool:
    """The structure map respects addition and multiplication of
    homogeneous Witt vectors (one variable only)."""
    from .rings import GFPolyRing
    from .witt import WittRing

    if tower.nvars != 1:
        raise ValueError("the Witt comparison works in one variable")
    rng = random.Random(seed)
    p, r = tower.p, tower.r

    def random_components(s: int, w: int):
        comps = {}
        for i in range(tower.denom_exp((w,)), s):
            c = rng.randrange(p)
            if c:
                comps[i] = (c, (w // tower._scale[i],))
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
        nums = sorted({w[0] for w in tower.nums
                       if w[0] > 0 and tower.denom_exp(w) < s})
        for _ in range(samples):
            w1 = rng.choice(nums)
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
            w2 = rng.choice(nums)
            if w1 + w2 > tower.weight_cap * tower.D or not a:
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
    from .rings import GFPolyRing
    from .witt import WittRing

    if tower.nvars != 1:
        raise ValueError("the Witt comparison works in one variable")
    p = tower.p
    for s in range(1, tower.r + 1):
        ring = WittRing(p, s, GFPolyRing(p))
        for w in tower.nums:
            piece = tower._pieces[(s, 0, w)]
            wf = w[0]
            e = tower.denom_exp(w)
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
                m = wf // tower._scale[e]
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
    from .derham import DeRhamComplex

    dr = DeRhamComplex(tower.p, tower.nvars, tower.weight_cap)
    D = tower.D
    for w in tower.nums:
        if tower.denom_exp(w) != 0:
            if any(tower._pieces[(1, deg, w)].group.order() != 1 for deg in range(3)):
                return False
            continue
        w_int = sum(w) // D
        for deg in range(3):
            piece = tower._pieces[(1, deg, w)]
            if deg <= tower.nvars:
                basis = [bk for bk in dr.basis(deg, w_int)
                         if _basis_weight_vec(bk, tower.nvars)
                         == tuple(c // D for c in w)]
            else:
                basis = []
            if piece.group.order() != tower.p ** len(basis):
                return False
            if deg >= 2 or not basis:
                continue
            mat = tower.operator_hom("d", (1, deg, w))
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
                    ref = tower._pieces[(1, deg + 1, w)].group.zero()
                if tuple(img) != tuple(ref):
                    return False
    return True


def universal_map_check(tower: TruncatedFVComplex) -> bool:
    """The canonical map of the tower to itself, determined on lifted
    coordinates, is the identity on every piece.  A piece whose group is
    trivial is skipped: the identity check is vacuous there, and reading
    its labels would force a lazy zero piece."""
    for piece in tower.pieces.values():
        if not piece.group.n:
            continue
        hom = induced_hom(piece.pres, piece.pres, IntMatrix.identity(len(piece.symbols)))
        if not hom.is_identity():
            return False
    return True


# ---------------------------------------------------------------------------
# stability and mixed-characteristic degree-zero pieces


def stable_under_cap_increase(tower: TruncatedFVComplex) -> bool:
    """Pieces of weight within the tower's cap must not change when the cap
    grows by two."""
    big = build_drw(tower.p, tower.r, tower.nvars, tower.weight_cap + 2)
    for key, piece in tower.pieces.items():
        if piece.group.moduli != big.pieces[key].group.moduli:
            return False
    return True


def langer_zink_moduli(p: int, s: int, deg: int, k: Weight) -> Tuple[int, ...]:
    """Invariant factors of W_s Omega^deg of F_p[x_1..x_d] at weight k,
    counted on Langer-Zink's basic Witt differentials: C(|supp k|, deg)
    copies of Z/p^(s-u), with p^u the largest component denominator, when
    k is nonzero and u < s; Z/p^s in degree 0 at k = 0; else 0."""
    support = sum(1 for c in k if c)
    if support == 0:
        return (p ** s,) if deg == 0 else ()
    den, u = max(Fraction(c).denominator for c in k), 0
    while den % p == 0:
        den //= p
        u += 1
    return (p ** (s - u),) * comb(support, deg) if u < s else ()


def langer_zink_mismatch(tower: TruncatedFVComplex) -> Optional[str]:
    """Names the first piece whose invariant factors differ from the
    Langer-Zink count; None when every piece agrees."""
    for (s, deg, w), piece in tower.pieces.items():
        want = langer_zink_moduli(tower.p, s, deg, w)
        if piece.group.moduli != want:
            return (f"piece at level {s} degree {deg} weight {w} has moduli"
                    f" {piece.group.moduli}; the Langer-Zink count is {want}")
    return None


def witt_coefficient_group(p: int, m: int, char_exp: int) -> FgAbGroup:
    """Underlying group of length-m Witt vectors over Z/p^char_exp.

    W_m(Z/p^N) = W_m(Z) / W_m(p^N Z).  The ghost map embeds W_m(Z) in Z^m
    with image {w : w_n = w_(n-1) mod p^n} (Dwork's lemma), whose basis is
    b_n = p^n (e_n + ... + e_(m-1)).  W_m(p^N Z) is spanned by the ghost
    vectors of V^i[a], a in p^N Z, with component n >= i equal to
    p^i a^(p^(n-i)): a polynomial in a of degree at most p^(m-1-i), so by
    Newton interpolation its values at a = p^N k, k = 1..p^(m-1-i), span
    the same lattice.  The group is one Smith form of those vectors,
    written in the basis b."""
    require_prime(p)
    if char_exp < 1:
        raise ValueError(f"char exp must be at least 1, got {char_exp}")
    cols = []
    for i in range(m):
        for k in range(1, p ** (m - 1 - i) + 1):
            a = p ** char_exp * k
            g = [p ** i * a ** p ** (n - i) if n >= i else 0 for n in range(m)]
            cols.append([g[0]] + [(g[n] - g[n - 1]) // p ** n for n in range(1, m)])
    return present_quotient(m, IntMatrix.from_columns(cols, rows=m)).group


def mixed_char_weight_piece(p: int, r: int, char_exp: int, s: int, w) -> FgAbGroup:
    """Degree-zero weight piece over Z/p^char_exp in one variable.

    The weight-w piece of level-s Witt vectors of (Z/p^N)[x] is the group
    of length (s - v) Witt vectors of Z/p^N, where p^v is the weight
    denominator; v at or above s gives the zero group."""
    if s > r:
        raise ValueError("level exceeds the tower length")
    den, v = Fraction(w).denominator, 0
    while den > 1:
        if den % p:
            raise ValueError("weight denominator is not a p-power")
        den //= p
        v += 1
    if v >= s:
        return FgAbGroup([])
    return witt_coefficient_group(p, s - v, char_exp)
