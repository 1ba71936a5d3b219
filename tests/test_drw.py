"""Truncated F-V towers: saturation output, axioms, comparisons."""

import gc
import hashlib
import itertools
import math
import os
import random
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest

import langer_zink
from wittnorm import drw, suites
from wittnorm.abgroups import (
    FgAbGroup,
    GroupHom,
    induced_hom,
    is_isomorphism,
    present_quotient,
)
from wittnorm.derham import DeRhamComplex
from wittnorm.drw import (
    LatticeModQ,
    build_drw,
    check_fv_axioms,
    degree_zero_witt_comparison,
    enumerate_weights,
    lambda_ring_check,
    level_one_matches_de_rham,
    mixed_char_weight_piece,
    present_quotient_ppower,
    stable_under_cap_increase,
    symbol_label,
    universal_map_check,
    witt_coefficient_group,
)
from wittnorm.intlinalg import IntMatrix, matrix_mod
from wittnorm.rings import ZModRing
from wittnorm.witt import WittRing

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import oracles  # noqa: E402


def expected_piece_moduli(p, s, deg, w):
    return list(langer_zink.piece_moduli(p, s, deg, w))


def test_weight_enumeration_frozen():
    # numerators over p^(r-1) = 2: the weights 0, 1/2, 1, 3/2, 2
    ws = enumerate_weights(2, 2, 1, 2)
    assert ws == [(0,), (1,), (2,), (3,), (4,)]
    tw = build_drw(2, 2, 1, 2)
    assert [tw.fraction(w) for w in ws] == [(Fraction(0),), (Fraction(1, 2),), (Fraction(1),),
                                            (Fraction(3, 2),), (Fraction(2),)]
    # denominators above p^(r-1) never appear
    assert all(tw.denom_exp(w) <= 1 for w in ws)


def test_classical_complex_small():
    cx = DeRhamComplex(2, nvars=1, weight_cap=6)
    assert [len(cx.basis(0, w)) for w in range(4)] == [1, 1, 1, 1]
    assert [len(cx.basis(1, w)) for w in range(1, 4)] == [1, 1, 1]
    assert cx.basis(2, 3) == []
    for w in range(1, 6):
        comp = cx.d_hom(1, w).compose(cx.d_hom(0, w))
        assert all(comp.apply(elt) == comp.dst.zero()
                   for elt in comp.src.elements())


def test_presentation_from_plain_lattice():
    pres = present_quotient_ppower(2, [[2, 0]], 2, 2)
    assert pres.group == FgAbGroup([2, 4])
    full = present_quotient_ppower(2, [[1, 0], [0, 1]], 2, 2)
    assert full.group.is_trivial()
    free = present_quotient_ppower(2, [], 2, 2)
    assert free.group == FgAbGroup([4, 4])
    with pytest.raises(ValueError):
        present_quotient_ppower(2, [[1, 0, 0]], 2, 2)
    # projection and lift stay inverse to each other
    for vec in ([1, 0], [0, 3], [1, 2]):
        elt = pres.project_vec(vec)
        assert pres.project_vec(pres.lift_elt(elt)) == elt


def assert_matches_full_lattice(pres, n, rows, q):
    # oracle: one Smith reduction of the whole relation lattice rows + q Z^n
    lattice = IntMatrix.from_columns([list(r) for r in rows], n)
    oracle = present_quotient(n, lattice.hstack(IntMatrix(n, n, {(i, i): q for i in range(n)})))
    mods = pres.group.moduli
    assert pres.group == oracle.group
    ident = IntMatrix.identity(pres.group.n)
    assert matrix_mod(pres.proj * pres.lift, mods) == matrix_mod(ident, mods)
    assert matrix_mod(pres.proj * oracle.relations, mods).is_zero()
    assert is_isomorphism(GroupHom(oracle.group, pres.group, pres.proj * oracle.lift))


def stored_rows(lattice):
    """A lattice's stored rows, ascending pivot column."""
    return [lattice.rows[c][1] for c in sorted(lattice.rows)]


def dense_rows(lattice):
    """Dense copies of a lattice's stored rows, ascending pivot column."""
    return [[row.get(j, 0) for j in range(lattice.n)] for row in stored_rows(lattice)]


def eager_pieces(tw):
    """The tower's pieces, each ZeroPiece replaced by the piece an eager
    build would hold: its symbols with their index, the full lattice and
    the presentation of 0 that it gives."""
    out = {}
    for key, pc in tw._pieces.items():
        if isinstance(pc, drw.ZeroPiece):
            n = len(pc.symbols)
            lat = drw.LatticeModQ(n, tw.p, pc.level)
            lat.insert_batch([{c: 1} for c in range(n)])
            assert lat.is_full()
            pc = drw.TowerPiece(pc.level, pc.degree, pc.weight, pc.num, pc.symbols,
                                {sym: k for k, sym in enumerate(pc.symbols)}, lat,
                                drw._present_from_lattice(lat))
        out[key] = pc
    return out


def test_ppower_presentation_matches_full_lattice_oracle():
    rng = random.Random(5)
    for p in (2, 3):
        for s in (1, 2, 3):
            q = p ** s
            for n in range(1, 7):
                cases = [[], [[int(i == j) for j in range(n)] for i in range(n)]]
                for _ in range(4):
                    cases.append([[rng.choice([0, 0, 1, p, q - 1, rng.randrange(q)])
                                   for _ in range(n)] for _ in range(rng.randint(1, n + 1))])
                for rows in cases:
                    pres = present_quotient_ppower(n, rows, p, s)
                    assert_matches_full_lattice(pres, n, rows, q)
    tw = build_drw(2, 2, 1, 4)
    for (s, _, _), piece in eager_pieces(tw).items():
        n, rows = len(piece.symbols), dense_rows(piece.lattice)
        assert_matches_full_lattice(piece.pres, n, rows, 2 ** s)
        assert_matches_full_lattice(present_quotient_ppower(n, rows, 2, s), n, rows, 2 ** s)


@pytest.mark.parametrize("p,s", [(2, 62), (3, 45)])
def test_presentation_beyond_int64(p, s):
    # every step runs on Python ints, so q^2 far past 2^63 is exact
    q = p ** s
    rows = [[1, q - 1, p ** 40 + 1, q - 7, q - 2],
            [0, p ** 3, q - p, p * p, p ** 30 + 1],
            [0, 0, 1, q // p - 1, q - 3],
            [q - 1, 5, 0, 0, 1]]
    pres = present_quotient_ppower(5, rows, p, s)
    assert_matches_full_lattice(pres, 5, rows, q)
    assert q in pres.group.moduli


def _val_p(x, p, cap):
    if x == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class _DenseReferenceLattice:
    """The dense numpy Howell lattice the sparse LatticeModQ replaced.

    It pins insertion, not the report: the stored rows the sparse lattice
    must reproduce after one sweep of the batch against the pivots held at
    its start, ascending pivot column, then each surviving row inserted on
    its own.  Reports read the reduced form, which hangs on the span only.
    It counts displacements so the test can show it exercised them."""

    def __init__(self, n, p, s):
        self.n, self.p, self.s, self.q = n, p, s, p ** s
        self.rows = {}
        self.unit_pivots = 0
        self.displaced = 0

    def _normalized(self, col, vec):
        e = _val_p(int(vec[col]), self.p, self.s)
        inv = pow(int(vec[col]) // self.p ** e, -1, self.q)
        return e, (vec.astype(np.int64) * inv) % self.q

    def _insert_single(self, vec, added):
        stack = [vec.astype(np.int64) % self.q]
        while stack:
            v = stack.pop()
            while True:
                nz = np.nonzero(v)[0]
                if len(nz) == 0:
                    break
                c = int(nz[0])
                held = self.rows.get(c)
                if held is not None and _val_p(int(v[c]), self.p, self.s) >= held[0]:
                    e0, row = held
                    v = (v - (int(v[c]) // self.p ** e0) * row) % self.q
                    continue
                ew, new = self._normalized(c, v)
                self.rows[c] = (ew, new)
                if ew == 0:
                    self.unit_pivots += 1
                added.append(new)
                if ew:
                    stack.append((new * self.p ** (self.s - ew)) % self.q)
                if held is None:
                    break
                self.displaced += 1
                v = held[1].copy()

    def insert_batch(self, mat):
        if self.n == 0 or mat.size == 0 or self.unit_pivots == self.n:
            return []
        m = np.asarray(mat, dtype=np.int64) % self.q
        for c in sorted(self.rows):
            e0, row = self.rows[c]
            f = (m[:, c] % self.q) // self.p ** e0
            m -= np.outer(f, row)
        m %= self.q
        added = []
        for k in range(m.shape[0]):
            if m[k].any():
                self._insert_single(m[k], added)
        return added


def _random_batch(rng, n, p, q, earlier):
    def entry():
        return rng.choice([0, 0, 0, 0, 1, p, p * p, q - 1, -1, q + p,
                           rng.randrange(q)])

    batch = []
    for _ in range(rng.randint(1, 2 * n)):
        roll = rng.random()
        if roll < 0.1:
            batch.append([0] * n)
        elif roll < 0.25 and (batch or earlier):
            batch.append(list(rng.choice(batch + earlier)))
        else:
            lead = rng.randrange(n)
            batch.append([0] * lead + [entry() for _ in range(n - lead)])
    return batch


def test_sparse_lattice_matches_dense_reference():
    def dense(row, n):
        return [row.get(j, 0) for j in range(n)]

    rng = random.Random(7)
    displaced = 0
    for p in (2, 3, 5):
        for s in (1, 2, 3):
            q = p ** s
            for _ in range(40):
                n = rng.randint(1, 12)
                lat, ref = LatticeModQ(n, p, s), _DenseReferenceLattice(n, p, s)
                earlier = []
                for _ in range(rng.randint(1, 5)):
                    batch = _random_batch(rng, n, p, q, earlier)
                    earlier += batch
                    got = lat.insert_batch(
                        [{j: x for j, x in enumerate(row) if x} for row in batch])
                    want = ref.insert_batch(np.array(batch, dtype=np.int64))
                    assert [dense(row, n) for row in got] == [row.tolist() for row in want]
                    assert {c: (e, dense(row, n)) for c, (e, row) in lat.rows.items()} \
                        == {c: (e, row.tolist()) for c, (e, row) in ref.rows.items()}
                    assert all(0 < x < q for _, row in lat.rows.values()
                               for x in row.values())
                    assert lat.unit_pivots == ref.unit_pivots
                    assert lat.is_full() == (ref.unit_pivots == n)
                displaced += ref.displaced
    assert displaced > 0


def test_reduced_rows_do_not_hang_on_insertion_order():
    # the same rows in one batch, then shuffled one row per batch: the
    # stored rows may differ, the reduced Howell form and the presentation
    # read from it may not
    rng = random.Random(41)
    stored_differ = 0
    for p in (2, 3, 5):
        for s in range(1, 5):
            q = p ** s
            for _ in range(25):
                n = rng.randint(1, 8)
                rows = [{j: x for j, x in enumerate(row) if x}
                        for row in _random_batch(rng, n, p, q, [])]
                one, each = LatticeModQ(n, p, s), LatticeModQ(n, p, s)
                one.insert_batch(rows)
                for row in rng.sample(rows, len(rows)):
                    each.insert_batch([row])
                stored_differ += one.rows != each.rows
                reduced = one.reduced_rows()
                assert reduced == each.reduced_rows()
                for c, (e, row) in reduced.items():
                    assert row[c] == p ** e
                    assert all(0 < x < q for x in row.values())
                    assert all(row.get(j, 0) < p ** ej
                               for j, (ej, _) in reduced.items() if j > c)
                a, b = drw._present_from_lattice(one), drw._present_from_lattice(each)
                assert (a.relations, a.group, a.proj, a.lift) \
                    == (b.relations, b.group, b.proj, b.lift)
                dense = [[row.get(j, 0) for j in range(n)] for row in rows]
                assert_matches_full_lattice(a, n, dense, q)
    assert stored_differ > 0


def test_hand_fixtures_p2_r2():
    pieces = build_drw(2, 2, 1, 8).pieces
    assert pieces[(2, 0, (Fraction(1),))].group == FgAbGroup([4])
    assert pieces[(2, 1, (Fraction(1),))].group == FgAbGroup([4])
    assert pieces[(2, 1, (Fraction(3, 2),))].group == FgAbGroup([2])
    assert pieces[(2, 2, (Fraction(3, 2),))].group.is_trivial()
    assert pieces[(1, 0, (Fraction(1),))].group == FgAbGroup([2])
    assert pieces[(1, 1, (Fraction(0),))].group.is_trivial()


def test_lead_split_regression():
    # d[x^2] = 2 [x] d[x] must survive as a nonzero class at level 2
    tw = build_drw(2, 2, 1, 8)
    calc = tw.calc
    piece, dsq = tw.class_of(2, calc.apply_d(2, (0, (2,), ())))
    _, xdx = tw.class_of(2, calc.mul(2, (0, (1,), ()), (0, (0,), ((0, (1,)),))))
    assert dsq == piece.group.scale(2, xdx)
    assert dsq != piece.group.zero()


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2)])
def test_derived_structure_matches(p, r):
    tw = build_drw(p, r, 1, 8)
    for (s, deg, w), piece in tw.pieces.items():
        want = [m for m in expected_piece_moduli(p, s, deg, w) if m != 1]
        assert list(piece.group.moduli) == want, (s, deg, w)


def test_differential_kernel_orders():
    # integral weight w: d is multiplication by w, kernel of size gcd(w, p^s);
    # fractional weight: d sends the V generator to the dV generator bijectively
    tw = build_drw(2, 2, 1, 8)
    for (s, deg, w) in tw.pieces:
        wt = w[0]
        if s != 2 or deg != 0 or wt == 0:
            continue
        d = tw.operator_hom("d", tw.pieces[(2, 0, w)].key)
        ker = sum(1 for elt in d.src.elements() if d.apply(elt) == d.dst.zero())
        if wt.denominator == 1:
            assert ker == math.gcd(int(wt), 4)
        else:
            assert ker == 1


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2)])
def test_fv_axioms(p, r):
    report = check_fv_axioms(build_drw(p, r, 1, 8), samples=30, seed=1)
    assert report.failures() == []
    assert report.ok
    assert len(report.entries) == 10


def _unit_slot(m):
    """Index j when m equals the j-th unit vector, else -1."""
    if sum(m) != 1 or any(v < 0 for v in m):
        return -1
    return m.index(1)


def de_rham_map_kills_relations(tower):
    """The map from level 1 to the classical complex that sends
    [x^mono] d[x_j1] ... d[x_jn] to its basis form kills every stored
    relation mod p; returns the first weight where it does not, or None."""
    dr = DeRhamComplex(tower.p, tower.nvars, tower.weight_cap)
    D = tower.D
    for (s, deg, w), piece in tower._pieces.items():
        if s != 1 or not piece.symbols:
            continue
        tot = sum(w)
        basis = [] if tot % D or deg > tower.nvars else [
            bk for bk in dr.basis(deg, tot // D)
            if drw._basis_weight_vec(bk, tower.nvars) == tuple(c // D for c in w)]
        pos = {bk: idx for idx, bk in enumerate(basis)}
        data = {}
        for j, (i, mono, atoms) in enumerate(piece.symbols):
            if i != 0 or any(t != 0 for t, _ in atoms):
                continue
            frame = tuple(sorted(_unit_slot(mv) for _, mv in atoms))
            if (mono, frame) in pos:
                data[(pos[(mono, frame)], j)] = 1
        amb = IntMatrix(len(basis), len(piece.symbols), data)
        for row in dense_rows(piece.lattice):
            if any(v % tower.p for v in amb.apply(row)):
                return piece.weight
    return None


def test_level_one_is_classical():
    tw = build_drw(2, 2, 1, 8)
    assert level_one_matches_de_rham(tw)
    assert de_rham_map_kills_relations(tw) is None
    assert universal_map_check(tw)


def test_structure_map_additive_chain():
    # V[x^2] represents 2 [x] at level 2 over F_2
    tw = build_drw(2, 2, 1, 8)
    piece, two_x = tw.lambda_class(2, {1: (1, (2,))})
    _, x = tw.lambda_class(2, {0: (1, (1,))})
    assert two_x == piece.group.scale(2, x)
    with pytest.raises(ValueError):
        tw.lambda_class(2, {0: (1, (1,)), 1: (1, (3,))})


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2)])
def test_structure_map_is_ring_map(p, r):
    tw = build_drw(p, r, 1, 8)
    assert lambda_ring_check(tw, samples=25, seed=3)
    assert degree_zero_witt_comparison(tw)


def test_stable_under_cap_increase():
    assert stable_under_cap_increase(build_drw(2, 2, 1, 6))


def test_two_variables():
    tw = build_drw(2, 2, 2, 4)
    # swapping the variables swaps the weights
    for (s, deg, w), piece in tw.pieces.items():
        assert piece.group.moduli == tw.pieces[(s, deg, (w[1], w[0]))].group.moduli
    calc = tw.calc
    pa, a = tw.class_of(2, [(1, (0, (0, 0), ((0, (1, 0)),)))])
    pb, b = tw.class_of(2, [(1, (0, (0, 0), ((0, (0, 1)),)))])
    tgt, ab = tw.mul_elts(2, pa, a, pb, b)
    tgt2, ba = tw.mul_elts(2, pb, b, pa, a)
    assert tgt is tgt2
    assert ab == tgt.group.neg(ba)
    # Leibniz on the mixed monomial: d(xy) = x dy + y dx
    def d(w, elt):
        return tw.operator_hom("d", tw.pieces[(2, 0, w)].key).apply(elt)

    _, g = tw.class_of(2, calc.canon(2, 1, 0, (1, 1), []))
    lhs = d((1, 1), g)
    px, gx = tw.class_of(2, [(1, (0, (1, 0), ()))])
    py, gy = tw.class_of(2, [(1, (0, (0, 1), ()))])
    _, t1 = tw.mul_elts(2, px, gx, pb, d((0, 1), gy))
    mixed, t2 = tw.mul_elts(2, py, gy, pa, d((1, 0), gx))
    assert lhs == mixed.group.add(t1, t2)


def _enumerated_witt_group(p, m, n):
    """The group of W_m(Z/p^n), read off its p^(nm) elements: logs[k] is
    log_p of the p^k-torsion count, and its successive differences count
    the invariant factors of each exponent."""
    ring = WittRing(p, m, ZModRing(p ** n))
    current = list(ring.elements())
    logs = []
    while True:
        zeros = sum(1 for w in current if w == ring.zero())
        logs.append(round(math.log(zeros, p)))
        if zeros == len(current):
            break
        current = [sum([w] * (p - 1), w) for w in current]
    moduli = []
    for k in range(1, len(logs)):
        at_least_next = logs[k + 1] - logs[k] if k + 1 < len(logs) else 0
        moduli.extend([p ** k] * (logs[k] - logs[k - 1] - at_least_next))
    return FgAbGroup(sorted(moduli))


def test_witt_coefficient_group_matches_enumeration():
    # every case the enumeration finishes in under a second
    for p in (2, 3, 5):
        for m in range(1, 5):
            for n in range(1, 5):
                if p ** (n * m) <= 4096:
                    assert witt_coefficient_group(p, m, n) == _enumerated_witt_group(p, m, n), (
                        p, m, n)
    # past the enumeration: (Z/p^(n-1))^(m-1) + Z/p^(n+m-1), a pattern
    # seen on every computed case and not proven here
    for p, m, n in [(5, 3, 2), (5, 4, 2), (3, 6, 4)]:
        assert witt_coefficient_group(p, m, n) == FgAbGroup(
            [p ** (n - 1)] * (m - 1) + [p ** (n + m - 1)])


def test_mixed_characteristic_coefficients():
    assert witt_coefficient_group(2, 2, 1) == FgAbGroup([4])
    assert witt_coefficient_group(2, 1, 2) == FgAbGroup([4])
    assert witt_coefficient_group(2, 2, 2) == FgAbGroup([2, 8])
    assert witt_coefficient_group(3, 2, 1) == FgAbGroup([9])
    assert mixed_char_weight_piece(2, 2, 2, 2, 1) == FgAbGroup([2, 8])
    assert mixed_char_weight_piece(2, 2, 2, 2, Fraction(1, 2)) == \
        witt_coefficient_group(2, 1, 2)
    assert mixed_char_weight_piece(2, 2, 2, 1, Fraction(1, 2)).is_trivial()


def test_symbol_labels():
    assert symbol_label((1, (2,), ())) == "V^1[x^2]"
    assert symbol_label((0, (0,), ((0, (1,)),))) == "[1] d[x^1]"
    assert symbol_label((0, (1,), ((1, (1,)), (0, (3,))))) == "[x^1] dV^1[x^1] d[x^3]"
    # `drw build` lists every spanning symbol of a piece by its label
    piece = build_drw(2, 1, 1, 4).pieces[(1, 1, (Fraction(1),))]
    assert all(symbol_label(sym) for sym in piece.symbols)


def _canon_oracle(calc, s, coeff, i, mono, atoms):
    """The generic rewrite of any number of atoms: each atom reduced as
    `canon` does, then the atoms sorted, the sign of their permutation
    counted over every pair, and a repeated atom read as zero."""
    p = calc.p
    lead = calc._canon_lead(s, coeff, i, mono)
    if lead is None:
        return []
    coeff, i, mono = lead
    done = []
    for at, (t, mv) in enumerate(atoms):
        if not any(mv):
            return []
        if t and math.gcd(*mv) % p == 0:
            k = drw._p_power_in(mv, p, t)
            coeff *= p ** k
            t -= k
            mv = tuple(v // p ** k for v in mv)
        if t >= s:
            return []
        if t == 0 and sum(mv) != 1:
            out = []
            for j, mj in enumerate(mv):
                if mj:
                    rest = tuple(v - (k == j) for k, v in enumerate(mv))
                    c2, i2, mono2 = calc._merge_leads(coeff * mj, i, mono, 0, rest)
                    unit = tuple(int(k == j) for k in range(calc.nvars))
                    out.extend(_canon_oracle(calc, s, c2, i2, mono2,
                                             done + [(0, unit)] + list(atoms[at + 1:])))
            return drw._combine(out)
        done.append((t, mv))
    atoms = tuple(sorted(done))
    if len(set(atoms)) < len(atoms):
        return []
    if sum(a > b for a, b in itertools.combinations(done, 2)) % 2:
        coeff = -coeff
    return [(coeff, (i, mono, atoms))]


def test_canon_matches_the_generic_rewrite():
    # the one-pass ordering of at most two atoms against the sort-and-sign
    # oracle, on raw terms whose monomials are often p-divisible, zero or
    # not d[x_j], so every rewrite rule fires
    rng = random.Random(5)
    seen = {"empty": 0, "negated": 0, "split": 0}
    for p in (2, 3, 5):
        for nvars in (1, 2):
            calc = drw.SymbolCalculus(p, nvars)
            values = [0, 0, 1, 1, 2, 3, p, 2 * p, p * p, p * p + 1]

            def mono():
                return tuple(rng.choice(values) for _ in range(nvars))

            for s in range(1, 5):
                for deg in range(3):
                    for _ in range(40):
                        raw = (s, rng.choice([1, -1, p]), rng.randrange(s + 1), mono(),
                               [(rng.randrange(s + 1), mono()) for _ in range(deg)])
                        got = calc.canon(*raw)
                        assert got == _canon_oracle(calc, *raw), raw
                        seen["empty"] += not got
                        seen["negated"] += len(got) == 1 and got[0][0] == -raw[1]
                        seen["split"] += len(got) > 1
    assert all(seen.values()), seen
    calc = drw.SymbolCalculus(3, 1)
    with pytest.raises(ValueError):
        calc.canon(3, 1, 0, (1,), [(1, (1,)), (2, (1,)), (0, (1,))])


@pytest.mark.parametrize("p,r,nvars,cap", [(2, 2, 2, 4), (3, 2, 2, 3), (2, 3, 2, 3)])
def test_two_variable_pieces_match_langer_zink(p, r, nvars, cap):
    tw = build_drw(p, r, nvars, cap)
    for (s, deg, w), piece in tw.pieces.items():
        assert piece.group.moduli == langer_zink.piece_moduli(p, s, deg, w), (s, deg, w)
    assert set(langer_zink.nonzero_pieces(p, r, nvars, cap)) <= set(tw.pieces)


def test_tower_meets_benchmark_oracle():
    # the summary perfbench/workloads.py makes of a build: weights read as
    # w[0] of the rational piece keys
    tw = build_drw(2, 3, 1, 8)
    summary = {(s, deg, w[0]): pc.group.moduli for (s, deg, w), pc in tw.pieces.items()}
    assert all(isinstance(w, Fraction) for _, _, w in summary)
    assert oracles.check_tower(2, 3, 8, summary) == []


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("nvars,cap", [(1, 2), (1, 5), (2, 1), (2, 2)])
def test_integer_weights_sort_like_fractions(p, r, nvars, cap):
    # sorted weights order the pieces and the `drw build` listing
    nums = enumerate_weights(p, r, nvars, cap)
    fracs = [tuple(Fraction(c, p ** (r - 1)) for c in w) for w in nums]
    assert len(set(fracs)) == len(fracs)
    assert sorted(nums) == nums and sorted(fracs) == fracs
    by_num = sorted(range(len(nums)), key=lambda k: (sum(nums[k]), nums[k]))
    by_frac = sorted(range(len(fracs)), key=lambda k: (sum(fracs[k]), fracs[k]))
    assert by_num == by_frac


@pytest.mark.parametrize("p,r,nvars,cap", [(2, 3, 1, 4), (3, 2, 1, 3), (2, 2, 2, 2)])
def test_rational_weights_at_the_boundary(p, r, nvars, cap):
    tw = build_drw(p, r, nvars, cap)
    assert list(tw.pieces) == sorted(tw.pieces)
    assert [pc.key for pc in tw.pieces.values()] == sorted(pc.key for pc in tw.pieces.values())
    for (s, deg, w), piece in tw.pieces.items():
        assert tw.fraction(piece.num) == piece.weight == w


def test_axiom_witnesses_print_rational_weights(monkeypatch):
    # every witness that names a weight prints the rational tuple
    towers = [build_drw(2, 3, 1, 4), build_drw(2, 2, 2, 3)]
    monkeypatch.setattr(GroupHom, "is_zero", lambda self: False)
    monkeypatch.setattr(GroupHom, "__eq__", lambda self, other: False)
    monkeypatch.setattr(GroupHom, "__ne__", lambda self, other: True)
    monkeypatch.setattr(FgAbGroup, "add", lambda self, a, b: ("x",))
    zero1 = "(Fraction(0, 1),)"
    assert check_fv_axioms(towers[0], samples=5, seed=0).failures() == [
        ("d squares to zero", f"d^2 != 0 at level 1 weight {zero1}"),
        ("Leibniz rule",
         "Leibniz fails at level 3 weights (Fraction(13, 4),)+(Fraction(3, 4),)"),
        ("R commutes with F and V", f"RF != FR at level 3 weight {zero1}"),
        ("FV = p", f"FV != p at level 1 degree 0 weight {zero1}"),
        ("FdV = d", f"FdV != d at level 1 weight {zero1}"),
    ]
    zero2 = "(Fraction(0, 1), Fraction(0, 1))"
    assert check_fv_axioms(towers[1], samples=5, seed=0).failures() == [
        ("d squares to zero", f"d^2 != 0 at level 1 weight {zero2}"),
        ("Leibniz rule", "Leibniz fails at level 2 weights"
         " (Fraction(1, 1), Fraction(1, 2))+(Fraction(1, 2), Fraction(1, 1))"),
        ("FV = p", f"FV != p at level 1 degree 0 weight {zero2}"),
        ("FdV = d", f"FdV != d at level 1 weight {zero2}"),
    ]


@pytest.mark.parametrize("p,r,nvars,cap", [(2, 3, 1, 4), (2, 3, 2, 2)])
def test_commuting_axioms_reach_the_top_degree(p, r, nvars, cap, monkeypatch):
    # axioms 6 and 7 skip only the zero pieces above the top degree: a
    # fault in a top-degree operator alone makes them fail, and so does a
    # hom comparison that is always false
    tw = build_drw(p, r, nvars, cap)
    hom = tw.operator_hom
    # a zero F out of the top level breaks RF = FR and FV = p; a zero V
    # out of level 1 breaks RV = VR, axiom 6's second loop, where VR is not
    # zero (in (2,3,2,2) every VR out of degree 2 is)
    faults = [("f", r, ["R commutes with F and V", "FV = p"])]
    if nvars == 1:
        faults.append(("v", 1, ["R commutes with F and V"]))
    for op, level, want in faults:
        def faulty(op2, key, op=op, level=level):
            h = hom(op2, key)
            if (op2, key[0], key[1]) == (op, level, nvars):
                return GroupHom.zero(h.src, h.dst)
            return h

        monkeypatch.setattr(tw, "operator_hom", faulty)
        names = [n for n, _ in check_fv_axioms(tw, samples=5, seed=0).failures()]
        assert set(want) <= set(names), (op, names)
    monkeypatch.setattr(tw, "operator_hom", hom)
    assert check_fv_axioms(tw, samples=5, seed=0).ok
    monkeypatch.setattr(GroupHom, "__eq__", lambda self, other: False)
    monkeypatch.setattr(GroupHom, "__ne__", lambda self, other: True)
    names = [n for n, _ in check_fv_axioms(tw, samples=5, seed=0).failures()]
    assert "R commutes with F and V" in names and "FV = p" in names


def test_sampled_axiom_witnesses_pinned(monkeypatch):
    # the draws of a passing run, in order, with the size each draws from
    tw = build_drw(3, 3, 1, 8)
    draws = []

    class LoggedRandom(random.Random):
        def choice(self, seq):
            draws.append(("choice", len(seq)))
            return super().choice(seq)

        def randrange(self, *args):
            draws.append(("randrange",) + args)
            return super().randrange(*args)

    monkeypatch.setattr(drw.random, "Random", LoggedRandom)
    for seed, count, digest in [
            (0, 502, "7e54bd701a1a2ad2e2e279c6e9dbdd0b9a706c24ebe4692dc1e37788643ba48e"),
            (1, 499, "639f86a2f995cd4d0b8ed63c13a7222c4edd48873e0d3bd02d2e3ce305a3aef0")]:
        draws.clear()
        assert check_fv_axioms(tw, samples=40, seed=seed).ok
        assert len(draws) == count
        assert hashlib.sha256(repr(draws).encode()).hexdigest() == digest
    monkeypatch.undo()
    # a product that is off by the first generator breaks every identity
    # built on mul_elts; the witnesses name the first failing sample of the
    # seeded stream
    real = drw.TruncatedFVComplex.mul_elts

    def skewed(self, s, piece_a, elt_a, piece_b, elt_b):
        tgt, elt = real(self, s, piece_a, elt_a, piece_b, elt_b)
        if any(elt):
            elt = tgt.group.add(elt, [1] + [0] * (tgt.group.n - 1))
        return tgt, elt

    monkeypatch.setattr(drw.TruncatedFVComplex, "mul_elts", skewed)
    v_products = ("V(x)V(y) = pV(xy)", "V(x)V(y) != pV(xy) at level 2")
    teichmuller = ("Fd[x] = [x]^(p-1) d[x]", "Teichmuller rule fails at level 2 var 0")
    assert check_fv_axioms(tw, samples=40, seed=0).failures() == [
        ("Leibniz rule", "Leibniz fails at level 2 weights (Fraction(8, 1),)+(Fraction(0, 1),)"),
        v_products, teichmuller]
    assert check_fv_axioms(tw, samples=40, seed=1).failures() == [
        ("Leibniz rule", "Leibniz fails at level 1 weights (Fraction(2, 1),)+(Fraction(3, 1),)"),
        v_products,
        ("projection formula V(F(x)y) = xV(y)", "projection formula fails at level 3"),
        teichmuller]


def test_saturation_error_prints_rational_weight(monkeypatch):
    monkeypatch.setattr(drw, "SATURATION_ROUND_LIMIT", 0)
    with pytest.raises(drw.SaturationError) as err:
        build_drw(2, 2, 1, 4)
    assert str(err.value) == ("relation saturation unstable after 0 rounds"
                              " at level 2 degree 0 weight (Fraction(1, 2),)")


@pytest.mark.parametrize("p,r,cap", [(2, 2, 4), (3, 2, 3)])
def test_one_variable_tower_matches_two_variable_axes(p, r, cap):
    # one variable sets degree 2 full; two variables still derive their axis
    # pieces of degree 2 from relations, so they check that the fill is right
    one, two = build_drw(p, r, 1, cap), build_drw(p, r, 2, cap)
    zero = Fraction(0)
    for (s, deg, (k,)), piece in one.pieces.items():
        for w in ((k, zero), (zero, k)):
            assert two.pieces[(s, deg, w)].group.moduli == piece.group.moduli, (s, deg, w)
    derived = [key for key, pc in two.pieces.items()
               if key[1] == 2 and zero in key[2] and pc.symbols]
    assert derived


@pytest.mark.parametrize("p,r,nvars,cap", [(2, 2, 1, 6), (2, 2, 2, 4)])
def test_transports_never_lower_the_degree(p, r, nvars, cap):
    # why the pieces above the top degree can be set full up front: no
    # relation they hold is ever carried into a lower degree
    tw = build_drw(p, r, nvars, cap)
    for key in tw._pieces:
        for tag, tgt in tw._moves(key):
            assert tgt[1] >= key[1], (key, tag, tgt)
            # F and R are not transported (see TruncatedFVComplex)
            assert tag[0] in ("v", "d", "m"), (key, tag)


def _every_move(tw, key):
    """Every transport out of the piece at key, products included: the
    operators, the product by the generator of every nonzero weight that
    has one, and in two variables the product by every degree-1 symbol.
    The build saturates along a generating subset of these."""
    s, deg, w = key
    moves = [((op,), tgt) for op, tgt in tw.operators(key)]
    for u in tw.nums:
        tgt, gen = (s, deg, drw.weight_add(w, u)), tw._gen_symbol(s, u)
        if tgt in tw._pieces and gen is not None:
            moves.append((("m", gen), tgt))
    if tw.nvars == 2 and deg == 1:
        for u in tw.nums:
            src, tgt = tw._pieces.get((s, 1, u)), (s, 2, drw.weight_add(w, u))
            if src is not None and tgt in tw._pieces:
                moves.extend((("m", sym), tgt) for sym in src.symbols)
    return moves


# (2,3,1,16) and (5,2,1,10) carry the most fractional weights per cap, the
# products the build reaches only through F, V and [x^k]; (2,3,2,3) has two
# variables and three levels, where F and R, which the build does not
# transport along, have the most to carry; (5,2,2,2) has the largest p of
# the two-variable towers
CLOSURE_TOWERS = [(2, 2, 1, 8), (3, 2, 1, 8), (2, 3, 1, 6), (3, 3, 1, 8), (2, 3, 1, 16),
                  (5, 2, 1, 10), (2, 2, 2, 4), (3, 2, 2, 3), (2, 3, 2, 3), (5, 2, 2, 2)]


def test_built_towers_are_closed_under_every_move():
    # the fixpoint the one saturation loop stops at: every stored row,
    # carried along every move, already lies in its target's span
    for p, r, nvars, cap in CLOSURE_TOWERS:
        tw = build_drw(p, r, nvars, cap)
        assert drw.langer_zink_mismatch(tw) is None, (p, r, nvars, cap)
        pieces = eager_pieces(tw)
        for key, piece in pieces.items():
            rows = stored_rows(piece.lattice)
            if not rows:
                continue
            for tag, tgt_key in _every_move(tw, key):
                tgt = pieces[tgt_key].lattice
                if tgt.is_full():
                    continue
                for img in tw._transport_rows(rows, key, tag, tgt_key):
                    tgt._sweep(img)
                    assert not img, ((p, r, nvars, cap), key, tag, tgt_key)


def test_seed_spans_are_closed_under_generator_products(monkeypatch):
    # why the first saturation round takes no product by a lift [x^k y^l]:
    # it carries only seeded rows, and every product of a piece's seed span
    # by a lift already lies in its target's seed span
    monkeypatch.setattr(drw.TruncatedFVComplex, "_saturate", lambda self, pending: None)
    for p, r, nvars, cap in CLOSURE_TOWERS:
        tw = build_drw(p, r, nvars, cap)
        checked = 0
        for key, piece in tw._pieces.items():
            s, deg, w = key
            rows = stored_rows(piece.lattice) if deg <= nvars else []
            if not rows:
                continue
            for u in tw.nums:
                tgt_key = (s, deg, drw.weight_add(w, u))
                if not any(u) or any(c % tw.D for c in u) or tgt_key not in tw._pieces:
                    continue
                lift = (0, tuple(c // tw.D for c in u), ())
                tgt = tw._pieces[tgt_key].lattice
                for img in tw._transport_rows(rows, key, ("m", lift), tgt_key):
                    tgt._sweep(img)
                    assert not img, ((p, r, nvars, cap), key, lift)
                    checked += 1
        assert checked, (p, r, nvars, cap)


def _direct_seeds(tw, piece):
    """Every seed row of a piece computed from its symbols: the p^(s-top),
    p - VF and pullthrough rows of each symbol, then the Leibniz row of
    every pair of generators, zero rows included."""
    s, deg, w = piece.key
    calc, p = tw.calc, tw.p
    rows = []
    for sym in piece.symbols:
        i, mono, atoms = sym
        top = max([i] + [t for t, _ in atoms])
        rows.append(tw._vec(piece, [(p ** (s - top), sym)]))
        if s >= 2:
            rows.append(tw._vec(piece, [(p, sym)] + [
                (-cf * cv, out) for cf, mid in calc.apply_f(s, sym)
                for cv, out in calc.apply_v(s - 1, mid)]))
        if deg >= 1 and i >= 1:
            rows.append(tw._pullthrough_seed(piece, sym))
    if deg == 1:
        for u in tw.nums:
            v = drw.weight_sub(w, u)
            if v in tw._num_set and u <= v and any(u) and any(v):
                lu, lv = tw._lead_for(s, u), tw._lead_for(s, v)
                if lu is not None and lv is not None:
                    rows.append(tw._leibniz_row(piece, lu + ((),), lv + ((),)))
    return rows


def test_local_seeds_match_their_direct_rows(monkeypatch):
    # the seed phase leaves out the rows that are zero by construction and
    # takes the rows of [x] tau from those of tau, relabelled; in order, it
    # must give exactly the nonzero rows the direct computation gives
    monkeypatch.setattr(drw.TruncatedFVComplex, "_saturate", lambda self, pending: None)
    symbol_seeds = drw.TruncatedFVComplex._symbol_seeds
    direct = []

    def counting(self, piece, sym):
        direct.append(sym)
        return symbol_seeds(self, piece, sym)

    monkeypatch.setattr(drw.TruncatedFVComplex, "_symbol_seeds", counting)
    for p, r, nvars, cap in CLOSURE_TOWERS:
        tw = build_drw(p, r, nvars, cap)
        direct.clear()
        symbols = skipped = 0
        for key, piece in tw._pieces.items():
            if key[1] > nvars or not piece.symbols:
                continue
            want = _direct_seeds(tw, piece)
            got = tw._local_seeds(piece)
            assert got == [row for row in want if row], ((p, r, nvars, cap), key)
            symbols += len(piece.symbols)
            skipped += len(want) - len(got)
        assert not tw._held_seeds
        # both shortcuts do work on every tower
        assert skipped and len(direct) < symbols, (p, r, nvars, cap)


@pytest.mark.parametrize("p,r,nvars,cap", [(2, 3, 1, 6), (2, 2, 2, 3)])
def test_skipped_products_factor_through_generators(p, r, nvars, cap):
    # the identities the build's product moves rest on, term for term:
    # at a mixed weight u = k D + f, gen(u) * sigma = [x^k] * (gen(f) * sigma);
    # in degree 1, sigma * (lead atom) = lead * (sigma * atom)
    tw = build_drw(p, r, nvars, cap)
    calc, D, zero = tw.calc, tw.D, (0,) * nvars

    def combo(terms):
        return {sym: c for c, sym in drw._combine(terms)}

    def times(s, a, terms):
        return [(c * c2, out) for c, t in terms for c2, out in calc.mul(s, a, t)]

    checked = 0
    for s in range(1, r + 1):
        syms = [(w, deg, sym) for (s2, deg, w), pc in tw._pieces.items() if s2 == s
                for sym in pc.symbols]
        for u in tw.nums:
            gen = tw._gen_symbol(s, u)
            if gen is None or not (any(c % D for c in u) and any(c >= D for c in u)):
                continue
            whole = (0, tuple(c // D for c in u), ())
            frac = tw._gen_symbol(s, tuple(c % D for c in u))
            for w, deg, sym in syms:
                if drw.weight_add(w, u) in tw._num_set:
                    assert combo(calc.mul(s, gen, sym)) == combo(
                        times(s, whole, calc.mul(s, frac, sym))), (s, u, sym)
                    checked += 1
        if nvars == 1:
            continue
        for u in tw.nums:
            for sym in tw._pieces[(s, 1, u)].symbols:
                i, mono, atoms = sym
                if i == 0 and not any(mono):
                    continue
                lead, atom = (i, mono, ()), (0, zero, atoms)
                assert combo(calc.mul(s, lead, atom)) == {sym: 1}
                for w, deg, sigma in syms:
                    if deg == 1 and drw.weight_add(w, u) in tw._num_set:
                        assert combo(calc.mul(s, sigma, sym)) == combo(
                            times(s, lead, calc.mul(s, sigma, atom))), (s, sigma, sym)
                        checked += 1
    assert checked


@pytest.mark.parametrize("p,r,nvars,cap", [(2, 3, 1, 6), (2, 2, 2, 3)])
def test_fractional_products_follow_the_projection_formula(p, r, nvars, cap):
    # why the build needs no product by a fractional generator V^e[x^m]:
    # V^e[x^m] * sigma = V^e([x^m] * F^e sigma), a chain of F, integral
    # products and V.  The two sides are different symbol combinations
    # and agree only in the quotient, so they are compared as classes.
    tw = build_drw(p, r, nvars, cap)
    calc, D = tw.calc, tw.D

    def along(op, s, terms):
        return [(c * c2, out) for c, t in terms for c2, out in op(s, t)]

    checked = 0
    for (s, deg, w), piece in eager_pieces(tw).items():
        if piece.lattice.is_full():
            continue
        for u in tw.nums:
            gen = tw._gen_symbol(s, u)
            tgt = tw._pieces.get((s, deg, drw.weight_add(w, u)))
            if gen is None or tgt is None or any(c >= D for c in u):
                continue
            e = tw.denom_exp(u)
            lift = (0, tuple(c // tw._scale[e] for c in u), ())
            for sigma in piece.symbols:
                terms = [(1, sigma)]
                for k in range(e):
                    terms = along(calc.apply_f, s - k, terms)
                terms = along(lambda s2, t: calc.mul(s2, lift, t), s - e, terms)
                for k in range(e):
                    terms = along(calc.apply_v, s - e + k, terms)
                assert tw._project(tgt, calc.mul(s, gen, sigma)) == tw._project(tgt, terms), (
                    s, u, sigma)
                checked += 1
    assert checked


def test_graded_commutativity_still_checks_nonzero_targets(monkeypatch):
    # axiom 3 skips only trivial degree-2 targets; a wrong projection into
    # a nonzero two-variable piece must still fail it
    tw = build_drw(2, 2, 2, 3)
    monkeypatch.setattr(drw.TruncatedFVComplex, "_project",
                        lambda self, piece, terms: [1] * piece.group.n)
    names = [name for name, _ in check_fv_axioms(tw, samples=5, seed=0).failures()]
    assert "graded commutativity" in names


@pytest.mark.parametrize("p,r,cap", [(2, 3, 6), (3, 2, 8)])
def test_degree_one_products_land_in_their_target(p, r, cap):
    # axiom 3 no longer projects into the zero pieces of one variable,
    # which raised KeyError on a product outside the target's symbols
    tw = build_drw(p, r, 1, cap)
    pieces = eager_pieces(tw)
    deg1 = [(key, pc) for key, pc in pieces.items() if key[1] == 1]
    checked = 0
    for (s, _, w1), pa in deg1:
        for (s2, _, w2), pb in deg1:
            tgt = pieces.get((s, 2, drw.weight_add(w1, w2)))
            if s2 != s or tgt is None:
                continue
            for sa in pa.symbols:
                for sb in pb.symbols:
                    for _, sym in tw.calc.mul(s, sa, sb):
                        assert sym in tgt.index, (s, sa, sb, sym)
                        checked += 1
    assert checked


def _unpruned_degree_two_symbols(tw, s, w):
    """The unpruned degree-2 enumeration: every pair of atoms."""
    syms = []
    atoms = tw._datoms_up_to(s, w)
    for a1 in range(len(atoms)):
        t1, m1 = atoms[a1]
        w1 = tw.mono_weight(m1, t1)
        for a2 in range(a1 + 1, len(atoms)):
            t2, m2 = atoms[a2]
            rest = drw.weight_sub(w, drw.weight_add(w1, tw.mono_weight(m2, t2)))
            lead = tw._lead_for(s, rest)
            if lead is not None:
                syms.append((lead[0], lead[1], tuple(sorted([(t1, m1), (t2, m2)]))))
    return sorted(set(syms))


@pytest.mark.parametrize("p,r,nvars,cap", [(3, 3, 1, 8), (2, 3, 1, 16), (3, 2, 2, 3)])
def test_pruned_degree_two_symbols_match_every_pair(p, r, nvars, cap):
    tw = build_drw(p, r, nvars, cap)
    for (s, deg, w), piece in tw._pieces.items():
        if deg == 2:
            assert piece.symbols == _unpruned_degree_two_symbols(tw, s, w), (s, w)


def test_saturation_rounds_stay_shallow(monkeypatch):
    # with both product families a relation needs no round per [x] step:
    # (2,3,1,16) closes in 3 rounds; with [x] alone it would take 10
    monkeypatch.setattr(drw, "SATURATION_ROUND_LIMIT", 4)
    assert drw.langer_zink_mismatch(build_drw(2, 3, 1, 16)) is None


def test_one_variable_build_seeds_no_degree_two_piece(monkeypatch):
    degrees = []
    seeds = drw.TruncatedFVComplex._local_seeds

    def counting(self, piece):
        degrees.append(piece.degree)
        return seeds(self, piece)

    monkeypatch.setattr(drw.TruncatedFVComplex, "_local_seeds", counting)
    build_drw(2, 2, 1, 6)
    assert degrees and 2 not in degrees
    degrees.clear()
    build_drw(2, 2, 2, 3)
    assert 2 in degrees


def test_one_variable_degree_two_is_full():
    # each degree-2 piece is a lazy ZeroPiece; read, it gives the eager
    # enumeration and the zero group
    tw = build_drw(3, 2, 1, 6)
    top = [pc for (s, deg, w), pc in tw.pieces.items() if deg == 2]
    assert all(isinstance(pc, drw.ZeroPiece) for pc in top)
    assert not any(isinstance(pc, drw.ZeroPiece) for (s, deg, w), pc in tw.pieces.items()
                   if deg < 2)
    assert any(pc.symbols for pc in top)
    for pc in top:
        assert pc.symbols == tw._symbols_for(*pc.key)
        assert pc.group.is_trivial(), pc.key


@pytest.mark.parametrize("p,r,nvars,cap", [(2, 3, 1, 6), (2, 2, 2, 3)])
def test_built_tower_dies_with_its_last_reference(p, r, nvars, cap):
    # no reference cycle holds a tower: its zero pieces hold it weakly and
    # the symbol enumeration leaves no closure behind, so reference
    # counting alone frees it
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        tw = build_drw(p, r, nvars, cap)
        assert check_fv_axioms(tw, samples=10).ok
        # every piece's labels, the zero pieces' through the weak reference
        assert all(pc.symbols is not None for pc in tw.pieces.values())
        ref = weakref.ref(tw)
        del tw
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_one_variable_tower_enumerates_no_degree_two_label(monkeypatch):
    # the zero pieces above the top degree are lazy: neither the build nor
    # the axiom checks read their labels, and a later read makes them
    degrees = []
    symbols_for = drw.TruncatedFVComplex._symbols_for

    def counting(self, s, deg, w):
        degrees.append(deg)
        return symbols_for(self, s, deg, w)

    monkeypatch.setattr(drw.TruncatedFVComplex, "_symbols_for", counting)
    tw = build_drw(3, 3, 1, 8)
    assert check_fv_axioms(tw, samples=40).ok
    # every check of the drw suite on the same tower, stability included
    records = suites.run_suite("drw", seed=0, grid={"p": {3}, "r": {3}}).records
    assert len(records) == 2 and all(rec.ok for rec in records)
    assert degrees and 2 not in degrees
    assert tw.pieces[(3, 2, (Fraction(8),))].symbols and degrees[-1] == 2


@pytest.mark.parametrize("p,r,nvars,cap", [(2, 3, 1, 6), (2, 2, 2, 4)])
def test_operator_homs_match_induced_hom(p, r, nvars, cap):
    # operator_hom builds no ambient matrix into a trivial group, and into
    # any other it descends the matrix reduced mod the target q; the
    # reference, the operator's unreduced ambient matrix descended by
    # induced_hom, must give the same hom
    tw = build_drw(p, r, nvars, cap)
    pieces = eager_pieces(tw)
    checked = nontrivial = 0
    for key, src in pieces.items():
        for op, dst_key in tw.operators(key):
            dst = pieces[dst_key]
            nontrivial += bool(dst.group.n)
            term_map = tw._term_map((op,), key[0])
            data = {}
            for j, sym in enumerate(src.symbols):
                for c, out in term_map(sym):
                    ij = (dst.index[out], j)
                    data[ij] = data.get(ij, 0) + c
            amb = IntMatrix(len(dst.symbols), len(src.symbols), data)
            assert tw.operator_hom(op, key) == induced_hom(src.pres, dst.pres, amb), (op, key)
            checked += 1
    assert 0 < nontrivial < checked


@pytest.mark.parametrize("p,r,nvars,cap", [(2, 3, 1, 8), (3, 2, 2, 3)])
def test_suite_count_agrees_with_test_count(p, r, nvars, cap):
    # the count the drw suite checks and the independent one in langer_zink.py
    tw = build_drw(p, r, nvars, cap)
    for (s, deg, w) in tw.pieces:
        assert drw.langer_zink_moduli(p, s, deg, w) == langer_zink.piece_moduli(p, s, deg, w)
    assert drw.langer_zink_mismatch(tw) is None


def test_drw_suite_fails_on_a_wrong_piece(monkeypatch):
    grid = {"p": {2}, "r": {1}}
    tower_key = "drw tower p=2 r=1 cap=8"
    assert next(rec for rec in suites.run_suite("drw", seed=0, grid=grid).records
                if rec.key == tower_key).ok

    def wrong_build(p, r, nvars, cap):
        # give the zero piece Omega^1 at weight 0 the group Z/2 of weight 0 in degree 0
        tw = build_drw(p, r, nvars, cap)
        tw.pieces[(1, 1, (Fraction(0),))].pres = tw.pieces[(1, 0, (Fraction(0),))].pres
        return tw

    monkeypatch.setattr(drw, "build_drw", wrong_build)
    rec = next(rec for rec in suites.run_suite("drw", seed=0, grid=grid).records
               if rec.key == tower_key)
    assert not rec.ok
    assert rec.witness == ("piece at level 1 degree 1 weight (Fraction(0, 1),) has moduli"
                           " (2,); the Langer-Zink count is ()")
