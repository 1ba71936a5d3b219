"""Cyclic trace structures on tensor powers of free modules.

Three functors on finite free modules are equipped with a rotation
isomorphism T(M (x) N) -> T(N (x) M) and checked against the exchange
axioms: the m-fold tensor power followed by cyclic coinvariants, the raw
m-fold tensor power (the expected failure case), and the Witt-vector
norm functor: fixed vectors of the p^(r-1)-fold tensor power modulo p
times the image of the total group norm.

Everything is an exact matrix identity between induced maps on
presentations; the checks are exhaustive up to a rank cap and sampled
for naturality squares.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import DEFAULT_CAP, CapExceeded, require_prime
from .abgroups import FgAbGroup, GroupHom, Presentation, induced_hom
from .intlinalg import IntMatrix, kron, kron_power
from .polywitt import (
    _tuple_index,
    descend_map,
    fixed_mod_norm,
    rotation_matrix,
)


@dataclass(frozen=True)
class TensorCategory:
    """Finite free modules over Z (char 0) or F_p, maps as matrices.

    Objects are ranks; tensor is rank product with the lexicographic
    basis identification, so associators and unitors are identities."""
    base_char: int
    rank_cap: int

    def __post_init__(self):
        if self.rank_cap < 1:
            raise ValueError("the rank cap (--rank-cap) must be at least 1,"
                             f" got {self.rank_cap}")

    def random_map(self, rng: random.Random, src: int, dst: int) -> IntMatrix:
        hi = self.base_char if self.base_char else 3
        data = {}
        for i in range(dst):
            for j in range(src):
                v = rng.randrange(hi)
                if v:
                    data[(i, j)] = v
        return IntMatrix(dst, src, data)


@dataclass(frozen=True)
class TraceAxiomReport:
    axiom: str
    ok: bool
    checked: int
    witness: Optional[str] = None


def _exchange_perm(a: int, b: int, m: int) -> IntMatrix:
    """Rotation by one object slot: (M (x) N)^(x)m -> (N (x) M)^(x)m.

    Factor tuples alternate M, N; the last N-factor moves to the front.
    """
    n = (a * b) ** m
    data = {}
    for idx, t in enumerate(itertools.product(range(a * b), repeat=m)):
        ms = [c // b for c in t]
        ns = [c % b for c in t]
        out = tuple(ns[k - 1] * a + ms[k] for k in range(m))
        data[(_tuple_index(out, b * a), idx)] = 1
    return IntMatrix(n, n, data)


class _PowerTheory:
    """Frame shared by the trace theories: what a subclass's
    `_presentation(rank, n)` builds on the n = rank^m tensor power,
    cached per rank; morphisms are Kronecker powers and the exchange is
    `_exchange_perm`, each taken to the values by `descend_map`."""

    def __init__(self, m: int, base_char: int = 0, rank_cap: int = 2):
        if m < 1:
            raise ValueError("the tensor power must be positive")
        self.m = m
        self.category = TensorCategory(base_char, rank_cap)
        self._values: Dict[int, object] = {}

    @property
    def base_char(self) -> int:
        return self.category.base_char

    def _cached(self, rank: int):
        hit = self._values.get(rank)
        if hit is None:
            n = rank ** self.m
            if n > DEFAULT_CAP:
                raise CapExceeded(n, DEFAULT_CAP)
            hit = self._presentation(rank, n)
            self._values[rank] = hit
        return hit

    def value(self, rank: int) -> Presentation:
        return self._cached(rank)

    def descend_map(self, amb: IntMatrix, src_rank: int, dst_rank: int) -> GroupHom:
        """The map of values induced by a matrix on the tensor powers."""
        return induced_hom(self.value(src_rank), self.value(dst_rank), amb)

    def morphism(self, mat: IntMatrix) -> GroupHom:
        return self.descend_map(kron_power(mat, self.m), mat.cols, mat.rows)

    def tau(self, a: int, b: int) -> GroupHom:
        return self.descend_map(_exchange_perm(a, b, self.m), a * b, b * a)


class OrbitTraceTheory(_PowerTheory):
    """T(M) = cyclic coinvariants of the m-fold tensor power.

    The coinvariant presentation is written down directly on orbit
    representatives; no normal-form computation is needed."""

    def _presentation(self, rank: int, n: int) -> Presentation:
        char = self.base_char
        rot = {j: i for i, row in rotation_matrix(rank, self.m).by_row.items() for j in row}
        orbit_of: Dict[int, int] = {}
        reps: List[int] = []
        for idx in range(n):
            if idx in orbit_of:
                continue
            col = len(reps)
            reps.append(idx)
            cur = idx
            while cur not in orbit_of:
                orbit_of[cur] = col
                cur = rot[cur]
        k = len(reps)
        proj = IntMatrix(k, n, {(orbit_of[idx], idx): 1 for idx in range(n)})
        lift = IntMatrix(n, k, {(reps[c], c): 1 for c in range(k)})
        rel: Dict[Tuple[int, int], int] = {}
        col = 0
        for idx in range(n):
            if rot[idx] != idx:
                rel[(rot[idx], col)] = 1
                rel[(idx, col)] = -1
                col += 1
        if char:
            for idx in range(n):
                rel[(idx, col)] = char
                col += 1
        relations = IntMatrix(n, col, rel)
        group = FgAbGroup([char] * k)
        return Presentation(n, relations, group, proj, lift)


class RawPowerTraceTheory(_PowerTheory):
    """T(M) = the raw m-fold tensor power, no orbits taken.

    Same exchange map as the orbit theory; the exchange axioms are
    expected to fail for m above one."""

    def _presentation(self, rank: int, n: int) -> Presentation:
        char = self.base_char
        ident = IntMatrix.identity(n)
        relations = ident.scale(char) if char else IntMatrix.zero(n, 0)
        return Presentation(n, relations, FgAbGroup([char] * n), ident, ident)


class NormTraceTheory(_PowerTheory):
    """T(M) = fixed vectors of the p^(r-1) tensor power of the integral
    lift, modulo p times the image of the total group norm.

    This is the top level of the norm pipeline; morphisms transport
    integral representative matrices (entries 0..p-1 for the canonical
    lift of an F_p-linear map).  A cached value is the triple
    `fixed_mod_norm` returns: the fixed lattice, its coordinate map and
    the quotient, so `descend_map` carries a map by two products."""

    def __init__(self, p: int, r: int, rank_cap: int = 2):
        require_prime(p)
        if r < 1:
            raise ValueError("truncation level must be >= 1")
        super().__init__(p ** (r - 1), p, rank_cap)
        self.p = p
        self.r = r

    def _presentation(self, rank: int, n: int) -> Tuple[IntMatrix, IntMatrix, Presentation]:
        # the rotation has order m, so the norm over the group of
        # order p*m is p times the rotation-orbit sum
        return fixed_mod_norm(rotation_matrix(rank, self.m), self.p * self.m)

    def value(self, rank: int) -> Presentation:
        return self._cached(rank)[2]

    def descend_map(self, amb: IntMatrix, src_rank: int, dst_rank: int) -> GroupHom:
        return descend_map(amb, self._cached(src_rank), self._cached(dst_rank))


# ---------------------------------------------------------------------------
# axiom checks; each is an exhaustive matrix identity up to the rank cap


def check_unity(theory) -> TraceAxiomReport:
    cap = theory.category.rank_cap
    checked = 0
    for d in range(1, cap + 1):
        checked += 1
        if not theory.tau(1, d).is_identity():
            return TraceAxiomReport("unity", False, checked,
                                    f"tau(1, {d}) is not the identity")
    return TraceAxiomReport("unity", True, checked)


def check_acyclicity(theory) -> TraceAxiomReport:
    cap = theory.category.rank_cap
    checked = 0
    for a in range(1, cap + 1):
        for b in range(1, cap + 1):
            for c in range(1, cap + 1):
                checked += 1
                comp = theory.tau(c, a * b).compose(
                    theory.tau(b, c * a).compose(theory.tau(a, b * c)))
                if not comp.is_identity():
                    return TraceAxiomReport(
                        "acyclicity", False, checked,
                        f"triple rotation differs from the identity at {(a, b, c)}")
    return TraceAxiomReport("acyclicity", True, checked)


def check_involution(theory) -> TraceAxiomReport:
    cap = theory.category.rank_cap
    checked = 0
    for a in range(1, cap + 1):
        for b in range(1, cap + 1):
            checked += 1
            comp = theory.tau(b, a).compose(theory.tau(a, b))
            if not comp.is_identity():
                return TraceAxiomReport(
                    "involution", False, checked,
                    f"double exchange differs from the identity at {(a, b)}")
    return TraceAxiomReport("involution", True, checked)


def check_naturality(theory, samples: int = 12, seed: int = 0) -> TraceAxiomReport:
    cap = theory.category.rank_cap
    rng = random.Random(seed)
    cat = theory.category
    checked = 0
    for _ in range(samples):
        a, b = rng.randint(1, cap), rng.randint(1, cap)
        a2, b2 = rng.randint(1, cap), rng.randint(1, cap)
        f = cat.random_map(rng, a, a2)
        g = cat.random_map(rng, b, b2)
        checked += 1
        lhs = theory.tau(a2, b2).compose(theory.morphism(kron(f, g)))
        rhs = theory.morphism(kron(g, f)).compose(theory.tau(a, b))
        if lhs != rhs:
            return TraceAxiomReport(
                "naturality", False, checked,
                f"exchange square fails at ranks {(a, b)} -> {(a2, b2)}")
    return TraceAxiomReport("naturality", True, checked)


def run_axiom_checks(theory, samples: int = 12,
                     seed: int = 0) -> List[TraceAxiomReport]:
    return [
        check_unity(theory),
        check_acyclicity(theory),
        check_involution(theory),
        check_naturality(theory, samples, seed),
    ]


# ---------------------------------------------------------------------------
# the failure witness for raw tensor powers, and the norm-functor descent


@dataclass(frozen=True)
class NegativeExampleReport:
    m: int
    base_char: int
    found: Optional[Tuple[int, int]]
    vacuous: bool
    degenerate: Tuple[Tuple[int, int], ...] = ()

    @property
    def passed(self) -> bool:
        # for m = 1 no counterexample can exist and none is required
        return self.vacuous or self.found is not None


def negative_raw_power(m: int, base_char: int = 2,
                       rank_cap: int = 2) -> NegativeExampleReport:
    """Search for a pair where the raw tensor power breaks the double
    exchange; low ranks can degenerate (rank one is a fixed point of
    every rotation), so the search continues past them."""
    if m == 1:
        return NegativeExampleReport(m, base_char, None, True)
    theory = RawPowerTraceTheory(m, base_char, rank_cap)
    degenerate: List[Tuple[int, int]] = []
    for a in range(1, rank_cap + 1):
        for b in range(1, rank_cap + 1):
            comp = theory.tau(b, a).compose(theory.tau(a, b))
            if comp.is_identity():
                degenerate.append((a, b))
            else:
                return NegativeExampleReport(m, base_char, (a, b), False,
                                             tuple(degenerate))
    return NegativeExampleReport(m, base_char, None, False, tuple(degenerate))


@dataclass
class SubdividedTraceData:
    """Norm-functor trace data at subdivision p^(r-1) with its descent flag."""
    theory: NormTraceTheory
    m: int
    reports: List[TraceAxiomReport] = field(default_factory=list)
    descended: bool = False


def polywitt_trace(p: int, r: int, rank_cap: int = 2, samples: int = 12,
                   seed: int = 0) -> SubdividedTraceData:
    """Builds the norm-functor trace data and certifies its descent by
    running every exchange axiom on the descended maps."""
    theory = NormTraceTheory(p, r, rank_cap)
    reports = run_axiom_checks(theory, samples, seed)
    return SubdividedTraceData(theory, theory.m, reports,
                               all(rep.ok for rep in reports))
