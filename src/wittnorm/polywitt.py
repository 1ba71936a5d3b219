"""Polynomial Witt vectors of an F_p-vector space by two pipelines.

Pipeline one takes the free lift Z^d, forms its p^(r-1)-fold tensor power
with the cyclic position-rotation action, inflates that action to the
cyclic group of order p^r, and computes zeroth Tate cohomology: fixed
vectors modulo the image of the full group norm.

Pipeline two forms the fixed-point Mackey functor of the same tensor
power over the group of order p^(r-1) and base-changes it along the
projection to the Witt functor; the top level is the candidate group.

Both produce finite abelian groups of exponent dividing p^r, and the
comparison harness checks that their invariant factors agree.  Frobenius
and Verschiebung on the norm functor are its top restriction and
transfer.  They need no check of their own: the constructor's
`validate_mackey` checks at every level that transfer after restriction
is p (FV = p) and that restriction after transfer is the double-coset
sum of the p translates.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from . import DEFAULT_CAP, CapExceeded, require_prime
from .abgroups import FgAbGroup, GroupHom, Presentation, induced_hom, present_quotient
from .intlinalg import IntMatrix, random_unimodular, smith_normal_form
from .mackey import (
    CyclicGroupSpec,
    CyclicMackeyFunctor,
    GModule,
    fixed_point_mackey,
    fixed_point_witt_mackey,
)


@dataclass(frozen=True)
class FpVectorSpace:
    """A finite-dimensional vector space over the prime field F_p."""

    p: int
    d: int

    def __post_init__(self):
        require_prime(self.p)
        if self.d < 0:
            raise ValueError("dimension must be >= 0")


@dataclass(frozen=True)
class FreeLift:
    """The free abelian group Z^d marking a chosen lift of F_p^d."""

    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")


def canonical_lift(space: FpVectorSpace) -> FreeLift:
    return FreeLift(space.d)


@dataclass(frozen=True)
class PolyWittResult:
    p: int
    r: int
    group: FgAbGroup

    def __post_init__(self):
        if self.group.rank != 0:
            raise ValueError("polynomial Witt group must be finite")
        if not self.group.is_trivial() and self.p ** self.r % self.group.exponent() != 0:
            raise ValueError(f"exponent must divide {self.p}^{self.r}")

    def invariant_factors(self) -> Tuple[int, ...]:
        return self.group.moduli


def _tuple_index(t: Tuple[int, ...], d: int) -> int:
    idx = 0
    for c in t:
        idx = idx * d + c
    return idx


def rotation_matrix(d: int, m: int) -> IntMatrix:
    """Generator of the position rotation on the m-fold tensor power of Z^d.

    The basis is the lexicographic one on index tuples, and the generator
    rotates tuple positions one step to the right.
    """
    n = d ** m
    data = {}
    for idx, t in enumerate(itertools.product(range(d), repeat=m)):
        data[(_tuple_index((t[-1],) + t[:-1], d), idx)] = 1
    return IntMatrix(n, n, data)


def tensor_power_action(lift: FreeLift, spec: CyclicGroupSpec, cap: int = DEFAULT_CAP) -> GModule:
    """The m-fold tensor power of Z^d with the position-rotation action,
    m the order of the supplied cyclic group (see `rotation_matrix`)."""
    d = lift.rank
    m = spec.order()
    dim = d ** m
    if dim > cap:
        raise CapExceeded(dim, cap)
    carrier = FgAbGroup([0] * dim)
    return GModule(spec, carrier, GroupHom(carrier, carrier, rotation_matrix(d, m)))


def inflate_action(mod: GModule) -> GModule:
    """Same carrier and matrix, regarded over the cyclic group one level up.

    The action's order divides that of the smaller group, so it is not
    checked again."""
    spec = CyclicGroupSpec(mod.spec.p, mod.spec.n + 1)
    return GModule(spec, mod.carrier, mod.action, validate=False)


def fixed_mod_norm(action: IntMatrix, order: int) -> Tuple[IntMatrix, IntMatrix, Presentation]:
    """Fixed vectors of a free Z[C]-lattice modulo the image of the norm.

    action is the generator's matrix A and order the order of the acting
    cyclic group C, so the norm is N = sum of A^k for k < order.  Returns
    (fixed, coord, presentation): the columns of fixed are a basis of the
    fixed lattice, coord * x is the coordinate vector of a fixed vector
    x in that basis, and the presentation is of the quotient in those
    coordinates.

    One Smith form U (A - I)^T V = D of rank rho gives all of it.  The
    rows of U past rho satisfy U[rho:] (A - I)^T = 0, and U is
    unimodular, so they are a saturated basis of ker(A - I): fixed =
    U[rho:]^T.  The matching columns of U^-1 give coord = (U^-1[:, rho:])^T
    with coord * fixed = I.  The relations coord * N are accumulated on
    the rows of coord by doubling, C S_2m = C S_m + (C S_m) A^m with
    S_m = sum of A^k for k < m, over the powers A^(2^j).  The columns of
    N are fixed exactly when A^order = I, since (A - I) N = A^order - I;
    the same powers give A^order, and anything else is an AssertionError.
    """
    if order < 1:
        raise ValueError("the group order must be positive")
    n = action.rows
    u, d, _, u_inv = smith_normal_form((action - IntMatrix.identity(n)).transpose(), u_inv=True)
    rank = len(d.by_row)
    fixed = u.take_rows(range(rank, n)).transpose()
    coord = u_inv.take_columns(range(rank, n)).transpose()
    # at bit j of order: step = coord * S_(2^j) and power = A^(2^j); the
    # bits taken so far, a, give norm = coord * S_a and full = A^a
    step, power, norm, full = coord, action, None, None
    while True:
        if order & 1:
            norm = step if norm is None else step + norm * power
            full = power if full is None else full * power
        order >>= 1
        if not order:
            break
        step = step + step * power
        power = power * power
    if full != IntMatrix.identity(n):
        raise AssertionError("norm image must lie in the fixed lattice")
    return fixed, coord, present_quotient(fixed.cols, norm)


def descend_map(amb: IntMatrix, src: Tuple[IntMatrix, IntMatrix, Presentation],
                dst: Tuple[IntMatrix, IntMatrix, Presentation]) -> GroupHom:
    """The map of `fixed_mod_norm` quotients induced by an ambient matrix
    that commutes with the actions.

    The coordinate map of dst reads the images of the fixed basis of src:
    carried = coord_dst * amb * fixed_src.  They are fixed exactly when
    fixed_dst * carried gives them back.
    """
    (src_fixed, _, src_pres), (dst_fixed, dst_coord, dst_pres) = src, dst
    moved = amb * src_fixed
    carried = dst_coord * moved
    if dst_fixed * carried != moved:
        raise AssertionError("equivariant map must preserve fixed lattices")
    return induced_hom(src_pres, dst_pres, carried)


def tate_h0(mod: GModule) -> FgAbGroup:
    """Fixed vectors modulo the image of the full group norm.

    The carrier must be free; everything happens in exact integer
    arithmetic on the fixed-vector lattice.
    """
    if mod.carrier.torsion != ():
        raise ValueError("Tate computation expects a free carrier")
    return fixed_mod_norm(mod.action.matrix, mod.spec.order())[2].group


def _rotation_module(lift: FreeLift, p: int, r: int, cap: int) -> GModule:
    """The rotation action on the p^(r-1) tensor power, over C_{p^(r-1)}."""
    if r < 1:
        raise ValueError("truncation level must be >= 1")
    return tensor_power_action(lift, CyclicGroupSpec(p, r - 1), cap=cap)


def _tate_module(space: FpVectorSpace, r: int, cap: int) -> GModule:
    """The rotation action on the p^(r-1) tensor power, inflated to C_{p^r}."""
    return inflate_action(_rotation_module(canonical_lift(space), space.p, r, cap))


def tate_polywitt(space: FpVectorSpace, r: int, cap: int = DEFAULT_CAP) -> PolyWittResult:
    """Tate pipeline: inflated rotation action on the p^(r-1) tensor power."""
    return PolyWittResult(space.p, r, tate_h0(_tate_module(space, r, cap)))


def norm_over_Z(lift: FreeLift, p: int, r: int, cap: int = DEFAULT_CAP) -> CyclicMackeyFunctor:
    """Fixed-point Mackey functor of the tensor power over C_{p^(r-1)}."""
    return fixed_point_mackey(_rotation_module(lift, p, r, cap))


def norm_over_W(space: FpVectorSpace, r: int, cap: int = DEFAULT_CAP) -> CyclicMackeyFunctor:
    """Norm pipeline: base change of the integral norm to the Witt functor,
    read off the rotation orbits (`fixed_point_witt_mackey`)."""
    return fixed_point_witt_mackey(_rotation_module(canonical_lift(space), space.p, r, cap))


@dataclass
class ComparisonReport:
    p: int
    d: int
    r: int
    tate: Tuple[int, ...]
    norm: Tuple[int, ...]
    passed: bool
    ms: Dict[str, int] = field(default_factory=dict)

    def to_dict(self, with_timings: bool = False) -> dict:
        out = {
            "instance": {"p": self.p, "d": self.d, "r": self.r},
            "tate": self.tate,
            "norm": self.norm,
            "pass": self.passed,
        }
        if with_timings:
            out["ms"] = self.ms
        return out


def compare_pipelines(space: FpVectorSpace, r: int, cap: int = DEFAULT_CAP) -> ComparisonReport:
    """Run both pipelines and compare invariant factors."""
    return compare_with_norm(space, r, cap=cap)[0]


def compare_with_norm(space: FpVectorSpace, r: int,
                      cap: int = DEFAULT_CAP) -> Tuple[ComparisonReport, CyclicMackeyFunctor]:
    """`compare_pipelines`, also returning the norm pipeline's Mackey functor
    (`norm_over_W`) so that a caller checking it further builds it once.
    Both pipelines read the same rotation module, built once."""
    t0 = time.perf_counter()
    mod = _rotation_module(canonical_lift(space), space.p, r, cap)
    tate = PolyWittResult(space.p, r, tate_h0(inflate_action(mod))).invariant_factors()
    t1 = time.perf_counter()
    w = fixed_point_witt_mackey(mod)
    norm = PolyWittResult(space.p, r, w.levels[r - 1]).invariant_factors()
    t2 = time.perf_counter()
    return ComparisonReport(
        p=space.p,
        d=space.d,
        r=r,
        tate=tate,
        norm=norm,
        passed=tate == norm,
        ms={"tate": int((t1 - t0) * 1000), "norm": int((t2 - t1) * 1000)},
    ), w


def comparison_grid() -> List[Tuple[int, int, int]]:
    """The (p, d, r) instances the comparison harness must pass."""
    grid = []
    for d in (1, 2, 3):
        for r in (1, 2, 3):
            if d ** (2 ** (r - 1)) <= DEFAULT_CAP:
                grid.append((2, d, r))
    for d in (1, 2):
        for r in (1, 2):
            grid.append((3, d, r))
    for r in (1, 2, 3):
        grid.append((5, 1, r))
    return grid


def conjugate_gmodule(mod: GModule, base_change: IntMatrix, inverse: IntMatrix) -> GModule:
    """The same module written in a different basis of its free carrier.

    `inverse` must be the inverse of the square `base_change`; over Z a
    right inverse of a square matrix is its inverse.  With B the base
    change and A the action, (B A B^-1)^k = B A^k B^-1 once B B^-1 = I is
    checked, so the conjugate has the order of A, which the module's own
    construction vouched for; it is not checked again, and
    `fixed_mod_norm` checks A^order = I on what it factors anyway."""
    n = base_change.rows
    if base_change.cols != n or base_change * inverse != IntMatrix.identity(n):
        raise ValueError("change of basis must be invertible over the integers")
    conj = base_change * mod.action.matrix * inverse
    return GModule(mod.spec, mod.carrier, GroupHom(mod.carrier, mod.carrier, conj),
                   validate=False)


def lift_independence_report(space: FpVectorSpace, r: int, samples: int = 20,
                             seed: int = 0, cap: int = DEFAULT_CAP) -> List[bool]:
    """Tate output under seeded unimodular rewrites of the tensor lattice.

    Conjugating by an arbitrary unimodular matrix produces an isomorphic
    module presented by a genuinely different matrix, so equal output is
    a working check on the lattice computations rather than a tautology.
    """
    import random

    inflated = _tate_module(space, r, cap)
    baseline = tate_h0(inflated)
    dim = inflated.carrier.n
    rng = random.Random(seed)
    results = []
    for _ in range(samples):
        conj = conjugate_gmodule(inflated, *random_unimodular(dim, rng))
        results.append(tate_h0(conj) == baseline)
    return results
