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
and Verschiebung live on the Mackey side as the top restriction and
transfer.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .abgroups import FgAbGroup, GroupHom, Presentation, induced_hom, present_quotient
from .intlinalg import (
    IntMatrix,
    kernel_basis,
    kron_power,
    random_unimodular,
    require_prime,
    solve_int_matrix,
)
from .mackey import (
    CyclicGroupSpec,
    CyclicMackeyFunctor,
    GModule,
    base_change_to_witt,
    fixed_point_mackey,
    witt_mackey,
)

DEFAULT_CAP = 4096


class CapExceeded(ValueError):
    """Tensor power dimension exceeds the configured cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"tensor power needs dimension {needed}, above the cap {cap}; "
            f"pick a smaller dimension or truncation, or raise the cap"
        )
        self.needed = needed
        self.cap = cap


@dataclass(frozen=True)
class FpVectorSpace:
    """A finite-dimensional vector space over the prime field F_p."""

    p: int
    d: int
    basis: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        require_prime(self.p)
        if self.d < 0:
            raise ValueError("dimension must be >= 0")
        if self.basis is not None and len(self.basis) != self.d:
            raise ValueError("named basis must match the dimension")


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
    provenance: str

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


def inflate_action(mod: GModule, levels_up: int = 1) -> GModule:
    """Same carrier and matrix, regarded over the larger cyclic group."""
    spec = CyclicGroupSpec(mod.spec.p, mod.spec.n + levels_up)
    return GModule(spec, mod.carrier, mod.action)


def fixed_mod_norm(action: IntMatrix, order: int) -> Tuple[IntMatrix, Presentation]:
    """Fixed vectors of a free Z[C]-lattice modulo the image of the norm.

    action is the generator's matrix and order the order of the acting
    cyclic group C, so the norm is the sum of the first `order` powers of
    action.  Returns the fixed basis as matrix columns, and the
    presentation of the quotient in those coordinates.
    """
    dim = action.rows
    ident = IntMatrix.identity(dim)
    fixed = kernel_basis(action - ident)
    norm = IntMatrix.zero(dim, dim)
    power = ident
    for _ in range(order):
        norm = norm + power
        power = action * power
    coords = solve_int_matrix(fixed, norm)
    if coords is None:
        raise AssertionError("norm image must lie in the fixed lattice")
    return fixed, present_quotient(fixed.cols, coords)


def descend_map(amb: IntMatrix, src: Tuple[IntMatrix, Presentation],
                dst: Tuple[IntMatrix, Presentation]) -> GroupHom:
    """The map of `fixed_mod_norm` quotients induced by an ambient matrix
    that commutes with the actions."""
    (src_fixed, src_pres), (dst_fixed, dst_pres) = src, dst
    carried = solve_int_matrix(dst_fixed, amb * src_fixed)
    if carried is None:
        raise AssertionError("equivariant map must preserve fixed lattices")
    return induced_hom(src_pres, dst_pres, carried)


def tate_h0(mod: GModule) -> FgAbGroup:
    """Fixed vectors modulo the image of the full group norm.

    The carrier must be free; everything happens in exact integer
    arithmetic on the fixed-vector lattice.
    """
    if mod.carrier.torsion != ():
        raise ValueError("Tate computation expects a free carrier")
    return fixed_mod_norm(mod.action.matrix, mod.spec.order())[1].group


def _tate_module(space: FpVectorSpace, r: int, cap: int) -> GModule:
    """The rotation action on the p^(r-1) tensor power, inflated to C_{p^r}."""
    if r < 1:
        raise ValueError("truncation level must be >= 1")
    spec = CyclicGroupSpec(space.p, r - 1)
    return inflate_action(tensor_power_action(canonical_lift(space), spec, cap=cap))


def tate_polywitt(space: FpVectorSpace, r: int, cap: int = DEFAULT_CAP) -> PolyWittResult:
    """Tate pipeline: inflated rotation action on the p^(r-1) tensor power."""
    return PolyWittResult(space.p, r, tate_h0(_tate_module(space, r, cap)), "tate")


def norm_over_Z(lift: FreeLift, p: int, r: int, cap: int = DEFAULT_CAP) -> CyclicMackeyFunctor:
    """Fixed-point Mackey functor of the tensor power over C_{p^(r-1)}."""
    if r < 1:
        raise ValueError("truncation level must be >= 1")
    return fixed_point_mackey(tensor_power_action(lift, CyclicGroupSpec(p, r - 1), cap=cap))


def norm_over_W(space: FpVectorSpace, r: int, cap: int = DEFAULT_CAP) -> CyclicMackeyFunctor:
    """Norm pipeline: base change of the integral norm to the Witt functor."""
    return base_change_to_witt(norm_over_Z(canonical_lift(space), space.p, r, cap=cap))


def norm_polywitt(space: FpVectorSpace, r: int, cap: int = DEFAULT_CAP) -> PolyWittResult:
    top = norm_over_W(space, r, cap=cap).levels[r - 1]
    return PolyWittResult(space.p, r, top, "norm")


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
            "instance": {"p": str(self.p), "d": str(self.d), "r": str(self.r)},
            "tate": [str(v) for v in self.tate],
            "norm": [str(v) for v in self.norm],
            "pass": self.passed,
        }
        if with_timings:
            out["ms"] = {k: str(v) for k, v in self.ms.items()}
        return out


def compare_pipelines(space: FpVectorSpace, r: int, cap: int = DEFAULT_CAP) -> ComparisonReport:
    """Run both pipelines and compare invariant factors."""
    return compare_with_norm(space, r, cap=cap)[0]


def compare_with_norm(space: FpVectorSpace, r: int,
                      cap: int = DEFAULT_CAP) -> Tuple[ComparisonReport, CyclicMackeyFunctor]:
    """`compare_pipelines`, also returning the norm pipeline's Mackey functor
    (`norm_over_W`) so that a caller checking it further builds it once."""
    t0 = time.perf_counter()
    tate = tate_polywitt(space, r, cap=cap).invariant_factors()
    t1 = time.perf_counter()
    w = norm_over_W(space, r, cap=cap)
    norm = PolyWittResult(space.p, r, w.levels[r - 1], "norm").invariant_factors()
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


@dataclass
class FVReport:
    p: int
    d: int
    r: int
    checks: List[Tuple[str, bool]]

    @property
    def ok(self) -> bool:
        return all(flag for _, flag in self.checks)


def fv_on_polywitt(space: FpVectorSpace, r: int, cap: int = DEFAULT_CAP) -> FVReport:
    """Frobenius and Verschiebung on the norm pipeline (`fv_on_norm`)."""
    return fv_on_norm(space, r, norm_over_W(space, r, cap=cap))


def fv_on_norm(space: FpVectorSpace, r: int, w: CyclicMackeyFunctor) -> FVReport:
    """Frobenius and Verschiebung on w = norm_over_W(space, r).

    Frobenius is the restriction out of the top level and Verschiebung
    the transfer into it; transfer after restriction is multiplication
    by p on the top level, and restriction after transfer is the sum of
    the p generator translates one level down.
    """
    p = space.p
    checks: List[Tuple[str, bool]] = []
    if r == 1:
        checks.append(("degenerate single level", True))
        return FVReport(p, space.d, r, checks)
    n = r - 1
    frob = w.res[n - 1]
    versch = w.tr[n - 1]
    top = w.levels[n]
    checks.append(
        ("transfer after restriction is p on the top level",
         versch.compose(frob) == GroupHom.scalar(top, p))
    )
    translate_sum = GroupHom.zero(w.levels[n - 1], w.levels[n - 1])
    cur = GroupHom.identity(w.levels[n - 1])
    for _ in range(p):
        translate_sum = translate_sum + cur
        cur = w.weyl[n - 1].compose(cur)
    checks.append(
        ("restriction after transfer is the translate sum one level down",
         frob.compose(versch) == translate_sum)
    )
    if space.d == 1:
        wm = witt_mackey(p, n)
        checks.append(("one-dimensional case matches the Witt functor levels",
                       w.levels == wm.levels))
        checks.append(("one-dimensional Frobenius is reduction",
                       frob.matrix == wm.res[n - 1].matrix))
        checks.append(("one-dimensional Verschiebung is the p-lift",
                       versch.matrix == wm.tr[n - 1].matrix))
    return FVReport(p, space.d, r, checks)


def conjugate_gmodule(mod: GModule, base_change: IntMatrix) -> GModule:
    """The same module written in a different basis of its free carrier."""
    inv = solve_int_matrix(base_change, IntMatrix.identity(base_change.rows))
    if inv is None:
        raise ValueError("change of basis must be invertible over the integers")
    conj = base_change * mod.action.matrix * inv
    return GModule(mod.spec, mod.carrier, GroupHom(mod.carrier, mod.carrier, conj))


def conjugate_tensor_action(mod: GModule, base_change: IntMatrix, m: int) -> GModule:
    """Rewrite the rotation action after a unimodular change of lift basis.

    base_change is a d x d unimodular matrix acting on the tensor power
    through its m-fold Kronecker power.  Because the rotation commutes
    with every such diagonal tensor map, the resulting action matrix is
    literally unchanged; this is the mechanism behind independence of
    the chosen lift.
    """
    return conjugate_gmodule(mod, kron_power(base_change, m))


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
        u = random_unimodular(dim, rng)
        conj = conjugate_gmodule(inflated, u)
        results.append(tate_h0(conj) == baseline)
    return results


def tate_induced_map(src: FpVectorSpace, dst: FpVectorSpace, matrix: IntMatrix,
                     r: int, cap: int = DEFAULT_CAP) -> GroupHom:
    """Map of Tate pipelines induced by a linear map of lifts.

    The tensor power of the matrix commutes with the rotation actions, so
    it carries fixed vectors to fixed vectors and norm images to norm
    images; the result is the induced map on the quotients.
    """
    if src.p != dst.p:
        raise ValueError("spaces must share the prime")
    pres = [fixed_mod_norm(mod.action.matrix, mod.spec.order())
            for mod in (_tate_module(src, r, cap), _tate_module(dst, r, cap))]
    return descend_map(kron_power(matrix, src.p ** (r - 1)), *pres)
