"""Cohomological Mackey functors over cyclic p-groups.

A functor over C_{p^n} is stored levelwise: abelian groups levels[0..n]
(level k belongs to the subgroup C_{p^k}) with restriction maps going
down, transfers going up, and the action of a fixed generator on every
level.  The four defining conditions are enforced by a validator that
every constructor runs:

  * the generator action on level k has order dividing p^(n-k), and is
    trivial on the top level;
  * restrictions and transfers commute with the generator action;
  * transfer after restriction is multiplication by p (cohomological);
  * restriction after transfer is the sum of the p translates by the
    subgroup of index p (the double-coset formula for cyclic groups).

Constructors: constant functors, fixed points of a G-module, permutation
functors, the Witt functor (levels Z/p^(k+1)), induction and restriction
along subgroups, the box pairing with a permutation orbit (computed as
induction after restriction), levelwise kernels and cokernels, inflation,
an explicit four-map resolution of the Witt functor by permutation
functors, and the p-th-power norm check for constant coefficients.
"""

from __future__ import annotations

import itertools
import random
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .abgroups import (
    FgAbGroup,
    GroupHom,
    Presentation,
    canonical_presentation,
    direct_sum_presentation,
    hom_cokernel,
    hom_kernel,
    induced_hom,
    is_isomorphism,
    present_quotient,
    subgroups_equal,
)
from .intlinalg import IntMatrix, _SolveContext, require_prime


class MackeyError(ValueError):
    """A Mackey-functor invariant or map condition failed."""


class CyclicGroupSpec:
    """The group C_{p^n} with subgroup levels 0..n."""

    __slots__ = ("p", "n")

    def __init__(self, p: int, n: int):
        require_prime(p)
        if n < 0:
            raise ValueError("exponent must be >= 0")
        self.p = p
        self.n = n

    def order(self) -> int:
        return self.p ** self.n

    def __eq__(self, other):
        return isinstance(other, CyclicGroupSpec) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"CyclicGroupSpec(C_{self.p}^{self.n})"


def hom_power(h: GroupHom, m: int) -> GroupHom:
    """m-fold composite of an endomorphism."""
    out = GroupHom.identity(h.src)
    base = h
    while m:
        if m & 1:
            out = base.compose(out)
        m >>= 1
        if m:
            base = base.compose(base)
    return out


def _preimages(h: GroupHom, elts: Sequence[Sequence[int]]) -> List[Optional[Tuple[int, ...]]]:
    """For each element, some x in the source with h(x) = elt, or None.

    One factorization of [h | dst relations] answers every element.
    """
    ctx = _SolveContext(h.matrix.hstack(h.dst.relation_matrix()))
    out = []
    for elt in elts:
        sol = ctx.solve(list(h.dst.normalize(elt)))
        out.append(None if sol is None else h.src.normalize(sol[: h.src.n]))
    return out


def express_via(h: GroupHom, elt: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Some x in the source with h(x) = elt, or None."""
    return _preimages(h, [elt])[0]


def express_matrix_via(h: GroupHom, cols: IntMatrix) -> IntMatrix:
    """Preimages under h of the columns (must exist)."""
    out = _preimages(h, cols.transpose().to_rows())
    if any(x is None for x in out):
        raise MackeyError("element has no preimage where one is required")
    return IntMatrix.from_columns(out, rows=h.src.n)


class GModule:
    """A f.g. abelian group with an action of a fixed generator of C_{p^n}."""

    __slots__ = ("spec", "carrier", "action")

    def __init__(self, spec: CyclicGroupSpec, carrier: FgAbGroup, action: GroupHom):
        if action.src != carrier or action.dst != carrier:
            raise ValueError("action must be an endomorphism of the carrier")
        if hom_power(action, spec.order()) != GroupHom.identity(carrier):
            raise MackeyError("generator action order does not divide the group order")
        if not is_isomorphism(action):
            raise MackeyError("generator action must be invertible")
        self.spec = spec
        self.carrier = carrier
        self.action = action

    def __repr__(self):
        return f"GModule({self.spec}, {self.carrier})"


def cyclic_shift_matrix(m: int) -> IntMatrix:
    """Basis permutation e_a -> e_{a+1 mod m}."""
    return IntMatrix(m, m, {((j + 1) % m, j): 1 for j in range(m)})


def trivial_gmodule(p: int, n: int, carrier: FgAbGroup) -> GModule:
    return GModule(CyclicGroupSpec(p, n), carrier, GroupHom.identity(carrier))


def orbit_gmodule(p: int, n: int, h: int) -> GModule:
    """Z[C_{p^n}/C_{p^h}] with the generator acting as the coset shift."""
    if not 0 <= h <= n:
        raise ValueError("orbit level out of range")
    m = p ** (n - h)
    carrier = FgAbGroup([0] * m)
    return GModule(CyclicGroupSpec(p, n), carrier, GroupHom(carrier, carrier, cyclic_shift_matrix(m)))


def regular_gmodule(p: int, n: int) -> GModule:
    return orbit_gmodule(p, n, 0)


def gmodule_direct_sum(mods: Sequence[GModule]) -> GModule:
    spec = mods[0].spec
    for m in mods:
        if m.spec != spec:
            raise ValueError("direct sum needs a common group")
    pres, ranges = direct_sum_presentation([m.carrier for m in mods])
    total = pres.ambient_dim
    data: Dict[Tuple[int, int], int] = {}
    for (start, _), mod in zip(ranges, mods):
        for (i, j), v in mod.action.matrix.data.items():
            data[(start + i, start + j)] = v
    amb = IntMatrix(total, total, data)
    act = induced_hom(pres, pres, amb)
    return GModule(spec, pres.group, act)


class CyclicMackeyFunctor:
    """Levelwise data of a cohomological Mackey functor over C_{p^n}."""

    __slots__ = ("spec", "levels", "res", "tr", "weyl")

    def __init__(
        self,
        spec: CyclicGroupSpec,
        levels: Sequence[FgAbGroup],
        res: Sequence[GroupHom],
        tr: Sequence[GroupHom],
        weyl: Sequence[GroupHom],
        validate: bool = True,
    ):
        self.spec = spec
        self.levels = list(levels)
        self.res = list(res)
        self.tr = list(tr)
        self.weyl = list(weyl)
        if validate:
            validate_mackey(self)

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def n(self) -> int:
        return self.spec.n

    def level(self, k: int) -> FgAbGroup:
        return self.levels[k]

    def __eq__(self, other):
        return (
            isinstance(other, CyclicMackeyFunctor)
            and self.spec == other.spec
            and self.levels == other.levels
            and self.res == other.res
            and self.tr == other.tr
            and self.weyl == other.weyl
        )

    def __hash__(self):
        return hash((self.spec, tuple(self.levels)))

    def __repr__(self):
        return f"CyclicMackeyFunctor(p={self.p}, n={self.n}, levels={[str(g) for g in self.levels]})"


def validate_mackey(m: CyclicMackeyFunctor) -> None:
    """Raise MackeyError unless all four defining conditions hold."""
    p, n = m.p, m.n
    if len(m.levels) != n + 1 or len(m.res) != n or len(m.tr) != n or len(m.weyl) != n + 1:
        raise MackeyError("wrong number of levels or structure maps")
    for k in range(n):
        if m.res[k].src != m.levels[k + 1] or m.res[k].dst != m.levels[k]:
            raise MackeyError(f"restriction {k} has wrong source or target")
        if m.tr[k].src != m.levels[k] or m.tr[k].dst != m.levels[k + 1]:
            raise MackeyError(f"transfer {k} has wrong source or target")
    for k in range(n + 1):
        w = m.weyl[k]
        if w.src != m.levels[k] or w.dst != m.levels[k]:
            raise MackeyError(f"generator action {k} is not an endomorphism")
        if hom_power(w, p ** (n - k)) != GroupHom.identity(m.levels[k]):
            raise MackeyError(f"generator action order at level {k} does not divide p^{n - k}")
    if m.weyl[n] != GroupHom.identity(m.levels[n]):
        raise MackeyError("generator action must be trivial on the top level")
    for k in range(n):
        if m.weyl[k].compose(m.res[k]) != m.res[k].compose(m.weyl[k + 1]):
            raise MackeyError(f"restriction {k} is not equivariant")
        if m.weyl[k + 1].compose(m.tr[k]) != m.tr[k].compose(m.weyl[k]):
            raise MackeyError(f"transfer {k} is not equivariant")
        if m.tr[k].compose(m.res[k]) != GroupHom.scalar(m.levels[k + 1], p):
            raise MackeyError(f"transfer after restriction at level {k} is not multiplication by p")
        acc = GroupHom.zero(m.levels[k], m.levels[k])
        step = hom_power(m.weyl[k], p ** (n - k - 1))
        cur = GroupHom.identity(m.levels[k])
        for _ in range(p):
            acc = acc + cur
            cur = step.compose(cur)
        if m.res[k].compose(m.tr[k]) != acc:
            raise MackeyError(f"double-coset formula fails at level {k}")


class MackeyMap:
    """Levelwise homomorphism commuting with res, tr, and the generator."""

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: CyclicMackeyFunctor,
        target: CyclicMackeyFunctor,
        components: Sequence[GroupHom],
        validate: bool = True,
    ):
        if source.spec != target.spec:
            raise MackeyError("source and target live over different groups")
        if len(components) != source.n + 1:
            raise MackeyError("wrong number of components")
        self.source = source
        self.target = target
        self.components = list(components)
        if validate:
            self._validate()

    def _validate(self) -> None:
        s, t = self.source, self.target
        for k, c in enumerate(self.components):
            if c.src != s.levels[k] or c.dst != t.levels[k]:
                raise MackeyError(f"component {k} has wrong source or target")
        for k in range(s.n):
            if self.components[k].compose(s.res[k]) != t.res[k].compose(self.components[k + 1]):
                raise MackeyError(f"map does not commute with restriction at {k}")
            if self.components[k + 1].compose(s.tr[k]) != t.tr[k].compose(self.components[k]):
                raise MackeyError(f"map does not commute with transfer at {k}")
        for k in range(s.n + 1):
            if self.components[k].compose(s.weyl[k]) != t.weyl[k].compose(self.components[k]):
                raise MackeyError(f"map does not commute with the generator action at {k}")

    @staticmethod
    def identity(m: CyclicMackeyFunctor) -> "MackeyMap":
        return MackeyMap(m, m, [GroupHom.identity(g) for g in m.levels], validate=False)

    def compose(self, other: "MackeyMap") -> "MackeyMap":
        if other.target != self.source:
            raise MackeyError("composition mismatch")
        comps = [a.compose(b) for a, b in zip(self.components, other.components)]
        return MackeyMap(other.source, self.target, comps, validate=False)

    def scale(self, c: int) -> "MackeyMap":
        return MackeyMap(self.source, self.target, [h.scale(c) for h in self.components])

    def __sub__(self, other: "MackeyMap") -> "MackeyMap":
        if self.source != other.source or self.target != other.target:
            raise MackeyError("difference mismatch")
        comps = [a - b for a, b in zip(self.components, other.components)]
        return MackeyMap(self.source, self.target, comps, validate=False)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def is_isomorphism(self) -> bool:
        return all(is_isomorphism(c) for c in self.components)

    def __eq__(self, other):
        return (
            isinstance(other, MackeyMap)
            and self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __repr__(self):
        return f"MackeyMap(p={self.source.p}, n={self.source.n})"


# basic constructors


def constant_mackey(p: int, n: int, base: Optional[FgAbGroup] = None) -> CyclicMackeyFunctor:
    """All levels the same group; restriction identity, transfer p, trivial action."""
    g = base if base is not None else FgAbGroup([0])
    ident = GroupHom.identity(g)
    return CyclicMackeyFunctor(
        CyclicGroupSpec(p, n),
        [g] * (n + 1),
        [ident] * n,
        [GroupHom.scalar(g, p)] * n,
        [ident] * (n + 1),
    )


def zero_mackey(p: int, n: int) -> CyclicMackeyFunctor:
    return constant_mackey(p, n, FgAbGroup([]))


def witt_mackey(p: int, n: int) -> CyclicMackeyFunctor:
    """Levels Z/p^(k+1); restriction reduction, transfer the multiply-by-p lift."""
    levels = [FgAbGroup([p ** (k + 1)]) for k in range(n + 1)]
    res = [GroupHom(levels[k + 1], levels[k], IntMatrix.from_rows([[1]])) for k in range(n)]
    tr = [GroupHom(levels[k], levels[k + 1], IntMatrix.from_rows([[p]])) for k in range(n)]
    weyl = [GroupHom.identity(levels[k]) for k in range(n + 1)]
    return CyclicMackeyFunctor(CyclicGroupSpec(p, n), levels, res, tr, weyl)


def fixed_point_mackey(mod: GModule) -> CyclicMackeyFunctor:
    """Levels = fixed subgroups of the carrier, with inclusion/trace/action."""
    p, n = mod.spec.p, mod.spec.n
    ident = GroupHom.identity(mod.carrier)
    kernels = []
    for k in range(n + 1):
        power = hom_power(mod.action, p ** (n - k))
        kernels.append(hom_kernel(power - ident))
    levels = [kd.group for kd in kernels]
    res = []
    tr = []
    weyl = []
    for k in range(n + 1):
        incl_k = kernels[k].incl
        weyl.append(
            GroupHom(
                levels[k],
                levels[k],
                express_matrix_via(incl_k, mod.action.matrix * incl_k.matrix),
            )
        )
    for k in range(n):
        incl_k = kernels[k].incl
        incl_k1 = kernels[k + 1].incl
        res.append(GroupHom(levels[k + 1], levels[k], express_matrix_via(incl_k, incl_k1.matrix)))
        step = hom_power(mod.action, p ** (n - k - 1))
        trace = GroupHom.zero(mod.carrier, mod.carrier)
        cur = ident
        for _ in range(p):
            trace = trace + cur
            cur = step.compose(cur)
        tr.append(
            GroupHom(
                levels[k], levels[k + 1], express_matrix_via(incl_k1, trace.matrix * incl_k.matrix)
            )
        )
    return CyclicMackeyFunctor(mod.spec, levels, res, tr, weyl)


def fixed_point_mackey_map(
    src: GModule, dst: GModule, f: GroupHom
) -> MackeyMap:
    """The map of fixed-point functors induced by an equivariant module map."""
    if src.spec != dst.spec:
        raise MackeyError("modules live over different groups")
    if f.compose(src.action) != dst.action.compose(f):
        raise MackeyError("module map is not equivariant")
    p, n = src.spec.p, src.spec.n
    ms, mt = fixed_point_mackey(src), fixed_point_mackey(dst)
    comps = []
    for k in range(n + 1):
        incl_s = hom_kernel(hom_power(src.action, p ** (n - k)) - GroupHom.identity(src.carrier)).incl
        incl_t = hom_kernel(hom_power(dst.action, p ** (n - k)) - GroupHom.identity(dst.carrier)).incl
        comps.append(
            GroupHom(ms.levels[k], mt.levels[k], express_matrix_via(incl_t, f.matrix * incl_s.matrix))
        )
    return MackeyMap(ms, mt, comps)


def permutation_mackey(p: int, n: int, orbits: Sequence[int]) -> CyclicMackeyFunctor:
    """Fixed-point functor of the permutation module on a multiset of orbits.

    Each entry h in orbits contributes the orbit C_{p^n}/C_{p^h}.
    """
    if not orbits:
        return zero_mackey(p, n)
    mods = [orbit_gmodule(p, n, h) for h in orbits]
    return fixed_point_mackey(gmodule_direct_sum(mods) if len(mods) > 1 else mods[0])


# restriction, induction, box pairing


def mackey_restrict(m: CyclicMackeyFunctor, h: int) -> CyclicMackeyFunctor:
    """Restrict to the subgroup C_{p^h}: keep levels 0..h, power up the action."""
    if not 0 <= h <= m.n:
        raise ValueError("subgroup level out of range")
    step = m.p ** (m.n - h)
    weyl = [hom_power(m.weyl[k], step) for k in range(h + 1)]
    return CyclicMackeyFunctor(
        CyclicGroupSpec(m.p, h), m.levels[: h + 1], m.res[:h], m.tr[:h], weyl
    )


class InducedData:
    """Induction of a Mackey functor with its levelwise presentations."""

    __slots__ = ("functor", "pres", "ranges")

    def __init__(self, functor: CyclicMackeyFunctor, pres: List[Presentation], ranges: List[List[Tuple[int, int]]]):
        self.functor = functor
        self.pres = pres
        self.ranges = ranges


def _block_matrix(
    row_ranges: Sequence[Tuple[int, int]],
    col_ranges: Sequence[Tuple[int, int]],
    total_rows: int,
    total_cols: int,
    blocks: Dict[Tuple[int, int], IntMatrix],
) -> IntMatrix:
    data: Dict[Tuple[int, int], int] = {}
    for (bi, bj), mat in blocks.items():
        r0 = row_ranges[bi][0]
        c0 = col_ranges[bj][0]
        for (i, j), v in mat.data.items():
            data[(r0 + i, c0 + j)] = v
    return IntMatrix(total_rows, total_cols, data)


def mackey_induce_data(nfun: CyclicMackeyFunctor, n: int) -> InducedData:
    """Induce from C_{p^h} up to C_{p^n} by the block coset construction.

    Level j consists of p^(n - max(h, j)) copies of level min(h, j) of the
    input, indexed by coset representatives in increasing generator power.
    """
    p, h = nfun.p, nfun.n
    if n < h:
        raise ValueError("target group must contain the source group")
    copies = [p ** (n - max(h, j)) for j in range(n + 1)]
    blocks = [nfun.levels[min(h, j)] for j in range(n + 1)]
    pres: List[Presentation] = []
    ranges: List[List[Tuple[int, int]]] = []
    for j in range(n + 1):
        pr, rg = direct_sum_presentation([blocks[j]] * copies[j])
        pres.append(pr)
        ranges.append(rg)
    res: List[GroupHom] = []
    tr: List[GroupHom] = []
    weyl: List[GroupHom] = []
    for j in range(n + 1):
        c = copies[j]
        ident = IntMatrix.identity(blocks[j].n)
        twist = nfun.weyl[min(j, h)].matrix
        blk: Dict[Tuple[int, int], IntMatrix] = {}
        for a in range(c):
            blk[((a + 1) % c, a)] = twist if a == c - 1 else ident
        amb = _block_matrix(ranges[j], ranges[j], pres[j].ambient_dim, pres[j].ambient_dim, blk)
        weyl.append(induced_hom(pres[j], pres[j], amb))
    for j in range(n):
        cj, cj1 = copies[j], copies[j + 1]
        if j + 1 <= h:
            # same number of copies; apply the input maps blockwise
            rblk = {(a, a): nfun.res[j].matrix for a in range(cj)}
            tblk = {(a, a): nfun.tr[j].matrix for a in range(cj)}
        else:
            ident = IntMatrix.identity(blocks[j + 1].n)
            rblk = {(a, a % cj1): ident for a in range(cj)}
            tblk = {(a % cj1, a): ident for a in range(cj)}
        ramb = _block_matrix(ranges[j], ranges[j + 1], pres[j].ambient_dim, pres[j + 1].ambient_dim, rblk)
        tamb = _block_matrix(ranges[j + 1], ranges[j], pres[j + 1].ambient_dim, pres[j].ambient_dim, tblk)
        res.append(induced_hom(pres[j + 1], pres[j], ramb))
        tr.append(induced_hom(pres[j], pres[j + 1], tamb))
    fun = CyclicMackeyFunctor(CyclicGroupSpec(p, n), [pr.group for pr in pres], res, tr, weyl)
    return InducedData(fun, pres, ranges)


def mackey_induce(nfun: CyclicMackeyFunctor, n: int) -> CyclicMackeyFunctor:
    return mackey_induce_data(nfun, n).functor


def box_with_permutation_data(m: CyclicMackeyFunctor, k: int) -> InducedData:
    """Pairing with the orbit C_{p^n}/C_{p^k}: induction after restriction."""
    return mackey_induce_data(mackey_restrict(m, k), m.n)


def box_with_permutation(m: CyclicMackeyFunctor, k: int) -> CyclicMackeyFunctor:
    return box_with_permutation_data(m, k).functor


def _transfer_chain(m: CyclicMackeyFunctor, lo: int, hi: int) -> GroupHom:
    """tr[hi-1] o ... o tr[lo]: level lo -> level hi."""
    out = GroupHom.identity(m.levels[lo])
    for k in range(lo, hi):
        out = m.tr[k].compose(out)
    return out


def box_counit(m: CyclicMackeyFunctor, k: int = 0) -> MackeyMap:
    """Natural map box_with_permutation(m, k) -> m.

    On the copy indexed by the a-th coset representative at level j it is
    the transfer from level min(j, k) composed with the a-th power of the
    generator action.
    """
    data = box_with_permutation_data(m, k)
    box = data.functor
    p, n = m.p, m.n
    comps: List[GroupHom] = []
    for j in range(n + 1):
        lo = min(j, k)
        c = p ** (n - max(j, k))
        tr_up = _transfer_chain(m, lo, j)
        target_pres = canonical_presentation(m.levels[j])
        blocks: Dict[Tuple[int, int], IntMatrix] = {}
        wpow = GroupHom.identity(m.levels[lo])
        for a in range(c):
            blocks[(0, a)] = tr_up.compose(wpow).matrix
            wpow = m.weyl[lo].compose(wpow)
        amb = _block_matrix(
            [(0, m.levels[j].n)], data.ranges[j], m.levels[j].n, data.pres[j].ambient_dim, blocks
        )
        comps.append(induced_hom(data.pres[j], target_pres, amb))
    return MackeyMap(box, m, comps)


def augmentation(p: int, n: int, k: int = 0) -> MackeyMap:
    """Counit from the permutation pairing on the constant functor."""
    return box_counit(constant_mackey(p, n), k)


def scaled_augmentation(p: int, n: int, k: int = 0) -> MackeyMap:
    return augmentation(p, n, k).scale(p)


# kernels, cokernels, derived constructions


class MackeyCokernelData:
    __slots__ = ("functor", "proj", "pres")

    def __init__(self, functor: CyclicMackeyFunctor, proj: MackeyMap, pres: List[Presentation]):
        self.functor = functor
        self.proj = proj
        self.pres = pres


def mackey_cokernel_data(f: MackeyMap) -> MackeyCokernelData:
    t = f.target
    pres: List[Presentation] = []
    for k in range(t.n + 1):
        lattice = f.components[k].matrix.hstack(t.levels[k].relation_matrix())
        pres.append(present_quotient(t.levels[k].n, lattice))
    levels = [pr.group for pr in pres]
    try:
        res = [induced_hom(pres[k + 1], pres[k], t.res[k].matrix) for k in range(t.n)]
        tr = [induced_hom(pres[k], pres[k + 1], t.tr[k].matrix) for k in range(t.n)]
        weyl = [induced_hom(pres[k], pres[k], t.weyl[k].matrix) for k in range(t.n + 1)]
    except ValueError as exc:
        raise MackeyError(f"cokernel structure maps do not descend: {exc}") from exc
    fun = CyclicMackeyFunctor(t.spec, levels, res, tr, weyl)
    proj = MackeyMap(
        t, fun, [GroupHom(t.levels[k], levels[k], pres[k].proj) for k in range(t.n + 1)]
    )
    return MackeyCokernelData(fun, proj, pres)


def mackey_cokernel(f: MackeyMap) -> CyclicMackeyFunctor:
    return mackey_cokernel_data(f).functor


class MackeyKernelData:
    __slots__ = ("functor", "incl")

    def __init__(self, functor: CyclicMackeyFunctor, incl: MackeyMap):
        self.functor = functor
        self.incl = incl


def mackey_kernel_data(f: MackeyMap) -> MackeyKernelData:
    s = f.source
    kds = [hom_kernel(f.components[k]) for k in range(s.n + 1)]
    levels = [kd.group for kd in kds]
    res = [
        GroupHom(
            levels[k + 1],
            levels[k],
            express_matrix_via(kds[k].incl, s.res[k].matrix * kds[k + 1].incl.matrix),
        )
        for k in range(s.n)
    ]
    tr = [
        GroupHom(
            levels[k],
            levels[k + 1],
            express_matrix_via(kds[k + 1].incl, s.tr[k].matrix * kds[k].incl.matrix),
        )
        for k in range(s.n)
    ]
    weyl = [
        GroupHom(
            levels[k],
            levels[k],
            express_matrix_via(kds[k].incl, s.weyl[k].matrix * kds[k].incl.matrix),
        )
        for k in range(s.n + 1)
    ]
    fun = CyclicMackeyFunctor(s.spec, levels, res, tr, weyl)
    incl = MackeyMap(fun, s, [kd.incl for kd in kds])
    return MackeyKernelData(fun, incl)


def mackey_kernel(f: MackeyMap) -> CyclicMackeyFunctor:
    return mackey_kernel_data(f).functor


def mackey_direct_sum(a: CyclicMackeyFunctor, b: CyclicMackeyFunctor) -> CyclicMackeyFunctor:
    if a.spec != b.spec:
        raise MackeyError("direct sum needs a common group")
    n = a.n
    pres = []
    ranges = []
    for k in range(n + 1):
        pr, rg = direct_sum_presentation([a.levels[k], b.levels[k]])
        pres.append(pr)
        ranges.append(rg)

    def block(k_src: int, k_dst: int, ha: GroupHom, hb: GroupHom) -> GroupHom:
        amb = _block_matrix(
            ranges[k_dst],
            ranges[k_src],
            pres[k_dst].ambient_dim,
            pres[k_src].ambient_dim,
            {(0, 0): ha.matrix, (1, 1): hb.matrix},
        )
        return induced_hom(pres[k_src], pres[k_dst], amb)

    res = [block(k + 1, k, a.res[k], b.res[k]) for k in range(n)]
    tr = [block(k, k + 1, a.tr[k], b.tr[k]) for k in range(n)]
    weyl = [block(k, k, a.weyl[k], b.weyl[k]) for k in range(n + 1)]
    return CyclicMackeyFunctor(a.spec, [pr.group for pr in pres], res, tr, weyl)


def augmentation_cokernel(m: CyclicMackeyFunctor) -> CyclicMackeyFunctor:
    """Cokernel of the counit from the free-orbit pairing (Q construction)."""
    return mackey_cokernel(box_counit(m, 0))


def base_change_to_witt(m: CyclicMackeyFunctor) -> CyclicMackeyFunctor:
    """Cokernel of p times the counit from the free-orbit pairing."""
    return mackey_cokernel(box_counit(m, 0).scale(m.p))


def base_change_to_witt_data(m: CyclicMackeyFunctor) -> MackeyCokernelData:
    return mackey_cokernel_data(box_counit(m, 0).scale(m.p))


def inflate_mackey(m: CyclicMackeyFunctor) -> CyclicMackeyFunctor:
    """Reindex levels up one step; the new bottom level is zero with zero maps."""
    p, n = m.p, m.n
    zero = FgAbGroup([])
    levels = [zero] + list(m.levels)
    res = [GroupHom.zero(levels[1], zero)] + list(m.res)
    tr = [GroupHom.zero(zero, levels[1])] + list(m.tr)
    weyl = [GroupHom.identity(zero)] + list(m.weyl)
    return CyclicMackeyFunctor(CyclicGroupSpec(p, n + 1), levels, res, tr, weyl)


# exactness checking and the explicit Witt resolution


class ExactnessReport:
    __slots__ = ("entries",)

    def __init__(self, entries: List[Tuple[str, int, bool]]):
        self.entries = entries

    @property
    def ok(self) -> bool:
        return all(flag for _, _, flag in self.entries)

    def failures(self) -> List[Tuple[str, int, bool]]:
        return [e for e in self.entries if not e[2]]

    def __repr__(self):
        return f"ExactnessReport(ok={self.ok}, checks={len(self.entries)})"


def check_exact(maps: Sequence[MackeyMap], left_exact: bool = True, right_exact: bool = True) -> ExactnessReport:
    """Levelwise exactness of a chain of composable Mackey maps.

    Checks that consecutive composites vanish and image = kernel at every
    inner node; with the flags also injectivity of the first map and
    surjectivity of the last.
    """
    entries: List[Tuple[str, int, bool]] = []
    n = maps[0].source.n
    for i in range(len(maps) - 1):
        if maps[i + 1].source != maps[i].target:
            raise MackeyError("chain is not composable")
    if left_exact:
        first = maps[0]
        for k in range(n + 1):
            ok = hom_kernel(first.components[k]).group.is_trivial()
            entries.append(("injectivity of map 1", k, ok))
    for i in range(len(maps) - 1):
        f, g = maps[i], maps[i + 1]
        for k in range(n + 1):
            mid = f.target.levels[k]
            comp_zero = g.components[k].compose(f.components[k]).is_zero()
            same = subgroups_equal(
                mid, f.components[k].matrix, g.components[k].kernel_lattice()
            )
            entries.append((f"image {i + 1} = kernel {i + 2}", k, comp_zero and same))
    if right_exact:
        last = maps[-1]
        for k in range(n + 1):
            ok = hom_cokernel(last.components[k]).group.is_trivial()
            entries.append((f"surjectivity of map {len(maps)}", k, ok))
    return ExactnessReport(entries)


class WittResolution:
    """The four-map resolution of the Witt functor over C_{p^(r-1)}.

    0 -> constant Z -> perm -> perm -> constant Z -> Witt -> 0, where perm
    is the pairing of the constant functor with the free orbit, the first
    map is the all-representatives section, the second is generator minus
    identity, the third is p times the counit, the last the canonical
    surjection.
    """

    __slots__ = ("p", "r", "maps", "objects")

    def __init__(self, p: int, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.p = p
        self.r = r
        n = r - 1
        const = constant_mackey(p, n)
        data = box_with_permutation_data(const, 0)
        perm = data.functor
        witt = witt_mackey(p, n)
        # section: 1 at level j maps to the sum of all copies
        sec_comps = []
        for j in range(n + 1):
            c = p ** (n - j)
            amb = _block_matrix(
                data.ranges[j], [(0, 1)], data.pres[j].ambient_dim, 1,
                {(a, 0): IntMatrix.from_rows([[1]]) for a in range(c)},
            )
            sec_comps.append(induced_hom(canonical_presentation(const.levels[j]), data.pres[j], amb))
        section = MackeyMap(const, perm, sec_comps)
        shift = MackeyMap(
            perm, perm, [perm.weyl[j] - GroupHom.identity(perm.levels[j]) for j in range(n + 1)]
        )
        paug = box_counit(const, 0).scale(p)
        surj = MackeyMap(
            const,
            witt,
            [GroupHom(const.levels[j], witt.levels[j], IntMatrix.from_rows([[1]])) for j in range(n + 1)],
        )
        self.maps = [section, shift, paug, surj]
        self.objects = [const, perm, perm, const, witt]

    def check(self) -> ExactnessReport:
        return check_exact(self.maps, left_exact=True, right_exact=True)


def witt_mackey_resolution(p: int, r: int) -> WittResolution:
    return WittResolution(p, r)


# explicit isomorphism search for functors with cyclic levels


def find_cyclic_iso(a: CyclicMackeyFunctor, b: CyclicMackeyFunctor) -> Optional[MackeyMap]:
    """An explicit isomorphism when all levels are cyclic (or zero), else None.

    Levels must match; the search runs over unit multipliers per level in a
    fixed order, so the result is deterministic.
    """
    if a.spec != b.spec or a.levels != b.levels:
        return None
    unit_lists: List[List[int]] = []
    for g in a.levels:
        if g.n == 0:
            unit_lists.append([1])
        elif g.n == 1:
            m = g.moduli[0]
            if m == 0:
                unit_lists.append([1, -1])
            else:
                unit_lists.append([u for u in range(1, m) if gcd(u, m) == 1])
        else:
            return None
    total = 1
    for lst in unit_lists:
        total *= len(lst)
        if total > 200000:
            raise ValueError("isomorphism search space too large")
    for choice in itertools.product(*unit_lists):
        comps = []
        for g, u in zip(a.levels, choice):
            if g.n == 0:
                comps.append(GroupHom.zero(g, g))
            else:
                comps.append(GroupHom(g, g, IntMatrix.from_rows([[u]])))
        try:
            cand = MackeyMap(a, b, comps)
        except MackeyError:
            continue
        if cand.is_isomorphism():
            return cand
    return None


# the p-th power norm on constant coefficients


class TambaraReport:
    __slots__ = ("ok", "pairs_checked", "failures")

    def __init__(self, ok: bool, pairs_checked: int, failures: List):
        self.ok = ok
        self.pairs_checked = pairs_checked
        self.failures = failures

    def __repr__(self):
        return f"TambaraReport(ok={self.ok}, pairs={self.pairs_checked})"


def tambara_power_check(ring, p: int, pair_limit: int = 8192, seed: int = 0) -> TambaraReport:
    """For constant coefficients over C_p: the p-th power map is a norm.

    Checks multiplicativity, unitality, and that the additivity defect
    N(a+b) - N(a) - N(b) lies in the transfer image p*k.
    """
    if not getattr(ring, "is_finite", False):
        raise ValueError("norm check needs finite coefficients")

    def npow(x):
        out = ring.one()
        for _ in range(p):
            out = ring.mul(out, x)
        return out

    elems = list(ring.elements())
    transfer_image = {ring.mul(ring.from_int(p), t) for t in elems}
    failures = []
    if npow(ring.one()) != ring.one():
        failures.append(("unit", ring.one()))
    if npow(ring.zero()) != ring.zero():
        failures.append(("zero", ring.zero()))
    pairs = [(a, b) for a in elems for b in elems]
    if len(pairs) > pair_limit:
        rng = random.Random(seed)
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(pair_limit)]
    for a, b in pairs:
        if npow(ring.mul(a, b)) != ring.mul(npow(a), npow(b)):
            failures.append(("multiplicative", (a, b)))
        defect = ring.sub(ring.sub(npow(ring.add(a, b)), npow(a)), npow(b))
        if defect not in transfer_image:
            failures.append(("additivity defect outside transfer image", (a, b)))
    return TambaraReport(not failures, len(pairs), failures)
