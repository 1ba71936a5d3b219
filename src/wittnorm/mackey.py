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

Constructors: constant functors, fixed points of a permutation module in
orbit-sum bases, permutation functors, the Witt functor (levels
Z/p^(k+1)), induction and restriction along subgroups, the box pairing
with a permutation orbit (computed as induction after restriction),
levelwise kernels and cokernels, base change to the Witt functor,
inflation, and an explicit four-map resolution of the Witt functor by
permutation functors.  The resolution and its augmentation are built
from orbit sums, with no presentation.  `fixed_point_witt_mackey` reads
the base change of a permutation functor off its orbits, with no Smith
form; `base_change_to_witt` stays the general construction and its
reference.  It and the Q construction take a level modulo the transfer
image of the bottom level, which is the image of the free-orbit counit.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import List, Optional, Sequence, Tuple

from . import MackeyError, require_prime
from .abgroups import (
    FgAbGroup,
    GroupHom,
    Presentation,
    _block_matrix,
    _ranges,
    direct_sum_presentation,
    hom_cokernel,
    hom_kernel,
    induced_hom,
    is_injective,
    is_isomorphism,
    is_surjective,
    subgroups_equal,
)
from .intlinalg import IntMatrix, _SolveContext, matrix_mod


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
    if m == 0:
        return GroupHom.identity(h.src)
    out = None
    base = h
    while m:
        if m & 1:
            out = base if out is None else base.compose(out)
        m >>= 1
        if m:
            base = base.compose(base)
    return out


def translate_sum(step: GroupHom, p: int) -> GroupHom:
    """1 + step + ... + step^(p-1): the sum of the p translates by step."""
    acc = GroupHom.identity(step.src) + step
    cur = step
    for _ in range(p - 2):
        cur = step.compose(cur)
        acc = acc + cur
    return acc


def _solve_via(h: GroupHom, cols: IntMatrix) -> Optional[IntMatrix]:
    """Preimages under h of the columns, or None when one has none.

    One factorization of [h | dst relations] answers every column.
    """
    if cols.rows != h.dst.n:
        raise ValueError("element length mismatch")
    ctx = _SolveContext(h.matrix.hstack(h.dst.relation_matrix()))
    sol = ctx.solve_matrix(matrix_mod(cols, h.dst.moduli))
    if sol is None:
        return None
    return matrix_mod(sol.take_rows(range(h.src.n)), h.src.moduli)


def express_via(h: GroupHom, elt: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Some x in the source with h(x) = elt, or None."""
    sol = _solve_via(h, IntMatrix.from_columns([elt], rows=h.dst.n))
    return None if sol is None else tuple(row[0] for row in sol.to_rows())


def express_matrix_via(h: GroupHom, cols: IntMatrix) -> IntMatrix:
    """Preimages under h of the columns (must exist)."""
    out = _solve_via(h, cols)
    if out is None:
        raise MackeyError("element has no preimage where one is required")
    return out


class GModule:
    """A f.g. abelian group with an action of a fixed generator of C_{p^n}.

    The constructor checks action^(p^n) = id, which also makes the action
    invertible, with inverse action^(p^n - 1).  validate=False skips that
    check for an action whose order is known to divide p^n already.
    """

    __slots__ = ("spec", "carrier", "action")

    def __init__(self, spec: CyclicGroupSpec, carrier: FgAbGroup, action: GroupHom,
                 validate: bool = True):
        if action.src != carrier or action.dst != carrier:
            raise ValueError("action must be an endomorphism of the carrier")
        if validate and not hom_power(action, spec.order()).is_identity():
            raise MackeyError("generator action order does not divide the group order")
        self.spec = spec
        self.carrier = carrier
        self.action = action

    def __repr__(self):
        return f"GModule({self.spec}, {self.carrier})"


def cyclic_shift_matrix(m: int) -> IntMatrix:
    """Basis permutation e_a -> e_{a+1 mod m}."""
    return IntMatrix(m, m, {((j + 1) % m, j): 1 for j in range(m)})


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
    """Direct sum of modules on free carriers: the block-diagonal action on
    the stacked bases, whose order divides p^n as each block's does."""
    spec = mods[0].spec
    for m in mods:
        if m.spec != spec:
            raise ValueError("direct sum needs a common group")
        if m.carrier.rank != m.carrier.n:
            raise ValueError(f"direct sum needs free carriers, got {m.carrier}")
    ranges = _ranges([m.carrier.n for m in mods])
    amb = _block_matrix(ranges, ranges, {(t, t): m.action.matrix for t, m in enumerate(mods)})
    carrier = FgAbGroup([0] * amb.rows)
    return GModule(spec, carrier, GroupHom(carrier, carrier, amb), validate=False)


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
    ):
        self.spec = spec
        self.levels = list(levels)
        self.res = list(res)
        self.tr = list(tr)
        self.weyl = list(weyl)
        validate_mackey(self)

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def n(self) -> int:
        return self.spec.n

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
    # step[k] is a generator of C_{p^(k+1)}/C_{p^k} acting on level k: its p-th
    # power is the order check, and its translates give the double-coset sum
    step: List[GroupHom] = []
    for k in range(n + 1):
        w = m.weyl[k]
        if w.src != m.levels[k] or w.dst != m.levels[k]:
            raise MackeyError(f"generator action {k} is not an endomorphism")
        if k < n:
            step.append(hom_power(w, p ** (n - k - 1)))
            if not hom_power(step[k], p).is_identity():
                raise MackeyError(f"generator action order at level {k} does not divide p^{n - k}")
    if not m.weyl[n].is_identity():
        raise MackeyError("generator action must be trivial on the top level")
    for k in range(n):
        if m.weyl[k].compose(m.res[k]) != m.res[k].compose(m.weyl[k + 1]):
            raise MackeyError(f"restriction {k} is not equivariant")
        if m.weyl[k + 1].compose(m.tr[k]) != m.tr[k].compose(m.weyl[k]):
            raise MackeyError(f"transfer {k} is not equivariant")
        if not m.tr[k].compose(m.res[k]).is_scalar(p):
            raise MackeyError(f"transfer after restriction at level {k} is not multiplication by p")
        if m.res[k].compose(m.tr[k]) != translate_sum(step[k], p):
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

    def scale(self, c: int) -> "MackeyMap":
        return MackeyMap(self.source, self.target, [h.scale(c) for h in self.components],
                         validate=False)

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


def _restrict(amb: Optional[IntMatrix], src: GroupHom, dst: GroupHom) -> GroupHom:
    """The ambient map amb (None for the identity) between the subgroups
    that src and dst include."""
    cols = src.matrix if amb is None else amb * src.matrix
    return GroupHom(src.src, dst.src, express_matrix_via(dst, cols))


def _functor_on_subgroups(
    spec: CyclicGroupSpec,
    incls: Sequence[GroupHom],
    res: Sequence[Optional[IntMatrix]],
    tr: Sequence[Optional[IntMatrix]],
    weyl: Sequence[Optional[IntMatrix]],
) -> CyclicMackeyFunctor:
    """Level k is the subgroup incls[k] includes; each ambient structure map
    (None for the identity) restricts to the levels."""
    n = spec.n
    return CyclicMackeyFunctor(
        spec,
        [i.src for i in incls],
        [_restrict(res[k], incls[k + 1], incls[k]) for k in range(n)],
        [_restrict(tr[k], incls[k], incls[k + 1]) for k in range(n)],
        [_restrict(weyl[k], incls[k], incls[k]) for k in range(n + 1)],
    )


def _functor_on_quotients(
    spec: CyclicGroupSpec,
    pres: Sequence[Presentation],
    res: Sequence[IntMatrix],
    tr: Sequence[IntMatrix],
    weyl: Sequence[IntMatrix],
) -> CyclicMackeyFunctor:
    """Level k is the quotient pres[k]; each ambient structure map descends."""
    n = spec.n
    try:
        res_h = [induced_hom(pres[k + 1], pres[k], res[k]) for k in range(n)]
        tr_h = [induced_hom(pres[k], pres[k + 1], tr[k]) for k in range(n)]
        weyl_h = [induced_hom(pres[k], pres[k], weyl[k]) for k in range(n + 1)]
    except ValueError as exc:
        raise MackeyError(f"structure maps do not descend: {exc}") from exc
    return CyclicMackeyFunctor(spec, [pr.group for pr in pres], res_h, tr_h, weyl_h)


def _basis_permutation(mod: GModule) -> List[int]:
    """sigma with the generator sending basis vector j to basis vector
    sigma[j]; a ValueError unless the carrier is free and the generator
    permutes its basis."""
    rows, size = mod.action.matrix.by_row, mod.carrier.n
    sigma = {j: i for i, row in rows.items() for j, v in row.items() if len(row) == 1 and v == 1}
    if mod.carrier.torsion or len(rows) != size or len(sigma) != size:
        raise ValueError("fixed points need a generator that permutes the basis of a free carrier")
    return [sigma[j] for j in range(size)]


def _orbit_walk(mod: GModule) -> Tuple[List[int], List[List[int]], List[List[int]], List[List[int]]]:
    """The orbits of every level of a permutation module.

    Returns sigma (see `_basis_permutation`) and, for each level k,
    label[k][x] numbering the C_{p^k}-orbit of x in the order of least
    points, least[k] listing those points and size[k] the orbit sizes.
    """
    p, n = mod.spec.p, mod.spec.n
    sigma = _basis_permutation(mod)
    # from the top level down: C_{p^k} is generated by tau = g^(p^(n-k)),
    # the p-th power of the generator one level up
    label: List[List[int]] = []
    least: List[List[int]] = []
    size: List[List[int]] = []
    tau = sigma
    for _ in range(n + 1):
        lab = [-1] * len(sigma)
        firsts: List[int] = []
        for x in range(len(sigma)):
            if lab[x] < 0:
                y = x
                while lab[y] < 0:
                    lab[y] = len(firsts)
                    y = tau[y]
                firsts.append(x)
        counts = [0] * len(firsts)
        for i in lab:
            counts[i] += 1
        label.insert(0, lab)
        least.insert(0, firsts)
        size.insert(0, counts)
        power = tau
        for _ in range(p - 1):
            power = [tau[y] for y in power]
        tau = power
    return sigma, label, least, size


def _orbit_functor(mod: GModule, walk: Tuple, levels: Sequence[FgAbGroup],
                   at: Sequence[Sequence[int]]) -> CyclicMackeyFunctor:
    """The structure maps of `fixed_point_mackey` on the given levels,
    where at[k][i] is the summand of levels[k] that carries the level-k
    orbit numbered i by the walk.  Each map is a checked `GroupHom`, so
    it must respect the orders of the summands.
    """
    p = mod.spec.p
    sigma, label, least, size = walk
    res, tr = [], []
    for k in range(mod.spec.n):
        lo, hi, up, a, b = levels[k], levels[k + 1], label[k + 1], at[k], at[k + 1]
        res.append(GroupHom(hi, lo, IntMatrix(lo.n, hi.n, {(a[i], b[up[x]]): 1 for i, x in enumerate(least[k])})))
        tr.append(GroupHom(lo, hi, IntMatrix(hi.n, lo.n, {
            (b[up[x]], a[i]): p * size[k][i] // size[k + 1][up[x]] for i, x in enumerate(least[k])})))
    weyl = [GroupHom(g, g, IntMatrix(g.n, g.n, {(at[k][label[k][sigma[x]]], at[k][i]): 1
                                                for i, x in enumerate(least[k])}))
            for k, g in enumerate(levels)]
    return CyclicMackeyFunctor(mod.spec, levels, res, tr, weyl)


def fixed_point_mackey(mod: GModule) -> CyclicMackeyFunctor:
    """Fixed points of a permutation module, in orbit-sum bases.

    The generator g must permute the basis of a free carrier; anything else
    is a ValueError.  Level k, the fixed points of C_{p^k} = <g^(p^(n-k))>,
    has the sums of the C_{p^k}-orbits as a basis (Dress; Thevenaz-Webb),
    in the order of their least points, so level 0 is the carrier itself.
    No map needs a solve: restriction sends an orbit sum to the sum of the
    smaller orbit sums inside it, transfer sends O to (p |O| / |O'|) O' for
    the orbit O' that contains it, and g permutes the orbit sums.
    `fixed_point_witt_mackey` places the same maps on the Witt base change.
    """
    walk = _orbit_walk(mod)
    least = walk[2]
    return _orbit_functor(mod, walk, [FgAbGroup([0] * len(xs)) for xs in least],
                          [range(len(xs)) for xs in least])


def fixed_point_witt_mackey(mod: GModule) -> CyclicMackeyFunctor:
    """`base_change_to_witt(fixed_point_mackey(mod))`, read off the orbits.

    In the orbit-sum basis p times the transfer from level 0 sends a point
    to (p^(j+1) / |O|) O, for the level-j orbit O that contains it, so
    level j is the sum of Z/(p^(j+1) / |O|) over its orbits: each modulus
    is a power of p and at least p, since |O| divides p^j.  The summands
    go in ascending modulus, ties in the order of least points, which makes
    the level canonical as built.  The structure maps are those of
    `fixed_point_mackey`, placed in that order; no Smith form is run.
    """
    p = mod.spec.p
    walk = _orbit_walk(mod)
    levels, at = [], []
    for k, sizes in enumerate(walk[3]):
        moduli = [p ** (k + 1) // s for s in sizes]
        order = sorted(range(len(moduli)), key=moduli.__getitem__)
        levels.append(FgAbGroup([moduli[i] for i in order]))
        at.append({i: t for t, i in enumerate(order)})
    return _orbit_functor(mod, walk, levels, at)


def permutation_mackey(p: int, n: int, orbits: Sequence[int]) -> CyclicMackeyFunctor:
    """Fixed-point functor of the permutation module on a multiset of orbits.

    Each entry h in orbits contributes the orbit C_{p^n}/C_{p^h}.
    """
    if not orbits:
        return zero_mackey(p, n)
    return fixed_point_mackey(gmodule_direct_sum([orbit_gmodule(p, n, h) for h in orbits]))


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


def mackey_induce(nfun: CyclicMackeyFunctor, n: int) -> CyclicMackeyFunctor:
    """Induce from C_{p^h} up to C_{p^n} by the block coset construction.

    Level j consists of p^(n - max(h, j)) copies of level min(h, j) of the
    input, indexed by coset representatives in increasing generator power.
    """
    p, h = nfun.p, nfun.n
    if n < h:
        raise ValueError("target group must contain the source group")
    copies = [p ** (n - max(h, j)) for j in range(n + 1)]
    blocks = [nfun.levels[min(h, j)] for j in range(n + 1)]
    pres, ranges = zip(*(direct_sum_presentation([blocks[j]] * copies[j]) for j in range(n + 1)))
    res: List[IntMatrix] = []
    tr: List[IntMatrix] = []
    weyl: List[IntMatrix] = []
    for j in range(n + 1):
        c = copies[j]
        ident = IntMatrix.identity(blocks[j].n)
        twist = nfun.weyl[min(j, h)].matrix
        blk = {((a + 1) % c, a): twist if a == c - 1 else ident for a in range(c)}
        weyl.append(_block_matrix(ranges[j], ranges[j], blk))
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
        res.append(_block_matrix(ranges[j], ranges[j + 1], rblk))
        tr.append(_block_matrix(ranges[j + 1], ranges[j], tblk))
    return _functor_on_quotients(CyclicGroupSpec(p, n), pres, res, tr, weyl)


def box_with_permutation(m: CyclicMackeyFunctor, k: int) -> CyclicMackeyFunctor:
    """Pairing with the orbit C_{p^n}/C_{p^k}: induction after restriction."""
    return mackey_induce(mackey_restrict(m, k), m.n)


def augmentation(p: int, n: int) -> MackeyMap:
    """The augmentation of the free permutation functor onto the constant
    functor: at level j each orbit sum goes to its size, p^j."""
    perm, const = permutation_mackey(p, n, [0]), constant_mackey(p, n)
    return MackeyMap(perm, const, [
        GroupHom(g, const.levels[j], IntMatrix(1, g.n, {(0, i): p ** j for i in range(g.n)}))
        for j, g in enumerate(perm.levels)])


# kernels, cokernels, derived constructions


def _quotient_functor(m: CyclicMackeyFunctor, pres: Sequence[Presentation]) -> CyclicMackeyFunctor:
    """m modulo sub-functors: level k is the quotient pres[k] of m.levels[k]."""
    return _functor_on_quotients(
        m.spec, pres, [h.matrix for h in m.res], [h.matrix for h in m.tr], [h.matrix for h in m.weyl]
    )


def mackey_cokernel(f: MackeyMap) -> CyclicMackeyFunctor:
    return _quotient_functor(f.target, [hom_cokernel(c) for c in f.components])


def mackey_kernel(f: MackeyMap) -> CyclicMackeyFunctor:
    s = f.source
    incls = [hom_kernel(c) for c in f.components]
    return _functor_on_subgroups(
        s.spec, incls, [h.matrix for h in s.res], [h.matrix for h in s.tr], [h.matrix for h in s.weyl]
    )


def mackey_direct_sum(a: CyclicMackeyFunctor, b: CyclicMackeyFunctor) -> CyclicMackeyFunctor:
    if a.spec != b.spec:
        raise MackeyError("direct sum needs a common group")
    pres, ranges = zip(*(direct_sum_presentation([ga, gb]) for ga, gb in zip(a.levels, b.levels)))

    def block(k_src: int, k_dst: int, ha: GroupHom, hb: GroupHom) -> IntMatrix:
        return _block_matrix(ranges[k_dst], ranges[k_src], {(0, 0): ha.matrix, (1, 1): hb.matrix})

    n = a.n
    return _functor_on_quotients(
        a.spec,
        pres,
        [block(k + 1, k, a.res[k], b.res[k]) for k in range(n)],
        [block(k, k + 1, a.tr[k], b.tr[k]) for k in range(n)],
        [block(k, k, a.weyl[k], b.weyl[k]) for k in range(n + 1)],
    )


def _modulo_transfer_image(m: CyclicMackeyFunctor, c: int) -> CyclicMackeyFunctor:
    """m modulo c times the transfer image of the bottom level.

    The counit from the free-orbit pairing sends the copy of level 0
    indexed by the a-th coset at level j to the transfer of its image under
    the a-th power of the generator.  Every generator action is an
    automorphism, so the image is the transfer image Tr_0^j of level 0, and
    level j of the cokernel of c times the counit is level j modulo
    c Tr_0^j.  The chain of transfers grows level by level.
    """
    chains = itertools.accumulate(m.tr, lambda ch, t: t.compose(ch), initial=GroupHom.identity(m.levels[0]))
    return _quotient_functor(m, [hom_cokernel(ch.scale(c)) for ch in chains])


def augmentation_cokernel(m: CyclicMackeyFunctor) -> CyclicMackeyFunctor:
    """Cokernel of the counit from the free-orbit pairing (Q construction)."""
    return _modulo_transfer_image(m, 1)


def base_change_to_witt(m: CyclicMackeyFunctor) -> CyclicMackeyFunctor:
    """Cokernel of p times the counit from the free-orbit pairing."""
    return _modulo_transfer_image(m, m.p)


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
            ok = is_injective(first.components[k])
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
            ok = is_surjective(last.components[k])
            entries.append((f"surjectivity of map {len(maps)}", k, ok))
    return ExactnessReport(entries)


class WittResolution:
    """The four-map resolution of the Witt functor over C_{p^(r-1)}.

    0 -> constant Z -> perm -> perm -> constant Z -> Witt -> 0, where perm
    is the permutation functor of the free orbit in orbit-sum bases (the
    pairing of the constant functor with the free orbit), the first map
    sends 1 to the sum of all orbit sums, the second is generator minus
    identity, the third is p times the augmentation, the last the
    canonical surjection.
    """

    __slots__ = ("p", "r", "maps", "objects")

    def __init__(self, p: int, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.p = p
        self.r = r
        n = r - 1
        aug = augmentation(p, n)
        perm, const = aug.source, aug.target
        witt = witt_mackey(p, n)
        section = MackeyMap(const, perm, [
            GroupHom(const.levels[j], g, IntMatrix(g.n, 1, {(i, 0): 1 for i in range(g.n)}))
            for j, g in enumerate(perm.levels)])
        shift = MackeyMap(
            perm, perm, [perm.weyl[j] - GroupHom.identity(perm.levels[j]) for j in range(n + 1)]
        )
        surj = MackeyMap(
            const,
            witt,
            [GroupHom(const.levels[j], witt.levels[j], IntMatrix.from_rows([[1]])) for j in range(n + 1)],
        )
        self.maps = [section, shift, aug.scale(p), surj]
        self.objects = [const, perm, perm, const, witt]

    def check(self) -> ExactnessReport:
        return check_exact(self.maps, left_exact=True, right_exact=True)


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
