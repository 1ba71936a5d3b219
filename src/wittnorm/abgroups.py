"""Finitely generated abelian groups in canonical invariant-factor form.

An ``FgAbGroup`` is determined by its tuple of moduli: a divisibility chain
of integers >= 2 followed by zeros (each zero is a free Z summand).  Every
group handed out by this module is canonical, so two groups are isomorphic
exactly when they compare equal.  Elements are integer tuples, one
coordinate per modulus, reduced coordinatewise.

``Presentation`` wraps an ambient Z^n with a relation lattice and the
canonical quotient group, remembering how to project ambient vectors into
canonical coordinates and lift them back.  Nearly every construction in the
library builds an integer matrix on ambient coordinates and then descends
it to a ``GroupHom`` via ``induced_hom``.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .intlinalg import (
    IntMatrix,
    kernel_basis,
    matrix_mod,
    smith_normal_form,
    solve_int,
    solve_int_matrix,
)


class FgAbGroup:
    """Canonical finitely generated abelian group ``Z/m1 + ... + Z^k``."""

    __slots__ = ("moduli",)

    def __init__(self, moduli: Sequence[int]):
        mods = tuple(int(m) for m in moduli)
        seen_zero = False
        prev = None
        for m in mods:
            if m == 0:
                seen_zero = True
                continue
            if m < 2 or seen_zero:
                raise ValueError(f"moduli not canonical: {mods}")
            if prev is not None and m % prev:
                raise ValueError(f"moduli not a divisibility chain: {mods}")
            prev = m
        self.moduli = mods

    @staticmethod
    def from_moduli(moduli: Sequence[int]) -> "FgAbGroup":
        """Canonicalize an arbitrary list of cyclic orders (0 means Z, 1 drops)."""
        pres = present_quotient(len(moduli), IntMatrix.diagonal(list(moduli)))
        return pres.group

    # structure

    @property
    def n(self) -> int:
        return len(self.moduli)

    @property
    def rank(self) -> int:
        return sum(1 for m in self.moduli if m == 0)

    @property
    def torsion(self) -> Tuple[int, ...]:
        return tuple(m for m in self.moduli if m)

    def order(self) -> Optional[int]:
        """Number of elements, or None when infinite."""
        if self.rank:
            return None
        out = 1
        for m in self.moduli:
            out *= m
        return out

    def exponent(self) -> Optional[int]:
        if self.rank:
            return None
        return self.moduli[-1] if self.moduli else 1

    def is_trivial(self) -> bool:
        return not self.moduli

    # elements

    def normalize(self, vec: Sequence[int]) -> Tuple[int, ...]:
        if len(vec) != self.n:
            raise ValueError("element length mismatch")
        return tuple(v % m if m else int(v) for v, m in zip(vec, self.moduli))

    def zero(self) -> Tuple[int, ...]:
        return (0,) * self.n

    def add(self, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        return self.normalize([x + y for x, y in zip(a, b)])

    def neg(self, a: Sequence[int]) -> Tuple[int, ...]:
        return self.normalize([-x for x in a])

    def scale(self, c: int, a: Sequence[int]) -> Tuple[int, ...]:
        return self.normalize([c * x for x in a])

    def elements(self) -> Iterator[Tuple[int, ...]]:
        if self.rank:
            raise ValueError("cannot enumerate an infinite group")
        return itertools.product(*(range(m) for m in self.moduli))

    def element_order(self, a: Sequence[int]) -> int:
        a = self.normalize(a)
        out = 1
        for v, m in zip(a, self.moduli):
            if m == 0:
                if v:
                    raise ValueError("element of infinite order")
                continue
            if v:
                out = lcm(out, m // gcd(v, m))
        return out

    def order_histogram(self) -> Dict[int, int]:
        """Map from element order to its multiplicity (finite groups only)."""
        hist: Dict[int, int] = {}
        for a in self.elements():
            o = self.element_order(a)
            hist[o] = hist.get(o, 0) + 1
        return hist

    def random_element(self, rng, bound: int = 20) -> Tuple[int, ...]:
        return self.normalize(
            [rng.randrange(m) if m else rng.randint(-bound, bound) for m in self.moduli]
        )

    def relation_matrix(self) -> IntMatrix:
        """Columns generate the relation lattice diag(torsion moduli) in Z^n."""
        cols = [j for j, m in enumerate(self.moduli) if m]
        data = {(j, t): self.moduli[j] for t, j in enumerate(cols)}
        return IntMatrix(self.n, len(cols), data)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FgAbGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"FgAbGroup({self.moduli})"

    def __str__(self) -> str:
        if not self.moduli:
            return "0"
        parts = [f"Z/{m}" if m else "Z" for m in self.moduli]
        return " + ".join(parts)


class Presentation:
    """Z^n modulo a relation lattice, with its canonical quotient group."""

    __slots__ = ("ambient_dim", "relations", "group", "proj", "lift")

    def __init__(
        self,
        ambient_dim: int,
        relations: IntMatrix,
        group: FgAbGroup,
        proj: IntMatrix,
        lift: IntMatrix,
    ):
        self.ambient_dim = ambient_dim
        self.relations = relations
        self.group = group
        self.proj = proj  # group.n x ambient_dim
        self.lift = lift  # ambient_dim x group.n

    def project_vec(self, vec: Sequence[int]) -> Tuple[int, ...]:
        return self.group.normalize(self.proj.apply(list(vec)))

    def lift_elt(self, elt: Sequence[int]) -> List[int]:
        return self.lift.apply(list(elt))

    def __repr__(self) -> str:
        return f"Presentation(Z^{self.ambient_dim} -> {self.group})"


def present_quotient(ambient_dim: int, lattice: IntMatrix) -> Presentation:
    """Canonical presentation of Z^ambient_dim / column-span(lattice)."""
    if lattice.rows != ambient_dim:
        raise ValueError("lattice ambient dimension mismatch")
    u, d, _, u_inv = smith_normal_form(lattice)
    limit = min(ambient_dim, lattice.cols)
    moduli_full = [d.entry(i, i) if i < limit else 0 for i in range(ambient_dim)]
    kept = [i for i, m in enumerate(moduli_full) if m != 1]
    group = FgAbGroup([moduli_full[i] for i in kept])
    proj = matrix_mod(u.take_rows(kept), group.moduli)
    lift = u_inv.take_columns(kept)
    return Presentation(ambient_dim, lattice, group, proj, lift)


def present_free(n: int) -> Presentation:
    return present_quotient(n, IntMatrix.zero(n, 0))


def canonical_presentation(group: FgAbGroup) -> Presentation:
    """A group viewed as ambient Z^n modulo its own relation lattice."""
    n = group.n
    ident = IntMatrix.identity(n)
    return Presentation(n, group.relation_matrix(), group, matrix_mod(ident, group.moduli), ident)


class GroupHom:
    """Homomorphism between canonical groups, stored as an integer matrix.

    Column j is the image of the j-th generator of src; rows are reduced
    modulo the dst moduli.  Construction verifies the map respects the
    orders of the source generators.
    """

    __slots__ = ("src", "dst", "matrix")

    def __init__(self, src: FgAbGroup, dst: FgAbGroup, matrix: IntMatrix):
        if matrix.rows != dst.n or matrix.cols != src.n:
            raise ValueError("hom matrix shape mismatch")
        m = matrix_mod(matrix, dst.moduli)
        s, t = src.moduli, dst.moduli
        bad = [j for (i, j), v in m.data.items() if s[j] and (not t[i] or s[j] * v % t[i])]
        if bad:
            j = min(bad)
            raise ValueError(f"map does not kill {s[j]} * generator {j}")
        self.src = src
        self.dst = dst
        self.matrix = m

    @staticmethod
    def identity(group: FgAbGroup) -> "GroupHom":
        return GroupHom(group, group, IntMatrix.identity(group.n))

    @staticmethod
    def zero(src: FgAbGroup, dst: FgAbGroup) -> "GroupHom":
        return GroupHom(src, dst, IntMatrix.zero(dst.n, src.n))

    @staticmethod
    def scalar(group: FgAbGroup, c: int) -> "GroupHom":
        return GroupHom(group, group, IntMatrix.identity(group.n).scale(c))

    def apply(self, elt: Sequence[int]) -> Tuple[int, ...]:
        return self.dst.normalize(self.matrix.apply(list(elt)))

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.dst != self.src:
            raise ValueError("composition mismatch")
        return GroupHom(other.src, self.dst, self.matrix * other.matrix)

    def __add__(self, other: "GroupHom") -> "GroupHom":
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("hom sum mismatch")
        return GroupHom(self.src, self.dst, self.matrix + other.matrix)

    def __sub__(self, other: "GroupHom") -> "GroupHom":
        return self + other.scale(-1)

    def scale(self, c: int) -> "GroupHom":
        return GroupHom(self.src, self.dst, self.matrix.scale(c))

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupHom)
            and self.src == other.src
            and self.dst == other.dst
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.src, self.dst, self.matrix))

    def __repr__(self) -> str:
        return f"GroupHom({self.src} -> {self.dst})"

    # lattices attached to the map, in canonical coordinates

    def kernel_lattice(self) -> IntMatrix:
        """Columns generate {x : self(x) = 0} inside Z^src.n (relations included)."""
        t = self.dst.relation_matrix()
        stacked = self.matrix.hstack(t)
        k = kernel_basis(stacked)
        lat = k.take_rows(list(range(self.src.n)))
        return lat.hstack(self.src.relation_matrix())

    def image_lattice(self) -> IntMatrix:
        return self.matrix


def subgroup_contains(group: FgAbGroup, gens: IntMatrix, elt: Sequence[int]) -> bool:
    """Does elt lie in the subgroup of group generated by the columns of gens?"""
    sat = gens.hstack(group.relation_matrix())
    return solve_int(sat, list(group.normalize(elt))) is not None


def subgroups_equal(group: FgAbGroup, a: IntMatrix, b: IntMatrix) -> bool:
    """Do two generating matrices span the same subgroup of group?"""
    sat_a = a.hstack(group.relation_matrix())
    sat_b = b.hstack(group.relation_matrix())
    return (
        solve_int_matrix(sat_a, matrix_mod(b, group.moduli)) is not None
        and solve_int_matrix(sat_b, matrix_mod(a, group.moduli)) is not None
    )


def subgroup_group(group: FgAbGroup, gens: IntMatrix) -> FgAbGroup:
    """Isomorphism class of the subgroup generated by the columns of gens."""
    rel = kernel_basis(gens.hstack(group.relation_matrix())).take_rows(
        list(range(gens.cols))
    )
    return present_quotient(gens.cols, rel).group


class CokernelData:
    """Cokernel of a hom with the projection and an integer lift of it."""

    __slots__ = ("group", "proj", "pres")

    def __init__(self, group: FgAbGroup, proj: GroupHom, pres: Presentation):
        self.group = group
        self.proj = proj
        self.pres = pres

    def lift(self, elt: Sequence[int]) -> List[int]:
        """A preimage in the target of the original hom (as canonical coords)."""
        return self.pres.lift_elt(elt)


def hom_cokernel(h: GroupHom) -> CokernelData:
    lattice = h.matrix.hstack(h.dst.relation_matrix())
    pres = present_quotient(h.dst.n, lattice)
    proj = GroupHom(h.dst, pres.group, pres.proj)
    return CokernelData(pres.group, proj, pres)


class KernelData:
    """Kernel of a hom with its inclusion into the source."""

    __slots__ = ("group", "incl")

    def __init__(self, group: FgAbGroup, incl: GroupHom):
        self.group = group
        self.incl = incl


def hom_kernel(h: GroupHom) -> KernelData:
    lat = h.kernel_lattice()
    rel = kernel_basis(lat.hstack(h.src.relation_matrix())).take_rows(
        list(range(lat.cols))
    )
    pres = present_quotient(lat.cols, rel)
    incl = GroupHom(pres.group, h.src, lat * pres.lift)
    return KernelData(pres.group, incl)


def hom_image_group(h: GroupHom) -> FgAbGroup:
    return subgroup_group(h.dst, h.matrix)


def is_injective(h: GroupHom) -> bool:
    return hom_kernel(h).group.is_trivial()


def is_surjective(h: GroupHom) -> bool:
    return hom_cokernel(h).group.is_trivial()


def is_isomorphism(h: GroupHom) -> bool:
    return is_injective(h) and is_surjective(h)


def induced_hom(
    src: Presentation, dst: Presentation, ambient: IntMatrix, check: bool = True
) -> GroupHom:
    """Descend a matrix on ambient coordinates to a hom of the quotients.

    Requires ambient * (src relations) to land in the dst relation lattice;
    raises ValueError otherwise.
    """
    if ambient.rows != dst.ambient_dim or ambient.cols != src.ambient_dim:
        raise ValueError("ambient matrix shape mismatch")
    if check:
        moved = dst.proj * (ambient * src.relations)
        if not matrix_mod(moved, dst.group.moduli).is_zero():
            raise ValueError("matrix does not descend to the quotients")
    return GroupHom(src.group, dst.group, dst.proj * (ambient * src.lift))


def direct_sum_presentation(groups: Sequence[FgAbGroup]) -> Tuple[Presentation, List[Tuple[int, int]]]:
    """Presentation of the direct sum on stacked canonical coordinates.

    Returns the presentation together with the (start, end) ambient
    coordinate range of each summand.
    """
    ranges: List[Tuple[int, int]] = []
    off = 0
    rel_blocks: List[IntMatrix] = []
    for g in groups:
        ranges.append((off, off + g.n))
        rel_blocks.append(g.relation_matrix())
        off += g.n
    total = off
    data = {}
    coff = 0
    roff = 0
    for blk in rel_blocks:
        for (i, j), v in blk.data.items():
            data[(roff + i, coff + j)] = v
        roff += blk.rows
        coff += blk.cols
    lattice = IntMatrix(total, coff, data)
    return present_quotient(total, lattice), ranges


def direct_sum_group(groups: Sequence[FgAbGroup]) -> FgAbGroup:
    pres, _ = direct_sum_presentation(groups)
    return pres.group
