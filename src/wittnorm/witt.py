"""Truncated p-typical Witt vectors over small commutative base rings.

A length-r Witt vector is a tuple of base-ring components.  Ring
operations are characterized by the ghost map

    w_n = sum_{i <= n} p^i * x_i^(p^(n-i)),

which must transform additively / multiplicatively.  The universal sum
and product polynomials (with integer coefficients) realize this over
every base ring; ``WittPolyTable`` builds and verifies them symbolically.

Arithmetic itself runs by lifting components into the base ring's
p-torsion-free cover, doing ghost arithmetic there and inverting the
ghost map with exact divisions by powers of p.  By universality this
computes exactly the values of the universal polynomials; the test suite
cross-checks the two paths wherever the tables are cheap to build.  Two
maps skip the cover where a ring identity gives them componentwise: the
Frobenius over a base of characteristic p, F(x_0, x_1, ...) = (x_0^p,
x_1^p, ...), and negation at odd p, where -1 = [-1] and (-1)^(p^k) = -1.
In characteristic p the p-th powers themselves are the base ring's
Frobenius, a substitution x^i -> x^(ip), not a chain of products.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Sequence

from . import require_prime
from .multipoly import MPoly
from .rings import pow_by_squaring


# universal polynomial tables


def _ghost_mpoly(p: int, nvars: int, offset: int, n: int) -> MPoly:
    """sum_{i <= n} p^i x_{offset+i}^(p^(n-i)) as a polynomial."""
    acc = MPoly.zero(nvars)
    for i in range(n + 1):
        acc = acc + MPoly.var(nvars, offset + i).pow(p ** (n - i)).scale(p ** i)
    return acc


def _invert_ghost_polys(p: int, targets: List[MPoly]) -> List[MPoly]:
    """Solve sum_{i<=n} p^i Z_i^(p^(n-i)) = targets[n] for polynomials Z_n."""
    out: List[MPoly] = []
    for n, t in enumerate(targets):
        acc = MPoly.zero(t.nvars)
        for i in range(n):
            acc = acc + out[i].pow(p ** (n - i)).scale(p ** i)
        out.append((t - acc).exact_div_int(p ** n))
    return out


class WittPolyTable:
    """Universal sum/product/negation/Frobenius polynomials for W_r at p.

    Sum and product polynomials live in Z[x_0..x_{r-1}, y_0..y_{r-1}],
    negation in Z[x_0..x_{r-1}], Frobenius (length r to r-1) in
    Z[x_0..x_{r-1}].  The defining ghost identities are verified
    symbolically at construction time.
    """

    def __init__(self, p: int, r: int):
        self.p = p
        self.r = r
        two = 2 * r
        gx = [_ghost_mpoly(p, two, 0, n) for n in range(r)]
        gy = [_ghost_mpoly(p, two, r, n) for n in range(r)]
        self.sum_polys = _invert_ghost_polys(p, [a + b for a, b in zip(gx, gy)])
        self.prod_polys = _invert_ghost_polys(p, [a * b for a, b in zip(gx, gy)])
        g1 = [_ghost_mpoly(p, r, 0, n) for n in range(r)]
        self.neg_polys = _invert_ghost_polys(p, [-g for g in g1])
        self.frob_polys = _invert_ghost_polys(p, g1[1:])
        self._verify()

    def _verify(self) -> None:
        p, r = self.p, self.r
        two = 2 * r
        gx = [_ghost_mpoly(p, two, 0, n) for n in range(r)]
        gy = [_ghost_mpoly(p, two, r, n) for n in range(r)]
        g1 = [_ghost_mpoly(p, r, 0, n) for n in range(r)]

        def ghost_of(seq: List[MPoly], n: int) -> MPoly:
            acc = MPoly.zero(seq[0].nvars)
            for i in range(n + 1):
                acc = acc + seq[i].pow(p ** (n - i)).scale(p ** i)
            return acc

        for n in range(r):
            if ghost_of(self.sum_polys, n) != gx[n] + gy[n]:
                raise AssertionError("sum polynomial ghost identity failed")
            if ghost_of(self.prod_polys, n) != gx[n] * gy[n]:
                raise AssertionError("product polynomial ghost identity failed")
            if ghost_of(self.neg_polys, n) != -g1[n]:
                raise AssertionError("negation polynomial ghost identity failed")
        for n in range(r - 1):
            if ghost_of(self.frob_polys, n) != g1[n + 1]:
                raise AssertionError("Frobenius polynomial ghost identity failed")

    # evaluation over an arbitrary base ring

    def eval_sum(self, base, xs: Sequence, ys: Sequence) -> List:
        vals = list(xs) + list(ys)
        return [q.eval(base, vals) for q in self.sum_polys]

    def eval_prod(self, base, xs: Sequence, ys: Sequence) -> List:
        vals = list(xs) + list(ys)
        return [q.eval(base, vals) for q in self.prod_polys]

    def eval_neg(self, base, xs: Sequence) -> List:
        return [q.eval(base, list(xs)) for q in self.neg_polys]

    def eval_frob(self, base, xs: Sequence) -> List:
        return [q.eval(base, list(xs)) for q in self.frob_polys]


_TABLE_CACHE: dict = {}


def get_table(p: int, r: int) -> WittPolyTable:
    """Memoized universal polynomial table."""
    key = (p, r)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = WittPolyTable(p, r)
    return _TABLE_CACHE[key]


def table_is_cheap(p: int, r: int) -> bool:
    """Combinations whose symbolic tables build in well under a second."""
    return (p <= 3 and r <= 5) or (p == 5 and r <= 3)


# Witt vectors


class WittVector:
    __slots__ = ("ring", "components")

    def __init__(self, ring: "WittRing", components: Sequence):
        if len(components) != ring.r:
            raise ValueError("component count must equal the truncation length")
        self.ring = ring
        self.components = tuple(components)

    def __add__(self, other: "WittVector") -> "WittVector":
        return self.ring.add(self, other)

    def __mul__(self, other: "WittVector") -> "WittVector":
        return self.ring.mul(self, other)

    def __neg__(self) -> "WittVector":
        return self.ring.neg(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WittVector)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.ring, self.components))

    def __repr__(self) -> str:
        return f"WittVector(p={self.ring.p}, {list(self.components)})"

    def ghost(self) -> List:
        return self.ring.ghost(self)


def _pth_power(ring, p: int) -> Callable:
    """x -> x^p in a base ring or a cover: the ring's own Frobenius where it
    has characteristic p, square-and-multiply from x everywhere else."""
    if ring.char == p:
        return ring.frobenius
    return lambda x: pow_by_squaring(ring.mul, x, p)


class _PowerChains:
    """Lazily extended chains v, v^p, v^(p^2), ... per tracked value, in a
    base ring or a cover."""

    def __init__(self, ring, p: int):
        self.ring = ring
        self.pth_power = _pth_power(ring, p)
        self.chains: List[List] = []

    def track(self, v) -> int:
        self.chains.append([v])
        return len(self.chains) - 1

    def power(self, idx: int, k: int):
        chain = self.chains[idx]
        while len(chain) <= k:
            chain.append(self.pth_power(chain[-1]))
        return chain[k]

    def ghost_sum(self, n: int, terms: int):
        """sum_{i < terms} p^i v_i^(p^(n-i)) for terms >= 1, started from the unscaled i = 0 term."""
        ring = self.ring
        acc = self.power(0, n)
        for i in range(1, terms):
            acc = ring.add(acc, ring.scale_pow_p(self.power(i, n - i), i))
        return acc


class WittRing:
    """W_r(base) for a prime p, with F, V, R, Teichmuller and ghost."""

    def __init__(self, p: int, r: int, base):
        if r < 1:
            raise ValueError("truncation length must be >= 1")
        require_prime(p)
        self.p = p
        self.r = r
        self.base = base

    def __eq__(self, other):
        return (
            isinstance(other, WittRing)
            and (self.p, self.r, self.base) == (other.p, other.r, other.base)
        )

    def __hash__(self):
        return hash((self.p, self.r, self.base))

    def __repr__(self):
        return f"WittRing(p={self.p}, r={self.r}, base={self.base.label()})"

    # construction

    def vector(self, components: Sequence) -> WittVector:
        return WittVector(self, components)

    def zero(self) -> WittVector:
        z = self.base.zero()
        return WittVector(self, (z,) * self.r)

    def one(self) -> WittVector:
        return self.teichmuller(self.base.one())

    def teichmuller(self, x) -> WittVector:
        z = self.base.zero()
        return WittVector(self, (x,) + (z,) * (self.r - 1))

    def random_element(self, rng) -> WittVector:
        return WittVector(self, tuple(self.base.random_element(rng) for _ in range(self.r)))

    def elements(self):
        pool = list(self.base.elements())
        for comps in itertools.product(pool, repeat=self.r):
            yield WittVector(self, comps)

    # ghost machinery

    def ghost(self, w: WittVector) -> List:
        """Ghost components computed inside the base ring itself.

        The i = 0 term has scalar 1 and is taken as it is.  Terms whose
        scalar p^i is zero in the base are skipped, and so are the powers
        only they need: in characteristic p, w_n = x_0^(p^n).
        """
        base = self.base
        scalars = []  # p^1, p^2, ... while nonzero in the base
        for i in range(1, self.r):
            s = base.from_int(self.p ** i)
            if s == base.zero():
                break  # p^j is zero for every j >= i as well
            scalars.append(s)
        chains = _PowerChains(base, self.p)
        for c in w.components:
            chains.track(c)
        out = []
        for n in range(self.r):
            acc = chains.power(0, n)
            for i, s in enumerate(scalars[:n], start=1):
                acc = base.add(acc, base.mul(s, chains.power(i, n - i)))
            out.append(acc)
        return out

    def _via_ghost(self, target: "WittRing", combine: Callable, *vectors: WittVector) -> WittVector:
        """Lift the vectors to the cover, combine their ghost components one
        index at a time and invert the ghost map onto target.  A shorter
        target drops the leading ghost components: F is the ghost shift."""
        if any(w.ring != vectors[0].ring for w in vectors):
            raise ValueError("operands live in different Witt rings")
        base = self.base
        cover = base.witt_cover(self.p, self.r)
        ghosts = []
        for w in vectors:
            chains = _PowerChains(cover, self.p)
            for c in w.components:
                chains.track(base.lift(c, cover))
            ghosts.append([chains.ghost_sum(n, n + 1) for n in range(self.r)])
        targets = [combine(cover, *g) for g in zip(*ghosts)][self.r - target.r:]
        chains = _PowerChains(cover, self.p)
        comps = []
        for n, t in enumerate(targets):
            z = cover.div_pow_p(cover.sub(t, chains.ghost_sum(n, n)), n) if n else t
            comps.append(z)
            chains.track(z)
        return WittVector(target, tuple(base.reduce(v, cover) for v in comps))

    # ring operations

    def add(self, a: WittVector, b: WittVector) -> WittVector:
        return self._via_ghost(self, lambda c, x, y: c.add(x, y), a, b)

    def mul(self, a: WittVector, b: WittVector) -> WittVector:
        return self._via_ghost(self, lambda c, x, y: c.mul(x, y), a, b)

    def neg(self, a: WittVector) -> WittVector:
        if self.p % 2:
            return WittVector(self, tuple(self.base.neg(c) for c in a.components))
        return self._via_ghost(self, lambda c, x: c.neg(x), a)

    def scalar_mul(self, n: int, a: WittVector) -> WittVector:
        return self._via_ghost(self, lambda c, x: c.mul(c.from_int(n), x), a)

    # structure maps

    def restrict(self, w: WittVector) -> WittVector:
        """Drop the last component: W_r -> W_{r-1}."""
        if self.r < 2:
            raise ValueError("restriction needs length >= 2")
        target = WittRing(self.p, self.r - 1, self.base)
        return WittVector(target, w.components[:-1])

    def verschiebung(self, w: WittVector) -> WittVector:
        """Prepend zero: W_r -> W_{r+1}."""
        target = WittRing(self.p, self.r + 1, self.base)
        return WittVector(target, (self.base.zero(),) + w.components)

    def frobenius(self, w: WittVector) -> WittVector:
        """Ghost-shift map W_r -> W_{r-1}; componentwise p-th power in characteristic p."""
        if self.r < 2:
            raise ValueError("Frobenius needs length >= 2")
        target = WittRing(self.p, self.r - 1, self.base)
        if self.base.char == self.p:
            return WittVector(target, tuple(map(self.base.frobenius, w.components[:-1])))
        return self._via_ghost(target, lambda c, x: x, w)


# the identification W_t(F_p) = Z/p^t


def teichmuller_character(p: int, t: int, c: int) -> int:
    """Multiplicative lift of c in F_p to Z/p^t."""
    return pow(int(c) % p, p ** (t - 1), p ** t)


# Cartier tower over a finite base


# seeded (w, u) and (x, y) pairs per level for the binary identities
_PAIR_SAMPLES = 150


class CartierTower:
    """Levels W_1(A)..W_Rmax(A) of a finite ring with R, F, V between them.

    Commutation of every square in the tower diagram (restriction against
    Frobenius and Verschiebung, Frobenius-after-Verschiebung equals
    multiplication by p, Frobenius reciprocity, and the product rule for
    Verschiebung) is verified on construction: exhaustively for the unary
    identities, on seeded samples for the binary ones.
    """

    def __init__(self, base, p: int, r_max: int, seed: int = 0):
        if not getattr(base, "is_finite", False):
            raise ValueError("Cartier tower needs a finite base ring")
        if r_max < 1:
            raise ValueError("r_max must be >= 1")
        self.base = base
        self.p = p
        self.r_max = r_max
        self.levels = [WittRing(p, r, base) for r in range(1, r_max + 1)]
        self._verify(seed)

    def level(self, r: int) -> WittRing:
        return self.levels[r - 1]

    def _verify(self, seed: int) -> None:
        import random

        rng = random.Random(seed)
        p = self.p
        for r in range(2, self.r_max + 1):
            upper = self.level(r)
            for w in upper.elements():
                rw = upper.restrict(w)
                fw = upper.frobenius(w)
                if r >= 3:
                    # R(F(w)) = F(R(w)) landing in W_{r-2}
                    if fw.ring.restrict(fw) != rw.ring.frobenius(rw):
                        raise AssertionError("restriction/Frobenius square failed")
            lower = self.level(r - 1)
            for w in lower.elements():
                vw = lower.verschiebung(w)
                # R(V(w)) = V(R(w)) for r-1 >= 2, and F(V(w)) = p w always
                if r >= 3:
                    if vw.ring.restrict(vw) != lower.restrict(w).ring.verschiebung(
                        lower.restrict(w)
                    ):
                        raise AssertionError("restriction/Verschiebung square failed")
                if vw.ring.frobenius(vw) != lower.scalar_mul(p, w):
                    raise AssertionError("FV = p failed")
            pool_hi = list(upper.elements())
            pool_lo = list(lower.elements())
            for _ in range(_PAIR_SAMPLES):
                w = rng.choice(pool_hi)
                u = rng.choice(pool_lo)
                # V(F(w) u) = w V(u)
                left = lower.verschiebung(upper.frobenius(w) * u)
                if left != w * lower.verschiebung(u):
                    raise AssertionError("Frobenius reciprocity failed")
                x = rng.choice(pool_lo)
                y = rng.choice(pool_lo)
                # V(x) V(y) = p V(x y)
                vx = lower.verschiebung(x)
                vy = lower.verschiebung(y)
                if vx * vy != upper.scalar_mul(p, lower.verschiebung(x * y)):
                    raise AssertionError("V(x)V(y) = pV(xy) failed")
