"""Witt vector arithmetic against the ghost oracle and universal tables."""

import os
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittnorm import rings, witt
from wittnorm.rings import GFPolyRing, QuotPolyRing, ZModRing, ZRing
from wittnorm.witt import (
    CartierTower,
    WittRing,
    WittVector,
    get_table,
    table_is_cheap,
    teichmuller_character,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

import oracles  # noqa: E402

Z = ZRing()


def W(p, r, base=None):
    return WittRing(p, r, base if base is not None else Z)


def witt_fp_to_zmod(w: WittVector) -> int:
    """Ring isomorphism W_t(F_p) -> Z/p^t, (a_i) -> sum of lifts of a_i times p^i."""
    p, t = w.ring.p, w.ring.r
    return sum(teichmuller_character(p, t, c) * p ** i for i, c in enumerate(w.components)) % p ** t


def test_ghost_frozen_values():
    assert W(2, 2).vector([1, 0]).ghost() == [1, 1]
    assert W(2, 2).vector([0, 1]).ghost() == [0, 2]
    assert W(3, 3).vector([1, 1, 0]).ghost() == [1, 4, 4]


def test_add_frozen_values():
    w = W(2, 2)
    one = w.vector([1, 0])
    assert (one + one).components == (2, -1)
    wf2 = W(2, 2, ZModRing(2))
    onef = wf2.vector([1, 0])
    assert (onef + onef).components == (0, 1)
    # additive identity
    assert (one + w.zero()) == one


def test_teichmuller_multiplicative():
    w = W(2, 2)
    assert (w.teichmuller(2) * w.teichmuller(3)) == w.teichmuller(6)
    fx = GFPolyRing(2)
    wx = W(2, 2, fx)
    x = (0, 1)
    assert (wx.teichmuller(x) * wx.teichmuller(x)) == wx.teichmuller(fx.mul(x, x))
    assert wx.one() == wx.teichmuller(fx.one())


def test_ghost_is_ring_hom_over_z():
    rng = random.Random(11)
    for p, r in [(2, 3), (3, 3), (5, 4)]:
        w = W(p, r)
        for _ in range(12):
            a = w.random_element(rng)
            b = w.random_element(rng)
            ga, gb = a.ghost(), b.ghost()
            assert (a + b).ghost() == [x + y for x, y in zip(ga, gb)]
            assert (a * b).ghost() == [x * y for x, y in zip(ga, gb)]
            assert (-a).ghost() == [-x for x in ga]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 2), (2, 3), (3, 2)]),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=9, max_size=9),
)
def test_ring_axioms_over_z(pr, vals):
    p, r = pr
    w = W(p, r)
    a = w.vector(vals[0:r])
    b = w.vector(vals[3 : 3 + r])
    c = w.vector(vals[6 : 6 + r])
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == w.zero()
    assert a * w.one() == a


def test_table_ghost_identities_build():
    # construction includes the symbolic verification
    for p, r in [(2, 4), (3, 3), (5, 2)]:
        tab = get_table(p, r)
        assert len(tab.sum_polys) == r
        assert len(tab.prod_polys) == r
        assert len(tab.frob_polys) == r - 1
    assert table_is_cheap(3, 4)
    assert not table_is_cheap(5, 4)


def test_tables_match_engine_all_bases():
    # odd p negates componentwise and p = 2 through the cover; F is a
    # componentwise p-th power over the characteristic-p bases (F_p,
    # F_p[x], F_p[x]/(f)) and goes through the cover over Z and Z/p^2
    rng = random.Random(23)
    cases = [(2, 3), (2, 4), (3, 3), (3, 4), (5, 2), (5, 3)]
    for p, r in cases:
        tab = get_table(p, r)
        bases = [Z, ZModRing(p), ZModRing(p * p), GFPolyRing(p, random_degree=2),
                 QuotPolyRing(p, (1, 1, 0, 1))]
        for base in bases:
            w = WittRing(p, r, base)
            for _ in range(4):
                a = w.random_element(rng)
                b = w.random_element(rng)
                assert list((a + b).components) == tab.eval_sum(base, a.components, b.components)
                assert list((a * b).components) == tab.eval_prod(base, a.components, b.components)
                assert list((-a).components) == tab.eval_neg(base, a.components)
                assert list(w.frobenius(a).components) == tab.eval_frob(base, a.components)


@pytest.mark.parametrize("p, base, frob_cover, neg_cover", [
    (3, Z, True, False), (3, ZModRing(9), True, False), (3, ZModRing(3), False, False),
    (3, GFPolyRing(3), False, False), (3, QuotPolyRing(3, (1, 0, 1)), False, False),
    (2, Z, True, True), (2, ZModRing(4), True, True), (2, ZModRing(2), False, True),
    (2, GFPolyRing(2), False, True), (2, QuotPolyRing(2, (1, 1, 1)), False, True),
])
def test_componentwise_maps_skip_the_cover(p, base, frob_cover, neg_cover, monkeypatch):
    # F takes the cover unless the base has characteristic p; negation
    # takes it at p = 2 only
    covers = []
    real = type(base).witt_cover
    monkeypatch.setattr(type(base), "witt_cover",
                        lambda self, p, r: covers.append(1) or real(self, p, r))
    w = WittRing(p, 3, base)
    a = w.random_element(random.Random(1))
    w.frobenius(a)
    assert len(covers) == frob_cover
    covers.clear()
    w.neg(a)
    assert len(covers) == neg_cover


def test_ghost_skips_terms_zero_in_the_base():
    # p^i x_i^(p^(n-i)) vanishes for i >= 1 over F_p[x] and for i >= 2 over
    # Z/p^2, so those components never enter the ghost map
    rng = random.Random(4)
    for base, live in [(GFPolyRing(3), 1), (ZModRing(9), 2), (Z, 3)]:
        w = WittRing(3, 3, base)
        a = w.random_element(rng)
        assert a.ghost() == [_naive_ghost(base, 3, a.components, n) for n in range(3)]
        for i in range(live, 3):
            comps = list(a.components)
            comps[i] = base.add(comps[i], base.one())
            assert w.vector(comps).ghost() == a.ghost()


def _naive_ghost(base, p, comps, n):
    acc = base.zero()
    for i in range(n + 1):
        term = base.one()
        for _ in range(p ** (n - i)):
            term = base.mul(term, comps[i])
        acc = base.add(acc, base.mul(base.from_int(p ** i), term))
    return acc


@pytest.mark.parametrize("p, products", [(2, 1), (3, 2), (5, 3)])
@pytest.mark.parametrize("make_cover", [
    lambda p: rings.PadicPolyCover(p, 5),
    lambda p: rings.QuotPolyCover(p, (1, 0, 1)),
], ids=["padic", "quot"])
def test_pow_p_products(p, products, make_cover, monkeypatch):
    # each link of a power chain squares and multiplies from the previous
    # entry, bit_length + popcount - 2 products, each one traced mul; the
    # p-adic cover keeps chain entry 1 mod p^2
    cover = make_cover(p)
    calls = []
    real = type(cover).mul
    monkeypatch.setattr(type(cover), "mul", lambda self, a, b: calls.append(1) or real(self, a, b))
    padic = isinstance(cover, rings.PadicPolyCover)
    out = cover.pth_power(cover.make((1, 2, 1)) if padic else (1, 2, 1), 1)
    assert len(calls) == products
    expect = (1,)
    for _ in range(p):
        expect = rings.poly_mul(expect, (1, 2, 1))
    if padic:
        assert out.tolist() == [c % p ** 2 for c in expect]
    else:
        assert out == rings.poly_rem_monic(expect, (1, 0, 1))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("make_base", [
    GFPolyRing,
    lambda p: QuotPolyRing(p, (1, 1, 0, 1)),
    ZModRing,
], ids=["fpx", "quot", "fp"])
def test_frobenius_substitution_is_the_pth_power(p, make_base):
    # in characteristic p, (sum a_i x^i)^p = sum a_i x^(ip), reduced mod f
    # in F_p[x]/(f) and the identity on F_p; F and the ghost chains read it
    base = make_base(p)
    rng = random.Random(40 + p)
    samples = [base.zero(), base.one()] + [base.random_element(rng) for _ in range(40)]
    for a in samples:
        assert base.frobenius(a) == rings.pow_by_squaring(base.mul, a, p), a
    assert witt._pth_power(base, p) == base.frobenius


def test_pth_power_squares_outside_characteristic_p():
    # Z/4 at p = 2 has characteristic 4: 3^2 = 1 there, not 3
    assert witt._pth_power(ZModRing(4), 2)(3) == 1
    assert witt._pth_power(ZRing(), 3)(2) == 8
    assert rings.IntCover(3).pth_power(2, 4) == 8
    cover = GFPolyRing(3).witt_cover(3, 2)
    assert cover.pth_power(cover.make((1, 1)), 1).tolist() == [1, 3, 3, 1]


def test_div_pow_p_checks_kept():
    cover = rings.PadicPolyCover(3, 3)
    v = cover.scale_pow_p(cover.make((1, 2)), 1)
    assert cover.div_pow_p(v, 1).tolist() == [1, 2]
    with pytest.raises(ArithmeticError, match="inexact division"):
        cover.div_pow_p(cover.make((1, 3)), 1)
    with pytest.raises(ArithmeticError, match="inexact division"):
        rings.IntCover(3).div_pow_p(10, 2)
    with pytest.raises(ArithmeticError, match="inexact division"):
        rings.QuotPolyCover(3, (1, 0, 1)).div_pow_p((3, 4), 1)


# the ghost engine before truncation, kept as an independent reference: every
# F_p[x] cover value carries its own precision, which starts at
# p^(r(r-1)/2+2) and loses i digits in each division by p^i; the exact covers
# run unchanged, and no solved component is reduced before its chain


class _RefPadicVal:
    __slots__ = ("arr", "prec")

    def __init__(self, arr, prec):
        self.arr = arr
        self.prec = prec


class _RefPadicCover:
    def __init__(self, p, max_prec):
        self.p = p
        self.K = max_prec

    def _canon(self, arr, prec):
        m = self.p ** prec
        if m >= 2 ** 62 and arr.dtype != object:
            arr = arr.astype(object)
        a = np.remainder(arr, m)
        n = len(a)
        while n and not a[n - 1]:
            n -= 1
        a = a[:n]
        if a.dtype == object and m < 2 ** 62:
            a = a.astype(np.int64)
        return _RefPadicVal(a, prec)

    def make(self, coeffs):
        return self._canon(np.array(list(coeffs), dtype=np.int64), self.K)

    def _combine(self, ufunc, a, b):
        n = max(len(a.arr), len(b.arr))
        x = np.zeros(n, dtype=object)
        y = np.zeros(n, dtype=object)
        x[: len(a.arr)] = a.arr
        y[: len(b.arr)] = b.arr
        return self._canon(ufunc(x, y), min(a.prec, b.prec))

    def add(self, a, b):
        return self._combine(np.add, a, b)

    def sub(self, a, b):
        return self._combine(np.subtract, a, b)

    def neg(self, a):
        return self._canon(-a.arr, a.prec)

    def mul(self, a, b):
        prec = min(a.prec, b.prec)
        if not len(a.arr) or not len(b.arr):
            return _RefPadicVal(np.zeros(0, dtype=np.int64), prec)
        return self._canon(np.convolve(a.arr.astype(object), b.arr.astype(object)), prec)

    def from_int(self, n):
        return self.make([n])

    def scale_pow_p(self, a, i):
        return self._canon(a.arr.astype(object) * self.p ** i, min(a.prec + i, self.K))

    def div_pow_p(self, a, i):
        if i == 0:
            return a
        k = self.p ** i
        if np.any(np.remainder(a.arr, k)):
            raise ArithmeticError("inexact division in Witt recursion")
        assert a.prec - i >= 1, "precision exhausted in Witt recursion"
        return self._canon(a.arr // k, a.prec - i)


def _ref_via_ghost(ring, target_r, combine, *vectors):
    """Components of the target of length target_r, as the ghost engine
    computed them with per-value precision."""
    base, p, r = ring.base, ring.p, ring.r
    if isinstance(base, GFPolyRing):
        cover = _RefPadicCover(p, r * (r - 1) // 2 + 2)
        lift = cover.make

        def reduce(v):
            assert v.prec >= 1
            return rings._trim((v.arr % p).tolist())
    else:
        cover = base.witt_cover(p, r)

        def lift(c):
            return base.lift(c, cover)

        def reduce(v):
            return base.reduce(v, cover)

    def power(chain, k):
        while len(chain) <= k:
            chain.append(rings.pow_by_squaring(cover.mul, chain[-1], p))
        return chain[k]

    def ghost_sum(chains, n, terms):
        acc = power(chains[0], n)
        for i in range(1, terms):
            acc = cover.add(acc, cover.scale_pow_p(power(chains[i], n - i), i))
        return acc

    ghosts = []
    for w in vectors:
        chains = [[lift(c)] for c in w.components]
        ghosts.append([ghost_sum(chains, n, n + 1) for n in range(r)])
    targets = [combine(cover, *g) for g in zip(*ghosts)][r - target_r:]
    solved = []
    for n, t in enumerate(targets):
        z = cover.div_pow_p(cover.sub(t, ghost_sum(solved, n, n)), n) if n else t
        solved.append([z])
    return tuple(reduce(chain[0]) for chain in solved)


# (p, r) pairs per base kind where the reference stays cheap: the reference
# F_p[x] cover runs its chains to degree 6 * p^(r-1) in Python integers
_ORACLE_SHAPES = {
    "fpx": [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
            (5, 2), (5, 3), (7, 2), (7, 3)],
    "exact": [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4),
              (3, 5), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3)],
}


def _oracle_bases(p):
    yield "fpx", GFPolyRing(p)
    yield "exact", Z
    yield "exact", ZModRing(p * p)
    yield "exact", ZModRing(p)
    yield "exact", ZModRing(p + 1)  # p is a unit there
    yield "exact", QuotPolyRing(p, (1, 1, 0, 1))


def _oracle_element(rng, base, p):
    if rng.random() < 0.25:
        return base.zero()
    if isinstance(base, GFPolyRing):
        return rings._trim([rng.randrange(p) for _ in range(rng.randint(1, 7))])
    return base.random_element(rng)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_truncated_engine_matches_per_value_precision(p):
    # add, mul, neg, scalar_mul and F of the truncated ghost engine against
    # the per-value-precision reference on every base, zero components and
    # polynomial degrees 0-6 included
    rng = random.Random(700 + p)
    for kind, base in _oracle_bases(p):
        for pp, r in _ORACLE_SHAPES[kind]:
            if pp != p:
                continue
            w = WittRing(p, r, base)
            for _ in range(6):
                a, b = (w.vector([_oracle_element(rng, base, p) for _ in range(r)])
                        for _ in range(2))
                k = rng.choice([p, -1, rng.randint(-30, 30)])
                cases = [
                    ("add", w.add(a, b), r, lambda c, x, y: c.add(x, y), (a, b)),
                    ("mul", w.mul(a, b), r, lambda c, x, y: c.mul(x, y), (a, b)),
                    ("neg", w.neg(a), r, lambda c, x: c.neg(x), (a,)),
                    ("scalar_mul", w.scalar_mul(k, a), r,
                     lambda c, x, k=k: c.mul(c.from_int(k), x), (a,)),
                ]
                if r >= 2:
                    cases.append(("frobenius", w.frobenius(a), r - 1, lambda c, x: x, (a,)))
                for op, got, target_r, combine, args in cases:
                    want = _ref_via_ghost(w, target_r, combine, *args)
                    assert got.components == want, (op, base.label(), r, a, b, k)


@pytest.mark.parametrize("r, n, length", [(40, 35, 5), (30, 29, 8)])
def test_padic_cover_products_never_wrap(r, n, length):
    # len * p^(2(n+1)) passes 2^62: the product of two values reduced mod
    # p^(n+1), and the chain entry taken from one, must be exact, never an
    # int64 that wrapped around
    cover = rings.PadicPolyCover(2, r)
    rng = random.Random(r)
    a, b = ([rng.randrange(2 ** n, 2 ** (n + 1)) for _ in range(length)] for _ in range(2))
    assert length * 2 ** (2 * (n + 1)) >= 2 ** 62
    exact = rings.poly_mul(a, b)
    assert cover.mul(cover.make(a), cover.make(b)).tolist() == list(exact)
    square = rings.poly_mul(a, a)
    assert cover.pth_power(cover.make(a), n).tolist() == [c % 2 ** (n + 1) for c in square]
    # the exact product then meets longer values, int64 where they fit
    product = cover.mul(cover.make(a), cover.make(b))
    longer = [rng.randrange(2 ** n) for _ in range(3 * length)] + [1]
    assert cover.sub(cover.make(longer), product).tolist() == list(
        rings.poly_add(longer, [-c for c in exact]))
    assert cover.add(product, cover.make(longer)).tolist() == list(rings.poly_add(exact, longer))
    # and divides exactly by powers of p, the inexact check kept
    assert product.dtype == object
    assert cover.div_pow_p(cover.scale_pow_p(product, n), n).tolist() == list(exact)
    with pytest.raises(ArithmeticError):
        cover.div_pow_p(cover.add(cover.scale_pow_p(product, 1), cover.make([1])), 1)


def test_solved_components_restart_from_their_reduction(monkeypatch):
    # over F_p[x] each solved component is needed only mod p: its chain
    # starts from its reduction mod p, as the operands' chains do, so every
    # value the engine tracks has coefficients in [0, p)
    tracked = []
    real = witt._PowerChains.track
    monkeypatch.setattr(witt._PowerChains, "track",
                        lambda self, v: tracked.append(v) or real(self, v))
    rng = random.Random(31)
    for base in [GFPolyRing(2), GFPolyRing(3)]:
        w = WittRing(base.char, 4, base)
        a, b = w.random_element(rng), w.random_element(rng)
        tracked.clear()
        w.mul(a, b)
        w.add(a, b)
        w.scalar_mul(5, a)
        assert tracked
        for v in tracked:
            assert all(0 <= c < base.char for c in np.asarray(v).ravel().tolist()), (base.label(), v)


def test_fv_identities():
    rng = random.Random(5)
    # FV = p on W_2(Z/9) at p = 3
    w2 = W(3, 2, ZModRing(9))
    for _ in range(20):
        a = w2.random_element(rng)
        va = w2.verschiebung(a)
        assert va.ring.frobenius(va) == w2.scalar_mul(3, a)
    # RF = FR and RV = VR
    for p, r, base in [(2, 4, Z), (3, 3, ZModRing(9)), (2, 3, GFPolyRing(2))]:
        w = WittRing(p, r, base)
        for _ in range(8):
            a = w.random_element(rng)
            fa, ra = w.frobenius(a), w.restrict(a)
            assert fa.ring.restrict(fa) == ra.ring.frobenius(ra)
            va = w.verschiebung(a)
            assert va.ring.restrict(va) == ra.ring.verschiebung(ra)


def test_frobenius_reciprocity_and_vv():
    rng = random.Random(9)
    for p, base in [(2, Z), (3, ZModRing(3)), (2, GFPolyRing(2))]:
        big = WittRing(p, 3, base)
        small = WittRing(p, 2, base)
        for _ in range(10):
            w = big.random_element(rng)
            u = small.random_element(rng)
            assert small.verschiebung(big.frobenius(w) * u) == w * small.verschiebung(u)
            x = small.random_element(rng)
            y = small.random_element(rng)
            lhs = small.verschiebung(x) * small.verschiebung(y)
            assert lhs == big.scalar_mul(p, small.verschiebung(x * y))


def test_teichmuller_frobenius():
    fx = GFPolyRing(3)
    w = W(3, 3, fx)
    x = (0, 1)
    fx_t = w.frobenius(w.teichmuller(x))
    assert fx_t == fx_t.ring.teichmuller(fx.mul(fx.mul(x, x), x))
    wz = W(2, 3)
    assert wz.frobenius(wz.teichmuller(3)) == W(2, 2).teichmuller(9)


def test_witt_fp_zmod_iso_exhaustive():
    for p, r in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        ring = WittRing(p, r, ZModRing(p))
        mod = p ** r
        seen = set()
        elems = list(ring.elements())
        for a in elems:
            seen.add(witt_fp_to_zmod(a))
        assert seen == set(range(mod))
        pairs = [(a, b) for a in elems for b in elems]
        if len(pairs) > 600:
            rng = random.Random(1)
            pairs = [rng.choice(pairs) for _ in range(600)]
        for a, b in pairs:
            assert witt_fp_to_zmod(a + b) == (witt_fp_to_zmod(a) + witt_fp_to_zmod(b)) % mod
            assert witt_fp_to_zmod(a * b) == (witt_fp_to_zmod(a) * witt_fp_to_zmod(b)) % mod


def test_iso_transports_rfv():
    # under W_r(F_p) = Z/p^r: R and F become reduction, V multiplication by p
    for p, r in [(2, 3), (3, 2)]:
        ring = WittRing(p, r, ZModRing(p))
        for a in ring.elements():
            n = witt_fp_to_zmod(a)
            assert witt_fp_to_zmod(ring.restrict(a)) == n % p ** (r - 1)
            assert witt_fp_to_zmod(ring.frobenius(a)) == n % p ** (r - 1)
            assert witt_fp_to_zmod(ring.verschiebung(a)) == (p * n) % p ** (r + 1)


def test_teichmuller_character():
    assert teichmuller_character(2, 3, 1) == 1
    assert teichmuller_character(2, 3, 0) == 0
    # the lift of 2 in Z/27 must be the cube root of unity congruent to 2
    w = teichmuller_character(3, 3, 2)
    assert w % 3 == 2 and pow(w, 3, 27) == w


def test_quot_ring_witt():
    a4 = QuotPolyRing(2, (0, 0, 1))  # F_2[x]/(x^2)
    w2 = WittRing(2, 2, a4)
    elems = list(w2.elements())
    assert len(elems) == 16
    rng = random.Random(3)
    for _ in range(10):
        a = w2.random_element(rng)
        b = w2.random_element(rng)
        assert a + b == b + a
        assert (a + b) + (-b) == a


def test_cartier_tower_f2():
    tower = CartierTower(ZModRing(2), 2, 3)
    # tower verification ran in the constructor; sanity: level sizes
    assert len(list(tower.level(2).elements())) == 4
    assert len(list(tower.level(3).elements())) == 8


def test_cartier_tower_rejects_infinite_base():
    with pytest.raises(ValueError):
        CartierTower(Z, 2, 2)


def test_from_int_matches_repeated_addition():
    w = W(3, 3, ZModRing(9))
    acc = w.zero()
    for k in range(1, 7):
        acc = acc + w.one()
        assert w.scalar_mul(k, w.one()) == acc


@pytest.mark.parametrize("p,r", [(2, 12), (7, 7)])
def test_fpx_cover_past_int64_matches_fp(p, r):
    # long vectors with constant components must give the same answers as
    # W_r(F_p), and the lifted ghosts of perfbench/oracles.py must agree;
    # p^(2r) < 2^62 here, so the F_p[x] cover runs in int64 throughout
    rng = random.Random(p * r)
    fx, fp = WittRing(p, r, GFPolyRing(p)), WittRing(p, r, ZModRing(p))
    for _ in range(2):
        a = [rng.randrange(p) for _ in range(r)]
        b = [rng.randrange(p) for _ in range(r)]
        polys_a = [(c,) if c else () for c in a]
        polys_b = [(c,) if c else () for c in b]
        for op in ("add", "mul"):
            got = getattr(fx, op)(fx.vector(polys_a), fx.vector(polys_b)).components
            want = getattr(fp, op)(fp.vector(a), fp.vector(b)).components
            assert got == tuple((c,) if c else () for c in want), (op, a, b)
            assert oracles.check_witt_op(p, op, polys_a, polys_b, got) == [], (op, a, b)


@pytest.mark.parametrize("p,r,first_linear,want", [
    (2, 32, 32, "object"),
    (7, 12, 12, "object"),
    (2, 30, 26, "int64 object"),
])
def test_fpx_cover_exact_path_matches_lifted_ghosts(monkeypatch, p, r, first_linear, want):
    # the exact (object-array) path of the F_p[x] cover inside whole Witt
    # operations, checked against the lifted ghosts of perfbench/oracles.py.
    # At (2, 32) and (7, 12) p^(2r) >= 2^62, so every cover value is an
    # object array from the lift on.  At (2, 30) p^(2r) = 2^60 keeps the
    # lifts int64, but the degree <= 1 components from index 26 on give
    # chains of length up to 9, and a product of length-n operands passes
    # 2^62 once n >= 4: those products run in Python integers and meet
    # int64 values.  The components before first_linear are constants, so
    # the chains stay short.
    dtypes = set()
    real = rings.PadicPolyCover.mul
    monkeypatch.setattr(rings.PadicPolyCover, "mul",
                        lambda self, a, b: dtypes.add((out := real(self, a, b)).dtype.name) or out)
    rng = random.Random(p * r)
    fx = WittRing(p, r, GFPolyRing(p))
    for _ in range(2):
        a, b = ([rings._trim([rng.randrange(p) for _ in range(1 if i < first_linear else 2)])
                 for i in range(r)] for _ in range(2))
        for op in ("add", "mul"):
            got = getattr(fx, op)(fx.vector(a), fx.vector(b)).components
            assert oracles.check_witt_op(p, op, a, b, got) == [], (op, a, b)
    assert " ".join(sorted(dtypes)) == want
