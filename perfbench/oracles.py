"""Answers computed apart from wittnorm, used to check its outputs.

Nothing here imports wittnorm or numpy: each oracle derives the expected
answer from a closed-form description of the object, using only plain
integer arithmetic, so a fault in the program's lattice algebra or Witt
arithmetic cannot hide in the oracle too.

(a) rotation-orbit count: both polynomial-Witt pipelines at (p, d, r)
    have one invariant factor p^(r-k) per rotation orbit of period p^k on
    index tuples of length p^(r-1) over d letters.
(b) basic Witt differentials of F_p[x]: the piece of the one-variable
    de Rham-Witt tower at level s, degree n and weight j/p^u (p not
    dividing j, u >= 0) is Z/p^(s-u) when u < s and n = 0, or n = 1 and
    the weight is positive; every other piece is 0.
(c) ghost-lift congruences: lift the components of Witt vectors over
    F_p[x] to Z[x]; the ghost components w_n of the lifts satisfy
    w_n(a o b) = w_n(a) o w_n(b) mod p^(n+1) for the ring operations, and
    the matching identities for negation, Frobenius, Verschiebung and the
    ghost map itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Poly = Tuple[int, ...]


# ---------------------------------------------------------------------------
# (a) rotation-orbit count


def rotation_orbit_factors(p: int, d: int, r: int) -> Tuple[int, ...]:
    """Invariant factors predicted for the Tate and norm pipelines.

    Enumerates the index tuples of length p^(r-1) over d letters, groups
    them into orbits under rotation of positions, and emits p^(r-k) for
    each orbit of size p^k, in ascending order.
    """
    m = p ** (r - 1)
    seen = set()
    factors = []
    for t in itertools.product(range(d), repeat=m):
        if t in seen:
            continue
        orbit = {t[i:] + t[:i] for i in range(m)}
        seen |= orbit
        k = 0
        while p ** k < len(orbit):
            k += 1
        factors.append(p ** (r - k))
    return tuple(sorted(factors))


def check_factors(p: int, d: int, r: int, factors: Sequence[int]) -> List[str]:
    want = rotation_orbit_factors(p, d, r)
    got = tuple(int(f) for f in factors)
    if got != want:
        return [f"p={p} d={d} r={r}: factors {_short(got)} != orbit count {_short(want)}"]
    return []


def _short(t: Sequence[int]) -> str:
    t = list(t)
    return str(t) if len(t) <= 12 else f"{t[:6]}...{t[-6:]} (len {len(t)})"


# ---------------------------------------------------------------------------
# (b) basic Witt differentials of F_p[x]


def _denominator_exponent(w: Fraction, p: int) -> int:
    den = w.denominator
    u = 0
    while den % p == 0:
        den //= p
        u += 1
    if den != 1:
        raise ValueError(f"weight {w} has a denominator prime to {p}")
    return u


def basic_witt_piece(p: int, s: int, deg: int, weight: Fraction) -> Tuple[int, ...]:
    """Invariant factors of the level-s, degree-deg piece at a weight."""
    if weight < 0 or deg not in (0, 1):
        return ()
    if deg == 1 and weight == 0:
        return ()
    u = _denominator_exponent(Fraction(weight), p)
    return (p ** (s - u),) if u < s else ()


def nonzero_pieces(p: int, r: int, cap: int) -> Dict[Tuple[int, int, Fraction], Tuple[int, ...]]:
    """Every nonzero piece with weight at most cap, levels 1..r."""
    out = {}
    for s in range(1, r + 1):
        for u in range(s):
            q = p ** u
            for j in range(cap * q + 1):
                if u > 0 and j % p == 0:
                    continue
                w = Fraction(j, q)
                for deg in (0, 1):
                    mods = basic_witt_piece(p, s, deg, w)
                    if mods:
                        out[(s, deg, w)] = mods
    return out


def check_tower(p: int, r: int, cap: int,
                pieces: Dict[Tuple[int, int, Fraction], Sequence[int]]) -> List[str]:
    """Compare a tower's pieces, keyed (level, degree, weight), with (b).

    Every piece given must match; every nonzero piece the oracle predicts
    within the cap must be present.
    """
    problems = []
    for (s, deg, w), mods in sorted(pieces.items()):
        want = basic_witt_piece(p, s, deg, Fraction(w))
        if tuple(int(m) for m in mods) != want:
            problems.append(f"piece s={s} deg={deg} w={w}: {tuple(mods)} != {want}")
    for key in sorted(set(nonzero_pieces(p, r, cap)) - set(pieces)):
        problems.append(f"piece s={key[0]} deg={key[1]} w={key[2]} is missing")
    return problems


# ---------------------------------------------------------------------------
# (c) ghost-lift congruences over F_p[x]


def _trim(a: Sequence[int]) -> Poly:
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return tuple(a[:n])


def _poly_mod(a: Sequence[int], m: int) -> Poly:
    return _trim([c % m for c in a])


def _poly_add(a: Sequence[int], b: Sequence[int], m: int) -> Poly:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] += c
    return _poly_mod(out, m)


def _poly_mul(a: Sequence[int], b: Sequence[int], m: int) -> Poly:
    """Product mod m by Kronecker substitution into one big integer.

    Coefficients in [0, m) are packed into disjoint bit slots wide enough
    for every coefficient of the exact product, multiplied as integers and
    unpacked again.
    """
    if not a or not b:
        return ()
    bits = (min(len(a), len(b)) * (m - 1) ** 2).bit_length() + 1
    pack_a = sum(c << (bits * i) for i, c in enumerate(a))
    pack_b = sum(c << (bits * i) for i, c in enumerate(b))
    prod = pack_a * pack_b
    mask = (1 << bits) - 1
    out = []
    for _ in range(len(a) + len(b) - 1):
        out.append((prod & mask) % m)
        prod >>= bits
    return _trim(out)


def _poly_pow(a: Sequence[int], e: int, m: int) -> Poly:
    out: Poly = (1 % m,) if m > 1 else ()
    base = _poly_mod(a, m)
    while e:
        if e & 1:
            out = _poly_mul(out, base, m)
        e >>= 1
        if e:
            base = _poly_mul(base, base, m)
    return _trim(out)


def ghost_lift(p: int, comps: Sequence[Poly], n: int, m: int) -> Poly:
    """w_n = sum_{i<=n} p^i c_i^(p^(n-i)) of the lifted components, mod m."""
    acc: Poly = ()
    for i in range(n + 1):
        term = _poly_pow(comps[i], p ** (n - i), m)
        acc = _poly_add(acc, [(p ** i) * c for c in term], m)
    return acc


def check_witt_op(p: int, op: str, a: Sequence[Poly], b: Sequence[Poly],
                  out: Sequence[Poly]) -> List[str]:
    """Check one Witt-vector result over F_p[x] against the lifted ghosts.

    op is 'add', 'mul', 'neg', 'frobenius', 'verschiebung' or 'ghost'.
    For 'ghost', out lists the ghost components in F_p[x] (congruence mod
    p); for the others, out lists the Witt components of the result.
    Components are coefficient tuples, lowest degree first.
    """
    r = len(a)
    for poly in list(a) + list(b) + list(out):
        if any(not 0 <= c < p for c in poly):
            return [f"{op}: coefficient outside [0, {p}) in {poly}"]
    if op not in ("add", "mul", "neg", "frobenius", "verschiebung", "ghost"):
        raise ValueError(f"unknown Witt operation {op!r}")
    want_len = {"frobenius": r - 1, "verschiebung": r + 1}.get(op, r)
    if len(out) != want_len:
        return [f"{op}: {len(out)} components, expected {want_len}"]
    problems = []
    for n in range(want_len):
        m = p ** (n + 1)
        if op == "ghost":
            got = _poly_mod(out[n], p)
            want = ghost_lift(p, a, n, p)
        else:
            got = ghost_lift(p, out, n, m)
            if op == "add":
                want = _poly_add(ghost_lift(p, a, n, m), ghost_lift(p, b, n, m), m)
            elif op == "mul":
                want = _poly_mul(ghost_lift(p, a, n, m), ghost_lift(p, b, n, m), m)
            elif op == "neg":
                want = _poly_mod([-c for c in ghost_lift(p, a, n, m)], m)
            elif op == "frobenius":
                want = ghost_lift(p, a, n + 1, m)
            else:
                want = () if n == 0 else _poly_mod(
                    [p * c for c in ghost_lift(p, a, n - 1, m)], m)
        if got != want:
            exp = 1 if op == "ghost" else n + 1
            problems.append(f"{op} p={p} r={r}: w_{n} congruence mod {p}^{exp} fails")
    return problems
