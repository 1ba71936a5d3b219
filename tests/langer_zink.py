"""Closed-form pieces of the de Rham-Witt complex of F_p[x_1..x_d].

Langer and Zink ("De Rham-Witt cohomology for a proper and smooth
morphism", 2004, section 2) write every element of W_s Omega as a sum of
basic Witt differentials.  Counting them weight by weight gives each
piece of the tower built by wittnorm.drw: let u(k) be the largest
p-exponent in a component denominator of the weight k.  The level-s,
degree-n piece at weight k is

    (Z/p^(s - u(k)))^C(|supp k|, n)   when k >= 0, k != 0 and u(k) < s,
    Z/p^s in degree 0                 when k = 0,

and 0 otherwise.  Pure integer arithmetic on numerators and denominators;
nothing here imports wittnorm, so the count is independent of the code it
checks.
"""

from fractions import Fraction
from itertools import product
from math import comb
from typing import Dict, Sequence, Tuple


def denominator_exponent(k: Sequence[Fraction], p: int) -> int:
    """u(k): the largest e such that p^e divides a component denominator."""
    u = 0
    for c in k:
        den, e = Fraction(c).denominator, 0
        while den % p == 0:
            den //= p
            e += 1
        if den != 1:
            raise ValueError(f"weight {k} has a denominator prime to {p}")
        u = max(u, e)
    return u


def piece_moduli(p: int, s: int, deg: int, k: Sequence[Fraction]) -> Tuple[int, ...]:
    """Invariant factors of the level-s, degree-deg piece at weight k."""
    if any(c < 0 for c in k):
        return ()
    support = sum(1 for c in k if c)
    if support == 0:
        return (p ** s,) if deg == 0 else ()
    u = denominator_exponent(k, p)
    if u >= s:
        return ()
    return (p ** (s - u),) * comb(support, deg)


def nonzero_pieces(p: int, r: int, nvars: int,
                   cap: int) -> Dict[Tuple[int, int, Tuple[Fraction, ...]], Tuple[int, ...]]:
    """Every nonzero piece at levels 1..r, degrees 0..nvars, total weight
    at most cap."""
    top = p ** (r - 1)
    comps = [Fraction(n, top) for n in range(cap * top + 1)]
    out = {}
    for k in product(comps, repeat=nvars):
        if sum(k) > cap:
            continue
        for s in range(1, r + 1):
            for deg in range(nvars + 1):
                mods = piece_moduli(p, s, deg, k)
                if mods:
                    out[(s, deg, k)] = mods
    return out
