"""Sparse multivariate polynomials over Z.

Just enough for universal Witt polynomial tables: exact arithmetic,
powers, exact division by integers, and evaluation over an arbitrary
coefficient ring (anything with zero/one/add/mul/from_int).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .rings import pow_by_squaring

Exps = Tuple[int, ...]


class MPoly:
    """Integer polynomial in a fixed number of variables, sparse terms."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Exps, int] = None):
        self.nvars = nvars
        t: Dict[Exps, int] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t

    @staticmethod
    def zero(nvars: int) -> "MPoly":
        return MPoly(nvars)

    @staticmethod
    def const(nvars: int, c: int) -> "MPoly":
        if not c:
            return MPoly(nvars)
        return MPoly(nvars, {(0,) * nvars: int(c)})

    @staticmethod
    def var(nvars: int, i: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return MPoly(nvars, {tuple(e): 1})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "MPoly") -> "MPoly":
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return MPoly(self.nvars, t)

    def __neg__(self) -> "MPoly":
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def scale(self, k: int) -> "MPoly":
        if not k:
            return MPoly(self.nvars)
        return MPoly(self.nvars, {e: k * c for e, c in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        t: Dict[Exps, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        return MPoly(self.nvars, t)

    def pow(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power")
        return pow_by_squaring(MPoly.__mul__, self, n) if n else MPoly.const(self.nvars, 1)

    def exact_div_int(self, k: int) -> "MPoly":
        """Divide every coefficient by k; raises when not exact."""
        t = {}
        for e, c in self.terms.items():
            q, rem = divmod(c, k)
            if rem:
                raise ValueError(f"coefficient {c} not divisible by {k}")
            t[e] = q
        return MPoly(self.nvars, t)

    def eval(self, ring, values: Sequence):
        """Evaluate over a ring given one value per variable."""
        if len(values) != self.nvars:
            raise ValueError("value count mismatch")
        # cache powers per variable up to the max exponent that occurs
        max_exp = [0] * self.nvars
        for e in self.terms:
            for i, a in enumerate(e):
                if a > max_exp[i]:
                    max_exp[i] = a
        powers = []
        for i in range(self.nvars):
            chain = [ring.one()]
            for _ in range(max_exp[i]):
                chain.append(ring.mul(chain[-1], values[i]))
            powers.append(chain)
        acc = ring.zero()
        for e, c in sorted(self.terms.items()):
            term = ring.from_int(c)
            for i, a in enumerate(e):
                if a:
                    term = ring.mul(term, powers[i][a])
            acc = ring.add(acc, term)
        return acc

    def __repr__(self) -> str:
        return f"MPoly(nvars={self.nvars}, nterms={len(self.terms)})"
