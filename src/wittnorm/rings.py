"""Base rings for truncated Witt vectors.

Supported bases: Z, Z/m, F_p, F_p[x] (one variable), and F_p[x]/(f) with f
monic.  Elements are canonical hashable values (ints, or coefficient
tuples for polynomials), so == is semantic equality.

Every base ring exposes a torsion-free cover used by the Witt arithmetic
engine: an ambient ring with no p-torsion together with lift and reduce
maps.  For Z and Z/m the cover works with plain Python integers; for
F_p[x]/(f) with integer coefficient tuples modulo a monic lift of f; for
F_p[x] with numpy arrays carrying coefficients modulo a power of p plus an
explicit precision, which keeps the exact divisions by p fast at large
degree while still producing exact mod-p answers.

That F_p[x] cover is the only user of numpy in the package, so numpy is
loaded when the first one is built, not on import.  Witt sums and products
over F_p[x] load it (`witt add` and `witt mul` with `--ring fpx`, `run witt`,
`run drw`); `polywitt`, `mackey`, `trace`, `drw build`, `drw check` and the
other `witt` verbs run without it.

The bases of characteristic p (F_p, F_p[x], F_p[x]/(f)) also expose their
Frobenius a -> a^p, computed by substitution: (sum a_i x^i)^p = sum a_i x^(ip).
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence, Tuple

np = None  # numpy, bound by the first PadicPolyCover

IntPoly = Tuple[int, ...]  # dense coefficients, no trailing zeros, () = 0


def _trim(coeffs: Sequence[int]) -> IntPoly:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def poly_add(a: Sequence[int], b: Sequence[int], mod: int = 0) -> IntPoly:
    n = max(len(a), len(b))
    out = [0] * n
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] += v
    if mod:
        out = [v % mod for v in out]
    return _trim(out)


def poly_mul(a: Sequence[int], b: Sequence[int], mod: int = 0) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if not va:
            continue
        for j, vb in enumerate(b):
            if vb:
                out[i + j] += va * vb
    if mod:
        out = [v % mod for v in out]
    return _trim(out)


def poly_rem_monic(a: Sequence[int], f: Sequence[int], mod: int = 0) -> IntPoly:
    """Remainder of a modulo a monic polynomial f (optionally coeffs mod m)."""
    d = len(f) - 1
    if f[-1] != 1 or d < 1:
        raise ValueError("modulus must be monic of degree >= 1")
    work = list(a)
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            for j in range(d + 1):
                work[i - d + j] -= c * f[j]
    work = work[:d]
    if mod:
        work = [v % mod for v in work]
    return _trim(work)


def _substitute_pth_power(a: IntPoly, p: int) -> IntPoly:
    """a(x^p) for a trimmed coefficient tuple a."""
    if not a:
        return ()
    out = [0] * (p * (len(a) - 1) + 1)
    out[::p] = a
    return tuple(out)


def pow_by_squaring(mul, a, n: int):
    """a^n for n >= 1 by square-and-multiply from a: bit_length + popcount - 2 products."""
    out = a
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, a)
    return out


# torsion-free cover contexts


class IntCover:
    """Exact integer cover (for Z, Z/m bases)."""

    char = 0

    def __init__(self, p: int):
        self.p = p

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return n

    def scale_pow_p(self, a, i: int):
        return a * self.p ** i

    def div_pow_p(self, a, i: int):
        q, rem = divmod(a, self.p ** i)
        if rem:
            raise ArithmeticError("inexact division in Witt recursion")
        return q


class QuotPolyCover:
    """Z[x]/(f~) for a monic integer lift f~ of the base modulus."""

    char = 0

    def __init__(self, p: int, f_lift: IntPoly):
        self.p = p
        self.f = f_lift

    def _red(self, a: Sequence[int]) -> IntPoly:
        return poly_rem_monic(a, self.f)

    def add(self, a, b):
        return poly_add(a, b)

    def sub(self, a, b):
        return poly_add(a, tuple(-v for v in b))

    def neg(self, a):
        return tuple(-v for v in a)

    def mul(self, a, b):
        return self._red(poly_mul(a, b))

    def from_int(self, n):
        return _trim([n])

    def scale_pow_p(self, a, i: int):
        k = self.p ** i
        return tuple(v * k for v in a)

    def div_pow_p(self, a, i: int):
        k = self.p ** i
        out = []
        for v in a:
            q, rem = divmod(v, k)
            if rem:
                raise ArithmeticError("inexact division in Witt recursion")
            out.append(q)
        return tuple(out)


class PadicVal:
    """Dense integer polynomial known modulo p^prec."""

    __slots__ = ("arr", "prec")

    def __init__(self, arr: np.ndarray, prec: int):
        self.arr = arr
        self.prec = prec


class PadicPolyCover:
    """Z[x] tracked modulo a power of p, numpy-accelerated.

    Values carry (coefficients mod p^prec, prec).  Additions and products
    keep the minimum precision of their inputs; dividing by p^i costs i
    digits of precision.  Starting precision is chosen by the Witt engine
    so that final answers are still exact modulo p.
    """

    char = 0

    def __init__(self, p: int, max_prec: int):
        global np
        if np is None:
            import numpy as np
        self.p = p
        self.K = max_prec

    def _canon(self, arr: np.ndarray, prec: int) -> PadicVal:
        m = self.p ** prec
        if m >= 2 ** 62 and arr.dtype != object:
            # an int64 array cannot be reduced by a modulus past its range
            arr = arr.astype(object)
        a = np.remainder(arr, m)
        n = len(a)
        while n and not a[n - 1]:
            n -= 1
        a = a[:n]
        if a.dtype == object and m < 2 ** 62:
            a = a.astype(np.int64)
        return PadicVal(a, prec)

    def make(self, coeffs: Sequence[int]) -> PadicVal:
        arr = np.array(list(coeffs), dtype=np.int64)
        return self._canon(arr, self.K)

    def _combine(self, ufunc, a: PadicVal, b: PadicVal) -> PadicVal:
        """ufunc(a, b) coefficientwise, the shorter operand read as zero-padded."""
        x, y = a.arr, b.arr
        if len(x) == len(y):
            out = ufunc(x, y)
        elif len(x) > len(y):
            out = x.copy()
            ufunc(out[: len(y)], y, out=out[: len(y)])
        else:
            out = ufunc(0, y)
            out[: len(x)] += x
        return self._canon(out, min(a.prec, b.prec))

    def add(self, a: PadicVal, b: PadicVal) -> PadicVal:
        return self._combine(np.add, a, b)

    def sub(self, a: PadicVal, b: PadicVal) -> PadicVal:
        return self._combine(np.subtract, a, b)

    def neg(self, a: PadicVal) -> PadicVal:
        return self._canon(-a.arr, a.prec)

    def mul(self, a: PadicVal, b: PadicVal) -> PadicVal:
        prec = min(a.prec, b.prec)
        if not len(a.arr) or not len(b.arr):
            return PadicVal(np.zeros(0, dtype=np.int64), prec)
        bound = min(len(a.arr), len(b.arr)) * self.p ** (a.prec + b.prec)
        if bound < 2 ** 62 and a.arr.dtype != object and b.arr.dtype != object:
            out = np.convolve(a.arr, b.arr)
        else:
            out = np.convolve(a.arr.astype(object), b.arr.astype(object))
        return self._canon(out, prec)

    def from_int(self, n: int) -> PadicVal:
        return self.make([n])

    def scale_pow_p(self, a: PadicVal, i: int) -> PadicVal:
        prec = min(a.prec + i, self.K)
        if a.arr.dtype != object and self.p ** (a.prec + i) < 2 ** 62:
            # coefficients are below p^a.prec, so the scaled ones fit in int64
            arr = a.arr * self.p ** i
        else:
            arr = a.arr.astype(object) * self.p ** i
        return self._canon(arr, prec)

    def div_pow_p(self, a: PadicVal, i: int) -> PadicVal:
        if i == 0:
            return a
        k = self.p ** i
        if np.any(np.remainder(a.arr, k)):
            raise ArithmeticError("inexact division in Witt recursion")
        prec = a.prec - i
        if prec < 1:
            raise ArithmeticError("precision exhausted in Witt recursion")
        return self._canon(a.arr // k, prec)


# base rings


class ZRing:
    """The integers."""

    is_finite = False
    char = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def from_int(self, n):
        return int(n)

    def random_element(self, rng):
        return rng.randint(-9, 9)

    def witt_cover(self, p: int, r: int):
        return IntCover(p)

    def lift(self, a, cover):
        return a

    def reduce(self, v, cover):
        return v

    def label(self) -> str:
        return "Z"

    def __eq__(self, other):
        return isinstance(other, ZRing)

    def __hash__(self):
        return hash("ZRing")


class ZModRing:
    """Z/m with canonical representatives 0..m-1."""

    is_finite = True

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.char = m

    def zero(self):
        return 0

    def one(self):
        return 1 % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def from_int(self, n):
        return n % self.m

    def frobenius(self, a):
        # read only when m is the Witt prime p, where a^p = a (Fermat)
        return a

    def elements(self) -> Iterator[int]:
        return iter(range(self.m))

    def random_element(self, rng):
        return rng.randrange(self.m)

    def witt_cover(self, p: int, r: int):
        return IntCover(p)

    def lift(self, a, cover):
        return a

    def reduce(self, v, cover):
        return v % self.m

    def label(self) -> str:
        return f"Z/{self.m}"

    def __eq__(self, other):
        return isinstance(other, ZModRing) and self.m == other.m

    def __hash__(self):
        return hash(("ZModRing", self.m))


class GFPolyRing:
    """F_p[x] in one variable; elements are coefficient tuples mod p."""

    is_finite = False

    def __init__(self, p: int, random_degree: int = 4):
        self.p = p
        self.char = p
        self.random_degree = random_degree

    def zero(self):
        return ()

    def one(self):
        return (1,)

    def add(self, a, b):
        return poly_add(a, b, self.p)

    def neg(self, a):
        return tuple((-v) % self.p for v in a)

    def sub(self, a, b):
        return poly_add(a, self.neg(b), self.p)

    def mul(self, a, b):
        return poly_mul(a, b, self.p)

    def frobenius(self, a):
        return _substitute_pth_power(a, self.p)

    def from_int(self, n):
        return _trim([n % self.p])

    def random_element(self, rng):
        return _trim([rng.randrange(self.p) for _ in range(self.random_degree + 1)])

    def witt_cover(self, p: int, r: int):
        if p != self.p:
            raise ValueError("prime mismatch between Witt ring and base")
        # each division by p^i in the component recursion costs i digits
        max_prec = r * (r - 1) // 2 + 2
        return PadicPolyCover(p, max_prec)

    def lift(self, a, cover: PadicPolyCover):
        return cover.make(a)

    def reduce(self, v: PadicVal, cover: PadicPolyCover):
        if v.prec < 1:
            raise ArithmeticError("precision exhausted")
        return _trim((v.arr % self.p).tolist())

    def label(self) -> str:
        return f"F_{self.p}[x]"

    def __eq__(self, other):
        return isinstance(other, GFPolyRing) and self.p == other.p

    def __hash__(self):
        return hash(("GFPolyRing", self.p))


class QuotPolyRing:
    """F_p[x]/(f) for monic f; elements are coefficient tuples of length < deg f."""

    is_finite = True

    def __init__(self, p: int, f: Sequence[int]):
        f = _trim([c % p for c in f])
        if not f or f[-1] != 1 or len(f) < 2:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.char = p
        self.f = f
        self.deg = len(f) - 1

    def _red(self, a):
        return poly_rem_monic(a, self.f, self.p)

    def zero(self):
        return ()

    def one(self):
        return (1,)

    def add(self, a, b):
        return poly_add(a, b, self.p)

    def neg(self, a):
        return tuple((-v) % self.p for v in a)

    def sub(self, a, b):
        return poly_add(a, self.neg(b), self.p)

    def mul(self, a, b):
        return self._red(poly_mul(a, b))

    def frobenius(self, a):
        return self._red(_substitute_pth_power(a, self.p))

    def from_int(self, n):
        return _trim([n % self.p])

    def elements(self) -> Iterator[IntPoly]:
        # the constant coefficient runs fastest
        return (_trim(c[::-1]) for c in product(range(self.p), repeat=self.deg))

    def random_element(self, rng):
        return _trim([rng.randrange(self.p) for _ in range(self.deg)])

    def witt_cover(self, p: int, r: int):
        if p != self.p:
            raise ValueError("prime mismatch between Witt ring and base")
        return QuotPolyCover(p, self.f)

    def lift(self, a, cover):
        return tuple(a)

    def reduce(self, v, cover):
        return poly_rem_monic(v, self.f, self.p)

    def label(self) -> str:
        return f"F_{self.p}[x]/({self.f})"

    def __eq__(self, other):
        return isinstance(other, QuotPolyRing) and self.p == other.p and self.f == other.f

    def __hash__(self):
        return hash(("QuotPolyRing", self.p, self.f))
