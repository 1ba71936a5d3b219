"""Exact computational algebra for truncated Witt vectors, cyclic-group
Mackey functors, polynomial Witt vectors, de Rham-Witt complexes and
trace-theory checks."""

from math import isqrt

__version__ = "0.1.0"


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime.

    It lives in the package root, which every layer loads anyway, so that
    a layer checking its prime imports no other layer for it."""
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be a prime, got {p}")
