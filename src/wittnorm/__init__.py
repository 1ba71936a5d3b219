"""Exact computational algebra for truncated Witt vectors, cyclic-group
Mackey functors, polynomial Witt vectors, de Rham-Witt complexes and
trace-theory checks.

The root holds the names that several layers and the command line read:
the prime check, the default tensor cap and the failures that `cli.main`
maps to exit codes.  Every process loads the root, so it imports no
package module, and a reader of these names loads no layer for them."""

from math import isqrt

__version__ = "0.1.0"

DEFAULT_CAP = 4096


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime."""
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        raise ValueError(f"p must be a prime, got {p}")


class CapExceeded(ValueError):
    """Tensor power dimension exceeds the configured cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"tensor power needs dimension {needed}, above the cap {cap}; "
            f"pick a smaller dimension or truncation, or raise the cap"
        )
        self.needed = needed
        self.cap = cap


class MackeyError(ValueError):
    """A Mackey-functor invariant or map condition failed."""


class SaturationError(RuntimeError):
    """The saturation did not close the tower: it ran out of rounds, or an
    operator hom does not descend to the quotients."""
