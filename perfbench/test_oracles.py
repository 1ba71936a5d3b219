"""Each oracle accepts a hand-derived answer and rejects corrupted ones.

    python3 -m pytest perfbench/test_oracles.py    or
    python3 perfbench/test_oracles.py
"""

import os
import sys
from fractions import Fraction as F

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


# (a) rotation-orbit count


def test_orbit_factors_by_hand():
    # length-2 tuples over {0, 1}: two constant orbits, one orbit of size 2
    assert oracles.rotation_orbit_factors(2, 2, 2) == (2, 4, 4)
    # length-3 tuples over {0, 1}: two constant orbits, two of size 3
    assert oracles.rotation_orbit_factors(3, 2, 2) == (3, 3, 9, 9)
    assert oracles.rotation_orbit_factors(2, 1, 3) == (8,)
    assert oracles.check_factors(2, 2, 2, (2, 4, 4)) == []


def test_orbit_factors_reject_corruption():
    for bad in [(2, 4, 8), (2, 4), (2, 2, 4, 4), (4, 4, 2)]:
        assert oracles.check_factors(2, 2, 2, bad), bad


# (b) basic Witt differentials


def _hand_tower_p2_r2_cap2():
    """Nonzero pieces of the p=2, r=2 tower of F_2[x] up to weight 2."""
    pieces = {}
    for w in (F(0), F(1), F(2)):
        pieces[(1, 0, w)] = (2,)          # [x]^w
        pieces[(2, 0, w)] = (4,)
    for w in (F(1), F(2)):
        pieces[(1, 1, w)] = (2,)          # [x]^(w-1) d[x]
        pieces[(2, 1, w)] = (4,)
    for w in (F(1, 2), F(3, 2)):
        pieces[(2, 0, w)] = (2,)          # V[x]^(2w)
        pieces[(2, 1, w)] = (2,)          # dV[x]^(2w)
    pieces[(1, 1, F(0))] = ()
    pieces[(2, 2, F(1))] = ()
    return pieces


def test_tower_by_hand():
    assert oracles.check_tower(2, 2, 2, _hand_tower_p2_r2_cap2()) == []


def test_tower_rejects_corruption():
    good = _hand_tower_p2_r2_cap2()
    wrong_order = dict(good)
    wrong_order[(2, 0, F(1))] = (2,)
    missing = dict(good)
    del missing[(2, 1, F(3, 2))]
    extra_degree = dict(good)
    extra_degree[(2, 2, F(1))] = (2,)
    zero_weight_form = dict(good)
    zero_weight_form[(1, 1, F(0))] = (2,)
    for bad in (wrong_order, missing, extra_degree, zero_weight_form):
        assert oracles.check_tower(2, 2, 2, bad)


# (c) ghost-lift congruences


X = (0, 1)
X2 = (0, 0, 1)
X3 = (0, 0, 0, 1)


def test_witt_ops_by_hand():
    ok = oracles.check_witt_op
    # [x] + [x] = (0, -x^2) = (0, x^2) in W_2(F_2[x])
    assert ok(2, "add", (X, ()), (X, ()), ((), X2)) == []
    # [x] + [x] = (2x, -2x^3) = (2x, x^3) in W_2(F_3[x])
    assert ok(3, "add", (X, ()), (X, ()), ((0, 2), X3)) == []
    assert ok(2, "mul", (X, ()), (X, ()), (X2, ())) == []
    # -1 = (1, 1) in W_2(F_2), so -[x] = (x, x^2)
    assert ok(2, "neg", (X, ()), (), (X, X2)) == []
    assert ok(2, "frobenius", (X, ()), (), (X2,)) == []
    assert ok(2, "verschiebung", (X,), (), ((), X)) == []
    # ghost of (x, 1): (x, x^2 + 2) = (x, x^2) in F_2[x]
    assert ok(2, "ghost", (X, (1,)), (), (X, X2)) == []


def test_witt_ops_reject_corruption():
    bad = oracles.check_witt_op
    assert bad(2, "add", (X, ()), (X, ()), ((), ()))
    assert bad(2, "add", (X, ()), (X, ()), (X, X2))
    assert bad(3, "add", (X, ()), (X, ()), ((0, 2), ()))
    assert bad(2, "mul", (X, ()), (X, ()), (X2, X))
    assert bad(2, "neg", (X, ()), (), (X, ()))
    assert bad(2, "frobenius", (X, ()), (), (X,))
    assert bad(2, "verschiebung", (X,), (), (X, ()))
    assert bad(2, "ghost", (X, (1,)), (), (X, X))
    assert bad(2, "add", (X, ()), (X, ()), ((), (0, 0, 3)))  # not reduced mod p
    assert bad(2, "add", (X, ()), (X, ()), ((),))            # wrong length


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for t in tests:
        t()
    print(f"{len(tests)} oracle tests passed")
