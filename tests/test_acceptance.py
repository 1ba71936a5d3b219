"""Acceptance gate: one test per headline criterion.

Each criterion runs through the same suite machinery the CLI exposes,
with its stated wall-clock budget asserted, so `pytest -v` prints one
pass/fail line per criterion.  Everything is exact arithmetic; there are
no tolerances anywhere.
"""

import time
from typing import Dict

import pytest

from wittnorm.abgroups import FgAbGroup
from wittnorm.intlinalg import IntMatrix
from wittnorm.mackey import CyclicGroupSpec, CyclicMackeyFunctor, MackeyError, witt_mackey
from wittnorm.abgroups import GroupHom
from wittnorm.polywitt import FpVectorSpace, tate_polywitt
from wittnorm.serialize import emit_json
from wittnorm.suites import SUITE_IDS, run_suite

_SEED = 0
_REPORTS: Dict[str, str] = {}


def _run(suite: str, budget: float) -> None:
    t0 = time.perf_counter()
    rep = run_suite(suite, seed=_SEED)
    elapsed = time.perf_counter() - t0
    _REPORTS.setdefault(suite, emit_json(rep))
    bad = [(r.key, r.witness) for r in rep.records if not r.ok and not r.skipped]
    assert not bad, f"{suite} failures: {bad}"
    assert rep.skipped == 0, f"{suite} skipped records at the default cap"
    assert rep.total > 0
    assert elapsed < budget, f"{suite} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_1_witt_ring_suite():
    # p in {2,3,5}, four base rings each, 200 seeded triples per pair,
    # truncation lengths cycling 1..4: ring axioms against the ghost
    # oracle and the universal tables, plus the F/V/R identities
    _run("witt", 60.0)


def test_criterion_2_cartier_tower_squares():
    # towers over F_2, F_3, Z/4, F_2[x]/(x^2) up to length 3; every
    # structure square is checked during construction
    _run("cartier", 30.0)


def test_criterion_3_mackey_validator_everywhere():
    # constructors validate on construction, and the suite re-validates
    # a catalog spanning every constructor
    _run("mackey", 60.0)
    spec = CyclicGroupSpec(2, 1)
    z = FgAbGroup([0])
    ident = GroupHom.identity(z)
    with pytest.raises(MackeyError):
        # transfer after restriction is 1, not p: must be rejected
        CyclicMackeyFunctor(spec, [z, z], [ident], [ident], [ident, ident])


def test_criterion_4_witt_resolution_exact():
    # five-term resolution exact for p in {2,3}, r in {1,2,3}, and base
    # change of the constant functor isomorphic to the Witt functor via
    # an explicit levelwise map
    _run("resolution", 60.0)


def test_criterion_5_pipeline_comparison_grid():
    # both polynomial-Witt pipelines agree on the whole grid; the
    # (p=2, d=2, r=2) instance is pinned to invariant factors (2, 4, 4),
    # independently confirmed by the enumeration oracle below
    _run("compare", 600.0)
    headline = tate_polywitt(FpVectorSpace(2, 2), 2)
    assert headline.group == FgAbGroup([2, 4, 4])
    from test_abgroups import order_histogram
    from test_polywitt import brute_force_headline_histogram
    assert order_histogram(headline.group) == brute_force_headline_histogram()


def test_criterion_6_lift_independence():
    # 20 seeded unimodular conjugations per r=2 instance leave the
    # Tate output unchanged
    _run("lift", 120.0)


def test_criterion_7_drw_tower_suite():
    # p in {2,3}, r <= 3, one variable, weight cap 8: ten structure
    # axioms, level one equal to the classical complex, degree zero
    # equal to weight-graded Witt vectors, and stability under a cap
    # increase to 10
    _run("drw", 300.0)


def test_criterion_8_trace_axioms():
    # orbit theory passes every exchange axiom exhaustively for
    # m in {2,3} over F_2 up to rank 2; the raw power exhibits a
    # counterexample; the norm-functor theory descends at p=2, r=2
    _run("trace", 300.0)


def test_criterion_9_byte_identical_reruns():
    for suite in SUITE_IDS:
        first = _REPORTS.get(suite) or emit_json(run_suite(suite, seed=_SEED))
        again = emit_json(run_suite(suite, seed=_SEED))
        assert again == first, f"suite {suite} is not byte-stable"
