"""Verification suites: seeded, deterministic, one record per instance.

Each suite builds a list of keyed instance thunks and executes them in
order.  Instance randomness is derived from the run seed and the
instance key, so records are independent of execution order; the report
sorts records by key before emission.  A cap violation surfaces as a
SKIP record with the reason, never as a silent omission.
"""

from __future__ import annotations

import hashlib
import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .drw import (
    build_drw,
    check_fv_axioms,
    degree_zero_witt_comparison,
    lambda_ring_check,
    level_one_matches_de_rham,
    stable_under_cap_increase,
    universal_map_check,
)
from .mackey import (
    augmentation,
    augmentation_cokernel,
    base_change_to_witt,
    box_with_permutation,
    constant_mackey,
    find_cyclic_iso,
    fixed_point_mackey,
    inflate_mackey,
    mackey_cokernel,
    mackey_direct_sum,
    mackey_induce,
    mackey_kernel,
    mackey_restrict,
    orbit_gmodule,
    permutation_mackey,
    regular_gmodule,
    validate_mackey,
    witt_mackey,
    witt_mackey_resolution,
    zero_mackey,
)
from .polywitt import (
    DEFAULT_CAP,
    CapExceeded,
    FpVectorSpace,
    canonical_lift,
    compare_pipelines,
    compare_with_norm,
    comparison_grid,
    fv_on_norm,
    lift_independence_report,
    norm_over_W,
    norm_over_Z,
)
from .rings import GFPolyRing, QuotPolyRing, ZModRing, ZRing
from .serialize import InstanceRecord, SuiteReport
from .traces import negative_raw_power, polywitt_trace, run_axiom_checks, tensor_power_orbit_trace
from .witt import WittRing, cartier_tower, get_table, table_is_cheap

SUITE_IDS = ("witt", "cartier", "mackey", "resolution", "compare",
             "lift", "drw", "trace")

GridFilter = Optional[Dict[str, Set[int]]]

Thunk = Callable[[], Optional[str]]  # returns a witness string on failure


def _instance_seed(seed: int, key: str) -> int:
    digest = hashlib.blake2s(f"{seed}:{key}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _grid_allows(grid: GridFilter, **vals: int) -> bool:
    if not grid:
        return True
    for name, v in vals.items():
        allowed = grid.get(name)
        if allowed is not None and v not in allowed:
            return False
    return True


# ---------------------------------------------------------------------------
# witt: ring axioms against the ghost oracle and the universal tables,
# plus the F, V, R identities, on seeded triples over four base rings


def _witt_triples(p: int, base_factory, seed: int, triples: int = 200) -> Optional[str]:
    rng = random.Random(seed)
    rings = {r: WittRing(p, r, base_factory()) for r in range(1, 5)}
    tables = {r: get_table(p, r) for r in range(1, 5) if table_is_cheap(p, r)}
    for t in range(triples):
        r = 1 + (t % 4)
        w = rings[r]
        base = w.base
        a, b, c = (w.random_element(rng) for _ in range(3))

        def fail(name: str) -> str:
            return (f"{name} at r={r} a={a.components} b={b.components}"
                    f" c={c.components}")

        if a + b != b + a:
            return fail("commutativity of addition")
        if (a + b) + c != a + (b + c):
            return fail("associativity of addition")
        if (a * b) * c != a * (b * c):
            return fail("associativity of multiplication")
        if a * (b + c) != a * b + a * c:
            return fail("distributivity")
        if a + (-a) != w.zero():
            return fail("additive inverse")
        if a * w.one() != a:
            return fail("multiplicative identity")
        ga, gb = a.ghost(), b.ghost()
        if (a + b).ghost() != [base.add(x, y) for x, y in zip(ga, gb)]:
            return fail("ghost of sum")
        if (a * b).ghost() != [base.mul(x, y) for x, y in zip(ga, gb)]:
            return fail("ghost of product")
        if (-a).ghost() != [base.neg(x) for x in ga]:
            return fail("ghost of negation")
        tab = tables.get(r)
        if tab is not None:
            if list((a + b).components) != tab.eval_sum(base, a.components, b.components):
                return fail("universal sum polynomials")
            if list((a * b).components) != tab.eval_prod(base, a.components, b.components):
                return fail("universal product polynomials")
            if list((-a).components) != tab.eval_neg(base, a.components):
                return fail("universal negation polynomials")
        if r >= 2:
            u = w.restrict(a)
            ur = u.ring
            vu = ur.verschiebung(u)
            if vu.ring.frobenius(vu) != ur.scalar_mul(p, u):
                return fail("FV = p")
            fa = w.frobenius(a)
            if ur.verschiebung(fa * u) != a * ur.verschiebung(u):
                return fail("Frobenius reciprocity")
            x, y = u, w.restrict(b)
            if ur.verschiebung(x) * ur.verschiebung(y) != w.scalar_mul(
                    p, ur.verschiebung(x * y)):
                return fail("V(x)V(y) = pV(xy)")
        if r >= 3:
            fa, ra = w.frobenius(a), w.restrict(a)
            if fa.ring.restrict(fa) != ra.ring.frobenius(ra):
                return fail("RF = FR")
            u = w.restrict(a)
            vu = u.ring.verschiebung(u)
            ru = u.ring.restrict(u)
            if w.restrict(vu) != ru.ring.verschiebung(ru):
                return fail("RV = VR")
    return None


def _witt_instances(seed: int, grid: GridFilter) -> List[Tuple[str, dict, Thunk]]:
    out: List[Tuple[str, dict, Thunk]] = []
    for p in (2, 3, 5):
        if not _grid_allows(grid, p=p):
            continue
        bases = [
            ("Z", ZRing),
            ("Fp", lambda p=p: ZModRing(p)),
            ("Zp2", lambda p=p: ZModRing(p * p)),
            ("Fpx", lambda p=p: GFPolyRing(p, random_degree=4)),
        ]
        for label, factory in bases:
            key = f"witt p={p} base={label}"
            inputs = {"p": p, "base": label, "triples": 200, "r": "1..4"}

            def thunk(p=p, factory=factory, key=key) -> Optional[str]:
                return _witt_triples(p, factory, _instance_seed(seed, key))

            out.append((key, inputs, thunk))
    return out


# ---------------------------------------------------------------------------
# cartier: tower construction verifies every structure square on the way


def _cartier_instances(seed: int, grid: GridFilter) -> List[Tuple[str, dict, Thunk]]:
    cases = [
        ("F2", 2, lambda: ZModRing(2)),
        ("F3", 3, lambda: ZModRing(3)),
        ("Z4", 2, lambda: ZModRing(4)),
        ("F2[x]/(x^2)", 2, lambda: QuotPolyRing(2, [0, 0, 1])),
    ]
    out = []
    for label, p, factory in cases:
        if not _grid_allows(grid, p=p):
            continue
        key = f"cartier base={label}"
        inputs = {"base": label, "p": p, "r_max": 3}

        def thunk(p=p, factory=factory, key=key) -> Optional[str]:
            try:
                cartier_tower(factory(), p, 3, pair_samples=150,
                              seed=_instance_seed(seed, key))
            except AssertionError as exc:
                return str(exc)
            return None

        out.append((key, inputs, thunk))
    return out


# ---------------------------------------------------------------------------
# mackey: every constructor output re-validated explicitly


def _mackey_catalog() -> List[Tuple[str, Callable[[], object]]]:
    return [
        ("constant p=2 n=2", lambda: constant_mackey(2, 2)),
        ("constant p=3 n=1", lambda: constant_mackey(3, 1)),
        ("zero p=2 n=2", lambda: zero_mackey(2, 2)),
        ("witt p=2 n=2", lambda: witt_mackey(2, 2)),
        ("witt p=3 n=2", lambda: witt_mackey(3, 2)),
        ("witt p=5 n=1", lambda: witt_mackey(5, 1)),
        ("fixed-point regular p=2 n=2", lambda: fixed_point_mackey(regular_gmodule(2, 2))),
        ("fixed-point orbit p=2 n=2 h=1", lambda: fixed_point_mackey(orbit_gmodule(2, 2, 1))),
        ("fixed-point orbit p=3 n=2 h=1", lambda: fixed_point_mackey(orbit_gmodule(3, 2, 1))),
        ("permutation p=2 n=2 orbits=0,1,2", lambda: permutation_mackey(2, 2, [0, 1, 2])),
        ("permutation p=3 n=1 orbits=0,1", lambda: permutation_mackey(3, 1, [0, 1])),
        ("box-perm witt p=2 n=2 k=1", lambda: box_with_permutation(witt_mackey(2, 2), 1)),
        ("box-perm constant p=3 n=1 k=0", lambda: box_with_permutation(constant_mackey(3, 1), 0)),
        ("induce constant p=2 to n=2", lambda: mackey_induce(constant_mackey(2, 1), 2)),
        ("restrict witt p=2 n=2 to 1", lambda: mackey_restrict(witt_mackey(2, 2), 1)),
        ("inflate witt p=2 n=1", lambda: inflate_mackey(witt_mackey(2, 1))),
        ("direct sum witt+constant p=2", lambda: mackey_direct_sum(witt_mackey(2, 1), constant_mackey(2, 1))),
        ("q functor of constant p=2 n=2", lambda: augmentation_cokernel(constant_mackey(2, 2))),
        ("base change of constant p=2 n=2", lambda: base_change_to_witt(constant_mackey(2, 2))),
        ("kernel of augmentation p=2 n=2", lambda: mackey_kernel(augmentation(2, 2))),
        ("cokernel of augmentation p=2 n=2", lambda: mackey_cokernel(augmentation(2, 2))),
        ("norm over Z p=2 d=2 r=2", lambda: norm_over_Z(canonical_lift(FpVectorSpace(2, 2)), 2, 2)),
        ("norm over W p=2 d=2 r=2", lambda: norm_over_W(FpVectorSpace(2, 2), 2)),
        ("norm over W p=3 d=1 r=2", lambda: norm_over_W(FpVectorSpace(3, 1), 2)),
    ]


def _mackey_instances(seed: int, grid: GridFilter) -> List[Tuple[str, dict, Thunk]]:
    out = []
    for label, build in _mackey_catalog():
        key = f"mackey validate {label}"

        def thunk(build=build) -> Optional[str]:
            validate_mackey(build())
            return None

        out.append((key, {"constructor": label}, thunk))
    return out


# ---------------------------------------------------------------------------
# resolution: the five-term Witt resolution is exact and base change of
# the constant functor is isomorphic to the Witt functor


def _resolution_instances(seed: int, grid: GridFilter) -> List[Tuple[str, dict, Thunk]]:
    out = []
    for p in (2, 3):
        for r in (1, 2, 3):
            if not _grid_allows(grid, p=p, r=r):
                continue
            key = f"resolution exact p={p} r={r}"

            def thunk(p=p, r=r) -> Optional[str]:
                res = witt_mackey_resolution(p, r)
                for obj in res.objects:
                    validate_mackey(obj)
                rep = res.check()
                if not rep.ok:
                    return f"exactness failures: {rep.failures()}"
                return None

            out.append((key, {"p": p, "r": r}, thunk))

            key2 = f"resolution base-change iso p={p} r={r}"

            def thunk2(p=p, r=r) -> Optional[str]:
                bc = base_change_to_witt(constant_mackey(p, r - 1))
                wm = witt_mackey(p, r - 1)
                iso = find_cyclic_iso(bc, wm)
                if iso is None:
                    return (f"no explicit isomorphism: levels "
                            f"{[g.moduli for g in bc.levels]} vs "
                            f"{[g.moduli for g in wm.levels]}")
                return None

            out.append((key2, {"p": p, "r": r}, thunk2))
    return out


# ---------------------------------------------------------------------------
# compare: the two polynomial-Witt pipelines agree on the whole grid


def _compare_instances(seed: int, cap: int, grid: GridFilter) -> List[Tuple[str, dict, Thunk]]:
    out = []
    for p, d, r in comparison_grid():
        if not _grid_allows(grid, p=p, d=d, r=r):
            continue
        key = f"compare p={p} d={d} r={r}"

        def thunk(p=p, d=d, r=r) -> Optional[str]:
            space = FpVectorSpace(p, d)
            rep, w = compare_with_norm(space, r, cap=cap)
            if not rep.passed:
                return f"tate={rep.tate} norm={rep.norm}"
            validate_mackey(w)
            fv = fv_on_norm(space, r, w)
            if not fv.ok:
                return f"frobenius/verschiebung checks failed: {fv.checks}"
            return None

        out.append((key, {"p": p, "d": d, "r": r}, thunk))
    if _grid_allows(grid, p=2, d=2, r=2):
        def frozen() -> Optional[str]:
            rep = compare_pipelines(FpVectorSpace(2, 2), 2, cap=cap)
            want = (2, 4, 4)
            if rep.tate != want or rep.norm != want:
                return f"expected invariant factors {want}, got tate={rep.tate} norm={rep.norm}"
            return None

        out.append(("compare frozen p=2 d=2 r=2 factors=(2,4,4)",
                    {"p": 2, "d": 2, "r": 2}, frozen))
    return out


# ---------------------------------------------------------------------------
# lift: Tate output unchanged under unimodular rewrites of the lift basis


def _lift_instances(seed: int, cap: int, grid: GridFilter) -> List[Tuple[str, dict, Thunk]]:
    out = []
    cases = [(p, d) for (p, d, r) in comparison_grid() if r == 2]
    for p, d in cases:
        if not _grid_allows(grid, p=p, d=d, r=2):
            continue
        key = f"lift p={p} d={d} r=2"

        def thunk(p=p, d=d, key=key) -> Optional[str]:
            results = lift_independence_report(
                FpVectorSpace(p, d), 2, samples=20,
                seed=_instance_seed(seed, key), cap=cap)
            bad = [i for i, ok in enumerate(results) if not ok]
            if bad:
                return f"conjugations {bad} changed the Tate group"
            return None

        out.append((key, {"p": p, "d": d, "r": 2, "samples": 20}, thunk))
    return out


# ---------------------------------------------------------------------------
# drw: the ten structure axioms, the level-one and degree-zero
# identifications, and cap stability for every tower in the grid


def _drw_instances(seed: int, grid: GridFilter) -> List[Tuple[str, dict, Thunk]]:
    out = []
    for p in (2, 3):
        for r in (1, 2, 3):
            if not _grid_allows(grid, p=p, r=r):
                continue
            key = f"drw tower p={p} r={r} cap=8"

            def thunk(p=p, r=r, key=key) -> Optional[str]:
                tower = build_drw(p, r, 1, 8)
                rep = check_fv_axioms(tower, samples=40,
                                      seed=_instance_seed(seed, key))
                if not rep.ok:
                    return f"axiom failures: {rep.failures()}"
                if not level_one_matches_de_rham(tower):
                    return "level one differs from the classical complex"
                if not degree_zero_witt_comparison(tower):
                    return "degree zero differs from weight-graded Witt vectors"
                if not lambda_ring_check(tower, samples=20,
                                         seed=_instance_seed(seed, key)):
                    return "multiplicative structure map failed"
                um = universal_map_check(tower, target="self")
                if not um.ok:
                    return f"universal map to self failed: {um}"
                return None

            out.append((key, {"p": p, "r": r, "vars": 1, "weight_cap": 8}, thunk))

            key2 = f"drw stability p={p} r={r} cap=8->10"

            def thunk2(p=p, r=r) -> Optional[str]:
                if not stable_under_cap_increase(p, r, 1, 8, bump=2):
                    return "piece moduli changed when the weight cap grew"
                return None

            out.append((key2, {"p": p, "r": r, "vars": 1,
                               "weight_cap": "8->10"}, thunk2))
    return out


# ---------------------------------------------------------------------------
# trace: exchange axioms for the orbit theory, the raw-power
# counterexample, and descent of the norm-functor theory


def _trace_instances(seed: int, grid: GridFilter) -> List[Tuple[str, dict, Thunk]]:
    out = []
    for m in (2, 3):
        if not _grid_allows(grid, m=m):
            continue
        key = f"trace orbit m={m} base=F2"

        def thunk(m=m, key=key) -> Optional[str]:
            th = tensor_power_orbit_trace(m, 2, rank_cap=2)
            for rep in run_axiom_checks(th, samples=12,
                                        seed=_instance_seed(seed, key)):
                if not rep.ok:
                    return f"{rep.axiom}: {rep.witness}"
            return None

        out.append((key, {"m": m, "base_char": 2, "rank_cap": 2}, thunk))

        key2 = f"trace negative raw m={m} base=F2"

        def thunk2(m=m) -> Optional[str]:
            rep = negative_raw_power(m, 2, rank_cap=2)
            if not rep.passed:
                return "no counterexample found within the rank cap"
            return None

        out.append((key2, {"m": m, "base_char": 2, "rank_cap": 2}, thunk2))
    if _grid_allows(grid, p=2, r=2):
        def thunk3() -> Optional[str]:
            data = polywitt_trace(2, 2, rank_cap=2, samples=12,
                                  seed=_instance_seed(seed, "trace polywitt"))
            if not data.descended:
                bad = [r for r in data.reports if not r.ok]
                return f"descent failed: {[(r.axiom, r.witness) for r in bad]}"
            return None

        out.append(("trace polywitt p=2 r=2",
                    {"p": 2, "r": 2, "rank_cap": 2}, thunk3))
    return out


# ---------------------------------------------------------------------------
# orchestration


_BUILDERS = {
    "witt": lambda seed, cap, grid: _witt_instances(seed, grid),
    "cartier": lambda seed, cap, grid: _cartier_instances(seed, grid),
    "mackey": lambda seed, cap, grid: _mackey_instances(seed, grid),
    "resolution": lambda seed, cap, grid: _resolution_instances(seed, grid),
    "compare": lambda seed, cap, grid: _compare_instances(seed, cap, grid),
    "lift": lambda seed, cap, grid: _lift_instances(seed, cap, grid),
    "drw": lambda seed, cap, grid: _drw_instances(seed, grid),
    "trace": lambda seed, cap, grid: _trace_instances(seed, grid),
}


def _run_one(key: str, inputs: dict, thunk: Thunk) -> InstanceRecord:
    t0 = time.perf_counter()
    try:
        witness = thunk()
        ok, skipped = witness is None, False
    except CapExceeded as exc:
        witness, ok, skipped = str(exc), True, True
    except Exception as exc:  # a failed check, recorded with its reason
        witness, ok, skipped = f"{type(exc).__name__}: {exc}", False, False
    ms = int((time.perf_counter() - t0) * 1000)
    return InstanceRecord(key=key, inputs=inputs, ok=ok, skipped=skipped,
                          witness=witness, ms=ms)


def run_suite(suite: str, seed: int = 0, cap: Optional[int] = None,
              grid: GridFilter = None) -> SuiteReport:
    if suite not in _BUILDERS:
        raise ValueError(f"unknown suite {suite!r}; known: {', '.join(SUITE_IDS)}")
    cap_val = DEFAULT_CAP if cap is None else cap
    instances = _BUILDERS[suite](seed, cap_val, grid)
    report = SuiteReport(suite=suite, seed=seed, cap=cap_val)
    report.records = [_run_one(k, i, t) for k, i, t in instances]
    report.sort()
    return report


def run_suites(suites: Sequence[str], seed: int = 0, cap: Optional[int] = None,
               grid: GridFilter = None) -> List[SuiteReport]:
    ids = list(SUITE_IDS) if list(suites) == ["all"] else list(suites)
    return [run_suite(s, seed=seed, cap=cap, grid=grid) for s in ids]
