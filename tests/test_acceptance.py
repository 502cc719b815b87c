"""End-to-end acceptance checks.

Each test covers one shipping criterion at its stated tolerance and
prints one PASS line (visible with ``pytest -s`` or in captured output
on failure).  Expected values that are not pinned by hand are computed
by independent oracles: alternating cell counts for Euler
characteristics, union-find for components, pure balance arithmetic
for the atomicity audit.
"""

import time
from pathlib import Path

import pytest

from topocbt.chain import BlockRef, Chain, Federation
from topocbt.engine import FailurePlan, SimulatedCrash, Status, TopoCbtEngine
from topocbt.harness import (
    AUDIT_PARTIAL,
    FIT_TOLERANCE,
    audit_atomicity,
    compare_protocols,
    complexity_fit,
    fit_ops,
    measure_grid,
    run_scenario,
)
from topocbt.scenario import (
    FailureSpec,
    car_trading,
    load_scenario,
    parse_scenario,
)
from topocbt.simplicial import Simplex, SimplicialComplex
from topocbt.topology import (
    CrossChainTransaction,
    TopologyMode,
    build_federation_complex,
    expected_transaction_dimension,
    transaction_simplex,
)
from oracles import SplitMix64, UnionFind, asset_totals, random_scenario, vertices
from test_topology import DRIFT_CASES, assert_dimension_matches_oracle

DATA = Path(__file__).parent / "data"


def _ok(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def linked_pair_complex():
    return SimplicialComplex.from_simplices([Simplex((0, 1, 2, 3)), Simplex((4, 5, 6)), Simplex((3, 4))])


def three_chain_two_txn_build():
    fed = Federation()
    for cid, length in ((1, 4), (2, 3), (3, 2)):
        ch = Chain(cid)
        for _ in range(length):
            ch.append_block(0, ())
        fed.add_chain(ch)
    t1 = CrossChainTransaction(1, ("a", "b"), (BlockRef(1, 2), BlockRef(2, 2)), ())
    t2 = CrossChainTransaction(2, ("a", "b", "c"), (BlockRef(1, 4), BlockRef(2, 3), BlockRef(3, 2)), ())
    return build_federation_complex(fed, [t1, t2])


def double_fork_build():
    fed = Federation()
    for cid in (1, 2):
        ch = Chain(cid)
        for _ in range(3):
            ch.append_block(0, ())
        label = ch.spawn_fork(2)
        ch.append_block(label, ())
        fed.add_chain(ch)
    deal = CrossChainTransaction(9, ("a", "b"), (BlockRef(1, 2), BlockRef(2, 2)), ())
    return fed, deal


def test_criterion_1_betti_reproduction():
    t0 = time.monotonic()
    assert linked_pair_complex().betti_numbers() == (1, 0, 0, 0)
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    assert three_chain_two_txn_build().betti_numbers() == (1, 1, 0)
    assert time.monotonic() - t0 < 1.0

    t0 = time.monotonic()
    fed, deal = double_fork_build()
    assert build_federation_complex(fed, [deal]).betti_numbers() == (1, 4, 0, 0)
    assert time.monotonic() - t0 < 1.0
    _ok(1, "betti vectors (1,0,0,0) / (1,1,0) / (1,4,0,0) reproduced exactly")


def test_criterion_2_euler_betti_and_component_oracles():
    t0 = time.monotonic()
    for seed in range(500):
        rng = SplitMix64(seed)
        n_vertices = rng.randrange(1, 12)
        simplices = []
        for _ in range(rng.randrange(1, 8)):
            size = rng.randrange(1, min(5, n_vertices))
            pool = list(range(n_vertices))
            rng.shuffle(pool)
            simplices.append(Simplex(tuple(sorted(pool[:size]))))
        complex_ = SimplicialComplex.from_simplices(simplices)
        assert complex_.dimension <= 4

        betti = complex_.betti_numbers()
        euler_by_cells = sum((-1) ** s.dimension for s in complex_)
        assert sum((-1) ** k * b for k, b in enumerate(betti)) == euler_by_cells, f"seed {seed}"

        uf = UnionFind()
        for v in vertices(complex_):
            uf.find(v)
        for edge in complex_.simplices_of_dim(1):
            uf.union(*edge.vertices)
        assert betti[0] == uf.component_count(), f"seed {seed}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok(2, f"500 random complexes: Euler identity and union-find components exact ({elapsed:.1f}s)")


def test_criterion_3_atomicity_property_suite():
    t0 = time.monotonic()
    crashes = 0
    for seed in range(1000):
        scen = random_scenario(seed)
        fed = scen.build_federation()
        txn = scen.transactions()[0]
        pre = fed.balances()
        engine = TopoCbtEngine(fed)
        try:
            outcome = engine.execute(txn, scen.plan_for(1))
            assert outcome.status in (Status.COMMITTED, Status.ABORTED)
        except SimulatedCrash:
            crashes += 1
            engine.recover()
        assert audit_atomicity(pre, txn, fed.balances()) != AUDIT_PARTIAL, f"seed {seed}"
        assert fed.locks == {}, f"seed {seed}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert crashes > 100  # the plan space must actually exercise crash recovery
    _ok(3, f"1000 randomized runs all-or-nothing, {crashes} with crash+recovery ({elapsed:.1f}s)")


def _failure_suite():
    clean = car_trading()
    walk = car_trading()
    walk.name = "walkaway"
    walk.failures.append(FailureSpec(txn=1, kind="walk_away", at="cindy"))
    late = car_trading()
    late.name = "late-claim"
    late.failures.append(FailureSpec(txn=1, kind="timeout", at=2))
    crash = car_trading()
    crash.name = "coordinator-crash"
    crash.failures.append(FailureSpec(txn=1, kind="witness_crash"))
    crash.failures.append(FailureSpec(txn=1, kind="crash_before_commit", at=3))
    flaky = car_trading()
    flaky.name = "flaky-update"
    flaky.failures.append(FailureSpec(txn=1, kind="update_failure", at=3))
    return [clean, walk, late, crash, flaky]


def test_criterion_4_capability_pattern():
    table = compare_protocols(_failure_suite(), seeds=[1, 2])
    pattern = table.pattern()
    assert table.count("ac2s", Status.PARTIAL_COMMIT) >= 1
    assert table.count("ac2s", Status.BLOCKED) == 0
    assert table.count("ac3wn", Status.PARTIAL_COMMIT) == 0
    assert table.count("ac3wn", Status.BLOCKED) >= 1
    assert table.count("topocbt", Status.PARTIAL_COMMIT) == 0
    assert table.count("topocbt", Status.BLOCKED) == 0
    assert pattern == {
        "ac2s": {"partial_commit": True, "blocked": False},
        "ac3wn": {"partial_commit": False, "blocked": True},
        "topocbt": {"partial_commit": False, "blocked": False},
    }
    _ok(4, "capability grid matches: swaps lose atomicity, 2PC blocks, the engine does neither")


def test_criterion_5_car_trading_goldens():
    scen, _ = load_scenario("car-trading")
    report = run_scenario(scen, 1)
    assert report.to_csv() == (DATA / "car_trading_topocbt_seed1.csv").read_text()

    fed = scen.build_federation()
    TopoCbtEngine(fed).execute(scen.transactions()[0])
    balances = fed.balances()
    assert balances[("alice", "CAR")] == 1 and balances[("alice", "ETH")] == 0
    assert balances[("bob", "ETH")] == 10 and balances[("bob", "BTC")] == 0
    assert balances[("cindy", "BTC")] == 1 and balances[("cindy", "CAR")] == 0
    assert asset_totals(fed) == {"ETH": 10, "BTC": 1, "CAR": 1}

    walk = parse_scenario((DATA / "car_trading_walkaway.scenario").read_text())
    report2 = run_scenario(walk, 1, protocol_override="ac2s")
    assert report2.to_csv() == (DATA / "car_trading_ac2s_walkaway_seed1.csv").read_text()
    row = report2.rows[0]
    assert row.worse_off == ("alice",)
    fed2 = walk.build_federation()
    from topocbt.baselines import ac2s_execute

    ac2s_execute(fed2, walk.transactions()[0], walk.plan_for(1))
    assert fed2.balance("alice", "BTC") == 1  # stuck holding coins, no car
    assert fed2.balance("alice", "CAR") == 0
    _ok(5, "car-trading goldens match; walk-away leaves alice holding BTC with the flag set")


def test_criterion_6_complexity_fit():
    points = measure_grid("topocbt")
    assert len(points) == 20
    assert FIT_TOLERANCE == 0.15  # the criterion's stated tolerance
    verdict = complexity_fit(points)
    assert verdict.main_fit.residual_ratio < 0.15
    assert verdict.main_fit.nonnegative
    assert verdict.passed
    assert verdict.n2_dominates_at_m1

    swap_points = measure_grid("ac2s")
    per_swap = fit_ops(swap_points, "mn2_1")
    mixed = fit_ops(swap_points, "n2_nm_1")
    assert per_swap.residual_ratio < mixed.residual_ratio
    _ok(6, f"count model fits (ratio {verdict.main_fit.residual_ratio:.4f} < 0.15); "
           f"per-swap counts prefer m*n^2 ({per_swap.residual_ratio:.4f} < {mixed.residual_ratio:.4f})")


def test_criterion_7_recovery_at_every_crash_point():
    t0 = time.monotonic()
    # the 3-party deal writes one undo per face plus the commit; the
    # in-between states are "after record k" and "after append k"
    for kind, points in (("crash_after_record", (1, 2, 3)), ("crash_after_append", (1, 2, 3))):
        for point in points:
            scen = car_trading()
            fed = scen.build_federation()
            pre = fed.state_digest()
            engine = TopoCbtEngine(fed)
            with pytest.raises(SimulatedCrash):
                engine.execute(scen.transactions()[0], FailurePlan(**{kind: point}))
            engine.recover()
            assert fed.state_digest() == pre, f"{kind}={point}"
            digest = fed.state_digest()
            wal_bytes = engine.wal.to_bytes()
            again = engine.recover()
            assert again.is_noop() and fed.state_digest() == digest
            assert engine.wal.to_bytes() == wal_bytes

    # past the terminal record the commit must survive instead
    scen = car_trading()
    fed = scen.build_federation()
    engine = TopoCbtEngine(fed)
    with pytest.raises(SimulatedCrash):
        engine.execute(scen.transactions()[0], FailurePlan(crash_after_record=4))
    engine.recover()
    assert fed.balance("alice", "CAR") == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(7, f"all 6 mid-transaction crash points restore the pre-state; recovery idempotent ({elapsed:.1f}s)")


def test_criterion_8_dimension_consistency():
    rng = SplitMix64(2024)
    for case in range(200):
        mode = TopologyMode.ABSTRACT if case % 2 == 0 else TopologyMode.REPLICATED
        fed = Federation()
        refs = []
        for cid in range(1, rng.randrange(2, 4) + 1):
            ch = Chain(cid, replicas=rng.randrange(1, 3))
            height = rng.randrange(1, 3)
            for _ in range(height):
                ch.append_block(0, ())
            for _ in range(rng.below(3)):
                label = ch.spawn_fork(height)
                ch.append_block(label, ())
            fed.add_chain(ch)
            refs.append(BlockRef(cid, height, 0))
        txn = CrossChainTransaction(1, ("a", "b"), tuple(refs), ())
        built = transaction_simplex(fed, txn, mode)
        assert built.dimension == expected_transaction_dimension(fed, txn, mode), f"case {case}"
        assert_dimension_matches_oracle(fed, txn, mode)
    for make in DRIFT_CASES.values():
        for mode in TopologyMode:
            assert_dimension_matches_oracle(*make(), mode)

    fed, deal = double_fork_build()
    assert transaction_simplex(fed, deal).dimension == 3
    _ok(8, f"200 random federations and {len(DRIFT_CASES)} drift cases: constructed dimension equals "
           "the trunk replicas plus one per other live block, minus 1; two-fork pair deal is 3-dimensional")


def test_criterion_9_determinism():
    for source, protocol in (("car-trading", None),
                             (str(DATA / "car_trading_walkaway.scenario"), "ac2s")):
        for seed in (1, 42):
            scen_a, raw_a = load_scenario(source)
            scen_b, raw_b = load_scenario(source)
            assert raw_a == raw_b
            rep_a = run_scenario(scen_a, seed, protocol_override=protocol)
            rep_b = run_scenario(scen_b, seed, protocol_override=protocol)
            assert rep_a.to_csv().encode() == rep_b.to_csv().encode()
            assert rep_a.wal.to_bytes() == rep_b.wal.to_bytes()

    for seed in range(20):  # randomized scenarios replay too
        rep_a = run_scenario(random_scenario(seed), seed, compute_betti=False)
        rep_b = run_scenario(random_scenario(seed), seed, compute_betti=False)
        assert rep_a.to_csv().encode() == rep_b.to_csv().encode()
        assert rep_a.wal.to_bytes() == rep_b.wal.to_bytes()
    _ok(9, "replays are byte-identical for reports and logs")
