import dataclasses
import re
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topocbt import harness, topology
from topocbt.chain import ChainError
from topocbt.engine import NO_FAILURES, Status, TopoCbtEngine
from topocbt.harness import (
    AUDIT_ALL,
    AUDIT_NONE,
    AUDIT_PARTIAL,
    PROTOCOL_RUNNERS,
    ComparisonTable,
    FitResult,
    _replay,
    audit_atomicity,
    betti_report,
    compare_protocols,
    complexity_fit,
    fit_ops,
    measure_grid,
    run_scenario,
)
from topocbt.scenario import (
    CAR_TRADING_TEXT,
    PROTOCOLS,
    FailureSpec,
    car_trading,
    load_scenario,
    parse_scenario,
)
from topocbt.topology import CrossChainTransaction, TopologyMode, build_federation_complex
from topocbt.wal import WalKind, WriteAheadLog
import shapes
from oracles import live_branch_labels, random_scenario

DATA = Path(__file__).parent / "data"


def walkaway_scenario():
    return parse_scenario((DATA / "car_trading_walkaway.scenario").read_text())


# -- auditor ------------------------------------------------------------------

def test_auditor_classifies_states():
    scen = car_trading()
    txn = scen.transactions()[0]
    pre = {("alice", "ETH"): 10, ("bob", "BTC"): 1, ("cindy", "CAR"): 1}
    assert audit_atomicity(pre, txn, dict(pre)) == AUDIT_NONE
    done = {("alice", "CAR"): 1, ("bob", "ETH"): 10, ("cindy", "BTC"): 1}
    assert audit_atomicity(pre, txn, done) == AUDIT_ALL
    half = {("alice", "ETH"): 0, ("bob", "ETH"): 10, ("bob", "BTC"): 1, ("cindy", "CAR"): 1}
    assert audit_atomicity(pre, txn, half) == AUDIT_PARTIAL


def test_auditor_ignores_zero_entries():
    scen = car_trading()
    txn = scen.transactions()[0]
    pre = {("alice", "ETH"): 10, ("bob", "BTC"): 1, ("cindy", "CAR"): 1}
    noisy_none = dict(pre)
    noisy_none[("bob", "ETH")] = 0
    assert audit_atomicity(pre, txn, noisy_none) == AUDIT_NONE


def normalized_audit(pre, txn, post):
    """The audit read by dropping each sheet's zero entries and comparing
    the dicts left."""
    def normalize(sheet):
        return {key: value for key, value in sheet.items() if value != 0}

    if normalize(post) == normalize(pre):
        return AUDIT_NONE
    if normalize(post) == normalize(harness.apply_updates_pure(pre, txn)):
        return AUDIT_ALL
    return AUDIT_PARTIAL


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_auditor_agrees_with_comparing_normalized_sheets(data):
    txn = car_trading().transactions()[0]
    keys = [("alice", "ETH"), ("bob", "BTC"), ("cindy", "CAR"), ("alice", "CAR"), ("bob", "ETH"),
            ("cindy", "BTC"), ("dave", "ETH")]
    sheets = st.dictionaries(st.sampled_from(keys), st.integers(-2, 11))
    pre = data.draw(sheets, label="pre")
    landed = harness.apply_updates_pure(pre, txn)
    # the sheet as it was, as if every update landed, or redrawn, each with zero entries added or dropped
    post = dict(data.draw(st.sampled_from([pre, landed, data.draw(sheets, label="other")]), label="post"))
    for key in data.draw(st.lists(st.sampled_from(keys)), label="zeroed"):
        if not post.get(key):
            post[key] = 0
    for key in data.draw(st.lists(st.sampled_from(keys)), label="dropped"):
        if post.get(key) == 0:
            del post[key]
    assert audit_atomicity(pre, txn, post) == normalized_audit(pre, txn, post)


# -- run_scenario ----------------------------------------------------------------

def test_car_trading_report_matches_golden():
    scen, _ = load_scenario("car-trading")
    report = run_scenario(scen, 1)
    golden = (DATA / "car_trading_topocbt_seed1.csv").read_text()
    assert report.to_csv() == golden
    assert report.invariant_failures() == []


def test_walkaway_ac2s_report_matches_golden():
    report = run_scenario(walkaway_scenario(), 1, protocol_override="ac2s")
    golden = (DATA / "car_trading_ac2s_walkaway_seed1.csv").read_text()
    assert report.to_csv() == golden
    row = report.rows[0]
    assert row.status is Status.PARTIAL_COMMIT
    assert row.worse_off == ("alice",)
    assert row.audit == AUDIT_PARTIAL and not row.atomicity_ok


def test_auditor_may_disagree_with_baseline_but_not_main_engine():
    report = run_scenario(walkaway_scenario(), 1, protocol_override="ac2s")
    # flagged, but not a harness invariant failure for a baseline
    assert not report.rows[0].atomicity_ok
    assert report.invariant_failures() == []
    report2 = run_scenario(walkaway_scenario(), 1, protocol_override="topocbt")
    assert report2.rows[0].atomicity_ok


def test_crashed_run_reports_aborted_after_recovery():
    scen = car_trading()
    scen.failures.append(FailureSpec(txn=1, kind="crash_after_undo", at=2))
    report = run_scenario(scen, 3)
    row = report.rows[0]
    assert row.status is Status.ABORTED
    assert row.recovered
    assert row.audit == AUDIT_NONE


def test_crash_after_commit_record_reports_committed():
    scen = car_trading()
    # three undo records, then the durable commit record
    scen.failures.append(FailureSpec(txn=1, kind="crash_after_record", at=4))
    report = run_scenario(scen, 1)
    row = report.rows[0]
    assert row.recovered
    assert row.status is Status.COMMITTED
    assert row.applied_updates == 3
    assert row.audit == AUDIT_ALL
    assert report.invariant_failures() == []


def test_crash_before_any_log_record_reports_aborted():
    scen = car_trading()
    txn = scen.txns[0]
    # a face without updates writes no undo record before its crash point
    subs = (dataclasses.replace(txn.sub_transactions[0], updates=()),) + txn.sub_transactions[1:]
    scen.txns[0] = dataclasses.replace(txn, sub_transactions=subs)
    scen.failures.append(FailureSpec(txn=1, kind="crash_after_undo", at=1))
    row = run_scenario(scen, 1).rows[0]
    assert row.recovered
    assert row.status is Status.ABORTED
    assert row.audit == AUDIT_NONE


def test_recovery_leaves_a_committed_block_in_an_aborted_slot_alone():
    report = run_scenario(load_scenario(str(DATA / "reused_slot.scenario"))[0], 1)
    assert [(row.status, row.audit) for row in report.rows] == [
        (Status.ABORTED, AUDIT_NONE), (Status.COMMITTED, AUDIT_ALL), (Status.ABORTED, AUDIT_NONE),
    ]
    assert report.rows[2].recovered
    assert report.invariant_failures() == []


def test_status_disagreeing_with_auditor_is_an_invariant_failure():
    report = run_scenario(car_trading(), 1)
    report.rows[0] = dataclasses.replace(report.rows[0], status=Status.ABORTED)
    assert report.invariant_failures() == ["txn 1: status Aborted but audit all"]


@pytest.mark.parametrize("change, problem", [
    ({"audit": AUDIT_PARTIAL}, "atomicity violated under topocbt"),
    ({"status": Status.BLOCKED}, "non-terminal status Blocked"),
], ids=["partial-audit", "blocked"])
def test_a_partial_audit_or_a_blocked_status_is_an_invariant_failure(change, problem):
    report = run_scenario(car_trading(), 1)
    report.rows[0] = dataclasses.replace(report.rows[0], **change)
    assert report.invariant_failures() == [f"txn 1: {problem}"]


CANCELLING_DEAL_TEXT = """\
[chain]
id = 1
length = 1
assets = ETH
balance = alice ETH 5

[chain]
id = 2
length = 1
assets = BTC

[txn]
id = 1
parties = alice bob
blocks = 1:1 2:1
sub = 1:1 ; alice bob ETH 5
sub = 1:1 ; bob alice ETH 5
"""


def test_a_commit_whose_updates_cancel_out_is_judged_by_the_log():
    report = run_scenario(parse_scenario(CANCELLING_DEAL_TEXT), 1)
    row = report.rows[0]
    assert (row.status, row.applied_updates, row.audit, row.forward_blocks) == (
        Status.COMMITTED, 2, AUDIT_NONE, 2)
    assert report.invariant_failures() == []
    # the same report, doctored so the commit never landed: no commit record, or no forward blocks
    assert report.wal.records[-1].kind is WalKind.COMMIT
    no_commit = dataclasses.replace(report, wal=WriteAheadLog(report.wal.records[:-1]))
    no_blocks = dataclasses.replace(report, rows=[dataclasses.replace(row, forward_blocks=0)])
    for doctored in (no_commit, no_blocks):
        assert doctored.invariant_failures() == ["txn 1: status Committed but audit none"]


def test_empty_scenario_runs_clean():
    report = run_scenario(parse_scenario("[scenario]\nname = empty\n"), 1)
    assert report.rows == []
    assert report.invariant_failures() == []


def test_replay_is_byte_identical():
    for source in ("car-trading",):
        scen_a, _ = load_scenario(source)
        scen_b, _ = load_scenario(source)
        rep_a = run_scenario(scen_a, 9)
        rep_b = run_scenario(scen_b, 9)
        assert rep_a.to_csv() == rep_b.to_csv()
        assert rep_a.wal.to_bytes() == rep_b.wal.to_bytes()


def test_epoch_resolves_forks_between_events():
    text = """
[scenario]
name = resolving
epoch = 1

[chain]
id = 1
length = 3
assets = X
fork = 2 1
balance = a X 5

[chain]
id = 2
length = 2
assets = Y
balance = b Y 5

[txn]
id = 1
parties = a b
blocks = 1:2 2:2
sub = 1:2 ; a b X 1

[txn]
id = 2
parties = a b
blocks = 1:3 2:2
sub = 2:2 ; b a Y 1
"""
    scen = parse_scenario(text)
    report = run_scenario(scen, 1)
    # txn 1 sees the fork (3 vertices at height 2); after the first
    # epoch the fork is resolved so txn 2 builds on a plain chain
    assert report.rows[0].betti_pre[0] == 1
    assert len(report.rows[1].betti_pre) == 2  # no tetrahedra anywhere


# -- betti_report ------------------------------------------------------------------

def test_betti_report_before_and_after():
    scen = car_trading()
    betti0, tagged0 = betti_report(scen, 0)
    assert betti0 == (1, 0, 0)
    assert 1 in tagged0.txn_tops
    betti1, tagged1 = betti_report(scen, 1)
    assert betti1 == (3, 0)
    assert tagged1.txn_tops == {}


def test_betti_report_fresh_three_chains_no_txns():
    text = "[scenario]\nname = f\n" + "".join(
        f"[chain]\nid = {i}\nlength = 2\n" for i in (1, 2, 3)
    )
    betti, _ = betti_report(parse_scenario(text), 0)
    assert betti[0] == 3
    assert all(b == 0 for b in betti[1:])


EPOCH_FORK_TEXT = """\
[scenario]
name = epoch-fork
epoch = 1

[chain]
id = 1
length = 3
assets = X
fork = 2 1
balance = a X 5

[chain]
id = 2
length = 3
assets = Y
balance = b Y 5

[txn]
id = 1
parties = a b
blocks = 1:3 2:3
sub = 1:3 ; a b X 1

[txn]
id = 2
parties = a b
blocks = 1:3 2:3
sub = 2:3 ; b a Y 1
"""

# a witness 2PC run blocks on the car-trading blocks, then a main-engine
# deal needs the same blocks
BLOCKED_THEN_DEAL_TEXT = CAR_TRADING_TEXT.replace("protocol = topocbt", "protocol = ac3wn") + """
[txn]
id = 2
parties = alice bob cindy
blocks = 1:2 2:2 3:2
sub = 1:2 ; alice bob ETH 1

[failure]
txn = 1
kind = witness_crash
"""


# genesis-only chains: the first report has no edge, so its vector stops
# at b0 where the run's end, after the deals' appends, has b1
GENESIS_DEALS_TEXT = """\
[scenario]
name = genesis-deals-{mode}
mode = {mode}

[chain]
id = 1
length = 0
replicas = {replicas}
assets = X
balance = a X 5

[chain]
id = 2
length = 0
assets = Y
balance = b Y 5

[txn]
id = 1
parties = a b
blocks = {blocks}
sub = 1:0 ; a b X 1

[txn]
id = 2
parties = a b
blocks = 2:0
sub = 2:0 ; b a Y 1
"""


def genesis_deals(mode, replicas=1, blocks="1:0"):
    return parse_scenario(GENESIS_DEALS_TEXT.format(mode=mode.value, replicas=replicas, blocks=blocks))


def forked_deals(mode, epoch, window=None, faults=False):
    """``shapes.forked_deals`` in ``mode`` with ``epoch``, named for its arguments."""
    scen = parse_scenario(shapes.forked_deals(window, faults, mode.value, epoch))
    suffix = ("" if window is None else f"-window{window}") + ("-faults" if faults else "")
    scen.name = f"forked-deals-{mode.value}-epoch{epoch}{suffix}"
    return scen


@pytest.mark.parametrize(
    "scen",
    [parse_scenario(EPOCH_FORK_TEXT), parse_scenario(BLOCKED_THEN_DEAL_TEXT), car_trading()]
    + [forked_deals(mode, epoch) for mode in TopologyMode for epoch in range(4)]
    + [forked_deals(mode, epoch, window=1) for mode in TopologyMode for epoch in (0, 2)]
    + [forked_deals(mode, epoch, faults=True) for mode in TopologyMode for epoch in range(4)]
    + [genesis_deals(mode) for mode in TopologyMode]
    + [random_scenario(seed) for seed in range(40)],
    ids=lambda scen: scen.name,
)
def test_betti_report_agrees_with_run(scen):
    report = run_scenario(scen, 1)
    assert betti_report(scen, 0)[0] == report.rows[0].betti_pre
    for k, row in enumerate(report.rows, start=1):
        assert betti_report(scen, k)[0] == row.betti_post
        assert fresh_betti_pre(scen, k) == row.betti_pre


def fresh_betti_pre(scen, k):
    """Betti vector of a fresh build of the federation event k starts
    from: k - 1 events, then that event's fork resolution if it is due."""
    federation = scen.build_federation()
    for _ in islice(_replay(scen, federation, WriteAheadLog()), k - 1):
        pass
    if k > 1 and scen.epoch > 0 and (k - 1) % scen.epoch == 0:
        for cid in federation.chain_ids():
            federation.chain(cid).resolve_forks()
    pending = scen.transactions()[k - 1:]
    return build_federation_complex(federation, pending, mode=scen.mode, window=scen.window).betti_numbers()


@pytest.mark.parametrize("epoch, epochs", [(0, 1), (1, 6), (2, 3), (4, 2), (6, 1)])
@pytest.mark.parametrize("mode", list(TopologyMode), ids=lambda mode: mode.value)
def test_each_epoch_glues_once_and_a_report_reduces_its_tops(monkeypatch, mode, epoch, epochs):
    scen = forked_deals(mode, epoch)
    deals = scen.transactions()
    # each epoch's first report comes after ``start`` events and its fork resolution
    starts = range(0, len(deals), epoch) if epoch else [0]
    assert len(starts) == epochs
    # the glue is derived at the first report, and again at an epoch's
    # first report when its resolution retired a branch
    glued_at, expected = [], []  # per glue: an edge per piece its tops name, and each pending top's pieces
    for start in starts:
        federation = scen.build_federation()
        for _ in islice(_replay(scen, federation, WriteAheadLog()), start):
            pass
        retired = False
        for cid in federation.chain_ids() if start else ():
            retired |= len(live_branch_labels(federation.chain(cid))) > 1
            federation.chain(cid).resolve_forks()
        if start and not retired:
            continue
        glued_at.append(start)
        piece_sets = [{ref[:2] if mode is TopologyMode.REPLICATED else ref
                       for ref in topology.expand_refs(federation, txn)} for txn in deals[start:]]
        expected.append((len(set().union(*piece_sets)), [len(pieces) for pieces in reversed(piece_sets)]))
    assert len(glued_at) == (2 if 0 < epoch < len(deals) else 1)  # only the first resolution retires a branch

    builds, filtrations, calls = [], [], Counter()
    build, reduce, shape = topology.build_federation_complex, topology.betti_by_stage, topology.structural_betti
    expand, check, report = topology.expand_refs, CrossChainTransaction.check_chains, topology.BettiGlue.betti

    def counted_build(federation, transactions=(), **kwargs):
        transactions = list(transactions)
        builds.append([txn.id for txn in transactions])
        return build(federation, transactions, **kwargs)

    def counted_reduce(stages):
        filtrations.append(stages)
        return reduce(stages)

    def counted_shape(*args):
        calls["structural_betti"] += 1
        return shape(*args)

    def counted_expand(federation, txn):
        calls["expand_refs", txn.id] += 1
        return expand(federation, txn)

    def counted_check(txn):
        calls["check_chains", txn.id] += 1
        return check(txn)

    def counted_report(glue, dropped):
        calls["report"] += 1
        return report(glue, dropped)

    monkeypatch.setattr(topology, "build_federation_complex", counted_build)
    monkeypatch.setattr(topology, "betti_by_stage", counted_reduce)
    monkeypatch.setattr(topology, "structural_betti", counted_shape)
    monkeypatch.setattr(topology, "expand_refs", counted_expand)
    monkeypatch.setattr(CrossChainTransaction, "check_chains", counted_check)
    monkeypatch.setattr(topology.BettiGlue, "betti", counted_report)
    run_scenario(scen, 1, compute_betti=False)
    executed, execute_calls = list(builds), Counter(calls)  # execute's own, one build per deal
    assert len(executed) == 6 and not filtrations
    builds.clear()
    calls.clear()
    assert len(run_scenario(scen, 1).rows) == 6
    # the reports build nothing: each derived glue checks and expands
    # each deal pending then once, and takes one filtered reduction
    assert builds == executed
    # one report before the first event, one after each, one more after each resolution with an event to come
    glued = Counter({"structural_betti": len(glued_at), "report": 6 + epochs})
    for start in glued_at:
        for txn in deals[start:]:
            glued["expand_refs", txn.id] += 1
            glued["check_chains", txn.id] += 1
    assert calls == execute_calls + glued
    # each reduction is fed each piece's hub edge once, then each pending top once, the last deal's first
    assert len(filtrations) == len(glued_at)
    for (edges, *tops), (pieces, top_sizes) in zip(filtrations, expected):
        assert len(edges) == len(set(edges)) == pieces and all(len(edge) == 2 for edge in edges)
        assert [len(stage) for stage in tops] == [1] * len(top_sizes)
        assert [len(top) for (top,) in tops] == top_sizes
    # a window glues too: its reports make no build beyond execute's and read no built complex
    monkeypatch.setattr(topology.TaggedComplex, "betti_numbers", lambda tagged: pytest.fail("a report read a build"))
    windowed = forked_deals(mode, epoch, window=1)
    builds.clear()
    run_scenario(windowed, 1, compute_betti=False)
    executed = list(builds)
    builds.clear()
    assert len(run_scenario(windowed, 1).rows) == 6
    assert builds == executed


def test_a_deal_on_a_block_not_made_yet_is_refused_at_the_first_report():
    # deal 2 names the block deal 1 appends: without Betti numbers it
    # runs, with them the first report refuses it before deal 1 runs
    scen = parse_scenario(GENESIS_DEALS_TEXT.format(mode="abstract", replicas=1, blocks="1:0 2:0")
                          .replace("blocks = 2:0", "blocks = 1:1 2:0"))
    assert [row.status for row in run_scenario(scen, 1, compute_betti=False).rows] == [Status.COMMITTED] * 2
    wal = WriteAheadLog()
    with pytest.raises(ChainError, match=r"^txn 2: block 1:1:0 is missing or on a dead branch$"):
        next(_replay(scen, scen.build_federation(), wal, compute_betti=True))
    assert wal.records == []


@pytest.mark.parametrize("window", [None, 1])
@pytest.mark.parametrize("epoch", [0, 2])
@pytest.mark.parametrize("mode", list(TopologyMode), ids=lambda mode: mode.value)
def test_a_row_comes_out_as_its_event_ends(mode, epoch, window):
    # with Betti numbers on, the first row is yielded before deal 2 runs
    scen = forked_deals(mode, epoch, window)
    wal = WriteAheadLog()
    row = next(_replay(scen, scen.build_federation(), wal, compute_betti=True))
    assert wal.records and {rec.txn_id for rec in wal.records} == {1}
    first = run_scenario(scen, 1).rows[0]
    assert (row.betti_pre, row.betti_post) == (first.betti_pre, first.betti_post)


def test_betti_report_releases_blocked_2pc_locks():
    scen = parse_scenario(BLOCKED_THEN_DEAL_TEXT)
    report = run_scenario(scen, 1)
    assert [row.status for row in report.rows] == [Status.BLOCKED, Status.COMMITTED]
    # the blocked run leaves no trace, so the deal lands as if alone
    deal_only = parse_scenario(BLOCKED_THEN_DEAL_TEXT)
    deal_only.txns = deal_only.txns[1:]
    deal_only.failures = []
    assert betti_report(scen, 2)[1].complex == betti_report(deal_only, 1)[1].complex


def test_betti_report_index_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        betti_report(car_trading(), 5)


# -- comparison ----------------------------------------------------------------------

def failure_suite():
    clean = car_trading()
    walk = walkaway_scenario()
    walk.name = "car-trading-walkaway"
    crash = car_trading()
    crash.name = "car-trading-crash"
    crash.failures.append(FailureSpec(txn=1, kind="witness_crash"))
    crash.failures.append(FailureSpec(txn=1, kind="crash_before_commit", at=3))
    late = car_trading()
    late.name = "car-trading-late"
    late.failures.append(FailureSpec(txn=1, kind="timeout", at=2))
    return [clean, walk, crash, late]


def test_comparison_reproduces_capability_pattern():
    table = compare_protocols(failure_suite(), seeds=[1])
    pattern = table.pattern()
    assert pattern["ac2s"] == {"partial_commit": True, "blocked": False}
    assert pattern["ac3wn"] == {"partial_commit": False, "blocked": True}
    assert pattern["topocbt"] == {"partial_commit": False, "blocked": False}


def test_comparison_failure_free_all_commit():
    table = compare_protocols([car_trading()], seeds=[1, 2])
    assert all(row.status is Status.COMMITTED for row in table.rows)


def test_comparison_runs_each_scenario_and_protocol_once_for_every_seed(monkeypatch):
    scenarios = failure_suite()
    naive = [row for scenario in scenarios for seed in (1, 2, 3) for protocol in PROTOCOL_RUNNERS
             for row in run_scenario(scenario, seed, protocol_override=protocol, compute_betti=False).rows]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return run_scenario(*args, **kwargs)

    monkeypatch.setattr(harness, "run_scenario", counted)
    table = compare_protocols(scenarios, seeds=[1, 2, 3])
    assert len(calls) == 3 * len(scenarios) == len(PROTOCOL_RUNNERS) * len(scenarios)
    assert table.to_csv() == ComparisonTable(naive).to_csv()


def test_comparison_csv_columns():
    table = compare_protocols([car_trading()], seeds=[1])
    header = table.to_csv().splitlines()[0]
    assert header == "protocol,scenario,seed,status,messages,primitive_ops,space_bytes,worse_off"


def test_identical_final_balances_across_protocols_failure_free():
    digests = set()
    for run in PROTOCOL_RUNNERS.values():
        scen = car_trading()
        fed = scen.build_federation()
        run(TopoCbtEngine(fed), scen.transactions()[0], NO_FAILURES)
        digests.add(fed.state_digest())
    assert len(digests) == 1


def test_the_protocol_table_runs_exactly_the_declarable_protocols():
    assert tuple(PROTOCOL_RUNNERS) == PROTOCOLS


# -- complexity fit --------------------------------------------------------------------

def test_fit_requires_enough_points():
    with pytest.raises(ValueError, match="at least 6"):
        fit_ops([(2, 1, 10)] * 5, "n2_nm_1")


@pytest.mark.parametrize("points, basis, names", [
    ([(3, 2, 40)] * 6, "n2_nm_1", "n^2 + n*m + 1"),
    ([(3, 2, 40)] * 6, "mn2_1", "m*n^2 + 1"),
    # on the diagonal m = n the n*m column equals the n^2 column
    ([(n, n, 4 * n * n + 1) for n in range(2, 8)], "n2_nm_1", "n^2 + n*m + 1"),
], ids=["one-point", "one-point-two-terms", "diagonal"])
def test_fit_rejects_points_that_cannot_separate_the_basis(points, basis, names):
    with pytest.raises(ValueError, match=re.escape(f"cannot separate the basis {names}")):
        fit_ops(points, basis)


def test_fit_refuses_an_unknown_basis():
    with pytest.raises(ValueError) as info:
        fit_ops([(2, 1, 10)] * 6, "cubic")
    assert str(info.value) == "unknown basis 'cubic'"


def test_fit_is_exact_on_points_of_the_model():
    points = [(n, m, 2 * n * n + 3 * n * m + 5) for n in range(2, 5) for m in range(1, 3)]
    assert fit_ops(points, "n2_nm_1") == FitResult((2.0, 3.0, 5.0), 0.0)
    # a coefficient that is exactly 0 is nonnegative
    squares = fit_ops([(n, m, n * n) for n, m, _ in points], "n2_nm_1")
    assert squares.coefficients == (1.0, 0.0, 0.0) and squares.nonnegative


def test_main_engine_fit_passes():
    verdict = complexity_fit(measure_grid("topocbt"))
    assert verdict.passed
    assert verdict.main_fit.residual_ratio < 0.15
    assert verdict.main_fit.nonnegative
    assert verdict.n2_dominates_at_m1


def test_swap_counts_fit_quadratic_per_swap_model_better():
    points = measure_grid("ac2s")
    quad = fit_ops(points, "mn2_1")
    mixed = fit_ops(points, "n2_nm_1")
    assert quad.residual_ratio < mixed.residual_ratio


def test_ops_independent_of_m_when_no_faces():
    points = measure_grid("topocbt", ns=[3], ms=[0, 0, 0, 0, 0, 0])
    assert len({ops for _, _, ops in points}) == 1
