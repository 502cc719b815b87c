import pytest

from topocbt.chain import AssetUpdate, BlockRef, Chain, Federation
from topocbt.engine import (
    CRASH_AFTER_UNDO,
    CRASH_BEFORE_COMMIT,
    UPDATE_FAILURE,
    FailurePlan,
    SimulatedCrash,
    Status,
    TopoCbtEngine,
)
from topocbt.harness import AUDIT_PARTIAL, apply_updates_pure, audit_atomicity
from topocbt.scenario import car_trading, parse_scenario
from topocbt.topology import CrossChainTransaction, SubTransaction
from topocbt.wal import WalKind
from oracles import asset_totals, compensated_refs, random_scenario


def car_setup():
    scen = car_trading()
    fed = scen.build_federation()
    return fed, scen.transactions()[0], TopoCbtEngine(fed)


def balances_of(fed, party):
    return {asset: v for (p, asset), v in fed.balances().items() if p == party and v}


# -- the success path ---------------------------------------------------------

def test_car_trade_commits_and_delivers():
    fed, txn, engine = car_setup()
    out = engine.execute(txn)
    assert out.status is Status.COMMITTED
    assert out.applied_updates == 3
    assert balances_of(fed, "alice") == {"CAR": 1}
    assert balances_of(fed, "bob") == {"ETH": 10}
    assert balances_of(fed, "cindy") == {"BTC": 1}
    assert fed.locks == {}
    assert engine.wal.terminal_for(1).kind is WalKind.COMMIT


def test_asset_totals_conserved_either_way():
    for plan in (FailurePlan(), FailurePlan(((UPDATE_FAILURE, 2),))):
        fed, txn, engine = car_setup()
        before = asset_totals(fed)
        engine.execute(txn, plan)
        assert asset_totals(fed) == before


def test_empty_txn_commits_vacuously():
    fed, txn, engine = car_setup()
    empty = CrossChainTransaction(2, ("a", "b"), txn.blocks, ())
    out = engine.execute(empty)
    assert out.status is Status.COMMITTED
    assert out.applied_updates == 0
    assert engine.wal.terminal_for(2).kind is WalKind.COMMIT


def test_undo_records_precede_terminal():
    fed, txn, engine = car_setup()
    engine.execute(txn)
    kinds = [r.kind for r in engine.wal.records]
    assert kinds == [WalKind.UNDO, WalKind.UNDO, WalKind.UNDO, WalKind.COMMIT]


# -- failure and rollback --------------------------------------------------------

def test_injected_failure_rolls_back_everything():
    fed, txn, engine = car_setup()
    pre = fed.state_digest()
    out = engine.execute(txn, FailurePlan(((UPDATE_FAILURE, 3),)))
    assert out.status is Status.ABORTED
    assert out.applied_updates == 0
    assert fed.state_digest() == pre
    assert fed.locks == {}
    assert engine.wal.terminal_for(1).kind is WalKind.ABORT


def test_insufficient_balance_aborts():
    fed, txn, engine = car_setup()
    fed.initial_balances[("bob", "BTC")] = 0  # bob cannot pay
    pre = fed.state_digest()
    out = engine.execute(txn)
    assert out.status is Status.ABORTED
    assert fed.state_digest() == pre


def test_failure_stops_remaining_faces():
    fed, txn, engine = car_setup()
    engine.execute(txn, FailurePlan(((UPDATE_FAILURE, 2),)))
    # undo records only for faces 1 and 2; face 3 never starts
    undos = [r for r in engine.wal.records if r.kind is WalKind.UNDO]
    assert [r.block_ref.chain for r in undos] == [1, 2]


def test_lock_conflict_aborts_without_updates():
    fed, txn, engine = car_setup()
    fed.lock_blocks([BlockRef(2, 2, 0)], txn_id=77)
    pre = fed.state_digest()
    out = engine.execute(txn)
    assert out.status is Status.ABORTED
    assert fed.state_digest() == pre
    assert engine.wal.records == []          # aborted before any logging
    assert set(fed.locks.values()) == {77}   # holder keeps its lock


def test_malformed_txn_rejected_before_any_lock():
    fed, txn, engine = car_setup()
    bad = CrossChainTransaction(
        3, ("a", "b"), (BlockRef(1, 2, 0),),
        (SubTransaction((BlockRef(2, 2, 0),), ()),),  # face not within declared blocks
    )
    with pytest.raises(ValueError, match="undeclared"):
        engine.execute(bad)
    assert fed.locks == {}


# -- crashes and recovery ----------------------------------------------------------

def test_crash_after_undo_recovers_to_pre_state():
    fed, txn, engine = car_setup()
    pre = fed.state_digest()
    with pytest.raises(SimulatedCrash):
        engine.execute(txn, FailurePlan(((CRASH_AFTER_UNDO, 2),)))
    assert fed.locks != {}  # crash leaves locks behind
    report = engine.recover()
    assert report.rolled_back == (1,)
    assert fed.state_digest() == pre
    assert fed.locks == {}


def test_crash_after_last_face_recovers_to_pre_state():
    fed, txn, engine = car_setup()
    pre = fed.state_digest()
    with pytest.raises(SimulatedCrash):
        engine.execute(txn, FailurePlan(((CRASH_BEFORE_COMMIT, 3),)))
    engine.recover()
    assert fed.state_digest() == pre


def test_crash_after_commit_record_preserves_commit():
    fed, txn, engine = car_setup()
    with pytest.raises(SimulatedCrash):
        # commit is the 4th record of this txn
        engine.execute(txn, FailurePlan((("crash_after_record", 4),)))
    report = engine.recover()
    assert report.committed_untouched == (1,)
    assert balances_of(fed, "alice") == {"CAR": 1}
    assert fed.locks == {}


def test_crash_after_abort_record_leaves_nothing_to_recover():
    # force an unfundable face, then crash right after the abort record:
    # compensation precedes that record, so the pre-state is already back
    scen = car_trading()
    fed = scen.build_federation()
    fed.initial_balances[("cindy", "CAR")] = 0
    txn = scen.transactions()[0]
    engine = TopoCbtEngine(fed)
    pre = fed.state_digest()
    with pytest.raises(SimulatedCrash):
        engine.execute(txn, FailurePlan((("crash_after_record", 4),)))
    assert engine.wal.terminal_for(1).kind is WalKind.ABORT
    assert fed.state_digest() == pre
    report = engine.recover()
    assert report.rolled_back == ()
    assert fed.state_digest() == pre


def test_recovery_reverses_only_the_crashed_transactions_blocks():
    # txn 1 logs its undo record for slot 1:2:0 and crashes; before
    # recovery runs, txn 2 commits the same update into that same slot
    fed = Federation({("a", "X"): 10})
    fed.add_chain(Chain(1, assets=("X",))).append_block(0, ())
    update = AssetUpdate("a", "b", "X", 1)

    def deal(tid):
        face = SubTransaction((BlockRef(1, 1),), (update,))
        return CrossChainTransaction(tid, ("a", "b"), (BlockRef(1, 1),), (face,))

    engine = TopoCbtEngine(fed)
    with pytest.raises(SimulatedCrash):
        engine.execute(deal(1), FailurePlan((("crash_after_record", 1),)))
    assert engine.wal.records[0].block_ref == BlockRef(1, 2)
    fed.locks.clear()
    assert engine.execute(deal(2)).status is Status.COMMITTED
    assert engine.wal.records[1].block_ref == BlockRef(1, 2)
    report = engine.recover()
    assert report.rolled_back == (1,)
    assert fed.balance("a", "X") == 9
    assert compensated_refs(fed.chain(1)) == frozenset()


def test_recover_twice_is_noop():
    fed, txn, engine = car_setup()
    with pytest.raises(SimulatedCrash):
        engine.execute(txn, FailurePlan(((CRASH_AFTER_UNDO, 1),)))
    engine.recover()
    digest = fed.state_digest()
    wal_bytes = engine.wal.to_bytes()
    again = engine.recover()
    assert again.is_noop()
    assert fed.state_digest() == digest
    assert engine.wal.to_bytes() == wal_bytes


def test_recover_on_empty_log_is_noop():
    fed, _, engine = car_setup()
    assert engine.recover().is_noop()


def test_every_crash_point_restores_pre_state():
    # 3 faces, one undo + one append each: records 1..3 interleaved
    # with appends 1..3, then the commit record
    for record_point in (1, 2, 3):
        fed_s = car_trading()
        fed = fed_s.build_federation()
        pre = fed.state_digest()
        engine = TopoCbtEngine(fed)
        with pytest.raises(SimulatedCrash):
            engine.execute(fed_s.transactions()[0], FailurePlan((("crash_after_record", record_point),)))
        engine.recover()
        assert fed.state_digest() == pre, f"crash after record {record_point}"
    for append_point in (1, 2, 3):
        fed_s = car_trading()
        fed = fed_s.build_federation()
        pre = fed.state_digest()
        engine = TopoCbtEngine(fed)
        with pytest.raises(SimulatedCrash):
            engine.execute(fed_s.transactions()[0], FailurePlan((("crash_after_append", append_point),)))
        engine.recover()
        assert fed.state_digest() == pre, f"crash after append {append_point}"


# -- of two failures that cannot both strike, the first reached does -------------------

@pytest.mark.parametrize("points", [(3, 5), (5, 3)])
def test_the_first_record_crash_reached_strikes(points):
    fed, txn, engine = car_setup()
    with pytest.raises(SimulatedCrash, match="^after record 3$"):
        engine.execute(txn, FailurePlan(tuple(("crash_after_record", k) for k in points)))
    assert len(engine.wal.records) == 3


def test_a_face_crashes_after_its_undo_records_before_its_update_failure():
    fed, txn, engine = car_setup()
    with pytest.raises(SimulatedCrash, match="^after undo records of face 2$"):
        engine.execute(txn, FailurePlan(((UPDATE_FAILURE, 2), (CRASH_AFTER_UNDO, 2))))
    assert engine.wal.terminal_for(1) is None


# -- two deals in flight ---------------------------------------------------------------

def _two_deals_text():
    chains = "".join(f"[chain]\nid = {i}\nlength = 3\nassets = A{i}\n"
                     + "".join(f"balance = p{p} A{i} 10\n" for p in (1, 2, 3)) for i in (1, 2, 3))
    return chains + """
[txn]
id = 1
parties = p1 p2
blocks = 1:1 2:1
sub = 1:1 ; p1 p2 A1 1
sub = 2:1 ; p2 p1 A2 1

[failure]
txn = 1
kind = update_failure
face = 2

[txn]
id = 2
parties = p1 p3
blocks = 1:2 3:2
sub = 1:2 3:2 ; p1 p3 A1 1, p3 p1 A3 1
"""


def test_a_deal_whose_undo_slot_another_deal_fills_stays_all_or_nothing(monkeypatch):
    # deal 2 runs to its end after deal 1 has logged its undo record for
    # 1:4 and before deal 1 appends there: deal 2 commits into 1:4, and
    # deal 1's append refuses the slot above it, so its face fails and
    # deal 1 aborts with nothing of it left on the chains
    scen = parse_scenario(_two_deals_text())
    fed = scen.build_federation()
    engine = TopoCbtEngine(fed)
    first, second = scen.transactions()
    append = TopoCbtEngine._append_face
    inner = []

    def interleaved(self, meter, plan, marker, face):
        if marker.txn_id == first.id and not inner:
            assert [undo.block_ref for undo in face] == [BlockRef(1, 4)]
            inner.append(self.execute(second))
        return append(self, meter, plan, marker, face)

    monkeypatch.setattr(TopoCbtEngine, "_append_face", interleaved)
    pre = fed.balances()
    out = engine.execute(first, scen.plan_for(first.id))
    assert [o.status for o in inner] == [Status.COMMITTED]
    assert fed.chain(1).holds_forward(BlockRef(1, 4), second.id)
    assert out.status is Status.ABORTED
    assert fed.balance("p2", "A1") == 10
    assert audit_atomicity(apply_updates_pure(pre, second), first, fed.balances()) == "none"
    assert fed.chain(1).next_ref() == BlockRef(1, 5)
    assert fed.locks == {} and engine.recover().is_noop()


# -- the big randomized property -----------------------------------------------------

def assert_wal_well_formed(wal):
    # per txn: undo records first, then at most one terminal
    seen_terminal = set()
    for rec in wal.records:
        if rec.kind is WalKind.UNDO:
            assert rec.txn_id not in seen_terminal, "undo after terminal"
        else:
            assert rec.txn_id not in seen_terminal, "duplicate terminal"
            seen_terminal.add(rec.txn_id)
    assert [r.sequence for r in wal.records] == sorted(r.sequence for r in wal.records)


@pytest.mark.parametrize("block", range(10))
def test_atomicity_over_randomized_plans(block):
    # 50 seeds per parametrized block keeps failures bisectable
    for seed in range(block * 50, (block + 1) * 50):
        scen = random_scenario(seed)
        fed = scen.build_federation()
        txn = scen.transactions()[0]
        pre = fed.balances()
        totals_before = asset_totals(fed)
        engine = TopoCbtEngine(fed)
        try:
            out = engine.execute(txn, scen.plan_for(1))
            assert out.status in (Status.COMMITTED, Status.ABORTED)
        except SimulatedCrash:
            engine.recover()
        verdict = audit_atomicity(pre, txn, fed.balances())
        assert verdict != AUDIT_PARTIAL, f"seed {seed} left a partial state"
        assert fed.locks == {}, f"seed {seed} leaked locks"
        assert asset_totals(fed) == totals_before, f"seed {seed} broke conservation"
        assert_wal_well_formed(engine.wal)


# -- instrumentation -------------------------------------------------------------------

def test_ops_scale_with_parties_not_exponentially():
    from topocbt.scenario import grid_scenario

    ops = {}
    for n in (2, 4, 6):
        scen = grid_scenario(n, 1)
        fed = scen.build_federation()
        out = TopoCbtEngine(fed).execute(scen.transactions()[0])
        ops[n] = out.primitive_ops
    assert ops[4] < 4 * ops[2] + 20
    assert ops[6] < 9 * ops[2] + 30


def test_zero_faces_ops_independent_of_m():
    from topocbt.scenario import grid_scenario

    scen = grid_scenario(4, 0)
    fed = scen.build_federation()
    out = TopoCbtEngine(fed).execute(scen.transactions()[0])
    scen2 = grid_scenario(4, 0)
    fed2 = scen2.build_federation()
    out2 = TopoCbtEngine(fed2).execute(scen2.transactions()[0])
    assert out.primitive_ops == out2.primitive_ops
