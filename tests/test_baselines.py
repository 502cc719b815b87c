from collections import Counter
from pathlib import Path

import pytest

from topocbt.baselines import (
    Decision,
    WITNESS_CHAIN_ID,
    ac2s_execute,
    ac3wn_execute,
)
from topocbt.chain import AssetUpdate, BlockRef, Chain
from topocbt.engine import FailurePlan, Status, UPDATE_FAILURE, CRASH_BEFORE_COMMIT
from topocbt.scenario import car_trading, grid_scenario, load_scenario, parse_scenario
from topocbt.topology import CrossChainTransaction, SubTransaction
from oracles import random_scenario

DATA = Path(__file__).parent / "data"


def car_setup():
    scen = car_trading()
    fed = scen.build_federation()
    return fed, scen.transactions()[0]


def holdings(fed, party):
    return {asset: v for (p, asset), v in fed.balances().items() if p == party and v}


# -- pairwise-swap protocol ---------------------------------------------------------

def test_clean_run_commits_same_final_balances_as_main_engine():
    fed, txn = car_setup()
    out = ac2s_execute(fed, txn)
    assert out.status is Status.COMMITTED
    assert holdings(fed, "alice") == {"CAR": 1}
    assert holdings(fed, "bob") == {"ETH": 10}
    assert holdings(fed, "cindy") == {"BTC": 1}


def test_walk_away_leaves_initiator_holding_middle_asset():
    fed, txn = car_setup()
    out = ac2s_execute(fed, txn, FailurePlan((("walk_away", "cindy"),)))
    assert out.status is Status.PARTIAL_COMMIT
    assert out.worse_off_parties == ("alice",)
    # the first exchange went through, so alice is stuck with coins
    # she never wanted and the car never moved
    assert holdings(fed, "alice") == {"BTC": 1}
    assert holdings(fed, "cindy") == {"CAR": 1}


def test_walk_away_before_anything_applied_aborts_clean():
    fed, txn = car_setup()
    out = ac2s_execute(fed, txn, FailurePlan((("walk_away", "bob"),)))
    assert out.status is Status.ABORTED
    assert out.worse_off_parties == ()
    assert holdings(fed, "alice") == {"ETH": 10}


def test_missed_timelock_keeps_earlier_leg():
    fed, txn = car_setup()
    out = ac2s_execute(fed, txn, FailurePlan((("timeout", 2),)))
    assert out.status is Status.PARTIAL_COMMIT
    # swap 2's first leg (alice pays coins forward) stands, the
    # counter-leg expired: alice paid and cannot be repaid
    assert "alice" in out.worse_off_parties
    assert holdings(fed, "cindy") == {"CAR": 1, "BTC": 1}


def test_update_failure_maps_to_late_claim():
    fed, txn = car_setup()
    out = ac2s_execute(fed, txn, FailurePlan(((UPDATE_FAILURE, 3),)))
    assert out.status is Status.PARTIAL_COMMIT


def test_never_blocks():
    # every plan ends in a decided status, never BLOCKED
    for plan, expected in ((FailurePlan(), Status.COMMITTED),
                           (FailurePlan((("walk_away", "cindy"),)), Status.PARTIAL_COMMIT),
                           (FailurePlan((("timeout", 1),)), Status.PARTIAL_COMMIT),
                           (FailurePlan((("witness_crash", None),)), Status.COMMITTED)):
        fed, txn = car_setup()
        assert ac2s_execute(fed, txn, plan).status is expected


def test_pairwise_faces_run_as_independent_swaps():
    scen = grid_scenario(3, 2, protocol="ac2s")
    fed = scen.build_federation()
    out = ac2s_execute(fed, scen.transactions()[0])
    assert out.status is Status.COMMITTED
    assert out.applied_updates == 4  # two swaps, two legs each


@pytest.mark.parametrize("legs, status, applied, worse_off", [
    (10, Status.COMMITTED, 10, ()),
    (11, Status.PARTIAL_COMMIT, 10, ("p1",)),
], ids=["10-legs", "11-legs"])
def test_swap_legs_settle_until_the_timelock_runs_out(legs, status, applied, worse_off):
    # each leg's claim takes one tick; the timelock grants ten
    fed = grid_scenario(2, 0, protocol="ac2s").build_federation()
    blocks = (BlockRef(1, 1, 0), BlockRef(2, 1, 0))
    face = SubTransaction(blocks=blocks, updates=(AssetUpdate("p1", "p2", "A1", 1),) * legs)
    out = ac2s_execute(fed, CrossChainTransaction(1, ("p1", "p2"), blocks, (face,)))
    assert (out.status, out.applied_updates, out.worse_off_parties) == (status, applied, worse_off)


THREE_PARTY_FACE_TEXT = """\
[chain]
id = 1
length = 1
assets = ETH
balance = alice ETH 5
balance = carol ETH 5

[chain]
id = 2
length = 1
assets = BTC
balance = bob BTC 5

[txn]
id = 1
parties = alice bob carol
blocks = 1:1 2:1
sub = 1:1 2:1 ; alice bob ETH 1, bob carol BTC 1, bob alice BTC 2, carol bob ETH 3
"""


def legs_on(fed, cid):
    chain = fed.chain(cid)
    return [chain.block(ref).payload for ref in chain.all_refs() if chain.block(ref).payload]


@pytest.mark.parametrize("plan, status, applied, worse_off", [
    (FailurePlan(), Status.COMMITTED, 4, ()),
    (FailurePlan((("timeout", 2),)), Status.PARTIAL_COMMIT, 3, ("bob",)),
    (FailurePlan((("walk_away", "carol"),)), Status.PARTIAL_COMMIT, 2, ()),
], ids=["clean", "second-pair-late", "second-pair-walks-away"])
def test_a_wider_face_splits_into_one_swap_per_party_pair(plan, status, applied, worse_off):
    scen = parse_scenario(THREE_PARTY_FACE_TEXT)
    fed = scen.build_federation()
    out = ac2s_execute(fed, scen.transactions()[0], plan)
    assert (out.status, out.applied_updates, out.worse_off_parties) == (status, applied, worse_off)
    # swap 1 is alice-bob (legs 1 and 3), swap 2 bob-carol (legs 2 and 4);
    # each leg is one block on its asset's chain, settled in that order
    eth = [(AssetUpdate("alice", "bob", "ETH", 1),), (AssetUpdate("carol", "bob", "ETH", 3),)]
    btc = [(AssetUpdate("bob", "alice", "BTC", 2),), (AssetUpdate("bob", "carol", "BTC", 1),)]
    settled = [eth[0], btc[0], btc[1], eth[1]][:applied]
    assert legs_on(fed, 1) == [leg for leg in eth if leg in settled]
    assert legs_on(fed, 2) == [leg for leg in btc if leg in settled]


# -- witness-chain two-phase commit ----------------------------------------------------

def test_clean_run_commits_with_decision_on_witness():
    fed, txn = car_setup()
    witness = Chain(WITNESS_CHAIN_ID)
    out = ac3wn_execute(fed, txn, witness=witness)
    assert out.status is Status.COMMITTED
    kinds = [rec.kind for ref in witness.all_refs() for rec in witness.block(ref).payload]
    assert kinds == ["Prepared", "Prepared", "Prepared", "GlobalCommit"]
    assert holdings(fed, "alice") == {"CAR": 1}
    assert fed.locks == {}


def test_witness_chain_is_hash_verifiable():
    fed, txn = car_setup()
    witness = Chain(WITNESS_CHAIN_ID)
    ac3wn_execute(fed, txn, witness=witness)
    assert witness.hash_violations() == []


def test_witness_crash_blocks_with_locks_held():
    fed, txn = car_setup()
    witness = Chain(WITNESS_CHAIN_ID)
    out = ac3wn_execute(fed, txn, FailurePlan((("witness_crash", None),)), witness=witness)
    assert out.status is Status.BLOCKED
    assert len(fed.locks) == 3  # participants still waiting on a decision
    kinds = [rec.kind for ref in witness.all_refs() for rec in witness.block(ref).payload]
    assert "GlobalCommit" not in kinds and "GlobalAbort" not in kinds
    assert out.applied_updates == 0


def test_a_locked_block_aborts_before_any_decision():
    fed, txn = car_setup()
    fed.lock_blocks([txn.blocks[0]], 99)
    out = ac3wn_execute(fed, txn)
    assert (out.status, out.messages, out.primitive_ops, out.applied_updates, out.space_bytes) == (
        Status.ABORTED, 3, 3, 0, 0)
    assert fed.locks == {txn.blocks[0]: 99}  # the other holder keeps its lock


def test_coordinator_crash_plan_also_blocks():
    fed, txn = car_setup()
    out = ac3wn_execute(fed, txn, FailurePlan(((CRASH_BEFORE_COMMIT, 2),)))
    assert out.status is Status.BLOCKED


def test_vote_abort_records_global_abort():
    fed, txn = car_setup()
    pre = fed.state_digest()
    witness = Chain(WITNESS_CHAIN_ID)
    out = ac3wn_execute(fed, txn, FailurePlan((("vote_abort", 2),)), witness=witness)
    assert out.status is Status.ABORTED
    assert out.applied_updates == 0
    assert fed.state_digest() == pre
    kinds = [rec.kind for ref in witness.all_refs() for rec in witness.block(ref).payload]
    assert kinds[-1] == "GlobalAbort"
    assert fed.locks == {}


def test_updates_only_after_global_commit():
    # audit: every applied update is covered by a GlobalCommit record
    for plan in (FailurePlan(), FailurePlan((("vote_abort", 1),)), FailurePlan((("witness_crash", None),))):
        fed, txn = car_setup()
        pre = fed.state_digest()
        witness = Chain(WITNESS_CHAIN_ID)
        ac3wn_execute(fed, txn, plan, witness=witness)
        kinds = {rec.kind for ref in witness.all_refs() for rec in witness.block(ref).payload}
        if fed.state_digest() != pre:
            assert "GlobalCommit" in kinds
        if "GlobalCommit" not in kinds:
            assert fed.state_digest() == pre
        fed.release_all(txn.id)


def test_witness_space_grows_with_faces():
    spaces = []
    for m in (1, 2, 3, 4):
        scen = grid_scenario(3, m, protocol="ac2s")
        fed = scen.build_federation()
        out = ac3wn_execute(fed, scen.transactions()[0])
        spaces.append(out.space_bytes)
    assert spaces == sorted(spaces)
    assert spaces[0] < spaces[-1]
    deltas = {b - a for a, b in zip(spaces, spaces[1:])}
    assert len(deltas) == 1  # exactly linear


def test_a_run_without_a_witness_has_the_outcome_of_one_with_a_fresh_witness():
    """Without a witness no chain is kept, yet the outcome, its space
    bytes included, is the one a fresh witness chain yields."""
    scenarios = [load_scenario(path)[0] for path in sorted(DATA.glob("*.scenario"))]
    scenarios += [random_scenario(seed) for seed in range(50)]
    statuses = Counter()
    for scenario in scenarios:
        bare, witnessed = scenario.build_federation(), scenario.build_federation()
        for event, txn in enumerate(scenario.transactions(), start=1):
            plan = scenario.plan_for(txn.id)
            outcome = ac3wn_execute(bare, txn, plan)
            assert outcome == ac3wn_execute(witnessed, txn, plan, witness=Chain(WITNESS_CHAIN_ID))
            assert bare.balances() == witnessed.balances() and bare.locks == witnessed.locks
            statuses[outcome.status] += 1
            for federation in (bare, witnessed):
                federation.release_all(txn.id)  # a blocked run holds its locks
                if scenario.epoch and event % scenario.epoch == 0:
                    for cid in federation.chain_ids():
                        federation.chain(cid).resolve_forks()
    assert {Status.COMMITTED, Status.ABORTED, Status.BLOCKED} <= statuses.keys()


def test_runs_sharing_a_witness_each_count_their_own_decisions():
    witness = Chain(WITNESS_CHAIN_ID)
    kinds = []
    for _ in range(3):
        fed, txn = car_setup()
        alone = ac3wn_execute(car_setup()[0], txn)
        shared = ac3wn_execute(fed, txn, witness=witness)
        assert shared.space_bytes == alone.space_bytes == 80
        kinds += ["Prepared"] * len(txn.sub_transactions) + ["GlobalCommit"]
    # the chain still holds every run's decisions
    assert [rec.kind for ref in witness.all_refs() for rec in witness.block(ref).payload] == kinds


def test_decision_record_serialization():
    d = Decision("GlobalCommit", 42)
    raw = d.to_bytes()
    assert raw.startswith(b"D")
    assert raw.endswith((42).to_bytes(8, "big"))
    # the kind is '>H'-prefixed, as every name in a block is
    assert raw == b"D\x00\x0cGlobalCommit" + (42).to_bytes(8, "big")
