"""Reference protocols the main engine is measured against.

AC2S splits a deal into timelocked local swaps, one per pair of parties
trading within a face.  Every swap is atomic on its own, but there is
no global rollback: once a party walks away or misses a deadline,
earlier swaps stand and somebody ends up worse off (a partial commit).
A timelock runs from its own swap's offer, so each counts from zero.

AC3WN runs two-phase commit with an extra witness blockchain as the
coordinator's decision record.  It is globally atomic, but a
coordinator crash after the prepare phase leaves participants holding
locks with no decision to act on: the run blocks.  The blocking
horizon is a number of ticks after prepare.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from .chain import AssetUpdate, Chain, Federation, _U64, _pack_str
from .engine import FailurePlan, NO_FAILURES, Outcome, Status, UPDATE_FAILURE, CRASH_BEFORE_COMMIT, pair_count
from .topology import CrossChainTransaction, expand_refs

log = logging.getLogger(__name__)

DEFAULT_TIMELOCK = 10        # simulation ticks granted to claim a swap leg
BLOCKING_HORIZON_FACTOR = 10  # locks held past factor * timelock => blocked


@dataclass(frozen=True)
class Decision:
    """2PC decision record carried on the witness chain.  Packed as it
    is made, like ``chain.Forward``."""

    kind: str  # Prepared | GlobalCommit | GlobalAbort
    txn_id: int

    def to_bytes(self) -> bytes:
        return b"D" + _pack_str(self.kind) + _U64.pack(self.txn_id)

    __post_init__ = to_bytes


WITNESS_CHAIN_ID = 999


def _swap_legs(txn: CrossChainTransaction) -> Optional[list[tuple[AssetUpdate, AssetUpdate]]]:
    """Rewrite a single-transfer cycle into chained two-leg swaps.

    A cycle P0 -a0-> P1 -a1-> ... -> P0 becomes swaps in which P0 pays
    the asset acquired so far and the counterparty hands over the next
    one, exactly the middle-medium exchange pattern.  Returns None when
    the faces are not such a cycle.
    """
    subs = txn.sub_transactions
    if len(subs) < 2 or any(len(s.updates) != 1 for s in subs):
        return None
    transfers = [s.updates[0] for s in subs]
    for cur, nxt in zip(transfers, transfers[1:]):
        if cur.owner_to != nxt.owner_from:
            return None
    if transfers[-1].owner_to != transfers[0].owner_from:
        return None
    initiator = transfers[0].owner_from
    swaps = []
    for j in range(1, len(transfers)):
        prev, step = transfers[j - 1], transfers[j]
        give = AssetUpdate(initiator, step.owner_from, prev.asset, prev.amount)
        take = AssetUpdate(step.owner_from, initiator, step.asset, step.amount)
        swaps.append((give, take))
    return swaps


def ac2s_execute(
    federation: Federation,
    txn: CrossChainTransaction,
    plan: FailurePlan = NO_FAILURES,
) -> Outcome:
    """Run the deal as a sequence of independent timelocked swaps.

    A face list that is a single-transfer cycle is chained through the
    initiator.  Otherwise each face's updates split by unordered party
    pair, in order of first appearance, one swap per pair (a transfer
    to oneself is a pair of its own).
    """
    txn.validate(federation)
    n_blocks = len(expand_refs(federation, txn))

    swaps: list[tuple[tuple[AssetUpdate, ...], int]] = []  # (legs, source face index)
    cycle = _swap_legs(txn)
    initiator = txn.sub_transactions[0].updates[0].owner_from if cycle is not None else None
    if cycle is not None:
        # swap j settles the transfer that face j+1 declared
        swaps = [((give, take), i + 2) for i, (give, take) in enumerate(cycle)]
    else:
        for index, sub in enumerate(txn.sub_transactions, start=1):
            pairs: dict[frozenset[str], list[AssetUpdate]] = {}
            for u in sub.updates:
                pairs.setdefault(frozenset((u.owner_from, u.owner_to)), []).append(u)
            swaps.extend((tuple(legs), index) for legs in pairs.values())

    meter_ops = 0
    messages = 0
    applied = 0
    applied_swaps = 0
    worse_off: set[str] = set()

    walk_away = plan.walk_away
    for number, (legs, face_index) in enumerate(swaps, start=1):
        participants = {u.owner_from for u in legs} | {u.owner_to for u in legs}
        if walk_away is not None and walk_away in participants:
            if applied_swaps and initiator is not None:
                # stuck with whatever the last completed swap handed over
                worse_off.add(initiator)
            break

        ticks = 0  # since this swap was offered
        expired = False
        for leg_no, leg in enumerate(legs, start=1):
            # with no coordinator, every leg re-verifies the whole
            # deal's blocks pairwise before it settles
            meter_ops += pair_count(n_blocks)
            messages += 2  # offer + claim
            late = leg_no == len(legs) and (
                plan.timeout_swap == number
                or plan.face_failure(face_index) == UPDATE_FAILURE
            )
            ticks += DEFAULT_TIMELOCK + 1 if late else 1
            if ticks > DEFAULT_TIMELOCK:
                expired = True
                worse_off.update(l.owner_from for l in legs[: leg_no - 1])
                break
            federation.chain_for_asset(leg.asset).append((leg,))
            meter_ops += 1 + 1
            applied += 1
        if expired:
            break
        applied_swaps += 1

    if applied == sum(len(legs) for legs, _ in swaps):
        status = Status.COMMITTED
    elif applied == 0:
        status = Status.ABORTED
    else:
        status = Status.PARTIAL_COMMIT
    return Outcome(status, applied, messages, meter_ops, 0, tuple(sorted(worse_off)))


def ac3wn_execute(
    federation: Federation,
    txn: CrossChainTransaction,
    plan: FailurePlan = NO_FAILURES,
    witness: Optional[Chain] = None,
) -> Outcome:
    """Two-phase commit with the decision sequence on a witness chain.

    The outcome's space is the bytes of this run's decisions.  A caller
    that audits that updates only ever follow a recorded GlobalCommit
    hands in the witness chain, e.g. ``Chain(WITNESS_CHAIN_ID)``, and
    each decision is appended to it; without one, no chain is kept.
    """
    txn.validate(federation)
    taken = 0  # bytes of this run's decisions

    def decide(kind: str) -> None:
        nonlocal taken
        decision = Decision(kind, txn.id)
        taken += len(decision.to_bytes())
        if witness is not None:
            witness.append((decision,))

    refs = expand_refs(federation, txn)
    messages = 0
    meter_ops = len(refs)
    conflict = federation.lock_blocks(refs, txn.id)
    messages += len(refs)
    if conflict is not None:
        return Outcome(Status.ABORTED, 0, messages, meter_ops, 0)

    # phase 1: one prepare round-trip per participating chain, one
    # witness block per sub-transaction
    votes_ok = True
    chain_ids = sorted({ref.chain for ref in txn.blocks})
    messages += 2 * len(chain_ids)
    meter_ops += 2 * len(chain_ids)
    for index, sub in enumerate(txn.sub_transactions, start=1):
        decide("Prepared")
        meter_ops += 1
        vote_abort = plan.vote_abort_face == index or plan.face_failure(index) == UPDATE_FAILURE
        if vote_abort:
            votes_ok = False
    if votes_ok:
        votes_ok = federation.can_fund(u for sub in txn.sub_transactions for u in sub.updates)

    # coordinator crash window: prepare done, decision not yet durable
    crashed = plan.witness_crash or any(k == CRASH_BEFORE_COMMIT for _, k in plan.face_failures)
    if crashed:
        log.info("txn %s: no decision %d ticks after prepare, %d locks still held",
                 txn.id, BLOCKING_HORIZON_FACTOR * DEFAULT_TIMELOCK, len(refs))
        return Outcome(Status.BLOCKED, 0, messages, meter_ops, taken)

    if not votes_ok:
        decide("GlobalAbort")
        meter_ops += 1
        messages += len(chain_ids)
        federation.release_blocks(refs, txn.id)
        meter_ops += len(refs)
        return Outcome(Status.ABORTED, 0, messages, meter_ops, taken)

    decide("GlobalCommit")
    meter_ops += 1
    messages += len(chain_ids)
    applied = 0
    for sub in txn.sub_transactions:
        for cid, updates in federation.updates_by_chain(sub.updates):
            federation.chain(cid).append(updates)
            meter_ops += 1 + len(updates)
            applied += len(updates)
    federation.release_blocks(refs, txn.id)
    meter_ops += len(refs)
    return Outcome(Status.COMMITTED, applied, messages, meter_ops, taken)

