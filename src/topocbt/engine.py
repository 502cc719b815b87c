"""Multi-party cross-chain transaction engine with undo-log recovery.

One transaction runs as: lock every involved block (fork copies
included), construct the spanning simplex, then per declared
sub-transaction write undo records and append the update blocks.  Any
failure triggers reverse-order compensation through the undo log, then
a durable abort record, simplex teardown, and lock release; success
ends with a durable commit record and the same cleanup.  A terminal
record (commit or abort) therefore means nothing is left to do, and
recovery has one path: roll back each transaction that has none.  The
outcome is always terminal: committed or aborted, never pending.

Updates are never erased: both application and rollback append blocks,
and the balance digest is what makes compensation exact.  An undo record
names the slot that ``Chain.next_ref`` reports, and the forward block
goes there: if another deal filled that slot in between, the append
refuses and the face fails.  A forward update block opens with a
``Forward`` marker naming its transaction, so rollback reverses only
the crashed transaction's own blocks.

Each failure a plan injects here strikes "after the k-th step" of its
kind: the k-th log record or append, or face k's undo records, funding
check or appends.  One hook counts every such step and asks the plan
whether it strikes there, so the first failure the run reaches strikes.

Primitive-operation metering (used by the complexity fit):
    1 per block locked or released
    1 per vertex pair when building or tearing down the simplex
    1 per log record written
    1 per block appended and 1 per asset update it carries
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Optional

from .chain import AssetUpdate, BlockRef, Compensation, Federation, Forward
from .topology import CrossChainTransaction, TopologyMode, expand_refs, transaction_simplex
from .wal import WalKind, WalRecord, WriteAheadLog

log = logging.getLogger(__name__)

UPDATE_FAILURE = "update_failure"
CRASH_AFTER_UNDO = "crash_after_undo"
CRASH_BEFORE_COMMIT = "crash_before_commit"

FACE_FAILURE_KINDS = (UPDATE_FAILURE, CRASH_AFTER_UNDO, CRASH_BEFORE_COMMIT)

# Each failure kind and the scenario key whose value says where it
# strikes: a 1-based face, party name, swap, record or append count
# (None: the kind takes no place).
FAILURE_KEYS: dict[str, Optional[str]] = dict.fromkeys(FACE_FAILURE_KINDS, "face") | {
    "walk_away": "party", "timeout": "swap", "witness_crash": None, "vote_abort": "face",
    "crash_after_record": "record", "crash_after_append": "append",
}

# What a crash the engine injects reports, after the k-th step of its kind.
CRASH_POINTS = {"crash_after_record": "after record {}", "crash_after_append": "after append {}",
                CRASH_AFTER_UNDO: "after undo records of face {}", CRASH_BEFORE_COMMIT: "after face {} applied"}


class Status(enum.Enum):
    COMMITTED = "Committed"
    ABORTED = "Aborted"
    PARTIAL_COMMIT = "PartialCommit"
    BLOCKED = "Blocked"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Outcome:
    """What one run of one transaction reports, whichever protocol ran it."""

    status: Status
    applied_updates: int
    messages: int
    primitive_ops: int
    space_bytes: int  # durable bytes left behind once the txn is terminal
    worse_off_parties: tuple[str, ...] = ()  # only pairwise swaps strand anyone


def pair_count(n: int) -> int:
    """Vertex pairs among n blocks: the metered cost of one pairwise pass."""
    return n * (n - 1) // 2


class SimulatedCrash(RuntimeError):
    """Raised when a failure plan kills the process mid-transaction; its
    message is the crash point, such as ``after record 3``."""


@dataclass(frozen=True, slots=True)
class FailurePlan:
    """Deterministic fault injections for one transaction run.

    ``failures`` holds each failure as its kind and where it strikes:
    the value of the kind's key in ``FAILURE_KEYS``, or None for a
    kind with no key.  Each protocol asks ``strikes`` at the steps it
    reaches and ignores the kinds it has no step for.
    """

    failures: tuple[tuple[str, Optional[int | str]], ...] = ()

    def __post_init__(self) -> None:
        for kind, where in self.failures:
            if kind not in FAILURE_KEYS:
                raise ValueError(f"unknown failure kind {kind!r}")
            if (key := FAILURE_KEYS[kind]) is not None and where is None:
                raise ValueError(f"failure kind {kind} needs a {key}")
            if key is None and where is not None:
                raise ValueError(f"failure kind {kind} takes no locating key, got {where!r}")

    def strikes(self, kind: str, where: Optional[int | str] = None) -> bool:
        return (kind, where) in self.failures


NO_FAILURES = FailurePlan()


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    rolled_back: tuple[int, ...]       # no terminal record: rolled back + abort appended
    committed_untouched: tuple[int, ...]
    locks_cleared: int

    def is_noop(self) -> bool:
        return not self.rolled_back and self.locks_cleared == 0


class _Meter:
    __slots__ = ("ops", "messages", "steps")

    def __init__(self) -> None:
        self.ops = 0
        self.messages = 0
        self.steps: dict[str, int] = {}  # failure kind -> steps of it done


class TopoCbtEngine:
    """Executes transactions against a federation and recovers from crashes."""

    def __init__(self, federation: Federation, wal: Optional[WriteAheadLog] = None,
                 mode: TopologyMode = TopologyMode.ABSTRACT) -> None:
        self.federation = federation
        self.wal = wal if wal is not None else WriteAheadLog()
        self.mode = mode

    # -- helpers --------------------------------------------------------

    def _reach(self, meter: _Meter, plan: FailurePlan, kind: str) -> bool:
        """Count one more step of the kind ``kind`` strikes after, and raise
        the crash the plan injects there, or answer if it fails the step."""
        if not plan.failures:
            return False
        k = meter.steps[kind] = meter.steps.get(kind, 0) + 1
        if not plan.strikes(kind, k):
            return False
        if kind == UPDATE_FAILURE:
            return True
        raise SimulatedCrash(CRASH_POINTS[kind].format(k))

    def _write_record(self, meter: _Meter, plan: FailurePlan, txn_id: int, kind: WalKind,
                      block_ref: Optional[BlockRef] = None, updates: tuple[AssetUpdate, ...] = ()) -> WalRecord:
        rec = self.wal.append(txn_id, kind, block_ref, updates)
        meter.ops += 1
        self._reach(meter, plan, "crash_after_record")
        return rec

    def _append_face(self, meter: _Meter, plan: FailurePlan, marker: Forward, face: list[WalRecord]) -> bool:
        """Append the forward block of each undo record's updates at the
        slot it names; refuse at the first slot another deal has filled."""
        for undo in face:
            if self.federation.chain(undo.block_ref.chain).append((marker,) + undo.updates, undo.block_ref) is None:
                return False
            meter.ops += 1 + len(undo.updates)
            meter.messages += 1
            self._reach(meter, plan, "crash_after_append")
        return True

    def _rollback(self, meter: _Meter, undo_records: list[WalRecord]) -> None:
        """Append compensation blocks for logged updates, newest first.

        Reverse order keeps every compensation funded.  A record is
        skipped if its block is absent (the crash came first), is not
        this transaction's own (it lacks the ``Forward`` marker), or is
        already compensated, which makes rollback idempotent and
        restartable.  The failure hook never fires here: every
        failure point sits in the forward phase.
        """
        for rec in reversed(undo_records):
            assert rec.block_ref is not None
            chain = self.federation.chain(rec.block_ref.chain)
            if not chain.holds_forward(rec.block_ref, rec.txn_id) or chain.is_compensated(rec.block_ref):
                continue
            inverse = tuple(u.inverse() for u in reversed(rec.updates))
            chain.append((Compensation(rec.block_ref, rec.txn_id),) + inverse)
            meter.ops += 1 + len(inverse)
            meter.messages += 1

    # -- the protocol ----------------------------------------------------

    def execute(self, txn: CrossChainTransaction, plan: FailurePlan = NO_FAILURES) -> Outcome:
        """Run one transaction to a terminal outcome.

        Raises SimulatedCrash when the plan kills the run; the log and
        any locks survive for recover() to clean up.
        """
        txn.validate(self.federation)
        meter = _Meter()

        refs = expand_refs(self.federation, txn)
        conflict = self.federation.lock_blocks(refs, txn.id)
        meter.ops += len(refs)
        meter.messages += len(refs)
        if conflict is not None:
            log.info("txn %s: lock conflict on %s held by %s", txn.id, conflict.ref, conflict.holder)
            return Outcome(Status.ABORTED, 0, meter.messages, meter.ops, 0)

        sigma = transaction_simplex(self.federation, txn, self.mode)
        meter.ops += pair_count(len(sigma.vertices))

        marker = Forward(txn.id)
        undo_records: list[WalRecord] = []
        applied = 0
        failed = False
        for sub in txn.sub_transactions:
            face: list[WalRecord] = []
            for chain_id, updates in self.federation.updates_by_chain(sub.updates):
                face.append(self._write_record(meter, plan, txn.id, WalKind.UNDO,
                                               self.federation.chain(chain_id).next_ref(), updates))
            undo_records += face
            self._reach(meter, plan, CRASH_AFTER_UNDO)
            # an injected failure, an overdraft or a slot another deal filled fails the face
            if (self._reach(meter, plan, UPDATE_FAILURE) or not self.federation.can_fund(sub.updates)
                    or not self._append_face(meter, plan, marker, face)):
                failed = True
                break
            applied += len(sub.updates)
            self._reach(meter, plan, CRASH_BEFORE_COMMIT)

        if failed:
            self._rollback(meter, undo_records)
        terminal = self._write_record(meter, plan, txn.id, WalKind.ABORT if failed else WalKind.COMMIT)
        meter.ops += pair_count(len(sigma.vertices))
        self.federation.release_blocks(refs, txn.id)
        meter.ops += len(refs)
        meter.messages += len(refs)
        if failed:
            return Outcome(Status.ABORTED, 0, meter.messages, meter.ops, 0)
        return Outcome(Status.COMMITTED, applied, meter.messages, meter.ops, len(terminal.to_bytes()))

    # -- restart path ------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Bring every logged transaction to a clean terminal state.

        A terminal record means nothing is left to do: a commit is
        untouched, and an abort is only written once its compensation
        is done.  Each transaction with no terminal record is rolled
        back and gets an abort record; the compensation markers make
        a rollback that a crash cut short safe to run again.  The
        volatile lock table does not survive a restart and is always
        cleared.  Running recover twice changes nothing.
        """
        meter = _Meter()
        by_txn: dict[int, list[WalRecord]] = {}
        for rec in self.wal.records:
            by_txn.setdefault(rec.txn_id, []).append(rec)

        rolled_back: list[int] = []
        committed: list[int] = []
        for txn_id in sorted(by_txn):
            records = by_txn[txn_id]
            if any(r.kind is WalKind.COMMIT for r in records):
                committed.append(txn_id)
            elif not any(r.kind is WalKind.ABORT for r in records):
                self._rollback(meter, [r for r in records if r.kind is WalKind.UNDO])
                self.wal.append(txn_id, WalKind.ABORT)
                rolled_back.append(txn_id)

        cleared = len(self.federation.locks)
        self.federation.locks.clear()
        return RecoveryReport(tuple(rolled_back), tuple(committed), cleared)
