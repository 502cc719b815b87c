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
and the balance digest is what makes compensation exact.  Every block
goes where its chain's ``append`` puts it, and an undo record names the
slot that ``Chain.next_ref`` reports before the append.  A forward
update block opens with a ``Forward`` marker naming its transaction, so
rollback reverses only the crashed transaction's own blocks.

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
from .topology import (
    CrossChainTransaction,
    TopologyMode,
    expand_refs,
    transaction_simplex,
)
from .wal import WalKind, WalRecord, WriteAheadLog

log = logging.getLogger(__name__)

UPDATE_FAILURE = "update_failure"
CRASH_AFTER_UNDO = "crash_after_undo"
CRASH_BEFORE_COMMIT = "crash_before_commit"

FACE_FAILURE_KINDS = (UPDATE_FAILURE, CRASH_AFTER_UNDO, CRASH_BEFORE_COMMIT)


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
    """Raised when a failure plan kills the process mid-transaction."""

    def __init__(self, point: str) -> None:
        super().__init__(point)
        self.point = point


@dataclass(frozen=True, slots=True)
class FailurePlan:
    """Deterministic fault injections for one transaction run.

    face_failures pairs a 1-based sub-transaction index with one of
    update_failure, crash_after_undo, or crash_before_commit (the last
    crashes after that face has applied, before the next record).
    The baseline-only fields are ignored by this engine.
    """

    face_failures: tuple[tuple[int, str], ...] = ()
    crash_after_record: Optional[int] = None
    crash_after_append: Optional[int] = None
    witness_crash: bool = False
    vote_abort_face: Optional[int] = None
    walk_away: Optional[str] = None
    timeout_swap: Optional[int] = None

    def face_failure(self, index: int) -> Optional[str]:
        for idx, kind in self.face_failures:
            if idx == index:
                return kind
        return None


NO_FAILURES = FailurePlan()


@dataclass(frozen=True, slots=True)
class RecoveryReport:
    rolled_back: tuple[int, ...]       # no terminal record: rolled back + abort appended
    committed_untouched: tuple[int, ...]
    locks_cleared: int

    def is_noop(self) -> bool:
        return not self.rolled_back and self.locks_cleared == 0


class _Meter:
    __slots__ = ("ops", "messages", "appends", "records")

    def __init__(self) -> None:
        self.ops = 0
        self.messages = 0
        self.appends = 0
        self.records = 0


class TopoCbtEngine:
    """Executes transactions against a federation and recovers from crashes."""

    def __init__(self, federation: Federation, wal: Optional[WriteAheadLog] = None,
                 mode: TopologyMode = TopologyMode.ABSTRACT) -> None:
        self.federation = federation
        self.wal = wal if wal is not None else WriteAheadLog()
        self.mode = mode

    # -- helpers --------------------------------------------------------

    def _write_record(self, meter: _Meter, plan: FailurePlan, txn_id: int, kind: WalKind,
                      block_ref: Optional[BlockRef] = None,
                      updates: tuple[AssetUpdate, ...] = ()) -> WalRecord:
        rec = self.wal.append(txn_id, kind, block_ref, updates)
        meter.ops += 1
        meter.records += 1
        if plan.crash_after_record is not None and meter.records == plan.crash_after_record:
            raise SimulatedCrash(f"after record {meter.records}")
        return rec

    def _append_updates(self, meter: _Meter, plan: FailurePlan, marker: Forward, chain_id: int,
                        updates: tuple[AssetUpdate, ...]) -> None:
        self.federation.chain(chain_id).append((marker,) + updates)
        meter.ops += 1 + len(updates)
        meter.messages += 1
        meter.appends += 1
        if plan.crash_after_append is not None and meter.appends == plan.crash_after_append:
            raise SimulatedCrash(f"after append {meter.appends}")

    def _rollback(self, meter: _Meter, undo_records: list[WalRecord]) -> None:
        """Append compensation blocks for logged updates, newest first.

        Reverse order keeps every compensation funded.  A record is
        skipped if its block is absent (the crash came first), is not
        this transaction's own (it lacks the ``Forward`` marker), or is
        already compensated, which makes rollback idempotent and
        restartable.  Plan hooks never fire here: the named crash
        points all sit in the forward phase.
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
        for index, sub in enumerate(txn.sub_transactions, start=1):
            injected = plan.face_failure(index)
            per_chain = self.federation.updates_by_chain(sub.updates)

            for chain_id, updates in per_chain:
                rec = self._write_record(meter, plan, txn.id, WalKind.UNDO,
                                         self.federation.chain(chain_id).next_ref(), updates)
                undo_records.append(rec)
            if injected == CRASH_AFTER_UNDO:
                raise SimulatedCrash(f"after undo records of face {index}")

            if injected == UPDATE_FAILURE or not self.federation.can_fund(sub.updates):
                failed = True
                break

            for chain_id, updates in per_chain:
                self._append_updates(meter, plan, marker, chain_id, updates)
                applied += len(updates)
            if injected == CRASH_BEFORE_COMMIT:
                raise SimulatedCrash(f"after face {index} applied")

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
