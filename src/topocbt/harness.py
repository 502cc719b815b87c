"""Deterministic scenario runner, independent atomicity audit, reports.

A run is a pure function of the scenario bytes: transactions execute
in id order against a freshly built federation, crashes go through
recovery, and the report serializes to CSV with a trailing
state-digest line.  The seed is only a label copied into each row;
no run reads it.  Nothing time-dependent enters the output.

Every protocol runs through one table, ``PROTOCOL_RUNNERS``.  A runner
takes the event loop's engine (its federation, log and topology mode),
the transaction and its failure plan, and returns the outcome and
whether the run crashed.  Its protocol's after-step (recovery after a
crash, releasing a blocked run's locks) lives in it, so no loop looks
at a protocol's name.

The atomicity verdict never trusts a protocol's own status: an auditor
diffs the balance sheet against the two digests a correct transaction
may produce (everything applied, or nothing).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .baselines import ac2s_execute, ac3wn_execute
from .chain import Federation
from .engine import FailurePlan, Outcome, SimulatedCrash, Status, TopoCbtEngine
from .scenario import Scenario, grid_scenario
from .topology import BettiGlue, CrossChainTransaction, build_federation_complex, federation_betti
from .wal import WalKind, WriteAheadLog

log = logging.getLogger(__name__)

AUDIT_ALL = "all"
AUDIT_NONE = "none"
AUDIT_PARTIAL = "partial"

RUN_CSV_COLUMNS = (
    "scenario", "seed", "protocol", "txn", "status", "applied_updates",
    "messages", "primitive_ops", "space_bytes", "worse_off", "audit",
    "atomicity", "betti_pre", "betti_post",
)

COMPARE_CSV_COLUMNS = (
    "protocol", "scenario", "seed", "status", "messages", "primitive_ops",
    "space_bytes", "worse_off",
)

# complexity_fit passes when the main fit's residual ratio is below this
FIT_TOLERANCE = 0.15


def apply_updates_pure(balances: dict, txn: CrossChainTransaction) -> dict:
    """What the balance sheet looks like if every declared update lands.

    Pure dictionary arithmetic, shared with no engine code path.
    """
    out = dict(balances)
    for sub in txn.sub_transactions:
        for upd in sub.updates:
            out[(upd.owner_from, upd.asset)] = out.get((upd.owner_from, upd.asset), 0) - upd.amount
            out[(upd.owner_to, upd.asset)] = out.get((upd.owner_to, upd.asset), 0) + upd.amount
    return out


def _same_sheet(a: dict, b: dict) -> bool:
    """Whether two balance sheets hold the same nonzero entries: every
    entry one holds and the other does not is a zero."""
    return not any(v for _, v in a.items() ^ b.items())


def audit_atomicity(pre_balances: dict, txn: CrossChainTransaction, post_balances: dict) -> str:
    """Classify the observed state: all updates in, none in, or neither."""
    if _same_sheet(post_balances, pre_balances):
        return AUDIT_NONE
    if _same_sheet(post_balances, apply_updates_pure(pre_balances, txn)):
        return AUDIT_ALL
    return AUDIT_PARTIAL


@dataclass(frozen=True)
class TxnRow:
    scenario: str
    seed: int
    protocol: str
    txn_id: int
    status: Status
    applied_updates: int
    messages: int
    primitive_ops: int
    space_bytes: int
    worse_off: tuple[str, ...]
    audit: str
    betti_pre: tuple[int, ...]
    betti_post: tuple[int, ...]
    recovered: bool = False
    # counted only where the audit cannot judge a commit (see invariant_failures)
    forward_blocks: int = 0

    @property
    def atomicity_ok(self) -> bool:
        return self.audit != AUDIT_PARTIAL

    def csv_cells(self) -> list[str]:
        return [
            self.scenario, str(self.seed), self.protocol, str(self.txn_id),
            str(self.status), str(self.applied_updates), str(self.messages),
            str(self.primitive_ops), str(self.space_bytes),
            ";".join(self.worse_off),
            self.audit, "ok" if self.atomicity_ok else "violated",
            "|".join(map(str, self.betti_pre)), "|".join(map(str, self.betti_post)),
        ]


@dataclass
class RunReport:
    rows: list[TxnRow]
    final_digest: str
    wal: WriteAheadLog

    def to_csv(self) -> str:
        lines = [",".join(RUN_CSV_COLUMNS)]
        lines.extend(",".join(row.csv_cells()) for row in self.rows)
        lines.append(f"# digest: {self.final_digest}")
        return "\n".join(lines) + "\n"

    def invariant_failures(self) -> list[str]:
        """Checks whose failure makes the run exit nonzero.

        The pairwise-swap baseline is allowed to violate atomicity;
        the main engine is not, and its status must agree with the
        auditor: Committed with all, Aborted with none.  A commit that
        applied no update leaves the sheet untouched and reads none.
        So does one whose updates cancel out, which the sheet cannot
        tell from a commit that never landed: such a row is judged by
        the log, and needs its commit record and its forward blocks.
        """
        problems = []
        for row in self.rows:
            if row.protocol != "topocbt":
                continue
            if not row.atomicity_ok:
                problems.append(f"txn {row.txn_id}: atomicity violated under topocbt")
            if row.status not in (Status.COMMITTED, Status.ABORTED):
                problems.append(f"txn {row.txn_id}: non-terminal status {row.status}")
            elif row.atomicity_ok and row.audit != (
                AUDIT_ALL if row.status is Status.COMMITTED and row.applied_updates else AUDIT_NONE
            ) and not (row.audit == AUDIT_NONE and self._commit_landed(row)):
                problems.append(f"txn {row.txn_id}: status {row.status} but audit {row.audit}")
        return problems

    def _commit_landed(self, row: TxnRow) -> bool:
        """The log holds the row's commit record, and the chains held its
        forward block at every slot its undo records name."""
        kinds = [rec.kind for rec in self.wal.records if rec.txn_id == row.txn_id]
        return WalKind.COMMIT in kinds and 0 < kinds.count(WalKind.UNDO) == row.forward_blocks


def _forward_blocks(federation: Federation, wal: WriteAheadLog, txn_id: int) -> int:
    """How many slots the txn's undo records name hold its forward block."""
    return sum(federation.chain(rec.block_ref.chain).holds_forward(rec.block_ref, txn_id)
               for rec in wal.records if rec.txn_id == txn_id and rec.kind is WalKind.UNDO)


def _run_topocbt(engine: TopoCbtEngine, txn: CrossChainTransaction, plan: FailurePlan) -> tuple[Outcome, bool]:
    """A crashed run goes through recovery, and its status is what recovery
    left in the log: a crash after the durable commit record is a commit."""
    try:
        return engine.execute(txn, plan), False
    except SimulatedCrash as crash:
        log.info("txn %s crashed (%s); running recovery", txn.id, crash.point)
        engine.recover()
        # no terminal record: the crash came before the txn logged anything
        terminal = engine.wal.terminal_for(txn.id)
        if terminal is not None and terminal.kind is WalKind.COMMIT:
            return Outcome(Status.COMMITTED, txn.total_updates(), 0, 0, 0), True
        return Outcome(Status.ABORTED, 0, 0, 0, 0), True


def _run_ac3wn(engine: TopoCbtEngine, txn: CrossChainTransaction, plan: FailurePlan) -> tuple[Outcome, bool]:
    """A blocked run has its locks cleared so the next event stays well-defined."""
    outcome = ac3wn_execute(engine.federation, txn, plan)
    if outcome.status is Status.BLOCKED:
        engine.federation.release_all(txn.id)
    return outcome, False


# Each protocol's runner, keyed by the names in scenario.PROTOCOLS, in
# order: (engine, txn, plan) -> (outcome, whether the run crashed).
PROTOCOL_RUNNERS = {
    "topocbt": _run_topocbt,
    "ac2s": lambda engine, txn, plan: (ac2s_execute(engine.federation, txn, plan), False),
    "ac3wn": _run_ac3wn,
}


def _replay(scenario: Scenario, federation: Federation, wal: WriteAheadLog, seed: int = 0,
            protocol_override: Optional[str] = None, compute_betti: bool = False) -> Iterator[TxnRow]:
    """Every scenario event in id order, one row each: the one event loop.

    The event's fork resolution (every ``epoch`` events) runs when the
    generator is resumed after the row, so a caller that stops after k
    rows holds the federation row k reported.  An event's pre-event
    balance sheet and Betti numbers are the previous event's post-event
    ones, unless fork resolution ran in between.

    The reports share one ``BettiGlue``, which derives itself at the
    first report.  Between two resolutions every block a protocol adds
    is ``Chain.append``'s, onto the canonical branch, one height above
    every live block: forward blocks, recovery's compensation blocks,
    and the ac2s and ac3wn legs.  So without a window nothing below a
    canonical tip changes within an epoch, and each report reads its
    stage of the epoch's one filtered reduction, with the loops the
    risen tips closed in closed form.  A resolution that retires a
    branch bumps its chain's ``reshapes``, and the next report derives
    the glue again.  With a window the glue derives itself again at
    every report, since the windows move as deals stop pending.
    """
    engine = TopoCbtEngine(federation, wal, mode=scenario.mode)
    transactions = scenario.transactions()
    glue = BettiGlue(federation, transactions, scenario.mode, scenario.window) if compute_betti else None

    def betti(done: int) -> tuple[int, ...]:
        """The numbers after ``done`` events."""
        return () if glue is None else glue.betti(done)

    post_balances: Optional[dict] = None
    betti_post: Optional[tuple[int, ...]] = None
    for event, txn in enumerate(transactions, start=1):
        protocol = protocol_override or scenario.protocols[txn.id]
        plan = scenario.plan_for(txn.id)
        pre_balances = federation.balances() if post_balances is None else post_balances
        betti_pre = betti(event - 1) if betti_post is None else betti_post
        outcome, recovered = PROTOCOL_RUNNERS[protocol](engine, txn, plan)
        post_balances = federation.balances()
        audit = audit_atomicity(pre_balances, txn, post_balances)
        undecided = outcome.status is Status.COMMITTED and outcome.applied_updates and audit == AUDIT_NONE
        betti_post = betti(event)
        yield TxnRow(
            scenario=scenario.name, seed=seed, protocol=protocol, txn_id=txn.id,
            status=outcome.status, applied_updates=outcome.applied_updates,
            messages=outcome.messages, primitive_ops=outcome.primitive_ops,
            space_bytes=outcome.space_bytes, worse_off=outcome.worse_off_parties,
            audit=audit, betti_pre=betti_pre, betti_post=betti_post, recovered=recovered,
            forward_blocks=_forward_blocks(federation, engine.wal, txn.id) if undecided else 0,
        )
        if scenario.epoch > 0 and event % scenario.epoch == 0:
            for cid in federation.chain_ids():
                federation.chain(cid).resolve_forks()
            post_balances = betti_post = None


def run_scenario(
    scenario: Scenario,
    seed: int,
    protocol_override: Optional[str] = None,
    compute_betti: bool = True,
) -> RunReport:
    """Execute every transaction of the scenario in id order.

    ``seed`` only labels the report; the run is the same for every seed.
    """
    federation = scenario.build_federation()
    wal = WriteAheadLog()
    rows = list(_replay(scenario, federation, wal, seed, protocol_override, compute_betti))
    return RunReport(rows, federation.state_digest(), wal)


def betti_report(scenario: Scenario, at_event: int):
    """Betti vector and tagged complex after ``at_event`` transactions ran.

    This is the complex ``run_scenario`` reports as event ``at_event``'s
    betti_post (before that event's fork resolution).  Event 0 is the
    initial federation with every declared transaction still in flight.
    """
    federation, pending = replay_to(scenario, at_event)
    betti = federation_betti(federation, pending, mode=scenario.mode, window=scenario.window)
    return betti, build_federation_complex(federation, pending, mode=scenario.mode, window=scenario.window)


def replay_to(scenario: Scenario, at_event: int) -> tuple[Federation, list[CrossChainTransaction]]:
    """The federation after ``at_event`` transactions ran, before that
    event's fork resolution, and the transactions still pending."""
    transactions = scenario.transactions()
    if at_event < 0 or at_event > len(transactions):
        raise ValueError(f"event index {at_event} out of range 0..{len(transactions)}")
    federation = scenario.build_federation()
    for _ in islice(_replay(scenario, federation, WriteAheadLog()), at_event):
        pass
    return federation, transactions[at_event:]


# -- protocol comparison -----------------------------------------------------


@dataclass
class ComparisonTable:
    rows: list[TxnRow]

    def to_csv(self) -> str:
        """The run CSV's cells of each row, picked out by column name."""
        picks = [RUN_CSV_COLUMNS.index(name) for name in COMPARE_CSV_COLUMNS]
        lines = [",".join(COMPARE_CSV_COLUMNS)]
        for row in self.rows:
            cells = row.csv_cells()
            lines.append(",".join(cells[i] for i in picks))
        return "\n".join(lines) + "\n"

    def count(self, protocol: str, status: Status) -> int:
        return Counter((r.protocol, r.status) for r in self.rows)[protocol, status]

    def pattern(self) -> dict[str, dict[str, bool]]:
        """The qualitative capability grid: per protocol, whether any run
        partially committed and whether any run blocked."""
        return {protocol: {"partial_commit": self.count(protocol, Status.PARTIAL_COMMIT) > 0,
                           "blocked": self.count(protocol, Status.BLOCKED) > 0}
                for protocol in sorted({r.protocol for r in self.rows})}


def compare_protocols(scenarios: Iterable[Scenario], seeds: Sequence[int]) -> ComparisonTable:
    """Run every scenario under every protocol and collect the rows.

    Seeds are labels: a run is the same under every seed, so each
    (scenario, protocol) runs once, under the first seed, and its rows
    repeat under each later one.
    """
    rows: list[TxnRow] = []
    for scenario in scenarios:
        first = [row for seed in seeds[:1] for protocol in PROTOCOL_RUNNERS
                 for row in run_scenario(scenario, seed, protocol_override=protocol, compute_betti=False).rows]
        rows += first
        rows += [replace(row, seed=seed) for seed in seeds[1:] for row in first]
    return ComparisonTable(rows)


# -- complexity fit -----------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    coefficients: tuple[float, ...]
    residual_ratio: float

    @property
    def nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coefficients)


def fit_ops(points: list[tuple[int, int, int]], basis: str) -> FitResult:
    """Least-squares fit of measured op counts, solved exactly.

    basis "n2_nm_1" fits a*n^2 + b*n*m + c; basis "mn2_1" fits
    a*m*n^2 + c.  The normal equations X^T X beta = X^T y are solved by
    Gauss-Jordan elimination over Fractions, so the coefficients and
    the residual are exact until the final float conversion.
    """
    if len(points) < 6:
        raise ValueError(f"need at least 6 grid points, got {len(points)}")
    if basis == "n2_nm_1":
        names = ("n^2", "n*m", "1")
        design = [(n * n, n * m, 1) for n, m, _ in points]
    elif basis == "mn2_1":
        names = ("m*n^2", "1")
        design = [(m * n * n, 1) for n, m, _ in points]
    else:
        raise ValueError(f"unknown basis {basis!r}")
    y = [ops for _, _, ops in points]
    k = len(names)
    # [X^T X | X^T y] is the first k rows of [X | y]^T [X | y]
    augmented = [(*x, t) for x, t in zip(design, y)]
    rows = [[Fraction(sum(r[i] * r[j] for r in augmented)) for j in range(k + 1)] for i in range(k)]
    for col in range(k):
        # X^T X is positive semidefinite: a zero pivot means dependent columns
        if not rows[col][col]:
            raise ValueError(f"the grid points cannot separate the basis {' + '.join(names)}")
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(k):
            if i != col and (f := rows[i][col]):
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    coeffs = [row[k] for row in rows]
    residual = sum((sum(c * v for c, v in zip(coeffs, x)) - t) ** 2 for x, t in zip(design, y))
    ratio = math.sqrt(residual / sum(t * t for t in y))
    return FitResult(coefficients=tuple(float(c) for c in coeffs), residual_ratio=ratio)


def measure_grid(
    protocol: str,
    ns: Iterable[int] = range(2, 7),
    ms: Iterable[int] = range(1, 5),
) -> list[tuple[int, int, int]]:
    """Failure-free op counts over the (n, m) grid."""
    points = []
    for n in ns:
        for m in ms:
            scenario = grid_scenario(n, m, protocol=protocol)
            report = run_scenario(scenario, 1, compute_betti=False)
            row = report.rows[0]
            if row.status is not Status.COMMITTED:
                raise RuntimeError(f"grid point n={n} m={m} did not commit: {row.status}")
            points.append((n, m, row.primitive_ops))
    return points


@dataclass(frozen=True)
class FitVerdict:
    main_fit: FitResult
    passed: bool
    n2_dominates_at_m1: bool


def complexity_fit(points: list[tuple[int, int, int]]) -> FitVerdict:
    """PASS when the quadratic-plus-cross-term model explains the counts
    to within ``FIT_TOLERANCE``.

    Also checks that with a single sub-transaction the quadratic term
    carries the cost (the cross term degenerates).
    """
    fit = fit_ops(points, "n2_nm_1")
    a, b, _ = fit.coefficients
    n_max = max(n for n, _, _ in points)
    dominates = a * n_max * n_max > b * n_max
    return FitVerdict(
        main_fit=fit,
        passed=fit.residual_ratio < FIT_TOLERANCE and fit.nonnegative,
        n2_dominates_at_m1=dominates,
    )
