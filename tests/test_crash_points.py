"""Every crash point of every transaction, as a standing oracle.

For each transaction of a fixed corpus, the run is cut after the
transaction's k-th log record, then after its k-th block append, for
every k up to the number of records it writes when nothing is injected.
Every other transaction runs as declared.  After each cut, recovery
must leave the pure balance audit at none or all, the status must agree
with the terminal record, and a second ``recover()`` must change
nothing: not the balances, the log or the lock table.  The log as it
stood at the crash, before recovery's abort record, also goes through
``topocbt recover``, which must print the digest ``recover()`` left.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from topocbt import cli
from topocbt.engine import Status, TopoCbtEngine
from topocbt.harness import AUDIT_ALL, AUDIT_NONE, _replay, apply_updates_pure
from topocbt.scenario import FailureSpec, car_trading, grid_scenario, load_scenario
from topocbt.wal import WalKind, WriteAheadLog
from oracles import random_scenario
from test_topology import DEEP_SEEDS, deep_scenario

DATA = Path(__file__).parent / "data"
CRASH_KINDS = ("crash_after_record", "crash_after_append")


def run_through(scenario, txn_id):
    """Replay the scenario up to and including txn_id's event."""
    federation, wal = scenario.build_federation(), WriteAheadLog()
    for row in _replay(scenario, federation, wal):
        if row.txn_id == txn_id:
            return row, federation, wal
    raise AssertionError(f"txn {txn_id} never ran")


@pytest.fixture
def recover_cli(tmp_path, capsys, monkeypatch):
    """``topocbt recover`` in-process on a scenario and a log's records;
    returns the digest it prints after recovery."""
    wal_file = tmp_path / "cut.wal"

    def run(scenario, records) -> str:
        monkeypatch.setattr(cli, "load_scenario", lambda source: (scenario, b""))
        WriteAheadLog(records).write(wal_file)
        capsys.readouterr()
        code = cli.main(["recover", "--wal", str(wal_file), "--scenario", scenario.name])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out.splitlines()[1].removeprefix("digest after recovery:").strip()

    return run


def sweep(scenario, recover_cli) -> tuple[int, int]:
    """Cut each transaction at each crash point and check the outcome;
    returns (injections, runs the injection crashed)."""
    injections = crashed = 0
    for txn in scenario.transactions():
        others = [f for f in scenario.failures if f.txn != txn.id]
        clean = replace(scenario, failures=others, protocols={**scenario.protocols, txn.id: "topocbt"})
        _, _, wal = run_through(clean, txn.id)
        records = sum(rec.txn_id == txn.id for rec in wal.records)
        # a commit whose updates cancel out leaves the sheet as it was
        moves = any(apply_updates_pure({}, txn).values())
        for kind in CRASH_KINDS:
            for k in range(1, records + 1):
                where = (scenario.name, txn.id, kind, k)
                cut = replace(clean, failures=others + [FailureSpec(txn.id, kind, k)])
                row, federation, wal = run_through(cut, txn.id)
                terminal = wal.terminal_for(txn.id)
                assert terminal is not None, where
                committed = terminal.kind is WalKind.COMMIT
                assert row.status is (Status.COMMITTED if committed else Status.ABORTED), where
                assert row.audit == (AUDIT_ALL if committed and moves else AUDIT_NONE), where
                digest, log_bytes = federation.state_digest(), wal.to_bytes()
                # recovery wrote an abort record last, unless the crash came after the commit record
                at_crash = wal.records[:-1] if row.recovered and not committed else wal.records
                assert recover_cli(cut, at_crash) == digest, where
                again = TopoCbtEngine(federation, wal, mode=scenario.mode).recover()
                assert again.is_noop(), where
                assert (federation.state_digest(), wal.to_bytes()) == (digest, log_bytes), where
                injections += 1
                crashed += row.recovered
    return injections, crashed


def test_car_trading_every_crash_point(recover_cli):
    # one undo record per face plus the commit, and one append per face
    assert sweep(car_trading(), recover_cli) == (8, 7)


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.scenario")))
def test_data_scenario_every_crash_point(name, recover_cli):
    scenario, _ = load_scenario(str(DATA / name))
    injections, crashed = sweep(scenario, recover_cli)
    assert injections > 0 and crashed > 0


@pytest.mark.parametrize("n", range(2, 7))
def test_grid_scenarios_every_crash_point(n, recover_cli):
    for m in range(1, 5):
        # one undo per chain per face, then the commit; only the last
        # append point lies past the run's n * m appends
        records = n * m + 1
        assert sweep(grid_scenario(n, m), recover_cli) == (2 * records, 2 * records - 1), (n, m)


def test_random_scenarios_every_crash_point(recover_cli):
    injections, crashed = map(sum, zip(*(sweep(random_scenario(seed), recover_cli) for seed in range(200))))
    assert injections > 1000 and crashed > injections // 2


def test_deep_scenarios_every_crash_point(recover_cli):
    injections, crashed = map(sum, zip(*(sweep(deep_scenario(seed), recover_cli) for seed in range(DEEP_SEEDS))))
    assert injections > 100 and crashed > injections // 2
