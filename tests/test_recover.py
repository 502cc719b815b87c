"""`topocbt recover` on every record prefix of a run's log.

A log of k records stands for the declared run stopped just before it
would write record k+1; recovery then rolls back what had not
finished.  So the digest after recovery is a pure function of the log:
the initial balances plus every update of each transaction that has a
commit record among the k.  The oracle below computes that with
dictionary arithmetic only.
"""

from pathlib import Path

import pytest

from topocbt import cli
from topocbt.chain import Federation
from topocbt.harness import apply_updates_pure, run_scenario
from topocbt.scenario import CAR_TRADING_TEXT, load_scenario, parse_scenario
from topocbt.wal import WalKind, WriteAheadLog
from oracles import random_scenario

DATA = Path(__file__).parent / "data"


def oracle_digest(scenario, records) -> str:
    committed = {rec.txn_id for rec in records if rec.kind is WalKind.COMMIT}
    balances = scenario.build_federation().balances()
    for txn in scenario.transactions():
        if txn.id in committed:
            balances = apply_updates_pure(balances, txn)
    return Federation(balances).state_digest()


def recover_every_prefix(scenario, tmp_path, capsys, monkeypatch) -> int:
    """Check each prefix of the scenario's log; returns how many ran."""
    monkeypatch.setattr(cli, "load_scenario", lambda source: (scenario, b""))
    records = run_scenario(scenario, 1, compute_betti=False).wal.records
    wal_file = tmp_path / "prefix.wal"
    for k in range(len(records) + 1):
        WriteAheadLog(records[:k]).write(wal_file)
        capsys.readouterr()
        code = cli.main(["recover", "--wal", str(wal_file), "--scenario", scenario.name])
        captured = capsys.readouterr()
        assert code == 0, (scenario.name, k, captured.err)
        lines = captured.out.splitlines()
        assert lines[1].removeprefix("digest after recovery:").strip() == oracle_digest(scenario, records[:k]), (
            scenario.name, k)
        if k == len(records):
            assert lines[2].startswith("rolled back: [];"), (scenario.name, lines[2])
    return len(records) + 1


CRASHES = [("crash_after_undo", "face", i) for i in (1, 2, 3)] + [
    ("crash_before_commit", "face", i) for i in (1, 2, 3)] + [
    ("crash_after_record", "record", i) for i in (1, 2, 3, 4)] + [
    ("crash_after_append", "append", i) for i in (1, 2, 3)]


@pytest.mark.parametrize("kind, key, at", CRASHES, ids=[f"{kind}-{at}" for kind, _, at in CRASHES])
def test_car_trading_crash_every_prefix(tmp_path, capsys, monkeypatch, kind, key, at):
    scenario = parse_scenario(CAR_TRADING_TEXT + f"\n[failure]\ntxn = 1\nkind = {kind}\n{key} = {at}\n")
    recover_every_prefix(scenario, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("name", [
    "reused_slot.scenario", "forked_replicated_two_deals.scenario", "compensated_then_commit.scenario",
])
def test_data_scenario_every_prefix(tmp_path, capsys, monkeypatch, name):
    scenario, _ = load_scenario(str(DATA / name))
    recover_every_prefix(scenario, tmp_path, capsys, monkeypatch)


def test_random_scenarios_every_prefix(tmp_path, capsys, monkeypatch):
    prefixes = sum(recover_every_prefix(random_scenario(seed), tmp_path, capsys, monkeypatch)
                   for seed in range(200))
    assert prefixes > 800
