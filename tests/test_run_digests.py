"""Byte-identity gate: every run's report CSV and WAL bytes, as sha256.

``tests/data/run_digests.txt`` holds one ``<case> <sha256>`` line per
run, where the digest covers ``RunReport.to_csv()`` followed by
``wal.to_bytes()``.  Any change to chain state, the engine or the
report that alters a single output byte fails here.  Regenerate the
file only for a change that is meant to alter output:

    PYTHONPATH=src python tests/test_run_digests.py > tests/data/run_digests.txt
"""

import hashlib
from pathlib import Path

from topocbt.harness import run_scenario
from topocbt.scenario import PROTOCOLS, car_trading, grid_scenario, parse_scenario
from oracles import random_scenario

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "run_digests.txt"


def run_cases():
    """(case name, scenario, protocol override) in file order."""
    walkaway = parse_scenario((DATA / "car_trading_walkaway.scenario").read_text())
    for label, scenario in (("car-trading", car_trading()), ("walkaway", walkaway)):
        for protocol in (None,) + PROTOCOLS:
            yield f"{label}/{protocol or 'declared'}", scenario, protocol
    for n in range(2, 7):
        for m in range(1, 5):
            yield f"grid-{n}-{m}", grid_scenario(n, m), None
    for seed in range(60):
        yield f"random-{seed}", random_scenario(seed), None


def run_digest(scenario, protocol) -> str:
    report = run_scenario(scenario, 1, protocol_override=protocol)
    return hashlib.sha256(report.to_csv().encode() + report.wal.to_bytes()).hexdigest()


def current_lines() -> list[str]:
    return [f"{name} {run_digest(scenario, protocol)}" for name, scenario, protocol in run_cases()]


def test_every_run_is_byte_identical_to_the_golden_digests():
    expected = GOLDEN.read_text().splitlines()
    got = current_lines()
    assert [line.split()[0] for line in got] == [line.split()[0] for line in expected]
    changed = [g.split()[0] for g, e in zip(got, expected) if g != e]
    assert not changed, f"output bytes changed for {changed}"


if __name__ == "__main__":
    print("\n".join(current_lines()))
