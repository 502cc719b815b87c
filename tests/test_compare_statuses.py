"""Golden status counts of ``compare_protocols`` over random deals.

``tests/data/compare_statuses.txt`` counts the rows of every protocol
over ``random_scenario`` 0-199, grouped by the most parties on any one
face of the deal.  Faces with three or four parties are the deals AC2S
splits into one local swap per party pair.  Regenerate the file only
for a change that is meant to alter outcomes:

    PYTHONPATH=src python tests/test_compare_statuses.py > tests/data/compare_statuses.txt
"""

from collections import Counter
from pathlib import Path

from topocbt.engine import Status
from topocbt.harness import compare_protocols
from topocbt.scenario import PROTOCOLS
from oracles import random_scenario

GOLDEN = Path(__file__).parent / "data" / "compare_statuses.txt"
SEEDS = range(200)


def widest_face(scenario) -> int:
    return max(len({p for u in sub.updates for p in (u.owner_from, u.owner_to)})
               for txn in scenario.txns for sub in txn.sub_transactions)


def status_counts() -> Counter:
    """(protocol, widest face, status) -> rows."""
    counts: Counter = Counter()
    for seed in SEEDS:
        scenario = random_scenario(seed)
        table = compare_protocols([scenario], [1])
        assert [row.protocol for row in table.rows] == list(PROTOCOLS), scenario.name
        counts.update((row.protocol, widest_face(scenario), row.status) for row in table.rows)
    return counts


def current_lines(counts: Counter) -> list[str]:
    lines = ["protocol parties " + " ".join(str(status) for status in Status)]
    for protocol in PROTOCOLS:
        for width in sorted({w for p, w, _ in counts if p == protocol}):
            lines.append(f"{protocol} {width} " + " ".join(str(counts[protocol, width, s]) for s in Status))
    return lines


def test_every_protocol_runs_every_random_deal_with_the_golden_statuses():
    counts = status_counts()
    assert sum(counts.values()) == 3 * len(SEEDS)
    assert current_lines(counts) == GOLDEN.read_text().splitlines()
    partial = {(p, w): counts[p, w, Status.PARTIAL_COMMIT] for p, w, _ in counts}
    assert all(n == 0 for (p, _), n in partial.items() if p != "ac2s")
    assert any(n for (p, w), n in partial.items() if p == "ac2s" and w >= 3)


if __name__ == "__main__":
    print("\n".join(current_lines(status_counts())))
