"""Byte-identity gate over the shapes of Betti output: windows, modes,
epochs and the benchmark's scenario pools.

``tests/data/output_digests.txt`` holds one ``<case> <sha256>`` line per
case.  A run's digest covers ``RunReport.to_csv()`` followed by
``wal.to_bytes()``, with Betti numbers on.  The runs are:

- ``random_scenario`` 0-199 at windows None and 1, in both modes;
- the seed-7 pools of the benchmark's four workloads
  (``bench/workloads.generate_pool``, read only) at windows None and 1;
- every ``tests/data/*.scenario`` as declared;
- ``random_scenario`` 0-199 at windows 0 and 3, in both modes (window 0
  is a radius of 0 heights, set on the ``Scenario``; a scenario file's
  ``window = 0`` means no window).

Then come the complex files: the digest of ``tagged_to_text``'s two
strings for the build after 0 and after all n events (``betti --out``
at k = 0 and k = n), over every ``tests/data/*.scenario`` and
``random_scenario`` 0-49, in both modes at windows None and 1.

Then more runs: the seed-7 pools at windows 0 and 3, the fork-heavy
history (``shapes.fork_heavy``) in both modes at windows None and 1, and
``random_scenario`` 0-49 at epoch 1.  Then come the Betti numbers
``betti --at k`` prints, joined by ``|`` in place of a digest, for every
k over every ``tests/data/*.scenario`` and ``random_scenario`` 0-49, in
both modes at windows None and 1.

Last come the other shapes the CI builds, from ``tests/shapes.py`` (the
three deals at n = 30, the two-chain deal at 20 replicas, the forked
deals as declared, at window 1 and with faults, and the deep history at
10,000 blocks): each one's run digest, then its ``betti --at k``
numbers for every k.

Regenerate the file only for a change that is meant to alter output:

    PYTHONPATH=src python tests/test_output_digests.py > tests/data/output_digests.txt
"""

import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

from topocbt.harness import replay_to
from topocbt.scenario import load_scenario, parse_scenario
from topocbt.topology import TopologyMode, build_federation_complex, federation_betti, tagged_to_text
import shapes
from oracles import random_scenario
from test_run_digests import run_digest

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "output_digests.txt"
WORKLOADS = Path(__file__).parents[1] / "bench" / "workloads.py"
WINDOWS = (None, 1)
MORE_WINDOWS = (0, 3)


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses looks it up
    spec.loader.exec_module(module)
    return module


def output_cases():
    """(case name, scenario) in file order."""
    for seed in range(200):
        scenario = random_scenario(seed)
        for mode in TopologyMode:
            for window in WINDOWS:
                yield f"random-{seed}/{mode.value}/window-{window}", \
                    dataclasses.replace(scenario, mode=mode, window=window)
    workloads = _workloads()
    for workload in sorted(workloads.PARAMS):
        for generated in workloads.generate_pool(workload, 7):
            scenario = parse_scenario(generated.text)
            for window in WINDOWS:
                yield f"{generated.name}/window-{window}", dataclasses.replace(scenario, window=window)
    for path in sorted(DATA.glob("*.scenario")):
        yield f"data/{path.stem}", load_scenario(str(path))[0]
    for seed in range(200):
        scenario = random_scenario(seed)
        for mode in TopologyMode:
            for window in MORE_WINDOWS:
                yield f"random-{seed}/{mode.value}/window-{window}", \
                    dataclasses.replace(scenario, mode=mode, window=window)


def _labelled():
    """(label, scenario): every ``tests/data/*.scenario``, then ``random_scenario`` 0-49."""
    declared = [(f"data/{path.stem}", load_scenario(str(path))[0]) for path in sorted(DATA.glob("*.scenario"))]
    return declared + [(f"random-{seed}", random_scenario(seed)) for seed in range(50)]


def text_cases():
    """(case name, scenario, event) in file order, after ``output_cases``."""
    for label, scenario in _labelled():
        for mode in TopologyMode:
            for window in WINDOWS:
                for event in sorted({0, len(scenario.transactions())}):
                    yield f"text/{label}/{mode.value}/window-{window}/at-{event}", \
                        dataclasses.replace(scenario, mode=mode, window=window), event


def later_cases():
    """(case name, scenario) in file order, after ``text_cases``."""
    workloads = _workloads()
    for workload in sorted(workloads.PARAMS):
        for generated in workloads.generate_pool(workload, 7):
            scenario = parse_scenario(generated.text)
            for window in MORE_WINDOWS:
                yield f"{generated.name}/window-{window}", dataclasses.replace(scenario, window=window)
    for mode in TopologyMode:
        for window in WINDOWS:
            yield f"fork-heavy/{mode.value}/window-{window}", \
                parse_scenario(shapes.fork_heavy("fork-heavy", mode.value, window))
    for seed in range(50):  # one deal each: epoch 1 resolves forks after it, before the final digest
        yield f"random-{seed}/epoch-1", dataclasses.replace(random_scenario(seed), epoch=1)


def betti_cases():
    """(case name, scenario, event) in file order, after ``later_cases``."""
    for label, scenario in _labelled():
        for mode in TopologyMode:
            for window in WINDOWS:
                for event in range(len(scenario.transactions()) + 1):
                    yield f"betti/{label}/{mode.value}/window-{window}/at-{event}", \
                        dataclasses.replace(scenario, mode=mode, window=window), event


def ci_cases():
    """(label, scenario) in file order, after ``betti_cases``."""
    for label, text in (("three-deals-30", shapes.three_deals(30)), ("two-chain-deal-20", shapes.two_chain_deal(20)),
                        ("forked-deals", shapes.forked_deals()), ("forked-deals-window-1", shapes.forked_deals(1)),
                        ("forked-deals-faults", shapes.forked_deals(faults=True)),
                        ("deep-history-10000", shapes.deep_history(10000))):
        yield label, parse_scenario(text)


def betti_at(scenario, event: int) -> str:
    """The Betti numbers ``betti --at event`` prints, joined by ``|``."""
    federation, pending = replay_to(scenario, event)
    return "|".join(map(str, federation_betti(federation, pending, mode=scenario.mode, window=scenario.window)))


def text_digest(scenario, event: int) -> str:
    """sha256 of the complex file and its tags after ``event`` events, as
    ``betti --out`` writes them."""
    federation, pending = replay_to(scenario, event)
    body, tags = tagged_to_text(build_federation_complex(federation, pending, scenario.mode, scenario.window))
    return hashlib.sha256(body.encode() + tags.encode()).hexdigest()


def current_lines() -> list[str]:
    return [f"{name} {run_digest(scenario, None)}" for name, scenario in output_cases()] + \
        [f"{name} {text_digest(scenario, event)}" for name, scenario, event in text_cases()] + \
        [f"{name} {run_digest(scenario, None)}" for name, scenario in later_cases()] + \
        [f"{name} {betti_at(scenario, event)}" for name, scenario, event in betti_cases()] + \
        [line for label, scenario in ci_cases() for line in
         [f"ci/{label} {run_digest(scenario, None)}",
          *(f"ci/{label}/at-{event} {betti_at(scenario, event)}" for event in range(len(scenario.transactions()) + 1))]]


def test_every_output_is_byte_identical_to_the_golden_digests():
    expected = GOLDEN.read_text().splitlines()
    got = current_lines()
    assert [line.split()[0] for line in got] == [line.split()[0] for line in expected]
    changed = [g.split()[0] for g, e in zip(got, expected) if g != e]
    assert not changed, f"output bytes changed for {changed}"


if __name__ == "__main__":
    print("\n".join(current_lines()))
