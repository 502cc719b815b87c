"""A record is its fields and nothing more.

Every dataclass the package defines keeps its fields in ``__slots__``, so
no instance carries a ``__dict__``; and the scenario parser keeps each
party and asset name once, however often a scenario repeats it.  A run
holds its whole declared history in memory, so these two set what a
parsed update costs.
"""

import dataclasses
import gc
import importlib
import tracemalloc
from pathlib import Path

from topocbt.scenario import parse_scenario

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "topocbt"

# dataclasses that keep a __dict__, each for the reason given
DICT_KEPT = {
    # its cached_property values (cells, complex) live in the instance
    # __dict__, and tests read that dict to see that a value was not built
    "TaggedComplex",
}


def package_dataclasses() -> dict[str, type]:
    """Each dataclass a module of the package defines, by name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("__"):  # __init__ re-exports, and importing __main__ runs the CLI
            continue
        module = importlib.import_module(f"topocbt.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__:
                found[value.__name__] = value
    return found


def test_every_dataclass_of_the_package_but_the_named_ones_is_slotted():
    classes = package_dataclasses()
    assert {"AssetUpdate", "CrossChainTransaction", "TxnRow", *DICT_KEPT} <= set(classes)
    for name, cls in sorted(classes.items()):
        if name in DICT_KEPT:
            assert not hasattr(cls, "__slots__"), f"{name} is slotted: take it off DICT_KEPT"
            continue
        assert "__slots__" in vars(cls), f"{name} has no __slots__"
        # an instance made without __init__: slots in every base or none
        assert not hasattr(cls.__new__(cls), "__dict__"), f"an instance of {name} has a __dict__"


def test_a_parsed_update_holds_under_200_bytes_and_each_name_once():
    # two chains, one deal of 2,000 sub lines of 5 updates: 10,000 updates
    update_clauses = ", ".join(f"alice bob A {k}" for k in range(1, 6))
    text = "\n".join([
        "[scenario]", "name = memory",
        "[chain]", "id = 1", "assets = A", "balance = alice A 100000",
        "[chain]", "id = 2", "assets = B",
        "[txn]", "id = 1", "parties = alice bob", "blocks = 1:1 2:1",
        *[f"sub = 1:1 2:1 ; {update_clauses}"] * 2000,
    ]) + "\n"
    gc.collect()
    tracemalloc.start()
    try:
        scenario = parse_scenario(text)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    updates = [u for sub in scenario.txns[0].sub_transactions for u in sub.updates]
    assert len(updates) == 10_000
    assert held / len(updates) < 200
    assert len({id(name) for u in updates for name in (u.owner_from, u.owner_to, u.asset)}) == 3
    assert scenario.chains[0].balances[0][0] is updates[0].owner_from
