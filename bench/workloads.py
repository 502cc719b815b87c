"""Seeded scenario generators for the four benchmark workloads.

Every generator returns scenario *text* in the format that
``topocbt.scenario.parse_scenario`` reads, plus the declared facts the
benchmark's own oracles need (initial balances and each transaction's
updates).  The program under test only ever sees the text.

Randomness comes from ``random.Random`` seeded with a string, which is
stable across processes and platforms, so the same (workload, seed)
always yields byte-identical text.  Nothing here imports topocbt.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

# Generator parameters, one dict per workload.  Shapes follow from what
# each workload is meant to stress (see bench/README.md).  ``pool`` is
# the number of distinct inputs per seed, which also fixes the tail
# percentile (ten inputs beyond it).  Integer ranges are inclusive.
PARAMS = {
    "long-history": {
        "kind": "run", "betti": False, "pool": 40,
        "chains": 3, "length": (200, 300), "txns": (2, 3), "tip_slack": 8,
    },
    "wide-deal": {
        "kind": "run", "betti": False, "pool": 336,
        "span": (8, 14), "extra_chains": (0, 2), "min_chains": 10, "max_chains": 14,
        "length": 2, "txns": (1, 2), "faces": (1, 4),
    },
    "betti-history": {
        "kind": "run", "betti": True, "pool": 48,
        "chains": (4, 5), "length": (20, 30), "forks": (1, 2),
        "replicas": (1, 2), "txns": (10, 14), "deal_chains": (2, 3),
    },
    "fault-mix": {
        "kind": "compare", "betti": False, "pool": 80,
        "chains": (4, 5), "length": (20, 40), "forks": 1, "txns": (10, 16), "epoch": (3, 7),
        "deal_chains": (2, 4), "failure_share": 0.3,
    },
}

# Mirrors topocbt.scenario.FAILURE_KINDS; the benchmark's test checks
# that the two lists agree, so a new kind cannot go unexercised.
FAILURE_KINDS = (
    "update_failure", "crash_after_undo", "crash_before_commit",
    "walk_away", "timeout", "witness_crash", "vote_abort",
    "crash_after_record", "crash_after_append",
)

BALANCE = 1_000_000


@dataclass
class Generated:
    """One generated scenario: its text and the facts oracles check against."""

    name: str
    text: str
    balances: dict = field(default_factory=dict)     # (party, asset) -> amount
    updates: dict = field(default_factory=dict)      # txn id -> [(from, to, asset, amount)]

    @property
    def txn_count(self) -> int:
        return len(self.updates)


class _Writer:
    def __init__(self, name: str) -> None:
        self.gen = Generated(name=name, text="")
        self.lines: list[str] = []

    def scenario(self, mode: str = "abstract", epoch: int = 0) -> None:
        self.lines += ["[scenario]", f"name = {self.gen.name}", f"mode = {mode}", f"epoch = {epoch}", ""]

    def chain(self, cid: int, length: int, replicas: int = 1, forks=(), balances=()) -> None:
        self.lines += ["[chain]", f"id = {cid}", f"replicas = {replicas}", f"length = {length}",
                       f"assets = A{cid}"]
        self.lines += [f"fork = {h} {n}" for h, n in forks]
        for party, amount in balances:
            self.lines.append(f"balance = {party} A{cid} {amount}")
            key = (party, f"A{cid}")
            self.gen.balances[key] = self.gen.balances.get(key, 0) + amount
        self.lines.append("")

    def txn(self, tid: int, protocol: str, blocks: dict, faces: list) -> None:
        """blocks: chain -> height; faces: [(chains, [(from, to, chain, amount)])]."""
        parties = sorted({p for _, ups in faces for f, t, _, _ in ups for p in (f, t)})
        self.lines += ["[txn]", f"id = {tid}", f"protocol = {protocol}",
                       f"parties = {' '.join(parties)}",
                       "blocks = " + " ".join(f"{c}:{blocks[c]}" for c in sorted(blocks))]
        declared = []
        for chains, ups in faces:
            refs = " ".join(f"{c}:{blocks[c]}" for c in sorted(chains))
            body = ", ".join(f"{f} {t} A{c} {amount}" for f, t, c, amount in ups)
            self.lines.append(f"sub = {refs} ; {body}")
            declared += [(f, t, f"A{c}", amount) for f, t, c, amount in ups]
        self.gen.updates[tid] = declared
        self.lines.append("")

    def failure(self, tid: int, kind: str, **fields) -> None:
        self.lines += ["[failure]", f"txn = {tid}", f"kind = {kind}"]
        self.lines += [f"{k} = {v}" for k, v in sorted(fields.items())]
        self.lines.append("")

    def done(self) -> Generated:
        self.gen.text = "\n".join(self.lines)
        return self.gen


def _between(rng: random.Random, bounds) -> int:
    return bounds if isinstance(bounds, int) else rng.randint(*bounds)


def _values(bounds) -> list[int]:
    lo, hi = (bounds, bounds) if isinstance(bounds, int) else bounds
    return list(range(lo, hi + 1))


def _strata(rng: random.Random, bounds, k: int) -> list[int]:
    """k values spread evenly over an inclusive range (the midpoints of k
    equal strata, so their mean is the range's), in random order."""
    values = _values(bounds)
    out = [values[((2 * j + 1) * len(values)) // (2 * k)] for j in range(k)]
    rng.shuffle(out)
    return out


def _cycle(parties: list[str], chains: list[int], rng: random.Random) -> list:
    """One single-transfer face per chain, forming a payment cycle."""
    ups = []
    for i, c in enumerate(chains):
        ups.append((parties[i], parties[(i + 1) % len(parties)], c, rng.randint(1, 9)))
    return ups


def _draws(rng: random.Random, k: int, grid: dict, spread: dict) -> list[dict]:
    """Size parameters for a pool of k inputs.

    ``grid`` ranges are crossed (every combination, repeated to fill the
    pool; k is a multiple of the number of combinations) and ``spread``
    ranges are stratified, each on its own.  Every seed thus gets the
    same multiset of sizes, and only which input gets which size, and
    everything else, changes with the seed.  Pools of different seeds
    then cost about the same, so seeds can stand in for repeated runs.
    """
    combos = list(itertools.product(*(_values(b) for b in grid.values())))
    if k % len(combos):
        raise ValueError(f"pool of {k} is not a multiple of {len(combos)} grid points")
    draws = [dict(zip(grid, combo)) for combo in combos * (k // len(combos))]
    rng.shuffle(draws)
    for key, bounds in spread.items():
        for d, value in zip(draws, _strata(rng, bounds, k)):
            d[key] = value
    return draws


def _middle(grid: dict, spread: dict) -> dict:
    """The draw in the middle of every range: the warm-up input's size."""
    return {key: _values(b)[len(_values(b)) // 2] for key, b in {**grid, **spread}.items()}


def long_history(rng: random.Random, name: str, d: dict) -> Generated:
    p = PARAMS["long-history"]
    w = _Writer(name)
    w.scenario()
    lengths = {c: d[f"length{c}"] for c in range(1, p["chains"] + 1)}
    for c, length in lengths.items():
        w.chain(c, length, balances=[(f"p{c}", BALANCE)])
    for tid in range(1, d["txns"] + 1):
        blocks = {c: lengths[c] - rng.randint(0, p["tip_slack"]) for c in lengths}
        chains = sorted(lengths)
        ups = _cycle([f"p{c}" for c in chains], chains, rng)
        w.txn(tid, "topocbt", blocks, [([c], [u]) for c, u in zip(chains, ups)])
    return w.done()


def wide_deal(rng: random.Random, name: str, d: dict) -> Generated:
    """Every deal spans ``span`` chains (a grid value: it sets the 2^span
    closure cost) out of up to two more that the deals may leave out."""
    p = PARAMS["wide-deal"]
    w = _Writer(name)
    w.scenario()
    n = min(p["max_chains"], max(p["min_chains"], d["span"] + d["extra_chains"]))
    for c in range(1, n + 1):
        w.chain(c, p["length"], balances=[(f"p{c}", BALANCE)])
    for tid in range(1, d["txns"] + 1):
        span = sorted(rng.sample(range(1, n + 1), d["span"]))
        blocks = {c: rng.randint(1, p["length"]) for c in span}
        faces = []
        for _ in range(d["faces"]):
            face = sorted(rng.sample(span, rng.randint(2, len(span))))
            faces.append((face, _cycle([f"p{c}" for c in face], face, rng)))
        w.txn(tid, "topocbt", blocks, faces)
    return w.done()


def betti_history(rng: random.Random, name: str, d: dict) -> Generated:
    p = PARAMS["betti-history"]
    w = _Writer(name)
    replicated = d["replicated"] == 2
    w.scenario(mode="replicated" if replicated else "abstract")
    # per-chain and per-deal sizes are spread evenly over their ranges
    # within the input, like the pool's sizes over the pool (_draws):
    # replicas and deal widths set most of a job's cost
    n = d["chains"]
    sizes = zip(_strata(rng, p["length"], n), _strata(rng, p["forks"], n),
                _strata(rng, p["replicas"], n) if replicated else [1] * n)
    lengths = {}
    for c, (length, forks, replicas) in enumerate(sizes, start=1):
        lengths[c] = length
        heights = sorted(rng.randint(2, length) for _ in range(forks))
        w.chain(c, length, replicas=replicas, forks=[(h, 1) for h in heights],
                balances=[(f"p{c}", BALANCE)])
    # deals cluster on a few shared heights per chain so that they overlap
    hot = {c: rng.sample(range(1, lengths[c] + 1), 3) for c in lengths}
    widths = _strata(rng, p["deal_chains"], d["txns"])
    for tid in range(1, d["txns"] + 1):
        chains = sorted(rng.sample(sorted(lengths), widths[tid - 1]))
        blocks = {c: rng.choice(hot[c]) for c in chains}
        ups = _cycle([f"p{c}" for c in chains], chains, rng)
        w.txn(tid, "topocbt", blocks, [([c], [u]) for c, u in zip(chains, ups)])
    return w.done()


def fault_mix(rng: random.Random, name: str, d: dict) -> Generated:
    p = PARAMS["fault-mix"]
    w = _Writer(name)
    w.scenario(epoch=d["epoch"])
    lengths = {}
    for c in range(1, d["chains"] + 1):
        lengths[c] = _between(rng, p["length"])
        # a fork branch holds one block at or below the trunk tip, so the
        # trunk always wins resolution and committed updates stay live
        w.chain(c, lengths[c], forks=[(rng.randint(2, lengths[c]), p["forks"])],
                balances=[(f"p{c}", BALANCE)])
    txns = d["txns"]
    kinds = list(FAILURE_KINDS)
    rng.shuffle(kinds)
    faulty = sorted(rng.sample(range(1, txns + 1), max(1, round(p["failure_share"] * txns))))
    plan = {tid: kinds[i % len(kinds)] for i, tid in enumerate(faulty)}
    for tid in range(1, txns + 1):
        chains = sorted(rng.sample(sorted(lengths), _between(rng, p["deal_chains"])))
        blocks = {c: lengths[c] - rng.randint(0, 3) for c in chains}
        parties = [f"p{c}" for c in chains]
        ups = _cycle(parties, chains, rng)
        w.txn(tid, rng.choice(("topocbt", "ac2s", "ac3wn")), blocks,
              [([c], [u]) for c, u in zip(chains, ups)])
        kind = plan.get(tid)
        faces = len(chains)
        if kind in ("update_failure", "crash_after_undo", "crash_before_commit", "vote_abort"):
            w.failure(tid, kind, face=rng.randint(1, faces))
        elif kind == "walk_away":
            w.failure(tid, kind, party=rng.choice(parties))
        elif kind == "timeout":
            w.failure(tid, kind, swap=rng.randint(1, faces - 1))
        elif kind == "witness_crash":
            w.failure(tid, kind)
        elif kind == "crash_after_record":
            w.failure(tid, kind, record=rng.randint(1, 2 * faces))
        elif kind == "crash_after_append":
            w.failure(tid, kind, append=rng.randint(1, faces))
    return w.done()


def _ranges(workload: str) -> tuple[dict, dict]:
    """(grid, spread) size ranges, see _draws."""
    p = PARAMS[workload]
    if workload == "long-history":
        return {"txns": p["txns"]}, {f"length{c}": p["length"] for c in range(1, p["chains"] + 1)}
    if workload == "wide-deal":
        return {"span": p["span"], "txns": p["txns"]}, {"extra_chains": p["extra_chains"], "faces": p["faces"]}
    if workload == "betti-history":
        # replicated: one input in three
        return {"chains": p["chains"], "replicated": (0, 2)}, {"txns": p["txns"]}
    return {"chains": p["chains"]}, {"txns": p["txns"], "epoch": p["epoch"]}


GENERATORS = {
    "long-history": long_history,
    "wide-deal": wide_deal,
    "betti-history": betti_history,
    "fault-mix": fault_mix,
}


def generate_pool(workload: str, seed: int) -> list[Generated]:
    """The workload's input set for one seed: PARAMS[workload]['pool'] scenarios."""
    gen = GENERATORS[workload]
    rng = random.Random(f"topocbt-bench:{workload}:{seed}")
    draws = _draws(rng, PARAMS[workload]["pool"], *_ranges(workload))
    return [gen(rng, f"{workload}-{seed}-{i}", d) for i, d in enumerate(draws)]


def generate_warmup(workload: str, seed: int) -> Generated:
    """One more input, of the workload's middle size, for the warm-up job:
    its cost does not depend on the seed's draw."""
    rng = random.Random(f"topocbt-bench:{workload}:{seed}:warm-up")
    return GENERATORS[workload](rng, f"{workload}-{seed}-warm-up", _middle(*_ranges(workload)))
