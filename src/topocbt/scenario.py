"""Scenario configuration: a line-oriented sectioned text format.

Sections start with a ``[header]`` line and hold ``key = value`` pairs.
``[scenario]`` appears at most once; ``[chain]``, ``[txn]``, and
``[failure]`` sections repeat; ``fork``, ``balance``, and ``sub`` keys
repeat within their section; any other key appears at most once, and
only in its own section.  Blank lines and ``#`` comments are ignored.
Block positions are written ``chain:height`` or ``chain:height:branch``.
Input that could not run as written (a number, name or update list its
binary field cannot hold, a scenario name that would split its CSV
cell, a party name that would split a report's ``worse_off`` cell, a
duplicate chain or txn id, a txn with no block, two blocks on one chain
or fewer than two parties, a fork with no block below it, a failure
naming no declared txn, missing its locating key or carrying another,
a failure's ``face`` past its txn's faces or ``party`` not one of its
parties, more blocks or replicas than the work budget allows) is
rejected with its line and field.  A ``record``, ``append`` or ``swap``
count past the run's is accepted and never fires: the fault-mix
benchmark draws ``record`` up to twice a deal's faces.

``SECTION_KEYS`` is the format: it maps each section to its keys, and
each key to the parser of its value.  A parser applies its key's
bounds, name checks or list of choices and refuses a bad value at the
key's own line.  What only a whole section shows (a required key, a
duplicate id, the block budget, a fork's height, a txn's shape) is
checked when the section ends, and what only the whole file shows (the
txn a failure strikes) once the file ends.

A parsed :class:`Scenario` holds the chains to build, each transaction
as the :class:`CrossChainTransaction` it runs (in declaration order)
with its protocol by id, and each failure as its txn, its kind and the
value of the one key that locates it.  ``FAILURE_KEYS`` (from the
engine) maps a kind to that key, and a txn's :class:`FailurePlan` is its
failures' (kind, value) pairs in listing order.

A scenario file alone fully determines a run; the built-in
``car-trading`` scenario is shipped as a fixed text constant so it
replays byte-identically too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from sys import intern
from typing import Callable, Iterable, Optional

from .chain import NAME_BYTES, AssetUpdate, BlockRef, Chain, Federation
from .engine import FAILURE_KEYS, NO_FAILURES, FailurePlan
from .simplicial import MAX_CELLS, MEMORY_BUDGET
from .topology import CrossChainTransaction, SubTransaction, TopologyMode

class ScenarioError(Exception):
    """Parse or schema failure; message carries line and field."""

    def __init__(self, message: str, line: Optional[int] = None, fld: Optional[str] = None) -> None:
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if fld is not None:
            prefix += f"field {fld}: "
        super().__init__(prefix + message)
        self.line = line
        self.field = fld


@dataclass(slots=True)
class ChainSpec:
    id: int
    replicas: int = 1
    length: int = 1
    assets: tuple[str, ...] = ()
    forks: tuple[tuple[int, int], ...] = ()          # (height, branch count)
    balances: tuple[tuple[str, str, int], ...] = ()  # (party, asset, amount)


@dataclass(slots=True)
class FailureSpec:
    txn: int
    kind: str
    at: Optional[int | str] = None  # the value of the kind's key; None for a kind with no key


FAILURE_KINDS = tuple(FAILURE_KEYS)
LOCATING_KEYS = tuple(dict.fromkeys(key for key in FAILURE_KEYS.values() if key))

PROTOCOLS = ("topocbt", "ac2s", "ac3wn")

# Number ranges, inclusive, set by the binary formats the numbers end up in.
U32 = (0, 2**32 - 1)           # heights, branches: '>I' in block hashes and the WAL
CHAIN_ID = (1, 2**32 - 1)      # chain ids: '>I' too, and chains are numbered from 1
TXN_ID = (0, 2**64 - 1)        # '>Q' in the WAL
AMOUNT = (1, 2**63 - 1)        # '>Q' in blocks and the WAL, and a balance change in the digest
BALANCE = (-(2**63), 2**63 - 1)  # '>q' in the state digest
POINT = (1, None)              # 1-based face, swap, record and append counts
NATURAL = (0, None)            # epoch and window, where 0 means never and whole chains
SUB_UPDATES = 2**16 - 1        # updates on one sub line: a chain's share is one WAL undo record's '>H' count

# The work budget.  A run holds its scenario's whole declared history in
# memory, so each bound keeps one structure of a run within MEMORY_BUDGET
# bytes (simplicial.py, beside the face-enumeration budget MAX_CELLS).
# Sizes were measured with tracemalloc on CPython 3.11.7 and rounded up to
# a power of two:
# - a declared block costs at most BLOCK_BYTES.  A trunk block costs its
#   chain nothing of its own, and an appended one holds no height-index
#   row either (live_block_at builds a trunk row each time it is read); a
#   fork's block is stored unsealed with its branch and its height-index
#   row, and forks spawned at one height share their parent's ref (~310-
#   580 B, the row included; BranchInfo and every payload record are
#   slotted, so none holds a __dict__).  No run
#   reads a block, so none is sealed: a read seals a fork's block (~150-
#   210 B more) and hands out a trunk block (~360 B, its hash included).
#   A complex build lays no cell: it numbers each chain's vertices from
#   one plan, which holds the chain's forked rows in its span, as
#   live_block_at hands them out, and one vertex count per row.  The
#   chains and one build held ~0.02 B per declared block on a bare
#   150,000-block trunk with 2 replicas and ~350-670 B per fork block
#   with 2,000 forks (on one height, or one on each of 2,000 heights),
#   and peaked at ~440-750 B (a whole run with one deal near the tip:
#   ~500-750 B).  betti --out lays each plan's cells (~180-500 B
#   per declared block) and its face closure: the two came to
#   ~400-530 B in abstract mode and ~980-1,100 B with 2 replicas, and
#   writing its text peaked at ~2,330-2,340 B with 2 replicas, past
#   BLOCK_BYTES.  So betti --out's memory per declared block is held by
#   the face budget MAX_CELLS, below, which refuses such a build past
#   about 381,000 declared blocks, not by BLOCK_BYTES;
# - in replicated mode the copies of a block form one simplex whose face
#   closure, which complex text enumerates, holds 2**replicas - 1 cells,
#   so one replica group alone fits in MAX_CELLS.  The text of a build
#   whose groups and tops together pass MAX_CELLS is refused (betti
#   --out); Betti numbers enumerate no such closure
#   (simplicial.betti_from_generators).
BLOCK_BYTES = 1024
MAX_BLOCKS = MEMORY_BUDGET // BLOCK_BYTES  # trunks and forks of all chains together
REPLICAS = (1, MAX_CELLS.bit_length() - 1)


@dataclass(slots=True)
class Scenario:
    name: str = "unnamed"
    mode: TopologyMode = TopologyMode.ABSTRACT
    epoch: int = 0           # resolve forks every N transaction events; 0 = never
    window: Optional[int] = None
    chains: list[ChainSpec] = field(default_factory=list)
    txns: list[CrossChainTransaction] = field(default_factory=list)  # declaration order
    protocols: dict[int, str] = field(default_factory=dict)          # txn id -> protocol
    failures: list[FailureSpec] = field(default_factory=list)

    def build_federation(self) -> Federation:
        federation = Federation()
        for spec in sorted(self.chains, key=lambda c: c.id):
            chain = Chain(spec.id, replicas=spec.replicas, assets=spec.assets, length=spec.length)
            for height, branches in spec.forks:
                for _ in range(branches):
                    chain.append_block(chain.spawn_fork(height))
            federation.add_chain(chain)
            for party, asset, amount in spec.balances:
                key = (party, asset)
                federation.initial_balances[key] = federation.initial_balances.get(key, 0) + amount
        return federation

    def transactions(self) -> list[CrossChainTransaction]:
        return sorted(self.txns, key=lambda t: t.id)

    def plan_for(self, txn_id: int) -> FailurePlan:
        """The txn's failures as (kind, where) pairs, in listing order."""
        failures = tuple((f.kind, f.at) for f in self.failures if f.txn == txn_id)
        try:
            return FailurePlan(failures) if failures else NO_FAILURES
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None


# -- parsing -------------------------------------------------------------

# A key's parser: (value, line, key) -> the value as the scenario holds
# it; it refuses a bad value with a ScenarioError at that line and key.
Parser = Callable[[str, int, str], object]


def integer(token: str) -> int:
    """A base-10 integer in ASCII, '-?[0-9]+', the one integer rule of
    scenario files and the command line: int() alone would also take
    '+', '_', surrounding spaces and the digits of other scripts."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"expected integer, got {token!r}")
    return int(token)


def _parse_int(token: str, line: int, fld: str, bounds: Optional[tuple[int, Optional[int]]] = None) -> int:
    """``integer`` at a scenario line, within ``bounds``."""
    try:
        value = integer(token)
    except ValueError:
        raise ScenarioError(f"expected integer, got {token!r}", line, fld) from None
    if bounds is not None:
        lo, hi = bounds
        if value < lo or (hi is not None and value > hi):
            expected = f"at least {lo}" if hi is None else f"{lo}..{hi}"
            raise ScenarioError(f"expected {expected}, got {value}", line, fld)
    return value


def _choice(what: str, choices: dict[str, object]) -> Parser:
    """The parser of a key whose value names one of ``choices``."""
    def parse(value: str, line: int, key: str) -> object:
        if value not in choices:
            raise ScenarioError(f"unknown {what} {value!r}", line, key)
        return choices[value]
    return parse


def _window(value: str, line: int, key: str) -> Optional[int]:
    return _parse_int(value, line, key, NATURAL) or None  # 0: whole chains, as no window


def _name(value: str, line: int, key: str) -> str:
    if "," in value:
        raise ScenarioError(f"the scenario name is one CSV cell and takes no ',', got {value!r}", line, key)
    return value


def _check_names(value: str, names: Iterable[str], line: int, fld: str) -> None:
    """Refuse a party or asset name, read from ``value``, longer than the
    16-bit length every binary format packs it behind.  A UTF-8 character
    takes at most 4 bytes, so a shorter value holds no such name."""
    if len(value) > NAME_BYTES // 4:
        for name in names:
            size = len(name.encode("utf-8"))
            if size > NAME_BYTES:
                raise ScenarioError(f"a name takes at most {NAME_BYTES} UTF-8 bytes, got {size}", line, fld)


def _check_parties(names: Iterable[str], line: int, fld: str) -> None:
    """Refuse a party name with ';', which joins the parties of a report's
    ``worse_off`` cell: such a name would read back as two parties."""
    for name in names:
        if ";" in name:
            raise ScenarioError(f"a party name takes no ';', got {name!r}", line, fld)


def _names(value: str, line: int, key: str) -> tuple[str, ...]:
    """The value's names.  Every parser that stores a party or asset name
    interns it: a scenario repeats its names thousands of times, and
    each is then one string per process."""
    names = tuple(map(intern, value.split()))
    _check_names(value, names, line, key)
    return names


def _parties(value: str, line: int, key: str) -> tuple[str, ...]:
    names = _names(value, line, key)
    _check_parties(names, line, key)
    return names


def _party(value: str, line: int, key: str) -> str:
    """One party name: the whole value, spaces and all."""
    _check_names(value, (value,), line, key)
    _check_parties((value,), line, key)
    return intern(value)


def _blocks(value: str, line: int, key: str) -> tuple[BlockRef, ...]:
    refs = []
    for token in value.split():
        parts = token.split(":")
        if len(parts) not in (2, 3):
            raise ScenarioError(f"block position must be chain:height[:branch], got {token!r}", line, key)
        refs.append(BlockRef(*[_parse_int(part, line, key, U32) for part in parts]))
    return tuple(refs)


def _fork(value: str, line: int, key: str) -> tuple[int, int, int]:
    """(height, branches, line): whether a block lies below the fork is
    ``_check_forks``' question, once the chain's section ends."""
    toks = value.split()
    if len(toks) != 2:
        raise ScenarioError("fork needs 'height branches'", line, key)
    return _parse_int(toks[0], line, key, U32), _parse_int(toks[1], line, key, U32), line


def _balance(value: str, line: int, key: str) -> tuple[str, str, int]:
    toks = value.split()
    if len(toks) != 3:
        raise ScenarioError("balance needs 'party asset amount'", line, key)
    _check_names(value, toks[:2], line, key)
    _check_parties(toks[:1], line, key)
    return intern(toks[0]), intern(toks[1]), _parse_int(toks[2], line, key, BALANCE)


def _sub(value: str, line: int, key: str) -> SubTransaction:
    if ";" not in value:
        raise ScenarioError("sub needs 'blocks ; updates'", line, key)
    blocks_part, updates_part = value.split(";", 1)
    blocks = _blocks(blocks_part, line, key)
    clauses = updates_part.split(",")
    if len(clauses) > SUB_UPDATES:
        raise ScenarioError(f"a sub takes at most {SUB_UPDATES} updates, got {len(clauses)}", line, key)
    fields = []  # each update's names and amount, checked before an update is made of them
    for clause in clauses:
        toks = clause.split()
        if len(toks) != 4:
            raise ScenarioError(f"update must be 'from to asset amount', got {clause.strip()!r}", line, key)
        owner_from, owner_to, asset, amount = toks
        fields.append((intern(owner_from), intern(owner_to), intern(asset), _parse_int(amount, line, key, AMOUNT)))
    _check_names(updates_part, (name for update in fields for name in update[:3]), line, key)
    _check_parties((name for update in fields for name in update[:2]), line, key)
    updates = [AssetUpdate(*update) for update in fields]
    if not blocks:
        raise ScenarioError("sub needs at least one block", line, key)
    return SubTransaction(blocks=blocks, updates=tuple(updates))


# The format: each section's keys, each with the parser of its value.
SECTION_KEYS: dict[str, dict[str, Parser]] = {
    "scenario": {"name": _name, "mode": _choice("mode", {mode.value: mode for mode in TopologyMode}),
                 "epoch": partial(_parse_int, bounds=NATURAL), "window": _window},
    "chain": {"id": partial(_parse_int, bounds=CHAIN_ID), "replicas": partial(_parse_int, bounds=REPLICAS),
              "length": partial(_parse_int, bounds=U32), "assets": _names, "fork": _fork, "balance": _balance},
    "txn": {"id": partial(_parse_int, bounds=TXN_ID), "protocol": _choice("protocol", dict(zip(PROTOCOLS, PROTOCOLS))),
            "parties": _parties, "blocks": _blocks, "sub": _sub},
    "failure": {"txn": _parse_int, "kind": _choice("failure kind", dict(zip(FAILURE_KINDS, FAILURE_KINDS))),
                "party": _party,
                **dict.fromkeys(("face", "swap", "record", "append"), partial(_parse_int, bounds=POINT))},
}
REPEATED_KEYS = frozenset({"fork", "balance", "sub"})


def _check_failure(current: dict, lines: dict[str, int], txns: dict[int, CrossChainTransaction]) -> None:
    """Reject a failure on no declared txn, with a missing or extra
    locating key, a face past its txn's or a party not its; ``current``
    is its parsed section and ``lines`` maps each key (and the header,
    under "") to its line."""
    txn = txns.get(current["txn"])
    if txn is None:
        raise ScenarioError(f"no txn {current['txn']} is declared", lines["txn"], "txn")
    kind = current["kind"]
    wanted = FAILURE_KEYS[kind]
    for key in LOCATING_KEYS:
        if key == wanted and key not in current:
            raise ScenarioError(f"failure kind {kind} needs a {key}", lines[""], key)
        if key != wanted and key in current:
            raise ScenarioError(f"failure kind {kind} takes no {key}", lines[key], key)
    faces = len(txn.sub_transactions)
    if "face" in current and current["face"] > faces:
        raise ScenarioError(f"txn {txn.id} has {faces} face(s), no face {current['face']}", lines["face"], "face")
    if "party" in current and current["party"] not in txn.parties:
        raise ScenarioError(f"{current['party']!r} is not a party of txn {txn.id}", lines["party"], "party")


def _check_forks(forks: list[tuple[int, int, int]], length: int) -> tuple[tuple[int, int], ...]:
    """Reject a fork with no block below it; each entry carries its line.

    A branch's first block sits at the fork height, so a fork may start
    from 1 up to one above the highest block declared before it: the
    trunk tip at ``length``, or the block of an earlier fork.
    """
    highest = length
    for height, branches, line in forks:
        if not 1 <= height <= highest + 1:
            raise ScenarioError(f"expected 1..{highest + 1}, one above the highest block so far, got {height}",
                                line, "fork")
        if branches:
            highest = max(highest, height)
    return tuple((height, branches) for height, branches, _ in forks)


def parse_scenario(text: str) -> Scenario:
    scenario = Scenario()
    section: Optional[str] = None
    scenario_line: Optional[int] = None  # the [scenario] header's line
    current: dict = {}  # key -> parsed value; a repeated key -> the list of its values
    lines: dict[str, int] = {}  # key -> line of its first occurrence; "" -> the section header
    chain_ids: set[int] = set()
    declared_blocks = 0
    failure_sections: list[tuple[dict, dict[str, int]]] = []

    def needs(key: str, what: str, holds: bool = True) -> None:
        """Refuse a section without ``key`` at its header, and one whose
        ``key`` does not hold at the key's line."""
        if key not in current or not holds:
            raise ScenarioError(f"{section} needs {what}", lines.get(key, lines[""]), key)

    def count_blocks(count: int, line: int, fld: str) -> None:
        nonlocal declared_blocks
        declared_blocks += count
        if declared_blocks > MAX_BLOCKS:
            raise ScenarioError(f"{declared_blocks} blocks declared so far, more than the budget of {MAX_BLOCKS}",
                                line, fld)

    def flush() -> None:
        nonlocal current, lines
        if section == "scenario":
            for key, value in current.items():
                setattr(scenario, key, value)
        elif section == "chain":
            needs("id", "an id")
            cid = current["id"]
            if cid in chain_ids:
                raise ScenarioError(f"chain id {cid} is already declared", lines["id"], "id")
            chain_ids.add(cid)
            length = current.get("length", 1)
            count_blocks(length, lines.get("length", lines[""]), "length")
            forks = current.get("fork", ())
            for _, branches, line in forks:
                count_blocks(branches, line, "fork")
            scenario.chains.append(
                ChainSpec(
                    id=cid,
                    replicas=current.get("replicas", 1),
                    length=length,
                    assets=current.get("assets", ()),
                    forks=_check_forks(forks, length),
                    balances=tuple(current.get("balance", ())),
                )
            )
        elif section == "txn":
            needs("id", "an id")
            tid = current["id"]
            if tid in scenario.protocols:
                raise ScenarioError(f"txn id {tid} is already declared", lines["id"], "id")
            # a run's first Betti report glues each deal's top, one row per chain, before the engine checks the deal
            needs("parties", "at least two parties", len(current.get("parties", ())) >= 2)
            needs("blocks", "at least one block", bool(current.get("blocks")))
            chains = [ref.chain for ref in current["blocks"]]
            if len(set(chains)) != len(chains):
                raise ScenarioError("txn takes one block height per chain", lines["blocks"], "blocks")
            scenario.protocols[tid] = current.get("protocol", "topocbt")
            scenario.txns.append(
                CrossChainTransaction(
                    id=tid,
                    parties=current["parties"],
                    blocks=current["blocks"],
                    sub_transactions=tuple(current.get("sub", ())),
                )
            )
        elif section == "failure":
            needs("txn", "a txn")
            needs("kind", "a kind")
            kind = current["kind"]
            # the value of the kind's locating key: None for a kind with no key
            scenario.failures.append(FailureSpec(current["txn"], kind, current.get(FAILURE_KEYS[kind])))
            failure_sections.append((current, lines))
        current, lines = {}, {}

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            section = line[1:-1].strip().lower()
            if section not in SECTION_KEYS:
                raise ScenarioError(f"unknown section [{section}]", lineno, None)
            if section == "scenario":
                if scenario_line is not None:
                    raise ScenarioError(f"[scenario] is already declared at line {scenario_line}", lineno, None)
                scenario_line = lineno
            lines[""] = lineno
            continue
        if section is None:
            raise ScenarioError("content before any [section] header", lineno, None)
        if "=" not in line:
            raise ScenarioError("expected key = value", lineno, None)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        parse = SECTION_KEYS[section].get(key)
        if parse is None:
            raise ScenarioError(f"key {key!r} is not valid in [{section}]", lineno, key)
        first = lines.setdefault(key, lineno)
        if first != lineno and key not in REPEATED_KEYS:
            raise ScenarioError(f"{key} is already set at line {first}", lineno, key)
        value = parse(value.strip(), lineno, key)
        if key in REPEATED_KEYS:
            current.setdefault(key, []).append(value)
        else:
            current[key] = value
    flush()
    txns = {txn.id: txn for txn in scenario.txns}
    for current, lines in failure_sections:
        _check_failure(current, lines, txns)
    return scenario


CAR_TRADING_TEXT = """\
# Three parties trade across three chains in one atomic deal:
# alice pays bob in ETH, bob pays cindy in BTC, cindy signs the
# car title over to alice.
[scenario]
name = car-trading
mode = abstract

[chain]
id = 1
length = 2
assets = ETH
balance = alice ETH 10

[chain]
id = 2
length = 2
assets = BTC
balance = bob BTC 1

[chain]
id = 3
length = 2
assets = CAR
balance = cindy CAR 1

[txn]
id = 1
protocol = topocbt
parties = alice bob cindy
blocks = 1:2 2:2 3:2
sub = 1:2 ; alice bob ETH 10
sub = 2:2 ; bob cindy BTC 1
sub = 3:2 ; cindy alice CAR 1
"""


def car_trading() -> Scenario:
    return parse_scenario(CAR_TRADING_TEXT)


def load_scenario(source: str) -> tuple[Scenario, bytes]:
    """Load a scenario by file path or built-in name.

    Returns the scenario and the exact bytes it was parsed from, which
    is what replay determinism is keyed on.
    """
    if source == "car-trading":
        raw = CAR_TRADING_TEXT.encode()
        return parse_scenario(CAR_TRADING_TEXT), raw
    path = Path(source)
    if not path.exists():
        raise ScenarioError(f"no scenario file {source!r} and no built-in of that name")
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ScenarioError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", line) from None
    return parse_scenario(text), raw


# -- programmatic generators ------------------------------------------------


def grid_scenario(n: int, m: int, protocol: str = "topocbt") -> Scenario:
    """A synthetic (n blocks, m sub-transactions) point for complexity fits.

    The main-engine variant gives every face one update per chain so a
    face touches all n blocks; the pairwise variant makes each face a
    two-party exchange so it decomposes into swaps.
    """
    if n < 2:
        raise ScenarioError("grid needs at least 2 chains")
    if m < 0:
        raise ScenarioError("grid needs m >= 0")
    chains = []
    for i in range(1, n + 1):
        chains.append(
            ChainSpec(
                id=i,
                length=1,
                assets=(f"A{i}",),
                balances=((f"p{i}", f"A{i}", 100 + m),),
            )
        )
    parties = tuple(f"p{i}" for i in range(1, n + 1))
    blocks = tuple(BlockRef(i, 1, 0) for i in range(1, n + 1))
    subs = []
    if protocol == "ac2s":
        for k in range(m):
            a = k % n + 1
            b = (k + 1) % n + 1
            subs.append(
                SubTransaction(
                    blocks=(BlockRef(a, 1, 0), BlockRef(b, 1, 0)),
                    updates=(
                        AssetUpdate(f"p{a}", f"p{b}", f"A{a}", 1),
                        AssetUpdate(f"p{b}", f"p{a}", f"A{b}", 1),
                    ),
                )
            )
    else:
        for _ in range(m):
            subs.append(
                SubTransaction(
                    blocks=blocks,
                    updates=tuple(
                        AssetUpdate(f"p{i}", f"p{i % n + 1}", f"A{i}", 1) for i in range(1, n + 1)
                    ),
                )
            )
    txn = CrossChainTransaction(id=1, parties=parties, blocks=blocks, sub_transactions=tuple(subs))
    return Scenario(name=f"grid-n{n}-m{m}", chains=chains, txns=[txn], protocols={1: protocol})
