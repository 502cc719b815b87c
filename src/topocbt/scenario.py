"""Scenario configuration: a line-oriented sectioned text format.

Sections start with a ``[header]`` line and hold ``key = value`` pairs.
``[chain]``, ``[txn]``, and ``[failure]`` sections repeat; ``fork``,
``balance``, and ``sub`` keys repeat within their section; any other
key appears at most once, and only in its own section.  Blank lines
and ``#`` comments are ignored.  Block positions are written
``chain:height`` or ``chain:height:branch``.  Input that could not
run as written (a number, name or update list its binary field cannot
hold, a scenario name that would split its CSV cell, a party name that
would split a report's ``worse_off`` cell, a duplicate chain or txn
id, a txn with no block, two blocks on one chain or fewer than two
parties, a fork with no block below it, a failure that can never fire,
more blocks or replicas than the work budget allows) is rejected with
its line and field.

A parsed :class:`Scenario` holds the chains to build, each transaction
as the :class:`CrossChainTransaction` it runs (in declaration order)
with its protocol by id, and each failure as its txn, its kind and the
value of the one key that locates it.  ``FAILURE_KEYS`` maps a kind to
that key and to the :class:`FailurePlan` field it sets, so a txn's plan
is its failures folded into an empty plan.

A scenario file alone fully determines a run; the built-in
``car-trading`` scenario is shipped as a fixed text constant so it
replays byte-identically too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional

from .chain import AssetUpdate, BlockRef, Chain, Federation
from .engine import FACE_FAILURE_KINDS, NO_FAILURES, FailurePlan
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


@dataclass
class ChainSpec:
    id: int
    replicas: int = 1
    length: int = 1
    assets: tuple[str, ...] = ()
    forks: tuple[tuple[int, int], ...] = ()          # (height, branch count)
    balances: tuple[tuple[str, str, int], ...] = ()  # (party, asset, amount)


@dataclass
class FailureSpec:
    txn: int
    kind: str
    at: Optional[int | str] = None  # the value of the kind's key; None for a kind with no key


# Each failure kind, the one key that says where it strikes (None: no
# key), and the FailurePlan field it sets: face failures add a
# (face, kind) pair, a kind with no key sets True, any other sets its key's value.
FAILURE_KEYS: dict[str, tuple[Optional[str], str]] = {
    kind: ("face", "face_failures") for kind in FACE_FAILURE_KINDS
} | {
    "walk_away": ("party", "walk_away"),
    "timeout": ("swap", "timeout_swap"),
    "witness_crash": (None, "witness_crash"),
    "vote_abort": ("face", "vote_abort_face"),
    "crash_after_record": ("record", "crash_after_record"),
    "crash_after_append": ("append", "crash_after_append"),
}
FAILURE_KINDS = tuple(FAILURE_KEYS)
LOCATING_KEYS = tuple(dict.fromkeys(key for key, _ in FAILURE_KEYS.values() if key))

PROTOCOLS = ("topocbt", "ac2s", "ac3wn")

SECTION_KEYS = {
    "scenario": frozenset({"name", "mode", "epoch", "window"}),
    "chain": frozenset({"id", "replicas", "length", "assets", "fork", "balance"}),
    "txn": frozenset({"id", "protocol", "parties", "blocks", "sub"}),
    "failure": frozenset({"txn", "kind", *LOCATING_KEYS}),
}
REPEATED_KEYS = frozenset({"fork", "balance", "sub"})

# Number ranges, inclusive, set by the binary formats the numbers end up in.
U32 = (0, 2**32 - 1)           # heights, branches: '>I' in block hashes and the WAL
CHAIN_ID = (1, 2**32 - 1)      # chain ids: '>I' too, and chains are numbered from 1
TXN_ID = (0, 2**64 - 1)        # '>Q' in the WAL
AMOUNT = (1, 2**63 - 1)        # '>Q' in blocks and the WAL, and a balance change in the digest
BALANCE = (-(2**63), 2**63 - 1)  # '>q' in the state digest
POINT = (1, None)              # 1-based face, swap, record and append counts
NATURAL = (0, None)            # epoch and window, where 0 means never and whole chains
NAME_BYTES = 2**16 - 1         # UTF-8 bytes of a party or asset name: '>H'-prefixed in blocks, the WAL and the digest
SUB_UPDATES = 2**16 - 1        # updates on one sub line: a chain's share is one WAL undo record's '>H' count

# The work budget.  A run holds its scenario's whole declared history in
# memory, so each bound keeps one structure of a run within MEMORY_BUDGET
# bytes (simplicial.py, beside the face-enumeration budget MAX_CELLS).
# Sizes were measured with tracemalloc on CPython 3.11.7 and rounded up to
# a power of two:
# - a declared block costs at most BLOCK_BYTES.  A trunk block costs its
#   chain at most its ref (~130 B) during a run, kept once live_block_at
#   names its height; a fork's block is stored unsealed with its branch
#   and height-index row (~490-570 B).  No run reads a block, so none is
#   sealed: a read seals a fork's block (~180 B more) and hands out a
#   trunk block (~390 B and its ~75 B derived hash).  Its vertex and
#   edges in one complex build add ~270-460 B.  Per declared block, the
#   chain and one build came to ~310 B on a bare trunk and ~560-630 B with
#   forks (2,000 on one height, or one on each of 2,000 heights);
# - in replicated mode the copies of a block form one simplex whose face
#   closure, which complex text enumerates, holds 2**replicas - 1 cells,
#   so one replica group alone fits in MAX_CELLS.  The text of a build
#   whose groups and tops together pass MAX_CELLS is refused (betti
#   --out); Betti numbers enumerate no such closure
#   (simplicial.betti_from_generators).
BLOCK_BYTES = 1024
MAX_BLOCKS = MEMORY_BUDGET // BLOCK_BYTES  # trunks and forks of all chains together
REPLICAS = (1, MAX_CELLS.bit_length() - 1)


@dataclass
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
                    chain.append_blocks(chain.spawn_fork(height), ((),))
            federation.add_chain(chain)
            for party, asset, amount in spec.balances:
                key = (party, asset)
                federation.initial_balances[key] = federation.initial_balances.get(key, 0) + amount
        return federation

    def transactions(self) -> list[CrossChainTransaction]:
        return sorted(self.txns, key=lambda t: t.id)

    def plan_for(self, txn_id: int) -> FailurePlan:
        plan = NO_FAILURES
        for f in self.failures:
            if f.txn == txn_id:
                key, attr = FAILURE_KEYS[f.kind]
                if key is not None and f.at is None:
                    raise ScenarioError(f"failure kind {f.kind} needs a {key}", fld=key)
                value = True if key is None else f.at
                if attr == "face_failures":
                    value = plan.face_failures + ((f.at, f.kind),)
                plan = replace(plan, **{attr: value})
        return plan


# -- parsing -------------------------------------------------------------


def _parse_int(token: str, line: int, fld: str, bounds: Optional[tuple[int, Optional[int]]] = None) -> int:
    """A base-10 integer in ASCII, '-?[0-9]+': int() alone would also take
    '+', '_', surrounding spaces and the digits of other scripts."""
    try:
        if not (token.isascii() and token.lstrip("-").isdigit()):
            raise ValueError(token)
        value = int(token)
    except ValueError:
        raise ScenarioError(f"expected integer, got {token!r}", line, fld) from None
    if bounds is not None:
        lo, hi = bounds
        if value < lo or (hi is not None and value > hi):
            expected = f"at least {lo}" if hi is None else f"{lo}..{hi}"
            raise ScenarioError(f"expected {expected}, got {value}", line, fld)
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


def _parse_ref(token: str, line: int, fld: str) -> BlockRef:
    parts = token.split(":")
    if len(parts) not in (2, 3):
        raise ScenarioError(f"block position must be chain:height[:branch], got {token!r}", line, fld)
    nums = [_parse_int(p, line, fld, U32) for p in parts]
    return BlockRef(nums[0], nums[1], nums[2] if len(nums) == 3 else 0)


def _parse_sub(value: str, line: int) -> SubTransaction:
    if ";" not in value:
        raise ScenarioError("sub needs 'blocks ; updates'", line, "sub")
    blocks_part, updates_part = value.split(";", 1)
    blocks = tuple(_parse_ref(tok, line, "sub") for tok in blocks_part.split())
    clauses = updates_part.split(",")
    if len(clauses) > SUB_UPDATES:
        raise ScenarioError(f"a sub takes at most {SUB_UPDATES} updates, got {len(clauses)}", line, "sub")
    updates = []
    for clause in clauses:
        toks = clause.split()
        if len(toks) != 4:
            raise ScenarioError(f"update must be 'from to asset amount', got {clause.strip()!r}", line, "sub")
        updates.append(AssetUpdate(toks[0], toks[1], toks[2], _parse_int(toks[3], line, "sub", AMOUNT)))
    _check_names(updates_part, (name for u in updates for name in (u.owner_from, u.owner_to, u.asset)), line, "sub")
    _check_parties((name for u in updates for name in (u.owner_from, u.owner_to)), line, "sub")
    if not blocks:
        raise ScenarioError("sub needs at least one block", line, "sub")
    return SubTransaction(blocks=blocks, updates=tuple(updates))


def _check_failure(current: dict, lines: dict[str, int], txns: dict[int, CrossChainTransaction]) -> None:
    """Reject a failure that can never fire; ``current`` is its parsed
    section and ``lines`` maps each key (and the header, under "") to its line."""
    txn = txns.get(current["txn"])
    if txn is None:
        raise ScenarioError(f"no txn {current['txn']} is declared", lines["txn"], "txn")
    kind = current["kind"]
    wanted = FAILURE_KEYS[kind][0]
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
    current: dict = {}
    lines: dict[str, int] = {}  # key -> line of its first occurrence; "" -> the section header
    chain_ids: set[int] = set()
    declared_blocks = 0
    failure_sections: list[tuple[dict, dict[str, int]]] = []

    def count_blocks(count: int, line: int, fld: str) -> None:
        nonlocal declared_blocks
        declared_blocks += count
        if declared_blocks > MAX_BLOCKS:
            raise ScenarioError(f"{declared_blocks} blocks declared so far, more than the budget of {MAX_BLOCKS}",
                                line, fld)

    def flush() -> None:
        nonlocal current, lines
        if section is None:
            return
        section_line = lines[""]
        if section == "scenario":
            scenario.name = current.get("name", scenario.name)
            mode = current.get("mode", "abstract")
            try:
                scenario.mode = TopologyMode(mode)
            except ValueError:
                raise ScenarioError(f"unknown mode {mode!r}", section_line, "mode") from None
            scenario.epoch = current.get("epoch", 0)
            window = current.get("window", 0)
            scenario.window = None if window == 0 else window
        elif section == "chain":
            if "id" not in current:
                raise ScenarioError("chain needs an id", section_line, "id")
            cid = current["id"]
            if cid in chain_ids:
                raise ScenarioError(f"chain id {cid} is already declared", lines["id"], "id")
            chain_ids.add(cid)
            length = current.get("length", 1)
            count_blocks(length, lines.get("length", section_line), "length")
            for _, branches, line in current.get("fork", ()):
                count_blocks(branches, line, "fork")
            scenario.chains.append(
                ChainSpec(
                    id=cid,
                    replicas=current.get("replicas", 1),
                    length=length,
                    assets=tuple(current.get("assets", ())),
                    forks=_check_forks(current.get("fork", ()), length),
                    balances=tuple(current.get("balance", ())),
                )
            )
        elif section == "txn":
            if "id" not in current:
                raise ScenarioError("txn needs an id", section_line, "id")
            tid = current["id"]
            if tid in scenario.protocols:
                raise ScenarioError(f"txn id {tid} is already declared", lines["id"], "id")
            protocol = current.get("protocol", "topocbt")
            if protocol not in PROTOCOLS:
                raise ScenarioError(f"unknown protocol {protocol!r}", section_line, "protocol")
            # a run's first Betti report glues each deal's top, one row per chain, before the engine checks the deal
            if len(current.get("parties", ())) < 2:
                raise ScenarioError("txn needs at least two parties", lines.get("parties", section_line), "parties")
            if not current.get("blocks"):
                raise ScenarioError("txn needs at least one block", lines.get("blocks", section_line), "blocks")
            chains = [ref.chain for ref in current["blocks"]]
            if len(set(chains)) != len(chains):
                raise ScenarioError("txn takes one block height per chain", lines["blocks"], "blocks")
            scenario.protocols[tid] = protocol
            scenario.txns.append(
                CrossChainTransaction(
                    id=tid,
                    parties=current.get("parties", ()),
                    blocks=current.get("blocks", ()),
                    sub_transactions=tuple(current.get("sub", ())),
                )
            )
        elif section == "failure":
            if "txn" not in current:
                raise ScenarioError("failure needs a txn", section_line, "txn")
            kind = current.get("kind")
            if kind not in FAILURE_KINDS:
                raise ScenarioError(f"unknown failure kind {kind!r}", section_line, "kind")
            key = FAILURE_KEYS[kind][0]
            scenario.failures.append(FailureSpec(current["txn"], kind, current.get(key) if key else None))
            failure_sections.append((current, lines))
        current, lines = {}, {}

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            section = line[1:-1].strip().lower()
            lines[""] = lineno
            if section not in SECTION_KEYS:
                raise ScenarioError(f"unknown section [{section}]", lineno, None)
            continue
        if section is None:
            raise ScenarioError("content before any [section] header", lineno, None)
        if "=" not in line:
            raise ScenarioError("expected key = value", lineno, None)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in SECTION_KEYS[section]:
            raise ScenarioError(f"key {key!r} is not valid in [{section}]", lineno, key)
        first = lines.setdefault(key, lineno)
        if first != lineno and key not in REPEATED_KEYS:
            raise ScenarioError(f"{key} is already set at line {first}", lineno, key)

        if key == "id":
            current[key] = _parse_int(value, lineno, key, CHAIN_ID if section == "chain" else TXN_ID)
        elif key == "length":
            current[key] = _parse_int(value, lineno, key, U32)
        elif key == "replicas":
            current[key] = _parse_int(value, lineno, key, REPLICAS)
        elif key in ("face", "swap", "record", "append"):
            current[key] = _parse_int(value, lineno, key, POINT)
        elif key in ("epoch", "window"):
            current[key] = _parse_int(value, lineno, key, NATURAL)
        elif key == "txn":
            current[key] = _parse_int(value, lineno, key)
        elif key == "name":
            if "," in value:
                raise ScenarioError(f"the scenario name is one CSV cell and takes no ',', got {value!r}", lineno, key)
            current[key] = value
        elif key in ("mode", "protocol", "kind"):
            current[key] = value
        elif key == "party":
            _check_names(value, (value,), lineno, key)
            _check_parties((value,), lineno, key)
            current[key] = value
        elif key in ("assets", "parties"):
            current[key] = tuple(value.split())
            _check_names(value, current[key], lineno, key)
            if key == "parties":
                _check_parties(current[key], lineno, key)
        elif key == "blocks":
            current["blocks"] = tuple(_parse_ref(tok, lineno, "blocks") for tok in value.split())
        elif key == "fork":
            toks = value.split()
            if len(toks) != 2:
                raise ScenarioError("fork needs 'height branches'", lineno, "fork")
            current.setdefault("fork", []).append(
                (_parse_int(toks[0], lineno, "fork", U32), _parse_int(toks[1], lineno, "fork", U32), lineno)
            )
        elif key == "balance":
            toks = value.split()
            if len(toks) != 3:
                raise ScenarioError("balance needs 'party asset amount'", lineno, "balance")
            _check_names(value, toks[:2], lineno, key)
            _check_parties(toks[:1], lineno, key)
            current.setdefault("balance", []).append(
                (toks[0], toks[1], _parse_int(toks[2], lineno, "balance", BALANCE))
            )
        else:
            current.setdefault("sub", []).append(_parse_sub(value, lineno))
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
