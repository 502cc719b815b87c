"""Hash-linked blockchains with forks, plus the federation that holds them.

Blocks are append-only value objects sealed with a sha256 digest over a
canonical byte serialization (fixed field order, big-endian integers);
``compute_block_hash`` is the one hashing rule.  A chain may carry
several live branches at once; the longest-branch rule retires all but
one.  Dead branches keep their blocks for audit but never enter new
topology builds.

A block is sealed when it is first read, not when it is appended.
``append_block``, the one store step, stores a block unsealed (its ref,
parent ref and payload) and packs nothing: a payload record checks its
fields as it is made.  ``block`` and ``hash_violations`` seal
the unsealed blocks below the one asked for in height order, each on
its parent's hash, so no caller ever holds an unsealed block.  The
trade: a block's hash is fixed at its first read, and a write through
the private store before that read is not caught.  ``holds_forward``
reads a block's records without sealing it.

A chain is built with its declared trunk: genesis and ``length`` empty
blocks above it on branch 0, held as that length alone.  A declared
block is derived when something asks for it: its parent is one height
below on branch 0 and its hash depends only on the chain id and its
height, so the chain keeps one derived hash, the last one derived, and
derives any other up from it, or from genesis when it lies above the
height asked for; only a seal or ``block`` derives them.
``block`` stores the declared block it hands out, so ``hash_violations``
checks it like any appended block; a declared block never handed out
has nothing to tamper with.

Each chain keeps its live state instead of deriving it on every read.
A block is live when it is in the ancestor closure of the live branch
tips, and two pieces of state, which grow with the chain's forks and
not with its trunk, are the only record of which blocks are: the top of
the live trunk (every branch-0 block from genesis up to it, declared or
appended, is live), and a height -> live refs index over the heights
that hold a live block off branch 0, its forked heights, where a live
trunk block leads its row.  Every other live height holds the trunk
block alone, and its row is built each time it is read.  Beside them
sit the forked heights, sorted (the index's keys), the refs undone by
live ``Compensation`` blocks, and the net (party, asset) change of its live
``AssetUpdate`` records, its ledger.  ``append_block`` stores one block
on top of a branch and adds it to all of them in one step (its parent
is always live already); ``append`` stores one block on the canonical
branch, in the slot ``next_ref`` names.  ``resolve_forks`` leaves only
the canonical branch live, so when it retires a branch it rebuilds the
live state from that branch's one path, walked from its tip down to the
declared trunk; ``spawn_fork`` leaves it alone, since an empty branch
adds no block.
``reshapes`` counts every change but a canonical append at the top,
one height above every live block: a spawned fork, an append on another
branch and a resolution that retires a branch, so a reader that
derived something from the chain's shape can tell that it went stale.  A
payload is read once, when its block is appended.  The engine opens
each forward update block with a ``Forward`` marker naming its
transaction, and each rollback block with a ``Compensation`` marker
naming the block it reverses.

A federation keeps one balance sheet: the running sum of its chains'
ledgers, key by key, which a chain adds each indexed update to as it
indexes it.  A chain that rebuilds its live state has the sheet summed
again from every member's ledger, so the sheet holds exactly the keys
and amounts of the ledgers' sum: a key that only a retired branch's
updates touched leaves the sheet with it.
``Federation.balances`` is the initial sheet plus that one sum, and
``Federation.can_fund`` reads just the keys a face touches.  The sheet
holds the members' ledgers, not the chains, so a chain refers to it
without referring back to its federation, and a chain belongs to one
federation at most.

A ``BlockRef`` is a plain tuple: it keys every block store, height
index and the lock table, and hashes, compares and sorts as
``(chain, height, branch)``.

Locks are held per logical block (one store per chain regardless of
replica count) in a federation-level table, acquired all-or-nothing in
the canonical (chain, height, branch) order; a refusal is a ``Conflict``.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

GENESIS_PARENT = b"\x00" * 32
NAME_BYTES = 2**16 - 1  # UTF-8 bytes of a party or asset name: '>H'-prefixed in blocks, the WAL and the digest
_SHORT_NAME = NAME_BYTES // 4  # characters of at most 4 UTF-8 bytes each: never past the 16-bit length
# every packed field of a record, a block hash and the state digest, big-endian
_U16 = struct.Struct(">H")     # a name's length; the WAL's update count
_U64 = struct.Struct(">Q")     # an amount, a transaction id
_REF = struct.Struct(">III")   # a block ref
_COUNT = struct.Struct(">I")   # a block's record count
_AMOUNT = struct.Struct(">q")  # a balance in the state digest


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > NAME_BYTES:
        raise ValueError(f"a name of {len(raw)} UTF-8 bytes does not fit its 16-bit length field")
    return _U16.pack(len(raw)) + raw


def _unpack_str(buf: bytes, off: int) -> tuple[str, int]:
    (n,) = _U16.unpack_from(buf, off)
    off += _U16.size
    if off + n > len(buf):
        raise ValueError("string runs past the end of the snapshot")
    return buf[off : off + n].decode("utf-8"), off + n


class BlockRef(NamedTuple):
    """Position of a block: chain index, height (0 = genesis), branch label.

    A plain tuple: it hashes, compares and sorts as ``(chain, height,
    branch)`` does, and equals that tuple.
    """

    chain: int
    height: int
    branch: int = 0

    def __str__(self) -> str:
        return f"{self.chain}:{self.height}:{self.branch}"


@dataclass(frozen=True, slots=True)
class AssetUpdate:
    """One asset transfer in a block payload; made, it checks each field fits its packed one."""

    owner_from: str
    owner_to: str
    asset: str
    amount: int

    def __post_init__(self) -> None:
        if self.amount <= 0:
            raise ValueError("update amount must be positive")
        if self.amount > 2**64 - 1:
            raise ValueError(f"update amount {self.amount} does not fit its 64-bit field")
        for name in (self.owner_from, self.owner_to, self.asset):
            if len(name) > _SHORT_NAME:  # else its length alone rules out a 16-bit overflow
                _pack_str(name)

    def inverse(self) -> "AssetUpdate":
        return AssetUpdate(self.owner_to, self.owner_from, self.asset, self.amount)

    def fields(self) -> bytes:
        """The three names, each '>H'-prefixed, then the '>Q' amount."""
        return _pack_str(self.owner_from) + _pack_str(self.owner_to) + _pack_str(self.asset) + _U64.pack(self.amount)

    def to_bytes(self) -> bytes:
        return b"U" + self.fields()

    @classmethod
    def unpack_from(cls, buf: bytes, off: int) -> tuple["AssetUpdate", int]:
        """The update whose ``fields`` start at ``off``, and the offset after them."""
        owner_from, off = _unpack_str(buf, off)
        owner_to, off = _unpack_str(buf, off)
        asset, off = _unpack_str(buf, off)
        (amount,) = _U64.unpack_from(buf, off)
        return cls(owner_from, owner_to, asset, amount), off + _U64.size


@dataclass(frozen=True, slots=True)
class Forward:
    """Marker that opens a forward update block: names its transaction,
    so rollback can tell its own block from an equal update that another
    transaction wrote into the same planned slot.  Packed as it is made."""

    txn_id: int

    def to_bytes(self) -> bytes:
        return b"F" + _U64.pack(self.txn_id)

    __post_init__ = to_bytes  # refuses a field past its struct field as the record is made


@dataclass(frozen=True, slots=True)
class Compensation:
    """Marker carried by a rollback block: names the block it reverses.

    Makes rollback idempotent: a recovery pass can see that a forward
    block was already compensated and must not be reversed again.
    Packed as it is made, like ``Forward``.
    """

    undone: BlockRef
    txn_id: int

    def to_bytes(self) -> bytes:
        return b"C" + _REF.pack(*self.undone) + _U64.pack(self.txn_id)

    __post_init__ = to_bytes


def compute_block_hash(ref: tuple[int, int, int], parent_hash: bytes, payload: tuple) -> bytes:
    """sha256 over the ref (chain, height, branch), the parent hash, the
    record count and each record's bytes."""
    return hashlib.sha256(
        _REF.pack(*ref) + parent_hash + _COUNT.pack(len(payload)) + b"".join([r.to_bytes() for r in payload])
    ).digest()


@dataclass(frozen=True, slots=True)
class Block:
    """A sealed block.  Its hash is fixed when the block is first read
    (``Chain.block`` or ``Chain.hash_violations``), not at append time,
    so a write through the chain's private store before that read is
    not caught; one after it is."""

    ref: BlockRef
    parent_ref: Optional[BlockRef]
    parent_hash: bytes
    payload: tuple
    hash: bytes

    @classmethod
    def seal(cls, ref: BlockRef, parent_ref: Optional[BlockRef], parent_hash: bytes, payload: Iterable) -> "Block":
        payload = tuple(payload)
        return cls(ref, parent_ref, parent_hash, payload, compute_block_hash(ref, parent_hash, payload))


class _Unsealed(NamedTuple):
    """A stored block not read yet: what sealing it takes, bar its parent's hash."""

    ref: BlockRef
    parent_ref: BlockRef
    payload: tuple


@dataclass(slots=True)
class BranchInfo:
    spawn_height: int
    parent: Optional[BlockRef]  # fork parent on the trunk; None for branch 0
    live: bool = True
    tip: int = -1  # height of the last appended block; -1 = nothing yet


class ChainError(Exception):
    pass


_Ledger = dict[tuple[str, str], int]  # (party, asset) -> net change


class _Sheet:
    """A federation's running balance sheet: ``totals`` is the sum of
    its member chains' ledgers, key by key.  A member adds each update
    it indexes to ``totals`` as well; ``resum`` sums ``totals`` again
    from the ledgers after a member rebuilt its own."""

    __slots__ = ("totals", "ledgers")

    def __init__(self) -> None:
        self.totals: _Ledger = {}
        self.ledgers: list[_Ledger] = []

    def admit(self, chain: "Chain") -> None:
        """Make ``chain`` a member, folding in the ledger it holds already."""
        if chain._sheet is not None:
            raise ChainError(f"chain {chain.id} is already in a federation")
        chain._sheet = self
        self.ledgers.append(chain._ledger)
        self._fold(chain._ledger)

    def resum(self) -> None:
        self.totals.clear()
        for ledger in self.ledgers:
            self._fold(ledger)

    def _fold(self, ledger: _Ledger) -> None:
        totals = self.totals
        for key, delta in ledger.items():
            totals[key] = totals.get(key, 0) + delta


class Chain:
    """One blockchain: a declared trunk (genesis plus ``length`` empty
    blocks on branch 0) plus appended blocks on branches."""

    def __init__(self, chain_id: int, replicas: int = 1, assets: Iterable[str] = (), length: int = 0) -> None:
        if chain_id < 1:
            raise ChainError("chain ids start at 1")
        if chain_id > 2**32 - 1:
            raise ChainError(f"chain id {chain_id} does not fit its 32-bit field")
        if replicas < 1:
            raise ChainError("a chain needs at least one replica")
        if length < 0:
            raise ChainError("a declared trunk cannot have a negative length")
        self.id = chain_id
        self.replicas = replicas
        self.assets = tuple(assets)
        self._trunk = length  # the declared trunk: heights 0..length on branch 0
        self._trunk_last: tuple[int, bytes] = (-1, GENESIS_PARENT)  # the last declared hash derived, by height
        # appended blocks, unsealed until first read, and declared blocks handed out
        self._blocks: dict[BlockRef, Block | _Unsealed] = {}
        self.branches: dict[int, BranchInfo] = {0: BranchInfo(spawn_height=0, parent=None, tip=length)}
        self._canonical = 0  # the live branch with the highest tip, the lowest label among those
        # bumped by every change but a canonical append at the top: a fork
        # spawned, an append on another branch, a branch retired
        self.reshapes = 0
        # live state, kept current by _index and _rebuild_live
        self._live_trunk = length  # branch-0 heights 0.._live_trunk, declared or appended, are live
        # height -> live refs, by branch, at each height that holds a live
        # block off branch 0; a live trunk block there leads its row.  A
        # row is a tuple, handed out as it is stored.
        self._live_at: dict[int, tuple[BlockRef, ...]] = {}
        self._forked: list[int] = []  # the heights of those rows, ascending
        self._compensated: set[BlockRef] = set()
        self._ledger: _Ledger = {}
        self._sheet: Optional[_Sheet] = None  # the sheet of the federation that holds the chain

    # -- queries ---------------------------------------------------------

    def block(self, ref: BlockRef) -> Block:
        """The sealed block at ``ref``, sealing it and the unsealed blocks below it first."""
        block = self._blocks.get(ref)
        if type(block) is Block:
            return block
        if block is not None:
            return self._seal(block)
        if not self._declared(ref):
            raise ChainError(f"no block {ref} on chain {self.id}")
        height = ref[1]
        parent = BlockRef(self.id, height - 1, 0) if height else None
        parent_hash = self._trunk_hash(height - 1) if height else GENESIS_PARENT
        block = Block(BlockRef(self.id, height, 0), parent, parent_hash, (), self._trunk_hash(height))
        self._blocks[block.ref] = block
        return block

    def holds_forward(self, ref: BlockRef, txn_id: int) -> bool:
        """Whether the block at ``ref`` is a forward update block of
        ``txn_id``, read without sealing it."""
        block = self._blocks.get(ref)
        return block is not None and block.payload[:1] == (Forward(txn_id),)

    def all_refs(self) -> list[BlockRef]:
        return sorted(self._blocks.keys() | {BlockRef(self.id, height, 0) for height in range(self._trunk + 1)})

    def canonical_branch(self) -> int:
        """The branch the longest-branch rule would pick right now: the
        live branch with the highest tip, the lowest label among those."""
        return self._canonical

    def next_ref(self) -> BlockRef:
        """The ref the next ``append`` fills."""
        branch = self._canonical
        return BlockRef(self.id, self._slot(branch, self.branches[branch])[1], branch)

    def live_refs(self) -> frozenset[BlockRef]:
        """Ancestor closure of every live branch tip.

        Shared trunk prefixes stay live even when their own branch lost
        a resolution; blocks only reachable from dead tips drop out.
        """
        declared = [BlockRef(self.id, height, 0) for height in range(self._live_trunk + 1)]
        return frozenset(declared + [ref for row in self._live_at.values() for ref in row])

    def live_block_at(self, height: int) -> tuple[BlockRef, ...]:
        """Live blocks at a height, canonical order."""
        row = self._live_at.get(height)
        if row is not None:
            return row
        return (BlockRef(self.id, height, 0),) if 0 <= height <= self._live_trunk else ()

    def forked_heights(self, lo: int, hi: int) -> list[int]:
        """The heights from ``lo`` to ``hi`` that hold a live block off
        branch 0, ascending.  Every other live height holds the trunk
        block alone, and its parent is the trunk block one below."""
        forked = self._forked
        return forked[bisect_left(forked, lo) : bisect_right(forked, hi)]

    def is_compensated(self, ref: BlockRef) -> bool:
        """Whether a live compensation block already reverses ``ref``."""
        return ref in self._compensated

    # -- the declared trunk ------------------------------------------------

    def _declared(self, ref: BlockRef) -> bool:
        """Whether ``ref`` names a block of the declared trunk."""
        chain, height, branch = ref
        return chain == self.id and branch == 0 and 0 <= height <= self._trunk

    def _trunk_hash(self, height: int) -> bytes:
        """Hash of the declared block at ``height``, derived up from the
        last one derived when that lies at or below it, else from
        genesis; it is then the last one derived.  ``hash_violations``
        seals in height order, so only a read out of that order derives
        from genesis again.  Each step seals an empty block on its parent.
        """
        at, digest = self._trunk_last
        if at > height:
            at, digest = -1, GENESIS_PARENT
        chain_id = self.id
        for h in range(at + 1, height + 1):
            digest = compute_block_hash((chain_id, h, 0), digest, ())
        self._trunk_last = (height, digest)
        return digest

    def _hash(self, ref: BlockRef) -> Optional[bytes]:
        """Hash a child of ``ref`` links to: the stored block's, else the
        derived one of a declared block; None if there is no such block."""
        if ref in self._blocks:
            return self.block(ref).hash
        return self._trunk_hash(ref[1]) if self._declared(ref) else None

    # -- sealing -----------------------------------------------------------

    def _seal(self, unsealed: _Unsealed) -> Block:
        """Seal ``unsealed`` and the unsealed blocks below it, lowest first,
        each on its parent's hash; below them is a sealed block or a
        declared one never handed out."""
        blocks = self._blocks
        line = [unsealed]
        parent = blocks.get(unsealed.parent_ref)
        while type(parent) is _Unsealed:
            line.append(parent)
            parent = blocks.get(parent.parent_ref)
        parent_hash = self._trunk_hash(line[-1].parent_ref[1]) if parent is None else parent.hash
        for ref, parent_ref, payload in reversed(line):
            block = Block.seal(ref, parent_ref, parent_hash, payload)
            blocks[ref] = block
            parent_hash = block.hash
        return block

    # -- maintained live state ---------------------------------------------

    def _index(self, ref: BlockRef, payload: tuple, totals: _Ledger) -> None:
        """Add an appended block to the live state.  A trunk block becomes
        the live trunk's top, and leads its height's row if that height
        forks.  Any other block joins its height's row in canonical order;
        a new row starts with the trunk block if one is live there, and its
        height joins the forked heights.  The block's records join the
        compensation set and the ledger, its updates ``totals`` too."""
        at, ledger = self._live_at, self._ledger
        chain_id, height, branch = ref
        row = at.get(height)
        if not branch:
            self._live_trunk = height
            if row is not None:
                at[height] = (ref,) + row
        elif row is None:
            at[height] = (BlockRef(chain_id, height, 0), ref) if height <= self._live_trunk else (ref,)
            insort(self._forked, height)
        else:
            i = bisect_left(row, ref)
            at[height] = row[:i] + (ref,) + row[i:]
        for record in payload:
            if isinstance(record, AssetUpdate):
                amount = record.amount
                key = (record.owner_from, record.asset)
                ledger[key] = ledger.get(key, 0) - amount
                totals[key] = totals.get(key, 0) - amount
                key = (record.owner_to, record.asset)
                ledger[key] = ledger.get(key, 0) + amount
                totals[key] = totals.get(key, 0) + amount
            elif isinstance(record, Compensation):
                self._compensated.add(record.undone)

    def _rebuild_live(self) -> None:
        """Recompute the live state from the canonical branch, the one
        live branch left: its path from the tip down to the declared
        trunk, every block below which is live, indexed bottom-up.  The
        federation's sheet is summed again from its members' ledgers."""
        label = self._canonical
        ref = BlockRef(self.id, self.branches[label].tip, label)
        path = []
        while not self._declared(ref):
            path.append(ref)
            ref = self._blocks[ref].parent_ref
        self._live_trunk = ref[1]
        for state in (self._live_at, self._forked, self._compensated, self._ledger):
            state.clear()
        blocks, discarded = self._blocks, {}
        for ref in reversed(path):
            self._index(ref, blocks[ref].payload, discarded)
        if self._sheet is not None:
            self._sheet.resum()

    # -- mutation ----------------------------------------------------------

    def _slot(self, branch: int, info: BranchInfo) -> tuple[Optional[BlockRef], int]:
        """Parent and height of the next block on ``branch``."""
        if info.tip < 0:
            return info.parent, info.spawn_height
        return BlockRef(self.id, info.tip, branch), info.tip + 1

    def append(self, payload: Iterable = (), at: Optional[BlockRef] = None) -> Optional[BlockRef]:
        """Store one block on the canonical branch."""
        return self.append_block(self._canonical, payload, at)

    def append_block(self, branch: int, payload: Iterable = (), at: Optional[BlockRef] = None) -> Optional[BlockRef]:
        """Store one block on top of ``branch``, unsealed, and index it;
        it is sealed when first read.  Nothing is packed: each record
        checked its fields as it was made.  Given ``at``, store nothing
        and return None unless ``at`` is the slot the block would fill."""
        info = self.branches.get(branch)
        if info is None:
            raise ChainError(f"unknown branch {branch} on chain {self.id}")
        if not info.live:
            raise ChainError(f"branch {branch} on chain {self.id} is dead")
        payload = tuple(payload)
        parent_ref, height = self._slot(branch, info)
        ref = BlockRef(self.id, height, branch)
        if at is not None and at != ref:
            return None
        self._blocks[ref] = _Unsealed(ref, parent_ref, payload)
        info.tip = height
        # tips only rise, so the branch that rose is the only new contender
        best = self._canonical
        if branch != best:
            self.reshapes += 1
            if (-height, branch) < (-self.branches[best].tip, best):
                self._canonical = branch
        # the parent is live: a live branch's tip is, a fork's parent was
        # when it spawned, and a resolution leaves no empty branch live
        sheet = self._sheet
        self._index(ref, payload, {} if sheet is None else sheet.totals)
        return ref

    def spawn_fork(self, at_height: int) -> int:
        """Open a new branch whose first block will sit at ``at_height``."""
        if at_height < 1:
            raise ChainError("cannot fork at or below genesis")
        parents = self.live_block_at(at_height - 1)
        if not parents:
            raise ChainError(f"no live block at height {at_height - 1} to fork from")
        label = len(self.branches)  # labels run 0, 1, ... and are never dropped
        previous = self.branches[label - 1].parent  # forks spawned one after another share one parent ref
        parent = previous if previous == parents[0] else parents[0]
        # empty and labelled highest, the branch loses to every live one: the canonical branch stays
        self.branches[label] = BranchInfo(spawn_height=at_height, parent=parent)
        self.reshapes += 1
        return label

    def resolve_forks(self) -> int:
        """Keep the longest live branch (ties go to the lowest label): the
        canonical branch, which stays canonical."""
        survivor = self._canonical
        retired = False
        for label, info in self.branches.items():
            if label != survivor and info.live:
                info.live = False
                retired = True
        if retired:
            self._rebuild_live()
            self.reshapes += 1
        return survivor

    # -- integrity ---------------------------------------------------------

    def hash_violations(self) -> list[BlockRef]:
        """Refs whose stored hash or parent link fails verification, in order.

        Every stored block is sealed, then checked, its link against its
        parent's stored or derived hash; a declared block never handed
        out has nothing to tamper with.
        """
        bad = []
        for ref in sorted(self._blocks):
            block = self.block(ref)  # its parent, one height down, is sealed already
            if compute_block_hash(block.ref, block.parent_hash, block.payload) != block.hash:
                bad.append(ref)
                continue
            if block.parent_ref is None:
                if block.parent_hash != GENESIS_PARENT or ref.height != 0:
                    bad.append(ref)
            elif self._hash(block.parent_ref) != block.parent_hash:
                bad.append(ref)
        return bad


@dataclass(frozen=True, slots=True)
class Conflict:
    ref: BlockRef
    holder: int


class Federation:
    """A cluster of chains plus the lock table and party balances."""

    def __init__(self, initial_balances: Optional[dict[tuple[str, str], int]] = None) -> None:
        self.chains: dict[int, Chain] = {}
        self._asset_chain: dict[str, Chain] = {}  # asset -> the lowest-id chain that manages it
        self.locks: dict[BlockRef, int] = {}
        self.initial_balances: dict[tuple[str, str], int] = dict(initial_balances or {})
        self._sheet = _Sheet()  # the sum of the chains' ledgers

    def add_chain(self, chain: Chain) -> Chain:
        """Hold ``chain``, its ledger summed into the balance sheet.  A
        chain already held by a federation is refused: its ledger feeds
        that federation's sheet."""
        if chain.id in self.chains:
            raise ChainError(f"duplicate chain id {chain.id}")
        self._sheet.admit(chain)
        self.chains[chain.id] = chain
        for asset in chain.assets:
            holder = self._asset_chain.get(asset)
            if holder is None or chain.id < holder.id:
                self._asset_chain[asset] = chain
        return chain

    def chain(self, chain_id: int) -> Chain:
        try:
            return self.chains[chain_id]
        except KeyError:
            raise ChainError(f"no chain {chain_id}") from None

    def chain_ids(self) -> list[int]:
        return sorted(self.chains)

    def chain_for_asset(self, asset: str) -> Chain:
        """The chain that manages ``asset``: the lowest id among those that list it."""
        try:
            return self._asset_chain[asset]
        except KeyError:
            raise ChainError(f"no chain manages asset {asset!r}") from None

    # -- locks -------------------------------------------------------------

    def lock_blocks(self, refs: Iterable[BlockRef], txn_id: int) -> Optional[Conflict]:
        """Lock every ref for txn_id and return None, or lock none and return the conflict.

        Acquisition always walks the canonical (chain, height, branch)
        order so no two acquisition sequences can cross.
        """
        ordered = sorted(set(refs))
        for ref in ordered:
            holder = self.locks.get(ref)
            if holder is not None and holder != txn_id:
                return Conflict(ref=ref, holder=holder)
        for ref in ordered:
            self.locks[ref] = txn_id
        return None

    def release_blocks(self, refs: Iterable[BlockRef], txn_id: int) -> None:
        ordered = sorted(set(refs))
        for ref in ordered:
            holder = self.locks.get(ref)
            if holder is None:
                continue
            if holder != txn_id:
                raise ChainError(f"lock on {ref} held by txn {holder}, not {txn_id}")
        for ref in ordered:
            self.locks.pop(ref, None)

    def release_all(self, txn_id: int) -> None:
        for ref in [r for r, holder in self.locks.items() if holder == txn_id]:
            del self.locks[ref]

    # -- balances ------------------------------------------------------------

    def balances(self) -> dict[tuple[str, str], int]:
        """Effective (party, asset) balances: the initial sheet plus the
        running sum of every chain's ledger of live updates."""
        totals = dict(self.initial_balances)
        for key, delta in self._sheet.totals.items():
            totals[key] = totals.get(key, 0) + delta
        return totals

    def updates_by_chain(self, updates: Iterable[AssetUpdate]) -> list[tuple[int, tuple[AssetUpdate, ...]]]:
        """Updates grouped by the chain managing their asset, chain ids ascending."""
        grouped: dict[int, list[AssetUpdate]] = {}
        for upd in updates:
            grouped.setdefault(self.chain_for_asset(upd.asset).id, []).append(upd)
        return [(cid, tuple(grouped[cid])) for cid in sorted(grouped)]

    def can_fund(self, updates: Iterable[AssetUpdate]) -> bool:
        """Whether the updates, applied in order to current balances, never
        overdraw.  Reads only the balances the updates touch: the initial
        sheet's and the federation's sheet's entries for those keys."""
        updates = tuple(updates)
        initial, totals = self.initial_balances, self._sheet.totals
        working = {
            key: initial.get(key, 0) + totals.get(key, 0)
            for upd in updates
            for key in ((upd.owner_from, upd.asset), (upd.owner_to, upd.asset))
        }
        for upd in updates:
            key = (upd.owner_from, upd.asset)
            if working[key] < upd.amount:
                return False
            working[key] -= upd.amount
            working[(upd.owner_to, upd.asset)] += upd.amount
        return True

    def balance(self, party: str, asset: str) -> int:
        return self.balances().get((party, asset), 0)

    def state_digest(self) -> str:
        """Hex digest of the effective balances, the atomicity audit anchor.

        Zero balances are skipped: applying and compensating an update
        leaves the digest exactly where it started.  Balances that are
        each in range can still sum past the signed 64-bit field.
        """
        fields: list[bytes] = []
        pack = _AMOUNT.pack
        for (party, asset), amount in sorted(self.balances().items()):
            if amount == 0:
                continue
            if not -(2**63) <= amount < 2**63:
                raise ChainError(f"balance of {party} in {asset} is {amount}, beyond the digest's 64-bit field")
            fields += (_pack_str(party), _pack_str(asset), pack(amount))
        return hashlib.sha256(b"".join(fields)).hexdigest()
