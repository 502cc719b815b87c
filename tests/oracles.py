"""Small reference computations that only tests call."""

import hashlib
import struct

from topocbt.chain import GENESIS_PARENT, Block, BlockRef, BranchInfo, Chain, Federation, compute_block_hash
from topocbt.gf2 import Matrix
from topocbt.simplicial import SimplicialComplex, generators_from_text, read_generators


def gf2_matmul(a: Matrix, b: Matrix) -> list[list[int]]:
    """Matrix product over GF(2)."""
    cols = list(zip(*b))
    return [[sum(x & y for x, y in zip(row, col)) & 1 for col in cols] for row in a]


def subsets(cell: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Every non-empty subset of an ascending tuple, by bitmask."""
    return {tuple(v for i, v in enumerate(cell) if mask >> i & 1) for mask in range(1, 1 << len(cell))}


def all_subsets_closure(generators) -> set[tuple[int, ...]]:
    """The face closure of ascending vertex tuples: every non-empty subset of each."""
    return set().union(*map(subsets, generators))


def complex_from_text(text: str) -> SimplicialComplex:
    """The complex a complex file's text holds: its lines' face closure."""
    return SimplicialComplex(generators_from_text(text))


def read_complex(path) -> SimplicialComplex:
    """:func:`complex_from_text` of a complex file."""
    return SimplicialComplex(read_generators(path))


def cells_of(complex_) -> set[tuple[int, ...]]:
    """A complex's cells, every dimension, as vertex tuples."""
    return {cell for level in complex_.cells for cell in level}


def asset_totals(federation: Federation) -> dict[str, int]:
    """Each asset's effective balances summed over every party."""
    totals: dict[str, int] = {}
    for (_, asset), amount in federation.balances().items():
        totals[asset] = totals.get(asset, 0) + amount
    return totals


def whole_sheet_can_fund(federation: Federation, updates) -> bool:
    """Whether the updates, applied in order to the whole balance sheet,
    never overdraw."""
    working = federation.balances()
    for upd in updates:
        key = (upd.owner_from, upd.asset)
        if working.get(key, 0) < upd.amount:
            return False
        working[key] = working.get(key, 0) - upd.amount
        to_key = (upd.owner_to, upd.asset)
        working[to_key] = working.get(to_key, 0) + upd.amount
    return True


def is_live(chain: Chain, ref: BlockRef) -> bool:
    """Whether the chain's maintained height index lists the block as live."""
    return ref in chain.live_block_at(ref.height)


def reference_block_hash(ref: BlockRef, parent_hash: bytes, payload: tuple) -> bytes:
    """A block hash fed to sha256 field by field: the ref, the parent
    hash, the record count, then each record's bytes."""
    h = hashlib.sha256()
    h.update(struct.pack(">III", ref.chain, ref.height, ref.branch))
    h.update(parent_hash)
    h.update(struct.pack(">I", len(payload)))
    for record in payload:
        h.update(record.to_bytes())
    return h.digest()


class EagerChain:
    """A chain that seals every block, its declared trunk included, when
    it stores it, and finds live blocks by walking back from the live
    tips: the reference a chain sealed on first read is judged against."""

    def __init__(self, chain_id: int, length: int = 0) -> None:
        self.id = chain_id
        self.blocks: dict[BlockRef, Block] = {}
        parent_ref, parent_hash = None, GENESIS_PARENT
        for height in range(length + 1):
            block = Block.seal(BlockRef(chain_id, height, 0), parent_ref, parent_hash, ())
            self.blocks[block.ref] = block
            parent_ref, parent_hash = block.ref, block.hash
        self.branches = {0: BranchInfo(spawn_height=0, parent=None, tip=length)}

    def block(self, ref: BlockRef) -> Block:
        return self.blocks[ref]

    def live_refs(self) -> set[BlockRef]:
        live: set[BlockRef] = set()
        for label, info in self.branches.items():
            ref = BlockRef(self.id, info.tip, label) if info.live and info.tip >= 0 else None
            while ref is not None and ref not in live:
                live.add(ref)
                ref = self.blocks[ref].parent_ref
        return live

    def append_blocks(self, branch: int, payloads) -> list[BlockRef]:
        info = self.branches[branch]
        refs = []
        for payload in payloads:
            if info.tip < 0:
                parent_ref, height = info.parent, info.spawn_height
            else:
                parent_ref, height = BlockRef(self.id, info.tip, branch), info.tip + 1
            ref = BlockRef(self.id, height, branch)
            self.blocks[ref] = Block.seal(ref, parent_ref, self.blocks[parent_ref].hash, payload)
            info.tip = height
            refs.append(ref)
        return refs

    def spawn_fork(self, at_height: int) -> int:
        parent = min(ref for ref in self.live_refs() if ref.height == at_height - 1)
        label = len(self.branches)
        self.branches[label] = BranchInfo(spawn_height=at_height, parent=parent)
        return label

    def resolve_forks(self) -> int:
        survivor = min((-info.tip, label) for label, info in self.branches.items() if info.live)[1]
        for label, info in self.branches.items():
            info.live = label == survivor
        return survivor

    def hash_violations(self) -> list[BlockRef]:
        """Every stored block checked against its own fields and its parent's stored hash."""
        bad = []
        for ref in sorted(self.blocks):
            block = self.blocks[ref]
            if block.parent_ref is None:
                linked = block.parent_hash == GENESIS_PARENT and ref.height == 0
            else:
                linked = self.blocks[block.parent_ref].hash == block.parent_hash
            if compute_block_hash(ref, block.parent_hash, block.payload) != block.hash or not linked:
                bad.append(ref)
        return bad
