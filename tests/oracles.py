"""Small reference computations that only tests call."""

import hashlib
import struct
from typing import Iterable, Sequence

from topocbt.chain import GENESIS_PARENT, Block, BlockRef, BranchInfo, Chain, Federation, compute_block_hash
from topocbt.gf2 import Matrix
from topocbt.simplicial import Cell, SimplicialComplex, _reduced_rank, generators_from_text, read_generators


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


class UnionFind:
    """Disjoint-set forest with union by size and path compression."""

    def __init__(self) -> None:
        self._parent: dict = {}
        self._size: dict = {}

    def find(self, x):
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1
            return x
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def component_count(self) -> int:
        return sum(1 for x, p in self._parent.items() if x == p)


def betti_from_cells(cells: Sequence[Iterable[Cell]]) -> tuple[int, ...]:
    """Betti numbers over GF(2) of a closed complex given as cells[k] = its
    k-cells (ascending vertex tuples), such as the output of
    ``close_by_dimension``; () when there are none: the closure oracle
    that ``betti_from_generators`` is judged against.

    b_k = n_k - rank(d_k) - rank(d_{k+1}).  Rank d1 is the vertex count
    less the union-find component count; rank dk for k >= 2 comes from
    the package's column reduction with clearing, which the dense GF(2)
    oracle judges on its own.
    """
    ordered = [sorted(c) for c in cells]
    if not ordered:
        return ()
    ranks = [0] * (len(ordered) + 1)
    if len(ordered) > 1:
        uf = UnionFind()
        for (v,) in ordered[0]:
            uf.find(v)
        for a, b in ordered[1]:
            uf.union(a, b)
        ranks[1] = len(ordered[0]) - uf.component_count()
    cleared: set[int] = set()
    for k in range(len(ordered) - 1, 1, -1):
        ranks[k], cleared = _reduced_rank(ordered[k], ordered[k - 1], cleared)
    return tuple(len(ordered[k]) - ranks[k] - ranks[k + 1] for k in range(len(ordered)))


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
