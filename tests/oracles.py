"""Fixtures and reference computations that only tests call.

The package ships only what its programs call.  What tests alone need
lives here: the seeded fixture generator (:class:`SplitMix64`) and the
scenarios it draws (:func:`random_scenario`), read-only views of a
chain's private state (:func:`ledger`), and slow but plain reference
computations the fast ones are judged against.
"""

import hashlib
import struct
from typing import Iterable, Sequence

from topocbt.chain import (
    GENESIS_PARENT,
    AssetUpdate,
    Block,
    BlockRef,
    BranchInfo,
    Chain,
    ChainError,
    Federation,
    compute_block_hash,
)
from topocbt.engine import FACE_FAILURE_KINDS
from topocbt.gf2 import Matrix
from topocbt.scenario import ChainSpec, FailureSpec, Scenario
from topocbt.simplicial import (Cell, SimplicialComplex, _reduced_ranks, close_by_dimension, complex_to_text,
                                generators_from_text, read_generators, text_order)
from topocbt.topology import CrossChainTransaction, SubTransaction

_MASK = (1 << 64) - 1


class SplitMix64:
    """Seedable, portable 64-bit generator with a tiny state.

    Every randomized fixture runs on it, so a fixture replays identically
    from its seed, whatever Python's hash seed or the platform.
    Algorithm constants:

        increment   0x9E3779B97F4A7C15
        mix step 1  0xBF58476D1CE4E5B9  (xor-shift 30)
        mix step 2  0x94D049BB133111EB  (xor-shift 27)
        final       xor-shift 31
    """

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound). bound must be positive."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def choice(self, items):
        return items[self.below(len(items))]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates shuffle in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]




def random_scenario(seed: int) -> Scenario:
    """Small randomized federation + one transaction + one failure plan.

    Fully determined by the seed (SplitMix64 throughout).
    """
    rng = SplitMix64(seed)
    n_chains = rng.randrange(2, 4)
    chains = []
    for i in range(1, n_chains + 1):
        length = rng.randrange(1, 3)
        forks: list[tuple[int, int]] = []
        if rng.below(3) == 0:
            forks.append((rng.randrange(1, length), 1))
        chains.append(
            ChainSpec(
                id=i,
                replicas=rng.randrange(1, 3),
                length=length,
                assets=(f"A{i}",),
                forks=tuple(forks),
                balances=((f"p{i}", f"A{i}", rng.randrange(10, 20)),),
            )
        )
    n_txn_chains = rng.randrange(2, n_chains)
    pool = list(range(1, n_chains + 1))
    rng.shuffle(pool)
    txn_chain_ids = sorted(pool[:n_txn_chains])

    blocks = tuple(BlockRef(cid, chains[cid - 1].length, 0) for cid in txn_chain_ids)
    parties = tuple(f"p{cid}" for cid in txn_chain_ids)
    n_faces = rng.randrange(1, 3)
    subs = []
    for _ in range(n_faces):
        face_chain_count = rng.randrange(1, len(txn_chain_ids))
        face_pool = list(txn_chain_ids)
        rng.shuffle(face_pool)
        face_chains = sorted(face_pool[:face_chain_count])
        updates = []
        for cid in face_chains:
            others = [p for p in parties if p != f"p{cid}"]
            to = others[rng.below(len(others))]
            # occasionally ask for more than the party holds to trigger
            # a genuine update failure
            amount = rng.randrange(1, 30) if rng.below(6) == 0 else rng.randrange(1, 3)
            updates.append(AssetUpdate(f"p{cid}", to, f"A{cid}", amount))
        subs.append(SubTransaction(blocks=tuple(BlockRef(c, chains[c - 1].length, 0) for c in face_chains),
                                   updates=tuple(updates)))
    txn = CrossChainTransaction(id=1, parties=parties, blocks=blocks, sub_transactions=tuple(subs))

    failures: list[FailureSpec] = []
    kind = (None, *FACE_FAILURE_KINDS, "crash_after_record", "crash_after_append")[rng.below(6)]
    if kind is not None:
        top = n_faces if kind in FACE_FAILURE_KINDS else 2 * n_faces
        failures.append(FailureSpec(1, kind, rng.randrange(1, top)))

    return Scenario(
        name=f"random-{seed}",
        chains=chains,
        txns=[txn],
        protocols={1: "topocbt"},
        failures=failures,
    )


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
    ordered = [sorted(c, reverse=True) for c in cells]
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
        (ranks[k],), cleared = _reduced_ranks(ordered[k], ordered[k - 1], [len(ordered[k])], [len(ordered[k - 1])],
                                              cleared)
    return tuple(len(ordered[k]) - ranks[k] - ranks[k + 1] for k in range(len(ordered)))


def dense_betti(c: SimplicialComplex) -> tuple[int, ...]:
    """The dense oracle: b_k from the GF(2) ranks of a complex's dense
    boundary matrices, its face closure enumerated."""
    counts = c.simplex_counts()
    ranks = [0] + [c.boundary_matrix(k).rank() for k in range(1, c.dimension + 1)] + [0]
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(c.dimension + 1))


def closure_tags(tagged) -> tuple[str, str]:
    """``tagged_to_text`` by the closure rule it is judged against: the
    structural generators closed once beside the complex, and a face
    tagged structural if it lies in that closure, else with the lowest
    id among the transaction tops that contain it."""
    complex_ = tagged.complex
    structural = set().union(*close_by_dimension(tagged.structural()))
    tops = [(tid, set(top.vertices)) for tid, top in tagged.txn_tops.items()]

    def tag(cell: Cell) -> str:
        if cell in structural:
            return "structural"
        return next(f"txn:{tid}" for tid, top in tops if top.issuperset(cell))

    return complex_to_text(complex_), "".join(tag(cell) + "\n" for cell in text_order(complex_))


def complex_from_text(text: str) -> SimplicialComplex:
    """The complex a complex file's text holds: its lines' face closure."""
    return SimplicialComplex(generators_from_text(text))


def read_complex(path) -> SimplicialComplex:
    """:func:`complex_from_text` of a complex file."""
    return SimplicialComplex(read_generators(path))


def vertices(complex_: SimplicialComplex) -> list[int]:
    """A complex's vertices, ascending."""
    return sorted({v for level in complex_.cells for cell in level for v in cell})


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


def streaming_state_digest(balances: dict) -> str:
    """A balance sheet's digest fed to sha256 field by field: each nonzero
    balance's '>H'-prefixed party and asset and its '>q' amount, keys
    ascending, refusing an amount past the signed 64-bit field."""
    h = hashlib.sha256()
    for (party, asset), amount in sorted(balances.items()):
        if amount == 0:
            continue
        if not -(2**63) <= amount < 2**63:
            raise ChainError(f"balance of {party} in {asset} is {amount}, beyond the digest's 64-bit field")
        for name in (party, asset):
            raw = name.encode("utf-8")
            h.update(struct.pack(">H", len(raw)))
            h.update(raw)
        h.update(struct.pack(">q", amount))
    return h.hexdigest()


def ledger(chain: Chain) -> dict[tuple[str, str], int]:
    """Net (party, asset) change carried by the chain's live asset updates."""
    return dict(chain._ledger)


def compensated_refs(chain: Chain) -> frozenset[BlockRef]:
    """Blocks already reversed by a live compensation block."""
    return frozenset(chain._compensated)


def live_branch_labels(chain: Chain) -> list[int]:
    """The labels of the chain's live branches, ascending."""
    return sorted(label for label, info in chain.branches.items() if info.live)


def is_live(chain: Chain, ref: BlockRef) -> bool:
    """Whether the chain's maintained height index lists the block as live."""
    return ref in chain.live_block_at(ref.height)


def append_run(chain, branch: int, payloads: Iterable) -> list[BlockRef]:
    """Append one block per payload on top of ``branch``, block by block
    (``append_block``, on a ``Chain`` or an ``EagerChain``)."""
    return [chain.append_block(branch, payload) for payload in payloads]


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

    def append_block(self, branch: int, payload) -> BlockRef:
        info = self.branches[branch]
        if info.tip < 0:
            parent_ref, height = info.parent, info.spawn_height
        else:
            parent_ref, height = BlockRef(self.id, info.tip, branch), info.tip + 1
        ref = BlockRef(self.id, height, branch)
        self.blocks[ref] = Block.seal(ref, parent_ref, self.blocks[parent_ref].hash, payload)
        info.tip = height
        return ref

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
