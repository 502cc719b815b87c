"""Builds the simplicial complex of a federation and its transactions.

Every live block contributes one vertex (or one per replica in
replicated mode).  Chain adjacency, fork stitching, and replica groups
produce the structural simplices; each in-flight transaction adds one
top simplex spanning all of its blocks, fork duplicates included.
A tagged complex keeps only these generators; its face closure is
built on first read.  Tearing a transaction down drops its top and
keeps the rest, so chain structure can never be deleted.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional

from .chain import AssetUpdate, BlockRef, ChainError, Federation
from .simplicial import Simplex, SimplicialComplex, betti_from_cells, close_by_dimension, complex_to_text, text_order

log = logging.getLogger(__name__)

# A vertex is one physical copy of a block: (chain, height, branch, replica).
VertexKey = tuple[int, int, int, int]


class TopologyMode(enum.Enum):
    ABSTRACT = "abstract"      # each chain contributes one vertex per block
    REPLICATED = "replicated"  # trunk blocks fan out into one vertex per replica


@dataclass(frozen=True)
class SubTransaction:
    """One face of a transaction: member blocks plus the updates it applies."""

    blocks: tuple[BlockRef, ...]
    updates: tuple[AssetUpdate, ...]


@dataclass(frozen=True)
class CrossChainTransaction:
    id: int
    parties: tuple[str, ...]
    blocks: tuple[BlockRef, ...]
    sub_transactions: tuple[SubTransaction, ...] = ()

    def validate(self, federation: Federation) -> None:
        if len(self.parties) < 2:
            raise ValueError(f"txn {self.id}: needs at least two parties")
        if not self.blocks:
            raise ValueError(f"txn {self.id}: needs at least one block")
        chains = [ref.chain for ref in self.blocks]
        if len(set(chains)) != len(chains):
            raise ValueError(f"txn {self.id}: one block height per chain")
        declared = set(self.blocks)
        for i, sub in enumerate(self.sub_transactions, start=1):
            if not set(sub.blocks) <= declared:
                raise ValueError(f"txn {self.id}: face {i} references undeclared blocks")
            face_chains = {ref.chain for ref in sub.blocks}
            for upd in sub.updates:
                chain = federation.chain_for_asset(upd.asset)
                if chain.id not in face_chains:
                    raise ValueError(
                        f"txn {self.id}: face {i} moves {upd.asset} but has no block on chain {chain.id}"
                    )
        for ref in self.blocks:
            if not federation.is_live(ref):
                raise ChainError(f"txn {self.id}: block {ref} is missing or on a dead branch")

    def total_updates(self) -> int:
        return sum(len(sub.updates) for sub in self.sub_transactions)


def expand_refs(federation: Federation, txn: CrossChainTransaction) -> list[BlockRef]:
    """The full lock/vertex set: declared blocks plus every live fork
    sibling at the same heights, canonical order."""
    out: set[BlockRef] = set()
    for ref in txn.blocks:
        chain = federation.chain(ref.chain)
        live_here = chain.live_block_at(ref.height)
        if ref not in live_here:
            raise ChainError(f"txn {txn.id}: block {ref} is missing or on a dead branch")
        out.update(live_here)
    return sorted(out, key=lambda r: (r.chain, r.height, r.branch))


def expected_transaction_dimension(
    federation: Federation, txn: CrossChainTransaction, mode: TopologyMode = TopologyMode.ABSTRACT
) -> int:
    """Predicted simplex dimension: sum over chains of (replicas + extra
    live branches at the referenced height), minus one.

    The sum counts vertices; a simplex on v vertices has dimension v-1.
    """
    total = 0
    for ref in txn.blocks:
        chain = federation.chain(ref.chain)
        live_here = chain.live_block_at(ref.height)
        if not live_here:
            raise ChainError(f"txn {txn.id}: no live block at {ref}")
        extra_branches = len(live_here) - 1
        replicas = chain.replicas if mode is TopologyMode.REPLICATED else 1
        total += replicas + extra_branches
    return total - 1


def _vertices_for(federation: Federation, ref: BlockRef, mode: TopologyMode) -> list[VertexKey]:
    if mode is TopologyMode.REPLICATED and ref.branch == 0:
        m = federation.chain(ref.chain).replicas
        return [(ref.chain, ref.height, ref.branch, r) for r in range(m)]
    return [(ref.chain, ref.height, ref.branch, 0)]


@dataclass(frozen=True)
class TaggedComplex:
    """The generating simplices of a federation complex: structural
    generators, one top per in-flight transaction (sorted by id), and
    the block-vertex table.  The face closure is built on first read."""

    structural: frozenset[Simplex]  # generators, not closed under faces
    txn_tops: dict[int, Simplex]
    vertex_of: dict[VertexKey, int]

    @cached_property
    def complex(self) -> SimplicialComplex:
        return SimplicialComplex.from_simplices(self.structural | frozenset(self.txn_tops.values()))

    def betti_numbers(self) -> tuple[int, ...]:
        """Betti numbers of the closure, built from vertex tuples; the
        cached ``complex`` is neither read nor built."""
        generators = [s.vertices for s in self.structural]
        generators.extend(s.vertices for s in self.txn_tops.values())
        return betti_from_cells(close_by_dimension(generators))


def build_federation_complex(
    federation: Federation,
    transactions: Iterable[CrossChainTransaction] = (),
    mode: TopologyMode = TopologyMode.ABSTRACT,
    window: Optional[int] = None,
) -> TaggedComplex:
    """Construct the tagged complex of the federation plus in-flight
    transactions.

    ``window`` restricts each chain that a transaction references to
    blocks within that height radius of the referenced heights; None
    keeps whole chains.
    """
    transactions = list(transactions)

    ref_heights: dict[int, list[int]] = {}
    for txn in transactions:
        for ref in txn.blocks:
            ref_heights.setdefault(ref.chain, []).append(ref.height)

    included: dict[int, list[BlockRef]] = {}
    for cid in federation.chain_ids():
        refs = sorted(federation.chain(cid).live_refs(), key=lambda r: (r.height, r.branch))
        if window is not None and cid in ref_heights:
            lo = min(ref_heights[cid]) - window
            hi = max(ref_heights[cid]) + window
            refs = [r for r in refs if lo <= r.height <= hi]
        included[cid] = refs

    keys: list[VertexKey] = []
    for cid in federation.chain_ids():
        for ref in included[cid]:
            keys.extend(_vertices_for(federation, ref, mode))
    keys.sort()
    vertex_of = {key: i for i, key in enumerate(keys)}

    structural: list[Simplex] = [Simplex((i,)) for i in range(len(keys))]

    def edge(a: VertexKey, b: VertexKey) -> None:
        structural.append(Simplex.of(vertex_of[a], vertex_of[b]))

    for cid in federation.chain_ids():
        chain = federation.chain(cid)
        in_window = set(included[cid])

        # parent links (covers fork spawn: the parent joins both children)
        for ref in included[cid]:
            block = chain.block(ref)
            parent = block.parent_ref
            if parent is None or parent not in in_window:
                continue
            if mode is TopologyMode.REPLICATED and ref.branch == 0 and parent.branch == 0:
                for r in range(chain.replicas):
                    edge((parent.chain, parent.height, parent.branch, r), (cid, ref.height, ref.branch, r))
            else:
                edge((parent.chain, parent.height, parent.branch, 0), (cid, ref.height, ref.branch, 0))

        # stitch a branch tip to the successor block that continues the chain
        for label in chain.live_branch_labels():
            info = chain.branches[label]
            if info.tip < 0:
                continue
            tip = BlockRef(cid, info.tip, label)
            if tip not in in_window:
                continue
            for succ in chain.live_block_at(info.tip + 1):
                if succ in in_window and chain.block(succ).parent_ref != tip:
                    edge((cid, tip.height, tip.branch, 0), (cid, succ.height, succ.branch, 0))

        # replica groups: all copies at one height form a single simplex
        if mode is TopologyMode.REPLICATED:
            by_height: dict[int, list[BlockRef]] = {}
            for ref in included[cid]:
                by_height.setdefault(ref.height, []).append(ref)
            for height, refs in sorted(by_height.items()):
                group: list[int] = []
                for ref in refs:
                    group.extend(vertex_of[k] for k in _vertices_for(federation, ref, mode))
                if len(group) >= 2:
                    structural.append(Simplex(tuple(sorted(group))))

    txn_tops: dict[int, Simplex] = {}
    for txn in transactions:
        verts: list[int] = []
        for ref in expand_refs(federation, txn):
            for key in _vertices_for(federation, ref, mode):
                if key not in vertex_of:
                    raise ChainError(f"txn {txn.id}: block {ref} outside the built window")
                verts.append(vertex_of[key])
        txn_tops[txn.id] = Simplex(tuple(sorted(verts)))

    return TaggedComplex(frozenset(structural), dict(sorted(txn_tops.items())), vertex_of)


def transaction_simplex(
    federation: Federation, txn: CrossChainTransaction, mode: TopologyMode = TopologyMode.ABSTRACT
) -> Simplex:
    """The simplex spanning every live copy of the transaction's blocks,
    in the federation-wide vertex numbering."""
    tagged = build_federation_complex(federation, [txn], mode=mode)
    return tagged.txn_tops[txn.id]


def teardown_transaction(tagged: TaggedComplex, txn_id: int) -> TaggedComplex:
    """Rebuild the complex without a transaction's simplex.

    Faces of that simplex that are structural or lie in another live
    transaction's simplex survive.  Unknown ids are a no-op (logged).
    """
    if txn_id not in tagged.txn_tops:
        log.info("teardown: transaction %s has no simplex in this build", txn_id)
        return tagged
    others = {tid: s for tid, s in tagged.txn_tops.items() if tid != txn_id}
    return replace(tagged, txn_tops=others)


def tagged_to_text(tagged: TaggedComplex) -> tuple[str, str]:
    """Render (complex file, tag sidecar) with matching line order.

    A face is tagged structural if it lies in the structural closure,
    else with the lowest id among the transaction tops that contain it.
    """
    structural = SimplicialComplex.from_simplices(tagged.structural)

    def tag(s: Simplex) -> str:
        if s in structural:
            return "structural"
        return next(f"txn:{tid}" for tid, top in tagged.txn_tops.items() if s.is_face_of(top))

    tags = "".join(tag(s) + "\n" for s in text_order(tagged.complex))
    return complex_to_text(tagged.complex), tags


def write_tagged(tagged: TaggedComplex, complex_path, tags_path) -> None:
    body, tags = tagged_to_text(tagged)
    with open(complex_path, "w", encoding="ascii") as fh:
        fh.write(body)
    with open(tags_path, "w", encoding="ascii") as fh:
        fh.write(tags)
