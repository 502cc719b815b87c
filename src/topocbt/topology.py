"""Builds the simplicial complex of a federation and its transactions.

Every live block contributes one vertex, or in replicated mode one per
replica if it is a trunk block (``_copies``, whose trunk count a plan
keeps), numbered up each chain's live heights; a vertex is only its
number.
Every height but a forked one holds the trunk block alone, so a build
numbers the vertices from one ``_Plan`` per chain, made in id order
from its span, its forked rows in the span and their widths, and lays
no cell: a top, the one thing ``transaction_simplex`` reads, numbers a
block from its chain's plan by its height and its place in its row, so
it costs per chain, per forked row and per reference, not per height
or declared block.  ``cells`` lays every plan on first read: a step per
block at each forked row and the row above it, every other run of
heights in bulk (``_lay_trunk_run``).  Chain adjacency, fork
stitching, and replica groups produce the other structural cells, kept
as plain ascending vertex tuples; each in-flight transaction adds one
top simplex spanning all of its blocks, fork duplicates included.  A
tagged complex keeps only these generators: a vertex count, the cells
and the tops.  A top is the only ``Simplex`` a build makes, and the
face closure is built, as vertex tuples, only where members or text
are read, within the face budget.  Tearing a transaction down drops its
top and keeps the rest, so chain structure can never be deleted.

A report's Betti numbers (``federation_betti``) need no build: the
complex is the chains' structural complex, each cut to its window,
glued to the pending tops along disjoint contractible pieces, so by
Mayer–Vietoris (Hatcher, *Algebraic Topology*, §2.2) the numbers are
the tops' own, with each structural component a hub joined to its
pieces, plus the structure's loops, which ``structural_betti`` counts
in closed form from each chain's forked rows in its window, with no
closure, no branch list and no walk up a chain: a windowed report
costs per forked row and per deal in its window, not per branch.
Without a window that glue (``BettiGlue``) stands while
every block added is ``Chain.append``'s, onto a chain's canonical
branch one height above every live block, and no fork is resolved:
nothing below a canonical tip changes, so the pending tops' complexes
nest as deals stop pending, and one filtered reduction made when the
glue is derived (``simplicial.betti_by_stage``) gives every later
report's numbers; a report adds the loops the risen tips closed, in
closed form, and derives nothing else again unless a chain's
``reshapes`` count moved.  A window moves as deals leave, so a
windowed report derives the glue again.  A wide top costs about as
much as its intersections with the rest, not 2^|top| faces.
"""

from __future__ import annotations

import enum
import logging
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

from .chain import AssetUpdate, BlockRef, BranchInfo, Chain, ChainError, Federation
from .simplicial import (Cell, Simplex, SimplicialComplex, betti_by_stage, betti_from_generators, complex_to_text,
                         text_order)

log = logging.getLogger(__name__)

class TopologyMode(enum.Enum):
    ABSTRACT = "abstract"      # each chain contributes one vertex per block
    REPLICATED = "replicated"  # trunk blocks fan out into one vertex per replica


@dataclass(frozen=True, slots=True)
class SubTransaction:
    """One face of a transaction: member blocks plus the updates it applies."""

    blocks: tuple[BlockRef, ...]
    updates: tuple[AssetUpdate, ...]


@dataclass(frozen=True, slots=True)
class CrossChainTransaction:
    id: int
    parties: tuple[str, ...]
    blocks: tuple[BlockRef, ...]
    sub_transactions: tuple[SubTransaction, ...] = ()

    def validate(self, federation: Federation) -> None:
        """Check the deal's shape and that its id fits the log's 64-bit
        field; whether its blocks are live is ``expand_refs``'s check."""
        if not 0 <= self.id <= 2**64 - 1:
            raise ValueError(f"txn {self.id}: id does not fit the log's 64-bit field")
        if len(self.parties) < 2:
            raise ValueError(f"txn {self.id}: needs at least two parties")
        if not self.blocks:
            raise ValueError(f"txn {self.id}: needs at least one block")
        self.check_chains()
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

    def check_chains(self) -> None:
        """A deal names one height per chain."""
        chains = [ref.chain for ref in self.blocks]
        if len(set(chains)) != len(chains):
            raise ValueError(f"txn {self.id}: one block height per chain")

    def total_updates(self) -> int:
        return sum(len(sub.updates) for sub in self.sub_transactions)


def expand_refs(federation: Federation, txn: CrossChainTransaction) -> list[BlockRef]:
    """The full lock/vertex set: declared blocks plus every live fork
    sibling at the same heights, canonical order.  The one check that
    each declared block exists and is live."""
    out: set[BlockRef] = set()
    for ref in txn.blocks:
        chain = federation.chains.get(ref.chain)
        live_here = chain.live_block_at(ref.height) if chain is not None else ()
        if ref not in live_here:
            raise ChainError(f"txn {txn.id}: block {ref} is missing or on a dead branch")
        out.update(live_here)
    return sorted(out)


def _copies(chain: Chain, branch: int, mode: TopologyMode) -> int:
    """Vertices a live block of ``chain`` on ``branch`` gives: in
    replicated mode a trunk block gives one per replica; every other
    block gives one."""
    return chain.replicas if branch == 0 and mode is TopologyMode.REPLICATED else 1


def _width(federation: Federation, refs: Iterable[BlockRef], mode: TopologyMode) -> int:
    """The vertices the live blocks ``refs`` give, ``_copies`` each: a
    top's, or in replicated mode a row's replica group."""
    return sum(_copies(federation.chain(ref.chain), ref.branch, mode) for ref in refs)


def _parent_branch(branches: dict[int, BranchInfo], ref: BlockRef) -> int:
    """The branch of the live block ``ref``'s parent, one height down: a
    branch's first block hangs off its fork parent, every later one off
    the block below on its own branch."""
    info = branches[ref.branch]
    return info.parent.branch if ref.height == info.spawn_height else ref.branch


def _stitches(branches: dict[int, BranchInfo], height: int, labels: Iterable[int],
              above: tuple[BlockRef, ...]) -> list[tuple[int, BlockRef]]:
    """The stitch edges from ``height`` up: each of ``labels``, the
    branches of the live blocks at ``height``, that is live with its tip
    there, paired with each block of ``above``, the row one height up,
    that the tip did not parent."""
    stitches = []
    for label in labels:
        info = branches[label]
        if info.tip == height and info.live:
            stitches += [(label, ref) for ref in above if _parent_branch(branches, ref) != label]
    return stitches


def expected_transaction_dimension(
    federation: Federation, txn: CrossChainTransaction, mode: TopologyMode = TopologyMode.ABSTRACT
) -> int:
    """Predicted simplex dimension: the replicas of each trunk block (in
    replicated mode) plus one per other live block that ``expand_refs``
    spans, minus one.

    The sum counts vertices; a simplex on v vertices has dimension v-1.
    """
    return _width(federation, expand_refs(federation, txn), mode) - 1


class _Plan(NamedTuple):
    """One chain's part of a build, all ``cells`` needs to lay it: its
    span ``lo`` to ``hi``, numbered from ``first`` up, ``trunk`` vertices
    per trunk block; its forked ``heights`` in the span and their
    ``rows`` as ``Chain.live_block_at`` handed them out; ``extra[i]``,
    the vertices the forked rows below ``heights[i]`` add past the
    trunk block's; the chain's ``branches``, read only for spawn heights
    and parents, which never change; and ``tips``, the tip of each
    branch the rows hold, or the trunk, that was live at the build, the
    part of a ``BranchInfo`` that changes."""

    chain: int
    lo: int
    hi: int
    first: int
    trunk: int
    replicated: bool
    heights: list[int]
    rows: list[tuple[BlockRef, ...]]
    extra: list[int]
    branches: dict[int, BranchInfo]
    tips: dict[int, int]


@dataclass(frozen=True)
class TaggedComplex:
    """The generators of a federation complex: the vertices 0..n-1, the
    other structural ``cells`` (chain and fork edges, replica groups) as
    ascending vertex tuples, and one top per in-flight transaction,
    sorted by id.

    A build numbers the vertices and keeps one ``_Plan`` per chain, in
    id order; ``cells`` lays every plan on first read, so a caller that
    reads only ``txn_tops`` (``transaction_simplex``) pays per chain and
    per forked row, not per block.  The face closure ``complex`` is
    built on first read, and refused past ``simplicial.MAX_CELLS``
    cells; Betti numbers do not need it."""

    vertex_count: int
    _plans: tuple[_Plan, ...]
    txn_tops: dict[int, Simplex]

    @cached_property
    def cells(self) -> frozenset[Cell]:
        """Every plan's cells, laid by ``_lay_plan``."""
        cells: set[Cell] = set()
        for plan in self._plans:
            _lay_plan(cells, plan)
        return frozenset(cells)

    def structural(self) -> list[Cell]:
        """The structural generators, vertices first, as vertex tuples."""
        generators = [(v,) for v in range(self.vertex_count)]
        generators.extend(self.cells)
        return generators

    def _generators(self) -> list[Cell]:
        """The structural generators, then the transaction tops."""
        generators = self.structural()
        generators.extend(top.vertices for top in self.txn_tops.values())
        return generators

    @cached_property
    def complex(self) -> SimplicialComplex:
        return SimplicialComplex(self._generators())

    def betti_numbers(self) -> tuple[int, ...]:
        """Betti numbers of the closure of the generators, taken from the
        generators; no face closure is built, ``complex`` included."""
        return betti_from_generators(self._generators())


def _lay_plan(cells: set[Cell], plan: _Plan) -> None:
    """Lay one chain's cells, as its plan records the chain, up its span.

    Each forked row and the row just above it, which holds the trunk
    block alone if it is not forked itself, take a step per block: each
    block's link to its parent one height down, copy by copy for a trunk
    block over a trunk block, the stitch edges ``_stitches`` gives from
    the row below, and in replicated mode the height's replica group if
    it has two or more vertices.  Every other run of heights holds the
    trunk block alone, over the trunk block or, at ``lo``, over nothing,
    and ``_lay_trunk_run`` lays it.
    """
    lo, hi, v, trunk, tips = plan.lo, plan.hi, plan.first, plan.trunk, plan.tips
    rows = dict(zip(plan.heights, plan.rows))
    infos = plan.branches
    # each branch the rows hold, and the trunk, as it stood at the build
    branches = {label: BranchInfo(infos[label].spawn_height, infos[label].parent, label in tips, tips.get(label, -1))
                for label in {0, *(ref.branch for row in plan.rows for ref in row)}}
    below: dict[int, int] = {}  # branch -> first vertex id, one height down
    run_start = lo  # the lowest height not laid yet
    for height in [*sorted({*rows, *(h + 1 for h in rows if h < hi)}), hi + 1]:
        if run_start < height:  # linked to the row below unless it starts the span
            _lay_trunk_run(cells, run_start, height, v, trunk, run_start > lo)
            v += (height - run_start) * trunk
            below = {0: v - trunk}
        if height > hi:
            break
        run_start = height + 1
        start = v
        here: dict[int, int] = {}
        row = rows.get(height) or (BlockRef(plan.chain, height, 0),)
        for ref in row:
            branch = ref.branch
            here[branch] = v
            copies = trunk if branch == 0 else 1  # ``_copies``
            if below:  # else the lowest height laid: no parent in the span
                # the parent link (covers fork spawn: the parent joins
                # both children); a trunk block's parent is on the
                # trunk, so their copies link replica by replica
                p = below[_parent_branch(branches, ref)]
                cells.update((p + r, v + r) for r in range(copies))
            v += copies
        for tip, ref in _stitches(branches, height - 1, below, row):
            cells.add((below[tip], here[ref.branch]))
        if v - start >= 2 and plan.replicated:  # all copies at one height form a single cell
            cells.add(tuple(range(start, v)))
        below = here


def _lay_trunk_run(cells: set[Cell], start: int, stop: int, v: int, copies: int, linked: bool) -> None:
    """Lay the cells of a chain's trunk blocks at heights ``start`` to
    ``stop - 1``, numbered from ``v`` up with ``copies`` vertices each,
    each the only live block at its height and the child of the trunk
    block below: if ``linked``, the first one's parent is built too, and
    its copies end at ``v - 1``.

    Lays the cells the per-row walk would: each copy's edge to the same
    copy one height down, and each height's replica group if it has two
    or more copies.  The set is filled from iterators, with no step per
    block in Python.
    """
    end = v + (stop - start) * copies
    low = v - copies if linked else v  # the lowest copy with a child in the run
    cells.update(zip(range(low, end - copies), range(low + copies, end)))
    if copies >= 2:  # only trunk blocks in replicated mode have copies
        cells.update(map(tuple, map(range, range(v, end, copies), range(v + copies, end + copies, copies))))


def federation_betti(
    federation: Federation,
    transactions: Iterable[CrossChainTransaction] = (),
    mode: TopologyMode = TopologyMode.ABSTRACT,
    window: Optional[int] = None,
) -> tuple[int, ...]:
    """The Betti numbers of ``build_federation_complex``'s complex, with
    no federation complex built: a fresh ``BettiGlue``'s, with every
    deal pending."""
    return BettiGlue(federation, transactions, mode, window).betti(0)


class BettiGlue:
    """What the Betti numbers of a federation and its pending deals are
    made of, each chain cut to its window: each deal's top over numbered
    pieces and its width, the hub edges, the ``Structure`` of the chains,
    and every report's numbers from one filtered reduction.

    The complex is the structural complex S of the federation, each
    chain cut to its ``_spans`` entry, glued to the closure T of the
    pending tops.  A top names one height per chain (``check_chains``)
    and spans every live copy there, so S and T meet in disjoint
    contractible pieces: each named block in abstract mode, each named
    (chain, height) row, a replica group, in replicated mode.  S is a
    graph up to homotopy (``structural_betti``), so by Mayer–Vietoris
    (Hatcher, *Algebraic Topology*, §2.2) b_k = b_k(T) for k >= 2, and
    b0 and b1 are those of T with a hub per component of S that holds a
    piece (``_part``) joined by one edge to each of its pieces, plus the
    other components in b0 and S's loops in b1.  Each piece is a face of
    every top that meets it, so it is taken as one vertex (Hatcher,
    Prop. 0.17).  A piece only a dropped top named is a leaf on its hub,
    which changes no number.

    The tops' complexes once the first k deals are no longer pending
    nest, K_n ⊂ … ⊂ K_0 with K_k the closure of the hub edges and
    tops[k:], so read backwards they are a filtration: the hub edges
    enter first, then tops[n-1], …, tops[0].  One
    ``simplicial.betti_by_stage`` reduction of it, made when the glue is
    derived, gives every K_k's numbers, and a report reads its stage.
    Deriving reads each chain once, in ``structural_betti``'s walk over
    its forked rows: no branch list and no row outside its window but
    the canonical tip's.

    Without a window, ``betti(k)`` holds once the first k deals are no
    longer pending, provided every block added since is
    ``Chain.append``'s, onto the canonical branch, one height above
    every live block, and no fork was resolved: then no live block below
    a canonical tip changes, so the pieces, tops and groups stand, and S
    only grows at each chain's top.  If its canonical tip rose n > 0
    heights, S gains a stitch edge from each live tip tied with it at
    the start, one loop each, and in replicated mode, if the canonical
    branch is the trunk, n heights of ``replicas`` copies over a row of
    as many, n * (replicas - 1) loops.  Every other change bumps a
    chain's ``reshapes``; the glue records each chain's count when it is
    derived, and a report that finds one moved derives the glue again
    over the deals still pending.  A window moves as deals stop pending,
    so a windowed glue derives itself again at every report.
    """

    def __init__(self, federation: Federation, transactions: Iterable[CrossChainTransaction],
                 mode: TopologyMode, window: Optional[int] = None) -> None:
        self.federation, self.transactions, self.mode, self.window = federation, list(transactions), mode, window
        self.start, self.reshapes = 0, None  # derived at the first report

    def _reshapes(self) -> list[tuple[int, int]]:
        """Each chain's id and ``reshapes`` count."""
        return [(cid, chain.reshapes) for cid, chain in self.federation.chains.items()]

    def _derive(self, start: int) -> None:
        """Derive the glue with the first ``start`` deals no longer pending."""
        federation, mode = self.federation, self.mode
        replicated = mode is TopologyMode.REPLICATED
        self.start, self.reshapes = start, self._reshapes()
        pending = self.transactions[start:]
        pieces: dict[tuple, int] = {}  # a block, or a (chain, height) row if replicated -> its vertex
        tops: list[Cell] = []
        self.widths: list[int] = []  # each top's vertices in the build
        for txn in pending:
            txn.check_chains()
            refs = expand_refs(federation, txn)
            self.widths.append(_width(federation, refs, mode))
            tops.append(tuple(sorted({pieces.setdefault(ref[:2] if replicated else ref, len(pieces))
                                      for ref in refs})))
        spans = _spans(federation, pending, self.window)
        self.structure = structure = structural_betti(federation, mode, spans)
        hubs: dict[tuple[int, int], int] = {}  # a component of S that holds a piece -> its hub's vertex

        def hub(cid: int, height: int, branch: int = 0) -> int:  # a replicated row: the trunk's part, the only one
            part = _part(federation.chain(cid), branch, spans[cid][0], structure.joined)
            return hubs.setdefault(part, len(pieces) + len(hubs))
        edges = [(v, hub(*piece)) for piece, v in pieces.items()]
        # stages[k]: the tops' numbers with the first k deals dropped
        self.stages = betti_by_stage([edges, *([top] for top in reversed(tops))])[::-1]
        self.untouched = structure.components - len(hubs)

    def betti(self, dropped: int) -> tuple[int, ...]:
        """The numbers with the first ``dropped`` deals no longer pending."""
        if self.window is not None or dropped < self.start or self.reshapes != self._reshapes():
            self._derive(dropped)
        k, structure = dropped - self.start, self.structure
        loops, edged = structure.loops, False
        for info, start, tied, per_height in structure.tips:
            risen = info.tip - start
            if risen:
                loops += tied + risen * per_height
                edged = True
        widest = max(structure.widest, 2 * edged, *self.widths[k:])
        betti = [*self.stages[k], *[0] * (widest + 2)]
        betti[0] += self.untouched
        betti[1] += loops
        return tuple(betti[:widest])


class Structure(NamedTuple):
    """The federation's structural complex, each chain cut to its span,
    as ``structural_betti`` reads it."""

    components: int  # b0
    loops: int  # b1
    widest: int  # the vertices of its widest generator: 0 none, 1 a vertex, 2 an edge, more a replica group
    joined: dict[tuple[int, int], tuple[int, int]]  # a part -> a part a stitch edge joined it to, for ``_part``
    # per chain: its canonical branch, that branch's tip, the live tips
    # tied with it, and the loops each height the tip rises closes
    tips: list[tuple[BranchInfo, int, int, int]]


def structural_betti(federation: Federation, mode: TopologyMode, spans: dict[int, tuple[int, int]]) -> Structure:
    """b0 and b1 of the federation's structural complex (no
    transactions), each chain cut to its ``spans`` entry, from lo to hi,
    in closed form, with what else ``BettiGlue`` reads of the chains.
    Its higher numbers are 0: the fact the glue glues the pending tops
    onto.

    Contracting each replica group, a simplex that meets no other, keeps
    the homotopy type (Hatcher, *Algebraic Topology*, Prop. 0.17) and
    leaves a graph.  In abstract mode its vertices are the blocks, each
    above lo hanging off its parent by one edge: each block at lo roots
    a tree, a part, and each stitch edge joins two components or closes
    a loop.  In replicated mode they are the heights, and a chain is one
    component: the w copies at a height in (lo, hi] each link to the row
    below, which closes w - 1 loops, and each stitch edge closes one
    more.  So its loops are (hi - lo)(replicas - 1), each height holding
    the trunk block alone, plus each forked row's width less the
    trunk's, plus the stitch edges.

    Every height but a forked one (``Chain.forked_heights``) holds the
    trunk block alone, over the trunk block alone, so each chain is read
    at its forked rows in [lo, hi], one step per block, and at the row
    above each of them below hi: a live tip below hi is stitched to a
    block above it that it did not parent (``_stitches``, the build's
    rule) only if that block's parent sits beside it, in a forked row.
    The row at the canonical tip gives the tips tied with it.
    """
    replicated = mode is TopologyMode.REPLICATED
    joined: dict[tuple[int, int], tuple[int, int]] = {}
    tips: list[tuple[BranchInfo, int, int, int]] = []
    components = loops = widest = 0
    for cid in federation.chain_ids():
        chain = federation.chain(cid)
        branches = chain.branches
        lo, hi = spans[cid]
        trunk = _copies(chain, 0, mode)
        forked = chain.forked_heights(lo, hi)
        components += 1  # a replicated chain's, or in abstract mode the part of the first block at lo
        parted = False  # whether blocks at lo root several parts: else every stitch edge closes a loop
        if replicated:
            loops += (hi - lo) * (trunk - 1)
        # a vertex, an edge from above lo, and a row holding the trunk block alone
        widest = max(widest, 1 + (hi > lo), trunk if len(forked) <= hi - lo else 1)
        for height in forked:
            row = chain.live_block_at(height)
            if replicated:
                width = _width(federation, row, mode)
                widest = max(widest, width)
                if height > lo:
                    loops += width - trunk
            elif height == lo:
                components += len(row) - 1
                parted = len(row) > 1
            above = chain.live_block_at(height + 1) if height < hi else ()
            for tip, ref in _stitches(branches, height, [block.branch for block in row], above):
                if parted:
                    part, other = _part(chain, tip, lo, joined), _part(chain, ref.branch, lo, joined)
                    if part != other:
                        joined[part] = other
                        components -= 1
                        continue
                loops += 1
        canonical = chain.canonical_branch()
        info = branches[canonical]
        # no tip is higher, so each live block at the canonical tip's height is a live tip tied with it
        tied = len(chain.live_block_at(info.tip)) - 1
        tips.append((info, info.tip, tied, _copies(chain, canonical, mode) - 1))
    return Structure(components, loops, widest, joined, tips)


def _part(chain: Chain, branch: int, lo: int, joined: dict[tuple[int, int], tuple[int, int]]) -> tuple[int, int]:
    """The component of ``chain``'s structure cut at ``lo`` that holds a
    live block on ``branch`` at or above ``lo``: the part, rooted at the
    live block at ``lo`` below it, as (chain, that block's branch),
    followed through the parts ``joined`` to another."""
    branches = chain.branches
    while branches[branch].spawn_height > lo:
        branch = branches[branch].parent.branch
    part = (chain.id, branch)
    while part in joined:
        part = joined[part]
    return part


def _spans(federation: Federation, transactions: list[CrossChainTransaction],
           window: Optional[int]) -> dict[int, tuple[int, int]]:
    """Each chain's lowest and top heights kept.  With a window, a chain
    the transactions' blocks name keeps the named heights widened by
    ``window``, clipped to its live heights; every other keeps them all,
    genesis to its canonical tip (live heights run without a gap)."""
    named: dict[int, list[int]] = {}  # chain -> the heights the transactions' blocks name
    for txn in transactions if window is not None else ():
        for ref in txn.blocks:
            named.setdefault(ref.chain, []).append(ref.height)
    spans = {}
    for cid, chain in federation.chains.items():
        heights = named.get(cid)
        top = chain.branches[chain.canonical_branch()].tip
        spans[cid] = (max(min(heights) - window, 0), min(max(heights) + window, top)) if heights else (0, top)
    return spans


def build_federation_complex(
    federation: Federation,
    transactions: Iterable[CrossChainTransaction] = (),
    mode: TopologyMode = TopologyMode.ABSTRACT,
    window: Optional[int] = None,
) -> TaggedComplex:
    """Construct the tagged complex of the federation plus in-flight
    transactions.

    ``window`` restricts each chain that a transaction references to
    blocks within that height radius of the referenced heights
    (``_spans``); None keeps whole chains.  The vertices are numbered
    chain by chain, up each chain's live heights, along each height in
    branch order, a block's copies in replica order.  The build reads
    each chain once, in id order, and keeps its ``_Plan``: it reads only
    the chain's forked rows in its span, one ``live_block_at`` each, and
    counts the vertex ids past.  Every other height holds the trunk
    block alone, so a chain adds ``(hi + 1 - lo) * trunk`` vertices plus
    its forked rows' extra ones, and a top's block at height h is
    numbered ``first + (h - lo) * trunk`` plus the extra vertices of the
    forked rows below h, plus its place in its row if h is forked.  No
    cell is laid until ``cells`` is first read.
    """
    transactions = list(transactions)
    spans = _spans(federation, transactions, window)
    replicated = mode is TopologyMode.REPLICATED
    plans: dict[int, _Plan] = {}
    v = 0  # the next vertex id
    for cid, chain in sorted(federation.chains.items()):
        # (lo > hi only if every top naming the chain names a dead block: expand_refs refuses each)
        lo, hi = spans[cid]
        trunk = _copies(chain, 0, mode)
        heights = chain.forked_heights(lo, hi)
        rows, extra, tips = [], [0], {}
        if heights:
            rows = [chain.live_block_at(height) for height in heights]
            # a forked row's vertices less the trunk block's: one per fork block, trunk per trunk block (``_copies``)
            extra = [0, *accumulate(len(row) - (trunk if row[0].branch else 1) for row in rows)]
            branches = chain.branches
            tips = {label: branches[label].tip for label in {0, *(ref.branch for row in rows for ref in row)}
                    if branches[label].live}
        plans[cid] = _Plan(cid, lo, hi, v, trunk, replicated, heights, rows, extra, chain.branches, tips)
        v += (hi + 1 - lo) * trunk + extra[-1]

    txn_tops: dict[int, Simplex] = {}
    for txn in transactions:
        verts: list[int] = []
        for ref in expand_refs(federation, txn):  # canonical order: ids ascend
            plan, height = plans[ref.chain], ref.height
            i = bisect_left(plan.heights, height)
            first = plan.first + (height - plan.lo) * plan.trunk + plan.extra[i]
            if i < len(plan.heights) and plan.heights[i] == height:  # a forked row: the copies before the block
                row = plan.rows[i]
                k = row.index(ref)
                first += k + (plan.trunk - 1 if k and row[0].branch == 0 else 0)
            verts.extend(range(first, first + _copies(federation.chains[ref.chain], ref.branch, mode)))
        txn_tops[txn.id] = Simplex(tuple(verts))
    return TaggedComplex(v, tuple(plans.values()), dict(sorted(txn_tops.items())))


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
    So a vertex is structural, and so is a face in no top; any other face
    is structural if a structural cell through its first vertex, a top's,
    holds it.  Generators whose closure may pass ``simplicial.MAX_CELLS``
    are refused (``ValueError``) before any face is enumerated.
    """
    complex_ = tagged.complex
    tops = [(tid, set(top.vertices)) for tid, top in tagged.txn_tops.items()]
    through: dict[int, list[set[int]]] = {v: [] for _, top in tops for v in top}  # a top's vertex -> cells through it
    for cell in tagged.cells:
        for v in cell:
            if v in through:
                through[v].append(set(cell))

    def tag(cell: Cell) -> str:
        if len(cell) == 1 or cell[0] not in through or any(c.issuperset(cell) for c in through[cell[0]]):
            return "structural"
        return next(f"txn:{tid}" for tid, top in tops if top.issuperset(cell))

    tags = "".join(tag(cell) + "\n" for cell in text_order(complex_))
    return complex_to_text(complex_), tags
