"""Small reference computations that only tests call."""

import hashlib
import struct

from topocbt.chain import BlockRef, Chain, Federation
from topocbt.gf2 import Matrix


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


def cells_of(complex_) -> set[tuple[int, ...]]:
    """A complex's cells, every dimension, as vertex tuples."""
    return {cell for level in complex_.cells for cell in level}


def asset_totals(federation: Federation) -> dict[str, int]:
    """Each asset's effective balances summed over every party."""
    totals: dict[str, int] = {}
    for (_, asset), amount in federation.balances().items():
        totals[asset] = totals.get(asset, 0) + amount
    return totals


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
