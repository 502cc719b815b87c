"""Small reference computations that only tests call."""

from topocbt.chain import BlockRef, Chain, Federation
from topocbt.gf2 import Matrix


def gf2_matmul(a: Matrix, b: Matrix) -> list[list[int]]:
    """Matrix product over GF(2)."""
    cols = list(zip(*b))
    return [[sum(x & y for x, y in zip(row, col)) & 1 for col in cols] for row in a]


def asset_totals(federation: Federation) -> dict[str, int]:
    """Each asset's effective balances summed over every party."""
    totals: dict[str, int] = {}
    for (_, asset), amount in federation.balances().items():
        totals[asset] = totals.get(asset, 0) + amount
    return totals


def is_live(chain: Chain, ref: BlockRef) -> bool:
    """Whether the chain's maintained height index lists the block as live."""
    return ref in chain.live_block_at(ref.height)
