"""Walk through the topology layer: complexes, Betti numbers, forks.

Run from the repository root:

    python demos/demo_topology.py
"""

from topocbt import (
    BlockRef,
    Chain,
    CrossChainTransaction,
    Federation,
    Simplex,
    SimplicialComplex,
    build_federation_complex,
    complex_to_text,
    expected_transaction_dimension,
    teardown_transaction,
    transaction_simplex,
)


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def main():
    banner("1. A complex by hand: solid tetrahedron + triangle + bridge")
    c = SimplicialComplex.from_simplices([
        Simplex((0, 1, 2, 3)),   # solid tetrahedron
        Simplex((4, 5, 6)),      # filled triangle
        Simplex((3, 4)),         # bridge edge
    ])
    print(f"{len(c)} simplices, dimension {c.dimension}")
    print("betti:", c.betti_numbers(), " euler:", c.euler_characteristic())
    print("one connected component and no holes in any dimension")

    banner("2. Three chains, two deals: where does the loop come from?")
    fed = Federation()
    for cid, length in ((1, 4), (2, 3), (3, 2)):
        chain = Chain(cid)
        for _ in range(length):
            chain.append_block(0, ())
        fed.add_chain(chain)
    pair = CrossChainTransaction(1, ("a", "b"), (BlockRef(1, 2), BlockRef(2, 2)), ())
    triple = CrossChainTransaction(
        2, ("a", "b", "c"), (BlockRef(1, 4), BlockRef(2, 3), BlockRef(3, 2)), ()
    )
    tagged = build_federation_complex(fed, [pair, triple])
    print("betti with both deals in flight:", tagged.betti_numbers())
    print("the 2-party edge plus the 3-party triangle close a cycle that")
    print("nothing fills, so one 1-dimensional hole shows up")

    after = teardown_transaction(tagged, 2)
    print("betti after tearing the 3-party deal down:", after.betti_numbers())
    both = teardown_transaction(after, 1)
    print("betti with no deals left:", both.betti_numbers(), "(three disjoint paths)")

    banner("3. Forks fatten the transaction simplex")
    fed2 = Federation()
    for cid in (1, 2):
        chain = Chain(cid)
        for _ in range(3):
            chain.append_block(0, ())
        label = chain.spawn_fork(2)        # a competing block at height 2
        chain.append_block(label, ())
        fed2.add_chain(chain)
    deal = CrossChainTransaction(9, ("a", "b"), (BlockRef(1, 2), BlockRef(2, 2)), ())
    sigma = transaction_simplex(fed2, deal)
    print(f"two parties, but {len(sigma.vertices)} block copies ->"
          f" dimension {sigma.dimension} simplex")
    print("formula check:", expected_transaction_dimension(fed2, deal))
    tagged2 = build_federation_complex(fed2, [deal], window=1)
    print("cells around the deal:", tagged2.complex.simplex_counts(), "(v, e, t, tetra)")
    print("betti:", tagged2.betti_numbers(), " euler:", tagged2.complex.euler_characteristic())
    print("each chain contributes two unfilled triangles -> four holes")

    banner("4. Longest branch wins, topology relaxes")
    for cid in (1, 2):
        fed2.chain(cid).resolve_forks()
    resolved = build_federation_complex(fed2, [deal])
    print("betti after fork resolution:", resolved.betti_numbers())
    print()
    print("complex file format sample:")
    print(complex_to_text(resolved.complex)[:120] + "...")


if __name__ == "__main__":
    main()
