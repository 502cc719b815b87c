import re
import time
import tracemalloc
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topocbt import gf2, simplicial, topology
from topocbt.chain import AssetUpdate, BlockRef, Chain, ChainError, Federation
from topocbt.engine import NO_FAILURES, TopoCbtEngine
from topocbt.harness import PROTOCOL_RUNNERS, _replay, betti_report, run_scenario
from topocbt.scenario import (
    ChainSpec,
    Scenario,
    car_trading,
    grid_scenario,
    load_scenario,
    parse_scenario,
)
from topocbt.simplicial import Simplex, SimplicialComplex, close_by_dimension
from topocbt.topology import (
    BettiGlue,
    CrossChainTransaction,
    SubTransaction,
    TopologyMode,
    build_federation_complex,
    expand_refs,
    expected_transaction_dimension,
    federation_betti,
    structural_betti,
    tagged_to_text,
    teardown_transaction,
    transaction_simplex,
)
from topocbt.wal import WriteAheadLog
from oracles import (SplitMix64, all_subsets_closure, append_run, betti_from_cells, cells_of, closure_tags,
                     dense_betti, live_branch_labels, random_scenario)
from shapes import fork_heavy, two_chain_deal
from test_chain_state import random_history, rescan_live


def federation_of(lengths, replicas=None):
    fed = Federation()
    for i, length in enumerate(lengths, start=1):
        ch = Chain(i, replicas=(replicas or {}).get(i, 1))
        for _ in range(length):
            ch.append_block(0, ())
        fed.add_chain(ch)
    return fed


def generators_of(tagged):
    return tagged.structural() + [top.vertices for top in tagged.txn_tops.values()]


def structural_numbers(federation, mode, spans=None):
    """``structural_betti``'s b0 and b1 as a Betti vector, each chain
    cut to its ``spans`` entry or whole: () with no vertex, b0 alone with
    no cell of two or more vertices."""
    spans = topology._spans(federation, [], None) if spans is None else spans
    structure = structural_betti(federation, mode, spans)
    return (structure.components, structure.loops)[:structure.widest]


def closure_betti(tagged):
    """The oracle: Betti numbers of the enumerated face closure."""
    return betti_from_cells(close_by_dimension(generators_of(tagged)))


def assert_closes_its_generators(tagged):
    assert cells_of(tagged.complex) == all_subsets_closure(generators_of(tagged))


def txn(tid, refs, parties=("a", "b")):
    return CrossChainTransaction(tid, parties, tuple(BlockRef(*r) for r in refs), ())


def three_chain_two_txn():
    """Three straight chains with one 2-party and one 3-party deal."""
    fed = federation_of([4, 3, 2])
    t1 = txn(1, [(1, 2, 0), (2, 2, 0)])
    t2 = txn(2, [(1, 4, 0), (2, 3, 0), (3, 2, 0)], parties=("a", "b", "c"))
    return fed, t1, t2


def double_fork_pair():
    """Two chains, each forked at height 2, one deal at that height."""
    fed = Federation()
    for cid in (1, 2):
        ch = Chain(cid)
        for _ in range(3):
            ch.append_block(0, ())
        label = ch.spawn_fork(2)
        ch.append_block(label, ())
        fed.add_chain(ch)
    deal = txn(9, [(1, 2, 0), (2, 2, 0)])
    return fed, deal


# -- whole-federation builds ---------------------------------------------------

def test_single_chain_is_contractible_path():
    tagged = build_federation_complex(federation_of([5]))
    assert tagged.betti_numbers() == (1, 0)
    assert_closes_its_generators(tagged)


def test_disjoint_chains_count_components():
    tagged = build_federation_complex(federation_of([2, 2, 2]))
    assert tagged.betti_numbers()[0] == 3


def test_two_txn_federation_has_one_loop():
    fed, t1, t2 = three_chain_two_txn()
    tagged = build_federation_complex(fed, [t1, t2])
    assert tagged.betti_numbers() == (1, 1, 0)
    assert_closes_its_generators(tagged)


def test_double_fork_deal_betti():
    fed, deal = double_fork_pair()
    tagged = build_federation_complex(fed, [deal])
    assert tagged.betti_numbers() == (1, 4, 0, 0)


def test_double_fork_window_cell_counts():
    fed, deal = double_fork_pair()
    tagged = build_federation_complex(fed, [deal], window=1)
    assert tagged.complex.simplex_counts() == [8, 14, 4, 1]
    # alternating cell count: 8 - 14 + 4 - 1
    assert tagged.complex.euler_characteristic() == -3
    assert tagged.betti_numbers() == (1, 4, 0, 0)


def test_build_is_deterministic():
    fed1, t1a, t2a = three_chain_two_txn()
    fed2, t1b, t2b = three_chain_two_txn()
    a = build_federation_complex(fed1, [t1a, t2a])
    b = build_federation_complex(fed2, [t1b, t2b])
    assert a.complex == b.complex
    assert tagged_to_text(a) == tagged_to_text(b)


def test_dead_branch_excluded_from_build():
    fed, deal = double_fork_pair()
    for cid in (1, 2):
        fed.chain(cid).resolve_forks()
    tagged = build_federation_complex(fed, [deal])
    # forks gone: two plain chains with one edge between them
    assert tagged.betti_numbers() == (1, 0)
    assert tagged.txn_tops[9].dimension == 1


def test_txn_on_dead_branch_is_error():
    fed, _ = double_fork_pair()
    fed.chain(1).resolve_forks()
    dead = txn(5, [(1, 2, 1), (2, 2, 0)])
    with pytest.raises(ChainError, match="dead"):
        build_federation_complex(fed, [dead])


@pytest.mark.parametrize("parties, blocks, message", [
    (("a",), [(1, 2, 0)], "txn 5: needs at least two parties"),
    (("a", "b"), [], "txn 5: needs at least one block"),
], ids=["one-party", "no-block"])
def test_validate_refuses_a_deal_of_one_party_or_no_block(parties, blocks, message):
    fed, _, _ = three_chain_two_txn()
    with pytest.raises(ValueError, match=f"^{message}$"):
        txn(5, blocks, parties).validate(fed)


# -- transaction simplices -------------------------------------------------------

def test_pair_deal_is_edge():
    fed = federation_of([2, 2])
    s = transaction_simplex(fed, txn(1, [(1, 2, 0), (2, 2, 0)]))
    assert s.dimension == 1


def test_three_party_deal_is_triangle():
    fed, _, t2 = three_chain_two_txn()
    assert transaction_simplex(fed, t2).dimension == 2


def test_forked_pair_deal_is_tetrahedron():
    fed, deal = double_fork_pair()
    s = transaction_simplex(fed, deal)
    assert s.dimension == 3
    assert len(s.vertices) == 4


def test_expand_refs_includes_fork_siblings():
    fed, deal = double_fork_pair()
    refs = expand_refs(fed, deal)
    assert refs == [
        BlockRef(1, 2, 0), BlockRef(1, 2, 1),
        BlockRef(2, 2, 0), BlockRef(2, 2, 1),
    ]


def test_missing_block_is_error():
    fed = federation_of([2, 2])
    with pytest.raises(ChainError, match="missing"):
        transaction_simplex(fed, txn(1, [(1, 9, 0), (2, 2, 0)]))


# -- dimension formula --------------------------------------------------------------

def test_dimension_formula_no_forks_abstract():
    fed = federation_of([2, 2])
    assert expected_transaction_dimension(fed, txn(1, [(1, 2, 0), (2, 2, 0)])) == 1


def test_dimension_formula_forked_pair():
    fed, deal = double_fork_pair()
    assert expected_transaction_dimension(fed, deal) == 3


def test_dimension_formula_replicated():
    fed = federation_of([1, 1, 1], replicas={1: 2})
    t = txn(1, [(1, 1, 0), (2, 1, 0), (3, 1, 0)], parties=("a", "b", "c"))
    assert expected_transaction_dimension(fed, t, TopologyMode.REPLICATED) == 3
    s = transaction_simplex(fed, t, TopologyMode.REPLICATED)
    assert s.dimension == 3


def random_federation_and_txn(seed):
    rng = SplitMix64(seed)
    fed = Federation()
    n = rng.randrange(2, 4)
    refs = []
    for cid in range(1, n + 1):
        ch = Chain(cid, replicas=rng.randrange(1, 3))
        height = rng.randrange(1, 3)
        for _ in range(height):
            ch.append_block(0, ())
        for _ in range(rng.below(3)):
            label = ch.spawn_fork(height)
            ch.append_block(label, ())
        fed.add_chain(ch)
        refs.append((cid, height, 0))
    parties = tuple(f"p{i}" for i in range(1, n + 1))
    return fed, txn(1, refs, parties=parties)


def fork_above_the_trunk_tip():
    """A 3-replica chain whose deal block is a fork block one height
    above the trunk's tip: one vertex, not one per replica."""
    chain = Chain(1, replicas=3)
    append_run(chain, 0, [(), ()])
    fork = chain.spawn_fork(3)
    chain.append_block(fork, ())
    fed = Federation()
    fed.add_chain(chain)
    fed.add_chain(Chain(2))
    return fed, txn(1, [(1, 3, fork), (2, 0, 0)])


def trunk_lost_a_resolution():
    """A 2-replica chain whose fork outgrew the trunk: the deal block is
    on the surviving fork, so it has one vertex."""
    chain = Chain(1, replicas=2)
    append_run(chain, 0, [(), ()])
    fork = chain.spawn_fork(2)
    append_run(chain, fork, [(), ()])
    assert chain.resolve_forks() == fork
    fed = Federation()
    fed.add_chain(chain)
    fed.add_chain(Chain(2))
    return fed, txn(1, [(1, 3, fork), (2, 0, 0)])


def declared_on_a_retired_branch():
    """The deal names a fork block whose branch lost a resolution."""
    fed, _ = double_fork_pair()
    fed.chain(1).resolve_forks()
    return fed, txn(1, [(1, 2, 1), (2, 2, 0)])


# deals whose vertex count needs the trunk-only replica rule or the
# liveness check: "replicas + fork siblings" per declared block is wrong here
DRIFT_CASES = {
    "fork-above-the-trunk-tip": fork_above_the_trunk_tip,
    "trunk-lost-a-resolution": trunk_lost_a_resolution,
    "declared-on-a-retired-branch": declared_on_a_retired_branch,
}


def oracle_vertex_count(federation, t, mode) -> int:
    """The vertices of t's top, counted from scratch: every block live
    (by the ancestor rescan) at a declared block's height, a trunk block
    ``replicas`` times in replicated mode and any other block once.  A
    declared block that is not live raises the build's ``ChainError``."""
    spanned = set()
    for ref in t.blocks:
        live = rescan_live(federation.chain(ref.chain)) if ref.chain in federation.chains else set()
        if ref not in live:
            raise ChainError(f"txn {t.id}: block {ref} is missing or on a dead branch")
        spanned.update(r for r in live if r.height == ref.height)
    replicated = mode is TopologyMode.REPLICATED
    return sum(federation.chain(r.chain).replicas if replicated and r.branch == 0 else 1 for r in spanned)


def assert_dimension_matches_oracle(federation, t, mode) -> None:
    """The built top, the formula and the oracle count agree, or all
    three refuse the deal with one message."""
    try:
        vertices = oracle_vertex_count(federation, t, mode)
    except ChainError as exc:
        for predict in (transaction_simplex, expected_transaction_dimension):
            with pytest.raises(ChainError, match=f"^{re.escape(str(exc))}$"):
                predict(federation, t, mode)
        return
    built = transaction_simplex(federation, t, mode)
    assert built.dimension == expected_transaction_dimension(federation, t, mode)
    assert built.dimension == vertices - 1


@pytest.mark.parametrize("mode", [TopologyMode.ABSTRACT, TopologyMode.REPLICATED])
@pytest.mark.parametrize("case", [*range(25), *DRIFT_CASES])
def test_dimension_formula_matches_construction(case, mode):
    fed, t = DRIFT_CASES[case]() if isinstance(case, str) else random_federation_and_txn(case)
    assert_dimension_matches_oracle(fed, t, mode)


def on_fresh_engine(run):
    return lambda fed, t: run(TopoCbtEngine(fed), t, NO_FAILURES)


DEAD_REF_RUNS = {name: on_fresh_engine(run) for name, run in PROTOCOL_RUNNERS.items()} | {
    "formula": expected_transaction_dimension,
}


@pytest.mark.parametrize("run", DEAD_REF_RUNS.values(), ids=DEAD_REF_RUNS.keys())
@pytest.mark.parametrize("dead, message", [
    ((1, 2, 1), "txn 1: block 1:2:1 is missing or on a dead branch"),
    ((9, 2, 0), "txn 1: block 9:2:0 is missing or on a dead branch"),
], ids=["retired-branch", "undeclared-chain"])
def test_every_protocol_refuses_a_dead_declared_block_with_one_message(run, dead, message):
    fed, _ = declared_on_a_retired_branch()
    with pytest.raises(ChainError, match=f"^{re.escape(message)}$"):
        run(fed, txn(1, [dead, (2, 2, 0)]))
    assert fed.locks == {}


def test_building_a_wide_deal_enumerates_no_faces(monkeypatch):
    """A 19-simplex has 2^20 - 1 faces; the build keeps generators only."""
    def no_closure(generators):
        raise AssertionError("face closure enumerated")

    fed = federation_of([2] * 20)
    deal = txn(1, [(cid, 2, 0) for cid in range(1, 21)])
    top = Simplex(tuple(3 * k + 2 for k in range(20)))  # heights 0..2 per chain
    monkeypatch.setattr(simplicial, "close_by_dimension", no_closure)
    assert transaction_simplex(fed, deal) == top
    assert build_federation_complex(fed, [deal]).txn_tops == {1: top}


# -- the build against a generator-by-generator reference ----------------------------

def reference_build(federation, transactions=(), mode=TopologyMode.ABSTRACT, window=None):
    """(structural, txn_tops, vertex_of) made one validated Simplex per
    generator: live refs sorted per chain, vertex keys sorted globally,
    window membership tested as a set of refs."""
    transactions = list(transactions)

    def copies(ref):
        if mode is TopologyMode.REPLICATED and ref.branch == 0:
            return [(ref.chain, ref.height, ref.branch, r) for r in range(federation.chain(ref.chain).replicas)]
        return [(ref.chain, ref.height, ref.branch, 0)]

    ref_heights = {}
    for t in transactions:
        for ref in t.blocks:
            ref_heights.setdefault(ref.chain, []).append(ref.height)
    included = {}
    for cid in federation.chain_ids():
        refs = sorted(federation.chain(cid).live_refs())
        if window is not None and cid in ref_heights:
            lo, hi = min(ref_heights[cid]) - window, max(ref_heights[cid]) + window
            refs = [r for r in refs if lo <= r.height <= hi]
        included[cid] = refs
    keys = sorted(key for cid in federation.chain_ids() for ref in included[cid] for key in copies(ref))
    vertex_of = {key: i for i, key in enumerate(keys)}
    structural = [Simplex((i,)) for i in range(len(keys))]

    def edge(a, b):
        structural.append(Simplex(tuple(sorted((vertex_of[a], vertex_of[b])))))

    for cid in federation.chain_ids():
        chain = federation.chain(cid)
        in_window = set(included[cid])
        for ref in included[cid]:
            parent = chain.block(ref).parent_ref
            if parent is None or parent not in in_window:
                continue
            if mode is TopologyMode.REPLICATED and ref.branch == 0 and parent.branch == 0:
                for r in range(chain.replicas):
                    edge((cid, parent.height, parent.branch, r), (cid, ref.height, ref.branch, r))
            else:
                edge((cid, parent.height, parent.branch, 0), (cid, ref.height, ref.branch, 0))
        for label in live_branch_labels(chain):
            info = chain.branches[label]
            tip = BlockRef(cid, info.tip, label)
            if info.tip < 0 or tip not in in_window:
                continue
            for succ in chain.live_block_at(info.tip + 1):
                if succ in in_window and chain.block(succ).parent_ref != tip:
                    edge((cid, tip.height, label, 0), (cid, succ.height, succ.branch, 0))
        if mode is TopologyMode.REPLICATED:
            groups = {}  # height -> the vertices of its blocks' copies
            for r in included[cid]:
                groups.setdefault(r.height, []).extend(vertex_of[k] for k in copies(r))
            for group in groups.values():
                if len(group) >= 2:
                    structural.append(Simplex(tuple(sorted(group))))

    txn_tops = {}
    for t in transactions:
        verts = []
        for ref in expand_refs(federation, t):
            for key in copies(ref):
                if key not in vertex_of:
                    raise ChainError(f"txn {t.id}: block {ref} outside the built window")
                verts.append(vertex_of[key])
        txn_tops[t.id] = Simplex(tuple(sorted(verts)))
    return frozenset(structural), dict(sorted(txn_tops.items())), vertex_of


def assert_build_matches_reference(federation, transactions, mode, window):
    try:
        expected = reference_build(federation, transactions, mode, window)
    except ChainError as exc:
        with pytest.raises(ChainError, match=f"^{exc}$"):
            build_federation_complex(federation, transactions, mode, window)
        return
    tagged = build_federation_complex(federation, transactions, mode, window)
    assert (frozenset(map(Simplex, tagged.structural())), tagged.txn_tops, tagged.vertex_count) == (
        expected[0], expected[1], len(expected[2]))
    assert list(tagged.txn_tops) == list(expected[1])
    structural, tops, _ = expected
    generators = [s.vertices for s in structural] + [s.vertices for s in tops.values()]
    assert tagged.betti_numbers() == betti_from_cells(close_by_dimension(generators))


def test_fork_off_a_surviving_fork_matches_reference():
    # branch 1 wins at height 2, so a later fork hangs off branch 1, not the trunk
    chain = Chain(1, replicas=2)
    for _ in range(3):
        chain.append_block(0, ())
    first = chain.spawn_fork(2)
    for _ in range(3):
        chain.append_block(first, ())
    assert chain.resolve_forks() == first
    second = chain.spawn_fork(3)
    chain.append_block(second, ())
    assert chain.block(BlockRef(1, 3, second)).parent_ref == BlockRef(1, 2, first)
    fed = Federation()
    fed.add_chain(chain)
    fed.add_chain(Chain(2))
    deal = txn(1, [(1, 3, first), (2, 0, 0)])
    for mode in TopologyMode:
        for window in (None, 0, 1):
            assert_build_matches_reference(fed, [deal], mode, window)


def test_a_long_replicated_chain_forked_near_its_tip_matches_reference():
    fed = Federation()
    chain = fed.add_chain(Chain(1, replicas=3, length=10_000))
    fork = chain.spawn_fork(9_998)
    append_run(chain, fork, [()] * 2)
    fed.add_chain(Chain(2, replicas=2, length=50))
    deals = [txn(1, [(1, 9_997, 0), (2, 40, 0)]), txn(2, [(1, 9_999, fork), (2, 50, 0)])]
    for window in (None, 2):
        assert_build_matches_reference(fed, deals, TopologyMode.REPLICATED, window)


def deep_scenario(seed: int) -> Scenario:
    """Forked chains, deals below the tips and on surviving forks, and
    fork resolution every ``epoch`` events; fully determined by the seed.

    A chain of length L may get a losing fork at a height up to L, a
    fork at L + 1 that outgrows the trunk, and a fork of that fork at
    L + 2, whose parent is the first fork's block, not a trunk block.
    Deals name trunk heights 1..L and the outgrowing forks' blocks,
    which stay live through every resolution.
    """
    rng = SplitMix64(seed)
    chains, named = [], {}
    for cid in range(1, rng.randrange(2, 4) + 1):
        length = rng.randrange(3, 9)
        forks = []
        named[cid] = [BlockRef(cid, height) for height in range(1, length + 1)]
        if rng.below(2):
            forks.append((rng.randrange(1, length + 1), 1))
        if rng.below(3):
            forks.append((length + 1, 1))
            named[cid].append(BlockRef(cid, length + 1, len(forks)))
            if rng.below(2):
                forks.append((length + 2, 1))
                named[cid].append(BlockRef(cid, length + 2, len(forks)))
        chains.append(ChainSpec(id=cid, replicas=rng.randrange(1, 3), length=length, assets=(f"A{cid}",),
                                forks=tuple(forks), balances=((f"p{cid}", f"A{cid}", rng.randrange(10, 20)),)))
    txns = []
    for tid in range(1, rng.randrange(2, 5) + 1):
        pool = sorted(named)
        rng.shuffle(pool)
        cids = sorted(pool[: rng.randrange(2, len(pool) + 1)])
        ref_of = {cid: named[cid][rng.below(len(named[cid]))] for cid in cids}
        parties = tuple(f"p{cid}" for cid in cids)
        faces = []
        for _ in range(rng.randrange(1, 3)):
            face_pool = list(cids)
            rng.shuffle(face_pool)
            face_cids = sorted(face_pool[: rng.randrange(1, len(cids) + 1)])
            # now and then more than the party holds: an abort and its compensation blocks
            updates = tuple(AssetUpdate(f"p{c}", parties[(cids.index(c) + 1) % len(cids)], f"A{c}",
                                        rng.randrange(1, 30) if rng.below(6) == 0 else rng.randrange(1, 4))
                            for c in face_cids)
            faces.append(SubTransaction(tuple(ref_of[c] for c in face_cids), updates))
        txns.append(CrossChainTransaction(tid, parties, tuple(ref_of[c] for c in cids), tuple(faces)))
    return Scenario(name=f"deep-{seed}", epoch=rng.randrange(1, 3), chains=chains, txns=txns,
                    protocols={t.id: "topocbt" for t in txns})


DEEP_SEEDS = 24


def test_deep_scenarios_reach_below_the_tip_and_past_a_resolution():
    below_tip = fork_of_fork = on_fork_after_resolution = 0
    for seed in range(DEEP_SEEDS):
        scenario = deep_scenario(seed)
        federation = scenario.build_federation()
        for _ in _replay(scenario, federation, WriteAheadLog()):
            pass
        for event, t in enumerate(scenario.transactions(), start=1):
            for ref in t.blocks:
                chain = federation.chain(ref.chain)
                below_tip += ref.height + 3 < chain.branches[chain.canonical_branch()].tip
                fork_of_fork += chain.block(ref).parent_ref.branch > 0
                on_fork_after_resolution += ref.branch > 0 and event > scenario.epoch
    assert min(below_tip, fork_of_fork, on_fork_after_resolution) > 10, (below_tip, fork_of_fork,
                                                                          on_fork_after_resolution)


def build_corpus():
    for n in range(2, 7):
        for m in range(1, 5):
            yield pytest.param(grid_scenario(n, m), id=f"grid-{n}-{m}")
    for seed in range(200):
        yield pytest.param(random_scenario(seed), id=f"random-{seed}")
    for seed in range(DEEP_SEEDS):
        yield pytest.param(deep_scenario(seed), id=f"deep-{seed}")


@pytest.mark.parametrize("mode", list(TopologyMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("scenario", build_corpus())
def test_build_equals_reference_build(scenario, mode):
    # at events 0, 1, n/2 and n, with every window
    scenario = replace(scenario, mode=mode)
    transactions = scenario.transactions()
    n = len(transactions)
    federation = scenario.build_federation()
    rows = _replay(scenario, federation, WriteAheadLog())
    done = 0
    for k in sorted({0, 1, n // 2, n}):
        for _ in islice(rows, k - done):
            pass
        done = k
        for window in (None, 0, 1, 3):
            assert_build_matches_reference(federation, transactions[k:], mode, window)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_build_equals_reference_build_on_random_histories(data):
    fed = Federation()
    for cid in range(1, data.draw(st.integers(1, 3), label="chains") + 1):
        chain = fed.add_chain(Chain(cid, replicas=data.draw(st.integers(1, 3)), assets=("X", "Y")))
        for _ in random_history(data, chain, max_steps=12):
            pass
    txns = []
    for tid in range(1, data.draw(st.integers(0, 3), label="txns") + 1):
        # any block, dead ones included: both builds must refuse those alike
        cids = data.draw(st.lists(st.sampled_from(fed.chain_ids()), min_size=1, unique=True))
        refs = [data.draw(st.sampled_from(fed.chain(cid).all_refs())) for cid in sorted(cids)]
        txns.append(CrossChainTransaction(tid, ("a", "b"), tuple(refs), ()))
    mode = data.draw(st.sampled_from(list(TopologyMode)))
    window = data.draw(st.sampled_from([None, 0, 1, 3]))
    assert_build_matches_reference(fed, txns, mode, window)


def forked_trunk(data, cid):
    """A declared trunk of up to 300 blocks with forks drawn at height 1,
    mid-trunk, at the tip and above it, now and then one grown past the
    trunk and resolved, which retires branch 0 above the fork."""
    length = data.draw(st.integers(0, 300), label="length")
    chain = Chain(cid, replicas=data.draw(st.integers(1, 3), label="replicas"), length=length)
    heights = {"one": 1, "mid": max(1, length // 2), "tip": max(1, length), "above": length + 1}
    for where in data.draw(st.lists(st.sampled_from(sorted(heights)), max_size=3), label="forks"):
        label = chain.spawn_fork(heights[where])
        append_run(chain, label, [()] * data.draw(st.integers(0, 3)))
    if len(chain.branches) > 1 and data.draw(st.booleans(), label="resolve"):
        label = data.draw(st.sampled_from(live_branch_labels(chain)[1:]))
        info = chain.branches[label]
        tallest = max(chain.branches[b].tip for b in live_branch_labels(chain))
        append_run(chain, label, [()] * (tallest - max(info.tip, info.spawn_height - 1) + 1))
        assert chain.resolve_forks() == label
    append_run(chain, data.draw(st.sampled_from(live_branch_labels(chain))), [()] * data.draw(st.integers(0, 2)))
    return chain


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_bulk_trunk_runs_equal_reference_build(data):
    fed = Federation()
    for cid in range(1, data.draw(st.integers(1, 2), label="chains") + 1):
        fed.add_chain(forked_trunk(data, cid))
    mode = data.draw(st.sampled_from(list(TopologyMode)), label="mode")
    window = data.draw(st.sampled_from([None, 0, 1, 2, 3]), label="window")
    refs = []
    for cid in fed.chain_ids():
        chain = fed.chain(cid)
        top = len({r.height for r in chain.live_refs()}) - 1
        forked = chain.forked_heights(0, top)
        height = data.draw(st.integers(0, top), label="height")
        if forked and window is not None and data.draw(st.booleans(), label="window edge near a fork"):
            # the window's lower or upper edge on a forked height or one either side
            edge = data.draw(st.sampled_from(forked)) + data.draw(st.sampled_from([-1, 0, 1]))
            height = min(max(edge + data.draw(st.sampled_from([window, -window])), 0), top)
        refs.append(data.draw(st.sampled_from(chain.live_block_at(height)), label="ref"))
    assert_build_matches_reference(fed, [CrossChainTransaction(1, ("a", "b"), tuple(refs), ())], mode, window)


# -- trunk runs recorded by the build, laid on first read ---------------------------

def data_scenarios():
    return [load_scenario(str(path))[0] for path in sorted((Path(__file__).parent / "data").glob("*.scenario"))]


def test_a_run_without_betti_lays_no_trunk_run(monkeypatch):
    laid = []
    lay = topology._lay_trunk_run

    def counted(*args):
        laid.append(args[2:])
        lay(*args)

    monkeypatch.setattr(topology, "_lay_trunk_run", counted)
    rows = 0
    for scenario in data_scenarios():
        rows += len(run_scenario(scenario, 1, compute_betti=False).rows)
    assert rows > 0 and laid == []
    # the corpus has trunk runs to skip: reading its builds' cells lays them
    for scenario in data_scenarios():
        build_federation_complex(scenario.build_federation(), scenario.transactions(), mode=scenario.mode).cells
    assert laid


READS = {
    "cells": lambda tagged: tagged.cells,
    "structural": lambda tagged: tagged.structural(),
    "complex": lambda tagged: tagged.complex,
    "text": tagged_to_text,
}


def assert_laid_as_reference(tagged, expected, read):
    """Read one view of an unread build first; it and every other view
    then equal the reference's."""
    assert "cells" not in tagged.__dict__
    first = READS[read](tagged)
    structural, tops, vertex_of = expected
    assert tagged.vertex_count == len(vertex_of)
    assert frozenset(map(Simplex, tagged.structural())) == structural and tagged.txn_tops == tops
    generators = [s.vertices for s in structural] + [s.vertices for s in tops.values()]
    if read == "complex":
        assert cells_of(first) == all_subsets_closure(generators)
    if read == "text":
        assert first[0] == simplicial.complex_to_text(SimplicialComplex(generators))


@pytest.mark.parametrize("read", READS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_each_first_read_lays_the_reference_build(read, data):
    fed = Federation()
    for cid in range(1, data.draw(st.integers(1, 2), label="chains") + 1):
        fed.add_chain(forked_trunk(data, cid))
    mode = data.draw(st.sampled_from(list(TopologyMode)), label="mode")
    window = data.draw(st.sampled_from([None, 0, 2]), label="window")
    txns = []
    for tid in range(1, data.draw(st.integers(0, 2), label="txns") + 1):
        refs = []
        for cid in fed.chain_ids():
            chain = fed.chain(cid)
            height = data.draw(st.integers(0, len({r.height for r in chain.live_refs()}) - 1), label="height")
            refs.append(data.draw(st.sampled_from(chain.live_block_at(height)), label="ref"))
        txns.append(CrossChainTransaction(tid, ("a", "b"), tuple(refs), ()))
    expected = reference_build(fed, txns, mode, window)
    assert_laid_as_reference(build_federation_complex(fed, txns, mode, window), expected, read)


def long_trunk_scenario(mode):
    """Two deals over 120- and 80-block declared trunks, one forked."""
    return parse_scenario(f"""\
[scenario]
name = long-trunks
mode = {mode.value}

[chain]
id = 1
replicas = 2
length = 120
assets = X
fork = 60 1
balance = a X 5

[chain]
id = 2
length = 80
assets = Y
balance = b Y 5

[txn]
id = 1
parties = a b
blocks = 1:30 2:79
sub = 1:30 2:79 ; a b X 1, b a Y 1

[txn]
id = 2
parties = a b
blocks = 1:90 2:40
sub = 1:90 2:40 ; a b X 1, b a Y 1
""")


@pytest.mark.parametrize("read", READS)
@pytest.mark.parametrize("mode", list(TopologyMode), ids=lambda mode: mode.value)
def test_betti_reports_lay_the_reference_build_at_every_event(read, mode):
    scenario = long_trunk_scenario(mode)
    transactions = scenario.transactions()
    federation = scenario.build_federation()
    rows = _replay(scenario, federation, WriteAheadLog())
    for k in range(len(transactions) + 1):
        expected = reference_build(federation, transactions[k:], mode)
        betti, tagged = betti_report(scenario, k)
        assert tagged._runs  # the build recorded trunk runs
        assert_laid_as_reference(tagged, expected, read)
        assert betti == closure_betti(tagged)
        next(rows, None)


def test_a_top_over_a_million_block_trunk_holds_under_a_mebibyte():
    fed = Federation()
    fed.add_chain(Chain(1, length=1_000_000))
    fed.add_chain(Chain(2, length=3))
    deal = txn(1, [(1, 500_000, 0), (2, 3, 0)])
    tracemalloc.start()
    try:
        top = transaction_simplex(fed, deal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # chain 1 numbers 1,000,001 vertices, chain 2 the next four
    assert top == Simplex((500_000, 1_000_004))
    assert peak < 2**20, peak


def test_one_simplex_per_transaction_top(monkeypatch):
    made = []
    post_init = Simplex.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(Simplex, "__post_init__", counted)
    fed = federation_of([200, 200, 200])
    deal = txn(1, [(1, 200, 0), (2, 150, 0), (3, 7, 0)], parties=("a", "b", "c"))
    assert transaction_simplex(fed, deal).dimension == 2
    assert len(made) == 1
    made.clear()
    txns = [deal, txn(2, [(1, 3, 0), (3, 3, 0)]), txn(3, [(2, 9, 0), (3, 9, 0)])]
    tagged = build_federation_complex(fed, txns)
    assert tagged.betti_numbers() == (1, 2, 0)
    assert len(made) == len(txns)
    assert "complex" not in tagged.__dict__


def count_chain_reads(monkeypatch):
    """Record every (chain, height) ``Chain.live_block_at`` answers."""
    reads = []
    live_block_at = Chain.live_block_at

    def counted_at(self, height):
        reads.append((self.id, height))
        return live_block_at(self, height)

    monkeypatch.setattr(Chain, "live_block_at", counted_at)
    return reads


@pytest.mark.parametrize("mode", list(TopologyMode), ids=lambda mode: mode.value)
def test_a_simplex_over_unforked_chains_reads_only_its_declared_blocks(monkeypatch, mode):
    fed = Federation()
    fed.add_chain(Chain(1, replicas=3, length=100_000))
    for cid in range(2, 9):
        fed.add_chain(Chain(cid, replicas=cid % 3 + 1, length=10 * cid))
    append_run(fed.chain(5), 0, [()] * 4)  # appended blocks on the trunk fork nothing
    deal = txn(1, [(1, 99_999, 0), *((cid, 3 * cid, 0) for cid in range(2, 9))])
    expected, first = [], 0  # each chain numbers its heights' copies up from ``first``
    for ref in deal.blocks:
        chain = fed.chain(ref.chain)
        copies = chain.replicas if mode is TopologyMode.REPLICATED else 1
        expected.extend(range(first + ref.height * copies, first + (ref.height + 1) * copies))
        first += len({r.height for r in chain.live_refs()}) * copies
    reads = count_chain_reads(monkeypatch)
    assert transaction_simplex(fed, deal, mode) == Simplex(tuple(expected))
    # expand_refs' one read per declared block is the build's only read
    assert reads == [(ref.chain, ref.height) for ref in deal.blocks]


@pytest.mark.parametrize("mode", list(TopologyMode), ids=lambda mode: mode.value)
def test_a_simplex_walks_each_forked_height_and_the_one_above(monkeypatch, mode):
    fed = Federation()
    chain = fed.add_chain(Chain(1, replicas=2, length=60))
    for height in (7, 8, 30, 31, 59):
        append_run(chain, chain.spawn_fork(height), [()] * (2 if height == 30 else 1))
    fed.add_chain(Chain(2, length=5))
    assert chain.forked_heights(0, 60) == [7, 8, 30, 31, 59]
    walked = [7, 8, 9, 30, 31, 32, 59, 60]  # each forked height and the one above
    deals = [txn(1, [(1, height, 0), (2, 2, 0)]) for height in (0, 20, 31, 60)]
    expected = [reference_build(fed, [deal], mode)[1][1] for deal in deals]
    reads = count_chain_reads(monkeypatch)
    for deal, top in zip(deals, expected):
        reads.clear()
        assert transaction_simplex(fed, deal, mode) == top
        # the walk, then expand_refs' one read per declared block for the top
        assert reads == [(1, h) for h in walked] + [(ref.chain, ref.height) for ref in deal.blocks]


# -- Betti numbers against the dense oracle ---------------------------------------------

def betti_corpus():
    forked = Path(__file__).parent / "data" / "forked_replicated_two_deals.scenario"
    yield pytest.param(car_trading(), id="car-trading")
    yield pytest.param(load_scenario(str(forked))[0], id="forked-replicated")
    for n in range(2, 7):
        for m in range(1, 5):
            for mode in TopologyMode:
                yield pytest.param(replace(grid_scenario(n, m), mode=mode), id=f"grid-{n}-{m}-{mode.value}")
    for seed in range(200):
        yield pytest.param(random_scenario(seed), id=f"random-{seed}")


@pytest.mark.parametrize("scenario", betti_corpus())
def test_betti_report_equals_dense_oracle(scenario):
    n = len(scenario.transactions())
    for k in sorted({0, 1, n // 2, n}):
        betti, tagged = betti_report(scenario, k)
        assert betti == dense_betti(tagged.complex), k


def closure_corpus():
    """The Betti corpus and every scenario file under tests/data."""
    yield from betti_corpus()
    for path in sorted((Path(__file__).parent / "data").glob("*.scenario")):
        yield pytest.param(load_scenario(str(path))[0], id=path.stem)


@pytest.mark.parametrize("scenario", closure_corpus())
def test_betti_report_equals_the_closure_oracle_at_every_event(scenario):
    for k in range(len(scenario.transactions()) + 1):
        betti, tagged = betti_report(scenario, k)
        assert betti == closure_betti(tagged), k


def two_chain_betti(replicas):
    """(betti_pre, betti_post) of the deal: each chain is a path of replica
    groups, every two groups linked copy by copy, which closes replicas - 1
    loops per link.  Before the deal: 2 links per chain and the deal's top
    of 2 * replicas vertices joins the chains; after: a committed block
    adds a third link per chain and the top is gone."""
    loops = replicas - 1
    return ((1, 2 * 2 * loops) + (0,) * (2 * replicas - 2),
            (2, 2 * 3 * loops) + (0,) * (replicas - 2))


@pytest.mark.parametrize("replicas", range(2, 9))
def test_two_chain_deal_equals_the_closure_oracle(replicas):
    scenario = parse_scenario(two_chain_deal(replicas))
    expected = two_chain_betti(replicas)
    for k in (0, 1):
        betti, tagged = betti_report(scenario, k)
        assert betti == closure_betti(tagged) == expected[k]
    row, = run_scenario(scenario, 1).rows
    assert (row.betti_pre, row.betti_post) == expected


def test_two_chain_deal_at_twenty_replicas_runs_with_betti_in_seconds():
    # its top has 40 vertices: 2^40 - 1 faces, never enumerated
    scenario = parse_scenario(two_chain_deal(20))
    start = time.perf_counter()
    row, = run_scenario(scenario, 1).rows
    assert time.perf_counter() - start < 10
    assert (row.betti_pre, row.betti_post) == two_chain_betti(20)


def deals_over_three_chains(pairs, replicas):
    """Three replicated chains and one deal per pair of chains, each over
    block 1 of both, so two deals that share a chain share its replica
    group."""
    text = "[scenario]\nname = deals\nmode = replicated\n"
    for c in (1, 2, 3):
        text += f"[chain]\nid = {c}\nreplicas = {replicas}\nlength = 2\nassets = A{c}\nbalance = p{c} A{c} 5\n"
    for tid, (x, y) in enumerate(pairs, start=1):
        text += (f"[txn]\nid = {tid}\nparties = p{x} p{y}\nblocks = {x}:1 {y}:1\n"
                 f"sub = {x}:1 {y}:1 ; p{x} p{y} A{x} 1, p{y} p{x} A{y} 1\n")
    return parse_scenario(text)


OVERLAPPING_DEALS = {"two-deals": [(1, 2), (2, 3)], "triangle": [(1, 2), (2, 3), (3, 1)]}


@pytest.mark.parametrize("replicas", range(2, 7))
@pytest.mark.parametrize("pairs", OVERLAPPING_DEALS.values(), ids=OVERLAPPING_DEALS.keys())
def test_deals_sharing_a_replica_group_equal_the_closure_oracle(pairs, replicas):
    scenario = deals_over_three_chains(pairs, replicas)
    for k in range(len(pairs) + 1):
        betti, tagged = betti_report(scenario, k)
        assert betti == closure_betti(tagged), k


@pytest.mark.parametrize("replicas", [20, 22])
@pytest.mark.parametrize("pairs", OVERLAPPING_DEALS.values(), ids=OVERLAPPING_DEALS.keys())
def test_deals_sharing_a_wide_replica_group_run_with_betti_in_seconds(pairs, replicas):
    # two tops of 2 * replicas vertices share a group of replicas vertices:
    # each top coned alone would keep 2^(replicas + 1) faces of it
    scenario = deals_over_three_chains(pairs, replicas)
    start = time.perf_counter()
    rows = run_scenario(scenario, 1).rows
    assert time.perf_counter() - start < 10
    # 6 (replicas - 1) loops of linked copies, one more around a triangle of deals
    loops = 6 * (replicas - 1) + (len(pairs) == 3)
    assert rows[0].betti_pre == (1, loops) + (0,) * (2 * replicas - 2)
    assert all(a.betti_post == b.betti_pre for a, b in zip(rows, rows[1:]))


def grid_14():
    return betti_report(grid_scenario(14, 0), 0)[1]


def twenty_chain_deal():
    return build_federation_complex(federation_of([2] * 20), [txn(1, [(cid, 2, 0) for cid in range(1, 21)])])


@pytest.mark.parametrize("build", [grid_14, twenty_chain_deal], ids=["grid-14", "twenty-chains"])
def test_a_wide_deal_takes_its_betti_numbers_without_a_closure(monkeypatch, build):
    tagged = build()
    expected = closure_betti(tagged)

    def no_closure(generators):
        raise AssertionError("face closure enumerated")

    monkeypatch.setattr(simplicial, "close_by_dimension", no_closure)
    assert tagged.betti_numbers() == expected
    assert "complex" not in tagged.__dict__


def twenty_chain_deals_text():
    """Twenty chains and two deals over all of them that share 19
    blocks: deal 2 names chain 1 one height below deal 1."""
    text = "[scenario]\nname = twenty-chain-deals\n"
    for cid in range(1, 21):
        text += f"[chain]\nid = {cid}\nlength = 3\nassets = A{cid}\nbalance = p{cid} A{cid} 5\n"
    for tid, height in ((1, 2), (2, 1)):
        refs = " ".join([f"1:{height}"] + [f"{cid}:2" for cid in range(2, 21)])
        text += f"[txn]\nid = {tid}\nparties = p1 p2\nblocks = {refs}\nsub = {refs} ; p1 p2 A1 1, p2 p1 A2 1\n"
    return text


def test_a_run_glues_twenty_chain_deals_without_a_closure(monkeypatch):
    # each top has 2^20 - 1 faces, and the two share a 19-vertex face
    # that neither one's cone alone could drop
    def no_closure(generators):
        raise AssertionError("face closure enumerated")

    faces = []  # what each reduction may close
    check = simplicial._check_face_budget
    monkeypatch.setattr(simplicial, "close_by_dimension", no_closure)
    monkeypatch.setattr(simplicial, "_check_face_budget", lambda n: faces.append(n) or check(n))
    rows = run_scenario(parse_scenario(twenty_chain_deals_text()), 1).rows
    assert faces and max(faces) < 2**10
    # the two tops and chain 1's edge between the heights they name close one loop
    assert rows[0].betti_pre == (1, 1) + (0,) * 18
    assert rows[0].betti_post == rows[1].betti_pre == (1,) + (0,) * 19
    assert rows[1].betti_post == (20, 0)


def test_tagged_betti_builds_no_closure_and_no_dense_matrix(monkeypatch):
    fed, deal = double_fork_pair()
    tagged = build_federation_complex(fed, [deal])

    def forbidden(*args, **kwargs):
        raise AssertionError("dense path used or a Simplex made")

    monkeypatch.setattr(gf2, "gf2_rank", forbidden)
    monkeypatch.setattr(simplicial, "gf2_rank", forbidden)
    monkeypatch.setattr(Simplex, "__post_init__", forbidden)
    assert tagged.betti_numbers() == (1, 4, 0, 0)
    assert "complex" not in tagged.__dict__


# -- Betti numbers glued, without and with a window, against the build ---------------

def full_betti(federation, transactions, mode, window):
    return build_federation_complex(federation, transactions, mode, window).betti_numbers()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_collapsed_betti_equals_the_full_build(data):
    # canonical appends stitch to the fork tips below them, and a
    # resolution retires trunk rows or leaves fork-only rows above them
    fed = Federation()
    for cid in range(1, data.draw(st.integers(1, 3), label="chains") + 1):
        chain = forked_trunk(data, cid)
        for _ in range(data.draw(st.integers(0, 3), label="canonical appends")):
            chain.append(())
        if data.draw(st.booleans(), label="resolve_forks"):
            chain.resolve_forks()
            for _ in range(data.draw(st.integers(0, 3), label="canonical appends after it")):
                chain.append(())
        fed.add_chain(chain)
    mode = data.draw(st.sampled_from(list(TopologyMode)), label="mode")
    window = data.draw(st.sampled_from([None, 0, 1, 2, 3]), label="window")
    txns = draw_deals(data, fed, 3)
    assert federation_betti(fed, txns, mode, window) == full_betti(fed, txns, mode, window)


def test_a_window_above_a_fork_counts_a_second_stitch_between_two_parts_as_a_loop():
    # chain 1's window, heights 3 to 6, starts above the fork at 2, so
    # branch 1's block at 3, its tip, roots a part of its own.  That tip
    # is stitched to the trunk block at 4 and to branch 2's first block,
    # both in the trunk's part: the first edge joins the parts, the
    # second closes a loop.  A window of 4, or none, cuts below the fork,
    # and each edge closes a loop
    fed = Federation()
    chain = fed.add_chain(Chain(1, length=6))
    append_run(chain, chain.spawn_fork(2), [(), ()])
    append_run(chain, chain.spawn_fork(4), [(), (), ()])
    fed.add_chain(Chain(2, length=2))
    deal = txn(1, [(1, 5, 0), (2, 1, 0)])
    mode = TopologyMode.ABSTRACT
    assert topology._spans(fed, [deal], 2) == {1: (3, 6), 2: (0, 2)}
    assert structural_numbers(fed, mode, topology._spans(fed, [deal], 2)) == (2, 1)
    assert structural_numbers(fed, mode, topology._spans(fed, [deal], 4)) == structural_numbers(fed, mode) == (2, 2)
    # the deal's top joins the chains, and its two blocks on chain 1 close one more loop through the joined parts
    assert federation_betti(fed, [deal], mode, 2) == full_betti(fed, [deal], mode, 2) == (1, 2, 0)


def test_a_part_no_deal_names_and_no_stitch_joins_adds_to_b0():
    # on a named chain every part is named or stitched to another: a part
    # whose highest block lies below the window's top row ends in a live
    # tip there, stitched to every block above it.  So such a part is a
    # chain that no deal names, kept whole: chain 3, beside chain 1 cut
    # into two parts
    fed = Federation()
    chain = fed.add_chain(Chain(1, length=6))
    append_run(chain, chain.spawn_fork(2), [(), ()])
    append_run(chain, chain.spawn_fork(4), [(), (), ()])
    fed.add_chain(Chain(2, length=2))
    third = fed.add_chain(Chain(3, length=3))
    append_run(third, third.spawn_fork(2), [()])
    deal = txn(1, [(1, 5, 0), (2, 1, 0)])
    mode = TopologyMode.ABSTRACT
    assert structural_numbers(fed, mode, topology._spans(fed, [deal], 2)) == (3, 2)
    assert federation_betti(fed, [deal], mode, 2) == full_betti(fed, [deal], mode, 2) == (2, 3, 0)


def draw_deals(data, fed, most):
    """Up to ``most`` deals, each naming one live block on each of some chains."""
    txns = []
    for tid in range(1, data.draw(st.integers(0, most), label="txns") + 1):
        refs = []
        for cid in sorted(data.draw(st.lists(st.sampled_from(fed.chain_ids()), min_size=1, unique=True))):
            chain = fed.chain(cid)
            top = max(chain.branches[label].tip for label in live_branch_labels(chain))
            # any live height, or one at or beside a fork or an end
            near = {min(max(h + d, 0), top) for h in [0, top, *chain.forked_heights(0, top)] for d in (-1, 0, 1)}
            height = data.draw(st.one_of(st.integers(0, top), st.sampled_from(sorted(near))), label="height")
            refs.append(data.draw(st.sampled_from(chain.live_block_at(height)), label="ref"))
        txns.append(CrossChainTransaction(tid, ("a", "b"), tuple(refs), ()))
    return txns


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_an_epoch_glue_read_after_canonical_appends_equals_the_full_build(data):
    # one glue, read as deals stop pending and chains grow at their
    # canonical tips: a fork tied with the tip, a fork or the trunk
    # taking the appends, a genesis-only chain gaining its first edge
    fed = Federation()
    for cid in range(1, data.draw(st.integers(1, 3), label="chains") + 1):
        fed.add_chain(forked_trunk(data, cid))
    mode = data.draw(st.sampled_from(list(TopologyMode)), label="mode")
    txns = draw_deals(data, fed, 4)
    glue = BettiGlue(fed, txns, mode)
    for k in range(len(txns) + 1):
        if k:
            for cid in data.draw(st.lists(st.sampled_from(fed.chain_ids()), max_size=3), label="appends"):
                fed.chain(cid).append(())
        assert glue.betti(k) == full_betti(fed, txns[k:], mode, None), k


@pytest.mark.parametrize("mode", list(TopologyMode), ids=lambda mode: mode.value)
def test_a_windowed_report_reads_no_branch_list_and_no_row_outside_its_window(monkeypatch, mode):
    # a fork at every even height of chain 1, 1,001 live branches, and
    # deals near its tip: each report reads a named chain's rows in its
    # window and the row at its canonical tip, no more
    scen = parse_scenario(fork_heavy("fork-heavy", mode.value, 1, length=2000))
    reads = count_chain_reads(monkeypatch)
    report, reports, strays = BettiGlue.betti, [], []

    def watched(glue, dropped):
        pending = glue.transactions[dropped:]
        spans = topology._spans(glue.federation, pending, glue.window)
        tips = {cid: chain.branches[chain.canonical_branch()].tip for cid, chain in glue.federation.chains.items()}
        reads.clear()
        betti = report(glue, dropped)
        reports.append(dropped)
        named = {ref.chain for txn in pending for ref in txn.blocks}
        strays.extend((dropped, cid, height) for cid, height in reads
                      if cid in named and not spans[cid][0] <= height <= spans[cid][1] and height != tips[cid])
        return betti

    monkeypatch.setattr(BettiGlue, "betti", watched)
    assert len(run_scenario(scen, 1).rows) == 10
    # one report before the first event, one after each, one more after the resolution
    assert reports == [0, 1, 2, 3, 4, 5, 5, 6, 7, 8, 9, 10]
    assert strays == []


def test_a_glue_derives_again_once_a_chain_is_reshaped():
    fed = Federation()
    for cid in (1, 2):
        fed.add_chain(Chain(cid, length=2))
    deal = txn(1, [(1, 1, 0), (2, 1, 0)])
    glue = BettiGlue(fed, [deal], TopologyMode.ABSTRACT)
    assert glue.betti(0) == (1, 0)
    chain = fed.chain(1)
    chain.append_block(chain.spawn_fork(1), ())
    # the new block joins the deal's top, and its tip is stitched to the trunk block above it
    assert federation_betti(fed, [deal]) == (1, 2, 0)
    assert glue.betti(0) == (1, 2, 0)


def collapse_corpus():
    for path in sorted((Path(__file__).parent / "data").glob("*.scenario")):
        yield pytest.param(load_scenario(str(path))[0], id=path.stem)
    for seed in range(200):
        yield pytest.param(random_scenario(seed), id=f"random-{seed}")
    for n in range(2, 7):
        for m in range(1, 5):
            for mode in TopologyMode:
                yield pytest.param(replace(grid_scenario(n, m), mode=mode), id=f"grid-{n}-{m}-{mode.value}")


@pytest.mark.parametrize("scenario", collapse_corpus())
def test_collapsed_betti_equals_the_full_build_at_every_event(scenario):
    federation = scenario.build_federation()
    transactions = scenario.transactions()
    rows = _replay(scenario, federation, WriteAheadLog())
    for k in range(len(transactions) + 1):
        if k:
            next(rows)  # the federation event k reports as its betti_post
        pending = transactions[k:]
        assert federation_betti(federation, pending, scenario.mode, scenario.window) == full_betti(
            federation, pending, scenario.mode, scenario.window), k


def test_a_report_refuses_a_deal_naming_one_chain_twice():
    # two rows of chain 1 in one top: the glued pieces would not be disjoint
    fed = federation_of([2, 2])
    deal = txn(1, [(1, 1, 0), (1, 2, 0), (2, 1, 0)])
    message = "^txn 1: one block height per chain$"
    with pytest.raises(ValueError, match=message):
        deal.validate(fed)
    for mode in TopologyMode:
        with pytest.raises(ValueError, match=message):
            federation_betti(fed, [deal], mode)


@pytest.mark.parametrize("replicas", [1, 2, 3])
@pytest.mark.parametrize("length", [1, 10, 1_000_000])
def test_a_bare_replicated_trunk_closes_replicas_minus_one_loops_per_height(length, replicas):
    # each height's group links to the one below copy by copy: b1 = L(c - 1)
    fed = Federation()
    fed.add_chain(Chain(1, replicas=replicas, length=length))
    expected = (1, length * (replicas - 1)) + (0,) * (replicas - 2)
    assert federation_betti(fed, (), TopologyMode.REPLICATED) == expected
    if length <= 10:
        assert full_betti(fed, (), TopologyMode.REPLICATED, None) == expected


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_structural_loops_equal_the_closure_oracle(data):
    # canonical appends cross the fork tips below them, or run on up a
    # fork branch grown past the trunk
    fed = Federation()
    for cid in range(1, data.draw(st.integers(1, 2), label="chains") + 1):
        chain = forked_trunk(data, cid)
        for _ in range(data.draw(st.integers(0, 4), label="canonical appends")):
            chain.append(())
        fed.add_chain(chain)
    mode = data.draw(st.sampled_from(list(TopologyMode)), label="mode")
    closure = betti_from_cells(close_by_dimension(build_federation_complex(fed, (), mode).structural()))
    assert closure[0] == len(fed.chain_ids())
    assert structural_numbers(fed, mode) == closure[:2]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_windowed_structural_betti_equals_the_closure_oracle(data):
    # each chain cut to the heights a window keeps round the deals'
    fed = Federation()
    for cid in range(1, data.draw(st.integers(1, 2), label="chains") + 1):
        chain = forked_trunk(data, cid)
        for _ in range(data.draw(st.integers(0, 4), label="canonical appends")):
            chain.append(())
        fed.add_chain(chain)
    mode = data.draw(st.sampled_from(list(TopologyMode)), label="mode")
    window = data.draw(st.integers(0, 3), label="window")
    txns = draw_deals(data, fed, 3)
    structural = build_federation_complex(fed, txns, mode, window).structural()
    spans = topology._spans(fed, txns, window)
    assert structural_numbers(fed, mode, spans) == betti_from_cells(close_by_dimension(structural))[:2]


# -- tags and teardown ---------------------------------------------------------------

def test_structural_tags_cover_chain_parts():
    fed, t1, t2 = three_chain_two_txn()
    tagged = build_federation_complex(fed, [t1, t2])
    body, tags = tagged_to_text(tagged)
    lines = body.splitlines()
    marks = tags.splitlines()
    assert len(lines) == len(marks)
    assert set(marks) == {"structural", "txn:1", "txn:2"}
    # every vertex line is structural
    for line, mark in zip(lines, marks):
        if " " not in line:
            assert mark == "structural"


def tags_corpus():
    """Every scenario file under tests/data, ``random_scenario`` 0-199 and
    the grid points, each in both modes."""
    scenarios = [pytest.param(load_scenario(str(path))[0], id=path.stem)
                 for path in sorted((Path(__file__).parent / "data").glob("*.scenario"))]
    scenarios += [pytest.param(random_scenario(seed), id=f"random-{seed}") for seed in range(200)]
    scenarios += [pytest.param(grid_scenario(n, m), id=f"grid-{n}-{m}") for n in range(2, 7) for m in range(1, 5)]
    for param in scenarios:
        for mode in TopologyMode:
            yield pytest.param(replace(param.values[0], mode=mode), id=f"{param.id}-{mode.value}")


@pytest.mark.parametrize("scenario", tags_corpus())
def test_tags_equal_the_closure_rule(scenario):
    # with every deal pending, and with none
    n = len(scenario.transactions())
    for k in sorted({0, n}):
        tagged = betti_report(scenario, k)[1]
        assert tagged_to_text(tagged) == closure_tags(tagged), k


def test_teardown_removes_deal_faces_only():
    fed, t1, t2 = three_chain_two_txn()
    tagged = build_federation_complex(fed, [t1, t2])
    after = teardown_transaction(tagged, 2)
    assert 2 not in after.txn_tops
    assert_closes_its_generators(after)
    assert set(map(Simplex, tagged.structural())) <= after.complex.members()
    # the 2-party deal is still there
    assert after.txn_tops[1] in after.complex


def random_federation_and_txns(seed):
    """Forked, optionally replicated chains and up to four deals, some
    of them sharing blocks."""
    rng = SplitMix64(seed)
    fed = Federation()
    lengths = {}
    for cid in range(1, rng.randrange(2, 4) + 1):
        ch = Chain(cid, replicas=rng.randrange(1, 3))
        lengths[cid] = rng.randrange(1, 3)
        for _ in range(lengths[cid]):
            ch.append_block(0, ())
        for _ in range(rng.below(3)):
            label = ch.spawn_fork(rng.randrange(1, lengths[cid]))
            ch.append_block(label, ())
        fed.add_chain(ch)
    txns = []
    for tid in range(1, rng.randrange(1, 4) + 1):
        chains = sorted(lengths)
        rng.shuffle(chains)
        refs = [(cid, rng.randrange(1, lengths[cid]), 0) for cid in sorted(chains[: rng.randrange(1, len(chains))])]
        txns.append(txn(tid, refs))
    return fed, txns


@given(st.integers(0, 2**50), st.sampled_from(list(TopologyMode)))
@settings(max_examples=60, deadline=None)
def test_teardown_all_matches_bare_build(seed, mode):
    # tearing deals down one by one, in any order, is building without them
    fed, txns = random_federation_and_txns(seed)
    tagged = build_federation_complex(fed, txns, mode=mode)
    order = [t.id for t in txns]
    SplitMix64(seed + 1).shuffle(order)
    for i, tid in enumerate(order):
        tagged = teardown_transaction(tagged, tid)
        rebuilt = build_federation_complex(fed, [t for t in txns if t.id not in order[: i + 1]], mode=mode)
        assert tagged == rebuilt and tagged.complex == rebuilt.complex
        assert tagged_to_text(tagged) == tagged_to_text(rebuilt)
    assert tagged.txn_tops == {}


def test_teardown_drops_loop_once_both_deals_gone():
    fed, t1, t2 = three_chain_two_txn()
    tagged = build_federation_complex(fed, [t1, t2])
    assert tagged.betti_numbers()[1] == 1
    only_t1 = teardown_transaction(tagged, 2)
    assert only_t1.betti_numbers()[1] == 0  # loop needed both deals
    none = teardown_transaction(only_t1, 1)
    assert none.betti_numbers() == (3, 0)


def test_teardown_unknown_id_noop():
    fed, t1, _ = three_chain_two_txn()
    tagged = build_federation_complex(fed, [t1])
    again = teardown_transaction(tagged, 42)
    assert again.complex == tagged.complex


def test_teardown_idempotent():
    fed, t1, t2 = three_chain_two_txn()
    tagged = build_federation_complex(fed, [t1, t2])
    once = teardown_transaction(tagged, 1)
    twice = teardown_transaction(once, 1)
    assert once.complex == twice.complex


def test_shared_face_survives_other_teardown():
    # two deals over the same pair of blocks: the shared edge stays
    fed = federation_of([2, 2])
    ta = txn(1, [(1, 2, 0), (2, 2, 0)])
    tb = txn(2, [(1, 2, 0), (2, 2, 0)])
    tagged = build_federation_complex(fed, [ta, tb])
    after = teardown_transaction(tagged, 1)
    assert after.txn_tops[2] in after.complex
