import re
import struct
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from topocbt import chain as chain_module
from topocbt.baselines import Decision
from topocbt.chain import (
    AssetUpdate,
    Block,
    BlockRef,
    Chain,
    ChainError,
    Compensation,
    Conflict,
    Federation,
    Forward,
    GENESIS_PARENT,
    compute_block_hash,
)
from topocbt.harness import compare_protocols, run_scenario
from topocbt.scenario import ChainSpec, Scenario, car_trading, load_scenario
from topocbt.wal import WalKind, WriteAheadLog
from oracles import (
    EagerChain,
    SplitMix64,
    append_run,
    asset_totals,
    compensated_refs,
    ledger,
    live_branch_labels,
    reference_block_hash,
    streaming_state_digest,
    whole_sheet_can_fund,
)

DATA = Path(__file__).parent / "data"


def make_chain(length=3, chain_id=1):
    ch = Chain(chain_id)
    for _ in range(length):
        ch.append_block(0, ())
    return ch


# -- appending ---------------------------------------------------------------

def test_genesis_exists():
    ch = Chain(1)
    g = ch.block(BlockRef(1, 0, 0))
    assert g.parent_ref is None
    assert g.parent_hash == b"\x00" * 32


def test_append_links_to_parent():
    ch = Chain(1)
    ref = ch.append_block(0, ())
    assert ref == BlockRef(1, 1, 0)
    assert ch.block(ref).parent_hash == ch.block(BlockRef(1, 0, 0)).hash


def test_append_to_dead_branch_fails():
    ch = make_chain(2)
    label = ch.spawn_fork(2)
    ch.append_block(label, ())
    ch.resolve_forks()
    with pytest.raises(ChainError, match="dead"):
        ch.append_block(label, ())


def test_append_to_unknown_branch_fails():
    with pytest.raises(ChainError, match="unknown branch"):
        Chain(1).append_block(7, ())


def test_a_run_of_appended_blocks_seals_on_the_branch():
    ch = Chain(1)
    refs = append_run(ch, 0, [(), (AssetUpdate("a", "b", "X", 2),), ()])
    assert refs == [BlockRef(1, 1, 0), BlockRef(1, 2, 0), BlockRef(1, 3, 0)]
    for ref in refs:
        assert ch.block(ref).parent_hash == ch.block(ch.block(ref).parent_ref).hash
    assert ch.branches[0].tip == 3
    assert ledger(ch) == {("a", "X"): -2, ("b", "X"): 2}


# -- block refs ------------------------------------------------------------------

REF_FIELDS = st.tuples(st.integers(1, 5), st.integers(0, 5), st.integers(0, 3))
U32 = st.integers(0, 2**32 - 1)


@given(st.lists(REF_FIELDS, max_size=20))
@settings(max_examples=50, deadline=None)
def test_refs_sort_as_chain_height_branch(fields):
    refs = [BlockRef(*f) for f in fields]
    assert sorted(refs) == sorted(refs, key=lambda r: (r.chain, r.height, r.branch))
    assert [tuple(r) for r in sorted(refs)] == sorted(fields)


def test_ref_text_is_unchanged():
    ref = BlockRef(3, 14, 2)
    assert str(ref) == "3:14:2"
    assert repr(ref) == "BlockRef(chain=3, height=14, branch=2)"
    assert str(BlockRef(1, 7)) == "1:7:0"


def test_equal_refs_built_apart_are_one_key():
    a, b, c = BlockRef(1, 2, 0), BlockRef(1, 2), BlockRef(chain=1, height=2, branch=0)
    assert a == b == c == (1, 2, 0)
    assert len({a, b, c}) == 1
    assert {a: "x"}[b] == "x"
    assert BlockRef(1, 2, 1) != a and BlockRef(2, 1, 0) != a


def test_wal_round_trip_returns_equal_refs():
    wal = WriteAheadLog()
    refs = [BlockRef(1, 3, 0), BlockRef(2, 2, 1), BlockRef(2**32 - 1, 2**32 - 1, 2**32 - 1)]
    for ref in refs:
        wal.append(1, WalKind.UNDO, ref, (AssetUpdate("a", "b", "X", 1),))
    loaded = WriteAheadLog.from_bytes(wal.to_bytes())
    assert [rec.block_ref for rec in loaded.records] == refs
    assert all(type(rec.block_ref) is BlockRef for rec in loaded.records)
    assert {rec.block_ref for rec in loaded.records} == set(refs)


def test_chain_id_fits_the_hash_field():
    # a block hash packs the chain id as '>I'
    chain = Chain(2**32 - 1)
    assert chain.append_block(0, ()) == BlockRef(2**32 - 1, 1, 0)
    with pytest.raises(ChainError, match=f"^chain id {2**32} does not fit its 32-bit field$"):
        Chain(2**32)


def add_twice():
    fed = Federation()
    fed.add_chain(make_chain(3, 1))
    fed.add_chain(make_chain(3, 1))


@pytest.mark.parametrize("make, message", [
    (lambda: Chain(0), "chain ids start at 1"),
    (lambda: Chain(1, replicas=0), "a chain needs at least one replica"),
    (lambda: make_chain(3).spawn_fork(0), "cannot fork at or below genesis"),
    (add_twice, "duplicate chain id 1"),
    (lambda: Federation().chain(9), "no chain 9"),
], ids=["chain-id-0", "no-replica", "fork-at-genesis", "duplicate-chain-id", "no-such-chain"])
def test_a_chain_or_federation_refuses_with_its_message(make, message):
    with pytest.raises(ChainError, match=f"^{message}$"):
        make()


def test_update_amount_fits_the_block_and_log_field():
    # blocks and the WAL pack an amount as '>Q'
    top = AssetUpdate("a", "b", "X", 2**64 - 1)
    chain = Chain(1)
    ref = chain.append_block(0, (top,))
    assert ledger(chain) == {("a", "X"): -(2**64 - 1), ("b", "X"): 2**64 - 1}
    wal = WriteAheadLog()
    wal.append(1, WalKind.UNDO, ref, (top,))
    assert WriteAheadLog.from_bytes(wal.to_bytes()).records == wal.records
    with pytest.raises(ValueError, match=f"^update amount {2**64} does not fit its 64-bit field$"):
        AssetUpdate("a", "b", "X", 2**64)


def test_names_fit_their_16_bit_length_field():
    # blocks, the WAL and the state digest pack a name behind a '>H' length
    longest = "\u00e9" * (2**15 - 1) + "x"  # 65,535 UTF-8 bytes
    chain = Chain(1)
    ref = chain.append_block(0, (AssetUpdate(longest, "b", "X", 1),))
    assert chain.block(ref).payload[0].owner_from == longest
    with pytest.raises(ValueError, match="^a name of 65536 UTF-8 bytes does not fit its 16-bit length field$"):
        chain.append_block(0, (AssetUpdate("a", "b", "\u00e9" * 2**15, 1),))


# -- forks ---------------------------------------------------------------------

def test_spawn_fork_creates_sibling_at_height():
    ch = make_chain(3)
    label = ch.spawn_fork(2)
    ref = ch.append_block(label, ())
    assert ref == BlockRef(1, 2, label)
    assert ch.block(ref).parent_ref == BlockRef(1, 1, 0)
    # both height-2 blocks live
    assert ch.live_block_at(2) == (BlockRef(1, 2, 0), BlockRef(1, 2, label))


def test_spawn_two_forks_same_height():
    ch = make_chain(3)
    assert ch.spawn_fork(2) == 1
    assert ch.spawn_fork(2) == 2
    ch.append_block(1, ())
    ch.append_block(2, ())
    assert len(ch.live_block_at(2)) == 3


def test_spawn_beyond_tip_fails():
    ch = make_chain(2)
    with pytest.raises(ChainError, match="no live block"):
        ch.spawn_fork(5)


def test_forks_spawned_at_one_height_share_one_parent_ref():
    ch = make_chain(4)
    a, b = ch.spawn_fork(3), ch.spawn_fork(3)
    assert ch.branches[a].parent == BlockRef(1, 2, 0)
    assert ch.branches[a].parent is ch.branches[b].parent


def test_resolve_keeps_longest_branch():
    ch = make_chain(2)
    label = ch.spawn_fork(2)
    for _ in range(3):
        ch.append_block(label, ())  # fork reaches height 4
    # main stays at height 2: lengths (3, 5) in blocks from genesis
    assert ch.resolve_forks() == label
    assert live_branch_labels(ch) == [label]
    # shared trunk below the fork point stays live
    live = ch.live_refs()
    assert BlockRef(1, 1, 0) in live
    assert BlockRef(1, 2, 0) not in live


def test_resolve_tie_goes_to_lowest_label():
    ch = make_chain(3)
    label = ch.spawn_fork(3)
    ch.append_block(label, ())  # both tips at height 3
    assert ch.resolve_forks() == 0
    assert live_branch_labels(ch) == [0]


def test_resolve_single_branch_unchanged():
    ch = make_chain(2)
    assert ch.resolve_forks() == 0
    assert ch.live_refs() == {BlockRef(1, h, 0) for h in range(3)}


def test_reshapes_counts_every_change_but_a_canonical_append_at_the_top():
    ch = make_chain(2)
    ch.append(())
    append_run(ch, 0, [(), ()])
    assert ch.reshapes == 0
    label = ch.spawn_fork(3)
    assert ch.reshapes == 1
    ch.append_block(label, ())  # off the canonical branch
    assert ch.reshapes == 2
    for _ in range(3):  # off the canonical branch until the fork rises past the trunk
        ch.append_block(label, ())
    assert ch.canonical_branch() == label and ch.reshapes == 5
    ch.append_block(label, ())  # the canonical branch now
    assert ch.reshapes == 5
    assert ch.resolve_forks() == label and ch.reshapes == 6
    assert ch.resolve_forks() == label and ch.reshapes == 6  # nothing left to retire


def test_resolve_never_shortens_survivor():
    ch = make_chain(4)
    label = ch.spawn_fork(2)
    ch.append_block(label, ())
    before = {r for r in ch.live_refs() if r.branch == 0}
    ch.resolve_forks()
    assert before <= ch.live_refs()


# -- tamper evidence -------------------------------------------------------------

def test_verify_clean_chain():
    assert make_chain(4).hash_violations() == []
    assert Chain(1).hash_violations() == []  # genesis only


def test_tampered_payload_detected_at_block():
    ch = make_chain(3)
    victim = BlockRef(1, 2, 0)
    block = ch.block(victim)
    forged = (AssetUpdate("m", "a", "X", 5),)
    object.__setattr__(block, "payload", forged)
    assert ch.hash_violations() == [victim]


def test_tampered_parent_hash_detected():
    ch = make_chain(3)
    block = ch.block(BlockRef(1, 1, 0))
    object.__setattr__(block, "parent_hash", b"\x01" * 32)
    assert ch.hash_violations() == [BlockRef(1, 1, 0)]


def test_a_parentless_block_above_genesis_is_detected():
    ch = Chain(1, length=2)
    block = ch.block(BlockRef(1, 1, 0))
    object.__setattr__(block, "parent_ref", None)
    object.__setattr__(block, "parent_hash", GENESIS_PARENT)
    object.__setattr__(block, "hash", compute_block_hash(block.ref, GENESIS_PARENT, block.payload))
    assert ch.hash_violations() == [BlockRef(1, 1, 0)]


def test_tampered_block_of_a_one_pass_run_is_detected():
    ch = Chain(1)
    append_run(ch, 0, [()] * 5)
    assert ch.hash_violations() == []
    victim = BlockRef(1, 3, 0)
    object.__setattr__(ch.block(victim), "payload", (AssetUpdate("m", "a", "X", 5),))
    assert ch.hash_violations() == [victim]
    object.__setattr__(ch.block(BlockRef(1, 5, 0)), "parent_hash", b"\x01" * 32)
    assert ch.hash_violations() == [victim, BlockRef(1, 5, 0)]


@given(st.integers(0, 2**40))
@settings(max_examples=30, deadline=None)
def test_any_single_field_flip_is_detected(seed):
    rng = SplitMix64(seed)
    ch = Chain(1)
    for i in range(rng.randrange(1, 4)):
        ch.append_block(0, (AssetUpdate("a", "b", "X", i + 1),))
    victim_ref = rng.choice(sorted(ch.all_refs()))
    block = ch.block(victim_ref)
    field = rng.choice(["payload", "parent_hash"])
    if field == "payload":
        object.__setattr__(block, "payload", block.payload + (AssetUpdate("x", "y", "Z", 1),))
    else:
        object.__setattr__(block, "parent_hash", b"\x01" * 32)
    assert ch.hash_violations() == [victim_ref]


# -- hash bytes ------------------------------------------------------------------

NAMES = st.text(max_size=6)
RECORDS = st.one_of(
    st.builds(AssetUpdate, NAMES, NAMES, NAMES, st.integers(1, 2**64 - 1)),
    st.builds(Forward, st.integers(0, 2**64 - 1)),
    st.builds(Compensation, st.builds(BlockRef, U32, U32, U32), st.integers(0, 2**64 - 1)),
)


@given(st.builds(BlockRef, st.integers(1, 2**32 - 1), U32, U32), st.binary(min_size=32, max_size=32),
       st.lists(RECORDS, max_size=5))
@settings(max_examples=200, deadline=None)
def test_block_hash_equals_the_field_by_field_reference(ref, parent_hash, payload):
    payload = tuple(payload)
    assert compute_block_hash(ref, parent_hash, payload) == reference_block_hash(ref, parent_hash, payload)


def test_declared_hashes_are_the_hashes_of_sealed_empty_blocks():
    # known answers: chain 1's genesis and the empty block at height 2
    ch = Chain(1, length=2)
    assert ch.block(BlockRef(1, 0, 0)).hash.hex() == "610c67331fd02ea24177c59686474d115d1112e7af1a01833ce8d1a9d31cefc8"
    assert ch.block(BlockRef(1, 2, 0)).hash.hex() == "c5b73d84b2b9700d0643d04802b8886f1f0d591601615d1ee3fe0c51da851dc5"
    assert ch.block(BlockRef(1, 2, 0)).hash == make_chain(2).block(BlockRef(1, 2, 0)).hash


@given(st.integers(1, 2**32 - 1), st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_derived_trunk_hashes_equal_a_trunk_of_sealed_empty_blocks(chain_id, length):
    declared = Chain(chain_id, length=length)
    top = declared.append_block(0, ())  # derives every hash below it in one loop
    parent_ref, parent_hash = None, chain_module.GENESIS_PARENT
    for height in range(length + 1):
        sealed = Block.seal(BlockRef(chain_id, height, 0), parent_ref, parent_hash, ())
        assert declared.block(sealed.ref) == sealed
        parent_ref, parent_hash = sealed.ref, sealed.hash
    assert declared.block(top).parent_hash == parent_hash
    assert declared.hash_violations() == []


# -- the declared trunk ------------------------------------------------------------

def count_hashing(monkeypatch) -> list:
    """Record, from now on, the ref of each block sealed and the height
    of each declared hash derived."""
    calls = []
    derive = Chain._trunk_hash

    def counted(*args):
        calls.append(args[0])
        return compute_block_hash(*args)

    def derived(self, height):
        calls.append(height)
        return derive(self, height)

    monkeypatch.setattr(chain_module, "compute_block_hash", counted)
    monkeypatch.setattr(Chain, "_trunk_hash", derived)  # declared hashes are derived there, not sealed
    return calls


def test_building_a_declared_trunk_hashes_nothing(monkeypatch):
    calls = count_hashing(monkeypatch)
    federation = Scenario(chains=[ChainSpec(id=1, length=5000)]).build_federation()
    assert calls == []
    chain = federation.chain(1)
    assert chain.branches[0].tip == 5000 and len(chain.all_refs()) == 5001
    assert chain.live_block_at(5000) == (BlockRef(1, 5000, 0),)
    assert chain.hash_violations() == [] and calls == []


def test_a_deep_declared_trunk_holds_no_per_block_state():
    tracemalloc.start()
    try:
        chain = Chain(1, length=1_000_000)
        chain.append_block(0, (AssetUpdate("a", "b", "X", 1),))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert chain.live_block_at(1_000_001) == (BlockRef(1, 1_000_001, 0),)
    assert held < 2**20


def test_reading_above_a_deep_declared_trunk_holds_no_per_block_hashes():
    # a hash kept per declared block would hold about 9 MiB here
    chain = Chain(1, length=2**17)
    top = chain.append_block(0, (AssetUpdate("a", "b", "X", 1),))
    tracemalloc.start()
    try:
        block = chain.block(top)  # derives every declared hash below it
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert block.parent_ref == BlockRef(1, 2**17, 0)
    assert held < 2**20


DEEP = 3 * 1024 + 2  # deep enough that a read below the last one derives thousands of hashes again
EAGER_DEEP = EagerChain(1, length=DEEP)


@given(st.integers(0, DEEP), st.data())
@settings(max_examples=60, deadline=None)
def test_declared_blocks_read_in_any_order_equal_the_eager_seal(length, data):
    # each read derives from the last read below it, or from genesis
    chain = Chain(1, length=length)
    for height in data.draw(st.lists(st.integers(0, length), min_size=1, max_size=6), label="heights"):
        ref = BlockRef(1, height, 0)
        assert chain.block(ref) == EAGER_DEEP.block(ref)
    assert chain.hash_violations() == []


def test_a_declared_block_is_derived_from_its_height():
    ch = Chain(1, length=3)
    block = ch.block(BlockRef(1, 2, 0))
    assert (block.ref, block.parent_ref, block.payload) == (BlockRef(1, 2, 0), BlockRef(1, 1, 0), ())
    assert block.parent_hash == ch.block(BlockRef(1, 1, 0)).hash
    assert ch.block(BlockRef(1, 2, 0)) is block
    assert not ch.holds_forward(BlockRef(1, 2, 0), 0)
    for ref in (BlockRef(1, 4, 0), BlockRef(1, 2, 1), BlockRef(2, 2, 0)):
        with pytest.raises(ChainError, match="no block"):
            ch.block(ref)
    with pytest.raises(ChainError, match="negative"):
        Chain(1, length=-1)


def declared_tip_under_an_append():
    ch = Chain(1, length=4)
    ch.append_block(0, (AssetUpdate("a", "b", "X", 1),))
    return ch, BlockRef(1, 4, 0)


def declared_fork_parent():
    ch = Chain(1, length=4)
    ch.append_block(ch.spawn_fork(3), ())
    return ch, BlockRef(1, 2, 0)


@pytest.mark.parametrize("make", [declared_tip_under_an_append, declared_fork_parent])
@pytest.mark.parametrize("field", ["payload", "parent_hash"])
def test_a_declared_block_handed_out_and_tampered_is_detected(make, field):
    ch, victim = make()
    assert ch.hash_violations() == []
    forged = (AssetUpdate("m", "a", "X", 5),) if field == "payload" else b"\x01" * 32
    object.__setattr__(ch.block(victim), field, forged)
    assert ch.hash_violations() == [victim]


def test_a_child_resealed_on_the_wrong_declared_hash_is_detected():
    # the child's own hash verifies; only its link to the never-handed-out parent fails
    ch, _ = declared_fork_parent()
    child = ch.block(BlockRef(1, 3, 1))
    wrong = Chain(1, length=4).block(BlockRef(1, 3, 0)).hash
    object.__setattr__(child, "parent_hash", wrong)
    object.__setattr__(child, "hash", compute_block_hash(child.ref, wrong, child.payload))
    assert ch.hash_violations() == [BlockRef(1, 3, 1)]



# -- sealing on first read ----------------------------------------------------------

def test_appending_above_a_declared_trunk_hashes_nothing_until_read(monkeypatch):
    calls = count_hashing(monkeypatch)
    chain = Chain(1, length=5000)
    top = append_run(chain, 0, [(Forward(1), AssetUpdate("a", "b", "X", 1)), ()])[-1]
    append_run(chain, chain.spawn_fork(2500), [(Compensation(top, 1),)])
    assert calls == []
    assert ledger(chain) == {("a", "X"): -1, ("b", "X"): 1} and compensated_refs(chain) == {top}
    assert chain.holds_forward(BlockRef(1, 5001, 0), 1) and calls == []
    assert chain.block(top).parent_ref == BlockRef(1, 5001, 0)
    # the trunk's tip, derived up from genesis one empty block at a time, then the run below the read
    assert calls == [5000, *(BlockRef(1, h, 0) for h in range(5001)), BlockRef(1, 5001, 0), top]
    calls.clear()
    assert chain.hash_violations() == []
    assert BlockRef(1, 2500, 1) in calls


def test_no_run_or_comparison_seals_a_block(monkeypatch):
    calls = count_hashing(monkeypatch)
    scenarios = [car_trading()] + [load_scenario(str(path))[0] for path in sorted(DATA.glob("*.scenario"))]
    for scenario in scenarios:
        run_scenario(scenario, 1)
    compare_protocols(scenarios, [1])
    assert calls == []


NAME_PAST_H = (ValueError, "a name of 65536 UTF-8 bytes does not fit its 16-bit length field")
PAST_Q = (struct.error, "int too large to convert")  # what struct.pack('>Q', n) says


@pytest.mark.parametrize("make, refusal", [
    (lambda: AssetUpdate("a", "b", "\u00e9" * 2**15, 1), NAME_PAST_H),
    (lambda: Forward(2**64), PAST_Q),
    (lambda: Compensation(BlockRef(1, 1, 0), 2**64), PAST_Q),
    (lambda: Decision("GlobalCommit", 2**64), PAST_Q),
], ids=["name past >H", "forward txn past >Q", "compensation txn past >Q", "decision txn past >Q"])
def test_a_refused_run_leaves_the_chain_as_it_was(make, refusal):
    """A record that would not pack is refused as it is made, so a run
    that would carry it stores nothing."""
    chain = Chain(1, assets=("X",), length=2)
    chain.append_block(chain.spawn_fork(2), (AssetUpdate("a", "b", "X", 1),))

    def state():
        tips = {label: (info.tip, info.live) for label, info in chain.branches.items()}
        return chain.all_refs(), chain.live_refs(), tips, ledger(chain), compensated_refs(chain)

    before = state()
    error, message = refusal
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        chain.append_block(0, (AssetUpdate("a", "b", "X", 2), make()))
    assert state() == before
    assert chain.hash_violations() == []


@pytest.mark.parametrize("make, pack", [
    (lambda: AssetUpdate("\u00e9" * 2**15, "b", "X", 1), lambda: chain_module._pack_str("\u00e9" * 2**15)),
    (lambda: AssetUpdate("a", "\U0001f600" * 2**14, "X", 1), lambda: chain_module._pack_str("\U0001f600" * 2**14)),
    (lambda: Forward(-1), lambda: struct.pack(">Q", -1)),
    (lambda: Compensation(BlockRef(1, 2**32, 0), 1), lambda: struct.pack(">IIIQ", 1, 2**32, 0, 1)),
    (lambda: Compensation(BlockRef(1, 1, 0), -1), lambda: struct.pack(">IIIQ", 1, 1, 0, -1)),
    (lambda: Decision("x" * 2**16, 1), lambda: chain_module._pack_str("x" * 2**16)),
    (lambda: Decision("GlobalAbort", -1), lambda: struct.pack(">Q", -1)),
], ids=["sender name", "receiver name", "forward txn below 0", "compensation height past >I",
        "compensation txn below 0", "decision kind", "decision txn below 0"])
def test_a_record_refuses_a_field_that_would_not_pack_when_made(make, pack):
    """Each record checks its fields as it is made, with the error that
    packing the field gives."""
    with pytest.raises(Exception) as packing:
        pack()
    with pytest.raises(type(packing.value), match=f"^{re.escape(str(packing.value))}$"):
        make()


PAYLOADS = st.lists(st.lists(RECORDS, max_size=2).map(tuple), max_size=3)
TAMPERS = st.sampled_from([("payload", (AssetUpdate("m", "a", "X", 5),)), ("parent_hash", b"\x01" * 32)])


@given(st.integers(0, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_every_hash_handed_out_equals_the_eager_seal(length, data):
    chain, eager = Chain(1, length=length), EagerChain(1, length=length)
    for _ in range(data.draw(st.integers(1, 20), label="steps")):
        step = data.draw(st.sampled_from(["append", "append", "fork", "resolve", "read", "read", "tamper", "verify"]))
        if step == "append":
            branch = data.draw(st.sampled_from(live_branch_labels(chain)))
            payloads = data.draw(PAYLOADS)
            assert append_run(chain, branch, payloads) == append_run(eager, branch, payloads)
        elif step == "fork":  # at height 1, mid-trunk, beside the tip or above it
            top = max(ref.height for ref in chain.live_refs())
            height = data.draw(st.sampled_from(sorted({1, max(1, top // 2), max(1, top), top + 1})))
            assert chain.spawn_fork(height) == eager.spawn_fork(height)
        elif step == "resolve":
            assert chain.resolve_forks() == eager.resolve_forks()
        elif step in ("read", "tamper"):
            # a tip read seals the whole unsealed run below it
            tips = [BlockRef(1, info.tip, label) for label, info in chain.branches.items() if info.tip >= 0]
            ref = data.draw(st.sampled_from(tips if step == "read" else chain.all_refs()))
            assert chain.block(ref) == eager.block(ref)
            if step == "tamper":
                field, forged = data.draw(TAMPERS)
                for either in (chain, eager):
                    object.__setattr__(either.block(ref), field, forged)
        else:
            assert chain.hash_violations() == eager.hash_violations()
    assert chain.hash_violations() == eager.hash_violations()
    assert [chain.block(ref) for ref in chain.all_refs()] == [eager.block(ref) for ref in sorted(eager.blocks)]

# -- locks ------------------------------------------------------------------------

@pytest.fixture
def federation():
    fed = Federation()
    fed.add_chain(make_chain(3, 1))
    fed.add_chain(make_chain(3, 2))
    return fed


def test_lock_grant_and_release(federation):
    refs = [BlockRef(1, 1, 0), BlockRef(2, 2, 0)]
    assert federation.lock_blocks(refs, txn_id=7) is None
    assert federation.locks == {refs[0]: 7, refs[1]: 7}
    federation.release_blocks(refs, 7)
    assert federation.locks == {}


def test_lock_conflict_grants_nothing(federation):
    federation.lock_blocks([BlockRef(2, 1, 0)], txn_id=1)
    result = federation.lock_blocks([BlockRef(1, 1, 0), BlockRef(2, 1, 0)], txn_id=2)
    assert isinstance(result, Conflict)
    assert result.holder == 1
    assert all(holder == 1 for holder in federation.locks.values())


def test_lock_empty_set_is_vacuous_grant(federation):
    assert federation.lock_blocks([], txn_id=3) is None


def test_relock_by_same_txn_ok(federation):
    ref = BlockRef(1, 1, 0)
    federation.lock_blocks([ref], 5)
    assert federation.lock_blocks([ref], 5) is None


def test_release_wrong_holder_is_error(federation):
    ref = BlockRef(1, 1, 0)
    federation.lock_blocks([ref], 1)
    with pytest.raises(ChainError, match="held by txn 1"):
        federation.release_blocks([ref], 2)


def test_release_skips_a_ref_that_holds_no_lock(federation):
    held, free = BlockRef(1, 1, 0), BlockRef(2, 1, 0)
    federation.lock_blocks([held], 4)
    federation.release_blocks([held, free], 4)
    assert federation.locks == {}


def test_release_empty_noop(federation):
    federation.release_blocks([], 9)


def test_stepped_acquisition_never_creates_waits_for_cycle(federation):
    # schedule several requesters one-block-at-a-time; canonical order
    # means the waits-for relation can never close a cycle
    rng = SplitMix64(42)
    all_refs = [BlockRef(c, h, 0) for c in (1, 2) for h in range(3)]
    for trial in range(200):
        fed = Federation()
        fed.add_chain(make_chain(3, 1))
        fed.add_chain(make_chain(3, 2))
        wants = {}
        for txn in (1, 2, 3):
            pool = list(all_refs)
            rng.shuffle(pool)
            wants[txn] = sorted(pool[: rng.randrange(1, 4)])
        progress = {t: 0 for t in wants}
        waits_for = {}
        active = [t for t in wants if wants[t]]
        for _ in range(100):
            if not active:
                break
            txn = active[rng.below(len(active))]
            ref = wants[txn][progress[txn]]
            got = fed.lock_blocks([ref], txn)
            if isinstance(got, Conflict):
                waits_for[txn] = got.holder
            else:
                waits_for.pop(txn, None)
                progress[txn] += 1
                if progress[txn] == len(wants[txn]):
                    active.remove(txn)
            # cycle check over the waits-for edges
            for start in waits_for:
                seen = set()
                node = start
                while node in waits_for:
                    assert node not in seen, f"waits-for cycle in trial {trial}"
                    seen.add(node)
                    node = waits_for[node]


# -- balances and conservation ------------------------------------------------------

def test_balances_walk_live_blocks_only():
    fed = Federation({("a", "X"): 10})
    ch = fed.add_chain(Chain(1, assets=("X",)))
    ch.append_block(0, (AssetUpdate("a", "b", "X", 4),))
    label = ch.spawn_fork(1)
    ch.append_block(label, (AssetUpdate("a", "b", "X", 1),))
    # both branches live: both updates visible
    assert fed.balance("b", "X") == 5
    ch.append_block(0, ())
    ch.resolve_forks()  # branch 0 longer, fork dies
    assert fed.balance("b", "X") == 4
    assert fed.balance("a", "X") == 6


def updates_among(parties: str):
    party = st.sampled_from(parties)
    return st.builds(AssetUpdate, party, party, st.sampled_from("XY"), st.integers(1, 6))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_can_fund_reads_the_touched_balances_as_the_whole_sheet_rule_does(data):
    keys = [(party, asset) for party in "abc" for asset in "XYZ"]
    initial = data.draw(st.fixed_dictionaries({key: st.integers(0, 8) for key in keys}), label="initial")
    fed = Federation(initial)
    for cid in range(1, data.draw(st.integers(0, 3), label="chains") + 1):
        chain = fed.add_chain(Chain(cid, assets=("X", "Y"), length=data.draw(st.integers(0, 2))))
        for _ in range(data.draw(st.integers(0, 4), label="blocks")):
            branch = data.draw(st.sampled_from(live_branch_labels(chain)))
            chain.append_block(branch, data.draw(st.lists(updates_among("abc"), max_size=3)))
            if data.draw(st.integers(0, 3)) == 0:
                chain.spawn_fork(data.draw(st.sampled_from(sorted({r.height for r in chain.live_refs()}))) + 1)
            elif data.draw(st.integers(0, 3)) == 0:
                chain.resolve_forks()  # a retired branch's updates leave the sheet
    # two parties trading back and forth: a later update often spends what an earlier one paid in
    updates = data.draw(st.lists(updates_among("ab"), max_size=6), label="updates")
    assert fed.can_fund(updates) == whole_sheet_can_fund(fed, updates)


def test_the_lowest_chain_id_manages_a_shared_asset_whatever_the_order_added():
    fed = Federation()
    high = fed.add_chain(Chain(5, assets=("X", "Y")))
    low = fed.add_chain(Chain(2, assets=("Z", "X")))
    fed.add_chain(Chain(9, assets=("X",)))
    assert fed.chain_for_asset("X") is low
    assert fed.chain_for_asset("Y") is high
    assert fed.chain_for_asset("Z") is low


def test_a_chain_held_by_a_federation_is_refused_by_another():
    chain = Chain(1, assets=("X",))
    chain.append_block(0, (AssetUpdate("a", "b", "X", 2),))
    first = Federation()
    first.add_chain(chain)
    other = Federation({("a", "X"): 5})
    with pytest.raises(ChainError, match=r"^chain 1 is already in a federation$"):
        other.add_chain(chain)
    # the refusal leaves the other federation as it was
    assert other.chains == {} and other.balances() == {("a", "X"): 5}
    with pytest.raises(ChainError, match=r"^no chain manages asset 'X'$"):
        other.chain_for_asset("X")
    assert first.balances() == {("a", "X"): -2, ("b", "X"): 2}


def test_an_unknown_asset_names_itself_in_the_error():
    fed = Federation()
    fed.add_chain(Chain(1, assets=("X",)))
    with pytest.raises(ChainError, match=r"^no chain manages asset 'W'$"):
        fed.chain_for_asset("W")


def test_asset_conservation_under_random_transfers():
    rng = SplitMix64(7)
    fed = Federation({("p0", "X"): 50, ("p1", "X"): 50})
    ch = fed.add_chain(Chain(1, assets=("X",)))
    for _ in range(30):
        frm = f"p{rng.below(2)}"
        to = f"p{rng.below(4)}"
        ch.append_block(0, (AssetUpdate(frm, to, "X", rng.randrange(1, 5)),))
    assert asset_totals(fed)["X"] == 100


def test_state_digest_ignores_compensated_noise():
    fed = Federation({("a", "X"): 3})
    ch = fed.add_chain(Chain(1, assets=("X",)))
    before = fed.state_digest()
    ref = ch.append_block(0, (AssetUpdate("a", "b", "X", 3),))
    assert fed.state_digest() != before
    ch.append_block(0, (Compensation(ref, 1), AssetUpdate("b", "a", "X", 3)))
    assert fed.state_digest() == before
    assert compensated_refs(ch) == {ref}


NAMES = st.text(alphabet="abü\x00", max_size=3)


@given(st.dictionaries(st.tuples(NAMES, NAMES), st.integers(-3, 3) | st.integers(-(2**64), 2**64)))
@settings(max_examples=300, deadline=None)
@example({("a", "X"): 2**63 - 1, ("b", "X"): -(2**63)})
@example({("a", "X"): 1, ("b", "X"): 2**63})
@example({("a", "X"): 0})
def test_state_digest_is_the_digest_streamed_field_by_field(sheet):
    federation = Federation(sheet)
    try:
        expected = streaming_state_digest(sheet)
    except ChainError as refused:
        with pytest.raises(ChainError, match=f"^{re.escape(str(refused))}$"):
            federation.state_digest()
    else:
        assert federation.state_digest() == expected


def test_blocks_are_immutable_values():
    ch = make_chain(2)
    ref = BlockRef(1, 1, 0)
    block = ch.block(ref)
    with pytest.raises(AttributeError):
        block.payload = ()
    # same object identity later: the store never rewrites blocks
    assert ch.block(ref) is block


def test_update_amount_positive():
    with pytest.raises(ValueError):
        AssetUpdate("a", "b", "X", 0)
