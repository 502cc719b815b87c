"""The state each chain maintains on append, and the balance sheet its
federation keeps, judged by a from-scratch rescan.

The oracle below is the ancestor walk the chain used to run on every
read: the closure of the live branch tips, and the live blocks' payloads
summed in canonical order.
"""

from hypothesis import given, settings, strategies as st

from topocbt.chain import AssetUpdate, BlockRef, Chain, Compensation, Federation, Forward
from topocbt.harness import _replay
from topocbt.scenario import ChainSpec, Scenario, car_trading, parse_scenario
from topocbt.wal import WalKind, WriteAheadLog
from oracles import compensated_refs, is_live, ledger, live_branch_labels, random_scenario, whole_sheet_can_fund


# -- oracle ------------------------------------------------------------------------

def rescan_live(chain: Chain) -> set[BlockRef]:
    live: set[BlockRef] = set()
    for label in live_branch_labels(chain):
        info = chain.branches[label]
        if info.tip < 0:
            continue
        ref = BlockRef(chain.id, info.tip, label)
        while ref is not None and ref not in live:
            live.add(ref)
            ref = chain.block(ref).parent_ref
    return live


def rescan_compensated(chain: Chain) -> set[BlockRef]:
    return {
        record.undone
        for ref in rescan_live(chain)
        for record in chain.block(ref).payload
        if isinstance(record, Compensation)
    }


def rescan_ledger(chain: Chain, totals=None) -> dict:
    totals = {} if totals is None else totals
    for ref in sorted(rescan_live(chain)):
        for record in chain.block(ref).payload:
            if isinstance(record, AssetUpdate):
                key_from = (record.owner_from, record.asset)
                key_to = (record.owner_to, record.asset)
                totals[key_from] = totals.get(key_from, 0) - record.amount
                totals[key_to] = totals.get(key_to, 0) + record.amount
    return totals


def rescan_balances(federation: Federation) -> dict:
    totals = dict(federation.initial_balances)
    for cid in federation.chain_ids():
        rescan_ledger(federation.chain(cid), totals)
    return totals


def longest_branch(chain: Chain) -> int:
    """The longest-branch rule: the live branch with the highest tip, the lowest label among those."""
    return min((-info.tip, label) for label, info in chain.branches.items() if info.live)[1]


def assert_chain_matches_rescan(chain: Chain) -> None:
    assert chain.canonical_branch() == longest_branch(chain)
    live = rescan_live(chain)
    assert chain.live_refs() == live
    # the live trunk is one prefix: every branch-0 height, declared or
    # appended, up to the highest live one
    live_trunk = max(r.height for r in live if r.branch == 0)
    assert chain._live_trunk == live_trunk
    assert {r for r in live if r.branch == 0} == {BlockRef(chain.id, h, 0) for h in range(live_trunk + 1)}
    # the height index holds a row only at a height of a live block off
    # branch 0, and the forked heights, ascending, are its keys
    forked = sorted({r.height for r in live if r.branch})
    assert set(chain._live_at) == set(chain._forked) == set(forked)
    assert chain._forked == forked
    for height in range(-1, max(r.height for r in chain.all_refs()) + 2):
        assert chain.live_block_at(height) == tuple(sorted(r for r in live if r.height == height))
    heights = sorted({r.height for r in live})
    assert heights == list(range(len(heights)))  # no gap from genesis up
    assert chain.forked_heights(-1, len(heights)) == forked
    assert chain.forked_heights(2, 4) == [h for h in forked if 2 <= h <= 4]
    assert chain.forked_heights(3, 2) == []
    for height in set(heights) - set(forked):
        # elsewhere the trunk block alone, a child of the trunk block below
        assert chain.live_block_at(height) == (BlockRef(chain.id, height, 0),)
        parent = chain.block(BlockRef(chain.id, height, 0)).parent_ref
        assert parent is None or parent == BlockRef(chain.id, height - 1, 0)
    compensated = rescan_compensated(chain)
    assert compensated_refs(chain) == compensated
    assert ledger(chain) == rescan_ledger(chain)
    for ref in chain.all_refs():
        assert is_live(chain, ref) == (ref in live)
        assert chain.is_compensated(ref) == (ref in compensated)


def assert_federation_matches_rescan(federation: Federation) -> None:
    for cid in federation.chain_ids():
        assert_chain_matches_rescan(federation.chain(cid))
    expected = rescan_balances(federation)
    assert federation.balances() == expected
    # a chainless federation's digest is the digest of its initial sheet
    assert federation.state_digest() == Federation(expected).state_digest()


# -- random chain histories --------------------------------------------------------

PARTIES = ("p0", "p1", "p2")


def draw_update(data) -> AssetUpdate:
    frm, to = data.draw(st.permutations(PARTIES))[:2]
    return AssetUpdate(frm, to, data.draw(st.sampled_from("XY")), data.draw(st.integers(1, 5)))


def random_step(data, chain: Chain) -> None:
    """Grow ``chain`` by one drawn append, compensate, spawn_fork or
    resolve_forks step."""
    step = data.draw(st.sampled_from(["append", "append", "compensate", "fork", "resolve"]))
    if step in ("append", "compensate"):
        branch = data.draw(st.sampled_from(live_branch_labels(chain)))
        payload = tuple(draw_update(data) for _ in range(data.draw(st.integers(0, 2))))
        if step == "compensate":
            undone = data.draw(st.sampled_from(chain.all_refs()))
            payload = (Compensation(undone, data.draw(st.integers(1, 9))),) + payload
        chain.append_block(branch, payload)
    elif step == "fork":
        heights = sorted({r.height for r in chain.live_refs()})
        chain.spawn_fork(data.draw(st.sampled_from(heights)) + 1)
    else:
        chain.resolve_forks()


def random_history(data, chain: Chain, max_steps: int = 25):
    """Grow ``chain`` by a drawn run of steps, yielding after each step."""
    for _ in range(data.draw(st.integers(1, max_steps), label="steps")):
        random_step(data, chain)
        yield


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_maintained_state_equals_rescan_after_every_step(data):
    chain = Chain(1, assets=("X", "Y"), length=data.draw(st.integers(0, 6), label="declared length"))
    assert_chain_matches_rescan(chain)
    for _ in random_history(data, chain):
        assert_chain_matches_rescan(chain)


def assert_sheet_is_exact(federation: Federation, data) -> None:
    """The running sheet is the rescanned sum of the held chains' ledgers,
    key for key, zero entries included, and funding reads it as the
    whole-sheet rule does."""
    assert federation.balances() == rescan_balances(federation)
    updates = [draw_update(data) for _ in range(data.draw(st.integers(0, 4), label="face updates"))]
    assert federation.can_fund(updates) == whole_sheet_can_fund(federation, updates)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_the_federation_sheet_is_the_sum_of_its_chains_ledgers_after_every_step(data):
    # a key of no initial balance shows whether the sheet holds it as zero or not at all
    keys = [(party, asset) for party in PARTIES for asset in "XY"]
    initial = data.draw(st.dictionaries(st.sampled_from(keys), st.integers(0, 6)), label="initial")
    federation = Federation(initial)
    # chains join the federation at drawn steps, some after their first appends
    waiting = [
        Chain(cid, assets=("X", "Y"), length=data.draw(st.integers(0, 3), label="declared length"))
        for cid in range(1, data.draw(st.integers(1, 3), label="chains") + 1)
    ]
    assert_sheet_is_exact(federation, data)
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        if waiting and data.draw(st.integers(0, 3), label="join") == 0:
            federation.add_chain(waiting.pop(data.draw(st.integers(0, len(waiting) - 1))))
        else:
            held = [federation.chain(cid) for cid in federation.chain_ids()]
            random_step(data, data.draw(st.sampled_from(held + waiting), label="chain"))
        assert_sheet_is_exact(federation, data)


def test_a_resolution_drops_the_keys_only_a_retired_branch_held():
    federation = Federation()
    chain = federation.add_chain(Chain(1, assets=("X",), length=2))
    label = chain.spawn_fork(2)
    chain.append_block(label, (AssetUpdate("a", "zed", "X", 1),))
    assert federation.balances() == rescan_balances(federation) == {("a", "X"): -1, ("zed", "X"): 1}
    assert chain.resolve_forks() == 0  # the trunk ties the fork and has the lower label
    assert federation.balances() == rescan_balances(federation) == {}


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_next_ref_is_the_slot_the_next_append_fills(data):
    chain = Chain(1, assets=("X", "Y"))
    for _ in random_history(data, chain):
        assert chain.canonical_branch() == longest_branch(chain)
        if data.draw(st.booleans(), label="append on the canonical branch"):
            expected = chain.next_ref()
            assert chain.append((draw_update(data),)) == expected


def test_every_forward_block_sits_in_the_slot_its_undo_record_names():
    """An undo record names the slot ``Chain.next_ref`` reported before
    the append.  A slot the run left without that forward block (the
    face failed or crashed before its append) is empty, or holds a
    compensation block of the same transaction's rollback."""
    forward_slots = 0
    for seed in range(200):
        scenario = random_scenario(seed)
        federation = scenario.build_federation()
        wal = WriteAheadLog()
        for _ in _replay(scenario, federation, wal):
            pass
        undo = [rec for rec in wal.records if rec.kind is WalKind.UNDO]
        for rec in undo:
            chain = federation.chain(rec.block_ref.chain)
            if rec.block_ref not in chain.all_refs():
                continue
            head, *updates = chain.block(rec.block_ref).payload
            if head == Forward(rec.txn_id):
                assert tuple(updates) == rec.updates
                forward_slots += 1
            else:
                assert isinstance(head, Compensation) and head.txn_id == rec.txn_id
        logged = {(rec.block_ref, rec.txn_id) for rec in undo}
        for cid in federation.chain_ids():
            chain = federation.chain(cid)
            for ref in chain.all_refs():
                payload = chain.block(ref).payload
                if payload and isinstance(payload[0], Forward):
                    assert (ref, payload[0].txn_id) in logged
    assert forward_slots > 100


def assert_same_chain(built: Chain, expected: Chain) -> None:
    """Every block, hash included, every branch and the maintained state agree."""
    assert built.all_refs() == expected.all_refs()
    assert [built.block(r) for r in built.all_refs()] == [expected.block(r) for r in expected.all_refs()]
    assert built.branches == expected.branches
    assert built.canonical_branch() == expected.canonical_branch() == longest_branch(expected)
    heights = range(len({r.height for r in expected.live_refs()}) + 1)
    assert [built.live_block_at(h) for h in heights] == [expected.live_block_at(h) for h in heights]
    assert built.forked_heights(0, len(heights)) == expected.forked_heights(0, len(heights))
    assert ledger(built) == ledger(expected)
    assert compensated_refs(built) == compensated_refs(expected)
    assert built.hash_violations() == [] == expected.hash_violations()


@given(st.integers(0, 60), st.lists(st.tuples(st.integers(1, 70), st.integers(0, 3)), max_size=4))
@settings(max_examples=100, deadline=None)
def test_declared_history_equals_the_chain_built_block_by_block(length, forks):
    expected = Chain(1, replicas=2, assets=("X",))
    for _ in range(length):
        expected.append_block(0, ())
    declared = []
    for height, branches in forks:
        height = 1 + height % len({r.height for r in expected.live_refs()})  # a fork needs a block below it
        declared.append((height, branches))
        for _ in range(branches):
            expected.append_block(expected.spawn_fork(height), ())
    spec = ChainSpec(id=1, replicas=2, length=length, assets=("X",), forks=tuple(declared))
    built = Scenario(chains=[spec]).build_federation().chain(1)
    assert_same_chain(built, expected)
    assert_chain_matches_rescan(built)


@given(st.integers(1, 40), st.data())
@settings(max_examples=50, deadline=None)
def test_declared_trunk_retired_above_a_fork_equals_the_chain_built_block_by_block(length, data):
    height = data.draw(st.integers(1, length), label="fork height")
    outgrow = length - height + 2  # blocks the branch needs to pass the trunk's tip
    expected = Chain(1, assets=("X",))
    for _ in range(length):
        expected.append_block(0, ())
    label = expected.spawn_fork(height)
    for _ in range(outgrow):
        expected.append_block(label, ())
    built = Scenario(chains=[ChainSpec(id=1, length=length, assets=("X",), forks=((height, 1),))]).build_federation()
    built = built.chain(1)
    for _ in range(outgrow - 1):
        built.append_block(label, ())
    assert built.resolve_forks() == expected.resolve_forks() == label
    assert live_branch_labels(built) == [label]
    assert not any(built.live_block_at(h) == (BlockRef(1, h, 0),) for h in range(height, length + 1))
    assert_same_chain(built, expected)
    assert_chain_matches_rescan(built)


def test_returned_state_cannot_corrupt_the_chain():
    chain = Chain(1, assets=("X",))
    ref = chain.append_block(0, (AssetUpdate("a", "b", "X", 2),))
    chain.append_block(0, (Compensation(ref, 1), AssetUpdate("b", "a", "X", 2)))
    fork = chain.append_block(chain.spawn_fork(2), ())
    # a row is immutable: a forked one is handed out as stored, a trunk one
    # (declared or appended) built when read
    for height, row in ((0, (BlockRef(1, 0, 0),)), (1, (ref,))):
        built = chain.live_block_at(height)
        assert type(built) is tuple and built == row and chain.live_block_at(height) == row
    forked = chain.live_block_at(2)
    assert type(forked) is tuple and chain.live_block_at(2) is forked
    assert forked == (BlockRef(1, 2, 0), fork)
    assert isinstance(chain.live_refs(), frozenset)
    assert isinstance(compensated_refs(chain), frozenset)
    assert ledger(chain) == {("a", "X"): 0, ("b", "X"): 0}
    assert_chain_matches_rescan(chain)


def test_canonical_trunk_appends_take_no_row():
    chain = Chain(1)
    refs = [chain.append(()) for _ in range(10_000)]
    assert chain._live_at == {} and chain._forked == []
    assert all(chain.live_block_at(ref.height) == (ref,) for ref in refs)


def test_a_fork_that_wins_above_appended_trunk_blocks_keeps_them_live():
    chain = Chain(1, assets=("X",), length=2)
    trunk = [chain.append((AssetUpdate("a", "b", "X", 1),)) for _ in range(3)]  # heights 3 to 5
    label = chain.spawn_fork(5)  # its parent is the appended trunk block at height 4
    fork = [chain.append_block(label, ()) for _ in range(2)]  # heights 5 and 6: past the trunk's tip
    assert chain.resolve_forks() == label
    live = chain.live_refs()
    assert trunk[0] in live and trunk[1] in live and trunk[2] not in live
    assert chain._live_trunk == 4
    assert chain._live_at == {5: (fork[0],), 6: (fork[1],)} and chain._forked == [5, 6]
    assert ledger(chain) == {("a", "X"): -2, ("b", "X"): 2}
    assert_chain_matches_rescan(chain)


# -- whole runs ----------------------------------------------------------------------

# two forked chains resolved every second event, with deals that
# commit, abort on funding, and crash into recovery
FORKED_EPOCH_TEXT = """\
[scenario]
name = forked-epoch
epoch = 2

[chain]
id = 1
length = 4
assets = X
fork = 2 1
fork = 3 2
balance = a X 5

[chain]
id = 2
length = 3
assets = Y
fork = 2 1
balance = b Y 5

[txn]
id = 1
parties = a b
blocks = 1:4 2:3
sub = 1:4 ; a b X 2
sub = 2:3 ; b a Y 1

[txn]
id = 2
parties = a b
blocks = 1:4 2:3
sub = 1:4 ; a b X 9

[txn]
id = 3
parties = a b
blocks = 1:4 2:3
sub = 2:3 ; b a Y 2
sub = 1:4 ; a b X 1

[txn]
id = 4
parties = a b
blocks = 1:4 2:3
sub = 1:4 ; b a X 1

[txn]
id = 5
parties = a b
blocks = 1:4 2:3
sub = 2:3 ; a b Y 1

[failure]
txn = 3
kind = crash_before_commit
face = 2
"""


def test_balances_and_digest_equal_rescan_after_every_event():
    scenarios = [car_trading(), parse_scenario(FORKED_EPOCH_TEXT)]
    scenarios += [random_scenario(seed) for seed in range(200)]
    forked = 0
    for scenario in scenarios:
        federation = scenario.build_federation()
        assert_federation_matches_rescan(federation)
        for _ in _replay(scenario, federation, WriteAheadLog()):
            assert_federation_matches_rescan(federation)
        forked += any(len(federation.chain(cid).branches) > 1 for cid in federation.chain_ids())
    assert forked > 10
