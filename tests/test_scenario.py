import pytest
from hypothesis import given, settings, strategies as st

from topocbt.chain import BlockRef
from topocbt.engine import FailurePlan
from topocbt.scenario import (
    CAR_TRADING_TEXT,
    FAILURE_KINDS,
    MAX_BLOCKS,
    NAME_BYTES,
    REPLICAS,
    SUB_UPDATES,
    FailureSpec,
    ScenarioError,
    car_trading,
    grid_scenario,
    load_scenario,
    parse_scenario,
)
from topocbt.topology import TopologyMode
from oracles import random_scenario
from test_cli import assert_one_error_line, run_main
from test_simplicial import NOT_NEWLINES


def test_builtin_car_trading_shape():
    scen = car_trading()
    assert scen.name == "car-trading"
    assert [c.id for c in scen.chains] == [1, 2, 3]
    assert len(scen.txns) == 1
    assert len(scen.txns[0].sub_transactions) == 3
    fed = scen.build_federation()
    assert fed.balance("alice", "ETH") == 10
    assert fed.chain(1).branches[0].tip == 2


def test_load_builtin_by_name():
    scen, raw = load_scenario("car-trading")
    assert raw == CAR_TRADING_TEXT.encode()
    assert scen.name == "car-trading"


def test_load_missing_file_is_error():
    with pytest.raises(ScenarioError, match="no scenario file"):
        load_scenario("does-not-exist.scenario")


def test_parse_full_featured_scenario():
    text = """
[scenario]
name = forked
mode = abstract
epoch = 2
window = 1

[chain]
id = 1
length = 3
assets = X
fork = 2 1
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
blocks = 1:2 2:2
sub = 1:2 2:2 ; a b X 1, b a Y 1

[failure]
txn = 1
kind = crash_after_undo
face = 1
"""
    scen = parse_scenario(text)
    assert scen.epoch == 2 and scen.window == 1
    assert scen.chains[0].forks == ((2, 1),)
    assert scen.txns[0].sub_transactions[0].updates[1].asset == "Y"
    plan = scen.plan_for(1)
    assert plan.face_failures == ((1, "crash_after_undo"),)
    fed = scen.build_federation()
    assert fed.chain(1).live_block_at(2) == (BlockRef(1, 2, 0), BlockRef(1, 2, 1))


def test_parse_errors_carry_line_and_field():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("[chain]\nid = 1\nlength = soon\n")
    with pytest.raises(ScenarioError, match=r"line 1"):
        parse_scenario("stray text\n")
    with pytest.raises(ScenarioError, match="unknown section"):
        parse_scenario("[planet]\n")
    with pytest.raises(ScenarioError, match="unknown protocol"):
        parse_scenario("[txn]\nid = 1\nprotocol = 3pc\n")
    with pytest.raises(ScenarioError, match="unknown failure kind"):
        parse_scenario("[failure]\ntxn = 1\nkind = gremlins\n")
    with pytest.raises(ScenarioError, match="failure needs a kind"):
        parse_scenario("[failure]\ntxn = 1\n")
    with pytest.raises(ScenarioError, match="chain:height"):
        parse_scenario("[txn]\nid = 1\nblocks = 1-2\n")


@pytest.mark.parametrize("sep", NOT_NEWLINES, ids=lambda sep: f"U+{ord(sep):04X}")
def test_line_numbers_count_newlines_only(sep):
    # one line: a header followed by junk, so it is no header at all
    with pytest.raises(ScenarioError) as info:
        parse_scenario(f"[scenario]{sep}name = x\n")
    assert info.value.line == 1


def test_comments_and_blank_lines_ignored():
    scen = parse_scenario("# header\n\n[scenario]\nname = x  # trailing\n")
    assert scen.name == "x"


def test_plan_for_txn_without_failures_is_empty():
    assert car_trading().plan_for(1) == FailurePlan()


# Each failure kind, the key line that locates it, and the plan it parses to.
PLANNED = {
    "update_failure": ("face = 2", FailurePlan(face_failures=((2, "update_failure"),))),
    "crash_after_undo": ("face = 2", FailurePlan(face_failures=((2, "crash_after_undo"),))),
    "crash_before_commit": ("face = 2", FailurePlan(face_failures=((2, "crash_before_commit"),))),
    "walk_away": ("party = cindy", FailurePlan(walk_away="cindy")),
    "timeout": ("swap = 2", FailurePlan(timeout_swap=2)),
    "witness_crash": ("", FailurePlan(witness_crash=True)),
    "vote_abort": ("face = 2", FailurePlan(vote_abort_face=2)),
    "crash_after_record": ("record = 3", FailurePlan(crash_after_record=3)),
    "crash_after_append": ("append = 2", FailurePlan(crash_after_append=2)),
}


@pytest.mark.parametrize("kind", FAILURE_KINDS)
def test_each_failure_kind_parses_to_its_plan(kind):
    key, plan = PLANNED[kind]
    scen = parse_scenario(CAR_TRADING_TEXT + f"\n[failure]\ntxn = 1\nkind = {kind}\n{key}\n")
    assert scen.plan_for(1) == plan


def test_plan_for_rejects_a_built_failure_without_its_key():
    scen = car_trading()
    scen.failures.append(FailureSpec(txn=1, kind="crash_after_undo"))
    with pytest.raises(ScenarioError, match="needs a face"):
        scen.plan_for(1)


def test_failures_on_one_txn_merge_into_one_plan():
    scen = parse_scenario(
        CAR_TRADING_TEXT
        + "\n[failure]\ntxn = 1\nkind = witness_crash\n"
        + "\n[failure]\ntxn = 1\nkind = crash_before_commit\nface = 3\n"
        + "\n[failure]\ntxn = 1\nkind = update_failure\nface = 1\n"
    )
    assert scen.plan_for(1) == FailurePlan(
        face_failures=((3, "crash_before_commit"), (1, "update_failure")), witness_crash=True
    )


def test_grid_scenario_counts():
    scen = grid_scenario(4, 3)
    assert len(scen.chains) == 4
    assert len(scen.txns[0].sub_transactions) == 3
    assert all(len(s.updates) == 4 for s in scen.txns[0].sub_transactions)
    swap = grid_scenario(4, 3, protocol="ac2s")
    assert all(len(s.updates) == 2 for s in swap.txns[0].sub_transactions)


def test_grid_rejects_tiny_n():
    with pytest.raises(ScenarioError):
        grid_scenario(1, 1)


def test_random_scenario_is_seed_deterministic():
    a, b = random_scenario(123), random_scenario(123)
    assert a.chains == b.chains
    assert a.txns == b.txns
    assert a.failures == b.failures
    assert random_scenario(124).txns != a.txns or random_scenario(124).chains != a.chains


def test_random_scenarios_build_and_validate():
    for seed in range(30):
        scen = random_scenario(seed)
        fed = scen.build_federation()
        txn = scen.transactions()[0]
        txn.validate(fed)


def test_a_second_scenario_section_is_refused_at_its_header():
    text = "[scenario]\nmode = replicated\nepoch = 2\n\n[chain]\nid = 1\n\n[scenario]\nname = b\n"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.field) == (8, None)
    assert str(info.value) == "line 8: [scenario] is already declared at line 1"


def test_mode_parsing():
    scen = parse_scenario("[scenario]\nname = r\nmode = replicated\n")
    assert scen.mode is TopologyMode.REPLICATED
    with pytest.raises(ScenarioError, match="unknown mode"):
        parse_scenario("[scenario]\nmode = holographic\n")


def _edited(old, new):
    assert old in CAR_TRADING_TEXT
    return CAR_TRADING_TEXT.replace(old, new, 1)


def _appended(section):
    # CAR_TRADING_TEXT has 33 lines, so the section header is line 34
    return CAR_TRADING_TEXT + section


# two UTF-8 bytes a character, so a name's bound is counted in bytes
LONG_NAME = "\u00e9" * (NAME_BYTES // 2 + 1)
TOO_MANY_UPDATES = ", ".join(["alice bob ETH 1"] * (SUB_UPDATES + 1))

# (scenario text, line, field) of input the parser must reject
REJECTED = {
    "name past >H in parties": (_edited("parties = alice bob cindy", f"parties = alice bob {LONG_NAME}"), 29, "parties"),
    "name past >H in assets": (_edited("assets = ETH", f"assets = ETH {LONG_NAME}"), 11, "assets"),
    "name past >H in a balance": (_edited("balance = alice ETH", f"balance = {LONG_NAME} ETH"), 12, "balance"),
    "name past >H in a sub": (_edited("alice bob ETH 10\n", f"alice bob {LONG_NAME} 10\n"), 31, "sub"),
    "name past >H in a failure": (_appended(f"[failure]\ntxn = 1\nkind = walk_away\nparty = {LONG_NAME}\n"), 37, "party"),
    "';' in a party of parties": (_edited("parties = alice bob cindy", "parties = al;ice bob cindy"), 29, "parties"),
    "';' in a balance's party": (_edited("balance = alice ETH", "balance = al;ice ETH"), 12, "balance"),
    "';' in a sub's sender": (_edited("alice bob ETH 10\n", "al;ice bob ETH 10\n"), 31, "sub"),
    "';' in a sub's receiver": (_edited("cindy alice CAR 1\n", "cindy al;ice CAR 1\n"), 33, "sub"),
    "';' in a failure's party": (_appended("[failure]\ntxn = 1\nkind = walk_away\nparty = al;ice\n"), 37, "party"),
    "updates past >H in a sub": (_edited("sub = 1:2 ; alice bob ETH 10", f"sub = 1:2 ; {TOO_MANY_UPDATES}"), 31, "sub"),
    "comma in the scenario name": (_edited("name = car-trading", "name = car,trading"), 5, "name"),
    "key of another section in [txn]": (_edited("protocol = topocbt\n", "protocol = topocbt\nbalance = b Y 10\n"), 29, "balance"),
    "key of another section in [chain]": (_appended("[chain]\nid = 4\nparties = a b\n"), 36, "parties"),
    "key of another section in [scenario]": (_edited("mode = abstract\n", "mode = abstract\nrecord = 1\n"), 7, "record"),
    "repeated single-valued key": (_appended("[chain]\nid = 4\nlength = 1\nlength = 2\n"), 37, "length"),
    "duplicate txn id": (_appended("[txn]\nid = 1\nprotocol = ac2s\n"), 35, "id"),
    "crash_after_record without record": (_appended("[failure]\ntxn = 1\nkind = crash_after_record\n"), 34, "record"),
    "vote_abort without face": (_appended("[failure]\ntxn = 1\nkind = vote_abort\n"), 34, "face"),
    "timeout with the key of another kind": (_appended("[failure]\ntxn = 1\nkind = timeout\nrecord = 1\n"), 34, "swap"),
    "witness_crash with a face": (_appended("[failure]\ntxn = 1\nkind = witness_crash\nface = 1\n"), 37, "face"),
    "record = 0": (_appended("[failure]\ntxn = 1\nkind = crash_after_record\nrecord = 0\n"), 37, "record"),
    "face beyond the declared subs": (_appended("[failure]\ntxn = 1\nkind = update_failure\nface = 9\n"), 37, "face"),
    "undeclared party": (_appended("[failure]\ntxn = 1\nkind = walk_away\nparty = mallory\n"), 37, "party"),
    "undeclared txn": (_appended("[failure]\ntxn = 2\nkind = witness_crash\n"), 35, "txn"),
    "failure without a kind": (_appended("[failure]\ntxn = 1\nface = 1\n"), 34, "kind"),
    # a value outside a key's choices is refused at the key's line, not the header's
    "unknown mode below the header": (_edited("mode = abstract", "mode = holographic"), 6, "mode"),
    "unknown protocol below the header": (_edited("protocol = topocbt", "protocol = 3pc"), 28, "protocol"),
    "unknown failure kind below the header": (_appended("[failure]\ntxn = 1\nkind = gremlins\n"), 36, "kind"),
    "balance beyond >q": (_edited("alice ETH 10\n", "a X 99999999999999999999\n"), 12, "balance"),
    "balance below >q": (_edited("alice ETH 10\n", f"a X {-2**63 - 1}\n"), 12, "balance"),
    "amount beyond >q": (_edited("alice bob ETH 10\n", f"alice bob ETH {2**63}\n"), 31, "sub"),
    "zero amount": (_edited("alice bob ETH 10\n", "alice bob ETH 0\n"), 31, "sub"),
    "txn id beyond >Q": (_edited("[txn]\nid = 1\n", f"[txn]\nid = {2**64}\n"), 27, "id"),
    "negative txn id": (_edited("[txn]\nid = 1\n", "[txn]\nid = -1\n"), 27, "id"),
    "chain id beyond >I": (_edited("[chain]\nid = 1\n", f"[chain]\nid = {2**32}\n"), 9, "id"),
    "length beyond >I": (_edited("length = 2\nassets = ETH", f"length = {2**32}\nassets = ETH"), 10, "length"),
    "negative fork height": (_appended("[chain]\nid = 4\nfork = -1 1\n"), 36, "fork"),
    "chain beyond >I in blocks": (_edited("blocks = 1:2 2:2 3:2", f"blocks = 1:2 2:2 {2**32}:2"), 30, "blocks"),
    "negative branch in a sub": (_edited("sub = 2:2 ;", "sub = 2:2:-1 ;"), 32, "sub"),
    "chain id 0": (_edited("[chain]\nid = 1\n", "[chain]\nid = 0\n"), 9, "id"),
    "duplicate chain id": (_appended("[chain]\nid = 3\n"), 35, "id"),
    "replicas = 0": (_appended("[chain]\nid = 4\nreplicas = 0\n"), 36, "replicas"),
    "fork at genesis": (_appended("[chain]\nid = 4\nfork = 0 1\n"), 36, "fork"),
    "fork with no block below it": (_edited("length = 2\nassets = ETH", "length = 2\nfork = 9 1\nassets = ETH"), 11, "fork"),
    "fork above an empty fork": (_appended("[chain]\nid = 4\nfork = 2 0\nfork = 3 1\n"), 37, "fork"),
    "negative epoch": (_edited("mode = abstract\n", "mode = abstract\nepoch = -2\n"), 7, "epoch"),
    "negative window": (_edited("mode = abstract\n", "mode = abstract\nwindow = -3\n"), 7, "window"),
    "plus sign on a txn id": (_edited("[txn]\nid = 1\n", "[txn]\nid = +1\n"), 27, "id"),
    "underscore in a length": (_edited("length = 2\nassets = ETH", "length = 1_0\nassets = ETH"), 10, "length"),
    "Arabic-Indic digit in a balance": (_edited("alice ETH 10\n", "alice ETH \u0663\n"), 12, "balance"),
    "full-width digit in a block position": (_edited("blocks = 1:2 2:2 3:2", "blocks = 1:2 2:\uff12 3:2"), 30, "blocks"),
    "plus sign on an amount": (_edited("alice bob ETH 10\n", "alice bob ETH +10\n"), 31, "sub"),
    "space inside a number": (_edited("[txn]\nid = 1\n", "[txn]\nid = 1 0\n"), 27, "id"),
    "two minus signs": (_edited("alice ETH 10\n", "alice ETH --10\n"), 12, "balance"),
    # a run's first Betti report would build the deal's empty top before anything named the txn
    "txn without blocks": (_edited("blocks = 1:2 2:2 3:2\n", ""), 26, "blocks"),
    "txn with empty blocks": (_edited("blocks = 1:2 2:2 3:2", "blocks ="), 30, "blocks"),
    "txn without parties": (_edited("parties = alice bob cindy\n", ""), 26, "parties"),
    "txn with one party": (_edited("parties = alice bob cindy", "parties = alice"), 29, "parties"),
    "txn with empty parties": (_edited("parties = alice bob cindy", "parties ="), 29, "parties"),
    # a report glues a top to one row per chain; two rows of one chain once gave betti --at 0 a loop too few
    "txn naming one chain twice": (_edited("blocks = 1:2 2:2 3:2", "blocks = 1:2 2:2 1:1"), 30, "blocks"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_names_line_and_field(case):
    text, line, fld = REJECTED[case]
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.field) == (line, fld)
    assert str(info.value).startswith(f"line {line}: field {fld}: ")


@pytest.mark.parametrize("text, message", [
    (_appended("[chain]\nid = 4\nfork = 3\n"), "line 36: field fork: fork needs 'height branches'"),
    (_edited("sub = 1:2 ; alice bob ETH 10", "sub = ; alice bob ETH 1"),
     "line 31: field sub: sub needs at least one block"),
], ids=["fork-without-branches", "sub-without-blocks"])
def test_refused_input_reads_its_message(text, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert str(info.value) == message


def test_numbers_at_the_range_edges_parse():
    text = (
        CAR_TRADING_TEXT.replace("[txn]\nid = 1\n", f"[txn]\nid = {2**64 - 1}\n")
        .replace("alice ETH 10\n", f"alice ETH {2**63 - 1}\nbalance = bob ETH {-2**63}\n")
        .replace("alice bob ETH 10\n", f"alice bob ETH {2**63 - 1}\n")
    )
    scen = parse_scenario(text + f"[failure]\ntxn = {2**64 - 1}\nkind = crash_after_append\nappend = 1\n")
    assert scen.txns[0].id == 2**64 - 1
    assert scen.chains[0].balances == (("alice", "ETH", 2**63 - 1), ("bob", "ETH", -(2**63)))
    assert scen.txns[0].sub_transactions[0].updates[0].amount == 2**63 - 1
    assert scen.plan_for(2**64 - 1).crash_after_append == 1


@pytest.mark.parametrize("case", ["name past >H in parties", "updates past >H in a sub", "comma in the scenario name",
                                  "';' in a party of parties", "txn without blocks", "txn with empty blocks",
                                  "txn naming one chain twice"])
def test_run_refuses_what_its_outputs_cannot_hold_with_one_error_line(tmp_path, case):
    text, line, fld = REJECTED[case]
    assert_refused_by_run(tmp_path, text, line, fld, "--wal", str(tmp_path / "run.wal"))


def test_names_and_update_lists_at_their_bounds_parse():
    longest = "\u00e9" * (NAME_BYTES // 2) + "x"
    assert len(longest.encode("utf-8")) == NAME_BYTES
    text = CAR_TRADING_TEXT.replace("alice", longest).replace(
        "sub = 1:2 ;", "sub = 1:2 ; " + "bob cindy ETH 1, " * (SUB_UPDATES - 1))
    scen = parse_scenario(text + f"[failure]\ntxn = 1\nkind = walk_away\nparty = {longest}\n")
    assert scen.txns[0].parties[0] == longest
    assert len(scen.txns[0].sub_transactions[0].updates) == SUB_UPDATES
    assert scen.plan_for(1).walk_away == longest


# -- the work budget: checked at parse level only, no case starts a run ----------

def budget_text(chains) -> tuple[str, list[tuple[int, str]]]:
    """Scenario text for chains given as (replicas, length, fork branch
    counts), every fork at height 1, and the (line, field) of each block
    count in declaration order."""
    lines, where = [], []
    for cid, (replicas, length, forks) in enumerate(chains, start=1):
        lines += ["[chain]", f"id = {cid}", f"replicas = {replicas}", f"length = {length}"]
        where.append((len(lines), "length"))
        for branches in forks:
            lines.append(f"fork = 1 {branches}")
            where.append((len(lines), "fork"))
    return "\n".join(lines) + "\n", where


def assert_refused_by_run(tmp_path, text, line, fld, *options):
    path = tmp_path / "over.scenario"
    path.write_text(text)
    code, out, err = run_main(["run", "--scenario", str(path), *options])
    assert_one_error_line(code, out, err)
    assert err.startswith(f"error: line {line}: field {fld}: ")


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3), st.data())
@settings(max_examples=40, deadline=None)
def test_declared_blocks_at_the_budget_parse_and_one_more_is_refused(tmp_path_factory, forks, data):
    # split the budget at drawn cut points over every length and fork
    items = sum(1 + n for n in forks)
    cuts = sorted(data.draw(st.lists(st.integers(0, MAX_BLOCKS), min_size=items - 1, max_size=items - 1)))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [MAX_BLOCKS])]

    def chains(counts):
        it = iter(counts)
        return [(1, next(it), [next(it) for _ in range(n)]) for n in forks]

    text, where = budget_text(chains(counts))
    scen = parse_scenario(text)
    assert sum(c.length + sum(b for _, b in c.forks) for c in scen.chains) == MAX_BLOCKS

    counts[data.draw(st.integers(0, len(counts) - 1))] += 1
    text, where = budget_text(chains(counts))
    # the count that crosses the budget is the last nonzero one
    line, fld = where[max(i for i, c in enumerate(counts) if c)]
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.field) == (line, fld)
    assert_refused_by_run(tmp_path_factory.mktemp("budget"), text, line, fld)


@given(st.integers(1, 3), st.data())
@settings(max_examples=20, deadline=None)
def test_replicas_at_the_budget_parse_and_one_more_is_refused(tmp_path_factory, n_chains, data):
    top = REPLICAS[1]
    over = data.draw(st.integers(1, n_chains))
    scen = parse_scenario(budget_text([(top, 1, [])] * n_chains)[0])
    assert [c.replicas for c in scen.chains] == [top] * n_chains
    text, _ = budget_text([(top + (cid == over), 1, []) for cid in range(1, n_chains + 1)])
    line = 4 * over - 1  # the replicas line of chain `over`
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert (info.value.line, info.value.field) == (line, "replicas")
    assert_refused_by_run(tmp_path_factory.mktemp("budget"), text, line, "replicas")


def test_fork_may_start_one_above_an_earlier_fork():
    # length 1 (the default) ends at height 1; the branch at 2 holds a block at 2
    scen = parse_scenario(_appended("[chain]\nid = 4\nfork = 2 1\nfork = 3 2\n"))
    assert scen.chains[3].forks == ((2, 1), (3, 2))
    chain = scen.build_federation().chain(4)
    assert len(chain.live_block_at(3)) == 2


def test_failure_may_precede_its_txn():
    failure = "[failure]\ntxn = 1\nkind = walk_away\nparty = cindy\n\n"
    scen = parse_scenario(_edited("[txn]\n", failure + "[txn]\n"))
    assert scen.plan_for(1).walk_away == "cindy"
