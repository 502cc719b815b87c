import functools
import io
import re
import struct
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topocbt import cli, topology
from topocbt.cli import FIT_GRID_MAX, build_parser, main
from topocbt.engine import Status
from topocbt.harness import _replay, betti_report, run_scenario
from topocbt.scenario import CAR_TRADING_TEXT, SECTION_KEYS, car_trading, load_scenario
from topocbt.wal import WalKind, WriteAheadLog
from oracles import complex_from_text, dense_betti
from shapes import forked_deals, two_chain_deal
from test_harness import CANCELLING_DEAL_TEXT

DATA = Path(__file__).parent / "data"


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code: int, out: str, err: str) -> None:
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_run_builtin_to_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    wal = tmp_path / "run.wal"
    code = main(["run", "--scenario", "car-trading", "--seed", "1",
                 "--out", str(out), "--wal", str(wal)])
    assert code == 0
    assert out.read_text() == (DATA / "car_trading_topocbt_seed1.csv").read_text()
    assert wal.stat().st_size > 0


def test_run_with_protocol_override(capsys):
    code = main(["run", "--scenario", str(DATA / "car_trading_walkaway.scenario"),
                 "--protocol", "ac2s"])
    assert code == 0
    captured = capsys.readouterr()
    assert "PartialCommit" in captured.out


def test_run_refuses_a_party_name_that_would_split_the_worse_off_cell(tmp_path):
    # with the name accepted, ac2s reported worse_off `al;ice`, which reads back as two parties
    path = tmp_path / "semicolon.scenario"
    path.write_text((DATA / "car_trading_walkaway.scenario").read_text().replace("alice", "al;ice"))
    code, out, err = run_main(["run", "--scenario", str(path), "--protocol", "ac2s"])
    assert_one_error_line(code, out, err)
    assert err == "error: line 12: field balance: a party name takes no ';', got 'al;ice'\n"


def test_run_missing_scenario_exits_nonzero(capsys):
    code = main(["run", "--scenario", "ghost.scenario"])
    assert code != 0
    assert capsys.readouterr().err.startswith("error:")


def test_run_accepts_a_commit_whose_updates_cancel_out(tmp_path):
    scenario = tmp_path / "cancel.scenario"
    scenario.write_text(CANCELLING_DEAL_TEXT)
    code, out, err = run_main(["run", "--scenario", str(scenario)])
    assert (code, err) == (0, "")
    row = out.splitlines()[1].split(",")
    assert (row[4], row[5], row[10], row[11]) == ("Committed", "2", "none", "ok")


@pytest.mark.parametrize("argv", [
    ["compare", "--scenario-dir", str(DATA), "--seeds", "-1,0"],
    ["compare", "--scenario-dir", str(DATA), "--seeds", ""],
    ["compare", "--scenario-dir", str(DATA), "--seeds", "1,x"],
    ["run", "--scenario", "car-trading", "--seed", "x"],
    ["run", "--seed", "1"],
    ["bogus"],
    ["run", "--scenario", "car-trading", "x\ny"],
    ["compare", "--scenario-dir", "no\nsuch"],
    ["betti"],
    # --complex once ignored each of these and exited 0, --out writing nothing
    ["betti", "--complex", str(DATA / "car_trading_at0.complex"), "--scenario", "car-trading"],
    ["betti", "--scenario", "car-trading", "--complex", str(DATA / "car_trading_at0.complex")],
    ["betti", "--complex", str(DATA / "car_trading_at0.complex"), "--at", "0"],
    ["betti", "--at", "1", "--complex", str(DATA / "car_trading_at0.complex")],
    ["betti", "--complex", str(DATA / "car_trading_at0.complex"), "--out", str(DATA / "no_such_dir" / "x.complex")],
    # a failed write once came after the report was printed
    ["run", "--scenario", "car-trading", "--wal", str(DATA / "no_such_dir" / "x.wal")],
    ["betti", "--scenario", "car-trading", "--out", str(DATA / "no_such_dir" / "x")],
])
def test_bad_command_line_is_one_error_line(argv):
    assert_one_error_line(*run_main(argv))


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "car-trading", "--wal", "{dir}/ok.wal", "--out", "{dir}/no_such_dir/x.csv"],
    ["run", "--scenario", "car-trading", "--wal", "{dir}/no_such_dir/x.wal", "--out", "{dir}/ok.csv"],
    ["betti", "--scenario", "car-trading", "--out", "{dir}/no_such_dir/x"],
    ["betti", "--scenario", "car-trading", "--out", "{dir}/x"],  # x.tags is a directory
], ids=["run-out", "run-wal", "betti-out", "betti-tags"])
def test_a_failed_write_leaves_no_file_behind(tmp_path, argv):
    # the log or the complex written before the failed write once stayed
    (tmp_path / "x.tags").mkdir()
    assert_one_error_line(*run_main([arg.format(dir=tmp_path) for arg in argv]))
    assert [path.name for path in tmp_path.iterdir()] == ["x.tags"]


@pytest.mark.parametrize("command", [["betti", "--at", "0"], ["run"]])
def test_a_deal_naming_one_chain_twice_is_one_error_line(tmp_path, command):
    # betti --at 0 once printed `betti: 1 0 0` for it; run refused it only at execute
    path = tmp_path / "twice.scenario"
    path.write_text(CAR_TRADING_TEXT.replace("blocks = 1:2 2:2 3:2", "blocks = 1:1 1:2 2:1"))
    code, out, err = run_main([command[0], "--scenario", str(path), *command[1:]])
    assert_one_error_line(code, out, err)
    assert err == "error: line 30: field blocks: txn takes one block height per chain\n"


@pytest.mark.parametrize("seeds", ["", "1,x"])
def test_bad_seeds_name_the_flag(seeds):
    code, out, err = run_main(["compare", "--scenario-dir", str(DATA), "--seeds", seeds])
    assert_one_error_line(code, out, err)
    assert err == f"error: --seeds must be comma-separated integers, got {seeds!r}\n"


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "car-trading", "--seed", "٣"],
    ["run", "--scenario", "car-trading", "--seed", "+1"],
    ["betti", "--scenario", "car-trading", "--at", "١"],
    ["betti", "--scenario", "car-trading", "--at", "+1"],
    ["betti", "--scenario", "car-trading", "--at", " 1"],
    ["compare", "--scenario-dir", str(DATA), "--seeds", "1_0, ٢"],
    ["compare", "--scenario-dir", str(DATA), "--seeds", "1,+2"],
    ["fit", "--grid", "٦,٤"],
    ["fit", "--grid", "6,0_4"],
], ids=["seed-digit", "seed-plus", "at-digit", "at-plus", "at-space", "seeds-underscore-digit", "seeds-plus",
        "grid-digits", "grid-underscore"])
def test_command_line_integers_follow_the_scenario_integer_rule(monkeypatch, argv):
    # int() once read each of these: --at ١ read event 1, --seeds "1_0, ٢" labelled rows 10 and 2
    monkeypatch.setattr("topocbt.cli.measure_grid", lambda *args: pytest.fail("a refused grid was measured"))
    assert_one_error_line(*run_main(argv))


def test_one_parser_serves_every_call():
    # the parser is built once per process and keeps nothing between calls
    assert build_parser() is build_parser()
    assert_one_error_line(*run_main(["run", "--seed", "1"]))
    code, out, err = run_main(["run", "--scenario", "car-trading"])
    assert (code, err) == (0, "") and out.startswith("scenario,")
    assert_one_error_line(*run_main(["run", "--scenario", "car-trading", "--seed", "x"]))


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: topocbt run")


def test_betti_subcommand(capsys, tmp_path):
    code = main(["betti", "--scenario", "car-trading", "--at", "0"])
    assert code == 0
    assert "betti: 1 0 0" in capsys.readouterr().out

    out = tmp_path / "built.complex"
    code = main(["betti", "--scenario", "car-trading", "--at", "1", "--out", str(out)])
    assert code == 0
    assert out.exists() and Path(str(out) + ".tags").exists()


@pytest.mark.parametrize("scenario, golden, betti", [
    ("car-trading", "car_trading_at0.complex", "betti: 1 0 0"),
    (str(DATA / "forked_replicated_two_deals.scenario"), "forked_replicated_at0.complex", "betti: 1 8 0 0 0"),
], ids=["car-trading", "forked-replicated"])
def test_betti_out_matches_golden(tmp_path, capsys, scenario, golden, betti):
    out = tmp_path / "built.complex"
    assert main(["betti", "--scenario", scenario, "--at", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == betti
    assert out.read_bytes() == (DATA / golden).read_bytes()
    assert Path(str(out) + ".tags").read_bytes() == (DATA / (golden + ".tags")).read_bytes()


@pytest.mark.parametrize("mode, window", [("abstract", None), ("replicated", None), ("abstract", 1), ("replicated", 1)],
                         ids=["abstract", "replicated", "abstract-window1", "replicated-window1"])
def test_betti_without_out_builds_no_complex(monkeypatch, tmp_path, mode, window):
    # the vector is glued, not built, with a window too: betti --at k
    # makes only the builds of the k deals it replays, as a run with
    # Betti numbers off does
    path = tmp_path / "forked.scenario"
    path.write_text(forked_deals(window, mode=mode))
    scenario, _ = load_scenario(str(path))
    assert scenario.window == window
    builds = []
    build = topology.build_federation_complex
    monkeypatch.setattr(topology, "build_federation_complex",
                        lambda *args, **kwargs: builds.append(args) or build(*args, **kwargs))
    monkeypatch.setattr(topology.TaggedComplex, "betti_numbers", lambda tagged: pytest.fail("betti read a build"))
    for at in range(len(scenario.transactions()) + 1):
        for _ in islice(_replay(scenario, scenario.build_federation(), WriteAheadLog()), at):
            pass
        replayed = len(builds)
        builds.clear()
        code, out, err = run_main(["betti", "--scenario", str(path), "--at", str(at)])
        assert (code, err) == (0, "") and len(builds) == replayed == at
        builds.clear()
        assert out == "betti: " + " ".join(map(str, betti_report(scenario, at)[0])) + "\n"
        builds.clear()


def test_betti_from_complex_file(tmp_path, capsys):
    path = tmp_path / "ring.complex"
    path.write_text("0 1\n1 2\n0 2\n")
    code = main(["betti", "--complex", str(path)])
    assert code == 0
    assert "betti: 1 1" in capsys.readouterr().out


@pytest.mark.parametrize("data, line, token", [
    (b"2 1_0\n", 1, "'1_0'"),
    (b"0 1\n+3\n", 2, "'+3'"),
    (b"0\n-1\n", 2, "'-1'"),
    ("# comment\n0 \u0663\n".encode("utf-8"), 2, None),  # an Arabic-Indic three
    (b"0 1\n1 2 \xd9\n", 2, None),
], ids=["underscore", "plus-sign", "minus-sign", "arabic-indic-digit", "non-ascii-byte"])
def test_complex_file_takes_only_ascii_decimal_ids(tmp_path, capsys, data, line, token):
    path = tmp_path / "odd.complex"
    path.write_bytes(data)
    assert main(["betti", "--complex", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: line {line}: ")
    assert token is None or token in err


def test_betti_out_refuses_a_complex_past_the_face_budget(tmp_path):
    # Betti numbers need no closure, but the complex file lists all 2^40 - 1 faces of the deal
    path = tmp_path / "wide.scenario"
    path.write_text(two_chain_deal(20))
    out = tmp_path / "wide.complex"
    start = time.perf_counter()
    code, stdout, err = run_main(["betti", "--scenario", str(path), "--out", str(out)])
    assert time.perf_counter() - start < 1
    assert_one_error_line(code, stdout, err)
    assert err.startswith("error: the face closure may hold ") and "more than the budget of" in err
    assert list(tmp_path.iterdir()) == [path]


def test_betti_out_writes_a_complex_that_betti_complex_reads_back(tmp_path):
    # a top of 14 vertices: 16,383 faces on their own lines, each a face
    # of the top, whose sums of 2^|line| - 1 together pass the face budget
    path = tmp_path / "deal.scenario"
    path.write_text(two_chain_deal(7))
    out = tmp_path / "deal.complex"
    code, stdout, _ = run_main(["betti", "--scenario", str(path), "--out", str(out)])
    assert code == 0
    betti = stdout.splitlines()[0]
    code, again, err = run_main(["betti", "--complex", str(out)])
    assert (code, err) == (0, "")
    assert again.splitlines()[0] == betti


def test_a_complex_line_past_the_face_budget_is_refused_at_its_line(tmp_path):
    path = tmp_path / "wide.complex"
    path.write_text("0 1\n" + " ".join(map(str, range(30))) + "\n")
    start = time.perf_counter()
    code, out, err = run_main(["betti", "--complex", str(path)])
    assert time.perf_counter() - start < 1
    assert_one_error_line(code, out, err)
    assert err.startswith("error: line 2: the face closure may hold ")


def well_formed(data: bytes) -> bool:
    """Every line is blank, a comment, or ascending ASCII decimal ids."""
    if not data.isascii():
        return False
    for line in data.decode("ascii").splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if not all(tok.isdigit() for tok in tokens):
            return False
        ids = [int(tok) for tok in tokens]
        if ids != sorted(set(ids)):
            return False
    return True


WHITESPACE = set(b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")
TOKENS = st.one_of(
    st.integers(0, 12).map(lambda v: str(v).encode()),
    st.sampled_from([b"#", b"+1", b"-1", b"1_0", b"007", b"0x1", "\u0663".encode("utf-8"), b"\xff", b"\x00"]),
    st.binary(min_size=1, max_size=3).filter(lambda b: not WHITESPACE & set(b)),
)
LINES = st.one_of(
    st.sets(st.integers(0, 12), min_size=1, max_size=8).map(lambda vs: " ".join(map(str, sorted(vs))).encode()),
    st.lists(TOKENS, max_size=8).map(b" ".join),
    st.sampled_from([b"", b"# a comment", b"  \t", b"\r"]),
)


@given(st.lists(LINES, max_size=6).map(b"\n".join))
@settings(max_examples=150, deadline=None)
def test_betti_complex_fuzz_is_a_betti_line_or_one_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.complex"
    path.write_bytes(data)
    code, out, err = run_main(["betti", "--complex", str(path)])
    if well_formed(data):
        betti = dense_betti(complex_from_text(data.decode("ascii")))
        assert (code, out, err) == (0, "betti: " + " ".join(map(str, betti)) + "\n", "")
    else:
        assert_one_error_line(code, out, err)
        assert err.startswith("error: line ") and len(err.splitlines()) == 1


def test_scenario_with_a_non_ascii_digit_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "digits.scenario"
    path.write_bytes(CAR_TRADING_TEXT.replace("length = 2\n", "length = \u0662\n", 1).encode("utf-8"))
    assert main(["run", "--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: line 10: field length: expected integer, got '\u0662'"]


def test_non_utf8_scenario_names_the_line_of_the_bad_byte(tmp_path, capsys):
    path = tmp_path / "latin1.scenario"
    path.write_bytes(b"[scenario]\nname = x\xff\n")
    assert main(["run", "--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: line 2: not UTF-8 text: invalid start byte at byte 19"]


def test_betti_out_of_range_event(capsys):
    code = main(["betti", "--scenario", "car-trading", "--at", "7"])
    assert code != 0
    assert "out of range" in capsys.readouterr().err


def test_betti_needs_some_input(capsys):
    assert main(["betti"]) != 0


def test_compare_directory(tmp_path, capsys):
    (tmp_path / "a.scenario").write_text(CAR_TRADING_TEXT)
    out = tmp_path / "table.csv"
    code = main(["compare", "--scenario-dir", str(tmp_path), "--seeds", "1,2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("protocol,scenario,seed")
    assert len(lines) == 1 + 2 * 3  # two seeds, three protocols


UNDECLARED_CHAIN_DEAL = """\
[scenario]
name = undeclared-chain

[chain]
id = 1
length = 2
assets = ETH
balance = alice ETH 10

[txn]
id = 1
parties = alice bob
blocks = 1:2 9:1
sub = 1:2 ; alice bob ETH 10
"""


def test_run_and_compare_refuse_a_deal_on_an_undeclared_chain_alike(tmp_path):
    # run builds the Betti complex before the engine sees the deal; both reach expand_refs's check
    scenario = tmp_path / "deal.scenario"
    scenario.write_text(UNDECLARED_CHAIN_DEAL)
    run = run_main(["run", "--scenario", str(scenario)])
    compare = run_main(["compare", "--scenario-dir", str(tmp_path), "--seeds", "1"])
    assert_one_error_line(*run)
    assert run == compare == (2, "", "error: txn 1: block 9:1:0 is missing or on a dead branch\n")


def test_run_refuses_a_face_moving_an_asset_on_a_chain_it_names_no_block_of(tmp_path):
    scenario = tmp_path / "deal.scenario"
    scenario.write_text(CAR_TRADING_TEXT.replace("sub = 1:2 ; alice bob ETH 10", "sub = 1:2 ; bob cindy BTC 1"))
    assert run_main(["run", "--scenario", str(scenario)]) == (
        2, "", "error: txn 1: face 1 moves BTC but has no block on chain 2\n")


def test_run_exits_1_on_each_invariant_failure(monkeypatch):
    def doctored(*args, **kwargs):
        report = run_scenario(*args, **kwargs)
        report.rows[0] = replace(report.rows[0], status=Status.ABORTED)
        return report

    monkeypatch.setattr(cli, "run_scenario", doctored)
    code, out, err = run_main(["run", "--scenario", "car-trading"])
    assert (code, err) == (1, "error: invariant: txn 1: status Aborted but audit all\n")
    assert out.startswith("scenario,") and ",Aborted," in out


def test_compare_empty_directory(tmp_path, capsys):
    assert main(["compare", "--scenario-dir", str(tmp_path)]) != 0


def test_fit_default_grid(capsys):
    code = main(["fit", "--grid", "6,4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "fits better" in out


@pytest.mark.parametrize("argv, golden", [
    (["fit"], "fit_grid_6_4.txt"),
    (["fit", "--grid", "10,6"], "fit_grid_10_6.txt"),
], ids=["default-grid", "grid-10-6"])
def test_fit_prints_the_golden_lines(capsys, argv, golden):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (DATA / golden).read_bytes()


def test_fit_rejects_bad_grid(capsys):
    assert main(["fit", "--grid", "nope"]) != 0
    assert main(["fit", "--grid", "2,1"]) != 0


def test_fit_refuses_a_grid_of_under_six_points_before_measuring(monkeypatch):
    # 3,2 passes the per-axis minimums, but its (3 - 1) * 2 points are fewer than fit_ops needs
    calls = []
    monkeypatch.setattr("topocbt.cli.measure_grid", lambda *args: calls.append(args))
    code, out, err = run_main(["fit", "--grid", "3,2"])
    assert_one_error_line(code, out, err)
    assert err == "error: grid too small for a meaningful fit\n" and calls == []


@pytest.mark.parametrize("grid", [f"{FIT_GRID_MAX + 1},2", f"3,{FIT_GRID_MAX + 1}", "99999999999,2"])
def test_fit_refuses_a_grid_past_its_cap_at_once(capsys, grid):
    start = time.perf_counter()
    assert main(["fit", "--grid", grid]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --grid takes nmax and mmax up to {FIT_GRID_MAX}, got {grid!r}\n"


def recover_output(capsys) -> list[str]:
    """The two digest lines `recover` printed, without their labels."""
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("digest before recovery:")
    assert lines[1].startswith("digest after recovery:")
    return [line.split(":", 1)[1].strip() for line in lines[:2]]


def test_recover_subcommand_round_trip(tmp_path, capsys):
    scenario_file = tmp_path / "crash.scenario"
    scenario_file.write_text(CAR_TRADING_TEXT + "\n[failure]\ntxn = 1\nkind = crash_after_undo\nface = 3\n")
    wal_file = tmp_path / "crash.wal"
    code = main(["run", "--scenario", str(scenario_file), "--seed", "1", "--wal", str(wal_file),
                 "--out", str(tmp_path / "r.csv")])
    assert code == 0
    code = main(["recover", "--wal", str(wal_file), "--scenario", str(scenario_file)])
    assert code == 0
    # the run's recovery rolled txn 1 back and logged its abort, so none
    # of its blocks is rebuilt
    pre = car_trading().build_federation().state_digest()
    assert recover_output(capsys) == [pre, pre]


def test_recover_reused_slot_matches_the_run(tmp_path, capsys):
    scenario_file = str(DATA / "reused_slot.scenario")
    wal_file = tmp_path / "run.wal"
    assert main(["run", "--scenario", scenario_file, "--wal", str(wal_file)]) == 0
    final = capsys.readouterr().out.splitlines()[-1].removeprefix("# digest: ")
    assert main(["recover", "--wal", str(wal_file), "--scenario", scenario_file]) == 0
    assert recover_output(capsys)[1] == final


def test_recover_malformed_wal_is_one_error_line(tmp_path, capsys):
    body = struct.pack(">QQB", 1, 1, 0) + b"\x00" * 4  # undo header cut short
    wal_file = tmp_path / "bad.wal"
    wal_file.write_bytes(struct.pack(">I", len(body)) + body)
    code = main(["recover", "--wal", str(wal_file), "--scenario", "car-trading"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: record 0: truncated undo header"]


def committed_car_trading_log(tmp_path) -> str:
    wal_file = tmp_path / "run.wal"
    assert main(["run", "--scenario", "car-trading", "--wal", str(wal_file), "--out", str(tmp_path / "r.csv")]) == 0
    return str(wal_file)


def test_recover_rejects_a_log_that_does_not_replay(tmp_path, capsys):
    wal_file = committed_car_trading_log(tmp_path)
    # chain 1 one block shorter: the deal names block 1:2, which the
    # rerun of this scenario cannot lock, so it never reaches record 0
    shorter = tmp_path / "shorter.scenario"
    shorter.write_text(CAR_TRADING_TEXT.replace("length = 2\nassets = ETH", "length = 1\nassets = ETH"))
    capsys.readouterr()
    assert main(["recover", "--wal", wal_file, "--scenario", str(shorter)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: txn 1: block 1:2:0 is missing or on a dead branch"]
    assert "digest" not in captured.out


def test_recover_rejects_a_log_whose_slot_is_taken(tmp_path, capsys):
    wal_file = committed_car_trading_log(tmp_path)
    # chain 2 one block longer: the logged 2:3:0 is already there, so the
    # rerun plans its block one slot higher
    longer = tmp_path / "longer.scenario"
    longer.write_text(CAR_TRADING_TEXT.replace("length = 2\nassets = BTC", "length = 3\nassets = BTC"))
    capsys.readouterr()
    assert main(["recover", "--wal", wal_file, "--scenario", str(longer)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: record 1: logged block_ref 2:3:0, the run writes 2:4:0"]
    assert "digest" not in captured.out


def test_recover_rejects_a_log_with_a_changed_amount(tmp_path, capsys):
    wal_file = committed_car_trading_log(tmp_path)
    wal = WriteAheadLog.read(wal_file)
    rec = wal.records[1]
    wal.records[1] = replace(rec, updates=(replace(rec.updates[0], amount=2),))
    wal.write(wal_file)
    capsys.readouterr()
    assert main(["recover", "--wal", wal_file, "--scenario", "car-trading"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: record 1: logged updates [bob cindy BTC 2], the run writes [bob cindy BTC 1]"
    ]
    assert "digest" not in captured.out


def test_recover_rejects_a_log_with_a_changed_kind(tmp_path, capsys):
    wal_file = committed_car_trading_log(tmp_path)
    wal = WriteAheadLog.read(wal_file)
    wal.records[3] = replace(wal.records[3], kind=WalKind.ABORT)
    wal.write(wal_file)
    capsys.readouterr()
    assert main(["recover", "--wal", wal_file, "--scenario", "car-trading"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: record 3: logged kind abort, the run writes commit"]
    assert "digest" not in captured.out


def test_recover_rejects_a_log_longer_than_the_run(tmp_path, capsys):
    wal_file = committed_car_trading_log(tmp_path)
    wal = WriteAheadLog.read(wal_file)
    wal.append(2, WalKind.COMMIT)
    wal.write(wal_file)
    capsys.readouterr()
    assert main(["recover", "--wal", wal_file, "--scenario", "car-trading"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: record 4: the run writes only 4 records"]
    assert "digest" not in captured.out


def test_recover_rebuilds_a_mixed_protocol_run(tmp_path, capsys):
    # the car deal runs as pairwise swaps, which log nothing; the rerun
    # makes their transfers again, so the digests match the run's
    mixed = tmp_path / "mixed.scenario"
    mixed.write_text(CAR_TRADING_TEXT.replace("protocol = topocbt", "protocol = ac2s") + """
[txn]
id = 2
parties = alice bob
blocks = 1:2 2:2
sub = 1:2 ; bob alice ETH 1
""")
    wal_file = tmp_path / "run.wal"
    assert main(["run", "--scenario", str(mixed), "--wal", str(wal_file)]) == 0
    final = capsys.readouterr().out.splitlines()[-1].removeprefix("# digest: ")
    assert wal_file.stat().st_size > 0
    assert main(["recover", "--wal", str(wal_file), "--scenario", str(mixed)]) == 0
    assert recover_output(capsys) == [final, final]


def test_balance_beyond_the_digest_is_one_error_line(tmp_path, capsys):
    # each balance fits the digest's '>q'; alice's CAR after the deal does not
    path = tmp_path / "rich.scenario"
    path.write_text(CAR_TRADING_TEXT.replace("cindy CAR 1\n", f"cindy CAR 1\nbalance = alice CAR {2**63 - 1}\n"))
    assert main(["run", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: balance of alice in CAR is {2**63}, beyond the digest's 64-bit field"
    ]


def test_out_of_range_number_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "huge.scenario"
    path.write_text(CAR_TRADING_TEXT.replace("alice ETH 10", "a X 99999999999999999999"))
    assert main(["run", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: line 12: field balance: ")


# -- scenario fuzzing through `topocbt run` ----------------------------------------

SCENARIO_TEXTS = [CAR_TRADING_TEXT] + [p.read_text() for p in sorted(DATA.glob("*.scenario"))]
# "\n" ends a line; str.splitlines() would break at all the others too
BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
PIECES = st.sampled_from(BREAKS + [" ", "\t", "=", "#", "[", "]", ":", ";", ",", "x", "-", "\u00e9"])
# small numbers only: a long chain or many replicas is a slow run, not a bad one
VALUES = st.sampled_from([
    "", "0", "1", "2", "3", "-1", "x", "a b", "X", "1:1 2:1", "1:2 ; a b X 1", "2:2:1",
    "abstract", "replicated", "topocbt", "ac2s", "ac3wn", "crash_after_record", "walk_away", str(2**64),
])
HEADERS = [f"[{section}]" for section in SECTION_KEYS] + ["[planet]", "[chain"]
KEYS = sorted(set().union(*SECTION_KEYS.values())) + ["colour"]


@st.composite
def mutated_scenario_text(draw):
    lines = draw(st.sampled_from(SCENARIO_TEXTS)).split("\n")
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(["insert", "delete", "drop", "copy", "swap", "value"]))
        if op == "insert":
            at = draw(st.integers(0, len(line)))
            lines[i] = line[:at] + draw(PIECES) + line[at:]
        elif op == "delete" and line:
            at = draw(st.integers(0, len(line) - 1))
            lines[i] = line[:at] + line[at + 1:]
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "copy":
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], line
        elif op == "value" and "=" in line:
            lines[i] = line.partition("=")[0] + "= " + draw(VALUES)
    return "\n".join(lines)


RANDOM_SCENARIO_TEXT = st.lists(
    st.one_of(
        st.sampled_from(HEADERS),
        st.builds("{} = {}".format, st.sampled_from(KEYS), VALUES),
        PIECES,
    ),
    max_size=16,
).map("\n".join)


@given(st.one_of(mutated_scenario_text(), RANDOM_SCENARIO_TEXT))
@settings(max_examples=200, deadline=None)
def test_run_fuzz_is_a_report_or_one_error_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.scenario"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = run_main(["run", "--scenario", str(path)])
    if code == 0:
        assert out.startswith("scenario,") and "error:" not in err
        return
    # one line: the message may echo any character but "\n"
    assert_one_error_line(code, out, err)
    for number in re.findall(r"\bline (\d+)", err):
        assert int(number) <= text.count("\n") + 1


# -- fuzzing `topocbt recover` and `topocbt betti --scenario` -----------------------

SHIPPED = ["car-trading"] + [str(p) for p in sorted(DATA.glob("*.scenario"))]


@functools.cache
def shipped_log_frames(index: int) -> tuple[bytes, ...]:
    """The records a shipped scenario's run logs, each as its framed bytes."""
    report = run_scenario(load_scenario(SHIPPED[index])[0], 1, compute_betti=False)
    return tuple(rec.to_bytes() for rec in report.wal.records)


@st.composite
def mutated_shipped_log(draw):
    """A shipped scenario and a mutated copy of its own log: records
    spliced in from any shipped log, then the bytes truncated or a bit
    flipped."""
    index = draw(st.integers(0, len(SHIPPED) - 1))
    frames = list(shipped_log_frames(index))
    for _ in range(draw(st.integers(0, 2))):
        donor = shipped_log_frames(draw(st.integers(0, len(SHIPPED) - 1)))
        a = draw(st.integers(0, len(donor)))
        b = draw(st.integers(a, len(donor)))
        c = draw(st.integers(0, len(frames)))
        d = draw(st.integers(c, len(frames)))
        frames[c:d] = donor[a:b]
    data = bytearray(b"".join(frames))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            del data[draw(st.integers(0, len(data))):]
        elif data:
            data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
    return SHIPPED[index], bytes(data)


@given(mutated_shipped_log())
@settings(max_examples=150, deadline=None)
def test_recover_fuzz_is_two_digests_or_one_error_line(tmp_path_factory, case):
    scenario, data = case
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.wal"
    path.write_bytes(data)
    code, out, err = run_main(["recover", "--wal", str(path), "--scenario", scenario])
    if code == 0:
        assert out.startswith("digest before recovery: ") and err == ""
    else:
        assert_one_error_line(code, out, err)


@given(st.one_of(mutated_scenario_text(), RANDOM_SCENARIO_TEXT),
       st.one_of(st.integers(-1, 5), st.integers()))
@settings(max_examples=150, deadline=None)
def test_betti_scenario_fuzz_is_a_betti_line_or_one_error_line(tmp_path_factory, text, at):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.scenario"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = run_main(["betti", "--scenario", str(path), "--at", str(at)])
    if code == 0:
        # an empty complex prints "betti: " and no numbers, as --complex does
        assert re.fullmatch(r"betti: (\d+( \d+)*)?\n", out) and err == ""
    else:
        assert_one_error_line(code, out, err)


SEEDS = st.one_of(
    st.lists(st.integers(-1, 3).map(str), min_size=1, max_size=2).map(",".join),
    st.sampled_from(["", "x", "1,,2", " 2", "1.5"]),
)


@given(st.lists(mutated_scenario_text(), min_size=1, max_size=2), SEEDS, st.booleans())
@settings(max_examples=150, deadline=None)
def test_compare_fuzz_is_a_table_or_one_error_line(tmp_path_factory, texts, seeds, one_token):
    directory = tmp_path_factory.mktemp("fuzz")
    for i, text in enumerate(texts):
        (directory / f"s{i}.scenario").write_bytes(text.encode("utf-8"))
    seed_args = [f"--seeds={seeds}"] if one_token else ["--seeds", seeds]
    code, out, err = run_main(["compare", "--scenario-dir", str(directory), *seed_args])
    if code == 0:
        assert out.startswith("protocol,scenario,seed,")
        assert all(line.startswith("# ") for line in err.splitlines())
    else:
        assert_one_error_line(code, out, err)
