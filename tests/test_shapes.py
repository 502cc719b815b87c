"""The CI writes every scenario through ``tests/shapes.py``, and its
checker fails on any Betti cell, row count or build that differs."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import shapes
from topocbt.cli import main
from topocbt.scenario import parse_scenario

ROOT = Path(__file__).parents[1]
CI = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
SMALL = str(ROOT / "tests" / "data" / "reused_slot.scenario")  # three deals


def test_every_shape_the_ci_prints_parses():
    argvs = [shlex.split(args) for args in re.findall(r"python tests/shapes\.py (?!check )([^>]*)>", CI)]
    assert {argv[0] for argv in argvs} == set(shapes.SHAPES)
    for argv in argvs:
        assert parse_scenario(shapes.shape_text(argv)).transactions(), argv


def test_no_ci_step_writes_a_scenario_by_hand():
    assert "printf '[" not in CI and "<<" not in CI
    lines = CI.splitlines()
    assert not [line for line in lines if re.search(r"\bsed\b", line) and "scenario" in line]
    writes = [line for line in lines if re.search(r'>\s*"[^"]*scenario"', line)]
    assert writes and all(line.lstrip().startswith("python tests/shapes.py ") for line in writes)


def test_the_checker_passes_on_a_correct_run(capsys):
    assert shapes.check(SMALL, [3])
    assert "run at 3: 2 0; betti --at 3: 2 0" in capsys.readouterr().out.splitlines()


def in_process(*args: str) -> str:
    """What ``shapes._output`` returns, without a process of its own."""
    out = io.StringIO()
    with redirect_stdout(out):
        if args[0] == "-m":
            main(list(args[2:]))
        else:
            print(shapes.built_betti(args[2], int(args[3])))
    return out.getvalue()


@pytest.mark.parametrize("command, old, new", [
    ("run", ",2|0,2|0\n", ",2|0,2|1\n"),  # deal 2's betti_post
    ("run", "reused-slot,1,topocbt,3,", "other,1,topocbt,3,"),  # a row short
    ("betti", "betti: 2 0", "betti: 2 1"),
    ("build", "2 0", "2 1"),
], ids=["run-cell", "run-rows", "betti", "build"])
def test_the_checker_fails_on_any_difference(monkeypatch, command, old, new):
    def doctored(*args):
        out = in_process(*args)
        return out.replace(old, new, 1) if command in args else out

    monkeypatch.setattr(shapes, "_output", doctored)
    assert shapes.check(SMALL, [0, 1, 2, 3]) is False
    monkeypatch.setattr(shapes, "_output", in_process)
    assert shapes.check(SMALL, [0, 1, 2, 3])
