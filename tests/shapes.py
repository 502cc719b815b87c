"""The large shapes the CI builds, as scenario text, and one checker that
a run's Betti cells equal ``betti --at k``.

Each shape is a function of its sizes that returns the scenario text:

- ``fork_heavy``: chain 1 holds a declared trunk of ``length`` blocks,
  two replicas and a fork at every even height; chain 2 holds three
  blocks.  Ten deals name a block near chain 1's tip and one of chain
  2's, and forks are resolved after every fifth event.
- ``two_chain_deal``: one deal over two chains of ``replicas`` replicas.
- ``three_deals``: ``n + 2`` chains; deal t names block 2 of chains t to
  t + n - 1, one party per chain and one cyclic face.
- ``deep_history``: two deals near the tip of a ``length``-block chain.
- ``forked_deals``: six deals over forked replicated chains, two events
  per epoch; with a window, or with deal 4 crashing after its first
  append and deal 5 under ac3wn.

Print one with

    python tests/shapes.py SHAPE [ARG...] > shape.scenario

where an ARG made of digits is an int, ``KEY=VALUE`` passes a keyword,
and a file's ``window = 0`` means no window.  Check a scenario file with

    python tests/shapes.py check FILE K...

which runs ``python -m topocbt run`` once and ``betti --at k`` for each
k, each in a process of its own under a 10 s timeout.  It needs one row
per declared transaction and, at every k, the run's Betti numbers equal
to ``betti --at k``'s: row 1's betti_pre at k = 0, else row k's
betti_post.  At the first and last k it compares them with the full
build as well, which ``python tests/shapes.py build FILE K`` prints in a
process of its own under the same timeout.  It prints one line per
comparison and exits 1 on any mismatch.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import topocbt
from topocbt.harness import replay_to
from topocbt.scenario import load_scenario
from topocbt.topology import build_federation_complex

TIMEOUT = 10


def _chain(cid: int, length: int, amount: int, replicas: Optional[int] = None) -> list[str]:
    """Chain ``cid``, holding asset A<cid>, ``amount`` of it owned by p<cid>."""
    return ["[chain]", f"id = {cid}", *([f"replicas = {replicas}"] if replicas else []), f"length = {length}",
            f"assets = A{cid}", f"balance = p{cid} A{cid} {amount}"]


def _deal(tid: int, refs: list[tuple[int, int]]) -> list[str]:
    """Deal ``tid`` over blocks ``refs`` ((chain, height) pairs): each
    chain's party hands one of its asset on to the next chain's party,
    the last to the first."""
    chains = [cid for cid, _ in refs]
    blocks = " ".join(f"{cid}:{height}" for cid, height in refs)
    updates = ", ".join(f"p{cid} p{to} A{cid} 1" for cid, to in zip(chains, chains[1:] + chains[:1]))
    return ["[txn]", f"id = {tid}", "parties = " + " ".join(f"p{cid}" for cid in chains),
            f"blocks = {blocks}", f"sub = {blocks} ; {updates}"]


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def fork_heavy(name: str, mode: str, window: Optional[int] = None, length: int = 20000) -> str:
    lines = ["[scenario]", f"name = {name}", f"mode = {mode}", "epoch = 5"]
    if window is not None:
        lines.append(f"window = {window}")
    lines += _chain(1, length, 50, replicas=2) + [f"fork = {height} 1" for height in range(2, length + 1, 2)]
    lines += _chain(2, 3, 50)
    for tid in range(1, 11):
        lines += _deal(tid, [(1, length + 1 - tid), (2, tid % 3 + 1)])
    return _text(lines)


def two_chain_deal(replicas: int) -> str:
    return _text(["[scenario]", "name = two-chain-deal", "mode = replicated", *_chain(1, 2, 5, replicas),
                  *_chain(2, 2, 5, replicas), *_deal(1, [(1, 1), (2, 1)])])


def three_deals(n: int) -> str:
    lines = ["[scenario]", "name = three-deals"]
    for cid in range(1, n + 3):
        lines += _chain(cid, 3, 5)
    for tid in (1, 2, 3):
        lines += _deal(tid, [(cid, 2) for cid in range(tid, tid + n)])
    return _text(lines)


def deep_history(length: int) -> str:
    lines = ["[scenario]", "name = deep-history", *_chain(1, length, 5), *_chain(2, 3, 5)]
    for tid in (1, 2):
        lines += _deal(tid, [(1, length + 1 - tid), (2, 4 - tid)])
    return _text(lines)


FORKED_DEALS = """\
[scenario]
name = forked-deals
mode = replicated
epoch = 2
[chain]
id = 1
replicas = 3
length = 6
assets = X
fork = 3 1
fork = 7 1
balance = a X 9
[chain]
id = 2
replicas = 2
length = 4
assets = Y
fork = 2 2
balance = b Y 9
[chain]
id = 3
length = 3
assets = Z
fork = 3 1
balance = c Z 9
[txn]
id = 1
parties = a b
blocks = 1:3:1 2:2:1
sub = 1:3:1 2:2:1 ; a b X 1, b a Y 1
[txn]
id = 2
parties = a c
blocks = 1:7:2 3:3
sub = 1:7:2 3:3 ; a c X 1, c a Z 1
[txn]
id = 3
parties = b c
blocks = 2:4 3:2
sub = 2:4 3:2 ; b c Y 1, c b Z 1
[txn]
id = 4
parties = a b c
blocks = 1:5 2:3 3:3
sub = 1:5 2:3 ; a b X 1, b c Y 1
[txn]
id = 5
parties = a b
blocks = 1:3 2:2
sub = 1:3 2:2 ; a b X 1, b a Y 1
[txn]
id = 6
parties = b c
blocks = 2:1 3:1
sub = 2:1 3:1 ; b c Y 1, c b Z 1
"""


def forked_deals(window: Optional[int] = None, faults: bool = False) -> str:
    text = FORKED_DEALS
    if window is not None:
        text = text.replace("epoch = 2\n", f"epoch = 2\nwindow = {window}\n")
    if faults:
        text = text.replace("[txn]\nid = 5\n", "[txn]\nid = 5\nprotocol = ac3wn\n")
        text += "[failure]\ntxn = 4\nkind = crash_after_append\nappend = 1\n"
    return text


SHAPES = {shape.__name__: shape for shape in (fork_heavy, two_chain_deal, three_deals, deep_history, forked_deals)}


def _value(arg: str):
    return int(arg) if arg.isdigit() else arg


def shape_text(argv: list[str]) -> str:
    """The text ``python tests/shapes.py SHAPE [ARG...]`` prints."""
    name, *args = argv
    keywords = dict(arg.split("=", 1) for arg in args if "=" in arg)
    return SHAPES[name](*(_value(arg) for arg in args if "=" not in arg),
                        **{key: _value(arg) for key, arg in keywords.items()})


def _output(*args: str) -> str:
    """stdout of ``python ARGS...`` run on the topocbt this process imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(topocbt.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=TIMEOUT, check=True).stdout


def built_betti(path: str, k: int) -> str:
    """The Betti numbers of the full build after ``k`` events, as ``betti`` prints them."""
    scenario, _ = load_scenario(path)
    federation, pending = replay_to(scenario, k)
    return " ".join(map(str, build_federation_complex(federation, pending, scenario.mode, scenario.window)
                        .betti_numbers()))


def check(path: str, ks: list[int]) -> bool:
    """True when the run at ``path`` has one row per declared transaction
    and its Betti cells equal ``betti --at k`` at every k in ``ks``, and
    the build's at the first and the last."""
    scenario, _ = load_scenario(path)
    csv = _output("-m", "topocbt", "run", "--scenario", path).splitlines()
    columns = csv[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in csv if line.startswith(scenario.name + ",")]
    print(f"== {path}: {len(rows)} rows, {len(scenario.transactions())} declared transactions")
    ok = len(rows) == len(scenario.transactions())
    for k in ks if ok else ():
        got = (rows[0]["betti_pre"] if k == 0 else rows[k - 1]["betti_post"]).replace("|", " ")
        printed = _output("-m", "topocbt", "betti", "--scenario", path, "--at", str(k)).splitlines()
        want = "".join(line.removeprefix("betti: ") for line in printed if line.startswith("betti: "))
        print(f"run at {k}: {got}; betti --at {k}: {want}")
        ok &= bool(got) and got == want
        if k in (ks[0], ks[-1]):
            built = _output(__file__, "build", path, str(k)).strip()
            print(f"build at {k}: {built}")
            ok &= got == built
    return ok


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    if command == "check":
        sys.exit(0 if check(args[0], [int(k) for k in args[1:]]) else 1)
    if command == "build":
        print(built_betti(args[0], int(args[1])))
    else:
        sys.stdout.write(shape_text(sys.argv[1:]))
