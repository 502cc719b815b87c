"""The fork-heavy declared history, as scenario text.

Chain 1 holds a declared trunk of 20,000 blocks, two replicas, and a
fork at every even height; chain 2 holds three blocks.  Ten deals name
a block near chain 1's tip and one of chain 2's, and forks are resolved
after every fifth event.  Print it with

    python tests/fork_heavy.py NAME MODE [WINDOW] > fork_heavy.scenario

where ``WINDOW`` adds a ``window =`` line (a file's ``window = 0``
means no window).
"""

import sys
from typing import Optional

LENGTH = 20000


def text(name: str, mode: str, window: Optional[int] = None) -> str:
    lines = ["[scenario]", f"name = {name}", f"mode = {mode}", "epoch = 5"]
    if window is not None:
        lines.append(f"window = {window}")
    lines += ["[chain]", "id = 1", "replicas = 2", f"length = {LENGTH}", "assets = A1", "balance = p1 A1 50"]
    lines += [f"fork = {height} 1" for height in range(2, LENGTH + 1, 2)]
    lines += ["[chain]", "id = 2", "length = 3", "assets = A2", "balance = p2 A2 50"]
    for txn in range(1, 11):
        refs = f"1:{LENGTH + 1 - txn} 2:{txn % 3 + 1}"
        lines += ["[txn]", f"id = {txn}", "parties = p1 p2", f"blocks = {refs}",
                  f"sub = {refs} ; p1 p2 A1 1, p2 p1 A2 1"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    name, mode, *window = sys.argv[1:]
    sys.stdout.write(text(name, mode, int(window[0]) if window else None))
