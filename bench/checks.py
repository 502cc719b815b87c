"""The benchmark's own output oracles.

The report checks take a run report (duck-typed: ``rows``,
``final_digest``, ``invariant_failures()``) plus the facts the generator
declared, and return the ids of the transactions they reject;
``betti_spot`` judges one Betti vector.  The oracles do not reuse
program code for what they judge: the digest is recomputed from the
declared balances and updates, connected components come from a local
union-find, and simplex counts are taken here.  The auditor's column is
read against the status, not trusted on its own.
"""

from __future__ import annotations

import hashlib
import re
import struct

# Order fixes how failures are attributed and printed.
CHECKS = ("status_audit", "digest", "invariants", "replay", "betti_spot")

_STATUS_AUDIT = {"Committed": "all", "Aborted": "none", "Blocked": "none"}


def status_audit(report) -> set[int]:
    """Txns whose status disagrees with the auditor (topocbt, ac3wn), or
    that partially committed under a protocol other than ac2s.

    ``ComparisonTable.pattern()`` only looks at status, so it would pass
    an ``Aborted`` row the auditor marks ``partial``; this does not.
    """
    bad = set()
    for row in report.rows:
        status = str(row.status)
        if status == "PartialCommit":
            if row.protocol != "ac2s":
                bad.add(row.txn_id)
            continue
        if row.protocol in ("topocbt", "ac3wn") and _STATUS_AUDIT.get(status) != row.audit:
            bad.add(row.txn_id)
    return bad


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def expected_digest(balances: dict, updates: dict, committed: list[int]) -> str:
    """sha256 over the sorted nonzero (party, asset, amount) sheet that the
    declared balances reach once every committed txn's updates land."""
    sheet = dict(balances)
    for tid in committed:
        for src, dst, asset, amount in updates[tid]:
            sheet[(src, asset)] = sheet.get((src, asset), 0) - amount
            sheet[(dst, asset)] = sheet.get((dst, asset), 0) + amount
    h = hashlib.sha256()
    for (party, asset), amount in sorted(sheet.items()):
        if amount:
            h.update(_pack_str(party) + _pack_str(asset) + struct.pack(">q", amount))
    return h.hexdigest()


def digest(report, balances: dict, updates: dict) -> set[int]:
    """Every txn of a run whose final digest is wrong; runs with a
    partial row are skipped (their sheet has no declared value)."""
    if any(row.audit == "partial" for row in report.rows):
        return set()
    committed = [row.txn_id for row in report.rows if str(row.status) == "Committed"]
    if report.final_digest == expected_digest(balances, updates, committed):
        return set()
    return {row.txn_id for row in report.rows}


_TXN_RE = re.compile(r"^txn (\d+):")


def invariants(report) -> set[int]:
    """Txns named by ``report.invariant_failures()``; a problem that names
    no txn rejects the whole run."""
    bad = set()
    for problem in report.invariant_failures():
        match = _TXN_RE.match(problem)
        if match:
            bad.add(int(match.group(1)))
        else:
            bad.update(row.txn_id for row in report.rows)
    return bad


def replay(first: tuple, again: tuple, txn_ids) -> set[int]:
    """All txns of a job whose serialized outputs (CSV, WAL bytes) differ
    between two runs of the same input."""
    return set() if first == again else set(txn_ids)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)

    def components(self) -> int:
        return sum(1 for x in self.parent if self.find(x) == x)


def betti_spot(betti: tuple, members, expected: tuple | None = None) -> bool:
    """True when b0 equals a union-find count over the complex's vertices
    and edges, the alternating Betti sum equals the Euler characteristic
    counted here, and (if given) the vector equals the one the run
    reported for the same event."""
    uf = _UnionFind()
    counts: dict[int, int] = {}
    for s in members:
        vs = s.vertices
        counts[len(vs) - 1] = counts.get(len(vs) - 1, 0) + 1
        if len(vs) == 1:
            uf.find(vs[0])
        elif len(vs) == 2:
            uf.union(vs[0], vs[1])
    euler = sum((-1) ** k * n for k, n in counts.items())
    if not betti or betti[0] != uf.components():
        return False
    if sum((-1) ** k * b for k, b in enumerate(betti)) != euler:
        return False
    return expected is None or tuple(betti) == tuple(expected)
