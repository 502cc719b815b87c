"""In-memory span tracing by runtime patching of public topocbt functions.

``Tracer.install()`` replaces each entry of ``patch_table()`` where it
is looked up (modules that import a function by name get their own
binding patched; methods are patched on their class), and
``Tracer.restore()`` puts the original objects back.  No program file
changes.  Each wrapped call appends one span
``(name, start_ns, end_ns, parent, job, count)`` to a list; ``count``
is an exact work counter taken from the call's arguments or result.
Self time is a span's duration minus that of its direct children,
which nest fully because the benchmark runs one job at a time on one
thread.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _len(result, args):
    return len(result)


def _simplices(result, args):
    return len(result.complex)


def _vertices(result, args):
    return len(result.vertices)


def _cells(result, args):
    return result.data.size


def _arg_cells(result, args):
    return args[0].size


def _ops_and_commit(result, args):
    return (result.primitive_ops, 1 if str(result.status) == "Committed" else 0)


def _records_scanned(result, args):
    # recovery appends one abort record per transaction it rolls back
    return len(args[0].wal.records) - len(result.rolled_back)


def patch_table():
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    from topocbt import baselines, chain, engine, gf2, harness, scenario, simplicial, topology, wal

    Chain, Federation = chain.Chain, chain.Federation
    SC = simplicial.SimplicialComplex
    return [
        (engine, "transaction_simplex", "topology.transaction_simplex", _vertices),
        (topology, "transaction_simplex", "topology.transaction_simplex", _vertices),
        (topology, "build_federation_complex", "topology.build_federation_complex", _simplices),
        (harness, "build_federation_complex", "harness.betti_complex", _simplices),
        (engine, "expand_refs", "topology.expand_refs", None),
        (baselines, "expand_refs", "topology.expand_refs", None),
        (topology, "expand_refs", "topology.expand_refs", None),
        (topology.CrossChainTransaction, "validate", "topology.validate", None),
        (Federation, "balances", "chain.balances", None),
        (Chain, "live_refs", "chain.live_refs", _len),
        (Chain, "append_block", "chain.append_block", None),
        (Federation, "lock_blocks", "chain.lock_blocks", None),
        (Federation, "release_blocks", "chain.release_blocks", None),
        (Federation, "state_digest", "chain.state_digest", None),
        (Chain, "resolve_forks", "chain.resolve_forks", None),
        (SC, "from_simplices", "simplicial.from_simplices", None),
        (SC, "betti_numbers", "simplicial.betti_numbers", None),
        (SC, "boundary_matrix", "simplicial.boundary_matrix", _cells),
        (simplicial, "gf2_rank", "gf2.gf2_rank", _arg_cells),
        (gf2, "gf2_rank", "gf2.gf2_rank", _arg_cells),
        (engine.TopoCbtEngine, "execute", "engine.execute", _ops_and_commit),
        (engine.TopoCbtEngine, "recover", "engine.recover", _records_scanned),
        (harness, "ac2s_execute", "baselines.ac2s_execute", None),
        (baselines, "ac2s_execute", "baselines.ac2s_execute", None),
        (harness, "ac3wn_execute", "baselines.ac3wn_execute", None),
        (baselines, "ac3wn_execute", "baselines.ac3wn_execute", None),
        (harness, "audit_atomicity", "harness.audit_atomicity", None),
        (harness, "run_scenario", "harness.run_scenario", None),
        (harness, "compare_protocols", "harness.compare_protocols", None),
        (wal.WriteAheadLog, "append", "wal.append", None),
        (wal.WriteAheadLog, "to_bytes", "wal.to_bytes", _len),
        (scenario, "parse_scenario", "scenario.parse_scenario", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.job, None)
            if counter is not None:
                spans[sid] = (name, start, end, parent, self.job, counter(result, args))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in patch_table():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, name, counter))
            else:
                wrapped = self._wrap(original, name, counter)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def aggregate(self, jobs=None) -> dict:
        """Per span name: calls, total and self nanoseconds, counter sums.

        ``jobs`` limits the result to spans recorded under those job ids.
        """
        child_ns = defaultdict(int)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "count": 0, "count2": 0})
        for sid, span in enumerate(self.spans):
            if span is None or (jobs is not None and span[4] not in jobs):
                continue
            name, start, end, _, _, count = span
            agg = out[name]
            agg["calls"] += 1
            agg["ns"] += end - start
            agg["self_ns"] += end - start - child_ns[sid]
            if isinstance(count, tuple):
                agg["count"] += count[0]
                agg["count2"] += count[1]
            elif count is not None:
                agg["count"] += count
        return out

    def write(self, path) -> None:
        """One CSV line per span: name,start_ns,end_ns,parent,job,count."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,start_ns,end_ns,parent,job,count\n")
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, job, count = span
                if isinstance(count, tuple):
                    count = ";".join(map(str, count))
                fh.write(f"{name},{start},{end},{parent},{job},{'' if count is None else count}\n")
