"""topocbt benchmark: seeded scenarios through the public harness entry points.

Usage (from the repository root):

    python3 bench/run.py --workload long-history --seed 1 --seconds 20 --trace 0

One process, one thread, one job at a time (a closed loop with one
client).  A job is one ``run_scenario`` call (``compare_protocols``
for fault-mix) on one generated scenario, i.e. what ``topocbt run`` /
``topocbt compare`` do without process start.  The program receives
only generated scenario text, through ``parse_scenario``.

The loop runs the seed's inputs round-robin for ``--seconds`` and at
least one full round.  Every job and every set-up is timed at a
reference CPU speed (speed.py): its wall time is scaled by a fixed
reference loop timed right before and after it, because a shared
host's CPU can change speed by 1.5-2x for seconds to minutes at a
time.  An input's job time is the mean of its timed runs, and
percentiles are taken over the inputs: the pool is designed so that
its inputs' sizes are the same for every seed (workloads.py).  Wall
times are printed beside the scaled ones.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the
separate traced run: every job runs twice back to back, untraced and
traced, in alternating order; per-layer metrics per transaction come
from the traced half, and the overhead of tracing from comparing the
two halves.  Every output is checked by the benchmark's
own oracles (bench/checks.py): transactions that fail a check are
counted in ``failed``, and per check in the text report; ``correct``
is false when a job returned other rows than one per declared
transaction.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import speed
from tracing import Tracer
from workloads import PARAMS, generate_pool, generate_warmup

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

PROTOCOLS = ("topocbt", "ac2s", "ac3wn")
SETUP_EVERY_S = 3.0     # one more set-up repetition per this much loop time
MIN_SETUPS = 5

END_TO_END_UNITS = {
    "txn_per_s": "txn/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "wal_bytes_per_txn": "B/txn",
}


def fresh_heap() -> None:
    """Collect garbage, then freeze what survives, so that the garbage
    collections of the next timed job scan only that job's objects, as in
    a fresh ``topocbt run`` process, and not the outputs kept here."""
    gc.collect()
    gc.freeze()


def _program_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items() if m == "topocbt" or m.startswith("topocbt.")}


def import_program():
    """Import topocbt from this checkout's src/ and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import topocbt
        from topocbt import harness, scenario
    except ImportError as exc:
        raise SystemExit(f"error: cannot import topocbt from {SRC}: {exc}")
    if Path(topocbt.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: topocbt was imported from {topocbt.__file__}, not {SRC}")
    return harness, scenario


class Bench:
    """One workload and seed: its inputs, its jobs and its measurements."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.params = PARAMS[workload]
        self.kind = self.params["kind"]
        self.setups: list[tuple[float, float]] = []     # (scaled, wall) seconds
        self.harness, self.scenario_mod, self.pool, self.scenarios = self.setup()

    # -- set-up --------------------------------------------------------------

    def setup(self):
        """Import, generate every input, parse it, run one warm-up job (on
        an extra input of the workload's middle size).

        Repetitions after the first import topocbt afresh and put the
        first import's modules back afterwards, so they leave the timed
        jobs untouched.
        """
        saved = _program_modules() if self.setups else {}
        for m in saved:
            del sys.modules[m]
        fresh_heap()
        before = speed.measure()
        t0 = time.perf_counter()
        harness, scenario_mod = import_program()
        pool = generate_pool(self.workload, self.seed)
        scenarios = [scenario_mod.parse_scenario(g.text) for g in pool]
        warmup = scenario_mod.parse_scenario(generate_warmup(self.workload, self.seed).text)
        self.serialize(self.run_job(harness, warmup))
        wall = time.perf_counter() - t0
        self.setups.append((speed.scale(wall, before, speed.measure()), wall))
        if saved:
            for m in _program_modules():
                del sys.modules[m]
            sys.modules.update(saved)
        return harness, scenario_mod, pool, scenarios

    # -- jobs ----------------------------------------------------------------

    def run_job(self, harness, sc):
        if self.kind == "run":
            return harness.run_scenario(sc, self.seed, compute_betti=self.params["betti"])
        return harness.compare_protocols([sc], [self.seed])

    def job(self, idx: int):
        """One timed unit of work.  ``self.harness`` attributes are looked
        up per call, so the traced run goes through its wrappers."""
        return self.run_job(self.harness, self.scenarios[idx])

    def serialize(self, out) -> tuple:
        if self.kind == "run":
            return (out.to_csv(), out.wal.to_bytes())
        return (out.to_csv(),)

    def complete(self, idx: int, out) -> bool:
        """One row per declared transaction (per protocol), in id order."""
        ids = sorted(self.pool[idx].updates)
        if self.kind == "run":
            return [r.txn_id for r in out.rows] == ids
        return [(r.protocol, r.txn_id) for r in out.rows] == [(p, t) for p in PROTOCOLS for t in ids]

    def loop(self, seconds: float, tracer=None, setups: bool = False):
        """Closed loop over the inputs, round-robin.

        Runs for ``seconds`` and at least one full round, so that every
        input has run; the last round may stop part way.  With a
        tracer, each job runs twice back to back, untraced and traced,
        in alternating order.  With ``setups``, a set-up repetition runs
        every SETUP_EVERY_S.  The reference loop runs between any two
        jobs.  Returns (untraced, traced) lists of (input index, scaled
        seconds, rows, wall seconds).
        """
        samples, traced = [], []
        self.first: dict[int, tuple] = {}
        self.replay_bad: set[int] = set()
        self.incomplete = 0
        k = len(self.pool)
        start = time.perf_counter()
        deadline = start + seconds
        next_setup = start + SETUP_EVERY_S
        try:
            n = 0
            cal = speed.measure()
            while True:
                now = time.perf_counter()
                if n >= k and now >= deadline:
                    break
                if setups and now >= next_setup:
                    self.setup()
                    next_setup = time.perf_counter() + SETUP_EVERY_S
                    cal = speed.measure()
                idx = n % k
                if tracer is None:
                    order = (False,)
                else:
                    order = (False, True) if n % 2 else (True, False)
                for with_trace in order:
                    fresh_heap()
                    if with_trace:
                        tracer.job = len(traced)
                        tracer.install()
                    try:
                        t0 = time.perf_counter()
                        out = self.job(idx)
                        dt = time.perf_counter() - t0
                        ser = self.serialize(out)
                    finally:
                        if with_trace:
                            tracer.restore()
                    after = speed.measure()
                    (traced if with_trace else samples).append(
                        (idx, speed.scale(dt, cal, after), len(out.rows), dt))
                    cal = after
                    self.incomplete += not self.complete(idx, out)
                    if idx not in self.first:
                        self.first[idx] = (ser, out)
                    elif ser != self.first[idx][0]:
                        self.replay_bad.add(idx)
                n += 1
            while setups and len(self.setups) < MIN_SETUPS:
                self.setup()
        finally:
            gc.unfreeze()
        return samples, traced

    # -- checks --------------------------------------------------------------

    def reports_for(self, idx: int, out) -> list:
        if self.kind == "run":
            return [out]
        return [self.harness.run_scenario(self.scenarios[idx], self.seed, protocol_override=p,
                                          compute_betti=False)
                for p in PROTOCOLS]

    def verify(self):
        """Flags per check: {check: {input index: set of (protocol, txn)}},
        plus WAL bytes and transaction rows over one run of every input."""
        flags = {name: {} for name in checks.CHECKS}
        wal_bytes = rows = 0

        def flag(name, idx, protocol, txns):
            if txns:
                flags[name].setdefault(idx, set()).update((protocol, t) for t in txns)

        for idx, (ser, out) in sorted(self.first.items()):
            gen = self.pool[idx]
            reports = self.reports_for(idx, out)
            for report in reports:
                protocol = report.rows[0].protocol if report.rows else ""
                flag("status_audit", idx, protocol, checks.status_audit(report))
                flag("digest", idx, protocol, checks.digest(report, gen.balances, gen.updates))
                flag("invariants", idx, protocol, checks.invariants(report))
                wal_bytes += len(report.wal.to_bytes())
                rows += len(report.rows)
            all_rows = [(r.protocol, r.txn_id) for rep in reports for r in rep.rows]
            if self.kind == "compare":
                table = self.harness.ComparisonTable([r for rep in reports for r in rep.rows])
                flags["replay"].setdefault(idx, set()).update(
                    checks.replay(ser, (table.to_csv(),), all_rows))
            if idx in self.replay_bad:
                flags["replay"].setdefault(idx, set()).update(all_rows)
            if self.params["betti"]:
                self.betti_spot(idx, out, flag)
        # replay: the first input's job once more, and for compare jobs
        # its topocbt run twice, so that WAL bytes are compared too
        first_rows = [(r.protocol, r.txn_id) for r in self.first[0][1].rows]
        again = self.serialize(self.job(0))
        flags["replay"].setdefault(0, set()).update(checks.replay(self.first[0][0], again, first_rows))
        if self.kind == "compare":
            again = [self.harness.run_scenario(self.scenarios[0], self.seed, protocol_override="topocbt",
                                               compute_betti=False) for _ in range(2)]
            flags["replay"][0].update(
                checks.replay(*[(r.to_csv(), r.wal.to_bytes()) for r in again], first_rows))
        return flags, wal_bytes, rows

    def betti_spot(self, idx: int, report, flag) -> None:
        """One event per input: the Betti vector betti_report gives after
        ``at`` transactions, against the benchmark's own oracles and the
        vector the run reported for the same event."""
        txns = len(report.rows)
        at = random.Random(f"spot:{self.workload}:{self.seed}:{idx}").randint(0, txns)
        betti, tagged = self.harness.betti_report(self.scenarios[idx], at)
        expected = report.rows[at - 1].betti_post if at else report.rows[0].betti_pre
        if not checks.betti_spot(betti, tagged.complex.members(), expected):
            row = report.rows[max(at, 1) - 1]
            flag("betti_spot", idx, row.protocol, [row.txn_id])


def per_input(samples: list) -> dict:
    """Input index -> (mean seconds over its runs, rows of one run)."""
    times: dict = {}
    rows: dict = {}
    for idx, dt, n, *_ in samples:
        times.setdefault(idx, []).append(dt)
        rows[idx] = n
    return {idx: (statistics.fmean(ts), rows[idx]) for idx, ts in times.items()}


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    k = (len(sorted_values) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with ten samples
    beyond it (the median below twenty samples)."""
    pct = max(50.0, 100 * (len(values) - 10) / len(values))
    return pct, percentile(sorted(values), pct)


def count_failures(flags) -> tuple[int, dict]:
    """(failed, failed per check) over one run of every input.

    Repeated runs of an input are replays, checked byte for byte by the
    replay check, so each (protocol, transaction) counts once and the
    counts depend on the seed only, not on how many rounds fitted.
    """
    per_check = {name: sum(len(hit) for hit in flags[name].values()) for name in checks.CHECKS}
    failed = 0
    for idx in set().union(*(flags[name] for name in checks.CHECKS)):
        failed += len(set().union(*(flags[name].get(idx, set()) for name in checks.CHECKS)))
    return failed, per_check


LAYER_METRICS = [
    # (name, unit, source span, statistic)
    ("topology.transaction_simplex.ms", "ms/txn", "topology.transaction_simplex", "ms"),
    ("topology.transaction_simplex.self_ms", "ms/txn", "topology.transaction_simplex", "self_ms"),
    ("topology.transaction_simplex.simplices", "simplices/txn", "topology.build_federation_complex", "count"),
    ("topology.expand_refs.ms", "ms/txn", "topology.expand_refs", "ms"),
    ("topology.validate.ms", "ms/txn", "topology.validate", "ms"),
    ("chain.balances.calls", "calls/txn", "chain.balances", "calls"),
    ("chain.balances.ms", "ms/txn", "chain.balances", "ms"),
    ("chain.live_refs.calls", "calls/txn", "chain.live_refs", "calls"),
    ("chain.live_refs.ms", "ms/txn", "chain.live_refs", "ms"),
    ("chain.live_refs.blocks", "blocks/txn", "chain.live_refs", "count"),
    ("chain.append_block.calls", "calls/txn", "chain.append_block", "calls"),
    ("chain.lock_blocks.ms", "ms/txn", "chain.lock_blocks", "ms"),
    ("chain.release_blocks.ms", "ms/txn", "chain.release_blocks", "ms"),
    ("chain.state_digest.ms", "ms/txn", "chain.state_digest", "ms"),
    ("chain.resolve_forks.calls", "calls/txn", "chain.resolve_forks", "calls"),
    ("harness.betti_complex.ms", "ms/txn", "harness.betti_complex", "ms"),
    ("harness.betti_complex.simplices", "simplices/txn", "harness.betti_complex", "count"),
    ("simplicial.from_simplices.ms", "ms/txn", "simplicial.from_simplices", "ms"),
    ("simplicial.betti_numbers.ms", "ms/txn", "simplicial.betti_numbers", "ms"),
    ("simplicial.boundary_matrix.ms", "ms/txn", "simplicial.boundary_matrix", "ms"),
    ("simplicial.boundary_matrix.cells", "cells/txn", "simplicial.boundary_matrix", "count"),
    ("gf2.gf2_rank.calls", "calls/txn", "gf2.gf2_rank", "calls"),
    ("gf2.gf2_rank.ms", "ms/txn", "gf2.gf2_rank", "ms"),
    ("gf2.gf2_rank.cells", "cells/txn", "gf2.gf2_rank", "count"),
    ("engine.execute.calls", "calls/txn", "engine.execute", "calls"),
    ("engine.execute.self_ms", "ms/txn", "engine.execute", "self_ms"),
    ("engine.execute.primitive_ops", "ops/txn", "engine.execute", "count"),
    ("engine.recover.calls", "calls/txn", "engine.recover", "calls"),
    ("engine.recover.ms", "ms/txn", "engine.recover", "ms"),
    ("engine.recover.wal_records_scanned", "records/txn", "engine.recover", "count"),
    ("baselines.ac2s_execute.ms", "ms/txn", "baselines.ac2s_execute", "ms"),
    ("baselines.ac3wn_execute.ms", "ms/txn", "baselines.ac3wn_execute", "ms"),
    ("harness.audit_atomicity.ms", "ms/txn", "harness.audit_atomicity", "ms"),
    ("harness.run_scenario.self_ms", "ms/txn", "harness.run_scenario", "self_ms"),
    ("harness.compare_protocols.self_ms", "ms/txn", "harness.compare_protocols", "self_ms"),
    ("wal.append.calls", "calls/txn", "wal.append", "calls"),
    ("wal.append.ms", "ms/txn", "wal.append", "ms"),
    ("wal.to_bytes.ms", "ms/txn", "wal.to_bytes", "ms"),
    ("wal.to_bytes.bytes", "B/txn", "wal.to_bytes", "count"),
]


def layer_metrics(agg: dict, txns: int, job_ns: int, parse: dict, parse_txns: int) -> dict:
    def stat(span: str, what: str) -> float:
        a = agg.get(span)
        if a is None:
            return 0.0
        return {"ms": a["ns"] / 1e6, "self_ms": a["self_ns"] / 1e6,
                "calls": a["calls"], "count": a["count"]}[what] / txns

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {name: (stat(span, what), unit) for name, unit, span, what in LAYER_METRICS}
    ts = agg.get("topology.transaction_simplex", {"ns": 0, "count": 0})
    built = agg.get("topology.build_federation_complex", {"count": 0})
    execute = agg.get("engine.execute", {"calls": 0, "count": 0, "count2": 0})
    out["topology.transaction_simplex.useful_ratio"] = (ratio(ts["count"], built["count"]), "ratio")
    out["topology.transaction_simplex.job_share"] = (ratio(ts["ns"], job_ns), "ratio")
    out["engine.execute.commit_ratio"] = (ratio(execute["count2"], execute["calls"]), "ratio")
    out["model.simplices_per_op"] = (ratio(built["count"], execute["count"]), "ratio")
    p = parse.get("scenario.parse_scenario", {"ns": 0})
    out["scenario.parse_scenario.ms"] = (ratio(p["ns"] / 1e6, parse_txns), "ms/txn")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PARAMS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = Bench(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{len(bench.pool)} inputs, {sum(g.txn_count for g in bench.pool)} txns")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.job = -2
        with tracer:
            for g in bench.pool:
                bench.scenario_mod.parse_scenario(g.text)
        parse = tracer.aggregate()
        tracer.spans.clear()
    samples, traced = bench.loop(args.seconds, tracer, setups=not args.trace)
    flags, wal_bytes, attempted = bench.verify()
    failed, per_check = count_failures(flags)
    jobs = per_input(samples)
    jobs_s = sum(j[0] for j in jobs.values())
    jobs_txns = sum(j[1] for j in jobs.values())
    walls = per_input([(idx, wall, rows) for idx, _, rows, wall in samples])
    rounds = len(samples) / len(bench.pool)
    loops = sorted(w / s * speed.REFERENCE_S for s, w in
                   [(dt, wall) for _, dt, _, wall in samples + traced] + bench.setups)
    print(f"{len(samples) + len(traced)} jobs, {rounds:.1f} rounds; an input's job time is the mean of its runs")
    print(f"times at reference speed: reference loop {speed.REFERENCE_S * 1000:g} ms there, here "
          f"{percentile(loops, 10) * 1000:.3g} / {percentile(loops, 50) * 1000:.3g} / "
          f"{percentile(loops, 90) * 1000:.3g} ms (p10 / p50 / p90 of {len(loops)})")

    result = {}
    if not args.trace:
        times = sorted(j[0] for j in jobs.values())
        wall_times = sorted(j[0] for j in walls.values())
        pct, tail_s = tail(times)
        metrics = {
            "txn_per_s": jobs_txns / jobs_s,
            "job_ms_p50": statistics.median(times) * 1000,
            "job_ms_tail": tail_s * 1000,
            "setup_s": statistics.median(s for s, _ in bench.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wal_bytes_per_txn": wal_bytes / attempted,
        }
        notes = {
            "txn_per_s": f"wall {jobs_txns / sum(j[0] for j in walls.values()):.6g}",
            "job_ms_p50": f"n={len(times)} inputs; wall {statistics.median(wall_times) * 1000:.6g}",
            "job_ms_tail": f"p{pct:.4g}, n={len(times)} inputs, 10 beyond; "
                           f"wall {tail(wall_times)[1] * 1000:.6g}",
            "setup_s": f"median of {len(bench.setups)} set-ups; "
                       f"wall {statistics.median(w for _, w in bench.setups):.6g}",
        }
        for name, value in metrics.items():
            unit = END_TO_END_UNITS[name]
            print(f"{name} {value:.6g} {unit}" + (f"  ({notes[name]})" if name in notes else ""))
            result[name] = {"value": value, "unit": unit}
    else:
        job_ns = int(sum(wall for *_, wall in traced) * 1e9)
        txns = sum(rows for _, _, rows, _ in traced)
        layers = layer_metrics(tracer.aggregate(), txns, job_ns, parse,
                               sum(g.txn_count for g in bench.pool))
        traced_s = sum(dt for _, dt, _, _ in traced)
        layers["trace.txn_per_s"] = (txns / traced_s, "txn/s")
        plain_s = sum(dt for _, dt, _, _ in samples)
        plain_txns = sum(rows for _, _, rows, _ in samples)
        layers["trace.untraced_txn_per_s"] = (plain_txns / plain_s, "txn/s")
        layers["trace.overhead_ratio"] = ((traced_s / txns) / (plain_s / plain_txns), "ratio")
        for name in checks.CHECKS:
            layers[f"check.{name}.failed"] = (per_check[name], "count")
        layers["check.fail_ratio"] = (failed / attempted, "ratio")
        for name, (value, unit) in layers.items():
            print(f"{name} {value:.6g} {unit}")
            result[name] = {"value": value, "unit": unit}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.csv"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans of {len(traced)} traced jobs written to "
              f"{path.relative_to(HERE.parent)}")

    print(f"fail_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} txns failed a check: "
          + ", ".join(f"{name} {per_check[name]}" for name in checks.CHECKS) + ")")
    if bench.incomplete:
        print(f"{bench.incomplete} jobs returned other rows than one per declared transaction")
    print(json.dumps({"correct": bench.incomplete == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
