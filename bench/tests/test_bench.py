"""Tests of the benchmark itself: input determinism, tracer hygiene, oracles.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import gc
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, patch_table  # noqa: E402
from topocbt import harness  # noqa: E402
from topocbt.engine import Status  # noqa: E402
from topocbt.scenario import FAILURE_KINDS, ScenarioError, parse_scenario  # noqa: E402


def _report(workload: str, seed: int = 3):
    gen = workloads.generate_pool(workload, seed)[0]
    return gen, harness.run_scenario(parse_scenario(gen.text), seed, compute_betti=False)


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.PARAMS))
def test_same_seed_gives_byte_identical_scenario_text(workload):
    first = [g.text.encode() for g in workloads.generate_pool(workload, 7)]
    again = [g.text.encode() for g in workloads.generate_pool(workload, 7)]
    other = [g.text.encode() for g in workloads.generate_pool(workload, 8)]
    assert first == again
    assert first != other
    assert len(first) == workloads.PARAMS[workload]["pool"]


@pytest.mark.parametrize("workload", sorted(workloads.PARAMS))
def test_generated_text_parses_to_the_declared_transactions(workload):
    for gen in workloads.generate_pool(workload, 5):
        scenario = parse_scenario(gen.text)
        declared = {
            t.id: [(u.owner_from, u.owner_to, u.asset, u.amount) for s in t.sub_transactions for u in s.updates]
            for t in scenario.transactions()
        }
        assert declared == gen.updates


def test_fault_mix_covers_every_failure_kind():
    assert set(workloads.FAILURE_KINDS) == set(FAILURE_KINDS)
    used = {f.kind for g in workloads.generate_pool("fault-mix", 2) for f in parse_scenario(g.text).failures}
    assert used == set(FAILURE_KINDS)


# -- tracing -------------------------------------------------------------------


def _bindings():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patch_table()]


def test_wrappers_are_restored_after_the_traced_run():
    bench = run.Bench("fault-mix", 4)
    before = _bindings()
    tracer = Tracer()
    _, traced = bench.loop(0, tracer)
    assert traced and tracer.spans
    assert all(now is then for (_, _, now), (_, _, then) in zip(_bindings(), before))
    assert gc.get_freeze_count() == 0


def test_wrappers_are_restored_when_the_traced_call_raises():
    before = _bindings()
    with pytest.raises(ScenarioError):
        with Tracer():
            parse_scenario("[txn]\nprotocol = nope\nid = 1\n")
    assert all(now is then for (_, _, now), (_, _, then) in zip(_bindings(), before))


def test_spans_nest_and_self_time_excludes_children():
    gen = workloads.generate_pool("wide-deal", 1)[0]
    scenario = parse_scenario(gen.text)
    tracer = Tracer()
    tracer.job = 0
    with tracer:
        harness.run_scenario(scenario, 1, compute_betti=False)
    spans = tracer.spans
    root = [s for s in spans if s[3] == -1]
    assert [s[0] for s in root] == ["harness.run_scenario"]
    for name, start, end, parent, job, _ in spans:
        assert job == 0 and start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    agg = tracer.aggregate()
    for stats in agg.values():
        assert 0 <= stats["self_ns"] <= stats["ns"]
    assert agg["engine.execute"]["calls"] == len(gen.updates)
    assert agg["topology.build_federation_complex"]["count"] > 0


# -- oracles: each rejects a hand-doctored report --------------------------------


def _doctor(report, txn_id, **changes):
    rows = [dataclasses.replace(r, **changes) if r.txn_id == txn_id else r for r in report.rows]
    return dataclasses.replace(report, rows=rows)


def test_clean_reports_pass_every_check():
    gen, report = _report("long-history")
    assert checks.status_audit(report) == set()
    assert checks.digest(report, gen.balances, gen.updates) == set()
    assert checks.invariants(report) == set()


def test_status_audit_rejects_status_that_disagrees_with_the_auditor():
    _, report = _report("long-history")
    assert checks.status_audit(_doctor(report, 1, status=Status.ABORTED)) == {1}
    # the row ComparisonTable.pattern() would pass: Aborted, but partial
    assert checks.status_audit(_doctor(report, 1, status=Status.ABORTED, audit="partial")) == {1}
    assert checks.status_audit(_doctor(report, 2, status=Status.BLOCKED)) == {2}


def test_status_audit_allows_partial_commit_only_for_ac2s():
    _, report = _report("long-history")
    partial = _doctor(report, 1, status=Status.PARTIAL_COMMIT, audit="partial")
    assert checks.status_audit(partial) == {1}
    assert checks.status_audit(_doctor(partial, 1, protocol="ac2s")) == set()


def test_digest_rejects_a_wrong_final_digest():
    gen, report = _report("long-history")
    doctored = dataclasses.replace(report, final_digest="0" * 64)
    assert checks.digest(doctored, gen.balances, gen.updates) == set(gen.updates)
    # a status flipped to Aborted while the updates stayed applied
    assert checks.digest(_doctor(report, 1, status=Status.ABORTED), gen.balances, gen.updates)


def test_invariants_reject_an_atomicity_violation():
    _, report = _report("long-history")
    assert checks.invariants(_doctor(report, 2, audit="partial")) == {2}


def test_replay_rejects_different_bytes():
    _, report = _report("long-history")
    first = (report.to_csv(), report.wal.to_bytes())
    assert checks.replay(first, first, [1, 2]) == set()
    assert checks.replay(first, (first[0], first[1] + b"\x00"), [1, 2]) == {1, 2}


def test_betti_spot_rejects_a_doctored_vector_or_complex():
    gen = workloads.generate_pool("betti-history", 1)[0]
    betti, tagged = harness.betti_report(parse_scenario(gen.text), 2)
    members = tagged.complex.members()
    assert checks.betti_spot(betti, members, betti)
    assert not checks.betti_spot((betti[0] + 1,) + tuple(betti[1:]), members)
    assert not checks.betti_spot(betti, members, (betti[0],) + tuple(b + 1 for b in betti[1:]))
    extra = max(v for s in members for v in s.vertices) + 1
    assert not checks.betti_spot(betti, set(members) | {type(next(iter(members)))((extra,))})


def test_every_partial_topocbt_row_is_counted_as_failed():
    # holds with or without the recovery defect: whatever the auditor
    # marks partial under topocbt must fail both row checks
    for gen in workloads.generate_pool("fault-mix", 1):
        report = harness.run_scenario(parse_scenario(gen.text), 1, protocol_override="topocbt",
                                      compute_betti=False)
        partial = {r.txn_id for r in report.rows if r.audit == "partial"}
        assert partial <= checks.status_audit(report)
        assert partial <= checks.invariants(report)


# -- statistics --------------------------------------------------------------------


def test_tail_leaves_ten_samples_beyond_the_percentile():
    values = [float(i) for i in range(100)]
    assert run.tail(values) == (90, 89.1)
    assert run.tail(values[:40])[0] == 75
    assert run.tail(values[:12])[0] == 50
    assert run.percentile([1.0, 2.0, 3.0], 50) == 2.0


def test_an_inputs_job_time_is_the_mean_of_its_runs():
    samples = [(0, 0.3, 2), (1, 0.1, 1), (0, 0.2, 2), (1, 0.4, 1), (0, 0.4, 2)]
    assert run.per_input(samples) == {0: (pytest.approx(0.3), 2), 1: (pytest.approx(0.25), 1)}


def test_an_inputs_failed_transactions_count_once_however_often_it_ran():
    flags = {name: {} for name in checks.CHECKS}
    flags["status_audit"] = {0: {("topocbt", 2)}, 3: {("ac3wn", 1)}}
    flags["digest"] = {0: {("topocbt", 1), ("topocbt", 2)}}
    failed, per_check = run.count_failures(flags)
    assert failed == 3
    assert per_check == {**{name: 0 for name in checks.CHECKS}, "status_audit": 2, "digest": 2}


def test_times_are_scaled_by_the_reference_loop_around_them():
    ref = speed.REFERENCE_S
    assert speed.scale(0.5, ref, ref) == pytest.approx(0.5)
    assert speed.scale(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)
    assert speed.scale(0.5, ref, 3 * ref) == pytest.approx(0.25)
    assert speed.measure() > 0
