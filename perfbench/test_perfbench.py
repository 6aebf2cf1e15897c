"""Self-checks of the benchmark.

    python3 -m pytest perfbench -q

The fast checks cover BENCHMARK.json against the runner, the item checks and the speed
meter's arithmetic. The counter checks run every workload twice in-process,
traced, one operation each (a few minutes): traced counts must equal the
program's own counters and repeat exactly between the two runs.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (unit, _sources) in spans.PER_LAYER.items()
    ]
    assert all(set(sources) <= set(spans.TARGETS) for _unit, sources in spans.PER_LAYER.values())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def _report(reached, error):
    return SimpleNamespace(reached_tol=reached, solution=np.array([error]), feasibility=None)


def test_priced_item_checks():
    ref = np.zeros(1)
    tol = workloads.TOL
    assert workloads.check_priced(2.0, _report(True, 0.5 * tol), ref, True).ok
    missed = workloads.check_priced(2.0, _report(False, 0.5 * tol), ref, True)
    assert not missed.ok and not missed.known_defect
    raised = workloads.check_priced(2.0, ValueError("boom"), ref, True)
    assert not raised.ok and "ValueError" in raised.detail
    # The window-end false claim fails its item but is the one known defect ...
    end = workloads.check_priced(workloads.T1, _report(True, 1.07 * tol), ref, True)
    assert not end.ok and end.false_claim and end.known_defect
    # ... only at the window end, only on the window workloads, only that large.
    assert not workloads.check_priced(9.75, _report(True, 1.07 * tol), ref, True).known_defect
    assert not workloads.check_priced(workloads.T1, _report(True, 1.07 * tol), ref,
                                      False).known_defect
    assert not workloads.check_priced(workloads.T1, _report(True, 3 * tol), ref,
                                      True).known_defect


def test_ladder_is_seeded_and_keeps_both_window_ends():
    ladder = workloads.window_ladder(7)
    assert ladder == workloads.window_ladder(7)
    assert ladder[0] == workloads.T0 and ladder[-1] == workloads.T1
    assert len(set(ladder)) == workloads.N_DRAWN + 2 and ladder == sorted(ladder)


def test_speed_meter_scales_slices_by_their_probes():
    meter = speed.SpeedMeter(dim=64)
    ref = meter.reference
    # probes start at 0, 1 and 2 s: the first two run at the reference
    # speed, the third at half of it
    meter.starts, meter.ends = [0.0, 1.0, 2.0], [ref, 1.0 + ref, 2.0 + 2 * ref]
    meter.probes = [ref, ref, 2 * ref]
    assert math.isclose(meter.scaled(0.0, 1.0), 1.0 - ref)
    assert math.isclose(meter.unprobed(0.5, 2.0), 0.5 + (1.0 - ref))
    assert math.isclose(meter.scaled(1.0 + ref, 2.0), (1.0 - ref) / 1.5)
    # work no probe saw is read at the median probe, here the reference
    assert math.isclose(meter.scaled_at_run_speed(0.8), 0.8)


def test_missing_target_or_module_is_reported_absent(monkeypatch):
    monkeypatch.setitem(
        spans.TARGETS, "gone", ("bromell.solver", "no_such_function", "solver.quadrature", None)
    )
    monkeypatch.setitem(
        spans.TARGETS, "moved", ("bromell.no_such_module", "f", "solver.quadrature", None)
    )
    rec = spans.Recorder(time.perf_counter())
    rec.install()
    rec.uninstall()
    assert rec.absent == ["gone", "moved"]


def test_metrics_read_from_an_absent_span_are_left_out():
    rec = spans.Recorder(time.perf_counter())
    rec.absent = ["SigmaMinEvaluator.__call__", "trapezoid_sum"]
    result = workloads.OpResult(0.0, 1.0, [], counters={"node_solves": 3})
    metrics, _table, left_out = spans.layer_metrics(rec, [result])
    assert left_out == [
        "pseudospectra.grid_s", "pseudospectra.sigma_evals", "pseudospectra.sigma_eval_ms",
        "pseudospectra.evals_per_node", "solver.quadrature_s",
    ]
    assert set(metrics) == set(spans.PER_LAYER) - set(left_out)
    assert metrics["solver.node_solves"] == 3


def _traced_counts(out):
    """Counts read from the spans of the first operation."""
    rec = out["recorder"]
    kids = [[] for _ in rec.spans]
    for index, s in enumerate(rec.spans):
        if s.parent >= 0:
            kids[s.parent].append(index)
    op = [i for i, s in enumerate(rec.spans) if s.op == "op-0"]
    named = lambda i, name: rec.spans[i].name == name  # noqa: E731
    nodes = [i for i in op if named(i, "NodeCache.node")]
    solved = sum(any(named(k, "ShiftedSystem.__init__") for k in kids[i]) for i in nodes)
    truncation_lus = sum(
        named(k, "ShiftedSystem.__init__")
        for i in op if named(i, "truncation_fixed_point") for k in kids[i]
    )
    item_n = []
    for i in op:
        if named(i, "item"):
            sums = [k for k in kids[i] if named(k, "trapezoid_sum")]
            if sums:
                item_n.append(rec.spans[sums[-1]].attrs["N"])
    return {
        "sigma_evals": sum(named(i, "SigmaMinEvaluator.__call__") for i in op),
        "lu_count": sum(named(i, "ShiftedSystem.__init__") for i in op),
        "node_solves": solved,
        "node_reuses": len(nodes) - solved,
        "truncation_iters": truncation_lus,
        "item_n": item_n,
    }


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_match_program_counters_and_repeat(workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)
    counts = []
    for _ in range(2):
        out = run.run(workload, seed=1, seconds=0, trace=True)
        assert len(out["results"]) == 1 and out["recorder"].absent == []
        result = out["results"][0]
        traced = _traced_counts(out)
        assert traced["node_solves"] == result.counters["node_solves"]
        assert traced["node_reuses"] == result.counters["node_reuses"]
        assert traced["truncation_iters"] == result.counters["truncation_iters"]
        assert traced["item_n"] == result.item_n
        counts.append(traced)
    assert counts[0] == counts[1]
    if workload == "bs-pseudo":
        n = workloads.PSEUDO_GRID
        # the export needs every node: at least the upper half rows, at most all
        assert math.ceil(n / 2) * n <= counts[0]["sigma_evals"] <= n * n
    if workload in ("bs-window", "bs-ladder"):
        assert counts[0]["item_n"] and counts[0]["node_solves"] > 0
