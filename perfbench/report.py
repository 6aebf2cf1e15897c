"""Run every workload in its own process, untraced and traced, and print one table.

    python3 perfbench/report.py [--seed 1]

Each run measures for BENCHMARK.json's run_seconds.

For each workload: the end-to-end figures of the untraced run (setup_s,
op_s, plan_s, ladder_s in seconds at the speed meter's reference speed, with
the wall-clock op time beside them), peak_rss_mb, fail_share with its counts,
and the tracing overhead, which is the traced run's wall op time minus the
untraced run's wall op time (meter probes excluded). The traced run's
per-layer metrics follow, one block per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 900
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_one(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One fresh process; returns its detail line and its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return detail, json.loads(lines[-1])


def median_or_none(values):
    return statistics.median(values) if values else None


def fmt(value, digits=4):
    return "n/a" if value is None else f"{value:.{digits}f}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    rows, traced = [], {}
    for workload in WORKLOAD_NAMES:
        plain, plain_result = run_one(workload, args.seed, 0)
        trace, trace_result = run_one(workload, args.seed, 1)
        ref, wall = plain["reference"], plain["wall"]
        rows.append((
            workload,
            f"{ref['setup_s']:.4f}",
            f"{ref['op_s']:.4f} (n={len(ref['op_runs'])})",
            f"{fmt(median_or_none(ref['plan_s']))}",
            f"{fmt(median_or_none(ref['ladder_s']))}",
            f"{wall['op_s']:.4f}",
            f"{plain['peak_rss_mb']:.1f}",
            f"{plain['failed'] / plain['attempted']:.3f} ({plain['failed']}/{plain['attempted']})",
            f"{trace['wall']['op_s'] - wall['op_s']:+.4f}",
            "yes" if plain_result["correct"] and trace_result["correct"] else "NO",
        ))
        traced[workload] = (trace, trace_result["metrics"])

    header = ("workload", "setup_s", "op_s", "plan_s", "ladder_s", "wall op_s",
              "peak_rss_mb", "fail_share", "trace overhead s", "correct")
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(len(header))]
    print(f"seed {args.seed}, {RUN_SECONDS} s per run; times in s at the speed meter's "
          "reference speed unless marked wall; op_s is a median over n operations")
    for r in [header, *rows]:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    for workload, (trace, metrics) in traced.items():
        print(f"\n{workload} traced ({trace['operations']} operations)"
              + (f"; absent spans: {', '.join(trace['absent'])}; left out: "
                 f"{', '.join(trace['left_out'])}" if trace["absent"] else ""))
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
