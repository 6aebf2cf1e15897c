"""Alternating base/change runs of perfbench, summarised as one BENCH JSON file.

    python3 tools/bench_pairs.py <rev> <out.json>

<rev> is exported with `git archive` into a temporary directory; the change
is the working tree. Each side runs its own `perfbench/run.py`. For every
workload in BENCHMARK.json there are ten untraced pairs on seeds 1-10 at
BENCHMARK.json's run_seconds, with the base side first on odd seeds and the
change first on even ones. Then each workload gets three (TRACED_RUNS)
alternating traced pairs on seed 1, the base side first in the first pair:
one traced run's per-layer wall times spread too widely to compare. The
file holds every run, the median and quartiles of each end-to-end metric
per side, the pairs the change wins, and per side the median of each traced
count and per-layer time named in TRACED (`traced`) beside every traced
run's values (`traced_runs`), the default z_r search's time
(`solver.z_r_default_s`) beside the grid's time and σ_min evaluations.
Each untraced run also keeps its import_s, the median fresh
`import bromell.cli` at the reference speed that setup_s includes, read
from the run's detail line, with its median and quartiles per side.
"""

from __future__ import annotations

import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACED_RUNS = 3
TRACED = (
    "numerics.lu_count",
    "numerics.lu_s",
    "pseudospectra.grid_s",
    "pseudospectra.sigma_evals",
    "pseudospectra.sigma_eval_ms",
    "pseudospectra.evals_per_node",
    "solver.z_r_default_s",
    "solver.node_solves",
    "solver.node_reuses",
    "solver.quadrature_s",
    "solver.truncation_bound_s",
    "solver.false_claims",
    "contour.feasibility_s",
    "contour.truncation_s",
)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its result line, exit code, env line and import time."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{tree} {workload} seed {seed}: no result line\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    timing = detail["reference"] if "reference" in detail else detail["wall"]
    return {"exit": proc.returncode, "env": env, "import_s": timing["import_s"], **result}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev, out_path = sys.argv[1], Path(sys.argv[2])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        base = Path(tmp)
        archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base / "tree", filter="data")
        trees = {"base": base / "tree", "change": ROOT}
        report = {
            "base": commit,
            "change": "working tree",
            "run_seconds": seconds,
            "pairs": PAIRS,
            "workloads": {},
        }
        for wl in bench["workloads"]:
            name = wl["name"]
            runs = []
            for seed in range(1, PAIRS + 1):
                order = ("base", "change") if seed % 2 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], name, seed, seconds, 0)
                    print(f"{name} seed {seed} {side}: "
                          f"op_s {pair[side]['metrics']['op_s']['value']:.4g}", flush=True)
                runs.append(pair)
            metrics = {}
            for metric, spec in end_to_end.items():
                vals = {side: [p[side]["metrics"][metric]["value"] for p in runs]
                        for side in trees}
                better = min if spec["better"] == "lower" else max
                wins = sum(c != b and better(b, c) == c
                           for b, c in zip(vals["base"], vals["change"]))
                metrics[metric] = {
                    "unit": spec["unit"],
                    "base": summary(vals["base"]),
                    "change": summary(vals["change"]),
                    "change_wins": wins,
                }
            failed = {side: [f"{p[side]['failed']}/{p[side]['attempted']}" for p in runs]
                      for side in trees}
            traced_runs = []
            for k in range(TRACED_RUNS):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                pair = {"first": order[0]}
                for side in order:
                    traced_metrics = run(trees[side], name, 1, seconds, 1)["metrics"]
                    pair[side] = {m: traced_metrics[m]["value"] for m in TRACED if m in traced_metrics}
                traced_runs.append(pair)
            traced = {}
            for side in trees:
                kept = [m for m in TRACED if all(m in p[side] for p in traced_runs)]
                traced[side] = {m: statistics.median(p[side][m] for p in traced_runs)
                                for m in kept}
                traced[side]["absent_metrics"] = [m for m in TRACED if m not in kept]
            imports = {side: [p[side]["import_s"] for p in runs] for side in trees}
            report["workloads"][name] = {
                "end_to_end": metrics,
                "import_s": {side: summary(vals) for side, vals in imports.items()},
                "failed_items": failed,
                "traced": traced,
                "traced_runs": traced_runs,
                "runs": [{"seed": p["seed"], "first": p["first"],
                          **{side: {**{m: p[side]["metrics"][m]["value"] for m in end_to_end},
                                    "import_s": p[side]["import_s"]}
                             for side in trees}} for p in runs],
            }
        report["env"] = runs[0]["base"]["env"]
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
