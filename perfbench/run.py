"""Run one bromell benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cd-recipe --seed 1 --seconds 10 --trace 0

The program is imported from `src/` of the checkout this file sits in. The
BLAS thread count is pinned to one before numpy loads, and the process to one
CPU. Set-up is timed as the median time of IMPORT_REPEATS fresh processes
that import bromell plus the median of SETUP_REPEATS set-ups in this
process; operations repeat until the next one would end past
`--seconds` (at least one runs). Every item is checked.

With `--trace 0` the result carries the end-to-end metrics. Their times are
read through the speed meter (speed.py), in seconds at its reference speed;
wall times, with the probes left out, are printed beside them. With `--trace 1` the public
functions of each bromell module are wrapped (spans.py), the result carries
the per-layer metrics, and every span is written to `.bench_build/perfbench/`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# workload -> the speed meter's probe: the operator dimension, and whether the
# probe is timed warm (σ_min grids) or cold (bs-ladder's LU factorizations);
# speed.py gives the measurement behind the choice
PROBE = {
    "cd-recipe": (64, True),
    "bs-window": (200, True),
    "bs-ladder": (200, False),
    "bs-pseudo": (200, True),
}
WORKLOAD_NAMES = tuple(PROBE)
END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))
BLAS_THREADS = "1"


def pin_process() -> int:
    """One BLAS thread (before numpy loads) and one CPU for this process.

    A single thread beat the default two on a bs grid kernel in 4 of 4
    alternating pairs; migrations between cores add run-to-run spread.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program() -> None:
    """Put the checkout's src/ first on the path and import bromell from it."""
    if not (SRC / "bromell" / "__init__.py").is_file():
        raise SystemExit(f"error: no bromell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bromell

    if Path(bromell.__file__).resolve().parent != SRC / "bromell":
        raise SystemExit(f"error: bromell imported from {bromell.__file__}, not {SRC}")


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "cpus": sorted(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def time_import(meter) -> float:
    """Wall seconds from starting a fresh Python process to bromell imported in it.

    The process inherits the pinned BLAS threads and CPU, and reports the
    system-wide monotonic clock once the import is done. The meter pauses
    meanwhile, so as not to take CPU from the child.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import bromell.cli; "
            "print(time.monotonic())")
    with meter.paused() if meter is not None else nullcontext():
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - start


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Time the imports and SETUP_REPEATS set-ups, repeat the operation for
    `seconds`, check every item."""
    import speed

    meter = None if trace else speed.SpeedMeter(*PROBE[workload])
    if meter is not None:
        meter.start()
    try:
        load_program()
        import spans
        import workloads

        imports = [time_import(meter) for _ in range(IMPORT_REPEATS)]
        workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
        wl = workloads.WORKLOADS[workload](seed, workdir)
        rec = spans.Recorder(time.perf_counter()) if trace else None
        span = rec.span if rec is not None else workloads.no_span
        if rec is not None:
            rec.install()
        try:
            setups = []
            for k in range(SETUP_REPEATS):
                if rec is not None:
                    rec.op = f"setup-{k}"
                start = time.perf_counter()
                state = wl.setup()
                setups.append((start, time.perf_counter()))
            if rec is not None:
                rec.op = "references"
            refs = wl.references(state)

            results = []
            began = time.perf_counter()
            while True:
                if rec is not None:
                    rec.op = f"op-{len(results)}"
                with span("operation"):
                    results.append(wl.operation(state, refs, span))
                elapsed = time.perf_counter() - began
                if elapsed + median([r.seconds for r in results]) > seconds:
                    break
        finally:
            if rec is not None:
                rec.uninstall()
            shutil.rmtree(workdir, ignore_errors=True)
    finally:
        if meter is not None:
            meter.stop()
    return {
        "workload": workload,
        "seed": seed,
        "imports": imports,
        "setups": setups,
        "results": results,
        "meter": meter,
        "recorder": rec,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timings(out: dict, scale, scale_child=lambda seconds: seconds) -> dict:
    """setup_s, op_s and the two bs-window phases, each interval read through
    `scale` and each child-process import through `scale_child`.

    The import is file reading and bytecode loading: the probe does not
    follow its speed from moment to moment (scaling each of 24 imports by
    probes taken around it widened their spread from 17 % to 25 %), but the
    run's median probe does follow the machine's drift (on 10 cd-recipe runs
    it narrowed the spread of setup_s from 36 % to 18 %).
    """
    results = out["results"]
    import_s = median([scale_child(seconds) for seconds in out["imports"]])
    setup_runs = [scale(a, b) for a, b in out["setups"]]
    op_runs = [scale(r.start, r.end) for r in results]
    return {
        "import_s": import_s,
        "setup_runs": setup_runs,
        "setup_s": import_s + median(setup_runs),
        "op_runs": op_runs,
        "op_s": median(op_runs),
        **{
            name: [scale(*r.phases[name]) for r in results if name in r.phases]
            for name in ("plan_s", "ladder_s")
        },
    }


def summary(out: dict) -> tuple[bool, int, int]:
    """correct, attempted, failed; a known defect fails its item but not `correct`."""
    items = [item for r in out["results"] for item in r.items]
    failed = sum(not item.ok for item in items)
    correct = all(item.ok or item.known_defect for item in items)
    return correct, len(items), failed


def print_timings(label: str, t: dict) -> None:
    ops = t["op_runs"]
    print(f"  {label}")
    print(f"    setup_s      {t['setup_s']:.4f} s  (median of {IMPORT_REPEATS} imports "
          f"{t['import_s']:.4f} s + median of "
          f"{len(t['setup_runs'])} set-ups: "
          + ", ".join(f"{v:.4f}" for v in t["setup_runs"]) + ")")
    print(f"    op_s         {t['op_s']:.4f} s  median of n={len(ops)}  "
          f"min {min(ops):.4f}  max {max(ops):.4f}")
    for phase in ("plan_s", "ladder_s"):
        values = t[phase]
        shown = f"{median(values):.4f} s  median of n={len(values)}" if values else "n/a"
        print(f"    {phase:<12} {shown}")


def report(out: dict, metrics: dict, table: dict | None, left_out: list[str]) -> dict:
    """Print the human-readable report; return the same figures as one dict."""
    correct, attempted, failed = summary(out)
    results, meter = out["results"], out["meter"]
    print(f"workload {out['workload']}  seed {out['seed']}  trace {int(table is not None)}  "
          f"operations {len(results)}  items {attempted}")
    detail = {"workload": out["workload"], "seed": out["seed"], "trace": table is not None,
              "operations": len(results), "attempted": attempted, "failed": failed}
    if meter is not None:
        detail["reference"] = timings(out, meter.scaled, meter.scaled_at_run_speed)
        detail["wall"] = timings(out, meter.unprobed)
        print_timings("at the reference speed (speed.py); these are reported", detail["reference"])
        print_timings("wall clock, meter probes excluded", detail["wall"])
        print(f"  speed meter    {len(meter.probes)} probes, median "
              f"{1e6 * meter.median_probe():.1f} us")
    else:
        detail["wall"] = timings(out, lambda a, b: b - a)
        print_timings("wall clock, traced", detail["wall"])
    detail["peak_rss_mb"] = out["peak_rss_mb"]
    print(f"  peak_rss_mb    {out['peak_rss_mb']:.1f} MB")
    share = failed / attempted if attempted else 0.0
    print(f"  fail_share     {share:.4f}  ({failed} failed of {attempted} items)")
    detail["failures"] = sorted({
        f"{i.label}: {i.detail}" + (" [known defect]" if i.known_defect else "")
        for r in results for i in r.items if not i.ok
    })
    for line in detail["failures"]:
        print(f"    failed {line}")
    if table is not None:
        import spans

        op_s = detail["wall"]["op_s"]
        print(f"  per-layer calls and self time per operation (median of {len(results)}, "
              f"share of op_s {op_s:.4f} s):")
        for layer, (n_calls, self_s) in table.items():
            print(f"    {layer:<26} calls {n_calls:>8g}  self {self_s:.4f} s  "
                  f"{100 * self_s / op_s:6.2f} %")
        detail["absent"] = out["recorder"].absent
        detail["left_out"] = left_out
        if detail["absent"]:
            print("  absent spans: " + ", ".join(detail["absent"]))
            print("  metrics left out, read from absent spans: " + ", ".join(left_out))
        for name, value in metrics.items():
            print(f"  {name:<32} {value:.6g} {spans.PER_LAYER[name][0]}")
    if not correct:
        print("CHECK FAILED: an item failed outside the known defects", file=sys.stderr)
    return detail


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_process()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    table, left_out = None, []
    if args.trace:
        import spans

        metrics, table, left_out = spans.layer_metrics(out["recorder"], out["results"])
        units = {name: unit for name, (unit, _sources) in spans.PER_LAYER.items()}
        OUT.mkdir(parents=True, exist_ok=True)
        out["recorder"].write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        t = timings(out, out["meter"].scaled, out["meter"].scaled_at_run_speed)
        metrics = {"setup_s": t["setup_s"], "op_s": t["op_s"], "peak_rss_mb": out["peak_rss_mb"]}
        units = dict(END_TO_END)
    env = environment()
    print("env " + json.dumps(env))
    detail = report(out, metrics, table, left_out)
    print("detail " + json.dumps({**detail, "env": env}))
    correct, attempted, failed = summary(out)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
