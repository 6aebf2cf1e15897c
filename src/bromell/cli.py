"""Command-line front end.

Subcommands:
    solve        place a contour, run the quadrature, write solution + report
    pseudo       emit the pseudospectral grid, level curves and contours as CSV
    convergence  error-vs-N table for a doubling node schedule
    window       one contour for [t0, t1], evaluated at sample times

Configuration is a flat key=value text file (--config); command-line flags
override file values. Exit codes: 0 when the target accuracy was reached,
2 when the feasibility check rejects the tolerance, 1 on any error.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from . import problems, pseudospectra
from .errors import BromellError
from .solver import (
    SolveOptions,
    plan_window,
    prepare_contour,
    solve,
    solve_at,
    write_errors_csv,
    write_report,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# Every flag, once: flag -> (type, SolveOptions field or None, help). The
# config file takes the same keys. A "{default}" in the help text is
# replaced by the field's default when the parser is built.
_FLAGS = {
    "problem": (str, None, "cd[:d=..,n=..], bs[:n=..,...] or file"),
    "matrix": (str, None, "operator file (coordinate text format)"),
    "u0": (str, None, "initial-state file, one value per line"),
    "t": (float, None, "evolution time"),
    "t0": (float, None, "window start time"),
    "t1": (float, None, "window end time"),
    "tol": (float, None, "target accuracy"),
    "zl": (float, "z_l", "strip left edge / ellipse center"),
    "zr": (float, "z_r", "strip right edge / right vertex"),
    "eps1": (float, "eps1", "weighted level {default}"),
    "eps2": (float, "eps2", "plain level {default}"),
    "grid": (int, "grid_pts", "grid points per axis {default}"),
    "nmax": (int, "n_max", "node-count cap {default}"),
    "validate": (bool, "validate", "measure errors against the matrix-exponential reference"),
    "out": (str, None, "output directory (default: current)"),
    "times": (str, None, "comma-separated sample times (window)"),
}
# A config file's booleans, in any case; any other value is rejected.
_BOOLEANS = dict.fromkeys(("1", "true", "yes"), True) | dict.fromkeys(("0", "false", "no"), False)


def _parse_kv_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        key, sep, value = (part.strip() for part in piece.partition("="))
        if not sep or not key:
            raise ValueError(f"bad parameter '{piece}' (expected key=value)")
        if key in out:
            raise ValueError(f"parameter '{key}' given more than once")
        out[key] = value
    return out


# --problem selector -> generator in bromell.problems, looked up when called.
_GENERATORS = {"cd": "canonical_cd_problem", "bs": "black_scholes_problem"}


def build_problem(args) -> problems.LaplaceProblem:
    """The selected problem; each parameter's name, default and type are the generator's own."""
    selector, _, param_text = (args.problem or "").partition(":")
    params = _parse_kv_params(param_text)
    if selector in _GENERATORS:
        generator = getattr(problems, _GENERATORS[selector])
        accepted = inspect.signature(generator).parameters
        for key in params:
            if key not in accepted:
                raise ValueError(
                    f"unknown parameter '{key}' for problem '{selector}' "
                    f"(use {', '.join(accepted)})"
                )
        return generator(**{key: type(accepted[key].default)(v) for key, v in params.items()})
    if selector == "file":
        if params:
            raise ValueError(f"problem 'file' takes no parameters, got '{param_text}'")
        if not args.matrix:
            raise ValueError("--problem file requires --matrix")
        return problems.load_problem(args.matrix, args.u0)
    raise ValueError(
        f"unknown problem '{args.problem}' (use cd[:d=..,n=..], bs[:n=..,...] or file)"
    )


def build_options(args) -> SolveOptions:
    """SolveOptions from the values a flag or the config file set; the rest keep their defaults."""
    given = {field: getattr(args, flag) for flag, (_, field, _) in _FLAGS.items() if field}
    return SolveOptions(**{key: value for key, value in given.items() if value is not None})


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(args, *names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"missing required option(s): {', '.join('--' + n for n in missing)}")


def _solve_and_write(args, *hints):
    """solve, then report.txt and errors.csv: (report, out dir), or (None, out dir)
    after printing a failed feasibility check and the hint lines to stderr."""
    _require(args, "t", "tol")
    report = solve(build_problem(args), args.t, args.tol, build_options(args))
    out = _out_dir(args)
    write_report(report, out / "report.txt")
    if not report.feasibility.passed:
        for line in (f"feasibility check failed: {report.feasibility}", *hints):
            print(line, file=sys.stderr)
        return None, out
    write_errors_csv(report, out / "errors.csv")
    return report, out


def cmd_solve(args) -> int:
    report, out = _solve_and_write(args, "increase --tol or override the contour placement")
    if report is None:
        return EXIT_INFEASIBLE
    problems.save_vector(out / "solution.txt", np.real_if_close(report.solution))
    print(
        f"N = {report.result.N}, model error = {report.result.est_error:.3e}"
        + (
            f", measured error = {report.reference_error:.3e}"
            if report.reference_error is not None
            else ""
        )
    )
    if not report.reached_tol:
        print(f"target accuracy {args.tol} not reached within --nmax", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def cmd_pseudo(args) -> int:
    _require(args, "t", "tol")
    unread = [f"--{flag}" for flag in ("nmax", "validate") if getattr(args, flag) is not None]
    if unread:
        raise ValueError(f"pseudo runs no quadrature and takes no {' or '.join(unread)}")
    problem = build_problem(args)
    prep = prepare_contour(problem, args.t, args.t, args.tol, build_options(args))
    out = _out_dir(args)
    pseudospectra.grid_to_csv(prep.grid, out / "grid.csv")
    pseudospectra.curve_to_csv(prep.c1, out / "curve_c1.csv")
    pseudospectra.curve_to_csv(prep.c2, out / "curve_c2.csv")
    pseudospectra.curve_to_csv(prep.critical, out / "curve_critical.csv")
    for name, points in (("gamma_plus.csv", prep.inner.boundary_points(361)),
                         ("gamma.csv", prep.contour.arc_points(361))):
        problems.write_csv(out / name, ["x", "y"], zip(points.real, points.imag))
    print(f"wrote grid and curves for box [{prep.inner.z_l}, {prep.inner.z_r}] to {out}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    report, _ = _solve_and_write(args)
    if report is None:
        return EXIT_INFEASIBLE
    for N, measured, model, b in report.errors_table:
        shown = "-" if measured is None else f"{measured:.3e}"
        print(f"N = {N:5d}  measured = {shown:>10}  model = {model:.3e}  B = {b:.3e}")
    return EXIT_OK if report.reached_tol else EXIT_ERROR


def _window_times(args) -> list:
    """The sample times of --times, each checked against [t0, t1]; five
    geometrically spaced ones when --times is not given."""
    if not args.times:
        return list(np.geomspace(args.t0, args.t1, 5))
    times = []
    for text in args.times.split(","):
        try:
            t = float(text)
        except ValueError:
            raise ValueError(f"bad --times value '{text}' (expected a number)") from None
        if not args.t0 <= t <= args.t1:
            raise ValueError(f"t = {t} outside the window [{args.t0}, {args.t1}]")
        times.append(t)
    return times


def cmd_window(args) -> int:
    _require(args, "t0", "t1", "tol")
    if not args.t0 < args.t1:
        raise ValueError("--t0 must be strictly smaller than --t1")
    times = _window_times(args)
    problem = build_problem(args)
    plan = plan_window(problem, args.t0, args.t1, args.tol, build_options(args))
    if not plan.feasibility.passed:
        print(f"feasibility check failed: {plan.feasibility}", file=sys.stderr)
    out = _out_dir(args)
    rows = []
    all_reached = True
    for t in times:
        before = plan.cache.reuse_count
        rep = solve_at(plan, problem, t)
        reused = plan.cache.reuse_count - before
        err = rep.reference_error if rep.reference_error is not None else rep.result.est_error
        rows.append((t, rep.truncation.c, rep.truncation.K, rep.result.N, err, reused))
        all_reached = all_reached and rep.reached_tol
    header = ["t", "c_t", "K_t", "N_used", "error", "reused_solves"]
    problems.write_csv(out / "window.csv", header, rows)
    print(
        f"plan: a = {plan.contour.a:.4f}, grid width c = {plan.c_grid:.4f}, "
        f"{plan.n_nodes} nodes"
    )
    first = min(plan.n_nodes, plan.opts.n_max)  # each time's first rule
    print(
        f"solves = {plan.cache.solve_count}, reused = {plan.cache.reuse_count} "
        f"(nodes x (times - 1) = {(first - 1) * (len(times) - 1)})"
    )
    return EXIT_OK if all_reached else EXIT_ERROR


def _load_config(path) -> dict:
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key = key.strip()
            if key in values:
                raise ValueError(f"{path}:{lineno}: key '{key}' given more than once")
            values[key] = value.strip()
    return values


def _apply_config(args):
    if args.config:
        for key, raw in _load_config(args.config).items():
            if key not in _FLAGS:
                raise ValueError(f"unknown config key '{key}'")
            # Flags win: only fill values the command line left unset.
            if getattr(args, key, None) is None:
                kind = _FLAGS[key][0]
                if kind is bool and raw.lower() not in _BOOLEANS:
                    raise ValueError(f"config key '{key}' takes 1/true/yes or 0/false/no, got '{raw}'")
                setattr(args, key, _BOOLEANS[raw.lower()] if kind is bool else kind(raw))


def _default(field: str) -> str:
    """'(default v)' for a SolveOptions field, its exponent unpadded: 1e-9, not 1e-09."""
    mantissa, _, exponent = f"{getattr(SolveOptions, field):g}".partition("e")
    return f"(default {mantissa}e{int(exponent)})" if exponent else f"(default {mantissa})"


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key=value config file; flags override it")
    for flag, (kind, field, text) in _FLAGS.items():
        if "{default}" in text:
            text = text.format(default=_default(field))
        if kind is bool:
            p.add_argument(f"--{flag}", action="store_true", default=None, help=text)
        else:
            p.add_argument(f"--{flag}", type=kind, default=None, help=text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bromell",
        description="Evolve u' = Au + b(t) by contour-quadrature Laplace inversion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "solve": cmd_solve,
        "pseudo": cmd_pseudo,
        "convergence": cmd_convergence,
        "window": cmd_window,
    }
    for name in handlers:
        _add_common(sub.add_parser(name))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        if exc.code == 2:
            return EXIT_ERROR
        raise
    try:
        _apply_config(args)
        if args.problem is None:
            raise ValueError("missing required option: --problem")
        return handlers[args.command](args)
    except (BromellError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
