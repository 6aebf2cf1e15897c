"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values marked as 'reference' are the published behavior of
this configuration; tolerances are part of the gate and are not tunable.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import bromell as bm
from bromell.solver import NodeCache, estimate_k_ell


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def diag_report(diag_problem):
    return bm.solve(diag_problem, 1.0, 1e-10, bm.SolveOptions(grid_pts=40, validate=True))


@pytest.fixture(scope="module")
def bs_coarse_tol_report(bs_problem):
    # The contour the end-leakage table is computed on: t = 1, tol = 5e-3.
    return bm.solve(bs_problem, 1.0, 5e-3, bm.SolveOptions(z_l=-40.0, z_r=0.05, grid_pts=50))


def test_criterion_01_reference_recipe(cd_problem):
    # d=400, 64-point collocation, t=1, tol=5e-8, z_l=-40, z_r=0.09,
    # weighted/plain levels 1e-9/1e-13. Reference values: a = 0.4543 +- 0.05,
    # c = 0.3160 +- 0.05, K = 0.2251 within x/1.5, <= 5 iterations, measured
    # error <= 5e-8 at some N <= 35, all within 60 s including the grid.
    start = time.perf_counter()
    opts = bm.SolveOptions(z_l=-40.0, z_r=0.09, prec=1e-2, validate=True)
    rep = bm.solve(cd_problem, 1.0, 5e-8, opts)
    elapsed = time.perf_counter() - start

    ref = bm.reference_solution(cd_problem, 1.0)
    cache = rep.result.cache
    best_n = None
    for N in range(5, 36):
        q = bm.trapezoid_sum(cd_problem, rep.contour, rep.truncation.c, 1.0, N, cache)
        if np.linalg.norm(q.approx - ref) <= 5e-8:
            best_n = N
            break

    ok_a = abs(rep.contour.a - 0.4543) <= 0.05
    ok_c = abs(rep.truncation.c - 0.3160) <= 0.05
    ok_k = 0.2251 / 1.5 <= rep.truncation.K <= 0.2251 * 1.5
    ok_it = rep.truncation.iterations <= 5
    ok_err = best_n is not None
    ok_time = elapsed <= 60.0
    ok = _line(
        1,
        ok_a and ok_c and ok_k and ok_it and ok_err and ok_time,
        f"a={rep.contour.a:.4f}, c={rep.truncation.c:.4f}, K={rep.truncation.K:.4f}, "
        f"iters={rep.truncation.iterations}, tol reached at N={best_n}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_02_call_operator_both_times(bs_problem, bs_report_t1, bs_report_t10):
    # tol = 5e-6 reached at N <= 40 for t = 1 and t = 10; the attainable-
    # precision forecast (the reported 'maximal precision' of these runs,
    # ~1e-11) must be <= 1e-9; three further doublings never increase the
    # error beyond the round-off floor.
    details = []
    ok = True
    for rep, t in ((bs_report_t1, 1.0), (bs_report_t10, 10.0)):
        reached = [N for N, measured, _, _ in rep.errors_table if measured is not None and measured <= 5e-6]
        ok_n = bool(reached) and min(reached) <= 40
        ok_floor = rep.feasibility.achievable <= 1e-9
        ref = bm.reference_solution(bs_problem, t)
        q = rep.result
        errs = [float(np.linalg.norm(q.approx - ref))]
        for _ in range(3):
            q = bm.trapezoid_sum(bs_problem, rep.contour, q.c, t, 2 * q.N, cache=q.cache)
            errs.append(float(np.linalg.norm(q.approx - ref)))
        floor = rep.feasibility.achievable
        ok_stable = all(
            nxt <= prv * 1.05 + 10 * floor for prv, nxt in zip(errs, errs[1:])
        )
        ok = ok and ok_n and ok_floor and ok_stable
        details.append(
            f"t={t:g}: N*={min(reached) if reached else '-'}, forecast={floor:.1e}, "
            f"doublings={['%.1e' % e for e in errs[1:]]}"
        )
    assert _line(2, ok, "; ".join(details))


def test_criterion_03_truncation_iteration_budget(
    cd_problem, bs_problem, diag_problem, cd_report, bs_report_t1, bs_report_t10, diag_report
):
    # With prec = 0.1 from K = 100 the iteration settles in <= 5 steps on every
    # built-in problem, and the integrand level at the truncation point lands within
    # a factor 2 of the target accuracy.
    runs = [
        (cd_problem, cd_report.contour, 1.0, 5e-8),
        (bs_problem, bs_report_t1.contour, 1.0, 5e-6),
        (bs_problem, bs_report_t10.contour, 10.0, 5e-6),
        (diag_problem, diag_report.contour, 1.0, 1e-10),
    ]
    ok = True
    details = []
    for problem, params, t, tol in runs:
        res = bm.truncation_fixed_point(problem, params, t, tol, prec=0.1)
        g = bm.integrand(problem, params, res.c * math.pi, t)
        level = np.linalg.norm(g) / (2 * math.pi)
        ok_run = res.iterations <= 5 and tol / 2 <= level <= 2 * tol
        ok = ok and ok_run
        details.append(f"{problem.label}: {res.iterations} its, |G|/2pi = {level / tol:.2f} tol")
    assert _line(3, ok, "; ".join(details))


def test_criterion_04_end_leakage_published_anchor(bs_coarse_tol_report):
    # t = 1, tol = 5e-3, N = 5: the end-leakage factor must be <= 1e-15 and
    # within two orders of magnitude of the published 1.1431e-18. The factor
    # swings several orders with the third digit of c (the published table
    # itself jumps 1e-18 -> 4e-14 between neighbouring tolerances), so this
    # anchor is sensitive to the exact truncation point.
    rep = bs_coarse_tol_report
    B = bm.b_term(rep.contour, rep.truncation.c, 1.0, 5)
    anchor = 1.1431e-18
    ok_small = B <= 1e-15
    ok_anchor = 1e-2 <= B / anchor <= 1e2
    assert _line(
        4,
        ok_small and ok_anchor,
        f"B(N=5) = {B:.4e} (anchor {anchor:.4e}, ratio {B / anchor:.2e}, c = {rep.truncation.c:.4f})",
    )


def test_criterion_04b_end_leakage_small_in_every_run(
    cd_report, bs_report_t1, bs_report_t10, diag_report
):
    # Companion clause: in every acceptance run the leakage at N = 5 stays
    # below tol/100.
    ok = True
    details = []
    for rep, t in ((cd_report, 1.0), (bs_report_t1, 1.0), (bs_report_t10, 10.0), (diag_report, 1.0)):
        B = bm.b_term(rep.contour, rep.truncation.c, t, 5)
        ok = ok and B < rep.tol / 100.0
        details.append(f"{rep.label}@t={t:g}: B = {B:.1e} vs tol/100 = {rep.tol / 100:.1e}")
    assert _line(4, ok, "companion clause; " + "; ".join(details))


def test_criterion_05_grid_resolution_robustness(bs_problem):
    # Solutions driven from 25-point and 250-point resolvent grids agree to
    # 1e-5 in the max norm.
    sols = {}
    for grid_pts in (25, 250):
        rep = bm.solve(
            bs_problem,
            1.0,
            5e-6,
            bm.SolveOptions(z_l=-40.0, z_r=0.05, grid_pts=grid_pts, validate=True),
        )
        assert rep.reached_tol
        sols[grid_pts] = rep.result.approx
    diff = float(np.max(np.abs(sols[25] - sols[250])))
    assert _line(5, diff <= 1e-5, f"inf-norm difference 25 vs 250 grid: {diff:.3e}")


def test_criterion_06_spectral_rate(cd_problem, cd_report, cd_reference):
    # The log10(error)-vs-N fit over the whole decaying branch (everything
    # more than 10x above the observed floor) matches -(a/c)/ln 10 within 30%.
    params, c = cd_report.contour, cd_report.truncation.c
    cache = NodeCache(cd_problem, params, c)
    rows = []
    for N in range(6, 45, 2):
        q = bm.trapezoid_sum(cd_problem, params, c, 1.0, N, cache)
        rows.append((N, float(np.linalg.norm(q.approx - cd_reference))))
    floor = min(err for _, err in rows)
    pts = [(N, math.log10(err)) for N, err in rows if err > 10 * floor]
    slope = float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])
    expected = -(params.a / c) / math.log(10.0)
    ratio = slope / expected
    assert _line(
        6,
        0.7 <= ratio <= 1.3,
        f"fitted slope {slope:.4f} vs theoretical {expected:.4f} (ratio {ratio:.3f}, "
        f"{len(pts)} points)",
    )


def test_criterion_07_oracle_equivalence(diag_problem, diag_report):
    # diag(-1,-2) with b = 0 matches (e^-t, e^-2t) to 1e-10 at N = 40, and a
    # 1x1 constant-source problem matches its closed form to 1e-10.
    exact = np.array([math.exp(-1.0), math.exp(-2.0)])
    q40 = bm.trapezoid_sum(
        diag_problem, diag_report.contour, diag_report.truncation.c, 1.0, 40,
        diag_report.result.cache,
    )
    err_diag = float(np.max(np.abs(q40.approx - exact)))

    const = bm.LaplaceProblem(
        bm.Operator(np.array([[-1.0]])),
        np.zeros(1),
        (bm.SourceTerm(np.ones(1), 0.0),),
        label="const-source",
    )
    rep = bm.solve(const, 1.0, 1e-10, bm.SolveOptions(grid_pts=24, validate=True))
    err_const = abs(float(rep.result.approx[0]) - (1.0 - math.exp(-1.0)))
    ok = err_diag <= 1e-10 and err_const <= 1e-10
    assert _line(7, ok, f"diag N=40 err = {err_diag:.2e}; 1x1 source err = {err_const:.2e}")


def test_criterion_08_doubling_reuse(cd_problem, cd_report):
    params, c = cd_report.contour, cd_report.truncation.c
    cache = NodeCache(cd_problem, params, c)
    q5 = bm.trapezoid_sum(cd_problem, params, c, 1.0, 5, cache)
    solves_before = cache.solve_count
    q10 = bm.trapezoid_sum(cd_problem, params, c, 1.0, 2 * q5.N, cache=q5.cache)
    new_solves = cache.solve_count - solves_before
    direct = bm.trapezoid_sum(cd_problem, params, c, 1.0, 10, NodeCache(cd_problem, params, c))
    rel = float(
        np.linalg.norm(q10.approx - direct.approx) / np.linalg.norm(direct.approx)
    )
    bit_identical = all(
        np.array_equal(a, b) for a, b in zip(q10.node_values, direct.node_values)
    )
    ok = rel <= 1e-14 and bit_identical and new_solves == 5
    assert _line(
        8,
        ok,
        f"refine(5->10) vs direct: rel = {rel:.1e}, cached values bit-identical = "
        f"{bit_identical}, new solves = {new_solves}",
    )


def test_criterion_09_time_window(bs_problem, bs_window):
    # One plan on [1, 10] at tol = 5e-8: every sampled time meets tol, the
    # per-time truncation follows the linear-K rule, and the counters show
    # node reuse across times.
    plan = dataclasses.replace(bs_window, opts=dataclasses.replace(bs_window.opts, validate=True))
    times = (1.0, 2.0, 5.0, 10.0)
    ok = True
    details = []
    reuse_expected = 0
    for i, t in enumerate(times):
        known = plan.cache.solve_count
        rep = bm.solve_at(plan, bs_problem, t)
        ok_err = rep.reference_error is not None and rep.reference_error <= 5e-8
        k_t = plan.trunc0.K + (plan.trunc1.K - plan.trunc0.K) * (t - plan.t0) / (plan.t1 - plan.t0)
        arg = math.log(plan.tol / k_t) / (plan.contour.A1 * t) - plan.contour.A3 / plan.contour.A1
        c_t = math.acos(max(arg, 0.0)) / math.pi
        ok_rule = rep.truncation.K == pytest.approx(k_t, rel=1e-14) and rep.truncation.c == pytest.approx(c_t, rel=1e-14)
        ok = ok and ok_err and ok_rule
        if i > 0:
            reuse_expected += known  # every previously solved node is reused
        details.append(f"t={t:g}: err={rep.reference_error:.1e} N={rep.result.N}")
    ok_reuse = plan.cache.reuse_count >= reuse_expected > 0
    ok = ok and ok_reuse
    assert _line(
        9,
        ok,
        "; ".join(details)
        + f"; reuse themselves = {plan.cache.reuse_count} >= expected {reuse_expected}",
    )


def test_criterion_10_bound_validity(
    cd_problem, bs_problem, diag_problem, cd_report, bs_report_t1, diag_report
):
    # The assembled quadrature bound dominates the measured error on the
    # acceptance runs, and the half-line truncation bound stays below tol
    # with the default center placement.
    ok = True
    details = []
    runs = [
        (cd_problem, cd_report, 1.0),
        (bs_problem, bs_report_t1, 1.0),
        (diag_problem, diag_report, 1.0),
    ]
    for problem, rep, t in runs:
        ref = bm.reference_solution(problem, t)
        for N in (rep.result.N // 2, rep.result.N):
            q = bm.trapezoid_sum(problem, rep.contour, rep.truncation.c, t, N, rep.result.cache)
            err = float(np.linalg.norm(q.approx - ref))
            bound = bm.rigorous_error_bound(problem, rep.contour, rep.truncation.c, t, N, rep.tol)
            ok = ok and bound >= err
            details.append(f"{rep.label} N={N}: err {err:.1e} <= bound {bound:.1e}")
    # half-line truncation bounds stay below tol (diag uses the default
    # center placement, the reference recipe its prescribed one)
    for problem, rep in ((diag_problem, diag_report), (cd_problem, cd_report)):
        k_ell = estimate_k_ell(problem, rep.contour, 1.0)
        t_bound = bm.truncation_bound(rep.contour, rep.truncation.c, 1.0, k_ell, rep.tol)
        ok = ok and t_bound < rep.tol
        details.append(f"{rep.label} truncation bound {t_bound:.1e} < tol {rep.tol:.0e}")
    assert _line(10, ok, "; ".join(details))


def test_ingestion_round_trip(bs_problem, tmp_path):
    # Operator files round-trip bit-exactly and a loaded problem solves the
    # same as the in-memory one.
    path = tmp_path / "bs.mtx"
    bm.save_operator(path, bs_problem.operator)
    loaded = bm.load_operator(path)
    ok = np.array_equal(loaded.entries, bs_problem.operator.entries)
    print(f"[ingestion ] {'PASS' if ok else 'FAIL'}: operator round-trip bit-exact")
    assert ok
