"""Quadrature mechanics, error models, pipeline, and time windows."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bromell as bm
from bromell import contour, numerics, pseudospectra, solver
from bromell.errors import GeometryError, SingularSystemError, StageError
from bromell.solver import (
    ROUNDOFF_SAFETY,
    NodeCache,
    delta_offset,
    estimate_delta,
    estimate_k_ell,
    full_sum,
    sample_line_maxima,
)


@pytest.fixture(scope="module")
def scalar_problem():
    return bm.LaplaceProblem(bm.Operator(np.array([[-1.0]])), np.ones(1), label="scalar")


@pytest.fixture(scope="module")
def scalar_params():
    inner = bm.InnerEllipse(z_l=-41.0, z_r=-0.9, d=-1.0, r=0.5)
    return bm.contour_from_a(inner, 0.45)


class TestIntegrand:
    def test_scalar_closed_form(self, scalar_problem, scalar_params):
        t = 1.0
        for x in (0.0, 0.4, -0.9, complex(0.2, 0.1)):
            z, dz = bm.conformal_map(scalar_params, x)
            expected = np.exp(z * t) / (z + 1.0) * dz
            got = bm.integrand(scalar_problem, scalar_params, x, t)
            assert got[0] == pytest.approx(expected, rel=1e-13)

    def test_conjugate_symmetry_for_real_data(self, cd_problem, cd_report):
        params = cd_report.contour
        for x in (0.2, 0.7, 1.0):
            g_pos = bm.integrand(cd_problem, params, x, 1.0)
            g_neg = bm.integrand(cd_problem, params, -x, 1.0)
            assert np.linalg.norm(g_neg) == pytest.approx(
                np.linalg.norm(np.conj(g_pos)), rel=1e-13
            )

    def test_arc_peak_at_center(self, bs_problem, bs_report_t1):
        params, c = bs_report_t1.contour, bs_report_t1.truncation.c
        g0 = np.linalg.norm(bm.integrand(bs_problem, params, 0.0, 1.0))
        gc = np.linalg.norm(bm.integrand(bs_problem, params, c * math.pi, 1.0))
        assert np.isfinite(g0) and g0 > gc


class TestTrapezoidSum:
    def test_zero_data_is_zero(self, scalar_params):
        prob = bm.LaplaceProblem(bm.Operator(np.array([[-1.0]])), np.zeros(1))
        for N in (5, 8, 13):
            q = bm.trapezoid_sum(prob, scalar_params, 0.3, 1.0, N)
            assert np.all(q.approx == 0.0)

    def test_scalar_decay(self, scalar_problem, scalar_params):
        q = bm.trapezoid_sum(scalar_problem, scalar_params, 0.35, 1.0, 40)
        assert q.approx[0] == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_midpoint_node_membership(self, scalar_problem, scalar_params):
        # Even N has the x = 0 node exactly once; odd N does not have it.
        q_even = bm.trapezoid_sum(scalar_problem, scalar_params, 0.3, 1.0, 8)
        q_odd = bm.trapezoid_sum(scalar_problem, scalar_params, 0.3, 1.0, 9)
        assert np.count_nonzero(q_even.nodes == 0.0) == 1
        assert np.count_nonzero(q_odd.nodes == 0.0) == 0
        assert len(q_even.nodes) == 7 and len(q_odd.nodes) == 8

    def test_folded_sum_is_real_and_matches_full_sum(self, cd_problem, cd_report):
        params, c = cd_report.contour, cd_report.truncation.c
        for N in (9, 14):  # odd and even, the latter contains x = 0
            q = bm.trapezoid_sum(cd_problem, params, c, 1.0, N)
            assert not np.iscomplexobj(q.approx)
            unfolded = full_sum(q)
            scale = np.linalg.norm(q.approx)
            assert np.linalg.norm(unfolded.real - q.approx) <= 1e-13 * scale
            assert np.linalg.norm(unfolded.imag) <= 1e-13 * scale

    def test_even_n_midpoint_needs_half_weight(self, cd_problem, cd_report):
        # Folding the full sum onto the upper-half nodes double-counts the
        # x = 0 node unless it carries half weight; the discrepancy of the
        # naive fold is exactly (c/N) Im G(0), and trapezoid_sum's fold
        # removes it. The rows are in Schur coordinates; Q maps them to G.
        params, c = cd_report.contour, cd_report.truncation.c
        N = 14
        q = bm.trapezoid_sum(cd_problem, params, c, 1.0, N)
        G = q.node_values @ cd_problem.operator.schur_vectors.T
        naive = np.zeros(cd_problem.dim, dtype=complex)
        for j in range(math.ceil(N / 2), N):
            naive += G[j - 1]
        naive_fold = (2.0 * c / N) * np.imag(naive)
        g0 = G[N // 2 - 1]  # j = N/2 is the x = 0 node
        predicted_gap = (c / N) * np.imag(g0)
        gap = naive_fold - full_sum(q).real
        # Norm-wise: the gap is a difference of sums of node values up to
        # ~460 in magnitude, so its small entries are only as exact as the
        # rounding of those sums.
        scale = np.linalg.norm(predicted_gap)
        assert scale > 0
        assert np.linalg.norm(gap - predicted_gap) <= 1e-12 * scale
        assert np.linalg.norm(naive_fold - q.approx - predicted_gap) <= 1e-12 * scale

    def test_complex_operator_full_sum(self, scalar_params):
        A = bm.Operator(np.array([[-1.0 + 0.3j]]))
        prob = bm.LaplaceProblem(A, np.ones(1))
        q = bm.trapezoid_sum(prob, scalar_params, 0.35, 1.0, 40)
        assert np.iscomplexobj(q.approx)
        expected = np.exp((-1.0 + 0.3j) * 1.0)
        assert q.approx[0] == pytest.approx(expected, abs=1e-9)

    def test_node_on_source_pole_rejected(self, scalar_params):
        # Even N puts a node at x = 0, whose image is the arc's right vertex
        # (real); a source mode with its pole there must abort the quadrature.
        z0, _ = bm.conformal_map(scalar_params, 0.0)
        prob = bm.LaplaceProblem(
            bm.Operator(np.array([[-1.0]])),
            np.ones(1),
            (bm.SourceTerm(np.ones(1), rate=-z0.real),),
        )
        with pytest.raises(SingularSystemError, match="misplaced"):
            bm.trapezoid_sum(prob, scalar_params, 0.3, 1.0, 8)
        # An odd rule has no node at x = 0 and its doubling has one: the
        # doubled rule's array check raises before any fresh node is solved.
        cache = NodeCache(prob, scalar_params, 0.3)
        q = bm.trapezoid_sum(prob, scalar_params, 0.3, 1.0, 7, cache)
        with pytest.raises(SingularSystemError, match="misplaced"):
            bm.refine_doubling(q, prob, scalar_params, 1.0)
        assert cache.solve_count == 6


class TestRefineDoubling:
    def test_matches_direct_recomputation(self, cd_problem, cd_report):
        params, c = cd_report.contour, cd_report.truncation.c
        q5 = bm.trapezoid_sum(cd_problem, params, c, 1.0, 5)
        q10 = bm.refine_doubling(q5, cd_problem, params, 1.0)
        direct = bm.trapezoid_sum(cd_problem, params, c, 1.0, 10)
        assert q10.N == 10
        scale = np.linalg.norm(direct.approx)
        assert np.linalg.norm(q10.approx - direct.approx) <= 1e-14 * scale

    def test_cached_values_bit_identical(self, cd_problem, cd_report):
        params, c = cd_report.contour, cd_report.truncation.c
        q = bm.trapezoid_sum(cd_problem, params, c, 1.0, 6)
        refined = bm.refine_doubling(q, cd_problem, params, 1.0)
        direct = bm.trapezoid_sum(cd_problem, params, c, 1.0, 12)
        for v_ref, v_dir in zip(refined.node_values, direct.node_values):
            assert np.array_equal(v_ref, v_dir)

    def test_work_is_n_new_solves(self, cd_problem, cd_report):
        params, c = cd_report.contour, cd_report.truncation.c
        cache = NodeCache(cd_problem, params, c)
        q = bm.trapezoid_sum(cd_problem, params, c, 1.0, 5, cache)
        assert cache.solve_count == 4
        q = bm.refine_doubling(q, cd_problem, params, 1.0)
        assert cache.solve_count == 4 + 5
        q = bm.refine_doubling(q, cd_problem, params, 1.0)
        assert cache.solve_count == 9 + 10

    def test_node_sets_nest(self, cd_problem, cd_report):
        params, c = cd_report.contour, cd_report.truncation.c
        q = bm.trapezoid_sum(cd_problem, params, c, 1.0, 7)
        refined = bm.refine_doubling(q, cd_problem, params, 1.0)
        old = set(q.nodes.tolist())
        new = set(refined.nodes.tolist())
        assert old <= new
        assert len(new) == len(old) + 7

    def test_two_refinements_quadruple(self, cd_problem, cd_report):
        params, c = cd_report.contour, cd_report.truncation.c
        q = bm.trapezoid_sum(cd_problem, params, c, 1.0, 5)
        q = bm.refine_doubling(q, cd_problem, params, 1.0)
        q = bm.refine_doubling(q, cd_problem, params, 1.0)
        assert q.N == 20


def _lone_node(cache, j, N):
    """Node j of the N-point rule computed on its own: the scalar map at
    node_x(j, N), then one schur_solution. The reference for the cache's
    array-prepared nodes."""
    z, dz = bm.conformal_map(cache.params, cache.node_x(j, N))
    return z, dz, numerics.schur_solution(cache.problem, z)


def _per_node_sum(problem, cache, t, N, node=_lone_node):
    """The quadrature as a loop over nodes: the reference the array form must match.

    Rows e^{zt} yhat dz stay in Schur coordinates and Q maps each loop's sum
    to x-space once. Each node is node(cache, j, N), by default computed on
    its own."""
    c = cache.c
    Q = problem.operator.schur_vectors
    values = [np.exp(z * t) * yhat * dz for z, dz, yhat in (node(cache, j, N) for j in range(1, N))]
    total = np.zeros(problem.dim, dtype=complex)
    for value in values:
        total += value
    unfolded = (c / (1j * N)) * (Q @ total)
    approx = unfolded
    if problem.is_real:
        total = np.zeros(problem.dim, dtype=complex)
        for j in range(math.ceil(N / 2), N):
            weight = 0.5 if 2 * j == N else 1.0
            total += weight * values[j - 1]
        approx = (2.0 * c / N) * np.imag(Q @ total)
    nodes = [cache.node_x(j, N) for j in range(1, N)]
    return approx, values, unfolded, np.array(nodes)


class TestArrayQuadrature:
    """The array-shaped sums keep every bit of the per-node loop, signed zeros included."""

    def _assert_bit_identical(self, problem, params, c, t, N):
        q = bm.trapezoid_sum(problem, params, c, t, N)
        approx, values, unfolded, nodes = _per_node_sum(
            problem, NodeCache(problem, params, c), t, N
        )
        assert q.approx.tobytes() == approx.tobytes()
        assert full_sum(q).tobytes() == unfolded.tobytes()
        assert q.nodes.tobytes() == nodes.tobytes()
        assert q.node_values.shape == (N - 1, problem.dim)
        for row, value in zip(q.node_values, values):
            assert row.tobytes() == value.tobytes()
        return q

    @pytest.mark.parametrize("N", [9, 14])
    def test_cd_odd_and_even(self, cd_problem, cd_report, N):
        self._assert_bit_identical(
            cd_problem, cd_report.contour, cd_report.truncation.c, 1.0, N
        )

    @pytest.mark.parametrize("N", [175, 350])
    def test_bs_window_grid(self, bs_problem, bs_window, N):
        self._assert_bit_identical(bs_problem, bs_window.contour, bs_window.c_grid, 10.0, N)

    @pytest.mark.parametrize("N", [8, 13])
    def test_exact_zeros(self, scalar_params, N):
        A = bm.Operator(np.diag([-1.0, -2.0]))
        prob = bm.LaplaceProblem(A, np.array([1.0, 0.0]))
        q = self._assert_bit_identical(prob, scalar_params, 0.3, 1.0, N)
        assert np.all(q.node_values[:, 1] == 0.0)

    def test_complex_operator(self, scalar_params):
        prob = bm.LaplaceProblem(bm.Operator(np.array([[-1.0 + 0.3j]])), np.ones(1))
        self._assert_bit_identical(prob, scalar_params, 0.35, 1.0, 40)

    def test_sum_of_negative_zeros(self, scalar_problem, scalar_params):
        # A loop started from np.zeros turns -0 into +0; so must the array
        # form. No complex product is -0-0j, but with z = 0 and yhat = 0 the
        # rows e^{zt} yhat dz are -0+0j for dz = -1+0j and 0-0j for -1-0j.
        q = bm.trapezoid_sum(scalar_problem, scalar_params, 0.3, 1.0, 8)
        for part, dz in (("real", complex(-1.0, 0.0)), ("imag", complex(-1.0, -0.0))):
            stack = (np.zeros(7, dtype=complex), np.full(7, dz), np.zeros((7, 1), dtype=complex))
            zeros = dataclasses.replace(q, stack=stack)
            assert np.all(zeros.node_values == 0.0)
            assert np.all(np.signbit(getattr(zeros.node_values, part)))
            total = np.zeros(1, dtype=complex)
            for value in zeros.node_values:
                total += value
            expected = (q.c / (1j * q.N)) * (scalar_problem.operator.schur_vectors @ total)
            got = full_sum(zeros)
            assert got.tobytes() == expected.tobytes()

    def test_node_values_read_only(self, scalar_problem, scalar_params):
        q = bm.trapezoid_sum(scalar_problem, scalar_params, 0.3, 1.0, 8)
        assert not q.node_values.flags.writeable
        with pytest.raises(ValueError):
            q.node_values[0, 0] = 0.0


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    m=st.integers(1, 4000),
    dim=st.sampled_from([1, 2, 3, 200]),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    negative_share=st.sampled_from([0.0, 0.5, 1.0]),
)
@example(m=4000, dim=200, seed=0, zero_share=0.3, negative_share=0.5)
@example(m=4000, dim=1, seed=1, zero_share=1.0, negative_share=1.0)
@example(m=1, dim=1, seed=2, zero_share=1.0, negative_share=1.0)
def test_row_sum_adds_rows_in_order(m, dim, seed, zero_share, negative_share):
    # _row_sum reduces the float view, which NumPy adds row after row; it
    # must keep the bytes of a loop started from np.zeros, signed zeros
    # included, for any stack height and width.
    rng = np.random.default_rng(seed)
    parts = 10.0 ** rng.uniform(-30.0, 30.0, (m, 2 * dim))
    parts[rng.random((m, 2 * dim)) < zero_share] = 0.0
    parts[rng.random((m, 2 * dim)) < negative_share] *= -1.0
    rows = parts.view(complex)
    total = np.zeros(dim, dtype=complex)
    for row in rows:
        total += row
    assert solver._row_sum(rows).tobytes() == total.tobytes()


class TestRuleMemo:
    """The cache holds one stack and every rule is a view of it; a result forms
    node_values from its own stack."""

    def test_rules_n_2n_n_match_fresh_caches(self, cd_problem, cd_report):
        params, c = cd_report.contour, cd_report.truncation.c
        N = 7
        cache = NodeCache(cd_problem, params, c)
        first = bm.trapezoid_sum(cd_problem, params, c, 1.0, N, cache)
        assert (cache.solve_count, cache.reuse_count) == (N - 1, 0)
        doubled = bm.trapezoid_sum(cd_problem, params, c, 1.0, 2 * N, cache)
        assert (cache.solve_count, cache.reuse_count) == (2 * N - 1, N - 1)
        again = bm.trapezoid_sum(cd_problem, params, c, 1.0, N, cache)
        assert (cache.solve_count, cache.reuse_count) == (2 * N - 1, 2 * N - 2)
        # first's rows are formed only now, after the cache summed 2N and N.
        for q in (first, doubled, again):
            fresh = bm.trapezoid_sum(cd_problem, params, c, 1.0, q.N)
            assert q.approx.tobytes() == fresh.approx.tobytes()
            assert q.node_values.tobytes() == fresh.node_values.tobytes()
        later = bm.trapezoid_sum(cd_problem, params, c, 2.0, N, cache)
        held = cache.rule(2 * N)
        for stack in (later.stack, again.stack):
            assert all(np.shares_memory(part, whole) for part, whole in zip(stack, held))
        assert not any(part.flags.writeable for part in again.stack)

    def test_rule_sequence_matches_lone_nodes(self, cd_problem, cd_report):
        # Rules that double, halve, repeat and start a new base, each sequence
        # on one cache: every stack, node value and sum has the bytes of nodes
        # computed on their own, also after the later rules, and the counts
        # are those of a per-node loop over one chain of nested rules.
        params, c = cd_report.contour, cd_report.truncation.c
        sequences = {
            # double twice, halve, then a new base (9 does not divide 28),
            # whose doubling solves node 1/2 of 18 again
            (7, 14, 28, 14, 9, 18): [(6, 0), (13, 6), (27, 19), (27, 32), (35, 32), (44, 40)],
            (7, 28, 7): [(6, 0), (27, 6), (27, 12)],  # refine and coarsen by 4
            (7, 14, 7, 28): [(6, 0), (13, 6), (13, 12), (27, 25)],  # a view, then a doubling
            (9, 18, 5, 10): [(8, 0), (17, 8), (21, 8), (26, 12)],  # a new base after a doubling
        }
        for rules, counts in sequences.items():
            cache = NodeCache(cd_problem, params, c)
            results, seen = [], []
            for N in rules:
                results.append(bm.trapezoid_sum(cd_problem, params, c, 1.0, N, cache))
                seen.append((cache.solve_count, cache.reuse_count))
            assert seen == counts, rules
            for q in results:
                lone = [_lone_node(cache, j, q.N) for j in range(1, q.N)]
                for part, ref in zip(q.stack, zip(*lone)):
                    assert part.tobytes() == np.array(ref).tobytes()
                approx, values, unfolded, _ = _per_node_sum(cd_problem, cache, 1.0, q.N)
                assert q.approx.tobytes() == approx.tobytes()
                assert q.node_values.tobytes() == np.array(values).tobytes()
                assert full_sum(q).tobytes() == unfolded.tobytes()
            assert (cache.solve_count, cache.reuse_count) == counts[-1]

    def test_rows_hold_solutions_when_solved_on_a_copy(self, cd_problem, cd_report, monkeypatch):
        # A solve that leaves its right-hand side alone (trtrs on a copy)
        # still leaves every stack row holding its solution.
        params, c = cd_report.contour, cd_report.truncation.c
        rules = (7, 14, 5)
        reference = NodeCache(cd_problem, params, c)
        expected = [reference.rule(N) for N in rules]
        solve_schur = numerics.ShiftedSystem.solve_schur

        def on_copy(self, rhs):
            return solve_schur(self, rhs.copy())

        monkeypatch.setattr(numerics.ShiftedSystem, "solve_schur", on_copy)
        cache = NodeCache(cd_problem, params, c)
        for N, stack in zip(rules, expected):
            for part, ref in zip(cache.rule(N), stack):
                assert part.tobytes() == ref.tobytes()

    def test_failed_doubling_keeps_the_held_rule(self, cd_problem, cd_report, monkeypatch):
        # A solve that raises partway through a doubling leaves the cache at
        # the rule it held, so a later refinement solves every node it needs.
        params, c = cd_report.contour, cd_report.truncation.c
        cache = NodeCache(cd_problem, params, c)
        coarse = [part.tobytes() for part in cache.rule(7)]
        solve_schur = numerics.ShiftedSystem.solve_schur
        calls = []

        def fails_third(self, rhs):
            calls.append(self.z)
            if len(calls) == 3:
                raise SingularSystemError("injected")
            return solve_schur(self, rhs)

        monkeypatch.setattr(numerics.ShiftedSystem, "solve_schur", fails_third)
        with pytest.raises(SingularSystemError, match="injected"):
            cache.rule(14)
        monkeypatch.undo()
        assert [part.tobytes() for part in cache.rule(7)] == coarse
        fresh = NodeCache(cd_problem, params, c)
        for part, ref in zip(cache.rule(28), fresh.rule(28)):
            assert part.tobytes() == ref.tobytes()

    def test_cold_ladder_holds_node_data_once(self, bs_problem, bs_window):
        # Every rule of the ladder is a view of the cache's one stack, so a
        # cold ladder holds one (N-1, dim) array of node data, not a stack
        # plus an array per node.
        import gc
        import tracemalloc

        ladder = [float(t) for t in np.linspace(1.0, 10.0, 10)]
        gc.collect()
        tracemalloc.start()
        try:
            cold = dataclasses.replace(
                bs_window, cache=NodeCache(bs_problem, bs_window.contour, bs_window.c_grid)
            )
            reports = [bm.solve_at(cold, bs_problem, t) for t in ladder]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        N = max(report.result.N for report in reports)
        assert cold.cache.solve_count == N - 1
        assert held < 1.5 * (N - 1) * bs_problem.dim * 16

    def test_doubling_solve_holds_one_stack(self):
        # A doubling solve sums rules 9, 18 and 36. The cache keeps only the
        # 36-point stack, whose rows hold the coarser rules' nodes, so the
        # kept report holds about one stack of node data, not one per rule.
        import gc
        import tracemalloc

        problem = bm.black_scholes_problem()
        gc.collect()
        tracemalloc.start()
        try:
            report = bm.solve(problem, 1.0, 1e-8, bm.SolveOptions(grid_pts=50))
            gc.collect()
            with_report, _ = tracemalloc.get_traced_memory()
            rules = [row[0] for row in report.errors_table]
            del report
            gc.collect()
            without, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rules == [9, 18, 36]
        assert with_report - without < 1.3 * 35 * problem.dim * 16

    def test_ladder_reports_share_one_stack(self, bs_problem, bs_window):
        # Ten kept reports of the N-point rule hold one (N-1, dim) stack,
        # not one node-value array each.
        import gc
        import tracemalloc

        ladder = [float(t) for t in np.linspace(1.0, 10.0, 10)]
        warm = [bm.solve_at(bs_window, bs_problem, t) for t in ladder]
        N = max(report.result.N for report in warm)
        del warm
        gc.collect()
        tracemalloc.start()
        try:
            reports = [bm.solve_at(bs_window, bs_problem, t) for t in ladder]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == 10
        assert held < 2 * (N - 1) * bs_problem.dim * 16


def _x_space_sum(problem, cache, t, N):
    """The folded N-point rule from x-space node solves Q (zI - T)^{-1} Q* (u0 + bhat(z))."""
    total = np.zeros(problem.dim, dtype=complex)
    for j in range(math.ceil(N / 2), N):
        z, dz = bm.conformal_map(cache.params, cache.node_x(j, N))
        uhat = bm.ShiftedSystem(problem.operator, z).solve(problem.u0 + problem.bhat(z))
        total += (0.5 if 2 * j == N else 1.0) * (np.exp(z * t) * uhat * dz)
    return (2.0 * cache.c / N) * np.imag(total)


def test_bs_window_ladder_matches_x_space_node_sums(bs_problem, bs_window):
    # The Schur-coordinate sums against per-node x-space solves on the same
    # nodes. Measured with one BLAS thread: 6.9e-16 relative at t = 1,
    # rising with t to 5.8e-14 at t = 10, where u(t) is a sum of larger
    # cancelling node terms.
    for t in np.linspace(1.0, 10.0, 10):
        report = bm.solve_at(bs_window, bs_problem, float(t))
        ref = _x_space_sum(bs_problem, bs_window.cache, float(t), report.result.N)
        assert np.linalg.norm(report.solution - ref) <= 2e-13 * np.linalg.norm(ref)


class TestErrorModels:
    def test_model_step_divides_by_ten(self, cd_report):
        p = cd_report.contour
        c = cd_report.truncation.c
        base = bm.error_model(p, c, 1.0, 20)
        stepped = bm.error_model(p, c, 1.0, 20 + (c / p.a) * math.log(10))
        assert stepped == pytest.approx(base / 10.0, rel=1e-12)

    def test_delta_offset_window(self):
        for c in (0.2, 0.3, 0.45):
            for N in (5, 9, 16):
                d = delta_offset(c, N)
                assert 0.0 <= d < 2 * c * math.pi / N + 1e-15

    def test_b_term_aligned_case_reduces_to_center_factor(self, cd_report):
        # c = 1/4 with N = 5 aligns the end segment exactly (delta = 0), so
        # only the e^{A3 t} factor survives.
        p = cd_report.contour
        expected = (2 * 0.25 * math.log(2.0)) / (5 * math.pi) * math.exp(p.A3 * 1.0)
        assert bm.b_term(p, 0.25, 1.0, 5) == pytest.approx(expected, rel=1e-10)

    def test_truncation_bound_forms(self, cd_report):
        p = cd_report.contour
        k_ell = 3.0
        half = bm.truncation_bound(p, 0.5, 1.0, k_ell, 5e-8)
        assert half == pytest.approx(k_ell * math.exp(p.A3) / math.pi, rel=1e-12)
        full = bm.truncation_bound(p, 0.3, 1.0, k_ell, 5e-8)
        assert full == pytest.approx(half + 0.2 * 5e-8, rel=1e-9)

    def test_default_center_makes_line_term_negligible(self, cd_problem):
        from bromell.solver import default_z_l

        t = 1.0
        z_l = default_z_l(t)
        assert math.exp(z_l * t) <= 1e-17


class TestRigorousBound:
    def test_sampled_maxima_close_to_dense_scan(self, scalar_problem):
        # Keep the eigenvalue well inside the bounding ellipse so the
        # resolvent peak is wide enough for 64 samples to resolve; sampling
        # cannot see spikes narrower than its spacing.
        params = bm.contour_from_a(bm.InnerEllipse(z_l=-41.0, z_r=3.0, d=-1.0, r=3.0), 0.45)
        c, t, N = 0.3, 1.0, 10
        m_plus, m_minus, s_minus = sample_line_maxima(scalar_problem, params, c, t, N)
        a, cpi = params.a, c * math.pi
        eta = cpi / N

        def dense_max(lo, hi, level):
            xs = np.linspace(lo, hi, 10_000)
            vals = [
                np.linalg.norm(bm.integrand(scalar_problem, params, complex(x, level), t))
                for x in xs
            ]
            return max(vals) / (2 * math.pi)

        assert m_plus == pytest.approx(dense_max(-math.pi / 2, math.pi / 2, a), rel=0.10)
        assert m_minus == pytest.approx(dense_max(-(cpi + eta), cpi + eta, -a), rel=0.10)
        dense_s = max(
            dense_max(cpi + eta, math.pi / 2, -a), dense_max(-math.pi / 2, -(cpi + eta), -a)
        )
        assert s_minus == pytest.approx(dense_s, rel=0.10)

    def test_monotone_decreasing_until_floor(self, cd_problem, cd_report):
        params, c, tol = cd_report.contour, cd_report.truncation.c, cd_report.tol
        bounds = [
            bm.rigorous_error_bound(cd_problem, params, c, 1.0, N, tol)
            for N in (8, 12, 16, 24, 48)
        ]
        floor = 4.0 * (math.pi / 2 - c * math.pi) * tol
        for b_prev, b_next in zip(bounds, bounds[1:]):
            assert b_next <= b_prev or b_prev <= 3 * floor


class TestSolvePipeline:
    def test_feasibility_fail_skips_quadrature(self, scalar_problem):
        report = bm.solve(scalar_problem, 1.0, 1e-30, bm.SolveOptions(grid_pts=16))
        assert not report.feasibility.passed
        assert report.result is None
        assert not report.reached_tol

    def test_stage_error_names_stage(self, scalar_problem):
        with pytest.raises(StageError, match="box"):
            bm.solve(scalar_problem, 1.0, 1e-6, bm.SolveOptions(z_l=1.0, z_r=0.5, grid_pts=16))

    def test_pole_right_of_z_r_fails_before_the_grid(self, monkeypatch, bs_problem):
        def grid_ran(*_args):
            raise AssertionError("the grid stage ran")

        monkeypatch.setattr(solver, "compute_grid", grid_ran)
        opts = bm.SolveOptions(z_l=-40.0, z_r=-0.01)
        with pytest.raises(StageError, match="source pole .* is not left of z_r = -0.01") as info:
            bm.prepare_contour(bs_problem, 1.0, 1.0, 5e-6, opts)
        assert info.value.stage == "box"

    @pytest.mark.parametrize("terms", [(), (bm.SourceTerm(np.zeros(2), 0.5),)])
    def test_zero_data_rejected_before_any_stage(self, monkeypatch, terms):
        # u0 = 0 and no nonzero source: u(t) = 0, and the truncation stage
        # would take log(tol / 0).
        def stage_ran(*_args):
            raise AssertionError("a pipeline stage ran")

        A = bm.Operator(np.array([[-1.0, 2.0], [-2.0, -1.0]]))
        problem = bm.LaplaceProblem(A, np.zeros(2), terms)
        monkeypatch.setattr(solver, "eigenvalues", stage_ran)
        opts = bm.SolveOptions(z_r=0.5)
        with pytest.raises(ValueError, match=r"u\(t\) = 0"):
            bm.solve(problem, 1.0, 1e-8, opts)
        with pytest.raises(ValueError, match=r"u\(t\) = 0"):
            bm.plan_window(problem, 1.0, 2.0, 1e-8, opts)

    def test_diagonal_decay_solution(self, diag_problem):
        report = bm.solve(diag_problem, 2.0, 1e-9, bm.SolveOptions(grid_pts=24, validate=True))
        exact = np.array([math.exp(-2.0), math.exp(-4.0)])
        assert report.reached_tol
        assert np.max(np.abs(report.result.approx - exact)) <= 1e-9

    def test_default_z_r_holds_no_matrix_after_return(self, bs_problem):
        # Memory still allocated after the call, before any garbage
        # collection: a matrix kept alive by a reference cycle shows here.
        import gc
        import tracemalloc

        eigs = bm.eigenvalues(bs_problem.operator)
        n = bs_problem.operator.dim
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            z_r = solver.default_z_r(bs_problem, eigs, 1e-9)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert z_r > float(np.max(eigs.real))
        assert held < 8 * n * n

    def test_window_reads_one_schur_factorization(self, schur_calls):
        # A fresh problem: the session fixtures' operators are already factored.
        problem = bm.black_scholes_problem()
        opts = bm.SolveOptions(grid_pts=50)
        plan = bm.plan_window(problem, 1.0, 10.0, 5e-8, opts)
        for t in np.linspace(1.0, 10.0, 10):
            bm.solve_at(plan, problem, float(t))
        bm.plan_window(problem, 1.0, 10.0, 5e-8, opts)
        assert schur_calls == [(problem.operator.dim,) * 2]

    def test_cold_ladder_makes_no_lu(self, schur_calls, monkeypatch):
        # Every shifted matrix is the Schur factor's zI - T: the plan's two
        # feasibility checks (the margin's sizing check over the whole arc,
        # then the plan's own) make one trcon estimate per sample each, and
        # node solves make none.
        trcon_calls = []
        trcon = numerics._TRCON

        def counted(*args, **kwargs):
            trcon_calls.append(1)
            return trcon(*args, **kwargs)

        monkeypatch.setattr(numerics, "_TRCON", counted)
        problem = bm.black_scholes_problem()
        plan = bm.plan_window(problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50))
        assert len(trcon_calls) == 20
        trcon_calls.clear()
        cold = dataclasses.replace(plan, cache=NodeCache(problem, plan.contour, plan.c_grid))
        for t in np.linspace(1.0, 10.0, 10):
            bm.solve_at(cold, problem, float(t))
        assert cold.cache.solve_count > 0
        assert trcon_calls == []
        assert schur_calls == [(problem.operator.dim,) * 2]

    def test_cold_ladder_solves_in_schur_coordinates(self, monkeypatch):
        # Each fresh node is one triangular solve in Schur coordinates; no
        # node goes through the x-space solve or the resolvent apply Q yhat.
        def forbidden(*args, **kwargs):
            raise AssertionError("x-space solve on the quadrature path")

        triangular = []
        solve_schur = numerics.ShiftedSystem.solve_schur

        def counted(self, rhs):
            triangular.append(1)
            return solve_schur(self, rhs)

        problem = bm.black_scholes_problem()
        plan = bm.plan_window(problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50))
        monkeypatch.setattr(numerics.ShiftedSystem, "solve", forbidden)
        monkeypatch.setattr(numerics.ShiftedSystem, "solve_schur", counted)
        cold = dataclasses.replace(plan, cache=NodeCache(problem, plan.contour, plan.c_grid))
        for t in np.linspace(1.0, 10.0, 10):
            bm.solve_at(cold, problem, float(t))
        assert cold.cache.solve_count > 0
        assert len(triangular) == cold.cache.solve_count

    def test_report_round_trip(self, tmp_path, diag_problem):
        report = bm.solve(diag_problem, 1.0, 1e-8, bm.SolveOptions(grid_pts=24, validate=True))
        path = tmp_path / "report.txt"
        bm.write_report(report, path)
        keys, rows = bm.read_report(path)
        assert float(keys["a"]) == report.contour.a
        assert float(keys["c"]) == report.truncation.c
        assert keys["reached_tol"] == "true"
        assert len(rows) == len(report.errors_table)
        assert rows[-1][0] == report.result.N


class TestEntryValidation:
    @pytest.mark.parametrize(
        "entry, args, message",
        [
            ("plan_window", (1.0, 2.0, 0.0), "need tol > 0"),
            ("plan_window", (1.0, 2.0, -1e-8), "need tol > 0"),
            ("plan_window", (1.0, 2.0, math.nan), "need tol > 0"),
            ("plan_window", (1.0, 2.0, math.inf), "need tol > 0"),
            ("plan_window", (math.nan, 2.0, 1e-8), "need 0 < t0 <= t1"),
            ("plan_window", (1.0, math.inf, 1e-8), "need 0 < t0 <= t1"),
            ("solve", (math.nan, 1e-6), "need t > 0"),
            ("solve", (math.inf, 1e-6), "need t > 0"),
            ("solve", (1.0, math.nan), "need tol > 0"),
            ("solve", (1.0, -1e-8), "need tol > 0"),
            ("solve", (1.0, 1e-6, bm.SolveOptions(n_max=-5)), "need n_max >= 2"),
            ("solve", (1.0, 1e-6, bm.SolveOptions(n_max=1)), "need n_max >= 2"),
            ("plan_window", (1.0, 2.0, 1e-8, bm.SolveOptions(n_max=-5)), "need n_max >= 2"),
            ("plan_window", (1.0, 2.0, 1e-8, bm.SolveOptions(n_max=1)), "need n_max >= 2"),
            ("solve", (1.0, 1e-6, bm.SolveOptions(eps1=0.0)), "need finite eps1 > 0"),
            ("solve", (1.0, 1e-6, bm.SolveOptions(eps1=math.nan)), "need finite eps1 > 0"),
            ("solve", (1.0, 1e-6, bm.SolveOptions(eps2=0.0)), "need finite eps2 > 0"),
            ("solve", (1.0, 1e-6, bm.SolveOptions(eps2=math.inf)), "need finite eps2 > 0"),
            ("plan_window", (1.0, 2.0, 1e-8, bm.SolveOptions(eps2=-1e-13)),
             "need finite eps2 > 0"),
            ("solve", (1.0, 1e-6, bm.SolveOptions(prec=0.0)), "need finite prec > 0"),
            ("plan_window", (1.0, 2.0, 1e-8, bm.SolveOptions(prec=math.nan)),
             "need finite prec > 0"),
            ("prepare_contour", (1.0, 1.0, 1e-6, bm.SolveOptions(eps2=0.0)),
             "need finite eps2 > 0, got 0.0"),
            ("prepare_contour", (1.0, 1.0, 1e-6, bm.SolveOptions(eps1=-1e-9)),
             "need finite eps1 > 0, got -1e-09"),
            ("prepare_contour", (math.nan, math.nan, 1e-6), "need finite t_weight > 0, got nan"),
            ("prepare_contour", (1.0, math.inf, 1e-6), "need finite t_opt > 0, got inf"),
            ("prepare_contour", (1.0, 1.0, -1.0), "need tol > 0, got -1.0"),
            ("prepare_contour", (1.0, 1.0, math.nan), "need tol > 0, got nan"),
            ("solve", (1.0, 1e-6, bm.SolveOptions(z_r=math.inf)), "need finite z_r, got inf"),
            ("solve", (1.0, 1e-6, bm.SolveOptions(z_l=-math.inf)), "need finite z_l, got -inf"),
            ("plan_window", (1.0, 2.0, 1e-8, bm.SolveOptions(z_r=math.nan)),
             "need finite z_r, got nan"),
            ("prepare_contour", (1.0, 1.0, 1e-6, bm.SolveOptions(z_l=math.nan)),
             "need finite z_l, got nan"),
            ("solve", (1.0, 1e-6, bm.SolveOptions(grid_pts=4)), "need an int grid_pts >= 8, got 4"),
            ("plan_window", (1.0, 2.0, 1e-8, bm.SolveOptions(grid_pts=7)),
             "need an int grid_pts >= 8, got 7"),
            ("prepare_contour", (1.0, 1.0, 1e-6, bm.SolveOptions(grid_pts=50.0)),
             "need an int grid_pts >= 8, got 50.0"),
        ],
    )
    def test_rejected_before_any_stage(self, monkeypatch, bs_problem, entry, args, message):
        def stage_ran(*_args):
            raise AssertionError("a pipeline stage ran")

        monkeypatch.setattr(solver, "eigenvalues", stage_ran)
        with pytest.raises(ValueError, match=message):
            getattr(bm, entry)(bs_problem, *args)


class TestNodeBudget:
    @pytest.mark.parametrize("n_max", [-5, 1])
    def test_solve_at_rejects_a_budget_below_two(self, monkeypatch, diag_problem, diag_plan,
                                                 n_max):
        def stage_ran(*_args, **_kwargs):
            raise AssertionError("a pipeline stage ran")

        monkeypatch.setattr(solver, "trapezoid_sum", stage_ran)
        monkeypatch.setattr(solver, "stability_constant", stage_ran)
        plan = dataclasses.replace(diag_plan, opts=dataclasses.replace(diag_plan.opts, n_max=n_max))
        with pytest.raises(ValueError, match="need n_max >= 2"):
            bm.solve_at(plan, diag_problem, 2.0)

    def test_solve_first_rule_within_budget(self, diag_problem):
        report = bm.solve(diag_problem, 1.0, 1e-8, bm.SolveOptions(grid_pts=24, n_max=3))
        assert report.result.N == 3
        assert [row[0] for row in report.errors_table] == [3]
        assert not report.reached_tol

    def test_solve_at_first_rule_within_budget(self, diag_problem):
        plan = bm.plan_window(diag_problem, 1.0, 4.0, 1e-8, bm.SolveOptions(grid_pts=24, n_max=3))
        assert plan.n_nodes > 3
        report = bm.solve_at(plan, diag_problem, 2.0)
        assert report.result.N == 3
        assert not report.reached_tol


class TestPlanProblem:
    def test_solve_at_rejects_another_problem_before_any_stage(self, monkeypatch, bs_window):
        def stage_ran(*_args, **_kwargs):
            raise AssertionError("a pipeline stage ran")

        monkeypatch.setattr(solver, "reference_solution", stage_ran)
        monkeypatch.setattr(solver, "trapezoid_sum", stage_ran)
        plan = dataclasses.replace(bs_window, opts=dataclasses.replace(bs_window.opts, validate=True))
        # An equal but separate problem object is rejected too: the nodes
        # come from the plan's own problem.
        for other in (bm.black_scholes_problem(sigma=0.06), bm.black_scholes_problem()):
            with pytest.raises(ValueError, match="the problem object the plan was built from"):
                bm.solve_at(plan, other, 1.5)

    def test_trapezoid_sum_rejects_a_cache_of_another_problem(self, bs_window):
        cache = bs_window.cache
        solves, reuses = cache.solve_count, cache.reuse_count
        other = bm.black_scholes_problem(sigma=0.06)
        with pytest.raises(GeometryError, match="different problem"):
            bm.trapezoid_sum(other, cache.params, cache.c, 1.5, 8, cache=cache)
        assert (cache.solve_count, cache.reuse_count) == (solves, reuses)


class TestPlanOptions:
    def test_solve_at_reads_the_plan_options(self, diag_problem):
        opts = bm.SolveOptions(grid_pts=24, validate=True)
        plan = bm.plan_window(diag_problem, 1.0, 4.0, 1e-8, opts)
        assert plan.opts is opts
        report = bm.solve_at(plan, diag_problem, 2.0)
        assert report.reference_error is not None
        assert report.reference_error <= 1e-8
        unvalidated = dataclasses.replace(plan, opts=dataclasses.replace(opts, validate=False))
        assert bm.solve_at(unvalidated, diag_problem, 2.0).reference_error is None


class TestOnePipeline:
    @pytest.mark.parametrize(
        "problem, report, t, tol, opts",
        [
            ("cd_problem", "cd_report", 1.0, 5e-8,
             bm.SolveOptions(z_l=-40.0, z_r=0.09, prec=1e-2)),
            ("bs_problem", "bs_report_t1", 1.0, 5e-6,
             bm.SolveOptions(z_l=-40.0, z_r=0.05, grid_pts=50)),
        ],
    )
    def test_solve_is_the_one_time_window_plan(self, request, problem, report, t, tol, opts):
        # The session reports are solve() runs of these problems, times and
        # placements (cd_report: the reference recipe).
        problem = request.getfixturevalue(problem)
        report = request.getfixturevalue(report)
        plan = bm.plan_window(problem, t, t, tol, opts)
        assert report.contour == plan.contour
        assert report.truncation == plan.trunc0
        assert report.feasibility == plan.feasibility
        assert report.stability == bm.stability_constant(plan.contour, plan.trunc0.c, t)

    def test_plan_keeps_its_feasibility_report(self, bs_problem, bs_window):
        plan = bs_window
        check = bm.feasibility_check(bs_problem, plan.contour, plan.c_grid, plan.t1, plan.tol)
        assert plan.feasibility == check


def _dense_sigma_min(A, x: float) -> float:
    return float(np.linalg.svd(x * np.eye(A.shape[0]) - A, compute_uv=False)[-1])


def _dense_bisection_z_r(A, eps1: float) -> float:
    """Oracle: the first doubling bracket of sigma_min(xI - A) = eps1, bisected by dense SVD."""
    lo = float(np.max(np.linalg.eigvals(A).real))
    assert _dense_sigma_min(A, lo) < eps1
    hi, step = lo + 1.0, 1.0
    while _dense_sigma_min(A, hi) < eps1:
        step *= 2.0
        hi += step
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if _dense_sigma_min(A, mid) < eps1:
            lo = mid
        else:
            hi = mid
    return hi


def _unstopped_default_z_r(problem, eigs, eps1: float) -> tuple:
    """default_z_r's search with the whole bisection run before the pole
    clamp is applied; returns z_r and the evaluation count."""
    sigma = pseudospectra.SigmaMinEvaluator(problem.operator)
    lo = float(np.max(eigs.real))
    z_r = lo + eps1
    if sigma(lo) < eps1:
        hi = lo + 1.0
        step = 1.0
        while sigma(hi) < eps1:
            step *= 2.0
            hi += step
        while hi - lo > 1e-12 + 4.0 * np.finfo(float).eps * abs(hi):
            mid = 0.5 * (lo + hi)
            if sigma(mid) < eps1:
                lo = mid
            else:
                hi = mid
        z_r = hi
    poles = problem.singularities
    if poles:
        z_r = max(z_r, max(p.real for p in poles) + 0.01)
    return z_r, sigma.evaluations


@pytest.fixture()
def z_r_evaluators(monkeypatch):
    """List of the SigmaMinEvaluators that solver builds during the test.
    Each keeps in ``bounded`` the (shift, lower_bound) pairs it returned."""
    made = []

    class Recorded(pseudospectra.SigmaMinEvaluator):
        def __init__(self, A):
            super().__init__(A)
            self.bounded = []
            made.append(self)

        def lower_bound(self, z):
            b = super().lower_bound(z)
            self.bounded.append((z, b))
            return b

    monkeypatch.setattr(solver, "SigmaMinEvaluator", Recorded)
    return made


class TestDefaultZr:
    # The bisection stops once its bracket lies left of the pole clamp. On
    # bs the clamp (0.01) is right of the crossing; with one pole at -5 it
    # is left of it and the whole bisection runs. On diag(-1, -2) with a
    # pole at 0.5 and eps1 = 3 the first doubling bracket, [-1, 0], lies
    # left of the clamp, but hi = 0 is not yet an upper end: the crossing
    # is at 2, and stopping the doubling at the clamp would give 0.51.
    # Each test asks the comparison-matrix bound first; the unstopped loop
    # evaluates every shift, so where the bound settled a test, the
    # evaluator's own value must give the same answer.
    @pytest.mark.parametrize(
        "case, eps1, count, unstopped_count",
        [("bs", 1e-9, 3, 42), ("cd", 1e-6, 4, 42), ("bs-pole-5", 1e-9, 40, 42),
         ("diag-pole", 3.0, 45, 45)],
    )
    def test_clamp_stop_matches_unstopped_bisection(
        self, case, eps1, count, unstopped_count, cd_problem, bs_problem, z_r_evaluators
    ):
        e_n = np.zeros(bs_problem.dim)
        e_n[-1] = 1.0
        problem = {
            "bs": bs_problem,
            "cd": cd_problem,
            "bs-pole-5": bm.LaplaceProblem(bs_problem.operator, bs_problem.u0,
                                           (bm.SourceTerm(e_n, 5.0),)),
            "diag-pole": bm.LaplaceProblem(bm.Operator(np.diag([-1.0, -2.0])), np.ones(2),
                                           (bm.SourceTerm(np.ones(2), -0.5),)),
        }[case]
        eigs = bm.eigenvalues(problem.operator)
        z_r = solver.default_z_r(problem, eigs, eps1)
        want, want_count = _unstopped_default_z_r(problem, eigs, eps1)
        assert z_r == want
        assert [ev.evaluations for ev in z_r_evaluators] == [count]
        assert want_count == unstopped_count
        (ev,) = z_r_evaluators
        settled = [x for x, b in ev.bounded if pseudospectra._slackened(ev, b) >= eps1]
        assert len(settled) == len(ev.bounded) - count
        fresh = pseudospectra.SigmaMinEvaluator(problem.operator)
        assert all(fresh(x) >= eps1 for x in settled)
        if case == "diag-pole":
            assert z_r == 2.0

    # Source-free problems, so no pole clamps z_r. cd uses eps1 = 1e-6: at
    # its computed rightmost eigenvalue sigma_min is already 4.5e-8, above
    # the default 1e-9, which would skip the root finder.
    @pytest.mark.parametrize("name, eps1", [("cd", 1e-6), ("bs", 1e-9)])
    def test_root_matches_dense_svd_bisection(self, name, eps1, cd_problem, bs_problem):
        source = {"cd": cd_problem, "bs": bs_problem}[name]
        op = source.operator
        problem = bm.LaplaceProblem(op, source.u0)
        z_r = solver.default_z_r(problem, bm.eigenvalues(op), eps1)
        assert abs(z_r - _dense_bisection_z_r(op.entries, eps1)) <= 1e-10
        assert _dense_sigma_min(op.entries, z_r) == pytest.approx(eps1, rel=1e-3)

    def test_no_crossing_raises(self, diag_problem):
        # sigma_min(xI - A) = x + 1 stays below 1e7 up to x = lo + 1e6.
        with pytest.raises(StageError) as info:
            bm.solve(diag_problem, 1.0, 1e-6, bm.SolveOptions(eps1=1e7, grid_pts=16))
        assert info.value.stage == "z_r-default"


def _brackets(grid, curve):
    """Per column, the topmost upper-half row inside the curve's level set (-1: none)."""
    upper = grid.ys >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logv = grid.xs * curve.weighted_time - np.log(grid.sigma_min[upper])
    inside = logv >= -np.log(curve.epsilon)
    return np.array([np.flatnonzero(col)[-1] if col.any() else -1 for col in inside.T])


class TestPrunedGrid:
    @pytest.mark.parametrize(
        "problem, t_weight, t_opt, tol, opts",
        [
            ("cd_problem", 1.0, 1.0, 5e-8, bm.SolveOptions(z_l=-40.0, z_r=0.09)),
            ("bs_problem", 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50)),
        ],
    )
    def test_curves_and_contour_match_full_grid(
        self, request, monkeypatch, problem, t_weight, t_opt, tol, opts
    ):
        problem = request.getfixturevalue(problem)
        pruned = bm.prepare_contour(problem, t_weight, t_opt, tol, opts)
        monkeypatch.setattr(
            solver, "compute_grid", lambda A, spec, levels: pseudospectra.compute_grid(A, spec)
        )
        full = bm.prepare_contour(problem, t_weight, t_opt, tol, opts)
        assert np.isnan(pruned.grid.sigma_min).any()
        assert not np.isnan(full.grid.sigma_min).any()
        step = full.grid.ys[1] - full.grid.ys[0]
        for got, want in ((pruned.c1, full.c1), (pruned.c2, full.c2)):
            k_got, k_want = _brackets(pruned.grid, got), _brackets(full.grid, want)
            np.testing.assert_array_equal(k_got >= 0, k_want >= 0)
            np.testing.assert_array_equal(k_got, k_want)
            np.testing.assert_allclose(got.ys, want.ys, rtol=0.0, atol=1e-6 * step)
        assert pruned.contour.a == pytest.approx(full.contour.a, rel=1e-12)
        for name in ("z_l", "z_r", "d", "r"):
            assert getattr(pruned.inner, name) == pytest.approx(getattr(full.inner, name), rel=1e-12)


@pytest.fixture(scope="module")
def diag_plan(diag_problem):
    return bm.plan_window(diag_problem, 1.0, 4.0, 1e-8, bm.SolveOptions(grid_pts=24))


class TestTimeWindow:
    def test_degenerate_window_matches_single_time(self, diag_problem):
        plan = bm.plan_window(diag_problem, 2.0, 2.0, 1e-8, bm.SolveOptions(grid_pts=24))
        single = bm.solve(diag_problem, 2.0, 1e-8, bm.SolveOptions(grid_pts=24))
        assert plan.contour.a == pytest.approx(single.contour.a, abs=1e-9)
        assert plan.trunc0.c == plan.trunc1.c
        assert plan.k_at(2.0) == plan.trunc0.K

    def test_start_endpoint_bit_identical(self, diag_problem, diag_plan):
        plan = diag_plan
        rep = bm.solve_at(plan, diag_problem, plan.t0)
        direct = bm.trapezoid_sum(
            diag_problem, plan.contour, plan.trunc0.c, plan.t0, rep.result.N
        )
        assert np.array_equal(rep.result.approx, direct.approx)

    def test_end_endpoint_within_tolerance(self, diag_problem, diag_plan):
        plan = diag_plan
        rep = bm.solve_at(plan, diag_problem, plan.t1)
        direct = bm.trapezoid_sum(
            diag_problem, plan.contour, plan.trunc1.c, plan.t1, rep.result.N
        )
        assert np.max(np.abs(rep.result.approx - direct.approx)) <= plan.tol

    def test_endpoint_constants_satisfy_their_definition(self, diag_problem, diag_plan):
        plan = diag_plan
        for trunc, t in ((plan.trunc0, plan.t0), (plan.trunc1, plan.t1)):
            g = bm.integrand(diag_problem, plan.contour, trunc.c * math.pi, t)
            k_check = np.linalg.norm(g) * math.exp(
                -bm.conformal_map(plan.contour, trunc.c * math.pi)[0].real * t
            ) / (2 * math.pi)
            assert k_check == pytest.approx(trunc.K, abs=0.1)

    def test_c_decreases_with_time(self, diag_plan):
        ts = np.linspace(diag_plan.t0, diag_plan.t1, 7)
        cs = [diag_plan.c_at(t) for t in ts]
        assert all(c2 <= c1 + 1e-12 for c1, c2 in zip(cs, cs[1:]))

    def test_reuse_counter_arithmetic(self, diag_problem):
        plan = bm.plan_window(diag_problem, 1.0, 4.0, 1e-8, bm.SolveOptions(grid_pts=24))
        times = [1.0, 2.0, 4.0]
        for t in times:
            rep = bm.solve_at(plan, diag_problem, t)
            assert rep.result.N == plan.n_nodes
        node_count = plan.n_nodes - 1
        assert plan.cache.solve_count == node_count
        assert plan.cache.reuse_count == node_count * (len(times) - 1)

    def test_outside_window_rejected(self, diag_plan, diag_problem):
        with pytest.raises(ValueError):
            bm.solve_at(diag_plan, diag_problem, diag_plan.t1 + 1.0)

    def test_unvalidated_window_end_claim_holds(self, bs_problem, bs_window):
        rep = bm.solve_at(bs_window, bs_problem, 10.0)
        error = np.linalg.norm(rep.solution - bm.reference_solution(bs_problem, 10.0))
        assert not rep.reached_tol or error <= rep.tol

    def test_unvalidated_wide_window_end_claim_holds(self, bs_problem):
        plan = bm.plan_window(bs_problem, 0.5, 10.0, 5e-8, bm.SolveOptions(grid_pts=50))
        rep = bm.solve_at(plan, bs_problem, 10.0)
        error = np.linalg.norm(rep.solution - bm.reference_solution(bs_problem, 10.0))
        assert not rep.reached_tol or error <= rep.tol


class TestRoundoffMargin:
    def test_reference_recipe_keeps_the_optimal_a(self, cd_report):
        assert cd_report.contour.a == bm.optimize_a(cd_report.inner, 1.0, 5e-8)

    @staticmethod
    def plan_with_trcon_count(problem, t1, tol, opts, monkeypatch):
        calls = []
        trcon = numerics._TRCON

        def counted(*args, **kwargs):
            calls.append(1)
            return trcon(*args, **kwargs)

        monkeypatch.setattr(numerics, "_TRCON", counted)
        plan = bm.plan_window(problem, 1.0, t1, tol, opts)
        monkeypatch.setattr(numerics, "_TRCON", trcon)
        return plan, len(calls)

    @pytest.mark.parametrize("case", ["cd", "bs t=1"])
    def test_certified_sizing_gives_the_estimated_plan(self, case, cd_problem, bs_problem,
                                                       monkeypatch):
        # The grid's comparison-matrix bounds keep ROUNDOFF_SAFETY x the
        # sizing forecast under tol / 2 here, so the sizing check's ten trcon
        # estimates are skipped and only the plan's own ten run. With the
        # certificate forced to fail, all twenty run, and the plan is the same.
        problem, opts = {
            "cd": (cd_problem, bm.SolveOptions(z_l=-40.0, z_r=0.09, prec=1e-2)),
            "bs t=1": (bs_problem, bm.SolveOptions(grid_pts=50)),
        }[case]
        plan, calls = self.plan_with_trcon_count(problem, 1.0, 5e-8, opts, monkeypatch)
        assert calls == 10
        monkeypatch.setattr(pseudospectra.SigmaMinEvaluator, "cond_bound",
                            lambda self, z: math.inf)
        fallback, calls = self.plan_with_trcon_count(problem, 1.0, 5e-8, opts, monkeypatch)
        assert calls == 20

        def fields(p):
            return repr((p.contour, p.trunc0, p.trunc1, p.c_grid, p.n_nodes, p.feasibility))

        assert fields(plan) == fields(fallback)

    def test_window_lowers_a_to_the_margin(self, bs_problem, bs_window):
        plan = bs_window
        root = bm.contour_from_a(plan.inner, bm.optimize_a(plan.inner, plan.t1, plan.tol))
        assert plan.contour.a < root.a
        sizing = bm.feasibility_check(bs_problem, root, 0.5, plan.t1, plan.tol)
        assert ROUNDOFF_SAFETY * sizing.achievable > plan.tol
        # With a2 and max_cond frozen at the optimal a, the margin is met exactly.
        drop = (root.A1 - plan.contour.A1) * plan.t1
        assert ROUNDOFF_SAFETY * sizing.achievable * math.exp(-drop) == pytest.approx(plan.tol)
        assert plan.feasibility.passed

    def test_margin_kept_within_the_node_budget(self, bs_problem, bs_window):
        plan = bm.plan_window(bs_problem, 1.0, 10.0, 5e-8, bm.SolveOptions(grid_pts=50, n_max=176))
        assert plan.contour.a == bm.optimize_a(plan.inner, 10.0, 5e-8)
        assert plan.n_nodes <= 176 < bs_window.n_nodes

    def test_no_margin_when_no_a_meets_it(self, bs_problem):
        plan = bm.plan_window(bs_problem, 1.0, 10.0, 1e-12, bm.SolveOptions(grid_pts=50))
        assert plan.contour.a == bm.optimize_a(plan.inner, 10.0, 1e-12)
        assert not plan.feasibility.passed


def _per_point_norms(problem, points, scales):
    """||uhat(z)|| |scale| at each point, one schur_solution at a time: ||uhat|| =
    ||yhat|| for the unitary Q, read with the sampler's row-norm formula."""
    return np.array([
        np.linalg.norm(numerics.schur_solution(problem, complex(z))[None, :], axis=-1)[0]
        * abs(scale)
        for z, scale in zip(points, scales)
    ])


def _per_point_truncation(problem, params, t, tol, prec):
    """(c, K, iterations) of the truncation fixed point, K from _per_point_norms."""
    K = contour._K_INIT
    for it in range(1, contour._TRUNCATION_MAX_ITER + 1):
        c = contour._c_from_k(params, t, tol, K, allow_clamp=it <= 2)
        z, dz = bm.conformal_map(params, c * math.pi)
        K, K_prev = _per_point_norms(problem, [z], [dz])[0] / (2 * math.pi), K
        if abs(K - K_prev) < prec:
            return contour._c_from_k(params, t, tol, K, allow_clamp=False), K, it
    raise AssertionError("no fixed point")


@pytest.fixture(params=["cd", "bs", "complex"])
def sampled_case(request, scalar_params):
    """(problem, contour, t, tol, prec, report): the cd recipe, bs at t = 1,
    and a complex operator whose two outgoing half-lines differ (no report)."""
    if request.param == "complex":
        A = bm.Operator(np.array([[-1.0 - 0.3j, 0.5], [0.0, -2.0 + 0.1j]]))
        problem = bm.LaplaceProblem(A, np.ones(2), label="complex")
        return problem, scalar_params, 1.0, 1e-8, 1e-2, None
    problem, report, prec = {
        "cd": ("cd_problem", "cd_report", 1e-2),
        "bs": ("bs_problem", "bs_report_t1", 0.1),
    }[request.param]
    report = request.getfixturevalue(report)
    problem = request.getfixturevalue(problem)
    return problem, report.contour, report.t, report.tol, prec, report


class TestSamplingEstimates:
    def test_delta_and_k_ell_positive(self, cd_problem, cd_report):
        params, c = cd_report.contour, cd_report.truncation.c
        assert estimate_delta(cd_problem, params, c, 10) > 0
        assert estimate_k_ell(cd_problem, params, 1.0) > 0

    def test_truncation_and_k_ell_match_the_per_point_loop(self, sampled_case):
        problem, params, t, tol, prec, report = sampled_case
        trunc = contour.truncation_fixed_point(problem, params, t, tol, prec)
        k_ell = estimate_k_ell(problem, params, t)

        span = max(4.0 / t, 2.0)
        signs = (1.0,) if problem.is_real else (1.0, -1.0)
        lines = [
            [complex(params.A3, sign * params.A2) - s + 1j * (sign * s)
             for s in np.linspace(0.0, span, solver._EDGE_SAMPLES)]
            for sign in signs
        ]
        line_max = [max(_per_point_norms(problem, z, [complex(-1.0, 1.0)] * len(z))) for z in lines]
        assert k_ell == 2.0 * max(line_max)
        if not problem.is_real:
            assert line_max[1] > line_max[0]  # the lower half-line sets K_ell
        ref = _per_point_truncation(problem, params, t, tol, prec)
        assert (trunc.c, trunc.K, trunc.iterations) == ref
        if report is not None:
            assert report.truncation == trunc
            assert report.truncation_bound == bm.truncation_bound(
                params, ref[0], t, 2.0 * max(line_max), tol
            )

    @pytest.mark.parametrize("N", [10, 23])
    def test_delta_and_line_maxima_match_the_integrand_loop(self, sampled_case, N):
        problem, params, t, tol, prec, _ = sampled_case
        c = contour.truncation_fixed_point(problem, params, t, tol, prec).c

        x0 = math.pi / 2 - delta_offset(c, N)
        maps = [
            bm.conformal_map(params, complex(x, y))
            for x in (x0, -x0)
            for y in np.linspace(-params.a, params.a, solver._EDGE_SAMPLES)
        ]
        delta = 2.0 * max(_per_point_norms(problem, *zip(*maps)))
        assert estimate_delta(problem, params, c, N) == pytest.approx(delta, rel=1e-13, abs=0)

        def max_g(xs, level):
            g = [np.linalg.norm(bm.integrand(problem, params, complex(x, level), t)) for x in xs]
            return max(g) / (2 * math.pi)

        cpi = c * math.pi
        edge = cpi + cpi / N
        assert edge < math.pi / 2  # S- is sampled
        half = np.linspace(edge, math.pi / 2, solver._LINE_SAMPLES // 2)
        expected = (
            max_g(np.linspace(-math.pi / 2, math.pi / 2, solver._LINE_SAMPLES), params.a),
            max_g(np.linspace(-edge, edge, solver._LINE_SAMPLES), -params.a),
            max(max_g(half, -params.a), max_g(-half, -params.a)),
        )
        got = sample_line_maxima(problem, params, c, t, N)
        assert got == pytest.approx(expected, rel=1e-13, abs=0)

    def test_model_tracks_measured_at_convergence(self, cd_report):
        # The closed-form estimate is an order-of-magnitude tool: at the
        # stopping N it must sit within two decades of the measured error.
        N, measured, model, _ = cd_report.errors_table[-1]
        assert measured is not None
        assert model / 100 <= measured <= model * 100
