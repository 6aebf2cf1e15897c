"""Problem generators and file formats."""

import math

import numpy as np
import pytest

import bromell as bm
from bromell.errors import DimensionLimitError, FormatError
from bromell.problems import MM_HEADER, canonical_cd_steady_state, chebyshev_points, write_csv


class TestChebyshev:
    def test_two_point_case(self):
        D = bm.chebyshev_diff_matrix(1)
        np.testing.assert_allclose(D, [[0.5, -0.5], [0.5, -0.5]], atol=1e-15)

    def test_kills_constants(self):
        D = bm.chebyshev_diff_matrix(16)
        np.testing.assert_allclose(D @ np.ones(17), np.zeros(17), atol=1e-12)

    def test_differentiates_x_squared(self):
        n = 16
        x = chebyshev_points(n)
        D = bm.chebyshev_diff_matrix(n)
        np.testing.assert_allclose(D @ x**2, 2 * x, atol=1e-10)


class TestCanonicalCD:
    def test_zero_initial_state(self, cd_problem):
        assert np.all(cd_problem.u0 == 0.0)

    def test_singularity_is_origin(self, cd_problem):
        assert cd_problem.singularities == (0j,)

    def test_steady_state_matches_two_point_solution(self, cd_problem):
        # A u + b = 0 must reproduce the analytic steady profile of the
        # boundary-value problem on the same grid. At order 64 the boundary
        # layer at x = 0 limits the agreement to ~7e-6; by order 96 the
        # interpolant resolves it fully (2e-14 at order 128).
        A = cd_problem.operator.entries
        b = cd_problem.source_terms[0].vector
        u_inf = np.linalg.solve(A, -b)
        expected = canonical_cd_steady_state(400.0, 64)
        assert np.max(np.abs(u_inf - expected)) <= 1e-5

    def test_steady_state_spectrally_exact_at_higher_order(self):
        prob = bm.canonical_cd_problem(400.0, 96)
        u_inf = np.linalg.solve(prob.operator.entries, -prob.source_terms[0].vector)
        expected = canonical_cd_steady_state(400.0, 96)
        assert np.max(np.abs(u_inf - expected)) <= 1e-8

    def test_source_pole_amplification(self, cd_problem):
        near = np.linalg.norm(cd_problem.bhat(1e-6))
        far = np.linalg.norm(cd_problem.bhat(1.0))
        assert near >= 1e4 * far


class TestBlackScholes:
    def test_payoff_kink(self, bs_problem):
        u0 = bs_problem.u0
        s = 200.0 / 201.0 * np.arange(1, 201)
        np.testing.assert_allclose(u0, np.maximum(0.0, s - 80.0), atol=1e-12)
        assert np.count_nonzero(u0) == np.sum(s > 80.0)

    def test_stencil_rows_sum_to_minus_r(self, bs_problem):
        # Row identity sub + diag + super = -r exactly. The first row's sub
        # coefficient multiplies the (zero) left boundary and the last row's
        # super coefficient drives the source, so both are added back.
        A = bs_problem.operator.entries
        r, sigma = 0.06, 0.05
        h = 200.0 / 201.0
        s = h * np.arange(1, 201)
        sums = A.sum(axis=1)
        sums[0] += sigma**2 * s[0] ** 2 / (2 * h**2) - r * s[0] / (2 * h)
        sums[-1] += bs_problem.source_terms[0].vector[-1] / 200.0
        np.testing.assert_allclose(sums, -r * np.ones(200), atol=1e-12)

    def test_source_transform_structure(self, bs_problem):
        terms = bs_problem.source_terms
        assert len(terms) == 2
        assert terms[0].rate == 0.0 and terms[1].rate == 0.06
        assert set(bs_problem.singularities) == {0j, complex(-0.06)}
        # only the last component is driven by the boundary
        for term in terms:
            assert np.count_nonzero(term.vector) == 1

    def test_eigenvalues_left_half_plane(self, bs_problem):
        eigs = bm.eigenvalues(bs_problem.operator)
        assert np.all(eigs.real < 0.0)
        # Independent containment oracle: every eigenvalue must lie in the
        # union of the row disks of the tridiagonal matrix.
        A = bs_problem.operator.entries
        centers = np.diag(A)
        radii = np.sum(np.abs(A), axis=1) - np.abs(centers)
        for lam in eigs:
            assert np.min(np.abs(lam - centers) - radii) <= 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bm.black_scholes_problem(L=100.0, S=200.0, K=80.0)


class TestCoordinateFormat:
    def test_small_file(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(f"{MM_HEADER}\n2 2 2\n1 1 -1.0\n2 2 -2.0\n")
        A = bm.load_operator(path)
        np.testing.assert_allclose(A.entries, np.diag([-1.0, -2.0]))

    def test_duplicate_entries_summed(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(f"{MM_HEADER}\n2 2 3\n1 1 -1.0\n1 1 -1.5\n2 2 -2.0\n")
        A = bm.load_operator(path)
        assert A.entries[0, 0] == -2.5

    def test_round_trip_bit_exact(self, bs_problem, tmp_path):
        path = tmp_path / "bs.mtx"
        bm.save_operator(path, bs_problem.operator)
        back = bm.load_operator(path)
        assert np.array_equal(back.entries, bs_problem.operator.entries)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(f"{MM_HEADER}\n2 2 1\n1 x 3.0\n")
        with pytest.raises(FormatError, match=":3"):
            bm.load_operator(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(FormatError, match=":1"):
            bm.load_operator(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text(f"{MM_HEADER}\n2 2 1\n3 1 1.0\n")
        with pytest.raises(FormatError, match="out of range"):
            bm.load_operator(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_entry_reports_line(self, tmp_path, text):
        path = tmp_path / "bad.mtx"
        path.write_text(f"{MM_HEADER}\n2 2 2\n1 1 -1.0\n2 2 {text}\n")
        with pytest.raises(FormatError, match=rf"bad\.mtx:4: value must be finite, got '{text}'"):
            bm.load_operator(path)

    def test_dimension_limit(self, tmp_path):
        path = tmp_path / "big.mtx"
        path.write_text(f"{MM_HEADER}\n3001 3001 1\n1 1 1.0\n")
        with pytest.raises(DimensionLimitError):
            bm.load_operator(path)

    def test_oracle_against_scipy_reader(self, tmp_path):
        import scipy.io

        rng = np.random.default_rng(3)
        M = np.round(rng.standard_normal((7, 7)), 6) * (rng.random((7, 7)) < 0.4)
        path = tmp_path / "m.mtx"
        bm.save_operator(path, M)
        ours = bm.load_operator(path).entries
        loaded = scipy.io.mmread(path)
        theirs = loaded.toarray() if hasattr(loaded, "toarray") else np.asarray(loaded)
        np.testing.assert_allclose(ours, theirs, atol=0)


class TestVectorsAndProblems:
    def test_vector_round_trip(self, tmp_path):
        path = tmp_path / "v.txt"
        v = np.array([1.5, -2.25, 3.0e-7])
        bm.save_vector(path, v)
        np.testing.assert_allclose(bm.load_vector(path), v, atol=0)

    def test_load_problem_with_source(self, tmp_path):
        mpath, vpath = tmp_path / "m.mtx", tmp_path / "u0.txt"
        bm.save_operator(mpath, np.diag([-1.0, -2.0]))
        bm.save_vector(vpath, [1.0, 1.0])
        prob = bm.load_problem(mpath, vpath, [(0.0, np.array([0.5, 0.5]))])
        assert prob.dim == 2
        assert prob.singularities == (-0j,)
        np.testing.assert_allclose(prob.bhat(2.0), [0.25, 0.25])

    def test_load_problem_dimension_mismatch(self, tmp_path):
        mpath, vpath = tmp_path / "m.mtx", tmp_path / "u0.txt"
        bm.save_operator(mpath, np.diag([-1.0, -2.0]))
        bm.save_vector(vpath, [1.0, 1.0, 1.0])
        with pytest.raises(FormatError, match="does not match"):
            bm.load_problem(mpath, vpath)

    def test_load_vector_rejects_non_finite_with_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1.0\n# note\nnan\n")
        with pytest.raises(FormatError, match=r"v\.txt:3: value must be finite"):
            bm.load_vector(path)
        path.write_text("1e400\n")
        with pytest.raises(FormatError, match=r"v\.txt:1: value must be finite"):
            bm.load_vector(path)

    @pytest.mark.parametrize("u0", [[1.0, math.nan], [math.inf, 0.0], [1.0, complex(0, math.nan)]])
    def test_non_finite_u0_rejected(self, u0):
        with pytest.raises(ValueError, match="u0 entries must be finite"):
            bm.LaplaceProblem(np.diag([-1.0, -2.0]), u0)

    def test_non_finite_source_term_rejected(self):
        with pytest.raises(ValueError, match="source term vector entries must be finite"):
            bm.SourceTerm(np.array([1.0, math.inf]))
        with pytest.raises(ValueError, match="source term rate must be finite"):
            bm.SourceTerm(np.array([1.0, 1.0]), rate=math.nan)


class TestWriteCsv:
    def test_pins_the_one_format(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [(1, 0.1, None), (np.int64(12), np.float64(-2.5e-300), 3.0)]
        write_csv(path, ["N", "x", "y"], rows)
        assert path.read_bytes() == (
            b"N,x,y\r\n"
            b"1,1.0000000000000001e-01,nan\r\n"
            b"12,-2.5000000000000000e-300,3.0000000000000000e+00\r\n"
        )
