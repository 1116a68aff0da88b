import numpy as np
import pytest
import scipy.sparse as sp

from helmfosls import solver
from helmfosls.fosls import (
    AssembledSystem,
    CLASSICAL_FEM,
    FOSLS,
    assemble_classical_fem,
    assemble_fosls,
    galerkin_residual,
)
from helmfosls.mesh import build_interval_mesh, build_square_mesh
from helmfosls.problems import piecewise_1d_problem, plane_wave_problem
from helmfosls.solver import SolverError, solve_general, solve_hpd
from helmfosls.spaces import build_h1_space, build_hdiv_space


def hpd_system(matrix, rhs):
    return AssembledSystem(sp.csr_matrix(matrix), np.asarray(rhs, dtype=complex),
                           FOSLS, None, None)


def fem_system(matrix, rhs):
    return AssembledSystem(sp.csr_matrix(matrix), np.asarray(rhs, dtype=complex),
                           CLASSICAL_FEM, None, None)


def dense_solution(system):
    return np.linalg.solve(system.matrix.toarray(), system.rhs)


class TestSolveHpd:
    def test_identity(self, rng):
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        report = solve_hpd(hpd_system(np.eye(6), b))
        np.testing.assert_allclose(report.solution, b, atol=1e-14)
        assert report.relative_residual <= 1e-10
        assert report.iterations == 0  # direct solve
        assert report.min_pivot == pytest.approx(1.0)
        assert report.fill == 12  # L and U each store the diagonal

    def test_two_by_two_hermitian(self):
        A = np.array([[2.0, 1j], [-1j, 2.0]])
        report = solve_hpd(hpd_system(A, [1.0, 0.0]))
        np.testing.assert_allclose(
            report.solution, [2 / 3, 1j / 3], atol=1e-13
        )

    def test_sparse_lu_matches_dense(self):
        mesh = build_interval_mesh(-1, 1, 25)
        w = build_h1_space(mesh, 2)
        v = build_h1_space(mesh, 2)
        system = assemble_fosls(v, w, piecewise_1d_problem(6.0))
        dense = dense_solution(system)
        sparse = solve_hpd(system).solution
        assert np.linalg.norm(sparse - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_pipeline_residual(self):
        mesh = build_interval_mesh(-1, 1, 5)
        w = build_h1_space(mesh, 1)
        v = build_h1_space(mesh, 1)
        system = assemble_fosls(v, w, piecewise_1d_problem(10.0))
        report = solve_hpd(system)
        assert report.relative_residual <= 1e-10
        # the residual is recomputed from the matrix, not the iteration
        recomputed = np.linalg.norm(
            system.matrix @ report.solution - system.rhs
        ) / np.linalg.norm(system.rhs)
        assert recomputed == pytest.approx(report.relative_residual, abs=1e-14)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            solve_hpd(fem_system(np.eye(2), [1, 1]))

    def test_fine_1d_mesh_meets_residual_bound(self):
        # N = 43,742; an iteration stopped on its own residual estimate
        # left a recomputed residual of 1.3e-10 here
        mesh = build_interval_mesh(-1, 1, 10935)
        w = build_h1_space(mesh, 2)
        v = build_h1_space(mesh, 2)
        system = assemble_fosls(v, w, piecewise_1d_problem(10.0))
        report = solve_hpd(system)
        assert galerkin_residual(system, report.solution) <= 1e-10

    def test_rejects_non_hpd_diagonal(self):
        with pytest.raises(SolverError, match="diagonal"):
            solve_hpd(hpd_system(np.diag([1.0, -1.0]), [1.0, 1.0]))

    def test_rejects_indefinite_with_positive_diagonal(self):
        # eigenvalues 3 and -1: the second pivot is 1 - 4 = -3
        with pytest.raises(SolverError, match="pivot"):
            solve_hpd(hpd_system([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0]))

    def test_rejects_off_diagonal_pivot(self):
        """Symmetric with a positive diagonal, but whichever column is
        eliminated first leaves a 2x2 Schur complement with an exactly
        zero diagonal and off-diagonal entries +-2, so under any column
        ordering the next pivot is off the diagonal."""
        matrix = [[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]]
        with pytest.raises(SolverError, match="pivoted off the diagonal"):
            solve_hpd(hpd_system(matrix, np.ones(3)))

    def test_rejects_non_finite_solution(self):
        # positive real pivots, but x_0 = 1e200 / 1e-200 overflows
        with pytest.raises(SolverError, match="non-finite entries"):
            solve_hpd(hpd_system(np.diag([1e-200, 1.0]), [1e200, 1.0]))

    def test_rejects_residual_above_tolerance(self, monkeypatch):
        """A tolerance below the rounding of an ill-conditioned solve."""
        hilbert = 1.0 / (np.arange(8)[:, None] + np.arange(8) + 1.0)
        monkeypatch.setattr(solver, "RESIDUAL_TOL", 1e-300)
        with pytest.raises(SolverError, match="above tolerance 1e-300"):
            solve_hpd(hpd_system(hilbert, np.ones(8)))


class TestSolveGeneral:
    def test_identity(self, rng):
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        report = solve_general(fem_system(np.eye(4), b))
        np.testing.assert_allclose(report.solution, b, atol=1e-14)

    def test_pivoting(self):
        report = solve_general(fem_system([[0.0, 1.0], [1.0, 0.0]], [1.0, 2.0]))
        np.testing.assert_allclose(report.solution, [2.0, 1.0], atol=1e-14)

    def test_fem_pipeline_residual(self):
        mesh = build_square_mesh(3)
        w = build_h1_space(mesh, 1)
        system = assemble_classical_fem(w, plane_wave_problem(4.0))
        assert solve_general(system).relative_residual <= 1e-10

    def test_sparse_path_agrees_with_dense(self):
        mesh = build_square_mesh(4)
        w = build_h1_space(mesh, 2)
        system = assemble_classical_fem(w, plane_wave_problem(6.0))
        dense = dense_solution(system)
        sparse = solve_general(system).solution
        assert np.linalg.norm(sparse - dense) <= 1e-8 * np.linalg.norm(dense)

    def test_singular_matrix_reported(self):
        with pytest.raises(SolverError):
            solve_general(fem_system(np.zeros((3, 3)), np.ones(3)))

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            solve_general(hpd_system(np.eye(2), [1, 1]))


def test_fosls_2d_pipeline_factor_report():
    mesh = build_square_mesh(3)
    w = build_h1_space(mesh, 1)
    v = build_hdiv_space(mesh, 1)
    system = assemble_fosls(v, w, plane_wave_problem(5.0))
    report = solve_hpd(system)
    assert report.relative_residual <= 1e-10
    assert report.min_pivot > 0
    assert report.fill >= system.matrix.nnz
