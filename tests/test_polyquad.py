import math

import numpy as np
import pytest

from helmfosls.polyquad import (
    gauss01,
    gauss_jacobi01,
    make_scalar_basis,
    simplex_quadrature,
)


def simplex_monomial_integral(d, alpha):
    """Exact integral of x^alpha over the reference simplex."""
    if d == 1:
        return 1.0 / (alpha[0] + 1)
    a, b = alpha
    return (
        math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
    )


class TestScalarBasis:
    def test_interval_p1_hats(self):
        basis = make_scalar_basis(1, 1)
        assert basis.dim == 2
        t = np.array([[0.0], [1.0], [0.25]])
        vals = basis.eval(t)
        np.testing.assert_allclose(vals[:, 0], [1, 0, 0.75], atol=1e-15)
        np.testing.assert_allclose(vals[:, 1], [0, 1, 0.25], atol=1e-15)

    def test_triangle_p1(self):
        basis = make_scalar_basis(2, 1)
        assert basis.dim == 3
        assert basis.dof_classes["vertex"] == [0, 1, 2]
        assert basis.dof_classes["interior"] == []

    def test_triangle_p3_partition(self):
        basis = make_scalar_basis(2, 3)
        assert basis.dim == 10
        assert len(basis.dof_classes["vertex"]) == 3
        assert sum(len(e) for e in basis.dof_classes["edge"]) == 6
        assert len(basis.dof_classes["interior"]) == 1

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_vertex_functions_nodal(self, p):
        basis = make_scalar_basis(2, p)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vals = basis.eval(verts)
        np.testing.assert_allclose(vals[:, :3], np.eye(3), atol=1e-14)
        # every non-vertex function vanishes at all vertices
        np.testing.assert_allclose(vals[:, 3:], 0, atol=1e-14)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_edge_functions_vanish_on_other_edges(self, p):
        basis = make_scalar_basis(2, p)
        t = np.linspace(0, 1, 9)
        edges = {
            0: np.column_stack([t, np.zeros_like(t)]),       # (0,1)
            1: np.column_stack([np.zeros_like(t), t]),       # (0,2)
            2: np.column_stack([t, 1 - t]),                  # (1,2)
        }
        for l_fun in range(3):
            cols = basis.dof_classes["edge"][l_fun]
            for l_edge, pts in edges.items():
                vals = basis.eval(pts)[:, cols]
                if l_edge != l_fun:
                    np.testing.assert_allclose(vals, 0, atol=1e-13)

    @pytest.mark.parametrize("p", [3, 4, 6])
    def test_interior_functions_vanish_on_boundary(self, p):
        basis = make_scalar_basis(2, p)
        t = np.linspace(0, 1, 11)
        boundary = np.vstack([
            np.column_stack([t, np.zeros_like(t)]),
            np.column_stack([np.zeros_like(t), t]),
            np.column_stack([t, 1 - t]),
        ])
        vals = basis.eval(boundary)[:, basis.dof_classes["interior"]]
        np.testing.assert_allclose(vals, 0, atol=1e-13)

    @pytest.mark.parametrize("d,p", [(1, 1), (1, 5), (2, 1), (2, 3), (2, 6)])
    def test_partition_of_unity(self, d, p, rng):
        basis = make_scalar_basis(d, p)
        pts = rng.random((20, d))
        if d == 2:
            pts[:, 1] *= 1 - pts[:, 0]
        vals = basis.eval(pts)[:, : d + 1]
        np.testing.assert_allclose(vals.sum(axis=1), 1.0, atol=1e-13)

    @pytest.mark.parametrize("d,p", [(1, 4), (1, 8), (2, 2), (2, 4), (2, 6)])
    def test_spans_full_polynomial_space(self, d, p):
        basis = make_scalar_basis(d, p)
        q = p + 2  # a unisolvent lattice finer than strictly needed
        if d == 1:
            pts = np.linspace(0, 1, q + 1)[:, None]
        else:
            pts = np.array([
                (i / q, j / q) for j in range(q + 1) for i in range(q + 1 - j)
            ])
        V = basis.eval(pts)
        assert np.linalg.matrix_rank(V, tol=1e-8) == basis.dim

    @pytest.mark.parametrize("d,p", [(1, 3), (1, 7), (2, 2), (2, 5)])
    def test_gradients_match_finite_differences(self, d, p, rng):
        basis = make_scalar_basis(d, p)
        pts = 0.1 + 0.6 * rng.random((20, d))
        if d == 2:
            pts[:, 1] *= 1 - pts[:, 0]
        grads = basis.grad(pts)
        step = 1e-6
        for axis in range(d):
            dpts = pts.copy()
            dpts[:, axis] += step
            fd = (basis.eval(dpts) - basis.eval(pts)) / step
            scale = np.maximum(np.abs(grads[:, :, axis]), 1.0)
            assert np.max(np.abs(fd - grads[:, :, axis]) / scale) < 1e-5

    def test_kept_tables_are_read_only_and_follow_the_points(self):
        basis = make_scalar_basis(2, 3)
        pts = simplex_quadrature(2, 4).points
        vals, grads = basis.eval_with_grad(pts)
        assert not vals.flags.writeable and not grads.flags.writeable
        moved = pts.copy()
        moved[0] = [0.5, 0.25]
        np.testing.assert_array_equal(basis.eval(moved)[1:], vals[1:])
        assert np.any(basis.eval(moved)[0] != vals[0])
        np.testing.assert_array_equal(basis.eval(pts), vals)

    def test_rejects_p0_and_bad_dim(self):
        with pytest.raises(ValueError):
            make_scalar_basis(1, 0)
        with pytest.raises(ValueError):
            make_scalar_basis(3, 2)


class TestQuadrature:
    def test_linear_1d(self):
        rule = simplex_quadrature(1, 1)
        val = np.sum(rule.weights * rule.points[:, 0])
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_triangle_weight_sum(self):
        rule = simplex_quadrature(2, 0)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-15)

    def test_triangle_x2y2(self):
        rule = simplex_quadrature(2, 4)
        val = np.sum(rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2)
        assert val == pytest.approx(1 / 180, abs=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("exactness", [0, 1, 2, 3, 5, 8, 12])
    def test_exactness_sweep(self, d, exactness):
        rule = simplex_quadrature(d, exactness)
        for total in range(exactness + 1):
            for a in range(total + 1):
                alpha = (a,) if d == 1 else (a, total - a)
                if d == 1 and a != total:
                    continue
                mono = np.prod(rule.points ** np.array(alpha), axis=1)
                val = np.sum(rule.weights * mono)
                assert val == pytest.approx(
                    simplex_monomial_integral(d, alpha), abs=1e-13
                )

    def test_weight_positivity(self):
        for d in (1, 2):
            for q in (0, 3, 9):
                assert np.all(simplex_quadrature(d, q).weights > 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            simplex_quadrature(3, 2)
        with pytest.raises(ValueError):
            simplex_quadrature(2, -1)


class TestHelperRules:
    def test_gauss01_moments(self):
        t, w = gauss01(4)
        for a in range(8):
            assert np.sum(w * t**a) == pytest.approx(1 / (a + 1), abs=1e-14)

    def test_gauss_jacobi01_weighted_moments(self):
        # weight s on [0, 1]: int s^(a+1) ds = 1/(a+2)
        s, w = gauss_jacobi01(5, 0, 1)
        for a in range(9):
            assert np.sum(w * s**a) == pytest.approx(1 / (a + 2), abs=1e-14)
