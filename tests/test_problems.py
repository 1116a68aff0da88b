import math

import numpy as np
import pytest
from conftest import polynomial_problem

from helmfosls.problems import (
    ExactBundle,
    WaveProblem,
    list_problems,
    make_problem,
    piecewise_1d_problem,
    plane_wave_problem,
    robin_data_from_exact,
)

KS = [1.0, 10.0, 50.0]


def square_boundary_samples(rng, n):
    """Random points on the unit-square boundary with outward normals."""
    t = rng.random(n)
    side = rng.integers(0, 4, n)
    pts = np.empty((n, 2))
    normals = np.empty((n, 2))
    pts[side == 0] = np.column_stack([t[side == 0], np.zeros(np.sum(side == 0))])
    normals[side == 0] = [0, -1]
    pts[side == 1] = np.column_stack([np.ones(np.sum(side == 1)), t[side == 1]])
    normals[side == 1] = [1, 0]
    pts[side == 2] = np.column_stack([t[side == 2], np.ones(np.sum(side == 2))])
    normals[side == 2] = [0, 1]
    pts[side == 3] = np.column_stack([np.zeros(np.sum(side == 3)), t[side == 3]])
    normals[side == 3] = [-1, 0]
    return pts, normals


@pytest.mark.parametrize("k", KS)
class TestExactResiduals:
    def test_plane_wave_pde_residual(self, k, rng):
        prob = plane_wave_problem(k)
        pts = rng.random((100, 2))
        res = -prob.exact.jet(pts, 2)[2] - k**2 * prob.exact.u(pts) - prob.f(pts)
        scale = max(np.max(np.abs(prob.exact.u(pts))) * k**2, 1.0)
        assert np.max(np.abs(res)) <= 1e-9 * scale

    def test_plane_wave_bc_residual(self, k, rng):
        prob = plane_wave_problem(k)
        pts, normals = square_boundary_samples(rng, 100)
        dn = np.einsum("nd,nd->n", prob.exact.jet(pts, 1)[1], normals)
        res = dn - 1j * k * prob.exact.u(pts) - prob.g(pts, normals)
        assert np.max(np.abs(res)) <= 1e-9 * max(k, 1.0)

    def test_piecewise_pde_residual(self, k, rng):
        prob = piecewise_1d_problem(k)
        pts = (2 * rng.random((100, 1)) - 1)
        res = -prob.exact.jet(pts, 2)[2] - k**2 * prob.exact.u(pts) - prob.f(pts)
        scale = max(k**2 * np.max(np.abs(prob.exact.u(pts))), 1.0)
        assert np.max(np.abs(res)) <= 1e-9 * scale

    def test_piecewise_bc_residual(self, k, rng):
        prob = piecewise_1d_problem(k)
        pts = np.array([[-1.0], [1.0]])
        normals = np.array([[-1.0], [1.0]])
        dn = np.einsum("nd,nd->n", prob.exact.jet(pts, 1)[1], normals)
        res = dn - 1j * k * prob.exact.u(pts) - prob.g(pts, normals)
        assert np.max(np.abs(res)) <= 1e-9 * max(k, 1.0)

    def test_first_order_system_identity(self, k, rng):
        # ik u + div phi = -i f / k at interior points
        for prob in (plane_wave_problem(k), piecewise_1d_problem(k)):
            d = prob.dim
            pts = rng.random((100, d))
            if d == 1:
                pts = 2 * pts - 1
            lhs = 1j * k * prob.exact.u(pts) + prob.exact.fields(pts)[1]
            rhs = -1j / k * prob.f(pts)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(k, 1.0)


class TestPlaneWave:
    def test_unimodular(self, rng):
        prob = plane_wave_problem(7.0)
        pts = rng.random((50, 2))
        np.testing.assert_allclose(np.abs(prob.exact.u(pts)), 1.0, atol=1e-13)

    def test_source_free(self, rng):
        prob = plane_wave_problem(3.0)
        np.testing.assert_allclose(prob.f(rng.random((20, 2))), 0.0, atol=0)

    def test_impedance_datum_spot_value(self):
        # at (1, 0) with normal (1, 0) and k = sqrt(2): wave vector (1, -1),
        # so g = (i - i sqrt(2)) e^{i x}|_{x=1}
        k = np.sqrt(2.0)
        prob = plane_wave_problem(k)
        g = prob.g(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        expected = (1j - 1j * np.sqrt(2.0)) * np.exp(1j)
        assert g[0] == pytest.approx(expected, abs=1e-13)


class TestPiecewise1d:
    def test_continuity_at_kink(self):
        k = 10.0
        prob = piecewise_1d_problem(k)
        left = prob.exact.u(np.array([[0.0]]))[0]          # branch x <= 0
        right_limit = (1 + 2 / k**2) * 1.0 - 1 / k**2      # branch x > 0 at 0
        assert left == pytest.approx(1 + 1 / k**2, abs=1e-14)
        assert right_limit == pytest.approx(left, abs=1e-14)

    def test_derivative_continuous_at_kink(self):
        prob = piecewise_1d_problem(5.0)
        eps = 1e-9
        dl = prob.exact.jet(np.array([[-eps]]), 1)[1][0, 0]
        dr = prob.exact.jet(np.array([[eps]]), 1)[1][0, 0]
        assert abs(dl) <= 1e-7 and abs(dr) <= 1e-7

    def test_second_derivative_jump_matches_source_jump(self):
        k = 4.0
        prob = piecewise_1d_problem(k)
        eps = 1e-12
        lap_l = prob.exact.jet(np.array([[-eps]]), 2)[2][0]
        lap_r = prob.exact.jet(np.array([[eps]]), 2)[2][0]
        f_l = prob.f(np.array([[-eps]]))[0]
        f_r = prob.f(np.array([[eps]]))[0]
        # -u'' jumps exactly as f does (the k^2 u term is continuous)
        assert (-lap_r) - (-lap_l) == pytest.approx(f_r - f_l, abs=1e-9)
        assert f_r - f_l == pytest.approx(2.0, abs=0)

    def test_breakpoint_registered(self):
        assert piecewise_1d_problem(2.0).breakpoints == (0.0,)


class TestRobinData:
    def test_constant_solution(self):
        k, c = 3.0, 2.5 - 1.0j
        u = lambda pts: np.full(len(np.atleast_2d(pts)), c)
        gu = lambda pts: np.zeros((len(np.atleast_2d(pts)), 1), dtype=complex)
        g = robin_data_from_exact(lambda pts, order: (u(pts), gu(pts)), k)
        val = g(np.array([[0.3]]), np.array([[1.0]]))
        assert val[0] == pytest.approx(-1j * k * c, abs=1e-14)

    def test_linear_solution_endpoints(self):
        k = 1.0
        u = lambda pts: np.atleast_2d(pts)[:, 0].astype(complex)
        gu = lambda pts: np.ones((len(np.atleast_2d(pts)), 1), dtype=complex)
        g = robin_data_from_exact(lambda pts, order: (u(pts), gu(pts)), k)
        g1 = g(np.array([[1.0]]), np.array([[1.0]]))[0]
        g0 = g(np.array([[0.0]]), np.array([[-1.0]]))[0]
        assert g1 == pytest.approx(1 - 1j, abs=1e-14)
        assert g0 == pytest.approx(-1.0, abs=1e-14)

    def test_reproduces_plane_wave_datum(self, rng):
        k = 6.0
        prob = plane_wave_problem(k)
        g_manufactured = robin_data_from_exact(
            lambda pts, order: (prob.exact.u(pts), prob.exact.jet(pts, 1)[1]), k)
        pts, normals = square_boundary_samples(rng, 40)
        np.testing.assert_allclose(
            prob.g(pts, normals), g_manufactured(pts, normals), atol=1e-13
        )


def _fields_cases(rng):
    x1 = np.concatenate([-rng.random(20), [0.0], rng.random(20)])[:, None]
    return [
        (plane_wave_problem(8.0), rng.random((50, 2))),
        (piecewise_1d_problem(10.0), x1),
        (polynomial_problem(1), 2 * rng.random((30, 1)) - 1),
        (polynomial_problem(2), rng.random((30, 2))),
    ]


class TestExactBundle:
    def test_fields_match_separate_callables(self, rng):
        for prob, pts in _fields_cases(rng):
            ex = prob.exact
            fields = ex.fields(pts)
            separate = (ex.phi(pts), 1j / prob.k * ex.jet(pts, 2)[2], ex.u(pts), ex.jet(pts, 1)[1])
            for got, want in zip(fields, separate):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_parts_equal_the_full_jet(self, rng):
        """Each part is bit-identical to the matching part of the jet at
        order 2, and a jet of lower order returns the first parts alone."""
        for prob, pts in _fields_cases(rng):
            ex, k = prob.exact, prob.k
            u, gu, lap = ex.jet(pts, 2)
            parts = [(ex.u, u), (ex.phi, 1j / k * gu)]
            for part, want in parts:
                assert np.array_equal(part(pts), want)
            for got, want in zip(ex.fields(pts), (1j / k * gu, 1j / k * lap, u, gu)):
                assert np.array_equal(got, want)
            if not prob.name.startswith("poly"):  # the test jet ignores the order
                for order in (0, 1):
                    low = ex.jet(pts, order)
                    assert len(low) == order + 1
                    assert all(np.array_equal(a, b) for a, b in zip(low, (u, gu)))

    def test_each_part_asks_the_lowest_order_that_holds_it(self, rng):
        prob = plane_wave_problem(8.0)
        orders = []

        def recording(points, order=2):
            orders.append(order)
            return prob.exact.jet(points, order)

        ex = ExactBundle(recording, prob.k)
        pts = rng.random((5, 2))
        for part, order in [(ex.u, 0), (ex.phi, 1), (ex.fields, 2)]:
            orders.clear()
            part(pts)
            assert orders == [order]
        orders.clear()
        robin_data_from_exact(recording, prob.k)(pts, np.tile([1.0, 0.0], (5, 1)))
        assert orders == [1]

    def test_flux_is_scaled_gradient(self, rng):
        for prob, pts in _fields_cases(rng):
            ex, k = prob.exact, prob.k
            np.testing.assert_allclose(ex.phi(pts), 1j / k * ex.jet(pts, 1)[1], rtol=1e-15)
            np.testing.assert_allclose(ex.fields(pts)[1], 1j / k * ex.jet(pts, 2)[2],
                                       rtol=1e-15)


class TestRegistry:
    def test_names(self):
        assert list_problems() == ["piecewise-1d", "plane-wave-2d"]

    def test_factory(self):
        prob = make_problem("plane-wave-2d", 4.0)
        assert prob.k == 4.0 and prob.dim == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown problem"):
            make_problem("corner-bessel", 1.0)

    def test_rejects_nonpositive_wavenumber(self):
        """Every constructor requires 0 < k < inf, as the CLI does; the
        factories check before they divide by k."""
        constructors = [
            plane_wave_problem, piecewise_1d_problem,
            lambda k: WaveProblem(name="x", dim=1, k=k, f=None, g=None),
        ]
        for make in constructors:
            for k in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="wavenumber"):
                    make(k)
