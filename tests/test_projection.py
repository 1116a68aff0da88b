import importlib
from fractions import Fraction
from functools import partial
from math import comb

import numpy as np
import pytest

from helmfosls import fosls, projection
from helmfosls.mesh import (
    LOCAL_EDGES,
    REF_EDGE_NORMALS,
    build_polygonal_disk_mesh,
    build_square_mesh,
    element_map_apply,
    local_simplex_points,
)
from helmfosls.polyquad import gauss01, make_scalar_basis, simplex_quadrature
from helmfosls.projection import (
    _edge_work,
    _volume_work,
    project_hdiv_global,
    project_reference,
)
from helmfosls.spaces import (
    build_hdiv_space,
    pull_back,
    vector_eval,
)
from oracles import elem_facet_signs, facet_points, interpolate_hdiv_polynomial, to_reference


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _exact_trace_basis(p):
    """Integer coefficients (ascending) of 1-t, t and the bubbles
    t(1-t) P_m(2t-1), with P_m(2t-1) = sum_k (-1)^(m+k) C(m,k) C(m+k,k) t^k."""
    out = [[Fraction(1), Fraction(-1)], [Fraction(0), Fraction(1)]]
    for m in range(p - 1):
        leg = [Fraction((-1) ** (m + k) * comb(m, k) * comb(m + k, k))
               for k in range(m + 1)]
        out.append(_poly_mul([0, 1, -1], leg))
    return out


def _exact_divided_difference(q):
    """{(i, j): c} with (q(x) - q(y)) / (x - y) = sum c x^i y^j."""
    out = {}
    for k, c in enumerate(q):
        for i in range(k):
            out[i, k - 1 - i] = out.get((i, k - 1 - i), 0) + c
    return out


def _exact_edge_grams(p):
    """L2 Gram of the trace basis and H^{1/2}_00 Gram of its bubbles,
    in rational arithmetic."""
    basis = _exact_trace_basis(p)
    dd = [_exact_divided_difference(q) for q in basis]

    def l2(u, v):
        return sum(c / (k + 1) for k, c in enumerate(_poly_mul(u, v)))

    def sem(du, dv):
        # 2 int_0^1 int_0^x x^a y^b dy dx = 2 / ((b+1)(a+b+2))
        return sum(
            2 * cu * cv / ((j + l + 1) * (i + k + j + l + 2))
            for (i, j), cu in du.items() for (k, l), cv in dv.items()
        )

    def dist_half(w):
        # int_0^(1/2) w(t) / t dt for w vanishing at 0
        return sum(c * Fraction(1, 2) ** k / k for k, c in enumerate(w) if k)

    def dist(u, v):
        w = _poly_mul(u, v)
        mirrored = [
            sum(c * comb(k, j) * (-1) ** j for k, c in enumerate(w) if k >= j)
            for j in range(len(w))
        ]
        return dist_half(w) + dist_half(mirrored)

    gram_l2 = [[l2(u, v) for v in basis] for u in basis]
    gram_h12 = [
        [gram_l2[a][b] + sem(dd[a], dd[b]) + dist(basis[a], basis[b])
         for b in range(2, p + 1)]
        for a in range(2, p + 1)
    ]
    return gram_l2, gram_h12


def eval_projection(proj, points):
    basis = make_scalar_basis(proj.d, proj.p)
    return basis.eval(points) @ proj.result


def h1_norm_on_reference(d, f, grad_f, exactness=30):
    rule = simplex_quadrature(d, exactness)
    vals = np.abs(f(rule.points)) ** 2
    grads = np.sum(np.abs(grad_f(rule.points)) ** 2, axis=1)
    return np.sqrt(np.sum(rule.weights * (vals + grads)))


def _duffy_edge_rule(p):
    """The edge-stage quadrature built from the public rules: Gauss nodes
    tq for L2, the full Duffy grid (X, Y) with y = x(1-s), and the
    nodes tq/2 and 1 - tq/2 of the distance-weighted term, whose weights
    wq/tq fold in the weight 1/t of int_0^(1/2) uv / t dt."""
    tq, wq = gauss01(p + 6)
    x, w = gauss01(2 * p + 6)
    t_left = tq / 2
    return {
        "tq": tq, "wq": wq,
        "X": np.repeat(x[:, None], len(x), axis=1),
        "Y": x[:, None] * (1 - x)[None, :],
        "XmY": x[:, None] * x[None, :],
        "W": 2.0 * w[:, None] * w[None, :] * x[:, None],
        "t_left": t_left, "t_right": 1 - t_left,
        "w_dist": wq / tq,
    }


def _full_grid_edge_moments(p, r):
    """Objective moments p L2 + H^{1/2}_00 of traces r (callable on
    (n,) parameters, values (..., n)) against the bubbles, with the
    divided differences formed on the full (X, Y) Duffy grid."""
    rule = _duffy_edge_rule(p)
    basis = make_scalar_basis(1, p)

    def bubbles(t):
        return basis.eval(t[:, None])[:, 2:].T

    def divided_difference(f):
        XY = np.concatenate([rule["X"].ravel(), rule["Y"].ravel()])
        fx, fy = np.split(f(XY), 2, axis=-1)
        return (fx - fy).reshape(fx.shape[:-1] + rule["X"].shape) / rule["XmY"]

    m_l2 = np.einsum("q,...q,qa->...a", rule["wq"], r(rule["tq"]),
                     bubbles(rule["tq"]).T)
    m_sem = np.einsum("xy,...xy,axy->...a", rule["W"], divided_difference(r),
                      divided_difference(bubbles))
    m_dist = sum(
        np.einsum("q,...q,aq->...a", rule["w_dist"], r(rule[side]),
                  bubbles(rule[side]))
        for side in ("t_left", "t_right")
    )
    return p * m_l2 + (m_l2 + m_sem + m_dist)


class TestEdgeNormGram:
    def test_p1_has_no_bubbles(self):
        g = _edge_work(1)
        assert g.gram_H12_00.shape == (0, 0)
        assert g.gram_L2.shape == (2, 2)
        # hat-function L2 products: int (1-t)^2 = 1/3, int t(1-t) = 1/6
        np.testing.assert_allclose(
            g.gram_L2, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-14
        )

    def test_frozen_quadratic_bubble_values(self):
        # u = t(1-t): L2^2 = 1/30, Slobodeckij seminorm^2 = 1/6,
        # distance-weighted term = 2 * int_0^(1/2) t(1-t)^2 dt = 11/96
        g = _edge_work(2)
        assert g.gram_L2[2, 2] == pytest.approx(1 / 30, abs=1e-14)
        assert g.gram_H12_00[0, 0] == pytest.approx(
            1 / 30 + 1 / 6 + 11 / 96, abs=1e-13
        )

    @pytest.mark.parametrize("p", [2, 3, 4, 6, 8])
    def test_gram_matrices_spd(self, p):
        g = _edge_work(p)
        assert np.all(np.linalg.eigvalsh(g.gram_L2) > 0)
        assert np.all(np.linalg.eigvalsh(g.gram_H12_00) > 0)
        np.testing.assert_allclose(g.gram_L2, g.gram_L2.T, atol=1e-15)
        np.testing.assert_allclose(g.gram_H12_00, g.gram_H12_00.T, atol=1e-14)

    def test_rejects_p0(self):
        with pytest.raises(ValueError):
            _edge_work(0)

    @pytest.mark.parametrize("p", range(2, 9))
    def test_matches_exact_rational_oracle(self, p):
        exact_l2, exact_h12 = _exact_edge_grams(p)
        g = _edge_work(p)
        for got, exact in ((g.gram_L2, exact_l2), (g.gram_H12_00, exact_h12)):
            exact = np.array(exact, dtype=float)
            err = np.max(np.abs(got - exact)) / np.max(np.abs(exact))
            assert err <= 1e-14

    @pytest.mark.parametrize("p", range(2, 9))
    def test_moments_match_full_grid_oracle(self, p):
        """Moments from one evaluation on the deduplicated point set equal
        those of the full Duffy grid for a stack of smooth traces that
        vanish at 0 and 1."""
        a = np.array([0.7, -2.3, 5.1, 11.0])

        def r(t):
            t = np.asarray(t)
            return (t * (1 - t) * np.exp(1j * a[:, None] * t)
                    + np.sin(np.pi * t) * np.cos(a[:, None] * t) ** 2)

        work = _edge_work(p)
        got = work.moments(r(work.points))
        oracle = _full_grid_edge_moments(p, r)
        assert got.shape == oracle.shape == (len(a), p - 1)
        assert np.max(np.abs(got - oracle)) <= 1e-14 * np.max(np.abs(oracle))

    def test_shared_grams_are_read_only(self):
        g = _edge_work(3)
        before = g.gram_H12_00.copy()
        for gram in (g.gram_L2, g.gram_H12_00):
            with pytest.raises(ValueError):
                gram[0, 0] += 1
        np.testing.assert_array_equal(_edge_work(3).gram_H12_00, before)


class TestReferenceProjection:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_preserves_polynomials(self, d, p, rng):
        basis = make_scalar_basis(d, p)
        c = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        u = lambda pts: basis.eval(pts) @ c
        gu = lambda pts: np.einsum("qid,i->qd", basis.grad(pts), c)
        proj = project_reference(u, d, p, grad_u=gu)
        assert np.max(np.abs(proj.result - c)) <= 1e-12 * np.linalg.norm(c)

    @pytest.mark.parametrize("d,p", [(1, 1), (1, 5), (2, 2), (2, 4)])
    def test_preserves_constants(self, d, p):
        u = lambda pts: np.full(len(np.atleast_2d(pts)), 1.0 + 0j)
        gu = lambda pts: np.zeros((len(np.atleast_2d(pts)), d), dtype=complex)
        proj = project_reference(u, d, p, grad_u=gu)
        pts = simplex_quadrature(d, 5).points
        np.testing.assert_allclose(eval_projection(proj, pts), 1.0, atol=1e-12)

    def test_p1_edge_projection_is_linear_interpolant(self):
        u = lambda pts: np.exp(np.atleast_2d(pts)[:, 0]).astype(complex)
        proj = project_reference(u, 1, 1)
        np.testing.assert_allclose(
            proj.result, [1.0, np.e], atol=1e-14
        )

    def test_vertex_values_fixed(self, rng):
        u = lambda pts: np.cos(
            2.1 * np.atleast_2d(pts)[:, 0] + 0.7 * np.atleast_2d(pts)[:, 1]
        ).astype(complex)
        gu = lambda pts: np.column_stack([
            -2.1 * np.sin(2.1 * np.atleast_2d(pts)[:, 0] + 0.7 * np.atleast_2d(pts)[:, 1]),
            -0.7 * np.sin(2.1 * np.atleast_2d(pts)[:, 0] + 0.7 * np.atleast_2d(pts)[:, 1]),
        ]).astype(complex)
        proj = project_reference(u, 2, 5, grad_u=gu)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            eval_projection(proj, verts), u(verts), atol=1e-13
        )

    def test_linearity(self, rng):
        p = 4
        fu = lambda pts: np.sin(np.pi * np.atleast_2d(pts)[:, 0]).astype(complex)
        fv = lambda pts: np.exp(np.atleast_2d(pts)[:, 0] - 0.3).astype(complex)
        alpha, beta = 0.7 - 0.2j, -1.1 + 0.5j
        combo = lambda pts: alpha * fu(pts) + beta * fv(pts)
        pu = project_reference(fu, 1, p).result
        pv = project_reference(fv, 1, p).result
        pc = project_reference(combo, 1, p).result
        scale = np.linalg.norm(pu) + np.linalg.norm(pv)
        assert np.max(np.abs(pc - (alpha * pu + beta * pv))) <= 1e-11 * scale

    def test_restriction_property(self, rng):
        # v = u + y * w vanishes on the edge y = 0, so the projections of
        # u and v must share their trace there
        p = 5
        u = lambda pts: np.sin(
            1.3 * np.atleast_2d(pts)[:, 0] + 0.4 * np.atleast_2d(pts)[:, 1]
        ).astype(complex)
        gu = lambda pts: np.column_stack([
            1.3 * np.cos(1.3 * np.atleast_2d(pts)[:, 0] + 0.4 * np.atleast_2d(pts)[:, 1]),
            0.4 * np.cos(1.3 * np.atleast_2d(pts)[:, 0] + 0.4 * np.atleast_2d(pts)[:, 1]),
        ]).astype(complex)

        def v(pts):
            pts = np.atleast_2d(pts)
            return u(pts) + pts[:, 1] * np.exp(pts[:, 0])

        def gv(pts):
            pts = np.atleast_2d(pts)
            extra = np.column_stack([
                pts[:, 1] * np.exp(pts[:, 0]), np.exp(pts[:, 0])
            ])
            return gu(pts) + extra

        pu = project_reference(u, 2, p, grad_u=gu)
        pv = project_reference(v, 2, p, grad_u=gv)
        t = np.linspace(0, 1, 23)
        edge = np.column_stack([t, np.zeros_like(t)])
        tu = eval_projection(pu, edge)
        tv = eval_projection(pv, edge)
        assert np.max(np.abs(tu - tv)) <= 1e-11

    def test_sine_error_tracks_unconstrained_oracle(self):
        """Against a dense unconstrained minimum-norm fit on full P_p."""
        u = lambda pts: np.sin(np.pi * np.atleast_2d(pts)[:, 0]).astype(complex)
        gu = lambda pts: (np.pi * np.cos(
            np.pi * np.atleast_2d(pts)[:, 0]
        )).astype(complex)[:, None]
        rule = simplex_quadrature(1, 40)
        t, w = rule.points, rule.weights
        for p in range(1, 9):
            basis = make_scalar_basis(1, p)
            V, G = basis.eval_with_grad(t)
            G = G[:, :, 0]
            gram = np.einsum("q,qi,qj->ij", w, V, V) + np.einsum(
                "q,qi,qj->ij", w, G, G
            )
            rhs = np.einsum("q,q,qi->i", w, u(t), V) + np.einsum(
                "q,q,qi->i", w, gu(t)[:, 0], G
            )
            oracle = np.linalg.solve(gram, rhs)

            def h1_err(c):
                ev = V @ c - u(t)
                eg = G @ c - gu(t)[:, 0]
                return np.sqrt(np.sum(w * (np.abs(ev) ** 2 + np.abs(eg) ** 2)))

            proj = project_reference(u, 1, p)
            assert h1_err(proj.result) <= 10 * h1_err(oracle) + 1e-14

    def test_interior_minimizer_optimality_2d(self, rng):
        """Perturbing interior dofs never improves the volume objective."""
        p = 4
        u = lambda pts: np.sin(
            1.7 * np.atleast_2d(pts)[:, 0]
        ) * np.cos(0.9 * np.atleast_2d(pts)[:, 1]) + 0j
        def gu(pts):
            pts = np.atleast_2d(pts)
            return np.column_stack([
                1.7 * np.cos(1.7 * pts[:, 0]) * np.cos(0.9 * pts[:, 1]),
                -0.9 * np.sin(1.7 * pts[:, 0]) * np.sin(0.9 * pts[:, 1]),
            ]).astype(complex)

        proj = project_reference(u, 2, p, grad_u=gu)
        basis = make_scalar_basis(2, p)
        interior = basis.dof_classes["interior"]
        rule = simplex_quadrature(2, 2 * p + 12)
        V, G = basis.eval_with_grad(rule.points)

        def objective(c):
            ev = V @ c - u(rule.points)
            eg = np.einsum("qid,i->qd", G, c) - gu(rule.points)
            return np.sum(rule.weights * (
                (p**2 + 1) * np.abs(ev) ** 2
                + np.sum(np.abs(eg) ** 2, axis=1)
            ))

        base = objective(proj.result)
        for _ in range(50):
            c = proj.result.copy()
            c[interior] += 1e-4 * (
                rng.standard_normal(len(interior))
                + 1j * rng.standard_normal(len(interior))
            )
            assert objective(c) >= base * (1 - 1e-12)

    def test_edge_minimizer_optimality_1d(self, rng):
        """Perturbing bubble dofs never improves the edge objective."""
        p = 4
        u = lambda pts: np.exp(
            0.8 * np.atleast_2d(pts)[:, 0]
        ).astype(complex)
        proj = project_reference(u, 1, p)
        rule = _duffy_edge_rule(p)
        basis = make_scalar_basis(1, p)
        t, w = gauss01(30)

        def objective(c):
            def err(s):
                return basis.eval(np.asarray(s)[:, None]) @ c - u(
                    np.asarray(s)[:, None]
                )
            l2 = np.sum(w * np.abs(err(t)) ** 2)
            ex = err(rule["X"].ravel()).reshape(rule["X"].shape)
            ey = err(rule["Y"].ravel()).reshape(rule["Y"].shape)
            sem = np.sum(rule["W"] * np.abs((ex - ey) / rule["XmY"]) ** 2)
            dist = sum(
                np.sum(rule["w_dist"] * np.abs(err(rule[side])) ** 2)
                for side in ("t_left", "t_right")
            )
            return p * l2 + (l2 + sem + dist)

        base = objective(proj.result)
        for _ in range(50):
            c = proj.result.copy()
            c[2:] += 1e-4 * (
                rng.standard_normal(p - 1) + 1j * rng.standard_normal(p - 1)
            )
            assert objective(c) >= base * (1 - 1e-12)

    def test_simultaneous_error_trend_in_degree(self):
        """p ||e||_L2 + ||e||_H1 decays (up to factor 1.5) as p grows."""
        u = lambda pts: np.exp(
            np.atleast_2d(pts)[:, 0]
        ) * np.cos(2.0 * np.atleast_2d(pts)[:, 1]) + 0j
        def gu(pts):
            pts = np.atleast_2d(pts)
            ex = np.exp(pts[:, 0])
            return np.column_stack([
                ex * np.cos(2.0 * pts[:, 1]), -2.0 * ex * np.sin(2.0 * pts[:, 1])
            ]).astype(complex)

        rule = simplex_quadrature(2, 40)
        vals_u = u(rule.points)
        grads_u = gu(rule.points)
        q = []
        for p in range(2, 9):
            proj = project_reference(u, 2, p, grad_u=gu)
            basis = make_scalar_basis(2, p)
            V, G = basis.eval_with_grad(rule.points)
            ev = V @ proj.result - vals_u
            eg = np.einsum("qid,i->qd", G, proj.result) - grads_u
            l2 = np.sqrt(np.sum(rule.weights * np.abs(ev) ** 2))
            h1 = np.sqrt(np.sum(rule.weights * (
                np.abs(ev) ** 2 + np.sum(np.abs(eg) ** 2, axis=1)
            )))
            q.append(p * l2 + h1)
        for a, b in zip(q, q[1:]):
            assert b <= 1.5 * a

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_stack_rows_match_single_projections(self, d, p):
        """A stack of three functions projects as three separate calls."""
        A = np.array([[2.1, 0.7], [-1.3, 0.4], [0.5, -2.2]])[:, :d]
        B = np.array([[0.9, -1.6], [1.7, 0.3], [-0.6, 1.1]])[:, :d]
        C = np.array([0.7 - 0.2j, -1.1 + 0.5j, 0.3 + 1.4j])

        def u(pts):
            pts = np.atleast_2d(pts)
            return C[:, None] * np.exp(1j * A @ pts.T) + np.sin(B @ pts.T)

        def gu(pts):
            pts = np.atleast_2d(pts)
            wave = 1j * C[:, None] * np.exp(1j * A @ pts.T)
            return (wave[..., None] * A[:, None, :]
                    + np.cos(B @ pts.T)[..., None] * B[:, None, :])

        stack = project_reference(u, d, p, grad_u=gu)
        assert stack.result.shape == (3, make_scalar_basis(d, p).dim)
        for m in range(3):
            single = project_reference(
                lambda q, m=m: u(q)[m], d, p, grad_u=lambda q, m=m: gu(q)[m]
            ).result
            err = np.max(np.abs(stack.result[m] - single))
            assert err <= 1e-13 * np.linalg.norm(single)
        volume = stack.step_trace["volume"]
        steps = stack.step_trace["edge"] + ([volume] if volume else [])
        assert len(steps) == (1 if d == 1 else 3 + (p >= 3))
        assert all(step["kkt"] <= 1e-10 for step in steps)

    def test_kkt_residuals_recorded(self):
        u = lambda pts: np.sin(np.atleast_2d(pts)[:, 0] * 2.0).astype(complex)
        gu = lambda pts: np.column_stack([
            2.0 * np.cos(np.atleast_2d(pts)[:, 0] * 2.0),
            np.zeros(len(np.atleast_2d(pts))),
        ]).astype(complex)
        proj = project_reference(u, 2, 4, grad_u=gu)
        for step in proj.step_trace["edge"]:
            assert step["kkt"] <= 1e-10
        assert proj.step_trace["volume"]["kkt"] <= 1e-10

    def test_rejects_unsupported_dimension(self):
        u = lambda pts: np.zeros(len(np.atleast_2d(pts)), dtype=complex)
        with pytest.raises(NotImplementedError):
            project_reference(u, 3, 2)
        with pytest.raises(ValueError):
            project_reference(u, 4, 2)

    def test_rejects_degree_zero(self):
        """p = 0 is rejected by ``make_scalar_basis`` before u is
        evaluated."""
        calls = []
        with pytest.raises(ValueError, match="degree p must be at least 1"):
            project_reference(lambda pts: calls.append(pts), 1, 0)
        assert calls == []

    def test_interior_stage_needs_gradient(self):
        u = lambda pts: np.zeros(len(np.atleast_2d(pts)), dtype=complex)
        with pytest.raises(ValueError, match="grad"):
            project_reference(u, 2, 3)

    def test_missing_gradient_is_rejected_before_any_evaluation(self):
        calls = []

        def u(pts):
            calls.append(len(pts))
            return np.zeros(len(pts), dtype=complex)

        with pytest.raises(ValueError, match="grad"):
            project_reference(u, 2, 3)
        assert calls == []


def _directed_edges(mesh):
    """The (global edge, reversed) pairs the elements walk: local edge
    (i, j) of an element walks its edge from vertex i to vertex j."""
    return {(edge, elem[i] > elem[j])
            for elem, edges in zip(mesh.elements, mesh.elem_edges)
            for (i, j), edge in zip(LOCAL_EDGES[2], edges)}


def _elementwise_projection(phi, space, jac_phi):
    """The staged projection element by element: the reference algorithm
    on the Piola pull-back det A A^{-1} (phi o F) of every element, which
    projects each of its three edges for itself; (coefficients,
    mismatch) as ``project_hdiv_global`` returns them."""
    mesh = space.mesh
    local = []
    for e in range(len(mesh.elements)):
        def pulled(fn, jacobian, pts, e=e):
            vals = np.asarray(fn(element_map_apply(mesh, e, pts)), dtype=complex)
            return np.moveaxis(pull_back(mesh, e, vals, jacobian), 1, 0)
        comp = project_reference(partial(pulled, phi, False), 2, space.p,
                                 grad_u=partial(pulled, jac_phi, True))
        local.append(np.linalg.solve(space.basis.coeffs, comp.result.ravel()))
    local = np.array(local)
    coeffs = np.zeros(space.n_dofs, dtype=complex)
    coeffs[space.elem_dofs] = space.elem_signs * local
    return coeffs, np.max(np.abs(space.elem_signs * coeffs[space.elem_dofs] - local))


def _counted(fn, calls):
    """``fn``, appending its positional arguments to ``calls`` per call."""
    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapped


class TestEvaluationBudget:
    def test_each_stage_evaluates_once(self):
        """d = 2, p = 3: one vertex call, one call per edge on its whole
        point set, one volume value call and one gradient call."""
        phi, jac = TestHdivProjection().smooth_field()
        u_calls, grad_calls = [], []
        u = _counted(lambda q: phi(q)[:, 0], u_calls)
        gu = _counted(lambda q: jac(q)[:, 0, :], grad_calls)
        project_reference(u, 2, 3, grad_u=gu)
        edge_points = _edge_work(3).points.size
        assert edge_points == 183
        volume_points = len(simplex_quadrature(2, 14).points)
        assert [len(a[0]) for a in u_calls] == (
            [3] + 3 * [edge_points] + [volume_points]
        )
        assert [len(a[0]) for a in grad_calls] == [volume_points]

    @pytest.mark.parametrize("p", [3, 4, 5, 6])
    def test_volume_stage_reads_the_data_rule(self, p, monkeypatch):
        """The interior stage integrates on the data rule of assembly's
        loads and of the error rules, ``fosls.error_exactness``, so the
        tables it keeps are the ones the field path reads."""
        rule = simplex_quadrature(2, fosls.error_exactness(p))
        assert _volume_work(p).points is rule.points
        monkeypatch.setattr(projection, "error_exactness", lambda p: 2 * p + 10)
        assert projection._VolumeWork(p).points is simplex_quadrature(2, 2 * p + 10).points

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_chunks_are_sized_by_each_stages_point_set(self, p, monkeypatch):
        """One staged projection per chunk of directed edges, which reads
        phi at the endpoints and, for p >= 2, at the edge point set; one
        phi and one Jacobian call per chunk of elements of the interior
        stage.  Edge chunks are sized by the edge point set, interior
        chunks by the volume rule, and no call reads more than
        CHUNK_POINTS points."""
        mesh = build_square_mesh(6)
        space = build_hdiv_space(mesh, p)
        phi, jac = TestHdivProjection().smooth_field()
        reference_calls, phi_calls, jac_calls = [], [], []
        monkeypatch.setattr(projection, "project_reference", _counted(
            projection.project_reference, reference_calls))
        project_hdiv_global(_counted(phi, phi_calls), space,
                            jac_phi=_counted(jac, jac_calls))
        per_edge_chunk = fosls.CHUNK_POINTS // _edge_work(p).points.size
        edge_chunks = -(-len(_directed_edges(mesh)) // per_edge_chunk)
        interior_chunks = 0
        if p >= 3:
            per_elem_chunk = fosls.CHUNK_POINTS // len(_volume_work(p).points)
            interior_chunks = -(-len(mesh.elements) // per_elem_chunk)
            assert interior_chunks < -(-len(mesh.elements) // per_edge_chunk)
        assert len(reference_calls) == edge_chunks
        assert all(args[1:] == (1, p) for args in reference_calls)
        assert len(phi_calls) == edge_chunks * (1 if p == 1 else 2) + interior_chunks
        assert len(jac_calls) == interior_chunks
        assert max(len(args[0]) for args in phi_calls + jac_calls) <= fosls.CHUNK_POINTS

    def test_residuals_are_formed_only_when_the_trace_is_read(self, monkeypatch):
        """The global projection reads coefficients only and forms no KKT
        residual; one read of a reference projection's step trace forms
        each stage's residual once, and later reads form none."""
        kkt_calls = []
        monkeypatch.setattr(projection, "_kkt", _counted(projection._kkt, kkt_calls))
        phi, jac = TestHdivProjection().smooth_field()
        project_hdiv_global(phi, build_hdiv_space(build_square_mesh(3), 4), jac_phi=jac)
        assert kkt_calls == []
        proj = project_reference(lambda q: phi(q)[:, 0], 2, 4,
                                 grad_u=lambda q: jac(q)[:, 0, :])
        assert kkt_calls == []
        trace = proj.step_trace
        assert len(trace["edge"]) == 3 and trace["volume"] is not None
        assert [args[0] for args in kkt_calls] == 3 * [_edge_work(4)] + [_volume_work(4)]
        assert proj.step_trace is trace
        assert len(kkt_calls) == 4


class TestHdivProjection:
    def smooth_field(self):
        def phi(pts):
            pts = np.atleast_2d(pts)
            return np.column_stack([
                np.sin(1.3 * pts[:, 0] + 0.2 * pts[:, 1]),
                np.cos(pts[:, 0] - 0.7 * pts[:, 1]),
            ]).astype(complex)

        def jac(pts):
            pts = np.atleast_2d(pts)
            c = np.cos(1.3 * pts[:, 0] + 0.2 * pts[:, 1])
            s = np.sin(pts[:, 0] - 0.7 * pts[:, 1])
            J = np.empty((len(pts), 2, 2), dtype=complex)
            J[:, 0, 0] = 1.3 * c
            J[:, 0, 1] = 0.2 * c
            J[:, 1, 0] = -s
            J[:, 1, 1] = 0.7 * s
            return J

        return phi, jac

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_reproduces_polynomial_fields(self, p, rng):
        mesh = build_square_mesh(3)
        space = build_hdiv_space(mesh, p)
        sb = make_scalar_basis(2, p)
        c0 = rng.standard_normal(sb.dim)
        c1 = rng.standard_normal(sb.dim)
        phi = lambda pts: np.column_stack([
            sb.eval(pts) @ c0, sb.eval(pts) @ c1
        ]).astype(complex)
        jac = lambda pts: np.stack([
            np.einsum("qid,i->qd", sb.grad(pts), c0),
            np.einsum("qid,i->qd", sb.grad(pts), c1),
        ], axis=1).astype(complex)
        reference = interpolate_hdiv_polynomial(space, phi)
        got = project_hdiv_global(phi, space, jac_phi=jac)
        assert np.max(np.abs(got - reference)) <= 1e-11 * (
            1 + np.linalg.norm(reference)
        )

    def test_constant_field_flux_and_jumps(self):
        mesh = build_square_mesh(3)
        space = build_hdiv_space(mesh, 1)
        phi = lambda pts: np.tile([1.0 + 0j, 0.0], (len(np.atleast_2d(pts)), 1))
        coeffs = project_hdiv_global(phi, space)
        t, w = gauss01(4)
        total, right = 0.0 + 0j, 0.0 + 0j
        for fid in mesh.boundary_facets:
            e = mesh.facet_elems[fid, 0]
            li = list(mesh.elem_facets[e]).index(fid)
            sigma, normal = elem_facet_signs(mesh)[e, li], mesh.facet_normals[fid]
            edge = local_simplex_points(2, LOCAL_EDGES[2][li], t[:, None])
            vals = vector_eval(space, coeffs, e, edge)
            flux = np.sum(w * mesh.facet_measures[fid] * (vals @ (sigma * normal)))
            total += flux
            if abs(normal[0] - 1.0) < 1e-12:
                right += flux
        assert abs(total) <= 1e-13          # divergence theorem
        assert right == pytest.approx(1.0, abs=1e-13)  # outflow face width

        jump = 0.0
        for fid in mesh.interior_facets:
            ea, eb = mesh.facet_elems[fid]
            phys = facet_points(mesh, fid, t)
            va = vector_eval(space, coeffs, ea, to_reference(mesh, ea, phys))
            vb = vector_eval(space, coeffs, eb, to_reference(mesh, eb, phys))
            jump = max(jump, np.max(np.abs((va - vb) @ mesh.facet_normals[fid])))
        assert jump <= 1e-13

    @pytest.mark.parametrize("p", [2, 4])
    def test_smooth_field_conformity(self, p):
        mesh = build_square_mesh(2)
        space = build_hdiv_space(mesh, p)
        phi, jac = self.smooth_field()
        coeffs, mismatch = project_hdiv_global(
            phi, space, jac_phi=jac, return_max_mismatch=True
        )
        # the two writers of every shared dof agree
        assert mismatch <= 1e-11 * (1 + np.max(np.abs(coeffs)))
        t = gauss01(5)[0]
        scale = np.max(np.abs(coeffs))
        for fid in mesh.interior_facets:
            ea, eb = mesh.facet_elems[fid]
            phys = facet_points(mesh, fid, t)
            va = vector_eval(space, coeffs, ea, to_reference(mesh, ea, phys))
            vb = vector_eval(space, coeffs, eb, to_reference(mesh, eb, phys))
            assert np.max(np.abs((va - vb) @ mesh.facet_normals[fid])) <= 1e-10 * scale

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_normal_trace_commutes_with_edge_projection(self, p):
        """The flux projection's normal trace on each edge equals the 1D
        projection of the normal-trace data."""
        phi, jac = self.smooth_field()
        comp = [
            project_reference(
                lambda q, i=i: phi(q)[:, i], 2, p,
                grad_u=lambda q, i=i: jac(q)[:, i, :],
            ).result
            for i in (0, 1)
        ]
        basis2 = make_scalar_basis(2, p)
        basis1 = make_scalar_basis(1, p)
        tt = np.linspace(0, 1, 29)
        for l in range(3):
            n_hat = REF_EDGE_NORMALS[l]
            epts = local_simplex_points(2, LOCAL_EDGES[2][l], tt[:, None])
            lhs = (basis2.eval(epts) @ comp[0]) * n_hat[0] + (
                basis2.eval(epts) @ comp[1]
            ) * n_hat[1]
            trace = lambda s, l=l, n_hat=n_hat: (
                phi(local_simplex_points(2, LOCAL_EDGES[2][l], np.atleast_2d(s))) @ n_hat
            )
            proj1d = project_reference(trace, 1, p)
            rhs = basis1.eval(tt[:, None]) @ proj1d.result
            assert np.max(np.abs(lhs - rhs)) <= 1e-11

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("mesh_name", ["square", "disk"])
    def test_one_element_chunks_match_default_chunking(self, mesh_name, p,
                                                       monkeypatch):
        """Chunk seams leave coefficients and mismatch unchanged; the disk's
        elements are not congruent, so a wrong per-element map shows."""
        mesh = (build_square_mesh(3) if mesh_name == "square"
                else build_polygonal_disk_mesh(8, 1))
        space = build_hdiv_space(mesh, p)
        phi, jac = self.smooth_field()
        default, mismatch = project_hdiv_global(
            phi, space, jac_phi=jac, return_max_mismatch=True
        )
        monkeypatch.setattr(fosls, "CHUNK_POINTS", 1)
        single, single_mismatch = project_hdiv_global(
            phi, space, jac_phi=jac, return_max_mismatch=True
        )
        scale = np.max(np.abs(default))
        assert np.max(np.abs(single - default)) <= 1e-13 * scale
        assert abs(single_mismatch - mismatch) <= 1e-13 * scale

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("mesh_name", ["square", "disk"])
    def test_matches_elementwise_staged_projection(self, mesh_name, p):
        """Projecting each directed edge once gives the coefficients of the
        element-by-element projection, on meshes whose elements walk
        shared edges in both directions."""
        mesh = (build_square_mesh(3) if mesh_name == "square"
                else build_polygonal_disk_mesh(8, 1))
        assert mesh.n_edges < len(_directed_edges(mesh)) < mesh.elem_edges.size
        space = build_hdiv_space(mesh, p)
        phi, jac = self.smooth_field()
        want, want_mismatch = _elementwise_projection(phi, space, jac)
        got, mismatch = project_hdiv_global(phi, space, jac_phi=jac,
                                            return_max_mismatch=True)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for m in (mismatch, want_mismatch):
            assert m <= 1e-11 * (1 + np.max(np.abs(got)))

    def test_mismatch_reports_disagreeing_neighbours(self, monkeypatch):
        """A field that shifts on every call gives neighbouring elements
        different data on their shared edge; the mismatch must show it."""
        smooth, _ = self.smooth_field()
        calls = []

        def drifting(pts):
            calls.append(len(pts))
            return smooth(pts) + 1e-3 * len(calls)

        monkeypatch.setattr(fosls, "CHUNK_POINTS", 1)
        space = build_hdiv_space(build_square_mesh(3), 2)
        _, mismatch = project_hdiv_global(
            drifting, space, return_max_mismatch=True
        )
        assert mismatch >= 1e-4

    def test_requires_hdiv_space_and_jacobian(self):
        from helmfosls.mesh import build_interval_mesh
        from helmfosls.spaces import build_h1_space
        phi = lambda pts: np.zeros((len(np.atleast_2d(pts)), 2), dtype=complex)
        space1d = build_h1_space(build_interval_mesh(0, 1, 2), 1)
        with pytest.raises(ValueError):
            project_hdiv_global(phi, space1d)
        space = build_hdiv_space(build_square_mesh(1), 3)
        with pytest.raises(ValueError, match="jac"):
            project_hdiv_global(phi, space)


@pytest.mark.parametrize("name", [
    "helmfosls.spaces:interpolate_h1_polynomial",
    "helmfosls.spaces:interpolate_hdiv_polynomial",
    "helmfosls.spaces:_lattice",
    "helmfosls.spaces:_lattice_values",
    "helmfosls.mesh:Mesh.facet_points",
    "helmfosls.mesh:Mesh.to_reference",
    "helmfosls.analysis:tail_slope",
    "helmfosls.analysis:empirical_order",
    "helmfosls.projection:h12_00_gram",
    "helmfosls.projection:EdgeNormGram",
    "helmfosls:empirical_order",
    "helmfosls:h12_00_gram",
    "helmfosls:EdgeNormGram",
    "helmfosls.fosls:evaluate_b",
    "helmfosls.fosls:difference",
    "helmfosls.fosls:sample_pairs",
    "helmfosls:evaluate_b",
    "helmfosls.problems:ExactBundle.grad_u",
    "helmfosls.problems:ExactBundle.laplacian_u",
    "helmfosls.problems:ExactBundle.div_phi",
])
def test_test_oracles_are_not_library_names(name):
    """The oracles that only the tests read live in ``tests/oracles.py``
    (the bilinear form b among them), the edge Grams are read off
    ``_edge_work(p)``, and the exact fields that only the tests read come
    off ``ExactBundle.jet``: none of these names resolves in the library."""
    module, path = name.split(":")
    obj = importlib.import_module(module)
    with pytest.raises(AttributeError):
        for attr in path.split("."):
            obj = getattr(obj, attr)
