"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with -s to see the lines as they appear).

Criteria 1-4 check the convergence orders at k = 10 (1D) and k = 8 (2D)
on mesh tails that meet the scale-resolution condition under which the
orders are proved: kh <= 0.15 on the 1D tail n = 135, 405, 1215, and
kh/p <= 0.71 on the 2D tails.  The orders are upper bounds on the
error, so criteria 1-3 assert the one-sided bound slope >= target - 0.3;
the tails approach the targets from above while the k-dependent
pollution term still decays.  The upper sides, which show that the
orders are sharp, are asserted at k = 1 on the same meshes, where they
can be observed: TestResolvedRegimeRates in test_analysis.py (1D and
plane-wave 2D, both methods) and test_gradient_residual_rate_three_halves
for the e1 order of criterion 4.
"""

import time

import numpy as np
import pytest
import sympy

from helmfosls.analysis import compute_errors, tail_slope
from helmfosls.cli import solve_case
from helmfosls.fosls import assemble_fosls, galerkin_residual, split_solution
from helmfosls.mesh import build_interval_mesh, build_square_mesh
from helmfosls.polyquad import gauss01, make_scalar_basis, simplex_quadrature
from helmfosls.problems import piecewise_1d_problem, plane_wave_problem
from helmfosls.projection import h12_00_gram, project_reference
from helmfosls.spaces import (
    REF_EDGE_NORMALS,
    build_h1_space,
    build_hdiv_space,
    edge_reference_points,
    push_forward,
)

RNG = np.random.default_rng(193)


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def run_one(problem, method, mesh, p):
    system, x = solve_case(problem, method, mesh, p)
    sol = split_solution(system, x)
    return {
        "h": mesh.h,
        "errors": compute_errors(sol, problem),
        "galerkin": galerkin_residual(system, x),
        "n_total": system.n_total,
        "method": method,
    }


@pytest.fixture(scope="module")
def study_1d():
    """Piecewise-source problem, k = 10, odd counts 5..1215, p = 1..3.

    The tail n = 135, 405, 1215 keeps kh <= 0.15.  The sequence stops at
    1215: at n = 3645 the p = 3 least-squares error reaches the rounding
    floor (about 1e-9 relative).
    """
    problem = piecewise_1d_problem(10.0)
    out = {"series": {}, "seconds": {}}
    for method in ("fosls", "fem"):
        t0 = time.perf_counter()
        series = {}
        for p in (1, 2, 3):
            series[p] = [
                run_one(problem, method, build_interval_mesh(-1, 1, n), p)
                for n in (5, 15, 45, 135, 405, 1215)
            ]
        out["seconds"][method] = time.perf_counter() - t0
        out["series"][method] = series
    return out


@pytest.fixture(scope="module")
def study_2d():
    """Plane-wave problem on the unit square, k = 8, p = 1, 2.

    p = 1 runs n = 4..64 (tail 16, 32, 64) and p = 2 runs n = 4..32
    (tail 8, 16, 32), so every tail level has kh/p <= 0.71.
    """
    problem = plane_wave_problem(8.0)
    meshes = {1: (4, 8, 16, 32, 64), 2: (4, 8, 16, 32)}
    out = {"series": {}, "seconds": 0.0}
    t0 = time.perf_counter()
    for method in ("fosls", "fem"):
        series = {}
        for p, ns in meshes.items():
            series[p] = [
                run_one(problem, method, build_square_mesh(n), p) for n in ns
            ]
        out["series"][method] = series
    out["seconds"] = time.perf_counter() - t0
    return out


ONE_SIDED = (
    ". The proved order bounds the error from above, so the tail slope must "
    "reach at least the target; the upper side is asserted at k=1 by "
    "TestResolvedRegimeRates in test_analysis.py."
)


def l2_tail(rows):
    return tail_slope([r["h"] for r in rows], [r["errors"].l2_rel for r in rows])


def test_criterion_1_fosls_1d_rates(study_1d):
    details, ok = [], True
    for p in (1, 2, 3):
        slope = l2_tail(study_1d["series"]["fosls"][p])
        target = min(2.5, p + 1)
        ok &= slope >= target - 0.3
        details.append(f"p={p}: tail {slope:.2f} vs >= {target}-0.3")
    seconds = study_1d["seconds"]["fosls"]
    ok &= seconds < 60
    details.append(f"runtime {seconds:.1f}s < 60s")
    report("criterion 1 (1D least-squares rates, k=10)", ok, "; ".join(details))
    assert ok, (
        "1D least-squares tail slopes at k=10 on n=135, 405, 1215 "
        "(kh <= 0.15): " + "; ".join(details)
        + ONE_SIDED
    )


def test_criterion_2_fem_1d_rates(study_1d):
    details, ok = [], True
    for p in (1, 2, 3):
        slope = l2_tail(study_1d["series"]["fem"][p])
        target = min(2.5, p + 1)
        ok &= slope >= target - 0.3
        details.append(f"p={p}: tail {slope:.2f} vs >= {target}-0.3")
    seconds = study_1d["seconds"]["fem"]
    ok &= seconds < 60
    details.append(f"runtime {seconds:.1f}s < 60s")
    report("criterion 2 (1D classical FEM rates, k=10)", ok, "; ".join(details))
    assert ok, (
        "1D classical-FEM tail slopes at k=10 on n=135, 405, 1215 "
        "(kh <= 0.15): " + "; ".join(details)
        + ONE_SIDED
    )


def test_criterion_3_plane_wave_rates(study_2d):
    details, ok = [], True
    for method in ("fosls", "fem"):
        for p in (1, 2):
            slope = l2_tail(study_2d["series"][method][p])
            ok &= slope >= p + 1 - 0.3
            details.append(f"{method} p={p}: tail {slope:.2f} vs >= {p + 1}-0.3")
    seconds = study_2d["seconds"]
    ok &= seconds < 300
    details.append(f"runtime {seconds:.0f}s < 300s")
    report("criterion 3 (2D plane-wave rates, k=8)", ok, "; ".join(details))
    assert ok, (
        "2D tail slopes at k=8 on n=16, 32, 64 (p=1) and n=8, 16, 32 (p=2), "
        "kh/p <= 0.71: " + "; ".join(details)
        + ONE_SIDED
    )


def test_criterion_4_error_component_split(study_1d):
    # the jump of f caps e2 at h^(1/2) only from n ~ 405 on, so the tail
    # takes one level beyond the shared fixture
    finest = run_one(piecewise_1d_problem(10.0), "fosls",
                     build_interval_mesh(-1, 1, 3645), 2)
    rows = study_1d["series"]["fosls"][2] + [finest]
    h = [r["h"] for r in rows]
    e1 = tail_slope(h, [r["errors"].e1 for r in rows])
    e2 = tail_slope(h, [r["errors"].e2 for r in rows])
    ok = e1 >= 1.2 and 0.3 <= e2 <= 0.7
    detail = f"e1 tail {e1:.2f} vs >= 1.2; e2 tail {e2:.2f} vs [0.3, 0.7]"
    report("criterion 4 (residual component split, p=2, k=10)", ok, detail)
    assert ok, (
        f"residual-component slopes at k=10 on n=405, 1215, 3645: {detail}. "
        "At k=10 e1 still follows its smooth h^2 term, which the h^(3/2) "
        "bound allows; the e1 upper side is asserted at k=1 by "
        "test_gradient_residual_rate_three_halves in test_analysis.py."
    )


def test_criterion_5_property_suite(study_1d, study_2d):
    checks = {}

    # Hermitian + positive definite on small instances
    herm_dev, min_eig = 0.0, np.inf
    for mesh, p, prob in (
        (build_interval_mesh(-1, 1, 5), 2, piecewise_1d_problem(10.0)),
        (build_square_mesh(2), 1, plane_wave_problem(5.0)),
        (build_square_mesh(2), 2, plane_wave_problem(8.0)),
    ):
        w = build_h1_space(mesh, p)
        v = build_h1_space(mesh, p) if mesh.dim == 1 else build_hdiv_space(mesh, p)
        A = assemble_fosls(v, w, prob).matrix.toarray()
        assert A.shape[0] <= 400
        herm_dev = max(herm_dev, np.max(np.abs(A - A.conj().T)) / np.max(np.abs(A)))
        min_eig = min(min_eig, np.linalg.eigvalsh(A).min())
    checks["hermitian<=1e-12"] = herm_dev <= 1e-12
    checks["positive-definite"] = min_eig > 0

    # Galerkin residual on every solved study instance
    resid = max(
        r["galerkin"]
        for study in (study_1d, study_2d)
        for series in study["series"].values()
        for rows in series.values()
        for r in rows
    )
    checks["galerkin<=1e-8"] = resid <= 1e-8

    # polynomial preservation of the staged projection
    pres = 0.0
    for d in (1, 2):
        for p in range(1, 7):
            basis = make_scalar_basis(d, p)
            c = RNG.standard_normal(basis.dim) + 1j * RNG.standard_normal(basis.dim)
            u = lambda pts: basis.eval(pts) @ c
            gu = lambda pts: np.einsum("qid,i->qd", basis.grad(pts), c)
            proj = project_reference(u, d, p, grad_u=gu)
            pres = max(pres, np.max(np.abs(proj.result - c)) / np.linalg.norm(c))
    checks["projection-preservation<=1e-12"] = pres <= 1e-12

    # restriction property and normal-trace commutation
    checks["restriction<=1e-11"] = _restriction_deviation() <= 1e-11
    checks["normal-trace-commutation<=1e-11"] = _commutation_deviation() <= 1e-11

    # Piola divergence/flux identities
    checks["piola-identities<=1e-12"] = _piola_deviation() <= 1e-12

    # conformity jumps over 200 random coefficient vectors
    h1j, hdj = _conformity_deviations()
    checks["h1-jumps<=1e-11"] = h1j <= 1e-11
    checks["hdiv-jumps<=1e-11"] = hdj <= 1e-11

    # manufactured-solution residuals
    checks["exact-residuals<=1e-9"] = _exact_residual_deviation() <= 1e-9

    ok = all(checks.values())
    detail = "; ".join(f"{name} {'ok' if good else 'FAILED'}"
                       for name, good in checks.items())
    report("criterion 5 (property suite)", ok, detail)
    assert ok, detail


def _restriction_deviation():
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
        return gu(pts) + np.column_stack([
            pts[:, 1] * np.exp(pts[:, 0]), np.exp(pts[:, 0])
        ])

    basis = make_scalar_basis(2, p)
    pu = project_reference(u, 2, p, grad_u=gu).result
    pv = project_reference(v, 2, p, grad_u=gv).result
    t = np.linspace(0, 1, 23)
    edge = np.column_stack([t, np.zeros_like(t)])
    return float(np.max(np.abs(basis.eval(edge) @ (pu - pv))))


def _commutation_deviation():
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
        J[:, 0, 0], J[:, 0, 1] = 1.3 * c, 0.2 * c
        J[:, 1, 0], J[:, 1, 1] = -s, 0.7 * s
        return J

    worst = 0.0
    for p in (1, 2, 3, 4):
        comp = [
            project_reference(lambda q, i=i: phi(q)[:, i], 2, p,
                              grad_u=lambda q, i=i: jac(q)[:, i, :]).result
            for i in (0, 1)
        ]
        basis2 = make_scalar_basis(2, p)
        basis1 = make_scalar_basis(1, p)
        tt = np.linspace(0, 1, 29)
        for l in range(3):
            n_hat = REF_EDGE_NORMALS[l]
            epts = edge_reference_points(l, tt)
            lhs = (basis2.eval(epts) @ comp[0]) * n_hat[0] + (
                basis2.eval(epts) @ comp[1]
            ) * n_hat[1]
            trace = lambda s, l=l, n_hat=n_hat: (
                phi(edge_reference_points(l, np.atleast_2d(s)[:, 0])) @ n_hat
            )
            rhs = basis1.eval(tt[:, None]) @ project_reference(trace, 1, p).result
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _piola_deviation():
    from helmfosls.mesh import Mesh
    from helmfosls.spaces import REF_EDGE_LENGTHS

    worst = 0.0
    p = 3
    sb = make_scalar_basis(2, p)
    rule = simplex_quadrature(2, 2 * p + 2)
    t, wt = gauss01(p + 2)
    for _ in range(5):
        verts = RNG.standard_normal((3, 2))
        area = abs(np.linalg.det(verts[1:] - verts[0])) / 2
        mesh = Mesh(2, verts, np.array([[0, 1, 2]]), area)
        space = build_hdiv_space(mesh, p)
        elems = np.array([0])
        c = RNG.standard_normal((sb.dim, 2))
        phi_hat = lambda pts: (sb.eval(pts) @ c)[None]
        div_hat = np.einsum("qid,id->q", sb.grad(rule.points), c)
        ref_int = np.sum(rule.weights * div_hat)
        div = push_forward(space, elems, div_hat[None], derivative=True)
        phys_int = np.sum(rule.weights * mesh.det_A[0] * div)
        worst = max(worst, abs(ref_int - phys_int) / max(1.0, abs(ref_int)))
        for l in range(3):
            fid = mesh.elem_facets[0, l]
            ref_pts = edge_reference_points(l, t)
            flux_ref = np.sum(
                wt * REF_EDGE_LENGTHS[l] * (phi_hat(ref_pts)[0] @ REF_EDGE_NORMALS[l])
            )
            n_phys = mesh.elem_facet_signs[0, l] * mesh.facet_normals[fid]
            pushed = push_forward(space, elems, phi_hat(ref_pts))[0]
            flux_phys = np.sum(wt * mesh.facet_measures[fid] * (pushed @ n_phys))
            worst = max(worst, abs(flux_ref - flux_phys) / max(1.0, abs(flux_ref)))
    return worst


def _conformity_deviations():
    mesh = build_square_mesh(2)
    t = gauss01(5)[0]

    space = build_h1_space(mesh, 3)
    coeffs = RNG.standard_normal((space.n_dofs, 200))
    scale = np.linalg.norm(coeffs, axis=0).min()
    h1_worst = 0.0
    for fid in mesh.interior_facets:
        phys = mesh.facet_points(fid, t)
        vals = []
        for e in mesh.facet_elems[fid]:
            local = space.elem_signs[e][:, None] * coeffs[space.elem_dofs[e]]
            vals.append(space.basis.eval(mesh.to_reference(e, phys)) @ local)
        h1_worst = max(h1_worst, np.max(np.abs(vals[0] - vals[1])) / scale)

    vspace = build_hdiv_space(mesh, 3)
    coeffs = RNG.standard_normal((vspace.n_dofs, 200))
    scale = np.linalg.norm(coeffs, axis=0).min()
    hd_worst = 0.0
    for fid in mesh.interior_facets:
        phys = mesh.facet_points(fid, t)
        traces = []
        for e in mesh.facet_elems[fid]:
            B = vspace.bdm.eval(mesh.to_reference(e, phys))
            local = vspace.elem_signs[e][:, None] * coeffs[vspace.elem_dofs[e]]
            vals = np.einsum("qid,ic->qcd", B, local)
            vals = vals @ mesh.maps_A[e].T / mesh.det_A[e]
            traces.append(vals @ mesh.facet_normals[fid])
        hd_worst = max(hd_worst, np.max(np.abs(traces[0] - traces[1])) / scale)
    return h1_worst, hd_worst


def _exact_residual_deviation():
    worst = 0.0
    for k in (1.0, 10.0, 50.0):
        for prob in (piecewise_1d_problem(k), plane_wave_problem(k)):
            d = prob.dim
            pts = RNG.random((100, d))
            if d == 1:
                pts = 2 * pts - 1
            scale = max(k**2, 1.0)
            res = (
                -prob.exact.laplacian_u(pts) - k**2 * prob.exact.u(pts)
                - prob.f(pts)
            )
            worst = max(worst, np.max(np.abs(res)) / scale)
            if d == 1:
                bpts = np.array([[-1.0], [1.0]])
                normals = np.array([[-1.0], [1.0]])
            else:
                tt = RNG.random(100)
                bpts = np.column_stack([tt, np.zeros(100)])
                normals = np.tile([0.0, -1.0], (100, 1))
            dn = np.einsum("nd,nd->n", prob.exact.grad_u(bpts), normals)
            res_bc = dn - 1j * k * prob.exact.u(bpts) - prob.g(bpts, normals)
            worst = max(worst, np.max(np.abs(res_bc)) / max(k, 1.0))
    return worst


def test_criterion_6_oracle_equivalence():
    # (a) edge-norm Gram matrices against symbolic integration
    t, x, y = sympy.symbols("t x y", real=True)
    gram_dev = 0.0
    for p in (2, 3, 4):
        bubbles = [
            sympy.expand(t * (1 - t) * sympy.legendre(m, 2 * t - 1))
            for m in range(p - 1)
        ]
        n = p - 1
        oracle = np.zeros((n, n))
        for a in range(n):
            for b in range(a, n):
                l2 = sympy.integrate(bubbles[a] * bubbles[b], (t, 0, 1))
                dd_a = sympy.cancel(
                    (bubbles[a].subs(t, x) - bubbles[a].subs(t, y)) / (x - y)
                )
                dd_b = sympy.cancel(
                    (bubbles[b].subs(t, x) - bubbles[b].subs(t, y)) / (x - y)
                )
                sem = sympy.integrate(
                    sympy.integrate(dd_a * dd_b, (x, 0, 1)), (y, 0, 1)
                )
                prod = sympy.expand(bubbles[a] * bubbles[b])
                half = sympy.Rational(1, 2)
                dist = sympy.integrate(
                    sympy.cancel(prod / t), (t, 0, half)
                ) + sympy.integrate(sympy.cancel(prod / (1 - t)), (t, half, 1))
                oracle[a, b] = oracle[b, a] = float(l2 + sem + dist)
        got = h12_00_gram(p).gram_H12_00
        gram_dev = max(gram_dev, float(np.max(np.abs(got - oracle))))
    gram_ok = gram_dev <= 1e-8

    # (b) 1D least-squares element matrix (p = 1) against symbolic integration
    from test_fosls import TestLocalMatrixOracle, fosls_spaces
    from conftest import zero_problem
    mesh = build_interval_mesh(0, 1, 1)
    v, w = fosls_spaces(mesh, 1)
    got = assemble_fosls(v, w, zero_problem(1, k=1.0)).matrix.toarray()
    expected = TestLocalMatrixOracle().oracle(1)
    local_dev = float(np.max(np.abs(got - expected)))
    local_ok = local_dev <= 1e-12

    ok = gram_ok and local_ok
    detail = (
        f"edge-norm Gram vs symbolic {gram_dev:.1e} (<=1e-8) "
        f"{'ok' if gram_ok else 'FAILED'}; "
        f"local matrix vs symbolic {local_dev:.1e} (<=1e-12) "
        f"{'ok' if local_ok else 'FAILED'}"
    )
    report("criterion 6 (oracle equivalence)", ok, detail)
    assert ok, detail
