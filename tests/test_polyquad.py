import math
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from helmfosls.mesh import (
    LOCAL_EDGES,
    REFERENCE_VERTICES,
    build_square_mesh,
    local_simplex_points,
)
from helmfosls.polyquad import (
    ScalarBasis,
    gauss01,
    legendre_table,
    make_scalar_basis,
    simplex_quadrature,
)
from helmfosls.spaces import (
    BdmBasis,
    FunctionSpace,
    _kept_tables,
    _tables,
    reference_tables,
    scalar_eval,
)


def triangle_tables_by_loops(p, pts):
    """Reference triangle tables, one column per basis function."""
    x, y = pts[:, 0], pts[:, 1]
    lam = np.column_stack([(1 - x) - y, x, y])
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    dim = (p + 1) * (p + 2) // 2
    vals, grads = np.empty((len(pts), dim)), np.empty((len(pts), dim, 2))
    vals[:, :3], grads[:, :3] = lam, dlam
    col = 3
    for i, j in ((0, 1), (0, 2), (1, 2)):
        li, lj = lam[:, i], lam[:, j]
        P, dP = legendre_table(lj - li, p - 2)
        w, dw = li * lj, np.outer(lj, dlam[i]) + np.outer(li, dlam[j])
        for m in range(p - 1):
            vals[:, col] = w * P[:, m]
            grads[:, col] = dw * P[:, m][:, None] + (w * dP[:, m])[:, None] * (dlam[j] - dlam[i])
            col += 1
    bub = lam[:, 0] * lam[:, 1] * lam[:, 2]
    dbub = (np.outer(lam[:, 1] * lam[:, 2], dlam[0]) + np.outer(lam[:, 0] * lam[:, 2], dlam[1])
            + np.outer(lam[:, 0] * lam[:, 1], dlam[2]))
    P1, dP1 = legendre_table(lam[:, 1] - lam[:, 0], p - 3)
    P2, dP2 = legendre_table(2 * lam[:, 2] - 1, p - 3)
    for total in range(p - 2):
        for a in range(total + 1):
            b = total - a
            q = P1[:, a] * P2[:, b]
            dq = (np.outer(dP1[:, a] * P2[:, b], dlam[1] - dlam[0])
                  + np.outer(P1[:, a] * dP2[:, b], 2 * dlam[2]))
            vals[:, col] = bub * q
            grads[:, col] = dbub * q[:, None] + bub[:, None] * dq
            col += 1
    return vals, grads


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

    @pytest.mark.parametrize("p", range(1, 9))
    def test_triangle_tables_match_the_per_function_loops(self, p):
        """The batched edge and bubble expressions do the same per-entry
        arithmetic as one loop per basis function, so the triangle tables
        are bit-identical to it.  The interior BDM functions come from an
        SVD null-space basis that one ulp in these tables can rotate."""
        basis = make_scalar_basis(2, p)
        t = gauss01(p + 6)[0][:, None]
        edges = np.vstack([local_simplex_points(2, edge, t) for edge in LOCAL_EDGES[2]])
        for pts in (simplex_quadrature(2, 2 * p + 2).points,
                    simplex_quadrature(2, 4 * p + 16).points, edges):
            vals, grads = basis.eval_with_grad(pts)
            want_vals, want_grads = triangle_tables_by_loops(p, pts)
            np.testing.assert_array_equal(vals, want_vals)
            np.testing.assert_array_equal(grads, want_grads)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_interval_basis_is_the_edge_trace(self, p):
        """On the local edge (i, j) of the triangle, vertex functions i and
        j and the edge's functions restrict to the interval basis, in that
        order, and everything else vanishes; tangential derivatives match
        d/dt.  The edge stages of the projection rely on this."""
        t = np.concatenate([[0.0, 1.0], gauss01(p + 2)[0]])
        vals1, grads1 = make_scalar_basis(1, p).eval_with_grad(t[:, None])
        tri = make_scalar_basis(2, p)
        for l, (i, j) in enumerate(LOCAL_EDGES[2]):
            vals, grads = tri.eval_with_grad(local_simplex_points(2, (i, j), t[:, None]))
            tangent = REFERENCE_VERTICES[2][j] - REFERENCE_VERTICES[2][i]
            cols = [i, j, *tri.dof_classes["edge"][l]]
            for got, want in ((vals, vals1), (grads @ tangent, grads1[:, :, 0])):
                full = np.zeros_like(got)
                full[:, cols] = want
                np.testing.assert_allclose(got, full, rtol=0,
                                           atol=1e-13 * np.abs(want).max())

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
        kept = _tables(basis, pts)
        assert not any(table.flags.writeable
                       for table in (kept.values, kept.derivatives, kept.joined))
        vals = kept.values
        moved = pts.copy()
        moved[0] = [0.5, 0.25]
        moved_vals = reference_tables(basis, moved)[0]
        np.testing.assert_array_equal(moved_vals[1:], vals[1:])
        assert np.any(moved_vals[0] != vals[0])
        np.testing.assert_array_equal(reference_tables(basis, pts)[0], vals)

    def test_joined_table_is_built_with_the_entry(self):
        """Reading the reference tables builds the joined table with them,
        and field evaluations at the points multiply that same table.  A
        fresh basis, which no cache entry names."""
        space = FunctionSpace(build_square_mesh(1), ScalarBasis(2, 2))
        pts = np.array([[0.125, 0.25], [0.5, 0.375]])
        values, derivatives = reference_tables(space.basis, pts)
        kept = _tables(space.basis, pts)
        assert kept.values is values and kept.derivatives is derivatives
        joined = kept.joined
        np.testing.assert_array_equal(
            joined, np.concatenate([values, derivatives], axis=2).transpose(1, 0, 2))
        coeffs = np.arange(space.n_dofs, dtype=complex)
        first = scalar_eval(space, coeffs, 0, pts)
        np.testing.assert_array_equal(scalar_eval(space, coeffs, 0, pts), first)
        local = space.elem_signs[0] * coeffs[space.elem_dofs[0]]
        np.testing.assert_allclose(first, values[:, :, 0] @ local, rtol=1e-14)
        assert _tables(space.basis, pts).joined is joined

    def test_tables_are_kept_per_point_set(self, monkeypatch):
        """Rules A, B, A build the tables twice; more than the cache holds
        of other point sets evict A.  A fresh basis: the shared one may
        already have tables kept at rule A."""
        basis = ScalarBasis(2, 3)
        builds = []
        build = basis.eval_with_grad
        monkeypatch.setattr(
            basis, "eval_with_grad", lambda pts: builds.append(len(pts)) or build(pts)
        )
        bound = _kept_tables.cache_info().maxsize
        rule_a = simplex_quadrature(2, 4).points
        rule_b = simplex_quadrature(2, 7).points
        first = reference_tables(basis, rule_a)
        reference_tables(basis, rule_b)
        again = reference_tables(basis, rule_a.copy())
        assert builds == [len(rule_a), len(rule_b)]
        assert again[0] is first[0] and again[1] is first[1]
        for i in range(bound):
            reference_tables(basis, np.full((1, 2), 0.001 * (i + 1)))
        reference_tables(basis, rule_a)
        assert len(builds) == 2 + bound + 1

    def test_bdm_tables_are_kept_per_point_set(self):
        """The BDM values and divergences are kept per point set too: a
        repeat call (equal points in a new array) returns the same
        read-only arrays.  A fresh basis, which no cache entry names."""
        basis = BdmBasis(2)
        rule = simplex_quadrature(2, 6).points
        first = reference_tables(basis, rule)
        again = reference_tables(basis, rule.copy())
        assert again[0] is first[0] and again[1] is first[1]
        for table in first:
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_one_shared_basis_per_degree(self):
        assert make_scalar_basis(2, 3) is make_scalar_basis(2, 3)
        assert make_scalar_basis(1, 3) is not make_scalar_basis(2, 3)

    def test_threads_share_one_basis(self):
        """Two threads cycle one basis over more point sets than the cache
        holds, switching as often as the interpreter allows; neither
        raises, and both get the tables of a fresh build."""
        basis = ScalarBasis(2, 1)
        bound = _kept_tables.cache_info().maxsize
        sets = [np.full((1, 2), 0.001 * (i + 1)) for i in range(bound + 4)]
        want = [ScalarBasis(2, 1).eval_with_grad(pts) for pts in sets]
        errors, wrong = [], []

        def cycle():
            try:
                for _ in range(25):
                    for pts, (vals, grads) in zip(sets, want):
                        got_vals, got_grads = reference_tables(basis, pts)
                        if not (np.array_equal(got_vals[..., 0], vals)
                                and np.array_equal(got_grads, grads)):
                            wrong.append(pts)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=cycle) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and wrong == []

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
    @pytest.mark.parametrize("exactness", [0, 1, 2, 3, 5, 7, 8, 9, 12, 16, 20])
    def test_exactness_sweep(self, d, exactness):
        rule = simplex_quadrature(d, exactness)
        if d == 2 and exactness % 2 == 0:
            # the rules the library requests are even: they must not grow
            assert len(rule.weights) == (exactness // 2 + 1) ** 2
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

    def test_point_rule(self):
        """d = 0 (a facet of the interval): one point without coordinates."""
        rule = simplex_quadrature(0, 7)
        assert rule.points.shape == (1, 0)
        np.testing.assert_array_equal(rule.weights, [1.0])

    def test_weight_positivity(self):
        for d in (1, 2):
            for q in (0, 3, 9):
                assert np.all(simplex_quadrature(d, q).weights > 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            simplex_quadrature(3, 2)
        with pytest.raises(ValueError):
            simplex_quadrature(2, -1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_rules_are_cached_and_read_only(self, d):
        rule = simplex_quadrature(d, 5)
        assert simplex_quadrature(d, 5) is rule
        for arr in (rule.points, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
            with pytest.raises(ValueError):
                arr *= 2.0
        assert gauss01(4) is gauss01(4)
        for arr in gauss01(4):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestHelperRules:
    def test_gauss01_moments(self):
        t, w = gauss01(4)
        for a in range(8):
            assert np.sum(w * t**a) == pytest.approx(1 / (a + 1), abs=1e-14)


def test_import_leaves_scipy_special_unloaded():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import helmfosls; "
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


# the benchmark's warm-up case and then the named workloads at the given
# size, in one fresh process: the kept-table cache's statistics, its
# bound, and every evaluation of a scalar basis as (d, p, point shape,
# point bytes)
_TRAFFIC = """
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("workloads", sys.argv[2])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
import numpy as np
from helmfosls import polyquad, spaces
evaluated = []
evaluate = polyquad.ScalarBasis.eval_with_grad
def counted(basis, points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    evaluated.append((basis.d, basis.p, pts.shape, pts.tobytes()))
    return evaluate(basis, points)
polyquad.ScalarBasis.eval_with_grad = counted
workloads.warm_up()
for name in sys.argv[5:]:
    workloads.run(name, sys.argv[4], 0, sys.argv[3])
info = spaces._kept_tables.cache_info()
print(info.misses, info.currsize, info.maxsize, len(evaluated), len(set(evaluated)))
"""


def _traffic(tmp_path, size, *workloads):
    """(misses, entries, bound, scalar evaluations, distinct point sets) of
    the table cache after the warm-up case and ``workloads``."""
    root = pathlib.Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _TRAFFIC, str(root / "src"),
         str(root / "bench" / "workloads.py"), str(tmp_path), size, *workloads],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return tuple(map(int, out.stdout.split()))


def test_kept_tables_hold_the_benchmark_traffic(tmp_path):
    """The bound of the table cache covers the traffic it was sized from:
    every (basis, point set) of the run is built once and none is
    evicted, and S_p, BDM_p and the staged projection at the same points
    evaluate the scalar basis once."""
    misses, currsize, bound, evaluations, point_sets = _traffic(
        tmp_path, "full", "study-1d", "study-2d", "solve-2d", "project-2d")
    assert misses == currsize <= bound
    assert evaluations == point_sets


def test_kept_tables_hold_the_study_smoke_traffic(tmp_path):
    """The warm-up case and the smoke-size studies in 1D and 2D, each
    through ``cli.run_study`` in one process, evict nothing from the table
    cache: every entry was built once, and the cache is not full."""
    misses, currsize, bound, _, _ = _traffic(tmp_path, "smoke", "study-1d", "study-2d")
    assert misses == currsize < bound
