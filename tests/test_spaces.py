import numpy as np
import pytest

from helmfosls.mesh import (
    Mesh,
    build_interval_mesh,
    build_polygonal_disk_mesh,
    build_square_mesh,
)
from helmfosls.polyquad import ScalarBasis, gauss01, make_scalar_basis, simplex_quadrature
from helmfosls.spaces import (
    build_h1_space,
    build_hdiv_space,
    interpolate_h1_polynomial,
    interpolate_hdiv_polynomial,
    pull_back,
    push_forward,
    scalar_eval,
    vector_eval,
)

N_RANDOM_VECTORS = 200


def scalar_facet_jump(space, coeff_matrix, n_t=6):
    """Largest function-value jump across interior facets, all columns."""
    mesh = space.mesh
    t = gauss01(n_t)[0] if mesh.dim == 2 else np.array([0.5])
    worst = 0.0
    for fid in mesh.interior_facets:
        phys = mesh.facet_points(fid, t)
        vals = []
        for e in mesh.facet_elems[fid]:
            ref = mesh.to_reference(e, phys)
            local = space.elem_signs[e][:, None] * coeff_matrix[space.elem_dofs[e]]
            vals.append(space.basis.eval(ref) @ local)
        worst = max(worst, np.max(np.abs(vals[0] - vals[1])))
    return worst


def hdiv_normal_jump(space, coeff_matrix, n_t=6):
    """Largest normal-component jump across interior facets, all columns."""
    mesh = space.mesh
    t = gauss01(n_t)[0]
    worst = 0.0
    for fid in mesh.interior_facets:
        phys = mesh.facet_points(fid, t)
        traces = []
        for e in mesh.facet_elems[fid]:
            ref = mesh.to_reference(e, phys)
            B = space.bdm.eval(ref)
            local = space.elem_signs[e][:, None] * coeff_matrix[space.elem_dofs[e]]
            vals = np.einsum("qid,ic->qcd", B, local)
            vals = vals @ mesh.maps_A[e].T / mesh.det_A[e]
            traces.append(vals @ mesh.facet_normals[fid])
        worst = max(worst, np.max(np.abs(traces[0] - traces[1])))
    return worst


class TestDofCounts:
    def test_interval_h1(self):
        mesh = build_interval_mesh(-1, 1, 5)
        assert build_h1_space(mesh, 1).n_dofs == 6
        assert build_h1_space(mesh, 3).n_dofs == 16

    def test_square_h1_p2(self):
        mesh = build_square_mesh(1)
        assert build_h1_space(mesh, 2).n_dofs == 9

    def test_square_hdiv(self):
        mesh = build_square_mesh(1)
        assert build_hdiv_space(mesh, 1).n_dofs == 10
        assert build_hdiv_space(mesh, 2).n_dofs == 21

    def test_h1_combinatorial_count_2d(self):
        mesh = build_square_mesh(3)
        for p in (1, 2, 3, 4):
            space = build_h1_space(mesh, p)
            nv = len(mesh.vertices)
            nf = len(mesh.facet_vertices)
            ne = len(mesh.elements)
            expected = nv + (p - 1) * nf + (p - 1) * (p - 2) // 2 * ne
            assert space.n_dofs == expected

    def test_numbering_independent_of_element_order(self, rng):
        # vertex and facet dofs and their signs follow an element to its
        # new row when the element rows are permuted
        mesh = build_square_mesh(4)
        perm = rng.permutation(len(mesh.elements))
        shuffled = Mesh(2, mesh.vertices, mesh.elements[perm], 1.0)
        np.testing.assert_array_equal(shuffled.facet_vertices, mesh.facet_vertices)
        for p in (1, 2, 3):
            for build, n_shared in ((build_h1_space, 3 + 3 * (p - 1)),
                                    (build_hdiv_space, 3 * (p + 1))):
                a, b = build(mesh, p), build(shuffled, p)
                for attr in ("elem_dofs", "elem_signs"):
                    np.testing.assert_array_equal(
                        getattr(b, attr)[:, :n_shared],
                        getattr(a, attr)[perm, :n_shared])

    def test_hdiv_requires_2d(self):
        mesh = build_interval_mesh(-1, 1, 3)
        with pytest.raises(ValueError, match="1D"):
            build_hdiv_space(mesh, 1)


class TestBoundaryDofInfo:
    """The local dofs of a boundary facet's local index are all the basis
    functions with a (normal) trace on that facet."""

    def test_h1_counts_and_traces(self):
        mesh = build_square_mesh(2)
        p = 3
        space = build_h1_space(mesh, p)
        t = np.linspace(0.1, 0.9, 5)
        for fid in mesh.boundary_facets:
            elem = mesh.facet_elems[fid, 0]
            li = list(mesh.elem_facets[elem]).index(fid)
            listed_local = [*ScalarBasis.EDGES[li], *space.basis.dof_classes["edge"][li]]
            assert len(listed_local) == 2 + (p - 1)
            ref = mesh.to_reference(elem, mesh.facet_points(fid, t))
            vals = space.basis.eval(ref)
            unlisted = [l for l in range(space.local_dim())
                        if l not in listed_local]
            # everything with a trace on the facet is listed
            assert np.max(np.abs(vals[:, unlisted])) <= 1e-12

    def test_hdiv_counts_and_normal_traces(self):
        mesh = build_square_mesh(2)
        p = 2
        space = build_hdiv_space(mesh, p)
        t = np.linspace(0.1, 0.9, 5)
        nle = space.bdm.n_edge
        for fid in mesh.boundary_facets:
            elem = mesh.facet_elems[fid, 0]
            li = list(mesh.elem_facets[elem]).index(fid)
            listed_local = range(li * nle, (li + 1) * nle)
            assert len(listed_local) == p + 1
            ref = mesh.to_reference(elem, mesh.facet_points(fid, t))
            B = space.bdm.eval(ref)
            phys = np.einsum("qid,ad->qia", B, mesh.maps_A[elem])
            traces = np.einsum("qia,a->qi", phys, mesh.facet_normals[fid])
            unlisted = [l for l in range(space.local_dim())
                        if l not in listed_local]
            assert np.max(np.abs(traces[:, unlisted])) <= 1e-11


class TestConformity:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_h1_continuity_2d(self, p, rng):
        mesh = build_square_mesh(2)
        space = build_h1_space(mesh, p)
        coeffs = rng.standard_normal((space.n_dofs, N_RANDOM_VECTORS))
        norms = np.linalg.norm(coeffs, axis=0)
        jump = scalar_facet_jump(space, coeffs)
        assert jump <= 1e-11 * norms.min()

    def test_h1_continuity_disk(self, rng):
        mesh = build_polygonal_disk_mesh(8, 1)
        space = build_h1_space(mesh, 3)
        coeffs = rng.standard_normal((space.n_dofs, 50))
        assert scalar_facet_jump(space, coeffs) <= 1e-11 * np.linalg.norm(
            coeffs, axis=0
        ).min()

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_hdiv_normal_continuity(self, p, rng):
        mesh = build_square_mesh(2)
        space = build_hdiv_space(mesh, p)
        coeffs = rng.standard_normal((space.n_dofs, N_RANDOM_VECTORS))
        jump = hdiv_normal_jump(space, coeffs)
        assert jump <= 1e-11 * np.linalg.norm(coeffs, axis=0).min()

    def test_hdiv_normal_continuity_disk(self, rng):
        mesh = build_polygonal_disk_mesh(8, 0)
        space = build_hdiv_space(mesh, 2)
        coeffs = rng.standard_normal((space.n_dofs, 50))
        assert hdiv_normal_jump(space, coeffs) <= 1e-11 * np.linalg.norm(
            coeffs, axis=0
        ).min()

    def test_constant_field_interpolant(self):
        mesh = build_square_mesh(2)
        space = build_hdiv_space(mesh, 1)
        phi = lambda pts: np.tile([1.0 + 0j, 0.0], (len(np.atleast_2d(pts)), 1))
        coeffs = interpolate_hdiv_polynomial(space, phi)
        assert hdiv_normal_jump(space, coeffs[:, None]) <= 1e-13
        # and the point values really are (1, 0)
        rule = simplex_quadrature(2, 2)
        for e in range(len(mesh.elements)):
            vals = vector_eval(space, coeffs, e, rule.points)
            np.testing.assert_allclose(vals[:, 0], 1.0, atol=1e-12)
            np.testing.assert_allclose(vals[:, 1], 0.0, atol=1e-12)


def triangles(verts):
    """A mesh of disjoint triangles, one per vertex triple of ``verts``."""
    verts = np.asarray(verts, dtype=float).reshape(-1, 3, 2)
    area = np.abs(np.linalg.det(verts[:, 1:] - verts[:, :1])).sum() / 2
    return Mesh(2, verts.reshape(-1, 2), np.arange(verts.size // 2).reshape(-1, 3), area)


class TestPiola:
    """The element map: push_forward and pull_back."""

    def test_identity_map(self, rng):
        mesh = triangles([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        vecs, scalars = rng.random((4, 2)), rng.random(4)
        # (values, derivatives): H(div) (vectors, divergences), H1 (scalars, gradients)
        for space, fields in ((build_hdiv_space(mesh, 1), (vecs, scalars)),
                              (build_h1_space(mesh, 1), (scalars, vecs))):
            for elem in (0, np.array([0])):
                for f, derivative in zip(fields, (False, True)):
                    got = push_forward(space, elem, f.reshape(np.shape(elem) + f.shape),
                                       derivative)
                    np.testing.assert_allclose(got.reshape(f.shape), f, atol=1e-15)
        np.testing.assert_allclose(pull_back(mesh, 0, vecs), vecs, atol=1e-15)
        jac = rng.random((4, 2, 2))
        np.testing.assert_allclose(pull_back(mesh, 0, jac, jacobian=True), jac, atol=1e-15)

    def test_scaling_map(self):
        # A = 2 I, det A = 4
        mesh = triangles([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        v_space, w_space = build_hdiv_space(mesh, 1), build_h1_space(mesh, 1)
        vals = push_forward(v_space, 0, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(vals, [[0.5, 0.0]], atol=1e-15)
        div = push_forward(v_space, 0, np.array([1.0]), derivative=True)
        np.testing.assert_allclose(div, [0.25], atol=1e-15)
        grad = push_forward(w_space, 0, np.array([[1.0, 0.0]]), derivative=True)
        np.testing.assert_allclose(grad, [[0.5, 0.0]], atol=1e-15)
        back = pull_back(mesh, 0, np.array([[0.5, 0.0]]))
        np.testing.assert_allclose(back, [[1.0, 0.0]], atol=1e-15)

    def test_divergence_of_linear_field(self, rng):
        # phi_hat = (x, y) has reference divergence 2
        A = np.array([[1.3, 0.4], [-0.2, 0.9]])
        mesh = triangles([[0.0, 0.0], A[:, 0], A[:, 1]])
        np.testing.assert_allclose(mesh.maps_A[0], A, atol=1e-15)
        div = push_forward(build_hdiv_space(mesh, 1), np.array([0]),
                           np.full((1, 7), 2.0), derivative=True)
        np.testing.assert_allclose(div, 2.0 / np.linalg.det(A), atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_divergence_and_flux_commute(self, p, rng):
        """Volume divergence and edge fluxes are preserved by the map,
        element by element, for one batched call over five triangles."""
        from helmfosls.spaces import REF_EDGE_LENGTHS, REF_EDGE_NORMALS, \
            edge_reference_points
        sb = make_scalar_basis(2, p)
        rule = simplex_quadrature(2, 2 * p + 2)
        t, wt = gauss01(p + 2)
        mesh = triangles(rng.standard_normal((5, 3, 2)))
        space = build_hdiv_space(mesh, p)
        elems = np.arange(5)
        c = rng.standard_normal((5, sb.dim, 2))
        phi_hat = lambda pts: np.einsum("qi,eid->eqd", sb.eval(pts), c)
        div_hat = np.einsum("qid,eid->eq", sb.grad(rule.points), c)

        # int_K div phi dx = int_Khat div_hat phi_hat dxhat
        ref_int = div_hat @ rule.weights
        div = push_forward(space, elems, div_hat, derivative=True)
        phys_int = (div * mesh.det_A[:, None]) @ rule.weights
        assert np.all(np.abs(ref_int - phys_int) <= 1e-12 * np.maximum(1.0, np.abs(ref_int)))

        # per-facet flux preservation
        for l in range(3):
            ref_pts = edge_reference_points(l, t)
            pushed = push_forward(space, elems, phi_hat(ref_pts))
            flux_ref = (phi_hat(ref_pts) @ REF_EDGE_NORMALS[l]) @ wt * REF_EDGE_LENGTHS[l]
            for e in elems:
                fid = mesh.elem_facets[e, l]
                n_phys = mesh.elem_facet_signs[e, l] * mesh.facet_normals[fid]
                flux_phys = np.sum(wt * mesh.facet_measures[fid] * (pushed[e] @ n_phys))
                assert abs(flux_ref[e] - flux_phys) <= 1e-12 * max(1.0, abs(flux_ref[e]))

    def test_pull_back_inverts_push_forward(self, rng):
        mesh = triangles(rng.standard_normal((4, 3, 2)))
        space = build_hdiv_space(mesh, 1)
        elems = np.array([2, 0, 3])
        vals = rng.standard_normal((3, 6, 2))
        pushed = push_forward(space, elems, vals)
        np.testing.assert_allclose(pull_back(mesh, elems, pushed), vals, atol=1e-12)
        # pulled-back Jacobians are the reference derivatives of the
        # pulled-back field (central differences of phi = sin(x + 2y) (1, -1))
        phi = lambda x: np.sin(x @ [1.0, 2.0])[..., None] * [1.0, -1.0]
        jac = lambda x: np.cos(x @ [1.0, 2.0])[..., None, None] * np.outer([1, -1], [1, 2])
        xhat, h = np.array([[0.3, 0.2]]), 1e-5
        for e in elems:
            F = lambda y: y @ mesh.maps_A[e].T + mesh.maps_b[e]
            got = pull_back(mesh, e, jac(F(xhat)), jacobian=True)[0]
            for j in range(2):
                step = h * np.eye(2)[j]
                fd = (pull_back(mesh, e, phi(F(xhat + step)))
                      - pull_back(mesh, e, phi(F(xhat - step)))) / (2 * h)
                np.testing.assert_allclose(got[:, j], fd[0], rtol=1e-7, atol=1e-7)


class TestPolynomialInterpolation:
    def test_h1_reproduces_polynomial(self, rng):
        mesh = build_square_mesh(2)
        space = build_h1_space(mesh, 3)
        u = lambda pts: (
            1 + pts[:, 0] + pts[:, 1] ** 3 + pts[:, 0] * pts[:, 1]
        ).astype(complex)
        coeffs = interpolate_h1_polynomial(space, u)
        rule = simplex_quadrature(2, 6)
        for e in range(len(mesh.elements)):
            phys = rule.points @ mesh.maps_A[e].T + mesh.maps_b[e]
            got = scalar_eval(space, coeffs, e, rule.points)
            np.testing.assert_allclose(got, u(phys), atol=1e-12)

    def test_hdiv_reproduces_polynomial(self, rng):
        mesh = build_square_mesh(2)
        space = build_hdiv_space(mesh, 2)
        phi = lambda pts: np.column_stack([
            pts[:, 0] ** 2 + pts[:, 1], 1 - pts[:, 0] * pts[:, 1]
        ]).astype(complex)
        coeffs = interpolate_hdiv_polynomial(space, phi)
        rule = simplex_quadrature(2, 6)
        for e in range(len(mesh.elements)):
            phys = rule.points @ mesh.maps_A[e].T + mesh.maps_b[e]
            got = vector_eval(space, coeffs, e, rule.points)
            np.testing.assert_allclose(got, phi(phys), atol=1e-11)
