import numpy as np
import pytest

from helmfosls.mesh import (
    LOCAL_EDGES,
    REF_EDGE_LENGTHS,
    REF_EDGE_NORMALS,
    Mesh,
    build_interval_mesh,
    build_polygonal_disk_mesh,
    build_square_mesh,
    local_simplex_points,
)
from helmfosls.polyquad import gauss01, make_scalar_basis, simplex_quadrature
from helmfosls.spaces import (
    build_h1_space,
    build_hdiv_space,
    pull_back,
    push_forward,
    scalar_eval,
    vector_eval,
)
from conftest import renumbered_disk_mesh
from oracles import (
    elem_facet_signs,
    facet_points,
    geometric_edge_signs,
    interpolate_h1_polynomial,
    interpolate_hdiv_polynomial,
    to_reference,
)

N_RANDOM_VECTORS = 200


def scalar_facet_jump(space, coeff_matrix, n_t=6):
    """Largest function-value jump across interior facets, all columns."""
    mesh = space.mesh
    t = gauss01(n_t)[0] if mesh.dim == 2 else np.array([0.5])
    worst = 0.0
    for fid in mesh.interior_facets:
        phys = facet_points(mesh, fid, t)
        vals = []
        for e in mesh.facet_elems[fid]:
            ref = to_reference(mesh, e, phys)
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
        phys = facet_points(mesh, fid, t)
        traces = []
        for e in mesh.facet_elems[fid]:
            ref = to_reference(mesh, e, phys)
            B = space.basis.eval(ref)
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

    def test_spaces_of_one_degree_share_one_basis(self):
        coarse, fine = build_square_mesh(1), build_square_mesh(3)
        bdm = build_hdiv_space(coarse, 2).basis
        assert build_hdiv_space(fine, 2).basis is bdm
        assert build_h1_space(fine, 2).basis is bdm.scalar is make_scalar_basis(2, 2)
        assert not bdm.coeffs.flags.writeable

    def test_hdiv_space_rejects_degree_zero(self):
        """BDM_0 is rejected by ``make_scalar_basis``, which every basis
        is built on."""
        with pytest.raises(ValueError, match="degree p must be at least 1"):
            build_hdiv_space(build_square_mesh(2), 0)

    def test_interval_flux_space_is_s_p(self):
        """H(div) = H1 in 1D: the flux space of an interval mesh is S_p."""
        mesh = build_interval_mesh(-1, 1, 3)
        for p in (1, 3):
            flux, h1 = build_hdiv_space(mesh, p), build_h1_space(mesh, p)
            assert flux.kind == h1.kind == "scalar-h1"
            assert flux.mesh is mesh and flux.p == p
            assert flux.basis is h1.basis is make_scalar_basis(1, p)
            assert flux.n_dofs == h1.n_dofs == 4 + 3 * (p - 1)
            np.testing.assert_array_equal(flux.elem_dofs, h1.elem_dofs)
            np.testing.assert_array_equal(flux.elem_signs, h1.elem_signs)


LAYOUT_MESHES = {
    "interval": lambda: build_interval_mesh(-1, 1, 5),
    "square": lambda: build_square_mesh(3),
    "disk": lambda: build_polygonal_disk_mesh(8, 1),
}


@pytest.mark.parametrize("p", range(1, 9))
@pytest.mark.parametrize("mesh_name", sorted(LAYOUT_MESHES))
@pytest.mark.parametrize("build", [build_h1_space, build_hdiv_space])
def test_layout_follows_the_dof_classes(build, mesh_name, p):
    """Both kinds are laid out from ``basis.dof_classes``: the interior
    functions are the trailing local block, and their global dofs one
    contiguous block per element, in element order, after every vertex
    and edge dof; local edge l of element e holds the block first_edge +
    elem_edges[e, l] n + arange(n).  Static condensation relies on this."""
    mesh = LAYOUT_MESHES[mesh_name]()
    space = build(mesh, p)
    classes, dofs = space.basis.dof_classes, space.elem_dofs
    ne, dim = len(mesh.elements), space.local_dim()
    interior = classes["interior"]
    assert interior == list(range(dim - len(interior), dim))
    first_int = space.n_dofs - ne * len(interior)
    np.testing.assert_array_equal(dofs[:, interior].ravel(), np.arange(first_int, space.n_dofs))
    assert np.all(np.delete(dofs, interior, axis=1) < first_int)

    np.testing.assert_array_equal(dofs[:, classes["vertex"]],
                                  mesh.elements[:, :len(classes["vertex"])])
    first_edge = len(mesh.vertices) if classes["vertex"] else 0
    n = len(classes["edge"][0])
    for l, cols in enumerate(classes["edge"]):
        np.testing.assert_array_equal(
            dofs[:, cols], first_edge + mesh.elem_edges[:, l, None] * n + np.arange(n))
    np.testing.assert_array_equal(np.unique(dofs), np.arange(space.n_dofs))


ORIENTATION_MESHES = {
    "square": lambda: build_square_mesh(5),
    "disk": lambda: build_polygonal_disk_mesh(8, 2),
    "renumbered-disk": renumbered_disk_mesh,
}


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("mesh_name", sorted(ORIENTATION_MESHES))
def test_edge_signs_follow_the_geometric_rule(mesh_name, p):
    """The edge signs that each basis states per kept and reversed local
    edge are exactly the geometric rule: the Legendre parity of S_p, and
    for BDM_p the parity times the outward normal against the canonical
    facet normal.  Vertex and interior functions keep sign 1."""
    mesh = ORIENTATION_MESHES[mesh_name]()
    for space in (build_h1_space(mesh, p), build_hdiv_space(mesh, p)):
        edges = [c for cols in space.basis.dof_classes["edge"] for c in cols]
        np.testing.assert_array_equal(
            space.elem_signs[:, edges],
            geometric_edge_signs(space).reshape(len(mesh.elements), -1))
        assert np.all(np.delete(space.elem_signs, edges, axis=1) == 1.0)


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
            listed_local = [*LOCAL_EDGES[2][li], *space.basis.dof_classes["edge"][li]]
            assert len(listed_local) == 2 + (p - 1)
            ref = to_reference(mesh, elem, facet_points(mesh, fid, t))
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
        nle = len(space.basis.dof_classes["edge"][0])
        for fid in mesh.boundary_facets:
            elem = mesh.facet_elems[fid, 0]
            li = list(mesh.elem_facets[elem]).index(fid)
            listed_local = range(li * nle, (li + 1) * nle)
            assert len(listed_local) == p + 1
            ref = to_reference(mesh, elem, facet_points(mesh, fid, t))
            B = space.basis.eval(ref)
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

    @pytest.mark.parametrize("p", [2, 3])
    def test_h1_continuity_renumbered_disk(self, p, rng):
        space = build_h1_space(renumbered_disk_mesh(), p)
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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_hdiv_normal_continuity_renumbered_disk(self, p, rng):
        space = build_hdiv_space(renumbered_disk_mesh(), p)
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
        vecs, scalars = rng.random((4, 2)), rng.random((4, 1))
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

    def test_jacobian_pull_back_matches_contraction(self, rng):
        """det A A^{-1} J A on five random affine triangles agrees with the
        einsum contraction of the three factors, for a scalar ``elem``
        with Jacobians (n, 2, 2) and an array ``elem`` with (E, n, 2, 2)."""
        mesh = triangles(rng.standard_normal((5, 3, 2)))

        def contraction(elem, jac):
            m = np.asarray(mesh.det_A[elem])[..., None, None] * mesh.inv_A[elem]
            return np.einsum("...ij,...njk,...kl->...nil", m, jac, mesh.maps_A[elem])

        cases = [(e, (7, 2, 2)) for e in range(5)] + [(np.arange(5), (5, 7, 2, 2)),
                                                      (np.array([3, 0, 3]), (3, 4, 2, 2))]
        for elem, shape in cases:
            jac = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got, want = pull_back(mesh, elem, jac, jacobian=True), contraction(elem, jac)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_scaling_map(self):
        # A = 2 I, det A = 4
        mesh = triangles([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        v_space, w_space = build_hdiv_space(mesh, 1), build_h1_space(mesh, 1)
        vals = push_forward(v_space, 0, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(vals, [[0.5, 0.0]], atol=1e-15)
        div = push_forward(v_space, 0, np.array([[1.0]]), derivative=True)
        np.testing.assert_allclose(div, [[0.25]], atol=1e-15)
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
                           np.full((1, 7, 1), 2.0), derivative=True)
        np.testing.assert_allclose(div, 2.0 / np.linalg.det(A), atol=1e-14)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_divergence_and_flux_commute(self, p, rng):
        """Volume divergence and edge fluxes are preserved by the map,
        element by element, for one batched call over five triangles."""
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
        div = push_forward(space, elems, div_hat[..., None], derivative=True)[..., 0]
        phys_int = (div * mesh.det_A[:, None]) @ rule.weights
        assert np.all(np.abs(ref_int - phys_int) <= 1e-12 * np.maximum(1.0, np.abs(ref_int)))

        # per-facet flux preservation
        signs = elem_facet_signs(mesh)
        for l in range(3):
            ref_pts = local_simplex_points(2, LOCAL_EDGES[2][l], t[:, None])
            pushed = push_forward(space, elems, phi_hat(ref_pts))
            flux_ref = (phi_hat(ref_pts) @ REF_EDGE_NORMALS[l]) @ wt * REF_EDGE_LENGTHS[l]
            for e in elems:
                fid = mesh.elem_facets[e, l]
                n_phys = signs[e, l] * mesh.facet_normals[fid]
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
