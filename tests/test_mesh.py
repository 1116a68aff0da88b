import math

import numpy as np
import pytest

from helmfosls import mesh as mesh_module
from helmfosls.mesh import (
    LOCAL_EDGES,
    LOCAL_FACETS,
    REF_EDGE_LENGTHS,
    REF_EDGE_NORMALS,
    REFERENCE_VERTICES,
    Mesh,
    barycentric,
    build_interval_mesh,
    build_polygonal_disk_mesh,
    build_square_mesh,
    element_map_apply,
    local_simplex_points,
)
from conftest import renumbered_disk_mesh
from oracles import elem_facet_signs


def adjacent(mesh, fid):
    """Elements adjacent to facet ``fid`` (-1 marks a missing neighbour)."""
    return [int(e) for e in mesh.facet_elems[fid] if e >= 0]


def side(mesh, fid, elem):
    """+1 if the stored normal of ``fid`` points out of ``elem``, else -1."""
    return elem_facet_signs(mesh)[elem, list(mesh.elem_facets[elem]).index(fid)]


def all_test_meshes():
    return [
        build_interval_mesh(-1, 1, 5),
        build_interval_mesh(0, 1, 1),
        build_interval_mesh(-1, 1, 4),
        build_square_mesh(1),
        build_square_mesh(3),
        build_polygonal_disk_mesh(8, 0),
        build_polygonal_disk_mesh(8, 1),
        build_polygonal_disk_mesh(16, 0),
    ]


class TestIntervalMesh:
    def test_uniform_nodes_and_h(self):
        mesh = build_interval_mesh(-1, 1, 5)
        assert mesh.h == pytest.approx(0.4, abs=1e-14)
        np.testing.assert_allclose(
            mesh.vertices[:, 0], [-1, -0.6, -0.2, 0.2, 0.6, 1], atol=1e-14
        )
        # odd count keeps zero off the node set
        assert np.min(np.abs(mesh.vertices[:, 0])) > 0.19

    def test_single_element(self):
        mesh = build_interval_mesh(-1, 1, 1)
        assert len(mesh.elements) == 1
        assert len(mesh.boundary_facets) == 2

    def test_even_count_places_node_at_zero(self):
        mesh = build_interval_mesh(-1, 1, 4)
        assert np.min(np.abs(mesh.vertices[:, 0])) < 1e-15

    def test_boundary_normals(self):
        mesh = build_interval_mesh(-1, 1, 5)
        for fid in mesh.boundary_facets:
            x = mesh.vertices[mesh.facet_vertices[fid, 0], 0]
            assert mesh.facet_normals[fid, 0] == (-1.0 if x < 0 else 1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_interval_mesh(-1, 1, 0)
        with pytest.raises(ValueError):
            build_interval_mesh(1, -1, 3)
        with pytest.raises(ValueError):
            build_interval_mesh(0, 0, 3)


class TestSquareMesh:
    def test_smallest(self):
        mesh = build_square_mesh(1)
        assert len(mesh.elements) == 2
        assert len(mesh.boundary_facets) == 4
        assert mesh.domain_measure == 1.0
        assert mesh.h == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_measures_sum(self):
        mesh = build_square_mesh(2)
        assert len(mesh.elements) == 8
        assert mesh.element_measures.sum() == pytest.approx(1.0, rel=1e-14)

    def test_counts_n4(self):
        mesh = build_square_mesh(4)
        assert len(mesh.elements) == 32
        assert len(mesh.boundary_facets) == 16

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            build_square_mesh(0)


class TestDiskMesh:
    def test_octagon_fan(self):
        mesh = build_polygonal_disk_mesh(8, 0)
        assert len(mesh.elements) == 8
        area = 4 * math.sin(math.pi / 4)  # polygon-area formula, n=8
        assert mesh.element_measures.sum() == pytest.approx(area, rel=1e-13)
        assert area == pytest.approx(2.828, abs=5e-4)

    def test_refinement(self):
        mesh = build_polygonal_disk_mesh(8, 1)
        assert len(mesh.elements) == 32
        for fid in mesh.boundary_facets:
            for vid in mesh.facet_vertices[fid]:
                r = np.linalg.norm(mesh.vertices[vid])
                assert abs(r - 1.0) <= 1e-14

    def test_hexadecagon_area(self):
        mesh = build_polygonal_disk_mesh(16, 0)
        area = 8 * math.sin(math.pi / 8)
        assert mesh.element_measures.sum() == pytest.approx(area, rel=1e-13)
        assert area == pytest.approx(3.0615, abs=5e-5)
        assert area < math.pi

    def test_rejects_small_polygon(self):
        with pytest.raises(ValueError):
            build_polygonal_disk_mesh(7, 0)


class TestReferenceSimplex:
    def test_edges_and_barycentric_coordinates(self, rng):
        """The interval is its own single edge, the triangle's edges are its
        facets; lam_0 is 1 - x_1 - ... - x_d subtracted in that order."""
        assert LOCAL_EDGES[1] == ((0, 1),) and LOCAL_EDGES[2] == LOCAL_FACETS[2]
        for d in (1, 2):
            np.testing.assert_array_equal(barycentric(REFERENCE_VERTICES[d]), np.eye(d + 1))
        xy = rng.random((50, 2))
        lam = barycentric(xy)
        np.testing.assert_array_equal(lam[:, 0], (1 - xy[:, 0]) - xy[:, 1])
        np.testing.assert_array_equal(lam[:, 1:], xy)
        # a point (d = 0) has no coordinates and the one barycentric weight 1
        np.testing.assert_array_equal(barycentric(np.zeros((3, 0))), np.ones((3, 1)))

    def test_local_simplex_map_edge_normals_and_lengths(self, rng):
        """Edge points are a (1 - t) + b t exactly; the facet of an interval
        is its vertex; the stored normals and lengths are those of the
        triangle's edges."""
        t = rng.random(20)
        for d in (1, 2):
            for a, b in LOCAL_EDGES[d]:
                va, vb = REFERENCE_VERTICES[d][[a, b]]
                np.testing.assert_array_equal(local_simplex_points(d, (a, b), t[:, None]),
                                              va * (1 - t)[:, None] + vb * t[:, None])
        for i in (0, 1):
            np.testing.assert_array_equal(local_simplex_points(1, (i,), np.zeros((1, 0))), [[i]])
        for (a, b), n, length in zip(LOCAL_EDGES[2], REF_EDGE_NORMALS, REF_EDGE_LENGTHS):
            tangent = REFERENCE_VERTICES[2][b] - REFERENCE_VERTICES[2][a]
            assert np.linalg.norm(tangent) == pytest.approx(length, rel=1e-15)
            assert n @ tangent == pytest.approx(0.0, abs=1e-15)
            assert np.linalg.norm(n) == pytest.approx(1.0, rel=1e-15)
            # outward: away from the opposite vertex
            opposite = REFERENCE_VERTICES[2][3 - a - b]
            assert n @ (opposite - REFERENCE_VERTICES[2][a]) < 0

    def test_global_edges(self):
        """A triangle's edges are its facets; an interval's one edge is the
        element itself."""
        square = build_square_mesh(3)
        assert square.elem_edges is square.elem_facets
        assert square.n_edges == len(square.facet_vertices)
        interval = build_interval_mesh(0.0, 1.0, 4)
        np.testing.assert_array_equal(interval.elem_edges, np.arange(4)[:, None])
        assert interval.n_edges == 4 and not interval.elem_edges.flags.writeable


class TestElementMap:
    def test_rejects_unsupported_dimension(self):
        with pytest.raises(ValueError, match="unsupported spatial dimension 3"):
            Mesh(3, np.eye(4, 3), [[0, 1, 2, 3]], 1.0 / 6.0)

    def test_flipped_element_reoriented_degenerate_rejected(self):
        # the element maps always have det A > 0, so the Piola map is defined
        verts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # clockwise
        mesh = Mesh(2, verts, np.array([[0, 1, 2]]), 0.5)
        assert mesh.det_A[0] == pytest.approx(1.0, abs=1e-15)
        assert list(mesh.elements[0]) == [0, 2, 1]
        interval = Mesh(1, np.array([[1.0], [0.0]]), np.array([[0, 1]]), 1.0)
        assert interval.det_A[0] == pytest.approx(1.0, abs=1e-15)
        assert list(interval.elements[0]) == [1, 0]
        with pytest.raises(ValueError, match="degenerate"):
            Mesh(2, np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
                 np.array([[0, 1, 2]]), 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            Mesh(1, np.array([[0.5], [0.5]]), np.array([[0, 1]]), 1.0)

    def test_closed_form_det_and_inverse(self):
        # edge vectors of the n = 8 square are multiples of 1/8, so
        # det A = a00 a11 - a01 a10 and adj A / det A are exact
        mesh = build_square_mesh(8)
        assert np.all(mesh.det_A == 1 / 64)
        eye = np.broadcast_to(np.eye(2), mesh.maps_A.shape)
        assert np.max(np.abs(mesh.inv_A @ mesh.maps_A - eye)) <= np.spacing(1.0)
        # 1D: det A is the element length, A^{-1} its reciprocal
        interval = build_interval_mesh(0, 1, 4)
        assert np.all(interval.det_A == 0.25) and np.all(interval.inv_A == 4.0)

    @pytest.mark.parametrize("mesh", [build_interval_mesh(-1, 1, 5),
                                      build_polygonal_disk_mesh(8, 2)],
                             ids=["interval", "disk"])
    def test_det_and_inverse_match_linalg(self, mesh):
        np.testing.assert_allclose(mesh.det_A, np.linalg.det(mesh.maps_A), rtol=1e-15)
        np.testing.assert_allclose(mesh.inv_A, np.linalg.inv(mesh.maps_A),
                                   rtol=1e-14, atol=1e-14 * np.abs(mesh.inv_A).max())

    def test_identity_on_reference_mesh(self):
        mesh = Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]), 0.5)
        pts = np.array([[0.2, 0.3], [0.0, 0.0], [0.5, 0.5]])
        np.testing.assert_allclose(element_map_apply(mesh, 0, pts), pts, atol=1e-15)

    def test_interval_affine(self):
        mesh = build_interval_mesh(-1, 1, 5)
        out = element_map_apply(mesh, 0, [[0.5]])
        assert out[0, 0] == pytest.approx(-0.8, abs=1e-14)

    def test_reference_triangle_point(self):
        mesh = Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]), 0.5)
        out = element_map_apply(mesh, 0, [[1 / 3, 1 / 3]])
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3]], atol=1e-15)

    def test_rejects_exterior_point(self):
        mesh = build_square_mesh(1)
        with pytest.raises(ValueError):
            element_map_apply(mesh, 0, [[0.8, 0.8]])
        with pytest.raises(ValueError):
            element_map_apply(mesh, 0, [[-0.1, 0.2]])


@pytest.mark.parametrize("mesh", all_test_meshes(), ids=lambda m: f"d{m.dim}")
class TestMeshInvariants:
    def test_measure_cover(self, mesh):
        assert mesh.element_measures.sum() == pytest.approx(
            mesh.domain_measure, rel=1e-12
        )

    def test_positive_jacobians(self, mesh):
        assert np.all(mesh.det_A > 0)

    def test_unit_normals(self, mesh):
        for normal in mesh.facet_normals:
            assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-14)

    def test_boundary_normals_outward(self, mesh):
        for fid in mesh.boundary_facets:
            centroid = mesh.vertices[mesh.elements[adjacent(mesh, fid)[0]]].mean(axis=0)
            mid = mesh.vertices[mesh.facet_vertices[fid]].mean(axis=0)
            assert mesh.facet_normals[fid] @ (mid - centroid) > 0

    def test_interior_facets_have_two_elements(self, mesh):
        for fid in mesh.interior_facets:
            assert len(adjacent(mesh, fid)) == 2
        for fid in mesh.boundary_facets:
            assert len(adjacent(mesh, fid)) == 1

    def test_boundary_facet_slots(self, mesh):
        # boundary facet i is local facet boundary_local_facets[i] of
        # element boundary_elems[i], its one adjacent element
        for fid, elem, local in zip(mesh.boundary_facets, mesh.boundary_elems,
                                    mesh.boundary_local_facets):
            assert adjacent(mesh, fid) == [elem]
            assert mesh.elem_facets[elem, local] == fid
            corners = mesh.elements[elem, list(LOCAL_FACETS[mesh.dim][local])]
            assert sorted(corners) == list(mesh.facet_vertices[fid])
        assert not mesh.boundary_elems.flags.writeable
        assert not mesh.boundary_local_facets.flags.writeable

    def test_interior_normals_opposite_sides(self, mesh):
        # the two adjacent elements see the stored normal with opposite signs
        for fid in mesh.interior_facets:
            e0, e1 = adjacent(mesh, fid)
            s0 = side(mesh, fid, e0)
            s1 = side(mesh, fid, e1)
            assert s0 == -s1
            assert s0 == 1.0  # normal points away from the lower element

    def test_maps_hit_vertices(self, mesh):
        ref = np.vstack([np.zeros((1, mesh.dim)), np.eye(mesh.dim)])
        for e in range(len(mesh.elements)):
            mapped = element_map_apply(mesh, e, ref)
            np.testing.assert_allclose(
                mapped, mesh.vertices[mesh.elements[e]], atol=1e-14
            )
        # an element array maps by every element at once
        mapped = element_map_apply(mesh, np.arange(len(mesh.elements)), ref)
        np.testing.assert_allclose(mapped, mesh.vertices[mesh.elements], atol=1e-14)


def test_mesh_is_immutable_after_construction():
    mesh = build_square_mesh(1)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        mesh.elements[0, 0] = 3


def test_mesh_copies_caller_arrays():
    # the clockwise element is reoriented and the arrays are frozen, both
    # on the mesh's own copies
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elems = np.array([[0, 2, 1]])
    mesh = Mesh(2, verts, elems, 0.5)
    assert list(mesh.elements[0]) == [0, 1, 2]
    assert elems.tolist() == [[0, 2, 1]]
    assert verts.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert verts.flags.writeable and elems.flags.writeable


def test_rejects_facet_shared_by_three_elements():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 1.0], [0.5, -1.0]])
    elems = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match=r"facet \(0, 1\) shared by more than two"):
        Mesh(2, verts, elems, 1.5)


def _unique_rows(tuples, n):
    """The facet table by np.unique(axis=0): sorted rows, inverse, counts."""
    return np.unique(tuples, axis=0, return_inverse=True, return_counts=True)


def _shuffled_square_mesh():
    square = build_square_mesh(5)
    order = np.random.default_rng(7).permutation(len(square.elements))
    return Mesh(2, square.vertices, square.elements[order], 1.0)


MESH_ARRAYS = ("vertices", "elements", "facet_vertices", "elem_facets",
               "elem_edge_reversed", "facet_elems", "facet_normals",
               "facet_measures", "boundary_facets", "interior_facets",
               "boundary_elems", "boundary_local_facets", "elem_edges")

TABLE_MESHES = pytest.mark.parametrize("build", [
    lambda: build_square_mesh(7),
    lambda: build_interval_mesh(-1, 1, 9),
    lambda: build_polygonal_disk_mesh(8, 2),
    _shuffled_square_mesh,
], ids=["square", "interval", "disk", "shuffled-square"])


@TABLE_MESHES
def test_edge_reversed_compares_vertex_ids(build):
    """Local edge (i, j) is reversed where vertex i has the larger id."""
    mesh = build()
    for l, (i, j) in enumerate(LOCAL_EDGES[mesh.dim]):
        np.testing.assert_array_equal(mesh.elem_edge_reversed[:, l],
                                      mesh.elements[:, i] > mesh.elements[:, j])
    assert not mesh.elem_edge_reversed.flags.writeable


def test_renumbered_disk_reverses_edges_in_every_pattern():
    """A random vertex numbering gives every element vertex order: all
    six reversal patterns (one per ordering of three ids) appear."""
    patterns = {tuple(row) for row in renumbered_disk_mesh().elem_edge_reversed.tolist()}
    assert len(patterns) == 6


@TABLE_MESHES
def test_facet_table_matches_unique_rows(build, monkeypatch):
    """Integer keys number facets (and the disk's refinement edges) as
    np.unique(axis=0) of the vertex tuples does: every array is equal,
    dtype included."""
    got = build()
    monkeypatch.setattr(mesh_module, "_unique_tuples", _unique_rows)
    want = build()
    for name in MESH_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
