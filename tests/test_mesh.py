import math

import numpy as np
import pytest

from helmfosls.mesh import (
    Mesh,
    build_interval_mesh,
    build_polygonal_disk_mesh,
    build_square_mesh,
    element_map_apply,
    mesh_to_text,
)


def adjacent(mesh, fid):
    """Elements adjacent to facet ``fid`` (-1 marks a missing neighbour)."""
    return [int(e) for e in mesh.facet_elems[fid] if e >= 0]


def side(mesh, fid, elem):
    """+1 if the stored normal of ``fid`` points out of ``elem``, else -1."""
    return mesh.elem_facet_signs[elem, list(mesh.elem_facets[elem]).index(fid)]


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


class TestElementMap:
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


def test_mesh_to_text_format():
    mesh = build_square_mesh(1)
    text = mesh_to_text(mesh)
    lines = text.strip().split("\n")
    dim, nv, ne = map(int, lines[0].split())
    assert (dim, nv, ne) == (2, 4, 2)
    assert len(lines) == 1 + nv + ne
    v0 = np.array([float(x) for x in lines[1].split()])
    np.testing.assert_allclose(v0, mesh.vertices[0], atol=0)
    e0 = [int(x) for x in lines[1 + nv].split()]
    assert e0 == list(mesh.elements[0])
