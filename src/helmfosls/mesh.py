"""Simplicial meshes on intervals and polygons with affine element maps.

A mesh stores vertices, element connectivity, the per-element affine
maps F_K(x) = A x + b from the reference simplex ([0, 1] in 1D, the unit
triangle conv{(0,0), (1,0), (0,1)} in 2D) and a facet table.  A facet is
a vertex in 1D and an edge in 2D; facet ``f`` is row ``f`` of these
arrays:

- ``facet_vertices`` (F, d): its global vertex ids, ascending;
- ``facet_elems`` (F, 2): its adjacent elements, ascending, with -1 in
  the second column where there is no second element (a boundary facet);
- ``facet_normals`` (F, d): the unit normal, pointing out of the element
  ``facet_elems[f, 0]`` (out of the domain on the boundary);
- ``facet_measures`` (F,): the edge length in 2D, 1.0 (counting measure)
  in 1D.

Facets are sorted by their ``facet_vertices`` rows, so facet numbering
does not depend on the element ordering.  ``elem_facets`` (E, d+1) holds
the facet of each local facet (``LOCAL_FACETS``) of each element, and
``elem_facet_signs`` (E, d+1) is +1 where the stored normal points out of
that element and -1 where it points in.  Instances are immutable after
construction and safe to share across threads.
"""

import io
import math

import numpy as np

# reference simplex vertices, indexed by spatial dimension
REFERENCE_VERTICES = {
    1: np.array([[0.0], [1.0]]),
    2: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
}

# local facets as tuples of local vertex indices (ascending order)
LOCAL_FACETS = {
    1: ((0,), (1,)),
    2: ((0, 1), (0, 2), (1, 2)),
}

# reference simplex measure |K_hat|
REFERENCE_MEASURE = {1: 1.0, 2: 0.5}


class Mesh:
    """Simplicial mesh with per-element affine maps and a facet table.

    Vertex order within each element is normalized so det(A_K) > 0.  The
    facet arrays (see the module docstring) are built in one pass over
    all elements; a facet shared by more than two elements is rejected.
    The caller's ``vertices`` and ``elements`` are copied, never changed.
    """

    def __init__(self, dim, vertices, elements, domain_measure):
        if dim not in (1, 2):
            raise ValueError(f"unsupported spatial dimension {dim}")
        self.dim = dim
        self.vertices = np.array(vertices, dtype=float)
        self.elements = self._normalize_orientation(np.array(elements, dtype=int))
        self.domain_measure = float(domain_measure)

        self._build_maps()
        self._build_facets()
        self.h = float(max(self.element_diameters()))
        for arr in (self.vertices, self.elements, self.maps_A, self.maps_b,
                    self.det_A, self.inv_A, self.element_measures,
                    self.elem_facets, self.elem_facet_signs, self.facet_vertices,
                    self.facet_elems, self.facet_normals, self.facet_measures,
                    self.boundary_facets, self.interior_facets):
            arr.flags.writeable = False

    # -- construction -------------------------------------------------

    def _normalize_orientation(self, elements):
        if self.dim == 1:
            x = self.vertices[:, 0]
            flip = x[elements[:, 0]] > x[elements[:, 1]]
            elements[flip] = elements[flip][:, ::-1]
            return elements
        v = self.vertices
        a = v[elements[:, 1]] - v[elements[:, 0]]
        b = v[elements[:, 2]] - v[elements[:, 0]]
        det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        flip = det < 0
        elements[flip, 1], elements[flip, 2] = (
            elements[flip, 2].copy(),
            elements[flip, 1].copy(),
        )
        return elements

    def _build_maps(self):
        d, v, e = self.dim, self.vertices, self.elements
        ne = len(e)
        self.maps_b = v[e[:, 0]].copy()
        self.maps_A = np.empty((ne, d, d))
        for j in range(d):
            self.maps_A[:, :, j] = v[e[:, j + 1]] - v[e[:, 0]]
        A = self.maps_A
        if d == 1:
            self.det_A, adj = A[:, 0, 0].copy(), np.ones_like(A)
        else:
            self.det_A = A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
            adj = np.stack([A[:, 1, 1], -A[:, 0, 1], -A[:, 1, 0], A[:, 0, 0]], axis=1)
        if np.any(self.det_A <= 0):
            raise ValueError("degenerate element: det(A_K) <= 0")
        self.inv_A = adj.reshape(A.shape) / self.det_A[:, None, None]
        self.element_measures = np.abs(self.det_A) * REFERENCE_MEASURE[d]

    def _build_facets(self):
        d, v, ne = self.dim, self.vertices, len(self.elements)
        # every (element, local facet) slot as its ascending vertex tuple;
        # np.unique sorts the tuples, which fixes the canonical facet order
        slots = np.sort(self.elements[:, LOCAL_FACETS[d]], axis=2).reshape(-1, d)
        self.facet_vertices, inverse, counts = np.unique(
            slots, axis=0, return_inverse=True, return_counts=True)
        if np.any(counts > 2):
            key = tuple(self.facet_vertices[np.argmax(counts > 2)].tolist())
            raise ValueError(f"facet {key} shared by more than two elements")
        self.elem_facets = inverse.reshape(ne, d + 1)
        nf = len(counts)

        # slots grouped by facet, elements ascending within a facet (stable)
        slot_elems = np.argsort(inverse, kind="stable") // (d + 1)
        first = np.cumsum(counts) - counts
        self.facet_elems = np.full((nf, 2), -1)
        self.facet_elems[:, 0] = slot_elems[first]
        shared = counts == 2
        self.facet_elems[shared, 1] = slot_elems[first[shared] + 1]
        self.boundary_facets = np.flatnonzero(~shared)
        self.interior_facets = np.flatnonzero(shared)

        # orient each normal out of its first element
        corners = v[self.facet_vertices]
        if d == 1:
            normals, self.facet_measures = np.ones((nf, 1)), np.ones(nf)
        else:
            tang = corners[:, 1] - corners[:, 0]
            self.facet_measures = np.linalg.norm(tang, axis=1)
            normals = tang[:, ::-1] * [1.0, -1.0] / self.facet_measures[:, None]
        centroids = v[self.elements[self.facet_elems[:, 0]]].mean(axis=1)
        inward = np.einsum("fd,fd->f", normals, corners.mean(axis=1) - centroids) < 0
        normals[inward] *= -1.0
        self.facet_normals = normals
        self.elem_facet_signs = np.where(
            self.facet_elems[self.elem_facets, 0] == np.arange(ne)[:, None], 1.0, -1.0)

    # -- queries -------------------------------------------------------

    def element_diameters(self):
        v, e = self.vertices, self.elements
        if self.dim == 1:
            return np.abs(v[e[:, 1], 0] - v[e[:, 0], 0])
        d01 = np.linalg.norm(v[e[:, 1]] - v[e[:, 0]], axis=1)
        d02 = np.linalg.norm(v[e[:, 2]] - v[e[:, 0]], axis=1)
        d12 = np.linalg.norm(v[e[:, 2]] - v[e[:, 1]], axis=1)
        return np.max([d01, d02, d12], axis=0)

    def facet_points(self, facet_id, t):
        """Physical points on a facet at parameters ``t`` in [0, 1].

        The parameterization runs from the lower to the higher global
        vertex index; in 1D it collapses to the single facet vertex.
        """
        ids = self.facet_vertices[facet_id]
        if self.dim == 1:
            return np.repeat(self.vertices[ids], len(t), axis=0)
        a, b = self.vertices[ids]
        t = np.asarray(t, dtype=float)
        return a[None, :] * (1 - t)[:, None] + b[None, :] * t[:, None]

    def to_reference(self, elem, points):
        """Pull physical points back to reference coordinates of ``elem``."""
        rel = np.atleast_2d(points) - self.maps_b[elem]
        return rel @ self.inv_A[elem].T


def element_map_apply(mesh, elem, xhat):
    """Apply the affine element map of ``elem`` to reference point(s).

    Points must lie inside the reference simplex (barycentric
    coordinates >= -1e-12); anything else is rejected.  An int array
    ``elem`` maps the points by every listed element, adding a leading
    element axis.
    """
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    lam = np.empty((len(xhat), mesh.dim + 1))
    lam[:, 0] = 1.0 - xhat.sum(axis=1)
    lam[:, 1:] = xhat
    if np.any(lam < -1e-12):
        raise ValueError("point outside the reference simplex")
    shift = np.asarray(mesh.maps_b[elem])[..., None, :]
    return xhat @ np.swapaxes(mesh.maps_A[elem], -1, -2) + shift


def build_interval_mesh(a, b, n_elems):
    """Uniform mesh of (a, b) with ``n_elems`` elements."""
    if n_elems < 1:
        raise ValueError("n_elems must be at least 1")
    if not a < b:
        raise ValueError("interval requires a < b")
    x = np.linspace(a, b, n_elems + 1)
    elements = np.column_stack([np.arange(n_elems), np.arange(1, n_elems + 1)])
    return Mesh(1, x[:, None], elements, b - a)


def build_square_mesh(n_per_side):
    """Unit square split into 2 n^2 congruent right triangles."""
    if n_per_side < 1:
        raise ValueError("n_per_side must be at least 1")
    n = n_per_side
    g = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(g, g, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    # each grid cell (v00, v10, v11, v01) splits along its diagonal v00-v11
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    cells = np.column_stack([v00, v00 + 1, v00 + n + 2, v00 + n + 1])
    elements = cells[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    return Mesh(2, vertices, elements, 1.0)


def build_polygonal_disk_mesh(n_boundary, n_refine):
    """Triangulation of the regular polygon inscribed in the unit circle.

    Starts from a fan of ``n_boundary`` triangles around the origin and
    refines ``n_refine`` times by uniform quadrisection.  Midpoints of
    boundary edges are projected back onto the unit circle, so every
    boundary vertex sits on the circle after each refinement and the
    domain is the inscribed (n_boundary * 2^n_refine)-gon.
    """
    if n_boundary < 8:
        raise ValueError("n_boundary must be at least 8")
    i = np.arange(n_boundary)
    theta = 2 * np.pi * i / n_boundary
    vertices = np.vstack([[0.0, 0.0], np.column_stack([np.cos(theta), np.sin(theta)])])
    elements = np.column_stack([np.zeros_like(i), 1 + i, 1 + (i + 1) % n_boundary])

    for _ in range(n_refine):
        # one new vertex per edge, numbered in ascending order of the edges
        pairs = np.sort(elements[:, LOCAL_FACETS[2]], axis=2).reshape(-1, 2)
        edges, inverse, counts = np.unique(
            pairs, axis=0, return_inverse=True, return_counts=True)
        mid = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])
        boundary = counts == 1  # boundary edge: project midpoint onto the circle
        mid[boundary] /= np.linalg.norm(mid[boundary], axis=1)[:, None]
        a, b, c = elements.T
        mab, mac, mbc = (len(vertices) + inverse.reshape(-1, 3)).T
        elements = np.column_stack([a, mab, mac, b, mbc, mab, c, mac, mbc,
                                    mab, mbc, mac]).reshape(-1, 3)
        vertices = np.vstack([vertices, mid])

    sides = n_boundary * 2**n_refine
    area = 0.5 * sides * math.sin(2 * math.pi / sides)
    return Mesh(2, vertices, elements, area)


def mesh_to_text(mesh):
    """Plain-text mesh dump: one vertex per line, one element per line.

    First line is ``dim n_vertices n_elements``; vertex lines hold
    coordinates, element lines hold 0-based vertex indices.  Debugging
    aid only.
    """
    out = io.StringIO()
    out.write(f"{mesh.dim} {len(mesh.vertices)} {len(mesh.elements)}\n")
    np.savetxt(out, mesh.vertices, fmt="%.17g")
    np.savetxt(out, mesh.elements, fmt="%d")
    return out.getvalue()
