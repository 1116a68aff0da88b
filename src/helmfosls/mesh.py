"""Simplicial meshes on intervals and polygons with affine element maps.

A mesh stores vertices, element connectivity, oriented facets and the
per-element affine maps F_K(x) = A x + b from the reference simplex
([0, 1] in 1D, the unit triangle conv{(0,0), (1,0), (0,1)} in 2D).
Instances are immutable after construction and safe to share across
threads.
"""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Facet:
    """A mesh facet: a vertex in 1D, an edge in 2D.

    The normal of a boundary facet points out of the domain; the normal
    of an interior facet points from the lower- into the higher-indexed
    adjacent element.  ``measure`` is the edge length in 2D and the
    counting measure 1.0 in 1D.
    """

    vertex_ids: tuple
    elems: tuple
    normal: np.ndarray
    measure: float
    boundary: bool


class Mesh:
    """Simplicial mesh with per-element affine maps.

    Vertex order within each element is normalized so det(A_K) > 0.
    Facets are enumerated in a canonical order (sorted by their vertex
    index tuples) so that facet-attached degree-of-freedom numbering does
    not depend on the element ordering.
    """

    def __init__(self, dim, vertices, elements, domain_measure):
        if dim not in (1, 2):
            raise ValueError(f"unsupported spatial dimension {dim}")
        self.dim = dim
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        elements = np.ascontiguousarray(elements, dtype=int)
        self.elements = self._normalize_orientation(elements)
        self.domain_measure = float(domain_measure)

        self._build_maps()
        self._build_facets()
        self.h = float(max(self.element_diameters()))
        for arr in (self.vertices, self.elements, self.maps_A, self.maps_b,
                    self.det_A, self.inv_A, self.element_measures,
                    self.elem_facets):
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
        local = LOCAL_FACETS[self.dim]
        seen = {}
        for ei, elem in enumerate(self.elements):
            for li, loc in enumerate(local):
                key = tuple(sorted(int(elem[i]) for i in loc))
                seen.setdefault(key, []).append((ei, li))
        facets = []
        n_local = len(local)
        self.elem_facets = np.full((len(self.elements), n_local), -1, dtype=int)
        for fi, key in enumerate(sorted(seen)):
            adj = sorted(seen[key])
            if len(adj) > 2:
                raise ValueError(f"facet {key} shared by more than two elements")
            elems = tuple(ei for ei, _ in adj)
            boundary = len(elems) == 1
            facets.append(self._make_facet(key, elems, boundary))
            for ei, li in adj:
                self.elem_facets[ei, li] = fi
        self.facets = tuple(facets)
        self.boundary_facets = tuple(
            i for i, f in enumerate(self.facets) if f.boundary
        )
        self.interior_facets = tuple(
            i for i, f in enumerate(self.facets) if not f.boundary
        )

    def _make_facet(self, key, elems, boundary):
        v = self.vertices
        if self.dim == 1:
            # out of elems[0]: outward for boundary facets, lower-to-higher
            # adjacent element otherwise
            x = v[key[0], 0]
            centroid = v[self.elements[elems[0]], 0].mean()
            normal = np.array([1.0 if x > centroid else -1.0])
            return Facet(key, elems, normal, 1.0, boundary)
        a, b = v[key[0]], v[key[1]]
        tang = b - a
        length = float(np.linalg.norm(tang))
        normal = np.array([tang[1], -tang[0]]) / length
        ref = self.vertices[self.elements[elems[0]]].mean(axis=0)  # centroid
        if normal @ (0.5 * (a + b) - ref) < 0:
            normal = -normal
        return Facet(key, elems, normal, length, boundary)

    # -- queries -------------------------------------------------------

    def element_diameters(self):
        v, e = self.vertices, self.elements
        if self.dim == 1:
            return np.abs(v[e[:, 1], 0] - v[e[:, 0], 0])
        d01 = np.linalg.norm(v[e[:, 1]] - v[e[:, 0]], axis=1)
        d02 = np.linalg.norm(v[e[:, 2]] - v[e[:, 0]], axis=1)
        d12 = np.linalg.norm(v[e[:, 2]] - v[e[:, 1]], axis=1)
        return np.max([d01, d02, d12], axis=0)

    def facet_element_side(self, facet_id, elem):
        """Return (local facet index, outward sign) of ``facet_id`` seen
        from ``elem``.

        The sign is +1 when the stored facet normal is the outward normal
        of ``elem`` and -1 otherwise.
        """
        facet = self.facets[facet_id]
        li = int(np.where(self.elem_facets[elem] == facet_id)[0][0])
        sigma = 1.0 if facet.elems[0] == elem or facet.boundary else -1.0
        return li, sigma

    def facet_points(self, facet_id, t):
        """Physical points on a facet at parameters ``t`` in [0, 1].

        The parameterization runs from the lower to the higher global
        vertex index; in 1D it collapses to the single facet vertex.
        """
        f = self.facets[facet_id]
        if self.dim == 1:
            return np.repeat(self.vertices[[f.vertex_ids[0]]], len(t), axis=0)
        a, b = self.vertices[f.vertex_ids[0]], self.vertices[f.vertex_ids[1]]
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
    elements = []
    for j in range(n):
        for i in range(n):
            v00 = j * (n + 1) + i
            v10 = v00 + 1
            v01 = v00 + (n + 1)
            v11 = v01 + 1
            elements.append((v00, v10, v11))
            elements.append((v00, v11, v01))
    return Mesh(2, vertices, np.array(elements), 1.0)


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
    theta = 2 * np.pi * np.arange(n_boundary) / n_boundary
    vertices = np.vstack([[0.0, 0.0], np.column_stack([np.cos(theta), np.sin(theta)])])
    elements = [(0, 1 + i, 1 + (i + 1) % n_boundary) for i in range(n_boundary)]
    vertices, elements = list(map(np.asarray, (vertices, elements)))

    for _ in range(n_refine):
        counts = {}
        for tri in elements:
            for pair in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
                counts[tuple(sorted(map(int, pair)))] = (
                    counts.get(tuple(sorted(map(int, pair))), 0) + 1
                )
        verts = list(vertices)
        midpoint = {}
        for pair, cnt in sorted(counts.items()):
            m = 0.5 * (vertices[pair[0]] + vertices[pair[1]])
            if cnt == 1:  # boundary edge: project midpoint onto the circle
                m = m / np.linalg.norm(m)
            midpoint[pair] = len(verts)
            verts.append(m)
        new_elements = []
        for tri in elements:
            a, b, c = (int(t) for t in tri)
            mab = midpoint[tuple(sorted((a, b)))]
            mac = midpoint[tuple(sorted((a, c)))]
            mbc = midpoint[tuple(sorted((b, c)))]
            new_elements += [(a, mab, mac), (b, mbc, mab), (c, mac, mbc), (mab, mbc, mac)]
        vertices = np.asarray(verts)
        elements = np.asarray(new_elements)

    sides = n_boundary * 2**n_refine
    area = 0.5 * sides * math.sin(2 * math.pi / sides)
    return Mesh(2, vertices, np.asarray(elements), area)


def mesh_to_text(mesh):
    """Plain-text mesh dump: one vertex per line, one element per line.

    First line is ``dim n_vertices n_elements``; vertex lines hold
    coordinates, element lines hold 0-based vertex indices.  Debugging
    aid only.
    """
    lines = [f"{mesh.dim} {len(mesh.vertices)} {len(mesh.elements)}"]
    for v in mesh.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    for e in mesh.elements:
        lines.append(" ".join(str(int(i)) for i in e))
    return "\n".join(lines) + "\n"
