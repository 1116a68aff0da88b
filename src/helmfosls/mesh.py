"""Simplicial meshes on intervals and polygons with affine element maps.

The reference simplex is described once, here, for d = 1 and 2: its
vertices (``REFERENCE_VERTICES``: [0, 1] in 1D, the unit triangle
conv{(0,0), (1,0), (0,1)} in 2D), its local facets and local edges
(``LOCAL_EDGES``: the interval is its own single edge), the triangle's
edge normals and lengths (``REF_EDGE_NORMALS``, ``REF_EDGE_LENGTHS``),
its measure, its barycentric coordinates (:func:`barycentric`) and the
map of a reference k-simplex onto a local edge or facet
(:func:`local_simplex_points`).  Every other module reads this
description instead of branching on d.

A mesh stores vertices, element connectivity, the per-element affine
maps F_K(x) = A x + b from the reference simplex (column j of A is the
edge vector from vertex 0 to vertex j + 1; det A and A^{-1} = adj A /
det A in closed form) and a facet table.  A facet is a vertex in 1D and
an edge in 2D; facet ``f`` is row ``f`` of these arrays:

- ``facet_vertices`` (F, d): its global vertex ids, ascending;
- ``facet_elems`` (F, 2): its adjacent elements, ascending, with -1 in
  the second column where there is no second element (a boundary facet);
- ``facet_normals`` (F, d): the unit normal, pointing out of the element
  ``facet_elems[f, 0]`` (out of the domain on the boundary);
- ``facet_measures`` (F,): the edge length in 2D, 1.0 (counting measure)
  in 1D.

``boundary_facets`` and ``interior_facets`` list the facets with one and
with two adjacent elements.  Boundary facet ``boundary_facets[i]`` is the
local facet ``boundary_local_facets[i]`` of its element
``boundary_elems[i]``.

Facets are sorted by their ``facet_vertices`` rows, so facet numbering
does not depend on the element ordering.  ``elem_facets`` (E, d+1) holds
the facet of each local facet (``LOCAL_FACETS``) of each element, and
``elem_edges`` (E, local edges) the global edge, out of ``n_edges``, of
each local edge (``LOCAL_EDGES``): a triangle's edges are its facets, an
interval's one edge is the element itself.  ``elem_edge_reversed`` (E,
local edges) is True where local edge (i, j) runs from the larger to the
smaller global vertex id: the one orientation rule of every edge dof.
It orients normals too, as every element has det A > 0: F_K keeps the
side of v_j - v_i that the reference outward normal lies on.  Instances
are immutable after construction and safe to share across threads.
"""

import functools
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

# local edges as ascending pairs of local vertex indices: the interval
# is its own single edge, the triangle's edges are its facets
LOCAL_EDGES = {
    1: ((0, 1),),
    2: LOCAL_FACETS[2],
}

# outward unit normals and lengths of the triangle's edges (0,1), (0,2), (1,2)
REF_EDGE_NORMALS = np.array([[0.0, -1.0], [-1.0, 0.0],
                             [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]])
REF_EDGE_LENGTHS = np.array([1.0, 1.0, np.sqrt(2.0)])

# reference simplex measure |K_hat|
REFERENCE_MEASURE = {1: 1.0, 2: 0.5}


def _det_adjugate(a):
    """Determinants (n,) and adjugates (n, d, d) of matrices (n, d, d),
    d <= 2, in closed form: det A = a00 a11 - a01 a10 and adj A =
    [[a11, -a01], [-a10, a00]] in 2D, det A = a00 and adj A = 1 in 1D,
    so that A^{-1} = adj A / det A."""
    if a.shape[-1] == 1:
        return a[:, 0, 0].copy(), np.ones_like(a)
    (a00, a01), (a10, a11) = a[:, 0].T, a[:, 1].T
    adj = np.stack([np.stack([a11, -a01], axis=1), np.stack([-a10, a00], axis=1)], axis=1)
    return a00 * a11 - a01 * a10, adj


def _norms(x):
    """Euclidean norms of the vectors on the last axis of ``x``."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _unique_tuples(tuples, n):
    """The distinct rows of ``tuples`` (m, k), whose entries lie in
    range(n), in lexicographic order, with the inverse (m,) and the
    counts.  Each row is keyed by one integer, t_0 n^(k-1) + ... + t_(k-1)
    (v0 * n + v1 for a pair), whose order is the lexicographic order of
    the rows; np.unique of the keys is an order of magnitude faster than
    np.unique(tuples, axis=0)."""
    keys = np.ravel_multi_index(tuples.T, (n,) * tuples.shape[1])
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    return tuples[first], inverse, counts


def barycentric(xhat):
    """Barycentric coordinates (n, d+1) of reference points (n, d):
    lam_0 = 1 - x_1 - ... - x_d, subtracted in that order, and lam_i = x_i."""
    lam0 = functools.reduce(np.subtract, xhat.T, np.ones(len(xhat)))
    return np.concatenate([lam0[:, None], xhat], axis=1)


def local_simplex_points(d, local_vertices, points):
    """Points (n, k) of the reference k-simplex mapped onto the local edge
    or facet of the reference d-simplex with the k + 1 ``local_vertices``,
    in their order: reference coordinates (n, d).  On the 0/1 reference
    vertices every product of the map is exact."""
    return barycentric(points) @ REFERENCE_VERTICES[d][list(local_vertices)]


class Mesh:
    """Simplicial mesh with per-element affine maps and a facet table.

    Vertex order within each element is normalized so det(A_K) > 0 (an
    element with det < 0 swaps its last two vertices).  The
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
        # a triangle's edges are its facets; an interval's is the element
        ne = len(self.elements)
        self.elem_edges = self.elem_facets if dim == 2 else np.arange(ne)[:, None]
        self.n_edges = len(self.facet_vertices) if dim == 2 else ne
        i, j = np.array(LOCAL_EDGES[dim]).T
        self.elem_edge_reversed = self.elements[:, i] > self.elements[:, j]
        self.h = float(max(self.element_diameters()))
        for arr in (self.vertices, self.elements, self.maps_A, self.maps_b,
                    self.det_A, self.inv_A, self.element_measures,
                    self.elem_facets, self.facet_vertices, self.facet_elems,
                    self.facet_normals, self.facet_measures, self.boundary_facets,
                    self.interior_facets, self.boundary_elems,
                    self.boundary_local_facets, self.elem_edges, self.elem_edge_reversed):
            arr.flags.writeable = False

    # -- construction -------------------------------------------------

    def _normalize_orientation(self, elements):
        v = self.vertices
        # the edge vectors are the rows of A, and det A^T = det A
        flip = _det_adjugate(v[elements[:, 1:]] - v[elements[:, :1]])[0] < 0
        elements[flip, -2:] = elements[flip, -2:][:, ::-1]
        return elements

    def _build_maps(self):
        v, e = self.vertices, self.elements
        self.maps_b = v[e[:, 0]].copy()
        # column j of A_K is the edge vector from vertex 0 to vertex j + 1
        self.maps_A = np.ascontiguousarray(np.swapaxes(v[e[:, 1:]] - v[e[:, :1]], 1, 2))
        self.det_A, adj = _det_adjugate(self.maps_A)
        if np.any(self.det_A <= 0):
            raise ValueError("degenerate element: det(A_K) <= 0")
        self.inv_A = adj / self.det_A[:, None, None]
        self.element_measures = np.abs(self.det_A) * REFERENCE_MEASURE[self.dim]

    def _build_facets(self):
        d, v, ne = self.dim, self.vertices, len(self.elements)
        # every (element, local facet) slot as its ascending vertex tuple;
        # sorting the tuples fixes the canonical facet order
        slots = np.sort(self.elements[:, LOCAL_FACETS[d]], axis=2).reshape(-1, d)
        self.facet_vertices, inverse, counts = _unique_tuples(slots, len(v))
        if np.any(counts > 2):
            key = tuple(self.facet_vertices[np.argmax(counts > 2)].tolist())
            raise ValueError(f"facet {key} shared by more than two elements")
        self.elem_facets = inverse.reshape(ne, d + 1)
        nf = len(counts)

        # slots grouped by facet, elements ascending within a facet (stable)
        order = np.argsort(inverse, kind="stable")
        slot_elems = order // (d + 1)
        first = np.cumsum(counts) - counts
        self.facet_elems = np.full((nf, 2), -1)
        self.facet_elems[:, 0] = slot_elems[first]
        shared = counts == 2
        self.facet_elems[shared, 1] = slot_elems[first[shared] + 1]
        self.boundary_facets = np.flatnonzero(~shared)
        self.interior_facets = np.flatnonzero(shared)
        # a boundary facet fills one slot: its element and local facet
        self.boundary_elems, self.boundary_local_facets = np.divmod(
            order[first[self.boundary_facets]], d + 1)

        # orient each normal out of its first element
        corners = v[self.facet_vertices]
        if d == 1:
            normals, self.facet_measures = np.ones((nf, 1)), np.ones(nf)
        else:
            tang = corners[:, 1] - corners[:, 0]
            self.facet_measures = _norms(tang)
            normals = tang[:, ::-1] * [1.0, -1.0] / self.facet_measures[:, None]
        centroids = v[self.elements[self.facet_elems[:, 0]]].mean(axis=1)
        inward = np.einsum("fd,fd->f", normals, corners.mean(axis=1) - centroids) < 0
        normals[inward] *= -1.0
        self.facet_normals = normals

    # -- queries -------------------------------------------------------

    def element_diameters(self):
        """Largest distance between two vertices of each element."""
        v, e = self.vertices, self.elements
        return np.max([_norms(v[e[:, j]] - v[e[:, i]])
                       for i, j in LOCAL_EDGES[self.dim]], axis=0)


def reference_points(xhat):
    """Reference point(s) as a float array (n, d), checked to lie inside
    the reference simplex (barycentric coordinates >= -1e-12); anything
    else is rejected."""
    xhat = np.atleast_2d(np.asarray(xhat, dtype=float))
    if np.any(barycentric(xhat) < -1e-12):
        raise ValueError("point outside the reference simplex")
    return xhat


def element_map_apply(mesh, elem, xhat, check=True):
    """Apply the affine element map of ``elem`` to reference point(s).

    Points go through :func:`reference_points`, unless ``check`` is
    False: then ``xhat`` must be its result already.  An int array
    ``elem`` maps the points by every listed element, adding a leading
    element axis.
    """
    if check:
        xhat = reference_points(xhat)
    # every element maps the same points: one (E d, d) x (d, q) product
    a = mesh.maps_A[elem]
    linear = (a.reshape(-1, a.shape[-1]) @ xhat.T).reshape(a.shape[:-1] + (len(xhat),))
    return np.swapaxes(linear, -1, -2) + np.asarray(mesh.maps_b[elem])[..., None, :]


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
        pairs = np.sort(elements[:, LOCAL_EDGES[2]], axis=2).reshape(-1, 2)
        edges, inverse, counts = _unique_tuples(pairs, len(vertices))
        mid = 0.5 * (vertices[edges[:, 0]] + vertices[edges[:, 1]])
        boundary = counts == 1  # boundary edge: project midpoint onto the circle
        mid[boundary] /= _norms(mid[boundary])[:, None]
        a, b, c = elements.T
        mab, mac, mbc = (len(vertices) + inverse.reshape(-1, 3)).T
        elements = np.column_stack([a, mab, mac, b, mbc, mab, c, mac, mbc,
                                    mab, mbc, mac]).reshape(-1, 3)
        vertices = np.vstack([vertices, mid])

    sides = n_boundary * 2**n_refine
    area = 0.5 * sides * math.sin(2 * math.pi / sides)
    return Mesh(2, vertices, elements, area)
