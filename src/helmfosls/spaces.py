"""Global conforming finite element spaces and their element map.

Two kinds are provided: the scalar space S_p (continuous, H1-conforming)
and the vector space BDM_p = P_p^2 per element (normal-trace continuous,
H(div)-conforming).  In 1D, H(div) coincides with H1 and the scalar space
is the flux space (the normal trace at an endpoint is +/- the point
value), so ``build_hdiv_space`` returns S_p on an interval mesh: every
caller builds its flux space the same way in 1D and 2D.  Local edges,
reference vertices and the reference-edge map (:func:`edge_reference_points`)
come from the reference simplex of ``mesh``.

Every space reads its reference tables from one basis, shared by all
spaces of its kind and degree: S_p holds the scalar basis of
``make_scalar_basis(d, p)``, BDM_p one ``BdmBasis`` per p whose tables
derive from that same scalar basis.  Both answer
``eval_with_grad(points)`` with the values and first derivatives
(gradients for S_p, divergences for BDM_p), read-only and kept per point
set.

Every field keeps a component axis.  A basis gives its reference tables
as (points, basis, A) arrays of the A reference components of every
function (:func:`reference_tables`), and each kind defines once, in
:func:`element_maps`, the per-element (..., c, A) maps to the c physical
components, read by :func:`push_forward` and by assembly; the inverse is
:func:`pull_back`.  A field is evaluated by one call per space: its
signed local coefficients are gathered once and multiplied by one
cached joined [value | derivative] table (:func:`_field_table`), and
each half of the product is mapped afterwards by broadcast products per
component, with no per-element matrix product.  The two evaluators are
views of that one path: ``scalar_eval`` and ``vector_eval`` return the
values, or with ``with_derivative`` the values and the derivatives.
H1 values are unchanged and gradients map by A^{-T}; H(div) fields map
by the contravariant Piola transform

    phi(F(x)) = A phi_hat(x) / det A,   div phi o F = div_hat phi_hat / det A.

Inter-element continuity is handled through per-element sign tables: an
edge function whose Legendre kernel has odd degree flips sign when the
local edge direction disagrees with the global one (ascending vertex
index), and a normal-trace dof additionally flips with the orientation
of the global facet normal.
"""

import itertools
from functools import cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .mesh import LOCAL_EDGES, REFERENCE_VERTICES, element_map_apply
from .polyquad import _read_only, cache_per_point_set, gauss01, make_scalar_basis

KIND_H1 = "scalar-h1"
KIND_HDIV = "vector-hdiv"

# outward unit normals of the reference triangle edges (0,1), (0,2), (1,2)
REF_EDGE_NORMALS = np.array([
    [0.0, -1.0],
    [-1.0, 0.0],
    [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
])
REF_EDGE_LENGTHS = np.array([1.0, 1.0, np.sqrt(2.0)])


def edge_reference_points(local_edge, t, d=2):
    """Reference coordinates a (1 - t) + b t on the local edge (a, b) of
    the reference d-simplex (``LOCAL_EDGES[d]``) at parameters t."""
    i, j = LOCAL_EDGES[d][local_edge]
    a, b = REFERENCE_VERTICES[d][i], REFERENCE_VERTICES[d][j]
    t = np.asarray(t, dtype=float)
    return a[None, :] * (1 - t)[:, None] + b[None, :] * t[:, None]


class BdmBasis:
    """Reference basis of P_p^2 adapted to normal-trace moments.

    The first 3(p+1) functions carry one unit Legendre moment of the
    normal trace on one edge each and zero moments on the others; the
    remaining (p+1)(p-1) span the subspace with vanishing normal trace.
    Built numerically: the moment map is assembled on the vector-valued
    hierarchical basis, edge functions are its pseudo-inverse columns and
    interior functions an orthonormal basis of its null space.  The
    read-only ``coeffs`` (2 ns, dim) hold the x and y scalar coefficients
    of every function; the tables come from the shared scalar basis.
    """

    def __init__(self, p):
        self.p = p
        self.scalar = make_scalar_basis(2, p)
        ns = self.scalar.dim
        self.dim = 2 * ns
        self.n_edge = p + 1
        self.n_interior = (p + 1) * (p - 1)

        t, w = gauss01(p + 2)
        legv = npleg.legvander(2 * t - 1, p)
        rows = []
        for l in range(3):
            pts = edge_reference_points(l, t)
            sv = self.scalar.eval(pts)
            n_hat = REF_EDGE_NORMALS[l]
            normal_comp = np.concatenate([sv * n_hat[0], sv * n_hat[1]], axis=1)
            for m in range(p + 1):
                rows.append(
                    REF_EDGE_LENGTHS[l]
                    * np.einsum("q,q,qj->j", w, legv[:, m], normal_comp)
                )
        T = np.array(rows)
        edge_cols = np.linalg.pinv(T)
        # the interior functions are whatever orthonormal basis of null(T)
        # LAPACK's SVD returns: one ulp of change in the scalar tables can
        # rotate it, which changes the interior coefficients of every BDM
        # field but not the fields (the span of the basis is fixed)
        _, s, vh = np.linalg.svd(T)
        null_cols = vh[len(s):].T
        self.coeffs = np.hstack([edge_cols, null_cols])
        # sanity: the dual pairing must come out as the identity
        check = T @ self.coeffs
        target = np.zeros_like(check)
        target[:, : T.shape[0]] = np.eye(T.shape[0])
        if not np.allclose(check, target, atol=1e-9):
            raise RuntimeError(f"BDM dual basis construction failed for p={p}")
        _read_only(self.coeffs)
        self._tables = cache_per_point_set(lambda pts: self._eval(pts))

    def eval(self, points):
        """Vector basis values; shape (n_points, dim, 2)."""
        return self.eval_with_grad(points)[0]

    def eval_with_grad(self, points):
        """(values (n_points, dim, 2), divergences (n_points, dim)) on the
        reference element, read-only and kept per point set like the
        scalar tables they derive from."""
        return self._tables(points)

    def _eval(self, points):
        sv, sg = self.scalar.eval_with_grad(points)
        cx, cy = np.split(self.coeffs, 2)
        return np.stack([sv @ cx, sv @ cy], axis=-1), sg[:, :, 0] @ cx + sg[:, :, 1] @ cy


_bdm_basis = cache(BdmBasis)


class FunctionSpace:
    """Global conforming space over a mesh.

    ``elem_dofs``/``elem_signs`` (E, local dim) map local basis indices to
    (global dof, orientation sign) per element.  Global dofs are numbered
    by entity: vertices (S_p only, by vertex id), then facets (a block per
    facet, in facet order), then element interiors (a contiguous block per
    element, in element order).  ``basis`` is the shared reference basis
    (``ScalarBasis`` for S_p, ``BdmBasis`` for BDM_p).  Immutable after
    construction.
    """

    def __init__(self, kind, mesh, p, n_dofs, elem_dofs, elem_signs, basis):
        self.kind = kind
        self.mesh = mesh
        self.p = p
        self.n_dofs = n_dofs
        self.elem_dofs = elem_dofs
        self.elem_signs = elem_signs
        self.basis = basis
        self.elem_dofs.flags.writeable = False
        self.elem_signs.flags.writeable = False

    def local_dim(self):
        return self.elem_dofs.shape[1]


def _interior_dofs(offset, n_elems, n_per_elem):
    """(E, n) dofs of element interiors: one contiguous block per element."""
    return offset + np.arange(n_elems * n_per_elem).reshape(n_elems, n_per_elem)


def _edge_dofs(mesh, offset, n_per_edge):
    """(E, 3 n) dofs of the three local edges: the block of each edge's facet."""
    dofs = offset + mesh.elem_facets[:, :, None] * n_per_edge + np.arange(n_per_edge)
    return dofs.reshape(len(dofs), -1)


def _edge_parity(mesh, n_per_edge):
    """(E, 3, n) signs (-1)^m of the m-th Legendre kernel on local edges
    whose direction opposes the global one (ascending vertex index)."""
    i, j = np.array(LOCAL_EDGES[mesh.dim]).T
    reversed_ = mesh.elements[:, i] > mesh.elements[:, j]
    return np.where(reversed_[:, :, None], (-1.0) ** np.arange(n_per_edge), 1.0)


def build_h1_space(mesh, p):
    """Continuous scalar space S_p over the mesh."""
    basis = make_scalar_basis(mesh.dim, p)
    nv = len(mesh.vertices)
    ne = len(mesh.elements)
    if mesh.dim == 1:  # the interval's one edge is the element itself
        n_dofs = nv + ne * (p - 1)
        elem_dofs = np.hstack([mesh.elements, _interior_dofs(nv, ne, p - 1)])
        elem_signs = np.ones((ne, basis.dim))
        return FunctionSpace(KIND_H1, mesh, p, n_dofs, elem_dofs, elem_signs, basis)

    n_edge = p - 1
    n_int = (p - 1) * (p - 2) // 2
    n_edge_dofs = len(mesh.facet_vertices) * n_edge
    n_dofs = nv + n_edge_dofs + ne * n_int
    elem_dofs = np.hstack([mesh.elements, _edge_dofs(mesh, nv, n_edge),
                           _interior_dofs(nv + n_edge_dofs, ne, n_int)])
    elem_signs = np.hstack([np.ones((ne, 3)), _edge_parity(mesh, n_edge).reshape(ne, -1),
                            np.ones((ne, n_int))])
    return FunctionSpace(KIND_H1, mesh, p, n_dofs, elem_dofs, elem_signs, basis)


def build_hdiv_space(mesh, p):
    """Flux space over the mesh: BDM_p (p+1 normal moments per edge) on a
    2D mesh, S_p on an interval mesh, where H(div) = H1."""
    if mesh.dim == 1:
        return build_h1_space(mesh, p)
    if p < 1:
        raise ValueError("degree p must be at least 1")
    bdm = _bdm_basis(p)
    ne = len(mesh.elements)
    nle = bdm.n_edge
    n_edge_dofs = len(mesh.facet_vertices) * nle
    n_dofs = n_edge_dofs + ne * bdm.n_interior

    # normal-trace dofs are oriented by a canonical per-facet normal built
    # from vertex ids alone (rotate the ascending-vertex tangent), so the
    # numbering and signs do not depend on the element ordering
    corners = mesh.vertices[mesh.facet_vertices]
    canon = (corners[:, 1] - corners[:, 0])[:, ::-1] * [1.0, -1.0]
    canon_match = np.where(np.einsum("fd,fd->f", mesh.facet_normals, canon) > 0, 1.0, -1.0)
    sigma = mesh.elem_facet_signs * canon_match[mesh.elem_facets]

    elem_dofs = np.hstack([_edge_dofs(mesh, 0, nle),
                           _interior_dofs(n_edge_dofs, ne, bdm.n_interior)])
    elem_signs = np.hstack([(sigma[:, :, None] * _edge_parity(mesh, nle)).reshape(ne, -1),
                            np.ones((ne, bdm.n_interior))])
    return FunctionSpace(KIND_HDIV, mesh, p, n_dofs, elem_dofs, elem_signs, bdm)


# -- the element map and field evaluation.  ``elem`` is one element index
# or an int array of them, which adds a leading element axis.


def reference_tables(basis, points):
    """Reference (values, first derivatives) of ``basis`` at ``points``,
    each of shape (points, basis, A): the A reference components of every
    function (A = 1 for a scalar field)."""
    return tuple(t if t.ndim == 3 else t[..., None] for t in basis.eval_with_grad(points))


def element_maps(space, elem):
    """Per-element maps (values, first derivatives) of ``space`` on
    ``elem``: (..., c, A) matrices from the A reference components of a
    field (:func:`reference_tables`) to its c physical ones.  H1: values
    1, gradients A^{-T}.  H(div), by the contravariant Piola map: values
    A / det A, divergences 1 / det A."""
    mesh = space.mesh
    det = np.asarray(mesh.det_A[elem])[..., None, None]
    if space.kind == KIND_H1:
        return np.ones_like(det), np.swapaxes(mesh.inv_A[elem], -1, -2)
    return mesh.maps_A[elem] / det, 1.0 / det


def _map(maps, field):
    """Physical components (..., q, c) of a field (..., q, A) under
    per-element maps (..., c, A): one broadcast product per pair of
    components, where numpy's stacked matmul would call BLAS once per
    element."""
    c, a = maps.shape[-2:]
    out = np.empty(field.shape[:-1] + (c,), np.result_type(field, maps))
    for i in range(c):
        np.multiply(field[..., 0], maps[..., None, i, 0], out=out[..., i])
        for j in range(1, a):
            out[..., i] += field[..., j] * maps[..., None, i, j]
    return out


def push_forward(space, elem, field, derivative=False):
    """Physical components (..., c) of the values (or first derivatives)
    of ``space`` on ``elem`` from their reference components (..., A), by
    :func:`element_maps`.  A scalar field has one component."""
    return _map(element_maps(space, elem)[derivative], field)


def pull_back(mesh, elem, field, jacobian=False):
    """Reference H(div) values phi_hat = det A A^{-1} (phi o F) on ``elem``
    from physical ones; with ``jacobian``, the reference Jacobians
    det A A^{-1} J A of phi_hat from the Jacobians J of phi (chain rule)."""
    m = np.asarray(mesh.det_A[elem])[..., None, None] * mesh.inv_A[elem]
    if jacobian:
        return np.einsum("...ij,...njk,...kl->...nil", m, field, mesh.maps_A[elem],
                         optimize=True)
    return field @ np.swapaxes(m, -1, -2)


def check_flux_space(space):
    """Reject a flux space of the wrong kind: BDM_p in 2D, S_p in 1D."""
    if space.kind != (KIND_HDIV if space.mesh.dim == 2 else KIND_H1):
        raise ValueError(f"{space.kind} is not a flux space on a "
                         f"{space.mesh.dim}D mesh (BDM_p in 2D, S_p in 1D)")


def _field_table(points, basis):
    """The joined [value | derivative] table (m, q, A + A') of ``basis``
    at ``points``: per function and point, the A reference components of
    its value and then the A' of its first derivative
    (:func:`reference_tables`), complex, so that coefficients multiply it
    without a cast."""
    vals, ders = reference_tables(basis, points)
    return (np.concatenate([vals, ders], axis=2).transpose(1, 0, 2).astype(complex, order="C"),)


# joined tables kept per (point set, basis): a study evaluates a few
# bases (one per degree and kind) on about eight point sets each
_field_tables = cache_per_point_set(_field_table, 64)


def _field(space, coeffs, elem, ref_points):
    """Physical (values (..., q, c), first derivatives (..., q, c')) of a
    field.  Its signed local coefficients (..., m) are gathered once and
    multiplied by the cached joined table of :func:`_field_table` in one
    matrix product; each half is then mapped by :func:`element_maps`."""
    (table,) = _field_tables(ref_points, space.basis)
    m, q, _ = table.shape
    lc = space.elem_signs[elem] * coeffs[space.elem_dofs[elem]]
    ref = (lc @ table.reshape(m, -1)).reshape(lc.shape[:-1] + (q, -1))
    value_map, derivative_map = element_maps(space, elem)
    a = value_map.shape[-1]
    return _map(value_map, ref[..., :a]), _map(derivative_map, ref[..., a:])


def scalar_eval(space, coeffs, elem, ref_points, with_derivative=False):
    """Physical values (..., q) of a scalar field; with
    ``with_derivative``, (values, gradients (..., q, d)) from one product."""
    u, grad = _field(space, coeffs, elem, ref_points)
    return (u[..., 0], grad) if with_derivative else u[..., 0]


def vector_eval(space, coeffs, elem, ref_points, with_derivative=False):
    """Physical values (..., q, d) of a flux field (S_p is the flux space
    in 1D); with ``with_derivative``, (values, divergences (..., q)) from
    one product."""
    check_flux_space(space)
    phi, div = _field(space, coeffs, elem, ref_points)
    return (phi, div[..., 0]) if with_derivative else phi


# -- polynomial interpolation helpers (exact on per-element polynomials)


def _lattice(d, q):
    """Points (i_1, ..., i_d) / q of the reference simplex, i_1 fastest."""
    idx = [c[::-1] for c in itertools.product(range(q + 1), repeat=d) if sum(c) <= q]
    return np.array(idx) / q


def _lattice_values(mesh, basis, fn):
    """Reference lattice, the Vandermonde matrix of the scalar ``basis``
    on it and ``fn`` on every element's image of the lattice, shape
    (elements, points, ...)."""
    pts_ref = _lattice(mesh.dim, basis.p)
    phys = element_map_apply(mesh, np.arange(len(mesh.elements)), pts_ref)
    vals = np.asarray(fn(phys.reshape(-1, mesh.dim)), dtype=complex)
    return basis.eval(pts_ref), vals.reshape(phys.shape[:2] + vals.shape[1:])


def _scatter_local(space, local):
    """Global coefficients from per-element ones (columns of ``local``);
    shared dofs take the value of the last element that holds them."""
    coeffs = np.zeros(space.n_dofs, dtype=complex)
    coeffs[space.elem_dofs] = space.elem_signs * local.T
    return coeffs


def interpolate_h1_polynomial(space, u):
    """Coefficients representing ``u`` exactly when u|_K is in P_p.

    ``u`` maps physical points (n, d) to values.  Each element is fitted
    on a unisolvent lattice; for globally continuous u the element fits
    agree on shared dofs.
    """
    V, vals = _lattice_values(space.mesh, space.basis, u)
    return _scatter_local(space, np.linalg.solve(V, vals.T))


def interpolate_hdiv_polynomial(space, phi):
    """BDM coefficients representing ``phi`` exactly when phi|_K is in P_p^2.

    ``phi`` maps physical points (n, 2) to values (n, 2).  The field is
    pulled back by the Piola transform and matched on a lattice.
    """
    if space.kind != KIND_HDIV:
        raise ValueError("expected a vector-hdiv space")
    V, vals = _lattice_values(space.mesh, space.basis.scalar, phi)
    pulled = pull_back(space.mesh, np.arange(len(vals)), vals)
    # scalar coefficients of both components, stacked as in basis.coeffs
    comp = np.linalg.solve(V, pulled.transpose(2, 1, 0)).reshape(2 * len(V), -1)
    return _scatter_local(space, np.linalg.solve(space.basis.coeffs, comp))
