"""Global conforming finite element spaces and their element map.

Two kinds are provided: the scalar space S_p (continuous, H1-conforming)
and the vector space BDM_p = P_p^2 per element (normal-trace continuous,
H(div)-conforming).  In 1D, H(div) coincides with H1 and the scalar space
doubles as the flux space (the normal trace at an endpoint is +/- the
point value), so ``build_hdiv_space`` is reserved for 2D meshes.

Fields move between the reference element and the physical one through
one map, :func:`push_forward` and its inverse :func:`pull_back`; a field
is evaluated by contracting its local coefficients with the reference
table first and mapping the result afterwards.  H1 values are unchanged
and gradients map by A^{-T}; H(div) fields map by the contravariant
Piola transform

    phi(F(x)) = A phi_hat(x) / det A,   div phi o F = div_hat phi_hat / det A.

Inter-element continuity is handled through per-element sign tables: an
edge function whose Legendre kernel has odd degree flips sign when the
local edge direction disagrees with the global one (ascending vertex
index), and a normal-trace dof additionally flips with the orientation
of the global facet normal.
"""

import numpy as np
from numpy.polynomial import legendre as npleg

from .mesh import REFERENCE_VERTICES, element_map_apply
from .polyquad import ScalarBasis, gauss01, make_scalar_basis

KIND_H1 = "scalar-h1"
KIND_HDIV = "vector-hdiv"

# outward unit normals of the reference triangle edges (0,1), (0,2), (1,2)
REF_EDGE_NORMALS = np.array([
    [0.0, -1.0],
    [-1.0, 0.0],
    [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
])
REF_EDGE_LENGTHS = np.array([1.0, 1.0, np.sqrt(2.0)])


def edge_reference_points(local_edge, t):
    """Reference coordinates on a local triangle edge at parameters t."""
    i, j = ScalarBasis.EDGES[local_edge]
    a, b = REFERENCE_VERTICES[2][i], REFERENCE_VERTICES[2][j]
    t = np.asarray(t, dtype=float)
    return a[None, :] * (1 - t)[:, None] + b[None, :] * t[:, None]


class BdmBasis:
    """Reference basis of P_p^2 adapted to normal-trace moments.

    The first 3(p+1) functions carry one unit Legendre moment of the
    normal trace on one edge each and zero moments on the others; the
    remaining (p+1)(p-1) span the subspace with vanishing normal trace.
    Built numerically: the moment map is assembled on the vector-valued
    hierarchical basis, edge functions are its pseudo-inverse columns and
    interior functions an orthonormal basis of its null space.
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
        _, s, vh = np.linalg.svd(T)
        null_cols = vh[len(s):].T
        self.coeffs = np.hstack([edge_cols, null_cols])
        # sanity: the dual pairing must come out as the identity
        check = T @ self.coeffs
        target = np.zeros_like(check)
        target[:, : T.shape[0]] = np.eye(T.shape[0])
        if not np.allclose(check, target, atol=1e-9):
            raise RuntimeError(f"BDM dual basis construction failed for p={p}")

    def eval(self, points):
        """Vector basis values; shape (n_points, dim, 2)."""
        sv = self.scalar.eval(points)
        ns = self.scalar.dim
        return np.stack([sv @ self.coeffs[:ns], sv @ self.coeffs[ns:]], axis=-1)

    def div(self, points):
        """Reference divergences; shape (n_points, dim)."""
        sg = self.scalar.grad(points)
        ns = self.scalar.dim
        return sg[:, :, 0] @ self.coeffs[:ns] + sg[:, :, 1] @ self.coeffs[ns:]


class FunctionSpace:
    """Global conforming space over a mesh.

    ``elem_dofs``/``elem_signs`` (E, local dim) map local basis indices to
    (global dof, orientation sign) per element.  Global dofs are numbered
    by entity: vertices (S_p only, by vertex id), then facets (a block per
    facet, in facet order), then element interiors (a contiguous block per
    element, in element order).  Immutable after construction.
    """

    def __init__(self, kind, mesh, p, n_dofs, elem_dofs, elem_signs, basis,
                 bdm=None):
        self.kind = kind
        self.mesh = mesh
        self.p = p
        self.n_dofs = n_dofs
        self.elem_dofs = elem_dofs
        self.elem_signs = elem_signs
        self.basis = basis
        self.bdm = bdm
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
    i, j = np.array(ScalarBasis.EDGES).T
    reversed_ = mesh.elements[:, i] > mesh.elements[:, j]
    return np.where(reversed_[:, :, None], (-1.0) ** np.arange(n_per_edge), 1.0)


def build_h1_space(mesh, p):
    """Continuous scalar space S_p over the mesh."""
    basis = make_scalar_basis(mesh.dim, p)
    nv = len(mesh.vertices)
    ne = len(mesh.elements)
    if mesh.dim == 1:
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
    """BDM_p space over a 2D mesh (p+1 normal moments per edge)."""
    if mesh.dim != 2:
        raise ValueError(
            "build_hdiv_space requires a 2D mesh; in 1D the scalar space "
            "doubles as the flux space (use build_h1_space)"
        )
    if p < 1:
        raise ValueError("degree p must be at least 1")
    bdm = BdmBasis(p)
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
    return FunctionSpace(KIND_HDIV, mesh, p, n_dofs, elem_dofs, elem_signs,
                         bdm.scalar, bdm=bdm)


# -- the element map and field evaluation.  ``elem`` is one element index
# or an int array of them, which adds a leading element axis to a field;
# a unit leading axis instead holds a reference table shared by all.


def _matvec(m, v):
    """Vectors (last axis) of ``v`` mapped by per-element matrices ``m``."""
    if m.ndim == 3 and len(v) == 1:  # one BLAS product maps the table
        mv = np.tensordot(m, v[0], axes=(2, -1))
        return mv.transpose(0, *range(2, mv.ndim), 1)
    return v @ np.swapaxes(m, -1, -2)


def push_forward(space, elem, field, derivative=False):
    """Physical values (or first derivatives) of ``space`` on ``elem``
    from reference ones.  H1: u is unchanged, grad u = A^{-T} grad_hat u.
    H(div), by the contravariant Piola map: phi = A phi_hat / det A and
    div phi = div_hat phi_hat / det A."""
    mesh = space.mesh
    if space.kind == KIND_H1:
        inv_t = np.swapaxes(mesh.inv_A[elem], -1, -2)
        return _matvec(inv_t, field) if derivative else field
    det = np.asarray(mesh.det_A[elem])
    if derivative:
        return field / det.reshape(det.shape + (1,) * (field.ndim - det.ndim))
    return _matvec(mesh.maps_A[elem] / det[..., None, None], field)


def pull_back(mesh, elem, field, jacobian=False):
    """Reference H(div) values phi_hat = det A A^{-1} (phi o F) on ``elem``
    from physical ones; with ``jacobian``, the reference Jacobians
    det A A^{-1} J A of phi_hat from the Jacobians J of phi (chain rule)."""
    m = np.asarray(mesh.det_A[elem])[..., None, None] * mesh.inv_A[elem]
    if jacobian:
        return np.einsum("...ij,...njk,...kl->...nil", m, field, mesh.maps_A[elem],
                         optimize=True)
    return _matvec(m, field)


def basis_tables(space, elems, ref):
    """Physical values and first derivatives of the basis on every element
    of ``elems``, without orientation signs, for assembly: H1 (u, grad u)
    of shapes (E, 1, q, n) and (E, d, q, n), H(div) (phi, div phi) of
    shapes (E, d, q, n) and (E, 1, q, n); in 1D the H1 pair doubles as
    the flux pair."""
    if space.kind == KIND_HDIV:
        tables = space.bdm.eval(ref), space.bdm.div(ref)
    else:
        tables = space.basis.eval_with_grad(ref)
    out = []
    for t, derivative in zip(tables, (False, True)):
        t = push_forward(space, elems, t[None], derivative)
        t = t[:, None] if t.ndim == 3 else t.transpose(0, 3, 1, 2)
        out.append(np.broadcast_to(t, (len(elems),) + t.shape[1:]))
    return tuple(out)


def check_flux_space(space):
    """Reject a flux space of the wrong kind: BDM_p in 2D, S_p in 1D."""
    if space.kind != (KIND_HDIV if space.mesh.dim == 2 else KIND_H1):
        raise ValueError(f"{space.kind} is not a flux space on a "
                         f"{space.mesh.dim}D mesh (BDM_p in 2D, S_p in 1D)")


def local_coeffs(space, coeffs, elem):
    """Element coefficients (orientation signs applied)."""
    return space.elem_signs[elem] * coeffs[space.elem_dofs[elem]]


def _combine(table, lc):
    """Fields sum_i lc_i table[:, i] of (points, basis, d) reference tables."""
    return np.tensordot(lc, table, axes=(-1, 1))


def scalar_eval(space, coeffs, elem, ref_points):
    values = local_coeffs(space, coeffs, elem) @ space.basis.eval(ref_points).T
    return push_forward(space, elem, values)


def scalar_grad_eval(space, coeffs, elem, ref_points):
    """Physical gradients of a scalar field."""
    g_ref = _combine(space.basis.grad(ref_points), local_coeffs(space, coeffs, elem))
    return push_forward(space, elem, g_ref, derivative=True)


def vector_eval(space, coeffs, elem, ref_points):
    """Physical values of a flux field (S_p is the flux space in 1D)."""
    check_flux_space(space)
    if space.kind == KIND_H1:
        return scalar_eval(space, coeffs, elem, ref_points)[..., None]
    vals = _combine(space.bdm.eval(ref_points), local_coeffs(space, coeffs, elem))
    return push_forward(space, elem, vals)


def vector_div_eval(space, coeffs, elem, ref_points):
    """Physical divergence of a flux field."""
    check_flux_space(space)
    if space.kind == KIND_H1:
        return scalar_grad_eval(space, coeffs, elem, ref_points)[..., 0]
    div = local_coeffs(space, coeffs, elem) @ space.bdm.div(ref_points).T
    return push_forward(space, elem, div, derivative=True)


# -- polynomial interpolation helpers (exact on per-element polynomials)


def _lattice(d, q):
    if d == 1:
        return np.linspace(0.0, 1.0, q + 1)[:, None]
    pts = [(i / q, j / q) for j in range(q + 1) for i in range(q + 1 - j)]
    return np.array(pts)


def _lattice_values(space, fn):
    """Reference lattice, its Vandermonde matrix and ``fn`` on every
    element's image of the lattice, shape (elements, points, ...)."""
    mesh = space.mesh
    pts_ref = _lattice(mesh.dim, space.p)
    phys = element_map_apply(mesh, np.arange(len(mesh.elements)), pts_ref)
    vals = np.asarray(fn(phys.reshape(-1, mesh.dim)), dtype=complex)
    return space.basis.eval(pts_ref), vals.reshape(phys.shape[:2] + vals.shape[1:])


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
    V, vals = _lattice_values(space, u)
    return _scatter_local(space, np.linalg.solve(V, vals.T))


def interpolate_hdiv_polynomial(space, phi):
    """BDM coefficients representing ``phi`` exactly when phi|_K is in P_p^2.

    ``phi`` maps physical points (n, 2) to values (n, 2).  The field is
    pulled back by the Piola transform and matched on a lattice.
    """
    if space.kind != KIND_HDIV:
        raise ValueError("expected a vector-hdiv space")
    V, vals = _lattice_values(space, phi)
    pulled = pull_back(space.mesh, np.arange(len(vals)), vals)
    # scalar coefficients of both components, stacked as in bdm.coeffs
    comp = np.linalg.solve(V, pulled.transpose(2, 1, 0)).reshape(2 * len(V), -1)
    return _scatter_local(space, np.linalg.solve(space.bdm.coeffs, comp))
