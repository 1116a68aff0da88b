"""Global conforming finite element spaces and their element map.

Two kinds are provided: the scalar space S_p (continuous, H1-conforming)
and the vector space BDM_p = P_p^2 per element (normal-trace continuous,
H(div)-conforming).  In 1D, H(div) coincides with H1 and the scalar space
is the flux space (the normal trace at an endpoint is +/- the point
value), so ``build_hdiv_space`` returns S_p on an interval mesh: every
caller builds its flux space the same way in 1D and 2D.  The reference
geometry (local edges, edge normals and lengths, the map onto a local
edge) comes from ``mesh``; this module only numbers and maps.

Both kinds are numbered by one routine, ``FunctionSpace(mesh, basis)``,
from the layout the basis states in ``dof_classes`` (vertex functions,
one block per local edge, the interior last) and the global edges of
the mesh (``mesh.elem_edges``): vertex dofs by vertex id, then one block
per global edge, then one contiguous block per element interior.

Every space reads its reference tables from one basis, shared by all
spaces of its kind and degree: S_p holds the scalar basis of
``make_scalar_basis(d, p)``, BDM_p one ``BdmBasis`` per p whose tables
derive from that same scalar basis.  Both answer
``eval_with_grad(points)`` with the values and first derivatives
(gradients for S_p, divergences for BDM_p), computed on every call.
The tables are kept in one place, a bounded, thread-safe
``functools.lru_cache`` per (basis, point set), read through
:func:`reference_tables`: each entry is built at once and holds the
read-only value and derivative tables and the joined [value |
derivative] table that fields multiply; BDM_p reads its scalar tables
through it too.

Every field keeps a component axis.  A basis gives its reference tables
as (points, basis, A) arrays of the A reference components of every
function (:func:`reference_tables`), and each kind defines once, in
:func:`element_maps`, the per-element (..., c, A) maps to the c physical
components, read by :func:`push_forward` and by assembly; the inverse is
:func:`pull_back`.  A field is evaluated by one call per space: its
signed local coefficients are gathered once and multiplied by the
kept joined [value | derivative] table of its basis, and each half of
the product is mapped afterwards by broadcast products per component,
with no per-element matrix product.  The two evaluators are
views of that one path: ``scalar_eval`` and ``vector_eval`` return the
values, or with ``with_derivative`` the values and the derivatives.
H1 values are unchanged and gradients map by A^{-T}; H(div) fields map
by the contravariant Piola transform

    phi(F(x)) = A phi_hat(x) / det A,   div phi o F = div_hat phi_hat / det A.

Inter-element continuity is handled through per-element sign tables:
each basis states in ``edge_dof_signs`` the sign of every edge function
on a kept and on a reversed local edge, and ``FunctionSpace`` picks one
by ``mesh.elem_edge_reversed`` (vertex ids; det A > 0 on every element).
"""

from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre as npleg

from .mesh import LOCAL_EDGES, REF_EDGE_LENGTHS, REF_EDGE_NORMALS, REFERENCE_VERTICES
from .mesh import local_simplex_points
from .polyquad import _read_only, gauss01, make_scalar_basis

KIND_H1 = "scalar-h1"
KIND_HDIV = "vector-hdiv"


class BdmBasis:
    """Reference basis of P_p^2 adapted to normal-trace moments.

    The first 3(p+1) functions carry one unit Legendre moment of the
    normal trace on one edge each and zero moments on the others; the
    remaining (p+1)(p-1) span the subspace with vanishing normal trace.
    ``dof_classes`` says so in the layout of ``ScalarBasis``: no vertex
    functions, one block of p+1 per local edge, the interior last.
    ``edge_dof_signs`` (2, 3, p+1), as in ``ScalarBasis``, holds s_l and
    -s_l (-1)^m, with s_l = +/-1 read off the reference triangle.
    Built numerically: the moment map is assembled on the vector-valued
    hierarchical basis, edge functions are its pseudo-inverse columns and
    interior functions an orthonormal basis of its null space.  The
    read-only ``coeffs`` (2 ns, dim) hold the x and y scalar coefficients
    of every function; the tables derive from the kept tables of the
    shared scalar basis (:func:`reference_tables`).
    """

    def __init__(self, p):
        self.p = p
        self.scalar = make_scalar_basis(2, p)
        self.dim = 2 * self.scalar.dim
        self.dof_classes = {
            "vertex": [],
            "edge": [list(range(l * (p + 1), (l + 1) * (p + 1))) for l in range(3)],
            "interior": list(range(3 * (p + 1), self.dim)),
        }

        t, w = gauss01(p + 2)
        legv = npleg.legvander(2 * t - 1, p)
        rows = []
        for l, edge in enumerate(LOCAL_EDGES[2]):
            sv = self.scalar.eval(local_simplex_points(2, edge, t[:, None]))
            n_hat = REF_EDGE_NORMALS[l]
            normal_comp = np.concatenate([sv * n_hat[0], sv * n_hat[1]], axis=1)
            rows += [REF_EDGE_LENGTHS[l] * np.einsum("q,q,qj->j", w, legv[:, m], normal_comp)
                     for m in range(p + 1)]
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
        if not np.allclose(T @ self.coeffs, np.eye(*T.shape), atol=1e-9):
            raise RuntimeError(f"BDM dual basis construction failed for p={p}")
        # s_l: the outward normal of local edge (i, j) against the clockwise
        # turn of v_j - v_i, kept on every element by det A > 0; reversing the
        # edge negates that turn and multiplies P_m(2t - 1) by (-1)^m
        i, j = np.array(LOCAL_EDGES[2]).T
        turn = (REFERENCE_VERTICES[2][j] - REFERENCE_VERTICES[2][i])[:, ::-1] * [1.0, -1.0]
        s = np.sign(np.sum(REF_EDGE_NORMALS * turn, axis=1))[:, None]
        self.edge_dof_signs = np.array([np.tile(s, p + 1), -s * (-1.0) ** np.arange(p + 1)])
        _read_only(self.coeffs, self.edge_dof_signs)

    def eval(self, points):
        """Vector basis values; shape (n_points, dim, 2)."""
        return self.eval_with_grad(points)[0]

    def eval_with_grad(self, points):
        """(values (n_points, dim, 2), divergences (n_points, dim)) on the
        reference element."""
        sv, sg = reference_tables(self.scalar, points)
        cx, cy = np.split(self.coeffs, 2)
        sv = sv[..., 0]
        return np.stack([sv @ cx, sv @ cy], axis=-1), sg[:, :, 0] @ cx + sg[:, :, 1] @ cy


_bdm_basis = cache(BdmBasis)


class FunctionSpace:
    """Global conforming space over a mesh, numbered from
    ``basis.dof_classes`` alone (see the module docstring).

    ``elem_dofs``/``elem_signs`` (E, local dim) map local basis indices to
    (global dof, orientation sign) per element.  An edge function takes
    the sign that ``basis.edge_dof_signs`` states for a kept or a
    reversed local edge (``mesh.elem_edge_reversed``).  ``kind`` and
    ``p`` come from the shared ``basis`` (``ScalarBasis`` for S_p,
    ``BdmBasis`` for BDM_p).  Immutable after construction.
    """

    def __init__(self, mesh, basis):
        self.kind = KIND_HDIV if isinstance(basis, BdmBasis) else KIND_H1
        self.mesh = mesh
        self.p = basis.p
        self.basis = basis
        classes = basis.dof_classes
        ne, nv = len(mesh.elements), len(classes["vertex"])
        n, ni = len(classes["edge"][0]), len(classes["interior"])
        first_edge = len(mesh.vertices) if nv else 0
        first_int = first_edge + mesh.n_edges * n
        self.n_dofs = first_int + ne * ni
        kept, reversed_ = basis.edge_dof_signs
        signs = np.where(mesh.elem_edge_reversed[:, :, None], reversed_, kept).reshape(ne, -1)
        # columns in the local order of dof_classes: vertices, edges, interior
        edge_dofs = first_edge + mesh.elem_edges[:, :, None] * n + np.arange(n)
        self.elem_dofs = np.hstack([mesh.elements[:, :nv], edge_dofs.reshape(ne, -1),
                                    np.arange(first_int, self.n_dofs).reshape(ne, ni)])
        self.elem_signs = np.hstack([np.ones((ne, nv)), signs, np.ones((ne, ni))])
        _read_only(self.elem_dofs, self.elem_signs)

    def local_dim(self):
        return self.elem_dofs.shape[1]


def build_h1_space(mesh, p):
    """Continuous scalar space S_p over the mesh."""
    return FunctionSpace(mesh, make_scalar_basis(mesh.dim, p))


def build_hdiv_space(mesh, p):
    """Flux space over the mesh: BDM_p (p+1 normal moments per edge) on a
    2D mesh, S_p on an interval mesh, where H(div) = H1."""
    if mesh.dim == 1:
        return build_h1_space(mesh, p)
    return FunctionSpace(mesh, _bdm_basis(p))


# -- the element map and field evaluation.  ``elem`` is one element index
# or an int array of them, which adds a leading element axis.


# (basis, point set) pairs whose tables are kept: the benchmark's warm-up
# case and its four workloads, run in one process in that order, read 18,
# 57, 75, 85 and 85 and evict none; the 85 joined tables are 0.62 of
# the 0.94 MiB kept
_TABLE_CACHE_SIZE = 128


class _KeptEntry(NamedTuple):
    """One entry of the table cache: the read-only ``values`` and
    ``derivatives`` of a basis at a point set (:func:`reference_tables`),
    and the complex ``joined`` table (m, q, A + A') that :func:`_field`
    multiplies, per function and point the A value components and then
    the A' derivative ones.  All three are built with the entry."""

    values: np.ndarray
    derivatives: np.ndarray
    joined: np.ndarray


@lru_cache(_TABLE_CACHE_SIZE)
def _kept_tables(shape, data, basis):
    """One entry of the table cache; see :func:`_tables`."""
    values, derivatives = (t if t.ndim == 3 else t[..., None]
                           for t in basis.eval_with_grad(np.frombuffer(data).reshape(shape)))
    joined = np.concatenate([values, derivatives], axis=2).transpose(1, 0, 2)
    return _KeptEntry(*_read_only(values, derivatives, joined.astype(complex, order="C")))


def _tables(basis, points):
    """The kept tables (:class:`_KeptEntry`) of ``basis`` at ``points``.
    A repeat call with points of the same shape and bytes returns the
    same entry while it is kept."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _kept_tables(pts.shape, pts.tobytes(), basis)


def reference_tables(basis, points):
    """Reference (values, first derivatives) of ``basis`` at ``points``,
    each of shape (points, basis, A): the A reference components of every
    function (A = 1 for a scalar field).  Read-only, and built once per
    (basis, point set) while the entry is kept (:func:`_tables`)."""
    return _tables(basis, points)[:2]


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
    det A A^{-1} J A of phi_hat from the Jacobians J (..., n, d, d) of phi
    (chain rule): entry (i, l) is sum_jk m_ij J_jk A_kl with
    m = det A A^{-1}, so the flattened J is mapped by :func:`_map` under
    the per-element products m_ij A_kl."""
    m = np.asarray(mesh.det_A[elem])[..., None, None] * mesh.inv_A[elem]
    if jacobian:
        d = m.shape[-1]
        a_t = np.swapaxes(mesh.maps_A[elem], -1, -2)
        maps = (m[..., :, None, :, None] * a_t[..., None, :, None, :]).reshape(
            m.shape[:-2] + (d * d, d * d))
        return _map(maps, field.reshape(field.shape[:-2] + (d * d,))).reshape(field.shape)
    return field @ np.swapaxes(m, -1, -2)


def check_flux_space(space):
    """Reject a flux space of the wrong kind: BDM_p in 2D, S_p in 1D."""
    if space.kind != (KIND_HDIV if space.mesh.dim == 2 else KIND_H1):
        raise ValueError(f"{space.kind} is not a flux space on a "
                         f"{space.mesh.dim}D mesh (BDM_p in 2D, S_p in 1D)")


def _field(space, coeffs, elem, ref_points):
    """Physical (values (..., q, c), first derivatives (..., q, c')) of a
    field.  Its signed local coefficients (..., m) are gathered once and
    multiplied by the kept joined table of its basis (:func:`_tables`) in
    one matrix product; each half is then mapped by :func:`element_maps`."""
    table = _tables(space.basis, ref_points).joined
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


def _scatter_local(space, local):
    """Global coefficients from per-element ones (columns of ``local``);
    shared dofs take the value of the last element that holds them."""
    coeffs = np.zeros(space.n_dofs, dtype=complex)
    coeffs[space.elem_dofs] = space.elem_signs * local.T
    return coeffs
