"""Assembly of the first-order-system least-squares (FOSLS) Helmholtz
formulation and of the classical FEM baseline.

The least-squares form on flux/potential pairs reads

    b((phi,u),(psi,v)) = (ik phi + grad u, ik psi + grad v)
                       + (ik u + div phi, ik v + div psi)
                       + k (phi.n + u, psi.n + v)_boundary,

    F((psi,v)) = (-i f / k, ik v + div psi) + (i g, psi.n + v)_boundary,

with the sesquilinear convention (a, b) = int a conj(b); conjugation of
the (real-valued) test basis is folded into the matrix rows, so the
assembled FOSLS matrix is Hermitian positive definite.  The classical
baseline assembles (grad u, grad v) - k^2 (u, v) - ik (u, v)_boundary,
which is complex symmetric but indefinite.

Degrees of freedom are blocked [flux | potential].  All elements are
affine images of one reference simplex, so assembly and the quadrature
of b work on chunks of elements at once: reference tables are mapped to
(elements, points, basis) arrays, element blocks come from batched Gram
products and are scattered through one COO index pattern.  A chunk holds
at most CHUNK_POINTS quadrature points, which bounds the memory of the
kernels whatever the mesh size.  Chunks are processed in a fixed order,
so results are deterministic and reruns are bit-identical.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .mesh import element_map_apply
from .polyquad import gauss01, simplex_quadrature
from .spaces import (
    basis_tables,
    check_flux_space,
    edge_reference_points,
    scalar_eval,
    scalar_grad_eval,
    vector_div_eval,
    vector_eval,
)

FOSLS = "fosls"
CLASSICAL_FEM = "fem"


@dataclass
class AssembledSystem:
    """Sparse complex system A x = rhs with block layout [V | W]."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    kind: str
    k: float
    v_space: Optional[object]
    w_space: object

    @property
    def n_total(self):
        return self.matrix.shape[0]

    @property
    def n_v(self):
        return self.v_space.n_dofs if self.v_space is not None else 0


@dataclass
class DiscreteSolution:
    """Coefficients of a discrete solution; phi is absent for the FEM."""

    phi_coeffs: Optional[np.ndarray]
    u_coeffs: np.ndarray
    v_space: Optional[object]
    w_space: object


def split_solution(system, x):
    """Split a solved coefficient vector into its flux/potential parts."""
    if system.kind == FOSLS:
        nv = system.n_v
        return DiscreteSolution(x[:nv], x[nv:], system.v_space, system.w_space)
    return DiscreteSolution(None, x, None, system.w_space)


# -- element and boundary groups ----------------------------------------

# quadrature points per element chunk: bounds the memory of the batched
# kernels, whose tables grow with the number of points they hold
CHUNK_POINTS = 4096


def chunks(n_items, points_per_item):
    """Consecutive slices of range(n_items), each holding at most
    CHUNK_POINTS points (but at least one item)."""
    step = max(1, CHUNK_POINTS // points_per_item)
    return [slice(i, i + step) for i in range(0, n_items, step)]


def element_groups(mesh, rule, breakpoints=()):
    """Element chunks that share one reference quadrature.

    Yields (elems, reference points, physical points (E, q, d), weights
    times det A (E, q)).  A chunk holds at most CHUNK_POINTS points (but
    at least one element).  A 1D element cut by an interior breakpoint
    forms its own group, whose rule is split into panels at the cuts so
    that discontinuous data stay exactly integrated.
    """
    cuts = {}
    if mesh.dim == 1:
        x0, lc = mesh.maps_b[:, 0], mesh.maps_A[:, 0, 0]
        for b in breakpoints:
            t = (b - x0) / lc
            for e in np.flatnonzero((0.0 < t) & (t < 1.0)):
                cuts.setdefault(e, []).append(t[e])
    plain = np.setdiff1d(np.arange(len(mesh.elements)), list(cuts))
    groups = [(plain[s], rule.points, rule.weights)
              for s in chunks(len(plain), len(rule.weights))]
    for e, ts in sorted(cuts.items()):
        edges = np.array([0.0, *sorted(ts), 1.0])
        lo, hi = edges[:-1, None], edges[1:, None]
        pts = lo + (hi - lo) * rule.points[:, 0]
        groups.append((np.array([e]), pts.reshape(-1, 1),
                       ((hi - lo) * rule.weights).ravel()))
    for elems, pts, wts in groups:
        yield (elems, pts, element_map_apply(mesh, elems, pts),
               wts * mesh.det_A[elems][:, None])


def boundary_groups(mesh, n_points):
    """Boundary facets grouped by their local index in the adjacent element.

    Yields (elems, reference points on that local facet, physical points
    (F, q, d), weights times facet measure (F, q), outward normals
    (F, d)).  In 1D a facet is a point with a single unit weight.
    """
    fids = mesh.boundary_facets
    elems = mesh.facet_elems[fids, 0]
    local = np.argmax(mesh.elem_facets[elems] == fids[:, None], axis=1)
    normals = mesh.facet_normals[fids]
    measures = mesh.facet_measures[fids]
    t, w = gauss01(n_points) if mesh.dim == 2 else (None, np.ones(1))
    for li in range(mesh.elem_facets.shape[1]):
        sel = local == li
        if not sel.any():
            continue
        ref = np.array([[float(li)]]) if mesh.dim == 1 else edge_reference_points(li, t)
        yield (elems[sel], ref, element_map_apply(mesh, elems[sel], ref),
               measures[sel, None] * w, normals[sel])


def _check_same_mesh(v_space, w_space):
    if v_space.mesh is not w_space.mesh:
        raise ValueError("flux and potential spaces live on different meshes")


# -- batched assembly ----------------------------------------------------


def _gram(wts, X, Y):
    """Element blocks sum_q wts X^T Y of real (E, c, q, n) tables."""
    Xw = (X * wts[:, None, :, None]).reshape(len(wts), -1, X.shape[-1])
    return np.swapaxes(Xw, 1, 2) @ Y.reshape(len(wts), -1, Y.shape[-1])


def _load(wts, values, X):
    """Element load vectors sum_q wts values X of real (E, q, n) tables,
    one stacked real product on the (re, im) pairs of wts values."""
    wv = (wts * values).view(float).reshape(wts.shape + (2,))
    return (np.swapaxes(X, 1, 2) @ wv).view(complex)[..., 0]


def _data(fn, phys, normals=None):
    """Problem datum at physical points (E, q, d); values (E, q)."""
    pts = phys.reshape(-1, phys.shape[-1])
    if normals is None:
        return np.asarray(fn(pts), dtype=complex).reshape(phys.shape[:2])
    nrm = np.broadcast_to(normals[:, None], phys.shape).reshape(pts.shape)
    return np.asarray(fn(pts, nrm), dtype=complex).reshape(phys.shape[:2])


def _scatter(dofs, signs, blocks, loads, n):
    """Global CSR matrix and vector from element blocks and load vectors.

    Local index i of element e is global dof ``dofs[e, i]`` with
    orientation sign ``signs[e, i]``; ``blocks`` and ``loads`` are signed
    in place, and entries on shared dofs are summed.  The COO index
    arrays are int32.
    """
    blocks *= signs[:, :, None] * signs[:, None, :]
    loads *= signs
    dofs = dofs.astype(np.int32)
    rows = np.broadcast_to(dofs[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(dofs[:, None, :], blocks.shape).ravel()
    matrix = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    rhs = np.zeros(n, dtype=complex)
    np.add.at(rhs, dofs.ravel(), loads.ravel())
    return matrix, rhs


def _ls_tables(v_space, w_space, elems, ref, k):
    """Real tables R1 = [k phi | grad u] (E, d, q, m) and
    R2 = [div phi | k u] (E, 1, q, m) of the [V | W] element basis."""
    phi, dphi = basis_tables(v_space, elems, ref)
    u, gu = basis_tables(w_space, elems, ref)
    return (np.concatenate([k * phi, gu], axis=3),
            np.concatenate([dphi, k * u], axis=3))


def assemble_fosls(v_space, w_space, problem):
    """Assemble the FOSLS system on V_h x W_h for the given problem.

    The least-squares fields of the [V | W] basis are real tables times
    one unit phase per basis function: ik phi + grad u = R1 D1 with
    D1 = diag(i on V, 1 on W), and ik u + div phi = R2 D2 with
    D2 = diag(1 on V, i on W).  So the element block
    sum_j conj(Dj) (Rj^T W Rj) Dj needs only real Gram matrices.
    """
    _check_same_mesh(v_space, w_space)
    check_flux_space(v_space)
    if problem.k <= 0:
        raise ValueError("wavenumber k must be positive")
    mesh = v_space.mesh
    k = problem.k
    p = max(v_space.p, w_space.p)
    rule = simplex_quadrature(mesh.dim, 2 * p + 2)
    rhs_rule = simplex_quadrature(mesh.dim, 2 * p + 8)

    nv = v_space.n_dofs
    dofs = np.hstack([v_space.elem_dofs, w_space.elem_dofs + nv])
    signs = np.hstack([v_space.elem_signs, w_space.elem_signs])
    m, mv = dofs.shape[1], v_space.local_dim()
    d1 = np.where(np.arange(m) < mv, 1j, 1.0)
    d2 = np.where(np.arange(m) < mv, 1.0, 1j)
    blocks = np.empty((len(dofs), m, m), dtype=complex)
    loads = np.empty((len(dofs), m), dtype=complex)

    for elems, ref, _, wdet in element_groups(mesh, rule):
        r1, r2 = _ls_tables(v_space, w_space, elems, ref, k)
        blocks[elems] = (_gram(wdet, r1, r1) * np.outer(d1.conj(), d1)
                         + _gram(wdet, r2, r2) * np.outer(d2.conj(), d2))
    # (-i f / k, ik v + div psi), panel-split so discontinuous f stays exact
    for elems, ref, phys, wdet in element_groups(mesh, rhs_rule, problem.breakpoints):
        _, dphi = basis_tables(v_space, elems, ref)
        u, _ = basis_tables(w_space, elems, ref)
        r2 = np.concatenate([dphi, k * u], axis=3)[:, 0]
        loads[elems] = _load(wdet, (-1j / k) * _data(problem.f, phys), r2) * d2.conj()

    # boundary terms k(phi.n + u, psi.n + v) and (i g, psi.n + v)
    for elems, ref, phys, wj, normals in boundary_groups(mesh, p + 5):
        phi, _ = basis_tables(v_space, elems, ref)
        u, _ = basis_tables(w_space, elems, ref)
        phin = np.einsum("eaqn,ea->eqn", phi, normals)
        trace = np.concatenate([phin, u[:, 0]], axis=2)
        blocks[elems] += k * _gram(wj, trace[:, None], trace[:, None])
        loads[elems] += _load(wj, 1j * _data(problem.g, phys, normals), trace)

    matrix, rhs = _scatter(dofs, signs, blocks, loads, nv + w_space.n_dofs)
    return AssembledSystem(matrix, rhs, FOSLS, k, v_space, w_space)


def assemble_classical_fem(w_space, problem):
    """Assemble the classical H1 Galerkin system for the impedance problem."""
    if problem.k <= 0:
        raise ValueError("wavenumber k must be positive")
    mesh = w_space.mesh
    k = problem.k
    p = w_space.p
    rule = simplex_quadrature(mesh.dim, 2 * p + 2)
    rhs_rule = simplex_quadrature(mesh.dim, 2 * p + 8)

    dofs = w_space.elem_dofs
    m = dofs.shape[1]
    blocks = np.empty((len(dofs), m, m), dtype=complex)
    loads = np.empty((len(dofs), m), dtype=complex)

    for elems, ref, _, wdet in element_groups(mesh, rule):
        u, gu = basis_tables(w_space, elems, ref)
        blocks[elems] = _gram(wdet, gu, gu) - k**2 * _gram(wdet, u, u)
    for elems, ref, phys, wdet in element_groups(mesh, rhs_rule, problem.breakpoints):
        u, _ = basis_tables(w_space, elems, ref)
        loads[elems] = _load(wdet, _data(problem.f, phys), u[:, 0])

    for elems, ref, phys, wj, normals in boundary_groups(mesh, p + 5):
        u, _ = basis_tables(w_space, elems, ref)
        blocks[elems] += -1j * k * _gram(wj, u, u)
        loads[elems] += _load(wj, _data(problem.g, phys, normals), u[:, 0])

    matrix, rhs = _scatter(dofs, w_space.elem_signs, blocks, loads, w_space.n_dofs)
    return AssembledSystem(matrix, rhs, CLASSICAL_FEM, k, None, w_space)


# -- fields of pairs at quadrature points ----------------------------------


class _Difference(NamedTuple):
    a: object
    b: object


def difference(a, b):
    """The pointwise difference a - b of two pairs, itself a pair."""
    return _Difference(a, b)


def pair_fields(pair, elems, ref, phys):
    """Fields (phi, div phi, u, grad u) of a pair at quadrature points.

    ``pair`` is a DiscreteSolution, an ExactBundle or a
    :func:`difference`; a discrete solution without flux (classical FEM)
    has phi = 0.  Every array has leading (element, point) axes; phi and
    grad u end in a d axis.
    """
    if isinstance(pair, _Difference):
        fa = pair_fields(pair.a, elems, ref, phys)
        fb = pair_fields(pair.b, elems, ref, phys)
        return tuple(x - y for x, y in zip(fa, fb))
    if isinstance(pair, DiscreteSolution):
        u = scalar_eval(pair.w_space, pair.u_coeffs, elems, ref)
        gu = scalar_grad_eval(pair.w_space, pair.u_coeffs, elems, ref)
        if pair.phi_coeffs is None:
            return np.zeros(gu.shape, complex), np.zeros(u.shape, complex), u, gu
        phi = vector_eval(pair.v_space, pair.phi_coeffs, elems, ref)
        dphi = vector_div_eval(pair.v_space, pair.phi_coeffs, elems, ref)
        return phi, dphi, u, gu
    vector, scalar = phys.shape, phys.shape[:2]
    fields = pair.fields(phys.reshape(-1, phys.shape[-1]))
    return tuple(np.asarray(f, dtype=complex).reshape(shape)
                 for f, shape in zip(fields, (vector, scalar, scalar, vector)))


def ls_residuals(fields, k):
    """The two least-squares residuals (ik phi + grad u, ik u + div phi)."""
    phi, dphi, u, gu = fields
    return 1j * k * phi + gu, 1j * k * u + dphi


def impedance_trace(fields, normals):
    """phi.n + u at boundary points with outward normals (F, d)."""
    phi, _, u, _ = fields
    return np.einsum("eqd,ed->eq", phi, normals) + u


def evaluate_b(pair_a, pair_b, w_space, k, exactness=None, breakpoints=()):
    """Evaluate b(pair_a, pair_b) by quadrature.

    Pairs may be DiscreteSolution instances, ExactBundle instances or
    differences of pairs (see :func:`difference`).  ``w_space`` provides
    the mesh and the default quadrature exactness 2p + 8.
    """
    mesh = w_space.mesh
    if exactness is None:
        exactness = 2 * w_space.p + 8
    rule = simplex_quadrature(mesh.dim, exactness)
    total = 0.0 + 0.0j
    for elems, ref, phys, wdet in element_groups(mesh, rule, breakpoints):
        ra1, ra2 = ls_residuals(pair_fields(pair_a, elems, ref, phys), k)
        rb1, rb2 = ls_residuals(pair_fields(pair_b, elems, ref, phys), k)
        first = np.einsum("eqd,eqd->eq", ra1, rb1.conj())
        total += np.sum(wdet * (first + ra2 * rb2.conj()))
    for elems, ref, phys, wj, normals in boundary_groups(mesh, w_space.p + 5):
        ta = impedance_trace(pair_fields(pair_a, elems, ref, phys), normals)
        tb = impedance_trace(pair_fields(pair_b, elems, ref, phys), normals)
        total += k * np.sum(wj * ta * tb.conj())
    return total


def galerkin_residual(system, x):
    """Relative algebraic residual ||A x - rhs|| / ||rhs||, recomputed."""
    r = system.matrix @ x - system.rhs
    scale = np.linalg.norm(system.rhs)
    return float(np.linalg.norm(r) / scale) if scale > 0 else float(
        np.linalg.norm(r)
    )
