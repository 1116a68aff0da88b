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

Degrees of freedom are blocked [flux | potential].  Element loops may be
parallelized as long as global accumulation is equivalent to a
sequential ordering; the implementation here is sequential and
deterministic.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .polyquad import gauss01, simplex_quadrature
from .spaces import (
    KIND_HDIV,
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


# -- quadrature helpers ------------------------------------------------


def element_panels(mesh, elem, rule, breakpoints):
    """Reference quadrature for one element, split at interior breaks.

    Only 1D data can carry breakpoints; 2D elements always use the plain
    rule.  Returns (points, weights).
    """
    if mesh.dim != 1 or not breakpoints:
        return rule.points, rule.weights
    x0 = mesh.maps_b[elem, 0]
    lc = mesh.maps_A[elem, 0, 0]
    cuts = sorted(
        (b - x0) / lc for b in breakpoints if 0.0 < (b - x0) / lc < 1.0
    )
    if not cuts:
        return rule.points, rule.weights
    edges = np.array([0.0, *cuts, 1.0])
    t = rule.points[:, 0]
    pts, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        pts.append(lo + (hi - lo) * t)
        wts.append((hi - lo) * rule.weights)
    return np.concatenate(pts)[:, None], np.concatenate(wts)


def _facet_quadrature(mesh, facet_id, elem, n_points):
    """Quadrature data on a facet seen from ``elem``.

    Returns (ref_points in the element, physical points, weights, jac,
    outward normal of the element).  In 1D the facet is a point with a
    single unit weight.
    """
    facet = mesh.facets[facet_id]
    li, sigma = mesh.facet_element_side(facet_id, elem)
    if mesh.dim == 1:
        ref = np.array([[float(li)]])  # local vertex 0 -> t=0, 1 -> t=1
        phys = ref @ mesh.maps_A[elem].T + mesh.maps_b[elem]
        return ref, phys, np.array([1.0]), 1.0, sigma * facet.normal
    t, w = gauss01(n_points)
    ref = edge_reference_points(li, t)
    phys = ref @ mesh.maps_A[elem].T + mesh.maps_b[elem]
    return ref, phys, w, facet.measure, sigma * facet.normal


def _flux_tables(space, ref_points):
    """Reference values/divergences of the flux basis (1D: scalar basis)."""
    if space.kind == KIND_HDIV:
        return space.bdm.eval(ref_points), space.bdm.div(ref_points)
    vals, grads = space.basis.eval_with_grad(ref_points)
    return vals[:, :, None], grads[:, :, 0]


def _check_same_mesh(v_space, w_space):
    if v_space.mesh is not w_space.mesh:
        raise ValueError("flux and potential spaces live on different meshes")


class _Coo:
    """COO accumulator for the global complex matrix.

    Element blocks are kept as they come and copied into preallocated
    index and value arrays once, in :meth:`tocsr`.
    """

    def __init__(self, n):
        self.n = n
        self.blocks = []

    def add(self, row_dofs, col_dofs, block):
        self.blocks.append((row_dofs, col_dofs, block))

    def tocsr(self):
        nnz = sum(np.size(block) for _, _, block in self.blocks)
        rows = np.empty(nnz, dtype=np.int32)
        cols = np.empty(nnz, dtype=np.int32)
        data = np.empty(nnz, dtype=complex)
        start = 0
        for row_dofs, col_dofs, block in self.blocks:
            shape = (len(row_dofs), len(col_dofs))
            stop = start + shape[0] * shape[1]
            rows[start:stop].reshape(shape)[:] = np.asarray(row_dofs)[:, None]
            cols[start:stop].reshape(shape)[:] = col_dofs
            data[start:stop] = np.ravel(block)
            start = stop
        return sp.coo_matrix((data, (rows, cols)), shape=(self.n, self.n)).tocsr()


def assemble_fosls(v_space, w_space, problem):
    """Assemble the FOSLS system on V_h x W_h for the given problem."""
    _check_same_mesh(v_space, w_space)
    if problem.k <= 0:
        raise ValueError("wavenumber k must be positive")
    mesh = v_space.mesh
    k = problem.k
    p = max(v_space.p, w_space.p)
    rule = simplex_quadrature(mesh.dim, 2 * p + 2)
    rhs_rule = simplex_quadrature(mesh.dim, 2 * p + 8)

    N, G = w_space.basis.eval_with_grad(rule.points)
    B, dB = _flux_tables(v_space, rule.points)
    Nr = w_space.basis.eval(rhs_rule.points)
    _, dBr_tab = _flux_tables(v_space, rhs_rule.points)

    nv = v_space.n_dofs
    n_total = nv + w_space.n_dofs
    acc = _Coo(n_total)
    rhs = np.zeros(n_total, dtype=complex)

    for e in range(len(mesh.elements)):
        A, det, inv = mesh.maps_A[e], mesh.det_A[e], mesh.inv_A[e]
        sv = v_space.elem_signs[e]
        sw = w_space.elem_signs[e]
        dv = v_space.elem_dofs[e]
        dw = w_space.elem_dofs[e] + nv

        Ne = N * sw
        Ge = np.einsum("qib,ba->qia", G, inv) * sw[None, :, None]
        Be = np.einsum("qib,ab->qia", B, A) / det * sv[None, :, None]
        dBe = dB / det * sv

        wq = rule.weights * det
        mass_v = np.einsum("q,qia,qja->ij", wq, Be, Be)
        div_div = np.einsum("q,qi,qj->ij", wq, dBe, dBe)
        vv = k**2 * mass_v + div_div

        bg = np.einsum("q,qia,qja->ij", wq, Be, Ge)  # (i test V, j trial W)
        dn = np.einsum("q,qi,qj->ij", wq, dBe, Ne)
        vw = -1j * k * bg + 1j * k * dn
        wv = vw.conj().T

        stiff = np.einsum("q,qia,qja->ij", wq, Ge, Ge)
        mass_w = np.einsum("q,qi,qj->ij", wq, Ne, Ne)
        ww = stiff + k**2 * mass_w

        acc.add(dv, dv, vv)
        acc.add(dv, dw, vw)
        acc.add(dw, dv, wv)
        acc.add(dw, dw, ww)

        # volume right-hand side (panel-split so discontinuous f stays exact)
        pts, wts = element_panels(mesh, e, rhs_rule, problem.breakpoints)
        if problem.breakpoints and mesh.dim == 1:
            Np = w_space.basis.eval(pts) * sw
            _, dBp = _flux_tables(v_space, pts)
            dBp = dBp / det * sv
        else:
            Np = Nr * sw
            dBp = dBr_tab / det * sv
        phys = pts @ A.T + mesh.maps_b[e]
        fv = np.asarray(problem.f(phys), dtype=complex)
        wdet = wts * det
        np.add.at(rhs, dv, (-1j / k) * np.einsum("q,q,qi->i", wdet, fv, dBp))
        np.add.at(rhs, dw, -np.einsum("q,q,qi->i", wdet, fv, Np))

    # boundary terms k(phi.n + u, psi.n + v) and (i g, psi.n + v)
    nb = p + 5
    for fid in mesh.boundary_facets:
        e = mesh.facets[fid].elems[0]
        ref, phys, w, jac, normal = _facet_quadrature(mesh, fid, e, nb)
        sv = v_space.elem_signs[e]
        sw = w_space.elem_signs[e]
        dv = v_space.elem_dofs[e]
        dw = w_space.elem_dofs[e] + nv

        Nf = w_space.basis.eval(ref) * sw
        Bf, _ = _flux_tables(v_space, ref)
        Bf = np.einsum("qib,ab->qia", Bf, mesh.maps_A[e]) / mesh.det_A[e]
        phin = (Bf @ normal) * sv

        wj = w * jac
        acc.add(dv, dv, k * np.einsum("q,qi,qj->ij", wj, phin, phin))
        acc.add(dv, dw, k * np.einsum("q,qi,qj->ij", wj, phin, Nf))
        acc.add(dw, dv, k * np.einsum("q,qi,qj->ij", wj, Nf, phin))
        acc.add(dw, dw, k * np.einsum("q,qi,qj->ij", wj, Nf, Nf))

        gv = np.asarray(problem.g(phys, np.broadcast_to(normal, phys.shape)),
                        dtype=complex)
        np.add.at(rhs, dv, 1j * np.einsum("q,q,qi->i", wj, gv, phin))
        np.add.at(rhs, dw, 1j * np.einsum("q,q,qi->i", wj, gv, Nf))

    return AssembledSystem(acc.tocsr(), rhs, FOSLS, k, v_space, w_space)


def assemble_classical_fem(w_space, problem):
    """Assemble the classical H1 Galerkin system for the impedance problem."""
    if problem.k <= 0:
        raise ValueError("wavenumber k must be positive")
    mesh = w_space.mesh
    k = problem.k
    p = w_space.p
    rule = simplex_quadrature(mesh.dim, 2 * p + 2)
    rhs_rule = simplex_quadrature(mesh.dim, 2 * p + 8)
    N, G = w_space.basis.eval_with_grad(rule.points)
    Nr = w_space.basis.eval(rhs_rule.points)

    n = w_space.n_dofs
    acc = _Coo(n)
    rhs = np.zeros(n, dtype=complex)

    for e in range(len(mesh.elements)):
        A, det, inv = mesh.maps_A[e], mesh.det_A[e], mesh.inv_A[e]
        sw = w_space.elem_signs[e]
        dw = w_space.elem_dofs[e]
        Ne = N * sw
        Ge = np.einsum("qib,ba->qia", G, inv) * sw[None, :, None]
        wq = rule.weights * det
        stiff = np.einsum("q,qia,qja->ij", wq, Ge, Ge)
        mass = np.einsum("q,qi,qj->ij", wq, Ne, Ne)
        acc.add(dw, dw, stiff - k**2 * mass)

        pts, wts = element_panels(mesh, e, rhs_rule, problem.breakpoints)
        Np = (w_space.basis.eval(pts) if problem.breakpoints and mesh.dim == 1
              else Nr) * sw
        phys = pts @ A.T + mesh.maps_b[e]
        fv = np.asarray(problem.f(phys), dtype=complex)
        np.add.at(rhs, dw, np.einsum("q,q,qi->i", wts * det, fv, Np))

    nb = p + 5
    for fid in mesh.boundary_facets:
        e = mesh.facets[fid].elems[0]
        ref, phys, w, jac, normal = _facet_quadrature(mesh, fid, e, nb)
        sw = w_space.elem_signs[e]
        dw = w_space.elem_dofs[e]
        Nf = w_space.basis.eval(ref) * sw
        wj = w * jac
        acc.add(dw, dw, -1j * k * np.einsum("q,qi,qj->ij", wj, Nf, Nf))
        gv = np.asarray(problem.g(phys, np.broadcast_to(normal, phys.shape)),
                        dtype=complex)
        np.add.at(rhs, dw, np.einsum("q,q,qi->i", wj, gv, Nf))

    return AssembledSystem(acc.tocsr(), rhs, CLASSICAL_FEM, k, None, w_space)


# -- pointwise samplers for evaluating b on arbitrary pairs -------------


class _DiscreteSampler:
    def __init__(self, sol):
        self.sol = sol

    def volume(self, elem, ref, phys):
        sol = self.sol
        mesh = sol.w_space.mesh
        u = scalar_eval(sol.w_space, sol.u_coeffs, elem, ref)
        gu = scalar_grad_eval(sol.w_space, sol.u_coeffs, elem, ref)
        if sol.phi_coeffs is not None:
            phi = vector_eval(sol.v_space, sol.phi_coeffs, elem, ref)
            dphi = vector_div_eval(sol.v_space, sol.phi_coeffs, elem, ref)
        else:
            phi = np.zeros((len(ref), mesh.dim), dtype=complex)
            dphi = np.zeros(len(ref), dtype=complex)
        return phi, dphi, u, gu

    def boundary(self, elem, ref, phys, normal):
        phi, _, u, _ = self.volume(elem, ref, phys)
        return phi @ normal, u


class _ExactSampler:
    def __init__(self, bundle):
        self.b = bundle

    def volume(self, elem, ref, phys):
        b = self.b
        u = np.asarray(b.u(phys), dtype=complex)
        gu = np.asarray(b.grad_u(phys), dtype=complex)
        if gu.ndim == 1:
            gu = gu[:, None]
        phi = np.asarray(b.phi(phys), dtype=complex)
        if phi.ndim == 1:
            phi = phi[:, None]
        dphi = np.asarray(b.div_phi(phys), dtype=complex)
        return phi, dphi, u, gu

    def boundary(self, elem, ref, phys, normal):
        phi, _, u, _ = self.volume(elem, ref, phys)
        return phi @ normal, u


class _DiffSampler:
    def __init__(self, a, b):
        self.a, self.b = a, b

    def volume(self, elem, ref, phys):
        va = self.a.volume(elem, ref, phys)
        vb = self.b.volume(elem, ref, phys)
        return tuple(x - y for x, y in zip(va, vb))

    def boundary(self, elem, ref, phys, normal):
        ba = self.a.boundary(elem, ref, phys, normal)
        bb = self.b.boundary(elem, ref, phys, normal)
        return tuple(x - y for x, y in zip(ba, bb))


def as_sampler(obj):
    """Wrap a DiscreteSolution or ExactBundle into a pointwise sampler."""
    if isinstance(obj, DiscreteSolution):
        return _DiscreteSampler(obj)
    if hasattr(obj, "volume") and hasattr(obj, "boundary"):
        return obj
    return _ExactSampler(obj)


def difference(a, b):
    """Sampler for the pointwise difference of two pairs."""
    return _DiffSampler(as_sampler(a), as_sampler(b))


def evaluate_b(pair_a, pair_b, w_space, k, exactness=None, breakpoints=()):
    """Evaluate b(pair_a, pair_b) by quadrature.

    Pairs may be DiscreteSolution instances, ExactBundle instances or
    prebuilt samplers (see :func:`difference`).  ``w_space`` provides the
    mesh and the default quadrature exactness 2p + 8.
    """
    sa = as_sampler(pair_a)
    sb = as_sampler(pair_b)
    mesh = w_space.mesh
    if exactness is None:
        exactness = 2 * w_space.p + 8
    rule = simplex_quadrature(mesh.dim, exactness)
    total = 0.0 + 0.0j
    for e in range(len(mesh.elements)):
        pts, wts = element_panels(mesh, e, rule, breakpoints)
        phys = pts @ mesh.maps_A[e].T + mesh.maps_b[e]
        pa, da, ua, ga = sa.volume(e, pts, phys)
        pb, db, ub, gb = sb.volume(e, pts, phys)
        first = np.einsum(
            "qd,qd->q", 1j * k * pa + ga, (1j * k * pb + gb).conj()
        )
        second = (1j * k * ua + da) * (1j * k * ub + db).conj()
        total += np.sum(wts * mesh.det_A[e] * (first + second))
    n_bnd = w_space.p + 5
    for fid in mesh.boundary_facets:
        e = mesh.facets[fid].elems[0]
        ref, phys, w, jac, normal = _facet_quadrature(mesh, fid, e, n_bnd)
        pna, ua = sa.boundary(e, ref, phys, normal)
        pnb, ub = sb.boundary(e, ref, phys, normal)
        total += k * np.sum(w * jac * (pna + ua) * (pnb + ub).conj())
    return total


def galerkin_residual(system, x):
    """Relative algebraic residual ||A x - rhs|| / ||rhs||, recomputed."""
    r = system.matrix @ x - system.rhs
    scale = np.linalg.norm(system.rhs)
    return float(np.linalg.norm(r) / scale) if scale > 0 else float(
        np.linalg.norm(r)
    )
