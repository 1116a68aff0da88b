"""Assembly of the first-order-system least-squares (FOSLS) Helmholtz
formulation and of the classical FEM baseline, from one form.

The basis [V | W] of flux and potential functions, all real, gives the
fields R1 = [k phi | grad u] and R2 = [div phi | k u] with unit phases
D1 = (i on V, 1 on W) and D2 = (1 on V, i on W), so that R1 D1 =
ik phi + grad u and R2 D2 = ik u + div phi, and the trace T = [phi.n | u].
Both systems are

    A = sum_j (Rj Dj, Rj Dj) + k c (T, T)_boundary
    F = (-i f / k, R2 D2) + c (i g, T)_boundary,

and two choices tell them apart, the pairing of the phases of a test
function i and a trial function j and the boundary coefficient c:

* FOSLS pairs them Hermitian, conj(d)_i d_j (the sesquilinear
  (a, b) = int a conj(b)), with c = 1.  That is the least-squares form
  b((phi,u),(psi,v)) = (ik phi + grad u, ik psi + grad v)
  + (ik u + div phi, ik v + div psi) + k (phi.n + u, psi.n + v)_boundary
  with F((psi,v)) = (-i f / k, ik v + div psi) + (i g, psi.n + v)_boundary,
  and its matrix is Hermitian positive definite.
* Classical FEM takes W alone and pairs them complex-symmetrically,
  d_i d_j, which turns (ik u, ik v) into -k^2 (u, v); with c = -i it is
  (grad u, grad v) - k^2 (u, v) - ik (u, v)_boundary with
  F(v) = (f, v) + (g, v)_boundary, complex symmetric but indefinite.

Degrees of freedom are blocked [flux | potential].  All elements are
affine images of one reference simplex, so an element block is a fixed
combination of reference integrals: per-element geometric factors (E,
n_factors), read off the element maps of ``spaces.element_maps``, times
a reference tensor (n_factors, m * m) cached per (bases, rule, pairing),
with the paired phases folded in.  The boundary blocks take one
reference tensor per local facet, and the loads are weighted data (E, q)
times a reference table (q, m), scaled per element by the element map.
Blocks are scattered through one COO index pattern.

Every quadrature pass over the mesh -- the loads of assembly and the
error integrals -- walks :func:`sweep`, which yields element groups and
then boundary groups in one format: the elements, the reference and
physical points, per-element scales (det A, or the facet measure) and
one row of reference weights per rule.  A chunk holds at most
CHUNK_POINTS quadrature points, which bounds the memory of the kernels
that evaluate data at physical points whatever the mesh size.  Chunks
are processed in a fixed order, so results are deterministic and reruns
are bit-identical.  Every pass integrates boundary facets at the
exactness of its volume rules.  The chunks, the breakpoint panels and
the boundary facet tables of a set of rules depend on the mesh alone and
are built once per mesh, rules and breakpoints, as one read-only
sampling plan that is freed with the mesh.  The loads of assembly sweep
the data rule, whose exactness is that of the error rule
(:func:`error_exactness`), so a pass on the error rule alone reuses
assembly's plan.

On the groups of a sweep, :func:`pair_fields` samples the fields (phi,
div phi, u, grad u) of a discrete solution or of an exact solution, or
(u, grad u) alone where no flux is read, and :func:`ls_residuals` and
:func:`impedance_trace` form the residuals of the least-squares
functional from them.  ``analysis.compute_errors`` walks the sweep of
the error rules and of the doubled ones behind its drift check
together: every group then holds the points of both, is mapped once and
evaluates each solution once.
"""

import functools
import math
import threading
import weakref
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .mesh import LOCAL_FACETS, element_map_apply, local_simplex_points, reference_points
from .polyquad import _read_only, simplex_quadrature
from .spaces import (
    check_flux_space,
    element_maps,
    reference_tables,
    scalar_eval,
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


# -- sampling plans and the sweep over them --------------------------------

# quadrature points per element chunk: bounds the memory of the batched
# kernels, whose tables grow with the number of points they hold
CHUNK_POINTS = 4096


def chunks(n_items, points_per_item):
    """Consecutive slices of range(n_items), each holding at most
    CHUNK_POINTS points (but at least one item)."""
    step = max(1, CHUNK_POINTS // points_per_item)
    return [slice(i, i + step) for i in range(0, n_items, step)]


# What a sweep needs of the mesh and the rules alone -- the element
# chunks with their det A, the panel rules of cut elements, the boundary
# facets per local facet with their reference points, measures and
# normals -- is its sampling plan, built once per (mesh, rules,
# breakpoints) and kept read-only until the mesh is freed.  A plan holds
# groups (elems, reference points, reference weights (R, q), scales (E,),
# normals or None), the element groups first.  A plan samples several
# rules at once: each group holds the points of every rule in turn and an
# (R, q) table of reference weights whose row r holds the weights of rule
# r on its own points and 0 on the others, so one pass over the groups
# evaluates each field once for all R rules.  A plan holds no array with
# both an element and a point axis, so its memory is O(E) per key: every
# pass forms the physical points chunk by chunk.

_PLANS = weakref.WeakKeyDictionary()
_PLANS_LOCK = threading.Lock()


def _plan(mesh, rules, breakpoints):
    """The element and boundary groups of ``rules`` on ``mesh``, built
    once per mesh, rules, breakpoints and CHUNK_POINTS (which fixes the
    chunks)."""
    key = (CHUNK_POINTS, rules, breakpoints)
    with _PLANS_LOCK:
        plans = _PLANS.setdefault(mesh, {})
        if key not in plans:
            plans[key] = (_element_groups(mesh, rules, breakpoints)
                          + _boundary_groups(mesh, rules))
        return plans[key]


def _union(parts):
    """Reference points (q, d) and weights (R, q) of R rules sampled
    together from their (points, weights): the points of every rule in
    turn, each checked to lie inside the reference simplex, and row r the
    weights of rule r on its own points, 0 elsewhere."""
    points = reference_points(np.concatenate([pts for pts, _ in parts]))
    weights = np.zeros((len(parts), len(points)))
    start = 0
    for row, (_, w) in zip(weights, parts):
        row[start:start + len(w)] = w
        start += len(w)
    return points, weights


def _element_groups(mesh, rules, breakpoints):
    """Groups (elems, reference points, reference weights (R, q), det A
    (E,), None) of the R volume rules ``rules`` sampled together
    (:func:`_union`)."""
    cuts = {}
    if mesh.dim == 1:
        x0, lc = mesh.maps_b[:, 0], mesh.maps_A[:, 0, 0]
        for b in breakpoints:
            t = (b - x0) / lc
            for e in np.flatnonzero((0.0 < t) & (t < 1.0)):
                cuts.setdefault(e, []).append(t[e])
    plain = np.ones(len(mesh.elements), dtype=bool)
    plain[list(cuts)] = False
    plain = np.flatnonzero(plain)
    points, weights = _union([(rule.points, rule.weights) for rule in rules])
    groups = [(plain[s], points, weights) for s in chunks(len(plain), len(points))]
    for e, ts in sorted(cuts.items()):
        edges = np.array([0.0, *sorted(ts), 1.0])
        lo, hi = edges[:-1, None], edges[1:, None]
        panels = [((lo + (hi - lo) * rule.points[:, 0]).reshape(-1, 1),
                   ((hi - lo) * rule.weights).ravel()) for rule in rules]
        groups.append((np.array([e]), *_union(panels)))
    return tuple((*_read_only(*g, mesh.det_A[g[0]]), None) for g in groups)


def _boundary_groups(mesh, rules):
    """Groups (elems, reference points, reference weights (R, q),
    measures (F,), normals (F, d)) of the facet rules of the exactnesses
    of the volume rules ``rules``, sampled together (:func:`_union`)."""
    fids = mesh.boundary_facets
    facet_rules = [simplex_quadrature(mesh.dim - 1, rule.exactness) for rule in rules]
    groups = []
    for li, facet in enumerate(LOCAL_FACETS[mesh.dim]):
        sel = mesh.boundary_local_facets == li
        if sel.any():
            ref, wts = _union([(local_simplex_points(mesh.dim, facet, rule.points),
                                rule.weights) for rule in facet_rules])
            groups.append(_read_only(mesh.boundary_elems[sel], ref, wts,
                                     mesh.facet_measures[fids[sel]],
                                     mesh.facet_normals[fids[sel]]))
    return tuple(groups)


def sweep(mesh, exactnesses, breakpoints=()):
    """The element and boundary groups of several rules, sampled together.

    Yields (elems, reference points, physical points (E, q, d), scales
    (E,), reference weights (R, q), outward normals (E, d) or None): rule
    r weighs the group's points by scales[:, None] * weights[r].  The
    volume groups come first, with the rules ``simplex_quadrature(d, e)``
    of ``exactnesses``, scales det A and normals None.  An element chunk
    holds at most CHUNK_POINTS points (but at least one element), and a
    1D element cut by an interior breakpoint forms its own group, whose
    rules are split into panels at the cuts so that discontinuous data
    stay exactly integrated.  The boundary groups follow, one per local
    facet index, with the facet rules ``simplex_quadrature(d - 1, e)`` of
    the same exactnesses mapped onto that local facet (in 1D the one
    point of a facet, with weight 1) and the facet measures as scales.
    All but the physical points are the read-only arrays of the plan of
    (mesh, rules, breakpoints).
    """
    rules = tuple(simplex_quadrature(mesh.dim, e) for e in exactnesses)
    for elems, ref, wts, scales, normals in _plan(mesh, rules, tuple(breakpoints)):
        yield elems, ref, element_map_apply(mesh, elems, ref, check=False), scales, wts, normals


# -- assembly from reference tensors ---------------------------------------
#
# A field of the local basis is a reference table T (q, m, A) of its A
# reference components and a per-element map M (E, c, A) to its c
# physical ones (``spaces.element_maps``).  On affine elements the Gram
# sum_q w_q s_e (M T_i) . (M T_j) of two basis functions is therefore
# sum_ab (s_e M^T M)_ab R_ab,ij with a reference tensor
# R_ab,ij = sum_q w_q T_qia T_qjb that all elements share (Kirby,
# Knepley, Logg & Scott, SISC 27 (2005)).


def _tensor(weights, fields):
    """Reference tensor of fields (T, c): a table T (q, m, A) and a
    complex coefficient c (a scalar or an (m, m) array).  Each field gives
    the A * A rows c_ij sum_q w_q T_qia T_qjb, index a * A + b; the
    complex (rows, m * m) result is returned as a real (rows, 2 m m) view."""
    parts = []
    for t, c in fields:
        q, m, a = t.shape
        flat = t.reshape(q, -1)
        gram = ((weights[:, None] * flat).T @ flat).reshape(m, a, m, a)
        parts.append((gram.transpose(1, 3, 0, 2) * c).reshape(a * a, m * m))
    return np.concatenate(parts, dtype=complex).view(float)


def _factors(scale, maps):
    """Geometric factors (E, rows) of fields with per-element maps M
    (E, c, A), in the row order of :func:`_tensor`: scale M^T M."""
    return np.hstack([(scale[:, None, None] * (np.swapaxes(m, 1, 2) @ m)).reshape(len(m), -1)
                      for m in maps])


def _blocks(factors, tensor):
    """Element blocks (E, m, m) = factors @ tensor, one real product."""
    out = (factors @ tensor).view(complex)
    m = math.isqrt(out.shape[1])
    return out.reshape(len(out), m, m)


def _join(*tables):
    """Table (q, m, A) of a joined basis from tables (q, m_s, A_s) of its
    parts, blocked on the diagonal of the (basis, component) axes."""
    m, a = (np.cumsum([0] + [t.shape[i] for t in tables]) for i in (1, 2))
    out = np.zeros((len(tables[0]), m[-1], a[-1]))
    for t, m0, m1, a0, a1 in zip(tables, m, m[1:], a, a[1:]):
        out[:, m0:m1, a0:a1] = t
    return out


def _load(wv, table, m):
    """Element load vectors sum_q wv_eq (M_e T_q)_i of a complex datum wv
    (E, q) times weights, a reference table T (q, n, A) and maps M
    (E, 1, A), from one real product on the (re, im) rows of wv."""
    q, n, a = table.shape
    z = np.stack([wv.real, wv.imag], axis=1).reshape(-1, q) @ table.reshape(q, -1)
    z = np.einsum("ekna,ea->ekn", z.reshape(len(wv), 2, n, a), m[:, 0])
    return z[:, 0] + 1j * z[:, 1]


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


def _ls_parts(pairs):
    """Parts ([phi | grad u], [div phi | u]) of R1 and R2 from the
    (value, derivative) pair of each space, [V, W] or [W] alone."""
    *flux, (u, du) = pairs
    return tuple(zip(*flux, (du, u)))


def _phases(dims, hermitian):
    """Unit phases D1 = (i on V, 1 on W) and D2 = (1 on V, i on W) of R1
    and R2 on local bases of sizes ``dims`` ([V, W] or [W]), each as a
    (test, trial) pair: the test side is conj(Dj) if ``hermitian``, else Dj."""
    on_v = np.arange(sum(dims)) < sum(dims[:-1])
    return [(d.conj() if hermitian else d, d)
            for d in (np.where(on_v, 1j, 1.0), np.where(on_v, 1.0, 1j))]


@functools.cache
def _volume_tensor(bases, rule, hermitian):
    """Reference tensor of sum_j (Rj Dj, Rj Dj) on the joined basis of
    ``bases`` ([V, W] or [W]); k lives in the maps.  Cached, read-only."""
    r1, r2 = _ls_parts([reference_tables(b, rule.points) for b in bases])
    phases = _phases([t.shape[1] for t in r1], hermitian)
    fields = [(_join(*r), np.outer(*d)) for r, d in zip((r1, r2), phases)]
    return _read_only(_tensor(rule.weights, fields))[0]


def _assemble(kind, v_space, w_space, problem, hermitian, boundary):
    """The system of the module's form on [V | W], or on W alone when
    ``v_space`` is None, with the given pairing and boundary coefficient c
    (``boundary``).  The volume blocks are one product of per-element
    factors with the cached volume tensor, the boundary blocks one tensor
    per local facet, and the loads products of weighted data with
    reference tables.  The boundary terms and the loads come from one
    :func:`sweep` of the data rule (:func:`error_exactness`),
    panel-split at the breakpoints so that a discontinuous f stays
    exactly integrated."""
    spaces = [w_space] if v_space is None else [v_space, w_space]
    if v_space is not None:
        if v_space.mesh is not w_space.mesh:
            raise ValueError("flux and potential spaces live on different meshes")
        check_flux_space(v_space)
    mesh, k = w_space.mesh, problem.k
    p = max(s.p for s in spaces)
    rule = simplex_quadrature(mesh.dim, 2 * p + 2)
    data = (error_exactness(p),)  # the exactness of the data rules, volume and facets

    offsets = np.cumsum([0] + [s.n_dofs for s in spaces])
    dofs = np.hstack([s.elem_dofs + o for s, o in zip(spaces, offsets)])
    signs = np.hstack([s.elem_signs for s in spaces])
    test2 = _phases([s.local_dim() for s in spaces], hermitian)[1][0]
    loads = np.empty(dofs.shape, dtype=complex)

    maps = [element_maps(s, slice(None)) for s in spaces]
    *flux_maps, (wm, _) = maps
    m1, m2 = _ls_parts([(k * vm, dm) for vm, dm in maps])
    factors = _factors(mesh.det_A, [np.concatenate(m1, axis=2), np.concatenate(m2, axis=2)])
    blocks = _blocks(factors, _volume_tensor(tuple(s.basis for s in spaces), rule, hermitian))
    for elems, ref, phys, scales, wts, normals in sweep(mesh, data, problem.breakpoints):
        if normals is None:  # (-i f / k, R2 D2)
            _, r2 = _ls_parts([reference_tables(s.basis, ref) for s in spaces])
            wv = wts[0] * scales[:, None] * (-1j / k) * _data(problem.f, phys)
            loads[elems] = np.hstack([_load(wv, t, m[elems]) for t, m in zip(r2, m2)]) * test2
            continue
        # k c (T, T) and c (i g, T) with the trace T = [phi.n | u]
        tables = [reference_tables(s.basis, ref)[0] for s in spaces]
        trace = [normals[:, None, :] @ vm[elems] for vm, _ in flux_maps] + [wm[elems]]
        blocks[elems] += _blocks(_factors(k * scales, [np.concatenate(trace, axis=2)]),
                                 _tensor(wts[0], [(_join(*tables), boundary)]))
        wv = scales[:, None] * wts[0] * (boundary * 1j) * _data(problem.g, phys, normals)
        loads[elems] += np.hstack([_load(wv, t, m) for t, m in zip(tables, trace)])

    matrix, rhs = _scatter(dofs, signs, blocks, loads, offsets[-1])
    return AssembledSystem(matrix, rhs, kind, v_space, w_space)


def assemble_fosls(v_space, w_space, problem):
    """The FOSLS system on V_h x W_h: the module's form, Hermitian, c = 1."""
    return _assemble(FOSLS, v_space, w_space, problem, hermitian=True, boundary=1.0)


def assemble_classical_fem(w_space, problem):
    """The classical FEM system on W_h: the module's form on W alone,
    complex-symmetric, c = -i."""
    return _assemble(CLASSICAL_FEM, None, w_space, problem, hermitian=False, boundary=-1j)


# -- fields of pairs at quadrature points ----------------------------------


def pair_fields(pair, elems, ref, phys, order=2):
    """Fields of a pair at quadrature points: (phi, div phi, u, grad u),
    or at ``order`` 1 (u, grad u) alone, as the jets of ``problems``.

    ``pair`` is a DiscreteSolution or an ExactBundle.  A discrete
    solution takes one evaluator call per space, which returns the values
    and the derivatives of its field from one product with a joined
    reference table; one without flux (classical FEM) is read at order 1.
    Every array has leading (element, point) axes; phi and grad u end in
    a d axis.
    """
    if isinstance(pair, DiscreteSolution):
        u, gu = scalar_eval(pair.w_space, pair.u_coeffs, elems, ref, with_derivative=True)
        if order == 1:
            return u, gu
        phi, dphi = vector_eval(pair.v_space, pair.phi_coeffs, elems, ref, with_derivative=True)
        return phi, dphi, u, gu
    vector, scalar = phys.shape, phys.shape[:2]
    points = phys.reshape(-1, phys.shape[-1])
    if order == 1:
        fields, shapes = pair.jet(points, 1)[:2], (scalar, vector)
    else:
        fields, shapes = pair.fields(points), (vector, scalar, scalar, vector)
    return tuple(np.asarray(f, dtype=complex).reshape(shape)
                 for f, shape in zip(fields, shapes))


def ls_residuals(fields, k):
    """The two least-squares residuals (ik phi + grad u, ik u + div phi)."""
    phi, dphi, u, gu = fields
    return 1j * k * phi + gu, 1j * k * u + dphi


def impedance_trace(fields, normals):
    """phi.n + u at boundary points with outward normals (F, d)."""
    phi, _, u, _ = fields
    return np.einsum("eqd,ed->eq", phi, normals) + u


def error_exactness(p):
    """Exactness 2p + 8 of the data rule of assembly's loads and of the
    error rules of ``analysis.compute_errors``."""
    return 2 * p + 8


def galerkin_residual(system, x):
    """Relative algebraic residual ||A x - rhs|| / ||rhs||, recomputed."""
    r = system.matrix @ x - system.rhs
    scale = np.linalg.norm(system.rhs)
    return float(np.linalg.norm(r) / scale) if scale > 0 else float(
        np.linalg.norm(r)
    )
