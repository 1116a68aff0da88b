"""Constrained-minimization polynomial projections on the reference simplex.

The operator fixes a degree-p polynomial in consecutive steps: vertex
values first, then each edge trace as the minimizer of

    p ||u - pi||^2_{L2(e)} + ||u - pi||^2_{H1/2_00(e)}

subject to the vertex values, and finally (triangles only) the interior
as the minimizer of p^2 ||u - pi||^2_{L2(K)} + ||u - pi||^2_{H1(K)}
subject to the boundary trace.  On the interval the element itself is
the edge entity, so the edge step already determines every interior
coefficient and the volume stage is void.  Each step only sees the trace
of u on its entity, which is what makes an elementwise H(div)-conforming
construction possible: mapping the componentwise operator through the
Piola transform yields a global flux projection whose normal trace on a
facet is the one-dimensional edge projection of the normal trace data.

``project_hdiv_global`` builds that projection without pulling an edge
point back.  Its edge stage runs once per directed mesh edge, a global
edge together with the direction in which an element walks it, on the
physical trace of the field; the vertex stage of that 1D projection
gives the endpoint values.  Every stage is linear and the Piola matrix
det A A^{-1} is constant on an element, so an element's vertex values
and edge bubbles are that matrix applied to the coefficients of the
directed edges it walks.  The direction stays in the key because the
discrete edge operator is not reversal-symmetric, so each element sees
exactly the edge operator of the reference algorithm.  The interior
stage (p >= 3) runs on chunks of elements, through the same helper as
:func:`project_reference`.  Each chunk is sized by the points its stage
evaluates: the edge point set per directed edge, the volume rule per
element.  Only the coefficients are read, so no KKT residual is formed;
:class:`ReferenceProjection` forms its step trace when it is first read.

The H^{1/2}_00 inner product on the unit interval combines the L2
product, the Aronszajn-Slobodeckij seminorm

    (u, v) -> int int (u(x)-u(y)) (v(x)-v(y)) / (x-y)^2 dx dy,

and the endpoint-distance weighted product int u v / dist(t, {0,1}) dt.
The double integral is split along the diagonal and collapsed by the
Duffy substitution y = x(1-s), under which each factor enters as its
divided difference (q(x)-q(y))/(x-y), formed from values.  Gauss nodes
never hit s = 0 and the divided difference of a polynomial is a
polynomial, so the rule is exact on polynomials.  The weighted term is
split at t = 1/2; on each half uv / dist is a polynomial for bubble
pairs, so Gauss-Legendre nodes integrate it exactly once the weight
1 / dist is folded into the quadrature weights.

Each stage evaluates its residual once, on one point set.  For an edge
that set joins the Gauss nodes of the L2 term, the same nodes halved and
mirrored for the weighted term, and the Duffy nodes: each x and each
y = x(1-s) once, since every row of the (x, y) grid shares its x; it is
mapped onto each local edge by ``mesh.local_simplex_points``, and the
trace basis is evaluated on it once.  The volume stage reads its basis
tables through ``spaces.reference_tables``, kept with those of the
field path at the same rule.  Each
stage writes its inner product once, as the moments of a residual
against its basis: products of the residual values (and, for the edge,
its divided differences; for the volume, its gradients) with read-only
weighted tables, built lazily once per degree.  Its Gram is the moments
of that basis itself.  A stack of functions is projected at once, one
row per function, and the rows do not interact.
"""

from dataclasses import dataclass
from functools import cache, cached_property, partial

import numpy as np
import scipy.linalg

from .fosls import chunks, error_exactness
from .mesh import LOCAL_EDGES, REFERENCE_VERTICES, barycentric, element_map_apply
from .mesh import local_simplex_points
from .polyquad import _read_only, gauss01, make_scalar_basis, simplex_quadrature
from .spaces import KIND_HDIV, _scatter_local, pull_back, reference_tables


@dataclass
class ReferenceProjection:
    """Result of the staged projection: coefficients in the hierarchical
    basis, the vertex values and, per minimization step, its
    (work, coefficients, moments); ``volume`` is None where there is no
    interior stage."""

    p: int
    d: int
    result: np.ndarray
    vertex: np.ndarray
    edges: list
    volume: tuple | None

    @cached_property
    def step_trace(self):
        """The per-step trace {"vertex": values, "edge": [step, ...],
        "volume": step or None}, each step {"coeffs", "kkt"}, formed on
        first read; each ``kkt`` is the largest over the stack."""
        def step(work, c, m):
            return {"coeffs": c, "kkt": _kkt(work, c, m)}
        return {"vertex": self.vertex, "edge": [step(*e) for e in self.edges],
                "volume": step(*self.volume) if self.volume else None}


class _EdgeWork:
    """Quadrature tables and Grams for the edge minimization at degree p.

    Every term of the edge inner product reads the trace at one point
    set, ``points``: the Gauss nodes t of the L2 term, the nodes t/2 and
    1 - t/2 of the distance-weighted term, and the Duffy nodes
    x and y = x(1-s) of the Slobodeckij double integral.  A stage
    evaluates its residual there once.  ``gram_L2`` is the L2 Gram of
    the full trace basis {1-t, t, bubbles}, ``gram_H12_00`` the
    H^{1/2}_00 Gram of the bubbles (read-only, like every table here).
    """

    def __init__(self, p):
        self.p = p
        basis = make_scalar_basis(1, p)

        # plain Gauss data for the L2 term (and the full trace-basis Gram)
        tq, wq = gauss01(p + 6)

        # the distance-weighted term int_0^(1/2) uv / t dt, mirrored under
        # t -> 1-t: with t = s/2 it is int_0^1 uv(s/2) / s ds, a polynomial
        # of degree 2p - 1 for bubble pairs, which the Gauss nodes s above
        # with weights w / s integrate exactly
        t_left = tq / 2
        w_dist = wq / tq

        # diagonal-split Duffy grid for the Slobodeckij double integral:
        # y = x(1-s), so x - y = xs never vanishes at Gauss nodes
        x, w = gauss01(2 * p + 6)
        self.XmY = x[:, None] * x[None, :]
        Y = x[:, None] * (1 - x)[None, :]
        self.points = np.concatenate([tq, t_left, 1 - t_left, x, Y.ravel()])
        self.n_lin = len(tq) + 2 * len(t_left)

        # the trace basis at every point, evaluated once: its L2 nodes tq
        # are the first rows; one row per bubble t(1-t) P_m(2t-1)
        trace = basis.eval(self.points[:, None])
        self.gram_L2 = np.einsum("q,qi,qj->ij", wq, trace[:len(tq)], trace[:len(tq)])
        bub_lin, bub_dd = self._split(trace[:, 2:].T)
        w_l2 = np.concatenate([wq, np.zeros(2 * len(t_left))])
        w_d = np.concatenate([np.zeros(len(tq)), w_dist, w_dist])
        w_sem = (2.0 * w[:, None] * w[None, :] * x[:, None]).ravel()

        # the moment functionals as weighted tables: the objective
        # p L2 + H^{1/2}_00 is k_lin, k_sem; H^{1/2}_00 alone swaps k_lin
        # for k_h12.  The Grams are the moments of the bubbles themselves.
        self.k_lin = ((p + 1) * w_l2 + w_d)[:, None] * bub_lin.T
        k_h12 = (w_l2 + w_d)[:, None] * bub_lin.T
        self.k_sem = w_sem[:, None] * bub_dd.T
        self.gram_H12_00 = bub_lin @ k_h12 + bub_dd @ self.k_sem
        self.objective = bub_lin @ self.k_lin + bub_dd @ self.k_sem
        self.chol = scipy.linalg.cho_factor(self.objective) if p > 1 else None
        self.norm_gram = np.linalg.norm(self.objective)
        _read_only(self.gram_L2, self.gram_H12_00, self.objective,
                   self.k_lin, self.k_sem)

    def _split(self, vals):
        """Values (..., points) -> (values at the L2 and distance nodes,
        divided differences (r(x) - r(y)) / (x - y) on the flattened Duffy
        grid), formed from values: the difference is taken before the
        division, so nothing cancels where xs is small."""
        nx = len(self.XmY)
        lin, rx, ry = np.split(vals, [self.n_lin, self.n_lin + nx], axis=-1)
        ry = ry.reshape(ry.shape[:-1] + (nx, nx))
        dd = (rx[..., :, None] - ry) / self.XmY
        return lin, dd.reshape(dd.shape[:-2] + (nx * nx,))

    def moments(self, vals):
        """Objective moments p L2 + H^{1/2}_00 against the bubbles of
        traces vanishing at 0 and 1, given by their values (..., points)
        at ``points``."""
        lin, dd = self._split(vals)
        return _rows(lin, self.k_lin) + _rows(dd, self.k_sem)

    def solve(self, r, batch):
        """Minimize the edge objective over bubbles for every function of
        the stack (leading shape ``batch``); returns (coeffs, moments).
        The trace ``r`` is called once, on ``points``."""
        if self.p == 1:
            none = np.zeros(batch + (0,), dtype=complex)
            return none, none
        m = self.moments(r(self.points))
        return _minimize(self, m), m


class _VolumeWork:
    """Interior-minimization tables for the triangle at degree p >= 3."""

    def __init__(self, p):
        self.p = p
        basis = make_scalar_basis(2, p)
        # the data rule, so that the kept tables are those the field
        # path reads
        rule = simplex_quadrature(2, error_exactness(p))
        self.points, w = rule.points, rule.weights
        N, G = reference_tables(basis, rule.points)
        # the basis as rows: values (basis, q) and gradients (basis, 2q),
        # whose columns are (point, component) pairs as in grad_u(...)
        # flattened over its last two axes
        self.N_rows = N[..., 0].T
        self.G_rows = G.transpose(1, 0, 2).reshape(basis.dim, -1)
        self.interior = basis.dof_classes["interior"]
        Ni, Gi = self.N_rows[self.interior], self.G_rows[self.interior]
        # the moment functional p^2 L2 + H1 as weighted tables
        self.k_val = (p**2 + 1) * w[:, None] * Ni.T
        self.k_grad = np.repeat(w, 2)[:, None] * Gi.T
        # the Gram is the moment functional applied to the interior basis
        self.objective = self.moments(Ni, Gi)
        self.chol = scipy.linalg.cho_factor(self.objective)
        self.norm_gram = np.linalg.norm(self.objective)
        _read_only(self.N_rows, self.G_rows, self.k_val, self.k_grad, self.objective)

    def moments(self, r_vals, r_grads):
        """Objective moments p^2 L2 + H1 of residuals with values
        (..., q) and flattened gradients (..., 2q) against the interior
        basis."""
        return _rows(r_vals, self.k_val) + _rows(r_grads, self.k_grad)


def _rows(a, b):
    """The product a @ b of a stack a (..., m) with a matrix b (m, n) as
    one 2D product, where a stacked matmul calls BLAS once per leading
    index."""
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])


def _minimize(work, m):
    """Solve ``work.objective c = m`` for every row of the moments m."""
    flat = m.reshape(-1, m.shape[-1])
    return scipy.linalg.cho_solve(work.chol, flat.T).T.reshape(m.shape)


def _kkt(work, c, m):
    """The largest relative KKT residual |G c - m| / (|G| |c| + |m|) over
    the rows of the coefficients c that :func:`_minimize` gave for the
    moments m (0 where there are no bubbles)."""
    if m.shape[-1] == 0:
        return 0.0
    c, m = c.reshape(-1, m.shape[-1]), m.reshape(-1, m.shape[-1])
    kkt = np.linalg.norm(c @ work.objective - m, axis=1) / (
        work.norm_gram * np.linalg.norm(c, axis=1)
        + np.linalg.norm(m, axis=1) + 1e-300
    )
    return float(np.max(kkt))


_edge_work = cache(_EdgeWork)
_volume_work = cache(_VolumeWork)


def project_reference(u, d, p, grad_u=None):
    """Run the staged minimization for u on the reference simplex.

    ``u`` maps reference points (n, d) to (complex) values (..., n): the
    leading axes, if any, stack functions that are projected at once, one
    row each.  ``grad_u`` maps them to gradients (..., n, d) and is
    required only where an interior stage exists (d = 2, p >= 3).
    Smoothness sufficient for point evaluation at vertices is the
    caller's responsibility.  The step trace, with its KKT residuals, is
    formed when it is first read.
    """
    if d == 3:
        raise NotImplementedError(
            "d = 3 is unsupported: the face stage of the construction is "
            "not implemented"
        )
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}")
    if d == 2 and p >= 3 and grad_u is None:
        raise ValueError("grad_u is required for the interior stage (d=2, p>=3)")

    basis = make_scalar_basis(d, p)
    vertex_vals = np.asarray(u(REFERENCE_VERTICES[d]), dtype=complex)
    batch = vertex_vals.shape[:-1]
    coeffs = np.zeros(batch + (basis.dim,), dtype=complex)
    coeffs[..., : d + 1] = vertex_vals
    edges, volume = [], None
    work = _edge_work(p)

    # the interval is its own single edge (0, 1)
    for l, (i, j) in enumerate(LOCAL_EDGES[d]):
        ui, uj = vertex_vals[..., i, None], vertex_vals[..., j, None]

        def r(t, edge=(i, j), ui=ui, uj=uj):
            pts = local_simplex_points(d, edge, t[:, None])
            return np.asarray(u(pts), dtype=complex) - (ui * (1 - t) + uj * t)

        c, m = work.solve(r, batch)
        coeffs[..., basis.dof_classes["edge"][l]] = c
        edges.append((work, c, m))

    if d == 2 and p >= 3:
        pts = _volume_work(p).points
        volume = _interior_stage(p, coeffs, u(pts), grad_u(pts))
    return ReferenceProjection(p=p, d=d, result=coeffs, vertex=vertex_vals,
                               edges=edges, volume=volume)


def _interior_stage(p, coeffs, vals, grads):
    """The interior stage on the triangle at degree p >= 3: fix, in place,
    the interior coefficients of the stack ``coeffs`` (..., dim), whose
    vertex and edge coefficients are set, from the values (..., q) and
    gradients (..., q, 2) of the function at the points of the volume
    rule.  Returns the step (work, coefficients, moments)."""
    vol = _volume_work(p)
    r_vals = np.asarray(vals, dtype=complex) - _rows(coeffs, vol.N_rows)
    grads = np.asarray(grads, dtype=complex)
    r_grads = grads.reshape(grads.shape[:-2] + (-1,)) - _rows(coeffs, vol.G_rows)
    m = vol.moments(r_vals, r_grads)
    c = _minimize(vol, m)
    coeffs[..., vol.interior] = c
    return vol, c, m


def _directed_edges(mesh):
    """The directed edges the elements walk: their (start, end) vertex
    ids (D, 2), and the directed edge (E, local edges) that each local
    edge (i, j) of each element walks, from its vertex i to its vertex j.
    A directed edge is a global edge (``mesh.elem_edges``) together with
    a direction, reversed where ``mesh.elem_edge_reversed`` says so;
    directed edges are numbered in ascending (global edge, direction)
    order, which depends on the mesh alone."""
    pairs = mesh.elements[:, LOCAL_EDGES[mesh.dim]]
    keys = 2 * mesh.elem_edges + mesh.elem_edge_reversed
    _, first, walk = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return pairs.reshape(-1, 2)[first], walk.reshape(keys.shape)


def _edge_trace(fn, ends, t):
    """Values (edges, 2, n) of ``fn`` at the parameters t (n, 1) of the
    segments from ends[:, 0] to ends[:, 1] (edges, 2, 2), whose points
    are one product of the ends with the barycentric coordinates of t."""
    phys = (ends.swapaxes(1, 2).reshape(-1, 2) @ barycentric(t).T).reshape(
        len(ends), 2, -1).swapaxes(1, 2)
    vals = np.asarray(fn(phys.reshape(-1, 2)), dtype=complex)
    return vals.reshape(phys.shape).swapaxes(1, 2)


def _pull(mesh, elems, fn, jacobian, phys):
    """Piola pull-back of the values (n, 2), or Jacobians (n, 2, 2), of
    ``fn`` at the physical points (elements, n, 2) of ``elems``:
    (elements, 2, n, ...)."""
    vals = np.asarray(fn(phys.reshape(-1, 2)), dtype=complex)
    vals = vals.reshape(phys.shape[:2] + vals.shape[1:])
    return pull_back(mesh, elems, vals, jacobian).swapaxes(1, 2)


def _staged_pull_back(mesh, p, phi, jac_phi):
    """Scalar coefficients (elements, 2, dim) of the staged projection of
    the Piola pull-back det A A^{-1} (phi o F) on every element, one row
    per component (see the module docstring).

    The edge stage is ``project_reference(trace, 1, p)`` over chunks of
    directed edges (:func:`_directed_edges`); the interior stage
    (p >= 3) reads the pulled-back field and its Jacobian on chunks of
    elements.  Every chunk holds at most ``fosls.CHUNK_POINTS`` of the
    points its stage evaluates: the edge point set per directed edge,
    the volume rule per element.
    """
    pairs, walk = _directed_edges(mesh)
    ends = mesh.vertices[pairs]
    # (directed edges, component, 1D coefficient): endpoint values, bubbles
    edges = np.concatenate([
        project_reference(partial(_edge_trace, phi, ends[s]), 1, p).result
        for s in chunks(len(pairs), _edge_work(p).points.size)
    ])
    elems = np.arange(len(mesh.elements))
    walked = pull_back(mesh, elems, edges[walk].swapaxes(-1, -2).reshape(len(elems), -1, 2))
    walked = walked.reshape(walk.shape + (p + 1, 2)).transpose(0, 3, 1, 2)
    line, basis = make_scalar_basis(1, p).dof_classes, make_scalar_basis(2, p)
    comp = np.zeros((len(elems), 2, basis.dim), dtype=complex)
    for l, (edge, cols) in enumerate(zip(LOCAL_EDGES[2], basis.dof_classes["edge"])):
        comp[..., list(edge)] = walked[:, :, l, line["vertex"]]
        comp[..., cols] = walked[:, :, l, line["edge"][0]]
    if p >= 3:
        pts = _volume_work(p).points
        for s in chunks(len(elems), len(pts)):
            # the chunk's volume points, mapped once for phi and its Jacobian
            phys = element_map_apply(mesh, elems[s], pts)
            _interior_stage(p, comp[s], _pull(mesh, elems[s], phi, False, phys),
                            _pull(mesh, elems[s], jac_phi, True, phys))
    return comp


def project_hdiv_global(phi, space, jac_phi=None, return_max_mismatch=False):
    """Project a smooth vector field into the global flux space.

    On every element the staged reference projection is applied to the
    Piola pull-back of the field, component by component, with its edge
    stage run once per directed mesh edge (see the module docstring),
    and the BDM coefficients of all elements come from one solve.
    Because each edge stage depends only on the trace there, the two
    elements adjacent to a facet assign the same normal-moment dofs (up
    to roundoff, reported as the optional mismatch: the largest
    difference between the global value of a dof and the value one of
    its elements assigns), so the result is H(div)-conforming.

    ``phi`` maps physical points (n, 2) to values (n, 2); ``jac_phi``
    returns (n, 2, 2) Jacobians d phi_i / d x_j and is required for
    p >= 3.
    """
    if space.kind != KIND_HDIV:
        raise ValueError("project_hdiv_global expects a vector-hdiv space")
    p = space.p
    if p >= 3 and jac_phi is None:
        raise ValueError("jac_phi is required for p >= 3")
    n_elems = len(space.mesh.elements)
    local = np.linalg.solve(space.basis.coeffs, _staged_pull_back(
        space.mesh, p, phi, jac_phi).reshape(n_elems, -1).T)
    coeffs = _scatter_local(space, local)
    if return_max_mismatch:
        mismatch = np.max(np.abs(space.elem_signs * coeffs[space.elem_dofs] - local.T))
        return coeffs, float(mismatch)
    return coeffs
