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
y = x(1-s) once, since every row of the (x, y) grid shares its x.  Each
stage writes its inner product once, as the moments of a residual
against its basis: products of the residual values (and, for the edge,
its divided differences; for the volume, its gradients) with read-only
weighted tables, built lazily once per degree.  Its Gram is the moments
of that basis itself.  A stack of functions is projected at once, one
row per function, and the rows do not interact.
"""

from dataclasses import dataclass
from functools import cache, partial

import numpy as np
import scipy.linalg

from .fosls import chunks
from .mesh import LOCAL_EDGES, REFERENCE_VERTICES, element_map_apply
from .polyquad import _read_only, gauss01, make_scalar_basis, simplex_quadrature
from .spaces import KIND_HDIV, _scatter_local, edge_reference_points, pull_back


@dataclass(frozen=True)
class EdgeNormGram:
    """Gram matrices of the edge polynomial basis on (0, 1).

    ``gram_L2`` covers the full (p+1)-dimensional trace basis
    {1-t, t, bubbles}; ``gram_H12_00`` holds the H^{1/2}_00 inner product
    on the (p-1)-dimensional bubble sub-basis, where the vertex-matching
    constraint has been eliminated (the product is finite only for
    functions vanishing at the endpoints).
    """

    p: int
    gram_L2: np.ndarray
    gram_H12_00: np.ndarray


@dataclass
class ReferenceProjection:
    """Result of the staged projection: coefficients in the hierarchical
    basis plus a per-step trace of sub-solutions and KKT residuals."""

    p: int
    d: int
    result: np.ndarray
    step_trace: dict


class _EdgeWork:
    """Quadrature tables and Grams for the edge minimization at degree p.

    Every term of the edge inner product reads the trace at one point
    set, ``points``: the Gauss nodes t of the L2 term, the nodes t/2 and
    1 - t/2 of the distance-weighted term, and the Duffy nodes
    x and y = x(1-s) of the Slobodeckij double integral.  A stage
    evaluates its residual there once.
    """

    def __init__(self, p):
        self.p = p
        basis = make_scalar_basis(1, p)

        # plain Gauss data for the L2 term (and the full trace-basis Gram)
        tq, wq = gauss01(p + 6)
        trace = basis.eval(tq[:, None])
        self.gram_l2_full = np.einsum("q,qi,qj->ij", wq, trace, trace)

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

        # one row per bubble t(1-t) P_m(2t-1) at every point
        bub_lin, bub_dd = self._split(basis.eval(self.points[:, None])[:, 2:].T)
        w_l2 = np.concatenate([wq, np.zeros(2 * len(t_left))])
        w_d = np.concatenate([np.zeros(len(tq)), w_dist, w_dist])
        w_sem = (2.0 * w[:, None] * w[None, :] * x[:, None]).ravel()

        # the moment functionals as weighted tables: the objective
        # p L2 + H^{1/2}_00 is k_lin, k_sem; H^{1/2}_00 alone swaps k_lin
        # for k_h12.  The Grams are the moments of the bubbles themselves.
        self.k_lin = ((p + 1) * w_l2 + w_d)[:, None] * bub_lin.T
        k_h12 = (w_l2 + w_d)[:, None] * bub_lin.T
        self.k_sem = w_sem[:, None] * bub_dd.T
        self.gram_h12 = bub_lin @ k_h12 + bub_dd @ self.k_sem
        self.objective = bub_lin @ self.k_lin + bub_dd @ self.k_sem
        self.chol = scipy.linalg.cho_factor(self.objective) if p > 1 else None
        self.norm_gram = np.linalg.norm(self.objective)
        _read_only(self.gram_l2_full, self.gram_h12, self.objective,
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
        return lin @ self.k_lin + dd @ self.k_sem

    def solve(self, r, batch):
        """Minimize the edge objective over bubbles for every function of
        the stack (leading shape ``batch``); returns (coeffs, kkt).  The
        trace ``r`` is called once, on ``points``."""
        if self.p == 1:
            return np.zeros(batch + (0,), dtype=complex), 0.0
        return _minimize(self, self.moments(r(self.points)))


class _VolumeWork:
    """Interior-minimization tables for the triangle at degree p >= 3."""

    def __init__(self, p):
        self.p = p
        basis = make_scalar_basis(2, p)
        rule = simplex_quadrature(2, 2 * p + 8)
        self.points, w = rule.points, rule.weights
        N, G = basis.eval_with_grad(rule.points)
        # the basis as rows: values (basis, q) and gradients (basis, 2q),
        # whose columns are (point, component) pairs as in grad_u(...)
        # flattened over its last two axes
        self.N_rows = N.T
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
        return r_vals @ self.k_val + r_grads @ self.k_grad

    def solve(self, r_vals, r_grads):
        return _minimize(self, self.moments(r_vals, r_grads))


def _minimize(work, m):
    """Solve ``work.objective c = m`` for every row of the moments m.

    Returns (c, kkt) with kkt the largest relative KKT residual
    |G c - m| / (|G| |c| + |m|) over the rows.
    """
    flat = m.reshape(-1, m.shape[-1])
    c = scipy.linalg.cho_solve(work.chol, flat.T).T
    kkt = np.linalg.norm(c @ work.objective - flat, axis=1) / (
        work.norm_gram * np.linalg.norm(c, axis=1)
        + np.linalg.norm(flat, axis=1) + 1e-300
    )
    return c.reshape(m.shape), float(np.max(kkt))


_edge_work = cache(_EdgeWork)
_volume_work = cache(_VolumeWork)


def h12_00_gram(p):
    """Edge Gram matrices at degree p (cached, shared read-only)."""
    if p < 1:
        raise ValueError("degree p must be at least 1")
    work = _edge_work(p)
    return EdgeNormGram(p=p, gram_L2=work.gram_l2_full, gram_H12_00=work.gram_h12)


def project_reference(u, d, p, grad_u=None):
    """Run the staged minimization for u on the reference simplex.

    ``u`` maps reference points (n, d) to (complex) values (..., n): the
    leading axes, if any, stack functions that are projected at once, one
    row each.  ``grad_u`` maps them to gradients (..., n, d) and is
    required only where an interior stage exists (d = 2, p >= 3).
    Smoothness sufficient for point evaluation at vertices is the
    caller's responsibility.  Each ``kkt`` in the step trace is the
    largest over the stack.
    """
    if d == 3:
        raise NotImplementedError(
            "d = 3 is unsupported: the face stage of the construction is "
            "not implemented"
        )
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}")
    if p < 1:
        raise ValueError("degree p must be at least 1")
    if d == 2 and p >= 3 and grad_u is None:
        raise ValueError("grad_u is required for the interior stage (d=2, p>=3)")

    basis = make_scalar_basis(d, p)
    vertex_vals = np.asarray(u(REFERENCE_VERTICES[d]), dtype=complex)
    batch = vertex_vals.shape[:-1]
    coeffs = np.zeros(batch + (basis.dim,), dtype=complex)
    coeffs[..., : d + 1] = vertex_vals
    trace = {"vertex": vertex_vals, "edge": [], "volume": None}
    work = _edge_work(p)

    # the interval is its own single edge (0, 1)
    for l, (i, j) in enumerate(LOCAL_EDGES[d]):
        ui, uj = vertex_vals[..., i, None], vertex_vals[..., j, None]

        def r(t, l=l, ui=ui, uj=uj):
            pts = edge_reference_points(l, t, d)
            return np.asarray(u(pts), dtype=complex) - (ui * (1 - t) + uj * t)

        c, kkt = work.solve(r, batch)
        coeffs[..., basis.dof_classes["edge"][l]] = c
        trace["edge"].append({"coeffs": c, "kkt": kkt})

    if d == 2 and p >= 3:
        vol = _volume_work(p)
        pts = vol.points
        r_vals = np.asarray(u(pts), dtype=complex) - coeffs @ vol.N_rows
        grads = np.asarray(grad_u(pts), dtype=complex)
        r_grads = grads.reshape(grads.shape[:-2] + (-1,)) - coeffs @ vol.G_rows
        c, kkt = vol.solve(r_vals, r_grads)
        coeffs[..., vol.interior] = c
        trace["volume"] = {"coeffs": c, "kkt": kkt}
    return ReferenceProjection(p=p, d=d, result=coeffs, step_trace=trace)


def _pull(mesh, elems, fn, jacobian, pts):
    """Piola pull-back of the values (n, 2), or Jacobians (n, 2, 2), of
    ``fn`` on every element of ``elems``: (elements, 2, n, ...)."""
    phys = element_map_apply(mesh, elems, pts)
    vals = np.asarray(fn(phys.reshape(-1, 2)), dtype=complex)
    vals = vals.reshape(phys.shape[:2] + vals.shape[1:])
    return pull_back(mesh, elems, vals, jacobian).swapaxes(1, 2)


def project_hdiv_global(phi, space, jac_phi=None, return_max_mismatch=False):
    """Project a smooth vector field into the global flux space.

    The elements are taken in chunks whose edge-stage point sets, the
    largest a stage evaluates, fit in ``fosls.CHUNK_POINTS``.  On a chunk
    the field is pulled back by the Piola transform of every element
    once per stage, one staged projection runs on the stack of (element,
    component) functions and the BDM coefficients of all its elements
    come from one solve.  Because each edge stage depends only on the
    trace there, the two elements adjacent to a facet assign the same
    normal-moment dofs (up to roundoff, reported as the optional
    mismatch: the largest difference between the global value of a dof
    and the value one of its elements assigns), so the result is
    H(div)-conforming.

    ``phi`` maps physical points (n, 2) to values (n, 2); ``jac_phi``
    returns (n, 2, 2) Jacobians d phi_i / d x_j and is required for
    p >= 3.
    """
    if space.kind != KIND_HDIV:
        raise ValueError("project_hdiv_global expects a vector-hdiv space")
    p = space.p
    if p >= 3 and jac_phi is None:
        raise ValueError("jac_phi is required for p >= 3")
    mesh = space.mesh
    local = []
    # the largest reference point set is that of an edge stage
    for s in chunks(len(mesh.elements), _edge_work(p).points.size):
        elems = np.arange(len(mesh.elements))[s]
        pull = partial(_pull, mesh, elems)
        grad = None if jac_phi is None else partial(pull, jac_phi, True)
        comp = project_reference(partial(pull, phi, False), 2, p, grad_u=grad)
        local.append(np.linalg.solve(
            space.basis.coeffs, comp.result.reshape(len(elems), -1).T
        ))
    local = np.concatenate(local, axis=1)
    coeffs = _scatter_local(space, local)
    if return_max_mismatch:
        mismatch = np.max(np.abs(space.elem_signs * coeffs[space.elem_dofs] - local.T))
        return coeffs, float(mismatch)
    return coeffs
