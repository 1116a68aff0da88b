"""Hierarchical polynomial bases and quadrature on reference simplices.

The scalar basis splits into vertex, edge and interior functions so that
traces on sub-entities are controlled by dedicated coefficients.  One
formula serves the interval and the triangle, read off the reference
simplex of ``mesh`` (its barycentric coordinates lam and its local edges):

* vertex functions are the barycentric coordinates (hat functions),
* edge functions are lam_i lam_j P_m(lam_j - lam_i) with Legendre
  kernels P_m over the local edges (i, j), vanishing on the other edges,
* interior functions (triangle only) carry the full bubble
  lam_0 lam_1 lam_2.

The interval is its own single edge, so its edge functions are its
bubbles (1-t) t P_m(2t-1), and these are exactly the edge traces of the
triangle functions.  ``ScalarBasis.dof_classes`` states this split once;
it is the layout ``spaces`` numbers S_p (and, from ``BdmBasis``'s own
``dof_classes``, BDM_p) from, and the one the projection fixes in
order.  Bases and quadrature rules are immutable value
objects: a basis computes its tables on every call and keeps none.
``make_scalar_basis`` returns one shared basis per (d, p) for the whole
process; ``spaces.reference_tables`` keeps the tables of each (basis,
point set) that assembly, field evaluation and the BDM basis read.

Quadrature rules are built once per argument and cached: ``gauss01``
and ``simplex_quadrature`` return the same read-only arrays to every
caller, so no caller can corrupt a shared rule.  Every rule is
Gauss-Legendre on [0, 1] from numpy, requested by the polynomial degree
it must integrate exactly: on the triangle as a collapsed tensor rule,
with the area factor of the collapse folded into the weights.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from .mesh import LOCAL_EDGES, barycentric


def legendre_table(x, n):
    """Values and derivatives of P_0..P_n at points x in [-1, 1].

    Returns two arrays of shape (len(x), n+1).  Derivatives follow the
    recurrence P'_m = P'_{m-2} + (2m-1) P_{m-1}.
    """
    x = np.asarray(x, dtype=float)
    if n < 0:
        return np.zeros((len(x), 0)), np.zeros((len(x), 0))
    vals = npleg.legvander(x, n)
    ders = np.zeros_like(vals)
    if n >= 1:
        ders[:, 1] = 1.0
    for m in range(2, n + 1):
        ders[:, m] = ders[:, m - 2] + (2 * m - 1) * vals[:, m - 1]
    return vals, ders


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class ScalarBasis:
    """Hierarchical basis of P_p on the reference simplex.

    ``dof_classes`` partitions the basis indices into ``vertex``,
    ``edge`` (one list per local edge of ``mesh.LOCAL_EDGES[d]``) and
    ``interior`` (the triangle bubbles; empty on the interval, whose
    single edge is the element itself).  ``edge_dof_signs`` (2, local
    edges, p-1) holds the sign of the m-th edge function on a kept and on
    a reversed local edge (``mesh.elem_edge_reversed``): 1 and (-1)^m.
    """

    def __init__(self, d, p):
        self.d = d
        self.p = p
        self.dim = math.comb(p + d, d)
        n_edge, n_edges = p - 1, len(LOCAL_EDGES[d])
        self.dof_classes = {
            "vertex": list(range(d + 1)),
            "edge": [list(range(d + 1 + l * n_edge, d + 1 + (l + 1) * n_edge))
                     for l in range(n_edges)],
            "interior": list(range(d + 1 + n_edges * n_edge, self.dim)),
        }
        parity = np.tile((-1.0) ** np.arange(n_edge), (n_edges, 1))
        self.edge_dof_signs = _read_only(np.array([np.ones_like(parity), parity]))[0]
        # gradients of the barycentric coordinates
        self._dlam = np.vstack([-np.ones(d), np.eye(d)])

    def eval(self, points):
        """Basis values at reference points; shape (n_points, dim)."""
        return self.eval_with_grad(points)[0]

    def grad(self, points):
        """Basis gradients at reference points; shape (n_points, dim, d)."""
        return self.eval_with_grad(points)[1]

    def eval_with_grad(self, points):
        """(values (n_points, dim), gradients (n_points, dim, d))."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d, p, dlam = self.d, self.p, self._dlam
        lam = barycentric(pts)
        vals = np.empty((len(pts), self.dim))
        grads = np.empty((len(pts), self.dim, d))
        vals[:, :d + 1] = lam
        grads[:, :d + 1] = dlam

        # lam_i lam_j P_m(lam_j - lam_i), m = 0..p-2, on each local edge
        for (i, j), cols in zip(LOCAL_EDGES[d], self.dof_classes["edge"]):
            li, lj = lam[:, i], lam[:, j]
            P, dP = legendre_table(lj - li, p - 2)
            w = li * lj
            dw = lj[:, None] * dlam[i] + li[:, None] * dlam[j]
            vals[:, cols] = w[:, None] * P
            grads[:, cols] = (dw[:, None, :] * P[:, :, None]
                              + (w[:, None] * dP)[:, :, None] * (dlam[j] - dlam[i]))

        # triangle bubbles lam_0 lam_1 lam_2 P_a(lam_1 - lam_0) P_b(2 lam_2 - 1),
        # a + b <= p - 3
        if d == 2 and p >= 3:
            l0, l1, l2 = lam.T
            bub = l0 * l1 * l2
            dbub = ((l1 * l2)[:, None] * dlam[0] + (l0 * l2)[:, None] * dlam[1]
                    + (l0 * l1)[:, None] * dlam[2])
            P1, dP1 = legendre_table(l1 - l0, p - 3)
            P2, dP2 = legendre_table(2 * l2 - 1, p - 3)
            a, b = np.array([(i, n - i) for n in range(p - 2) for i in range(n + 1)]).T
            q = P1[:, a] * P2[:, b]
            dq = ((dP1[:, a] * P2[:, b])[:, :, None] * (dlam[1] - dlam[0])
                  + (P1[:, a] * dP2[:, b])[:, :, None] * (2 * dlam[2]))
            cols = self.dof_classes["interior"]
            vals[:, cols] = bub[:, None] * q
            grads[:, cols] = dbub[:, None, :] * q[:, :, None] + bub[:, None, None] * dq
        return vals, grads


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Quadrature points and weights on the reference simplex.  Rules
    compare and hash by identity: :func:`simplex_quadrature` hands out one
    instance per (d, exactness), which caches may key on."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int


@functools.cache
def gauss01(n):
    """Gauss-Legendre nodes/weights on [0, 1]; exact to degree 2n-1.
    Cached; the arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (x + 1), 0.5 * w)


@functools.cache
def simplex_quadrature(d, exactness):
    """Quadrature on the reference simplex exact to the given degree.

    0D (a facet of the interval): the one point, with no coordinates and
    weight 1.  1D: Gauss-Legendre on [0, 1] with exactness // 2 + 1 points.  2D:
    collapsed Gauss-Legendre on the unit triangle, x = u(1-v), y = v,
    with the area factor 1-v of the collapse folded into the v weights.
    It has (exactness + 3) // 2 points per direction, since x^a y^b (1-v)
    has degree a + b + 1 in v; for even exactness that is
    exactness // 2 + 1.  Cached; the arrays are read-only.
    """
    if d not in (0, 1, 2):
        raise ValueError(f"unsupported dimension {d}")
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    if d == 0:
        return QuadratureRule(*_read_only(np.zeros((1, 0)), np.ones(1)), exactness)
    if d == 1:
        t, w = gauss01(exactness // 2 + 1)
        return QuadratureRule(t[:, None], w, exactness)
    t, wt = gauss01((exactness + 3) // 2)
    u, v = np.meshgrid(t, t, indexing="ij")
    x = (u * (1 - v)).ravel()
    y = v.ravel()
    w = np.outer(wt, wt * (1 - t)).ravel()
    return QuadratureRule(*_read_only(np.column_stack([x, y]), w), exactness)


@functools.cache
def make_scalar_basis(d, p):
    """Hierarchical basis of P_p; p >= 1 (vertex dofs are required).
    One shared instance per (d, p), built on first use."""
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}")
    if p < 1:
        raise ValueError("degree p must be at least 1")
    return ScalarBasis(d, p)
