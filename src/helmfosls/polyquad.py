"""Hierarchical polynomial bases and quadrature on reference simplices.

The scalar basis splits into vertex, edge and interior functions so that
traces on sub-entities are controlled by dedicated coefficients:

* vertex functions are the barycentric coordinates (hat functions),
* edge functions are lam_i lam_j P_m(lam_j - lam_i) with Legendre
  kernels P_m, vanishing on the other edges,
* interior functions carry the full bubble lam_0 lam_1 lam_2.

On the interval the same family appears as {1-t, t} plus the bubbles
t(1-t) P_m(2t-1), which are exactly the edge traces of the triangle
functions.  Bases and quadrature rules are immutable value objects; a
basis keeps the read-only tables of its most recently used point sets
in a small bounded cache, so kernels that ask for one rule per element
chunk and field evaluate it once.

Quadrature rules are built once per argument and cached: ``gauss01``
and ``simplex_quadrature`` return the same read-only arrays to every
caller, so no caller can corrupt a shared rule.  The Gauss-Jacobi rule
behind the collapsed triangle rule is computed in numpy by Golub-Welsch
(eigenvalues of the symmetric tridiagonal Jacobi matrix), which keeps
scipy.special out of the import.
"""

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg


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


class ScalarBasis:
    """Hierarchical basis of P_p on the reference simplex.

    ``dof_classes`` partitions the basis indices into ``vertex``,
    ``edge`` (one list per local edge in 2D) and ``interior``.
    """

    def __init__(self, d, p):
        self.d = d
        self.p = p
        if d == 1:
            self.dim = p + 1
            self.dof_classes = {
                "vertex": [0, 1],
                "edge": [],
                "interior": list(range(2, p + 1)),
            }
        else:
            self.dim = (p + 1) * (p + 2) // 2
            nb_edge = p - 1
            edge = [
                list(range(3 + l * nb_edge, 3 + (l + 1) * nb_edge))
                for l in range(3)
            ]
            self.dof_classes = {
                "vertex": [0, 1, 2],
                "edge": edge,
                "interior": list(range(3 + 3 * nb_edge, self.dim)),
            }
        # read-only tables per point set, least recently used first
        self._tables = collections.OrderedDict()
        # interior kernel index pairs (a, b) with a + b <= p - 3 in 2D
        if d == 2:
            self._bubble_pairs = [
                (a, total - a) for total in range(p - 2) for a in range(total + 1)
            ]

    # local edges of the reference triangle, ascending local vertex pairs
    EDGES = ((0, 1), (0, 2), (1, 2))
    # point sets whose tables are kept: a 2D study asks one basis for at
    # most 15 (volume rules, boundary-edge sets, both error passes), and
    # the bound keeps ad-hoc point sets from growing the cache without limit
    TABLE_CACHE_SIZE = 16

    def eval(self, points):
        """Basis values at reference points; shape (n_points, dim)."""
        return self.eval_with_grad(points)[0]

    def grad(self, points):
        """Basis gradients at reference points; shape (n_points, dim, d)."""
        return self.eval_with_grad(points)[1]

    def eval_with_grad(self, points):
        """(values, gradients), read-only.  The tables are kept per point
        set, for the ``TABLE_CACHE_SIZE`` most recently used sets: batched
        kernels ask for the same reference rules once per element chunk
        and field."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        key = (pts.shape, pts.tobytes())
        tables = self._tables.get(key)
        if tables is not None:
            self._tables.move_to_end(key)
            return tables
        tables = self._eval_1d(pts) if self.d == 1 else self._eval_2d(pts)
        _read_only(*tables)
        self._tables[key] = tables
        if len(self._tables) > self.TABLE_CACHE_SIZE:
            self._tables.popitem(last=False)
        return tables

    def _eval_1d(self, pts):
        t = pts[:, 0]
        n, p = len(t), self.p
        vals = np.empty((n, self.dim))
        grads = np.empty((n, self.dim, 1))
        vals[:, 0], vals[:, 1] = 1 - t, t
        grads[:, 0, 0], grads[:, 1, 0] = -1.0, 1.0
        if p >= 2:
            P, dP = legendre_table(2 * t - 1, p - 2)
            w = t * (1 - t)
            vals[:, 2:] = w[:, None] * P
            grads[:, 2:, 0] = (1 - 2 * t)[:, None] * P + 2 * w[:, None] * dP
        return vals, grads

    def _eval_2d(self, pts):
        x, y = pts[:, 0], pts[:, 1]
        n, p = len(x), self.p
        lam = np.column_stack([1 - x - y, x, y])
        dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        vals = np.empty((n, self.dim))
        grads = np.empty((n, self.dim, 2))
        vals[:, :3] = lam
        grads[:, :3, :] = dlam[None, :, :]

        col = 3
        if p >= 2:
            for (i, j) in self.EDGES:
                li, lj = lam[:, i], lam[:, j]
                P, dP = legendre_table(lj - li, p - 2)
                dxi = dlam[j] - dlam[i]
                w = li * lj
                dw = np.outer(lj, dlam[i]) + np.outer(li, dlam[j])
                for m in range(p - 1):
                    vals[:, col] = w * P[:, m]
                    grads[:, col, :] = (
                        dw * P[:, m][:, None]
                        + (w * dP[:, m])[:, None] * dxi[None, :]
                    )
                    col += 1
        if p >= 3:
            bub = lam[:, 0] * lam[:, 1] * lam[:, 2]
            dbub = (
                np.outer(lam[:, 1] * lam[:, 2], dlam[0])
                + np.outer(lam[:, 0] * lam[:, 2], dlam[1])
                + np.outer(lam[:, 0] * lam[:, 1], dlam[2])
            )
            xi1 = lam[:, 1] - lam[:, 0]
            xi2 = 2 * lam[:, 2] - 1
            dxi1 = dlam[1] - dlam[0]
            dxi2 = 2 * dlam[2]
            P1, dP1 = legendre_table(xi1, p - 3)
            P2, dP2 = legendre_table(xi2, p - 3)
            for (a, b) in self._bubble_pairs:
                q = P1[:, a] * P2[:, b]
                dq = (
                    np.outer(dP1[:, a] * P2[:, b], dxi1)
                    + np.outer(P1[:, a] * dP2[:, b], dxi2)
                )
                vals[:, col] = bub * q
                grads[:, col, :] = dbub * q[:, None] + bub[:, None] * dq
                col += 1
        return vals, grads


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points and weights on the reference simplex."""

    points: np.ndarray
    weights: np.ndarray
    exactness: int


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.cache
def gauss01(n):
    """Gauss-Legendre nodes/weights on [0, 1]; exact to degree 2n-1.
    Cached; the arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (x + 1), 0.5 * w)


def _jacobi_orthonormal(x, diag, off, mu0):
    """Orthonormal polynomials q_0..q_n of the Jacobi matrix (diagonal
    a_0..a_{n-1}, off-diagonal b_1..b_n, weight mass ``mu0``) and their
    derivatives at x, by the three-term recurrence
    b_{j+1} q_{j+1} = (x - a_j) q_j - b_j q_{j-1}; shapes (n+1, len(x))."""
    n = len(off)
    q = np.zeros((n + 2, len(x)))
    dq = np.zeros_like(q)
    q[1] = 1.0 / math.sqrt(mu0)  # row 0 holds q_{-1} = 0
    prev = np.concatenate([[0.0], off])  # b_0 = 0
    for j in range(n):
        t = x - diag[j]
        q[j + 2] = (t * q[j + 1] - prev[j] * q[j]) / off[j]
        dq[j + 2] = (q[j + 1] + t * dq[j + 1] - prev[j] * dq[j]) / off[j]
    return q[1:], dq[1:]


def gauss_jacobi01(n, alpha, beta):
    """Nodes/weights for int_0^1 f(s) (1-s)^alpha s^beta ds; alpha, beta >= 0.

    Golub-Welsch: the nodes on [-1, 1] are the eigenvalues of the
    symmetric tridiagonal Jacobi matrix of (1-x)^alpha (1+x)^beta,
    polished by one Newton step on the orthonormal q_n.  The weights are
    1 / sum_{j<n} q_j(x)^2 (the Christoffel function), which is accurate
    to a few ulps where the squared eigenvector components are not.
    """
    a, b = float(alpha), float(beta)
    m = np.arange(1.0, n + 1)
    s = 2 * m + a + b
    # recurrence coefficients a_0..a_{n-1} (diagonal) and b_1..b_n
    diag = np.concatenate([[(b - a) / (a + b + 2)],
                           (b * b - a * a) / (s[:-1] * (s[:-1] + 2))])
    off = np.sqrt(4 * m * (m + a) * (m + b) * (m + a + b) / (s * s * (s + 1) * (s - 1)))
    mu0 = 2 ** (a + b + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], 1) + np.diag(off[:-1], -1))
    q, dq = _jacobi_orthonormal(x, diag, off, mu0)
    x = x - q[n] / dq[n]
    q, _ = _jacobi_orthonormal(x, diag, off, mu0)
    w = 1.0 / np.sum(q[:n] ** 2, axis=0)
    return 0.5 * (x + 1), w / 2 ** (a + b + 1)


@functools.cache
def simplex_quadrature(d, exactness):
    """Quadrature on the reference simplex exact to the given degree.

    1D: Gauss-Legendre on [0, 1].  2D: collapsed tensor rule on the unit
    triangle, Gauss-Legendre in the collapsed direction and Gauss-Jacobi
    (weight 1-v) in the other, so the Duffy Jacobian is absorbed into
    the weight function.  Cached; the arrays are read-only.
    """
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}")
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    n = exactness // 2 + 1
    if d == 1:
        t, w = gauss01(n)
        return QuadratureRule(t[:, None], w, exactness)
    u, wu = gauss01(n)
    v, wv = gauss_jacobi01(n, 1, 0)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = (uu * (1 - vv)).ravel()
    y = vv.ravel()
    w = np.outer(wu, wv).ravel()
    return QuadratureRule(*_read_only(np.column_stack([x, y]), w), exactness)


def make_scalar_basis(d, p):
    """Hierarchical basis of P_p; p >= 1 (vertex dofs are required)."""
    if d not in (1, 2):
        raise ValueError(f"unsupported dimension {d}")
    if p < 1:
        raise ValueError("degree p must be at least 1")
    return ScalarBasis(d, p)
