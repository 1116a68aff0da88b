"""Reference computations that the tests check the library against and
that no pipeline runs: exact interpolants of per-element polynomials,
points on a facet and their pull-back to an element, the orientation of
facet normals and edge dofs from geometry, the least-squares bilinear
form b on arbitrary pairs, and the tail slope of a convergence
sequence."""

import itertools
from typing import NamedTuple

import numpy as np

from helmfosls.analysis import eoc_pairs
from helmfosls.fosls import (
    DiscreteSolution,
    error_exactness,
    impedance_trace,
    ls_residuals,
    pair_fields,
    sweep,
)
from helmfosls.mesh import LOCAL_EDGES, element_map_apply
from helmfosls.spaces import KIND_HDIV, _scatter_local, pull_back

# -- polynomial interpolation (exact on per-element polynomials)


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


# -- facets


def facet_points(mesh, facet_id, t):
    """Physical points on a facet of ``mesh`` at parameters ``t`` in [0, 1].

    The parameterization runs from the lower to the higher global
    vertex index; in 1D it collapses to the single facet vertex.
    """
    ids = mesh.facet_vertices[facet_id]
    if mesh.dim == 1:
        return np.repeat(mesh.vertices[ids], len(t), axis=0)
    a, b = mesh.vertices[ids]
    t = np.asarray(t, dtype=float)
    return a[None, :] * (1 - t)[:, None] + b[None, :] * t[:, None]


def to_reference(mesh, elem, points):
    """Pull physical points back to reference coordinates of ``elem``."""
    rel = np.atleast_2d(points) - mesh.maps_b[elem]
    return rel @ mesh.inv_A[elem].T


def elem_facet_signs(mesh):
    """(E, d+1): +1 where the stored normal (``facet_normals``) of each
    local facet points out of the element, that is where the element is
    the facet's first, and -1 where it points in."""
    ne = len(mesh.elements)
    return np.where(mesh.facet_elems[mesh.elem_facets, 0] == np.arange(ne)[:, None], 1.0, -1.0)


def geometric_edge_signs(space):
    """The signs (E, local edges, n) of the n functions of every local
    edge of ``space``, from geometry: (-1)^m for the m-th function of a
    local edge (i, j) that runs from the larger to the smaller global
    vertex id, else 1; for BDM_p, times the sign between the element's
    outward normal (``facet_normals`` times :func:`elem_facet_signs`) and
    the canonical normal of the facet, the clockwise turn of its tangent
    from the smaller to the larger vertex id."""
    mesh = space.mesh
    n = len(space.basis.dof_classes["edge"][0])
    i, j = np.array(LOCAL_EDGES[mesh.dim]).T
    reversed_ = (mesh.elements[:, i] > mesh.elements[:, j])[:, :, None]
    signs = np.where(reversed_, (-1.0) ** np.arange(n), 1.0)
    if space.kind != KIND_HDIV:
        return signs
    corners = mesh.vertices[mesh.facet_vertices]
    canon = (corners[:, 1] - corners[:, 0])[:, ::-1] * [1.0, -1.0]
    canon_match = np.where(np.einsum("fd,fd->f", mesh.facet_normals, canon) > 0, 1.0, -1.0)
    return signs * (elem_facet_signs(mesh) * canon_match[mesh.elem_facets])[:, :, None]


# -- the least-squares bilinear form


class _Difference(NamedTuple):
    a: object
    b: object


def difference(a, b):
    """The pointwise difference a - b of two pairs, itself a pair."""
    return _Difference(a, b)


def _fields(pair, elems, ref, phys):
    """(phi, div phi, u, grad u) of a DiscreteSolution, an ExactBundle or
    a :func:`difference` of pairs on a group of ``fosls.sweep``; a
    solution without flux (classical FEM) has phi = 0."""
    if isinstance(pair, _Difference):
        fa, fb = (_fields(p, elems, ref, phys) for p in pair)
        return tuple(x - y for x, y in zip(fa, fb))
    if isinstance(pair, DiscreteSolution) and pair.phi_coeffs is None:
        u, gu = pair_fields(pair, elems, ref, phys, order=1)
        return np.zeros(gu.shape, complex), np.zeros(u.shape, complex), u, gu
    return pair_fields(pair, elems, ref, phys)


def evaluate_b(pair_a, pair_b, w_space, k, breakpoints=()):
    """b(pair_a, pair_b) by quadrature on the error rule of the degree of
    ``w_space`` (which also gives the mesh), panel-split at
    ``breakpoints``: the rule of ``compute_errors`` and the plan of
    assembly's data, so b(e, e) = e1^2 + e2^2 + k e_bnd^2 and
    b(exact, y) = y^H F hold to rounding."""
    total = 0.0 + 0.0j
    for elems, ref, phys, scales, (wts,), normals in sweep(
            w_space.mesh, (error_exactness(w_space.p),), breakpoints):
        fa, fb = (_fields(pair, elems, ref, phys) for pair in (pair_a, pair_b))
        if normals is None:
            (ra1, ra2), (rb1, rb2) = ls_residuals(fa, k), ls_residuals(fb, k)
            density = np.einsum("eqd,eqd->eq", ra1, rb1.conj()) + ra2 * rb2.conj()
        else:
            density = k * impedance_trace(fa, normals) * impedance_trace(fb, normals).conj()
        total += scales @ density @ wts
    return total


# -- convergence rates


def tail_slope(h, errors, n_tail=3):
    """Least-squares slope of log(e) vs log(h) over the last rows."""
    h = np.asarray(h, dtype=float)[-n_tail:]
    e = np.asarray(errors, dtype=float)[-n_tail:]
    if len(h) < 2:
        raise ValueError("need at least 2 rows for a slope")
    slope, _ = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope)


def empirical_order(table, quantity="l2_rel"):
    """Per-series rates of a ``ConvergenceTable``: pairwise orders and
    the asymptotic tail slope.

    Rows outside the asymptotic regime still show up in the pairwise
    list; the tail slope uses the last three refinement levels only.
    """
    out = {}
    for key, rows in table.series().items():
        if len(rows) < 2:
            raise ValueError(
                f"series {key} has fewer than 2 rows; cannot form rates"
            )
        h = [r.h for r in rows]
        e = [getattr(r.errors, quantity) for r in rows]
        out[key] = {
            "h": h,
            "pairwise": eoc_pairs(h, e),
            "tail": tail_slope(h, e),
        }
    return out
