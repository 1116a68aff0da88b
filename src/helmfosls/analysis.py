"""Error norms, resolution measures and empirical convergence rates.

Error integrals sample the exact solution directly at quadrature points
(exactness 2p + 8 by default) and re-run with a doubled rule; the
relative drift between the two is reported so that quadrature-limited
numbers are visible.  The least-squares residual components

    e1 = || ik (phi - phi_h) + grad(u - u_h) ||_{L2}
    e2 = || ik (u - u_h) + div(phi - phi_h) ||_{L2}

are tracked separately because they converge at different orders.
On each element chunk the exact solution is sampled by one jet call
(``ExactBundle.fields``) and every squared norm of the chunk comes from
one weighted reduction of re^2 + im^2 over all fields at once.
Everything here is pure post-processing over immutable solutions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fosls import (
    boundary_groups,
    difference,
    element_groups,
    impedance_trace,
    ls_residuals,
    pair_fields,
)
from .polyquad import simplex_quadrature


@dataclass(frozen=True)
class ErrorReport:
    """Error norms of a discrete solution against the exact one.

    Flux-based entries (e1, e2, flux_l2, e_bnd) are NaN for classical FEM
    solutions, which carry no discrete flux.  ``quad_drift`` is the
    largest relative change of any entry when the quadrature rule is
    doubled.
    """

    l2_rel: float
    h1_err: float
    bnd_l2: float
    e1: float
    e2: float
    flux_l2: float
    e_bnd: float
    u_l2: float
    quad_drift: float


@dataclass(frozen=True)
class RunRecord:
    """One convergence-study run: mesh/degree parameters plus errors."""

    problem: str
    method: str
    d: int
    k: float
    p: int
    n_elems: int
    h: float
    dof: int
    n_lambda: float
    errors: ErrorReport


@dataclass
class ConvergenceTable:
    """Study rows, refined meshes within fixed (method, p, k)."""

    rows: list = field(default_factory=list)

    def add(self, record):
        self.rows.append(record)

    def series(self):
        """Group rows by (method, p); rows keep their insertion order."""
        out = {}
        for row in self.rows:
            out.setdefault((row.method, row.p), []).append(row)
        return out


def _sq_sums(wts, fields):
    """Quadrature of |field|^2 over (element, point) axes and components,
    for every field at once: one weighted reduction of re^2 + im^2."""
    cols = [f.reshape(wts.size, -1) for f in fields]
    z = np.concatenate(cols, axis=1, dtype=complex).view(float)
    starts = np.cumsum([0] + [2 * c.shape[1] for c in cols[:-1]])
    return np.add.reduceat(wts.reshape(-1) @ (z * z), starts)


def _accumulate(sol, problem, exactness):
    mesh = sol.w_space.mesh
    exact = problem.exact
    rule = simplex_quadrature(mesh.dim, exactness)

    vol = np.zeros(6)
    for elems, ref, phys, wdet in element_groups(mesh, rule, problem.breakpoints):
        ex = pair_fields(exact, elems, ref, phys)
        err = [a - b for a, b in zip(ex, pair_fields(sol, elems, ref, phys))]
        e1, e2 = ls_residuals(err, problem.k)
        vol += _sq_sums(wdet, (ex[2], err[2], err[3], e1, e2, err[0]))
    u2, eu2, geu2, e12, e22, ephi2 = vol

    err = difference(exact, sol)
    bnd = np.zeros(2)
    for elems, ref, phys, wj, normals in boundary_groups(mesh, sol.w_space.p + 6):
        fields = pair_fields(err, elems, ref, phys)
        bnd += _sq_sums(wj, (fields[2], impedance_trace(fields, normals)))
    bnd_eu2, imp2 = bnd

    has_flux = sol.phi_coeffs is not None
    nan = float("nan")
    return {
        "l2_rel": math.sqrt(eu2 / u2) if u2 > 0 else nan,
        "h1_err": math.sqrt(geu2),
        "bnd_l2": math.sqrt(bnd_eu2),
        "e1": math.sqrt(e12) if has_flux else nan,
        "e2": math.sqrt(e22) if has_flux else nan,
        "flux_l2": math.sqrt(ephi2) if has_flux else nan,
        "e_bnd": math.sqrt(imp2) if has_flux else nan,
        "u_l2": math.sqrt(u2),
    }


def compute_errors(sol, problem, exactness=None):
    """Error report for a discrete solution; needs an exact solution."""
    if problem.exact is None:
        raise ValueError("compute_errors requires a problem with an exact solution")
    if exactness is None:
        exactness = 2 * sol.w_space.p + 8
    base = _accumulate(sol, problem, exactness)
    fine = _accumulate(sol, problem, 2 * exactness)
    drift = 0.0
    for key, val in base.items():
        ref = fine[key]
        if math.isnan(val) or math.isnan(ref):
            continue
        scale = max(abs(ref), 1e-300)
        drift = max(drift, abs(val - ref) / scale)
    return ErrorReport(quad_drift=drift, **base)


def dofs_per_wavelength(dof, k, volume, d):
    """Resolution measure 2 pi DOF^(1/d) / (k |Omega|^(1/d))."""
    if dof <= 0 or k <= 0 or volume <= 0 or d <= 0:
        raise ValueError("all arguments must be positive")
    return 2 * math.pi * dof ** (1.0 / d) / (k * volume ** (1.0 / d))


def eoc_pairs(h, errors):
    """Pairwise empirical orders log(e_i/e_{i+1}) / log(h_i/h_{i+1})."""
    h = np.asarray(h, dtype=float)
    e = np.asarray(errors, dtype=float)
    return list(np.log(e[:-1] / e[1:]) / np.log(h[:-1] / h[1:]))


def tail_slope(h, errors, n_tail=3):
    """Least-squares slope of log(e) vs log(h) over the last rows."""
    h = np.asarray(h, dtype=float)[-n_tail:]
    e = np.asarray(errors, dtype=float)[-n_tail:]
    if len(h) < 2:
        raise ValueError("need at least 2 rows for a slope")
    slope, _ = np.polyfit(np.log(h), np.log(e), 1)
    return float(slope)


def empirical_order(table, quantity="l2_rel"):
    """Per-series rates: pairwise orders and the asymptotic tail slope.

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
