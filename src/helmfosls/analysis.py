"""Error norms, resolution measures and empirical convergence rates.

Error integrals walk ``fosls.sweep`` at the error rules (exactness
2p + 8, in the volume and on boundary facets alike) and sample the exact
and the discrete solution on each group with ``fosls.pair_fields``.
Each integral is also taken on the rules of doubled exactness, and the
relative drift between the two, boundary terms included, is reported so
that quadrature-limited numbers are visible.  Both rules are sampled in
one sweep, whose volume and boundary groups share one format: every
group holds the points of both rules, and its fields are formed once and
reduced once per rule.  The least-squares residual components

    e1 = || ik (phi - phi_h) + grad(u - u_h) ||_{L2}
    e2 = || ik (u - u_h) + div(phi - phi_h) ||_{L2}

are tracked separately because they converge at different orders.
On each chunk the exact solution is sampled by one jet call
(``ExactBundle.fields``) and the discrete solution by one evaluator
call per space, and each squared norm is one
product of the per-element scales with re^2 + im^2 on the real view of
its field, then one product with the reference weights of both rules.  A
classical FEM solution carries no flux: its pass samples u and grad u
only (a jet call of order 1 and the potential's evaluator), its flux
errors are never formed, and the flux entries of its report are NaN.
Everything here is pure post-processing over immutable solutions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fosls import error_exactness, impedance_trace, ls_residuals, pair_fields, sweep


@dataclass(frozen=True)
class ErrorReport:
    """Error norms of a discrete solution against the exact one.

    Flux-based entries (e1, e2, flux_l2, e_bnd) are NaN for classical FEM
    solutions, which carry no discrete flux.  ``quad_drift`` is the
    largest relative change of any entry when the exactness of the
    quadrature rules is doubled; both rules are sampled in the same
    sweep, at the same evaluations of the fields.
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


def _sq_sums(scales, weights, fields):
    """Quadrature of |field|^2 over (element, point) axes and components
    on each of R rules, for each field: one product of the per-element
    scales (E,) with re^2 + im^2 of its real view, summed over the
    components, then the reference weights (R, q).  Returns (R, fields)."""
    q = weights.shape[1]
    out = np.empty((len(weights), len(fields)))
    for i, f in enumerate(fields):
        z = f.reshape(len(scales), -1).view(float)
        out[:, i] = weights @ (scales @ (z * z)).reshape(q, -1).sum(axis=1)
    return out


def _norms(vol, bnd, has_flux):
    """The fields of :class:`ErrorReport` but the drift from the squared
    volume norms (u, e_u, grad e_u, e1, e2, e_phi) and boundary norms
    (e_u, phi.n + u); the flux entries are NaN without a flux."""
    u2, eu2, geu2, e12, e22, ephi2 = vol
    bnd_eu2, imp2 = bnd
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


def _accumulate(sol, problem, exactnesses):
    """Error norms (the fields of :class:`ErrorReport` but the drift) on
    each rule of ``exactnesses``, one dict per rule, from one
    ``fosls.sweep``: each group's fields are formed once and reduced once
    per rule.  A classical FEM solution has no flux: only u and grad u
    are sampled, its flux errors are never formed, and its flux entries
    are NaN."""
    has_flux = sol.phi_coeffs is not None
    order = 2 if has_flux else 1
    vol, bnd = np.zeros((len(exactnesses), 6)), np.zeros((len(exactnesses), 2))
    for elems, ref, phys, scales, weights, normals in sweep(
            sol.w_space.mesh, exactnesses, problem.breakpoints):
        ex, uh = (pair_fields(pair, elems, ref, phys, order) for pair in (problem.exact, sol))
        # the last two fields are u and grad u at either order
        eu, egu = ex[-2] - uh[-2], ex[-1] - uh[-1]
        fields = [eu] if normals is not None else [ex[-2], eu, egu]
        if has_flux:
            err = (ex[0] - uh[0], ex[1] - uh[1], eu, egu)
            fields += ([impedance_trace(err, normals)] if normals is not None
                       else [*ls_residuals(err, problem.k), err[0]])
        sums = vol if normals is None else bnd
        sums[:, :len(fields)] += _sq_sums(scales, weights, fields)
    return [_norms(v, b, has_flux) for v, b in zip(vol, bnd)]


def compute_errors(sol, problem):
    """Error report for a discrete solution; needs an exact solution.
    The error rules and the doubled rules of the drift are sampled in one
    sweep (:func:`_accumulate`)."""
    if problem.exact is None:
        raise ValueError("compute_errors requires a problem with an exact solution")
    exactness = error_exactness(sol.w_space.p)
    base, fine = _accumulate(sol, problem, (exactness, 2 * exactness))
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
