"""Correctness checks on the per-case observations of one repetition.

At seed 0 every case must match ``reference.json``, recorded from the
seed commit of the library with ``run.py --record-reference``.  Other
seeds jitter k, so they are held to checks that need no reference for
their own k: the recomputed residual, the quadrature drift, the
projection's mismatch, and each error against the exact solution at most
``BOUND_FACTOR`` times the seed-0 error of the same case.
"""

import math

# error norms at seed 0: relative tolerance, plus an absolute one because
# the iterative solver stops at relative residual 1e-10, which moves the
# smallest errors (l2_rel ~ 1e-9 at p=3, n=1215) in their third digit
ERR_RTOL = 1e-6
ERR_ATOL = 1e-10
BOUND_FACTOR = 2.0
QUAD_DRIFT_MAX = 1e-6
RESIDUAL_MAX = 1e-10
# b^H x is accurate to the square of the energy-norm error of x
BHX_RTOL = 1e-9
MISMATCH_MAX = 1e-12
COEF_RTOL = 1e-10


def _close(got, want, rtol, atol=0.0):
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= rtol * abs(want) + atol


def _close_pair(got, want, tol):
    return math.hypot(got[0] - want[0], got[1] - want[1]) <= tol


def _study(obs, ref, seed):
    bad = []
    if not obs["quad_drift"] <= QUAD_DRIFT_MAX:
        bad.append(f"quad_drift {obs['quad_drift']:.3g} > {QUAD_DRIFT_MAX:g}")
    for key in ("l2_rel", "e1", "e2"):
        if seed == 0 and not _close(obs[key], ref[key], ERR_RTOL, ERR_ATOL):
            bad.append(f"{key} {obs[key]!r} != reference {ref[key]!r}")
        if ref[key] is None:  # FEM runs carry no flux errors
            continue
        if obs[key] is None or not obs[key] <= BOUND_FACTOR * ref[key]:
            bad.append(f"{key} {obs[key]!r} > {BOUND_FACTOR:g} x reference {ref[key]!r}")
    return bad


def _solve(obs, ref, seed):
    bad = []
    if not obs["residual"] <= RESIDUAL_MAX:
        bad.append(f"relative residual {obs['residual']:.3g} > {RESIDUAL_MAX:g}")
    if not obs["u_err"] <= BOUND_FACTOR * ref["u_err"]:
        bad.append(f"u_err {obs['u_err']:.3g} > {BOUND_FACTOR:g} x {ref['u_err']:.3g}")
    if seed == 0 and not _close_pair(obs["bHx"], ref["bHx"],
                                     BHX_RTOL * math.hypot(*ref["bHx"])):
        bad.append(f"b^H x {obs['bHx']} != reference {ref['bHx']}")
    return bad


def _project(obs, ref, seed):
    bad = []
    if not obs["mismatch"] <= MISMATCH_MAX:
        bad.append(f"max_mismatch {obs['mismatch']:.3g} > {MISMATCH_MAX:g}")
    if not obs["phi_err"] <= BOUND_FACTOR * ref["phi_err"]:
        bad.append(f"phi_err {obs['phi_err']:.3g} > {BOUND_FACTOR:g} x {ref['phi_err']:.3g}")
    if seed == 0:
        tol = COEF_RTOL * ref["coef_norm"]
        if not _close(obs["coef_norm"], ref["coef_norm"], COEF_RTOL):
            bad.append(f"coefficient norm {obs['coef_norm']!r} != {ref['coef_norm']!r}")
        for key in ("coef_sum", "coef_wsum"):
            if not _close_pair(obs[key], ref[key], tol):
                bad.append(f"{key} {obs[key]} != reference {ref[key]}")
    return bad


CHECKS = {"study-1d": _study, "study-2d": _study, "solve-2d": _solve,
          "project-2d": _project}


def failures(workload, seed, cases, reference):
    """Map each failed case to its reasons; every reference case must be run."""
    out = {}
    for name, ref in reference.items():
        if name not in cases:
            out[name] = ["case missing from the run"]
            continue
        bad = CHECKS[workload](cases[name], ref, seed)
        if bad:
            out[name] = bad
    for name in cases.keys() - reference.keys():
        out[name] = ["case not in the reference"]
    return out
