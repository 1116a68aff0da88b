"""The benchmark workloads: inputs from a seed, the timed run, and what
is observed about each case for the correctness checks.

Why these four:

* ``study-1d`` -- ``cli.run_study`` on piecewise-1d: per-element Python
  loops in assembly and error evaluation, small solves, the breakpoint
  panel rule and the CLI layer.
* ``study-2d`` -- ``cli.run_study`` on plane-wave-2d: 2D error
  evaluation (BDM flux, e1/e2), 2D assembly and the FEM LU.
* ``solve-2d`` -- FOSLS mesh, spaces, assembly and solve at p=3 with no
  error analysis: the solve is most of the time.
* ``project-2d`` -- ``project_hdiv_global`` of the exact flux: the only
  workload that reaches the projection layer.

Seed 0 gives the nominal wavenumber; any other seed jitters k inside
+-1 %, so a claim can be re-checked on held-out inputs.
"""

import tempfile

import numpy as np

import helmfosls.analysis as analysis
import helmfosls.cli as cli
import helmfosls.fosls as fosls
import helmfosls.mesh as mesh_mod
import helmfosls.problems as problems
import helmfosls.projection as projection
import helmfosls.solver as solver
import helmfosls.spaces as spaces

K_JITTER = 0.01

# workload -> size -> parameters; "smoke" shrinks each to about a second
PARAMS = {
    "study-1d": {
        "full": {"k": 10.0, "degrees": [1, 2, 3], "meshes": [45, 135, 405]},
        "smoke": {"k": 10.0, "degrees": [1, 2, 3], "meshes": [45, 135]},
    },
    "study-2d": {
        "full": {"k": 8.0, "degrees": [2], "meshes": [8, 16]},
        "smoke": {"k": 8.0, "degrees": [2], "meshes": [6, 8]},
    },
    "solve-2d": {
        "full": {"k": 8.0, "p": 3, "n": 20},
        "smoke": {"k": 8.0, "p": 3, "n": 12},
    },
    "project-2d": {
        "full": {"k": 8.0, "p": 3, "n": 24},
        "smoke": {"k": 8.0, "p": 3, "n": 12},
    },
}

# layers whose spans or counters each workload must record when traced
LAYERS = {
    "study-1d": ["cli", "mesh", "spaces", "fosls", "solver", "analysis",
                 "spaces.eval_calls", "polyquad.rule_calls"],
    "study-2d": ["cli", "mesh", "spaces", "fosls", "solver", "analysis",
                 "spaces.eval_calls", "polyquad.rule_calls"],
    "solve-2d": ["mesh", "spaces", "fosls", "solver", "polyquad.rule_calls"],
    "project-2d": ["mesh", "spaces", "projection", "polyquad.rule_calls",
                   "projection.reference_calls"],
}


def wavenumber(k0, seed):
    if seed == 0:
        return k0
    return k0 * (1.0 + K_JITTER * np.random.default_rng(seed).uniform(-1.0, 1.0))


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _nan_to_none(x):
    return None if np.isnan(x) else float(x)


def _centroid_error(evaluate, space, coeffs, exact):
    """Largest pointwise error at the element centroids."""
    mesh = space.mesh
    d = mesh.dim
    centre = np.full((1, d), 1.0 / (d + 1))
    worst = 0.0
    for e in range(len(mesh.elements)):
        phys = centre @ mesh.maps_A[e].T + mesh.maps_b[e]
        diff = np.asarray(exact(phys)) - evaluate(space, coeffs, e, centre)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _study(name, params, k, scratch):
    problem = "piecewise-1d" if name == "study-1d" else "plane-wave-2d"
    config = cli.StudyConfig(
        problem=problem, k=k, degrees=params["degrees"],
        mesh_sequence=params["meshes"], method="both",
        output_dir=tempfile.mkdtemp(dir=scratch),
        avoid_node_at_zero=problem == "piecewise-1d",
    )
    table, _ = cli.run_study(config)
    return table


def _study_cases(table):
    return {
        f"{r.method}-p{r.p}-n{r.n_elems}": {
            "l2_rel": float(r.errors.l2_rel),
            "e1": _nan_to_none(r.errors.e1),
            "e2": _nan_to_none(r.errors.e2),
            "quad_drift": float(r.errors.quad_drift),
        }
        for r in table.rows
    }


def _solve(params, k):
    problem = problems.plane_wave_problem(k)
    mesh = mesh_mod.build_square_mesh(params["n"])
    v_space = spaces.build_hdiv_space(mesh, params["p"])
    w_space = spaces.build_h1_space(mesh, params["p"])
    system = fosls.assemble_fosls(v_space, w_space, problem)
    return problem, system, solver.solve_hpd(system)


def _solve_cases(params, out):
    problem, system, report = out
    x = report.solution
    b = system.rhs
    sol = fosls.split_solution(system, x)
    return {f"fosls-p{params['p']}-n{params['n']}": {
        "residual": float(np.linalg.norm(system.matrix @ x - b) / np.linalg.norm(b)),
        "bHx": _pair(np.vdot(b, x)),
        "u_err": _centroid_error(spaces.scalar_eval, sol.w_space, sol.u_coeffs,
                                 problem.exact.u),
    }}


def _flux_jacobian(problem):
    """d phi_i / d x_j of the plane wave: phi = i grad u / k."""
    k = problem.k
    kv = np.array([k, -k]) / np.sqrt(2.0)
    outer = np.outer(kv, kv)
    return lambda pts: (-1j / k) * problem.exact.u(pts)[:, None, None] * outer


def _project(params, k):
    problem = problems.plane_wave_problem(k)
    mesh = mesh_mod.build_square_mesh(params["n"])
    space = spaces.build_hdiv_space(mesh, params["p"])
    coeffs, mismatch = projection.project_hdiv_global(
        problem.exact.phi, space, jac_phi=_flux_jacobian(problem),
        return_max_mismatch=True,
    )
    return problem, space, coeffs, mismatch


def _project_cases(params, out):
    problem, space, coeffs, mismatch = out
    weights = np.random.default_rng(12345).standard_normal(len(coeffs))
    return {f"bdm-p{params['p']}-n{params['n']}": {
        "mismatch": float(mismatch),
        "coef_sum": _pair(np.sum(coeffs)),
        "coef_wsum": _pair(weights @ coeffs),
        "coef_norm": float(np.linalg.norm(coeffs)),
        "phi_err": _centroid_error(spaces.vector_eval, space, coeffs,
                                   problem.exact.phi),
    }}


def n_cases(name, size):
    params = PARAMS[name][size]
    if name.startswith("study"):
        return 2 * len(params["degrees"]) * len(params["meshes"])
    return 1


def run(name, size, seed, scratch):
    """Run one workload; returns an opaque result for :func:`cases`."""
    params = PARAMS[name][size]
    k = wavenumber(params["k"], seed)
    if name.startswith("study"):
        return _study(name, params, k, scratch)
    if name == "solve-2d":
        return _solve(params, k)
    return _project(params, k)


def cases(name, size, result):
    """Per-case observations the checks compare; computed untimed."""
    params = PARAMS[name][size]
    if name.startswith("study"):
        return _study_cases(result)
    if name == "solve-2d":
        return _solve_cases(params, result)
    return _project_cases(params, result)


def warm_up():
    """Fixed tiny case run before timing starts, in every workload."""
    problem = problems.plane_wave_problem(8.0)
    mesh = mesh_mod.build_square_mesh(2)
    w_space = spaces.build_h1_space(mesh, 1)
    system = fosls.assemble_fosls(spaces.build_hdiv_space(mesh, 1), w_space, problem)
    report = solver.solve_hpd(system)
    analysis.compute_errors(fosls.split_solution(system, report.solution), problem)
    solver.solve_general(fosls.assemble_classical_fem(w_space, problem))
