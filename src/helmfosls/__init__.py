"""First-order-system least-squares hp-FEM for the Helmholtz impedance
problem, with a classical FEM baseline and a convergence-study harness."""

from .analysis import (
    ConvergenceTable,
    ErrorReport,
    RunRecord,
    compute_errors,
    dofs_per_wavelength,
    empirical_order,
)
from .fosls import (
    AssembledSystem,
    DiscreteSolution,
    assemble_classical_fem,
    assemble_fosls,
    evaluate_b,
    split_solution,
)
from .mesh import (
    Mesh,
    build_interval_mesh,
    build_polygonal_disk_mesh,
    build_square_mesh,
    element_map_apply,
    mesh_to_text,
)
from .polyquad import QuadratureRule, ScalarBasis, make_scalar_basis, simplex_quadrature
from .problems import (
    ExactBundle,
    WaveProblem,
    list_problems,
    make_problem,
    piecewise_1d_problem,
    plane_wave_problem,
    robin_data_from_exact,
)
from .projection import (
    EdgeNormGram,
    ReferenceProjection,
    h12_00_gram,
    project_hdiv_global,
    project_reference,
)
from .solver import SolveReport, SolverError, solve_general, solve_hpd
from .spaces import FunctionSpace, build_h1_space, build_hdiv_space
from .cli import StudyConfig, run_study

__version__ = "0.1.0"
