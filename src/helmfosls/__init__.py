"""First-order-system least-squares hp-FEM for the Helmholtz impedance
problem, with a classical FEM baseline and a convergence-study harness.

The harness lives in ``helmfosls.cli`` and is not imported here, so that
``python -m helmfosls.cli`` runs it as ``__main__`` without a second,
already imported copy of the module.
"""

from .analysis import (
    ConvergenceTable,
    ErrorReport,
    RunRecord,
    compute_errors,
    dofs_per_wavelength,
)
from .fosls import (
    AssembledSystem,
    DiscreteSolution,
    assemble_classical_fem,
    assemble_fosls,
    split_solution,
)
from .mesh import (
    Mesh,
    build_interval_mesh,
    build_polygonal_disk_mesh,
    build_square_mesh,
    element_map_apply,
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
from .projection import ReferenceProjection, project_hdiv_global, project_reference
from .solver import SolveReport, SolverError, solve_general, solve_hpd
from .spaces import FunctionSpace, build_h1_space, build_hdiv_space

__version__ = "0.1.0"
