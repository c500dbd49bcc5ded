"""Numerical toolkit for a TB-HIV coinfection transmission model.

Ten compartments, standard incidence, treatment rates for latent and active
TB in both singly- and doubly-infected classes. The package provides the
right-hand side, an adaptive integrator, reproduction numbers, equilibrium
solvers, stability and bifurcation analysis, scenario runners, and a CLI.
"""
from .model import (COMPARTMENTS, DomainError, ForceOfInfection,
                    HIV_INFECTED_INDICES, INFECTED_INDICES, N_COMPARTMENTS,
                    PARAMETER_FIELDS, Parameters, TB_INFECTED_INDICES,
                    force_of_infection, full_jacobian, full_rhs,
                    hiv_submodel_rhs, tb_submodel_rhs, total_population,
                    validate_parameters)
from .dynamics import (IntegrationError, Trajectory, integrate,
                       steady_state_by_integration)
from .stability import (BifurcationReport, ConvergenceError, H2Evaluation,
                        StabilityReport, bifurcation_analysis,
                        bifurcation_threshold, classify, dfe_trace_det,
                        eigenvalues, fd_jacobian, h2_condition_check,
                        stability_report)
from .reproduction import (NextGenDecomposition, ReproductionNumbers,
                           ngm_decomposition, r0, r1_closed, r2_closed)
from .equilibria import (EquilibriumReport, disease_free, hiv_free, residual,
                         syndemic, tb_free_numeric)

# the benchmark harness calls the closed-form Jacobian by this name
jacobian = full_jacobian

__version__ = "0.1.0"

__all__ = [
    "COMPARTMENTS", "N_COMPARTMENTS", "PARAMETER_FIELDS",
    "INFECTED_INDICES", "TB_INFECTED_INDICES", "HIV_INFECTED_INDICES",
    "Parameters", "ForceOfInfection", "DomainError",
    "force_of_infection", "full_rhs", "full_jacobian", "hiv_submodel_rhs",
    "tb_submodel_rhs",
    "total_population", "validate_parameters",
    "Trajectory", "IntegrationError", "integrate",
    "steady_state_by_integration",
    "StabilityReport", "BifurcationReport", "H2Evaluation",
    "ConvergenceError", "fd_jacobian", "jacobian", "eigenvalues", "classify",
    "stability_report", "dfe_trace_det", "bifurcation_threshold",
    "bifurcation_analysis", "h2_condition_check",
    "ReproductionNumbers", "NextGenDecomposition",
    "r1_closed", "r2_closed", "r0", "ngm_decomposition",
    "EquilibriumReport", "disease_free", "tb_free_numeric", "hiv_free",
    "syndemic", "residual",
    "__version__",
]
