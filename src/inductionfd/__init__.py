"""Energy-stable SBP-SAT finite difference schemes for the 2D magnetic
induction equations."""

from .diagnostics import (
    ErrorRecord,
    convergence_rate,
    discrete_divergence,
    l2_norm,
    p_energy,
    rel_percent_error,
)
from .dissipation import DissipationOperator1D, build_dissipation
from .experiments import (
    ExperimentSpec,
    RunSetup,
    SchemeConfig,
    assemble,
    experiment1,
    experiment2,
    experiment3,
    get_experiment,
    run_convergence_study,
    run_long_time,
    run_single,
    scheme_config,
    study_config,
    study_spec,
)
from .grid import Grid2D
from .induction import (
    BoundaryData,
    InductionRhs,
    MagneticField,
    SatConfig,
    VelocityCoeffs,
    compute_rhs,
    make_sat_config,
    sample_velocity,
    sat_sigma,
)
from .sbp import (
    SbpOperator1D,
    SbpReport,
    apply_dx,
    apply_dy,
    build_sbp,
    verify_sbp,
)
from .timestep import (
    InstabilityError,
    IntegratorConfig,
    compute_dt,
    integrate,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "DissipationOperator1D",
    "ErrorRecord",
    "ExperimentSpec",
    "Grid2D",
    "InductionRhs",
    "InstabilityError",
    "IntegratorConfig",
    "MagneticField",
    "RunSetup",
    "SatConfig",
    "SbpOperator1D",
    "SbpReport",
    "SchemeConfig",
    "VelocityCoeffs",
    "apply_dx",
    "apply_dy",
    "assemble",
    "build_dissipation",
    "build_sbp",
    "compute_dt",
    "compute_rhs",
    "convergence_rate",
    "discrete_divergence",
    "experiment1",
    "experiment2",
    "experiment3",
    "get_experiment",
    "integrate",
    "l2_norm",
    "make_sat_config",
    "p_energy",
    "rel_percent_error",
    "run_convergence_study",
    "run_long_time",
    "run_single",
    "sample_velocity",
    "sat_sigma",
    "scheme_config",
    "study_config",
    "study_spec",
    "verify_sbp",
]
