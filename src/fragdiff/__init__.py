"""fragdiff: discrete collision-induced fragmentation with size-dependent
diffusion — a certified finite-size solver.

The package integrates the truncated, optionally regularized reaction
system coupled to Neumann diffusion on 1D/2D boxes, and ships the
numeric audits (kernel series, mass bookkeeping, energy and duality
functionals) that make its structural claims checkable rather than
asserted.
"""

from .errors import (
    ConfigError,
    ContractViolationError,
    DivergentSeriesError,
    DomainError,
    FragdiffError,
    LinearSolveError,
    NumericalAbortError,
)
from .kernels import (
    Enclosure,
    KernelSet,
    ValidationReport,
    cheng_redner_uniform,
    from_tables,
    power_law_uniform,
    power_series_enclosure,
    validate_kernel_set,
)
from .grid import (
    GridSpec,
    gradient_sq_integral,
    integrate,
    make_grid_1d,
    make_grid_2d,
    read_species_csv,
    stencil_eigenvalue,
    write_species_csv,
)
from .reaction import (
    check_quasipositivity,
    q_field,
    regularization_denominator,
)
from .summability import (
    AdmissibilityReport,
    ConditionReport,
    SummabilityReport,
    audit_summability,
    check_initial_data,
)
from .stepper import (
    DiffusionSolver,
    SimState,
    StepperConfig,
    Trajectory,
    checkpoint_load,
    checkpoint_save,
    run_simulation,
)
from .monitors import (
    MonitorAccumulator,
    MonitorReport,
    compute_monitors,
    moment0,
    tail_envelope_exponential,
    tail_mass,
    total_mass,
    write_monitors_csv,
    write_summary_json,
)
from .config import (
    SimConfig,
    load_config,
    make_grid,
    make_initial_condition,
    make_kernel_set,
    reference_scenario_dict,
)

__version__ = "0.1.0"
