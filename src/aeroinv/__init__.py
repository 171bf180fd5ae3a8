"""Aerosol particle-size distribution retrieval from extinction spectra."""

from .discretization import (
    KernelMatrix,
    RadiusGrid,
    assemble_kernel_matrix,
    build_collocation_grid,
    evaluate_distribution,
    uniform_grid,
)
from .model_selection import (
    Measurement,
    ModelCandidate,
    NoiseScaling,
    Regularizer,
    bic_select,
    build_regularizer,
    generate_models,
    invert_constrained,
    invert_morozov,
    invert_unconstrained,
    log_marginal_likelihood,
    select_models,
)
from .optics import (
    IndexTable,
    MixedMaterial,
    get_material,
    interpolate_index,
    kernel_value,
    lorentz_lorenz_mix,
    load_index_table,
    make_kernel,
    make_mixed_kernel,
    mie_qext,
    mixed_kernel_rows,
)
from .orthant_mvn import (
    IntegralEstimate,
    QuadraticForm,
    genz_orthant_probability,
    orthant_integral,
)
from .simulation_study import (
    SizeDistribution,
    StudyConfig,
    StudyReport,
    TwoComponentStudyConfig,
    eval_size_distribution,
    forward_extinctions,
    parameter_grid,
    relative_l2_error,
    run_study,
    run_study_two_component,
    simulate_measurement,
    study_wavelengths,
)
from .tikhonov_qp import (
    QpSolution,
    WeightedProblem,
    solve_constrained_tikhonov,
    solve_discrepancy,
    solve_nnls,
    weighted_residual,
)
from .two_component import (
    FractionScan,
    KernelFamily,
    build_kernel_family,
    generate_models_two_component,
    scan_fractions,
    select_models_two_component,
)

__version__ = "0.1.0"
