"""Finite-horizon solver, simulator, and equilibrium verifier for
discrete-time mean-field-type games with even power-law costs."""

__version__ = "0.1.0"

from .errors import (
    CoefficientOverflowError,
    ConfigSyntaxError,
    MftgError,
    MissingMomentError,
    NumericDomainError,
    ResourceLimitError,
    ScenarioValidationError,
    SchemaError,
)
from .numerics import noise_even_moment
from .recursion import (
    CoefficientTable,
    GainSchedule,
    solve,
    stationarity_residual,
)
from .scenario import (
    Diagnostic,
    Family,
    InitialLaw,
    MonteCarloConfig,
    NoiseSpec,
    Scenario,
    load_scenario,
    load_scenario_file,
    serialize_scenario,
    validate,
    with_params,
)
from .simulate import (
    CostBreakdown,
    Ensemble,
    MeanPath,
    evaluate_cost,
    initial_central_moment,
    propagate_mean,
    run_ensemble,
)
from .verify import (
    DeviationGrid,
    DeviationReport,
    LqReduction,
    OneStepSolution,
    VerificationReport,
    bellman_identity_check,
    brute_force_one_step,
    inject_gain_scaling,
    lq_reduction_check,
    open_loop_jitter_test,
    run_verification,
    sample_convexity,
    unilateral_deviation_test,
)

__all__ = [name for name in dir() if not name.startswith("_")]
