"""Error exponents for asymptotic hypothesis testing, exact method-of-types
machinery, max-entropy level occupation, and Gaussian binary detection."""

from .boltzmann import (
    EnergySystem,
    boltzmann_distribution,
    log_partition_function,
    maxent_verify,
    mean_energy,
    solve_beta,
)
from .detection import (
    DetectionScenario,
    SweepRow,
    analytic_log2_error,
    chernoff_log2_error_bound,
    q_chernoff_bound,
    q_function,
    simulate_detection,
    sweep,
)
from .dist import (
    DiscreteDistribution,
    entropy,
    kl_divergence,
    log_factorial,
    make_distribution,
)
from .errors import (
    ConvergenceError,
    DegenerateHypothesisError,
    InfeasibleError,
    ResourceCapError,
    ValidationError,
)
from .testing import (
    BinaryHypothesis,
    ChernoffReport,
    SteinReport,
    chernoff_lambda_star,
    stein_errors,
    stein_region_membership,
)
from .types_method import (
    ConstraintSet,
    EmpiricalType,
    count_types,
    deviation_exact_log2_prob,
    empirical_type,
    enumerate_types,
    sanov_exact_log2_prob,
    sanov_exponent,
    type_class_log_prob,
    type_class_size,
    type_classes,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryHypothesis",
    "ChernoffReport",
    "ConstraintSet",
    "ConvergenceError",
    "DegenerateHypothesisError",
    "DetectionScenario",
    "DiscreteDistribution",
    "EmpiricalType",
    "EnergySystem",
    "InfeasibleError",
    "ResourceCapError",
    "SteinReport",
    "SweepRow",
    "ValidationError",
    "analytic_log2_error",
    "boltzmann_distribution",
    "chernoff_lambda_star",
    "chernoff_log2_error_bound",
    "count_types",
    "deviation_exact_log2_prob",
    "empirical_type",
    "entropy",
    "enumerate_types",
    "kl_divergence",
    "log_factorial",
    "log_partition_function",
    "make_distribution",
    "maxent_verify",
    "mean_energy",
    "q_chernoff_bound",
    "q_function",
    "sanov_exact_log2_prob",
    "sanov_exponent",
    "simulate_detection",
    "solve_beta",
    "stein_errors",
    "stein_region_membership",
    "sweep",
    "type_class_log_prob",
    "type_class_size",
    "type_classes",
]
