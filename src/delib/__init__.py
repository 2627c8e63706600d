"""Small-group deliberation over metric preferences.

Library for studying how much social cost is lost when an election is
decided by Copeland over pairwise deliberation outcomes instead of by
the social optimum. Core pieces: metric instances with weighted voter
locations, two deliberation rules (averaging and random-choice), exact
and Monte-Carlo pairwise win probabilities, tournament aggregation,
certified global optimization of the extremal polynomial programs, and
closed-form bounds plus finite-sample simulation.
"""

from .metric import (
    BiasDistribution,
    InvalidInstance,
    MetricInstance,
    bias_distribution,
    distortion_of,
    instance_from_json,
    instance_to_json,
    load_instance,
    normalized_bias,
    social_cost,
    social_optimum,
    validate,
)
from .models import (
    LINEAR,
    SQRT,
    BiasTransform,
    ModelConfig,
    PkResult,
    exact_pk,
    exact_pk_pair,
    monte_carlo_pk,
)
from .tournament import (
    MonteCarlo,
    PMatrix,
    Tournament,
    build_pmatrix,
    build_tournament,
    copeland_scores,
    copeland_winner,
    pipeline_distortion,
    uncovered_check,
)
from .instances import (
    FAMILIES,
    copeland_k2_worst_case,
    example1_instance,
    lb1_instance,
    line_instance_from_bias_distribution,
    theta2_extremal_instance,
)
from .boxopt import (
    BoxProgram,
    Constraint,
    GlobalOptimum,
    interval_eval,
    solve_global,
)
from .averaging import (
    THETA2,
    ThetaResult,
    solve_copeland_k2,
    solve_theta2,
    solve_theta3,
)
from .randomchoice import (
    ZetaResult,
    constraint_lhs,
    group_size_for_epsilon,
    incumbent_feasibility,
    min_feasible_omega,
    sweep,
    zeta,
)
from .bounds import (
    ThetaOutOfRange,
    copeland_distortion_from_theta,
    group_size_closed_form,
    lower_bounds_from_theta,
    sample_size_averaging,
    sample_size_random_choice,
    theta_lower_bound_closed_form,
    theta_upper_bound_closed_form,
)
from .sampling import (
    SampleRunConfig,
    SampleRunReport,
    empirical_distortion_trials,
    round_robin_matchings,
    simulate_estimated_pmatrix,
)

__version__ = "0.1.0"

__all__ = [
    "BiasDistribution", "InvalidInstance", "MetricInstance",
    "bias_distribution", "distortion_of", "instance_from_json",
    "instance_to_json", "load_instance", "normalized_bias",
    "social_cost", "social_optimum", "validate",
    "LINEAR", "SQRT", "BiasTransform", "ModelConfig", "PkResult",
    "exact_pk", "exact_pk_pair", "monte_carlo_pk",
    "MonteCarlo", "PMatrix", "Tournament", "build_pmatrix",
    "build_tournament", "copeland_scores", "copeland_winner",
    "pipeline_distortion", "uncovered_check",
    "FAMILIES", "copeland_k2_worst_case", "example1_instance",
    "lb1_instance", "line_instance_from_bias_distribution",
    "theta2_extremal_instance",
    "BoxProgram", "Constraint", "GlobalOptimum", "interval_eval",
    "solve_global",
    "THETA2", "ThetaResult", "solve_copeland_k2", "solve_theta2",
    "solve_theta3",
    "ZetaResult", "constraint_lhs", "group_size_for_epsilon",
    "incumbent_feasibility", "min_feasible_omega", "sweep", "zeta",
    "ThetaOutOfRange", "copeland_distortion_from_theta",
    "group_size_closed_form", "lower_bounds_from_theta",
    "sample_size_averaging", "sample_size_random_choice",
    "theta_lower_bound_closed_form", "theta_upper_bound_closed_form",
    "SampleRunConfig", "SampleRunReport",
    "empirical_distortion_trials", "round_robin_matchings",
    "simulate_estimated_pmatrix",
    "__version__",
]
