"""Analytical models and metrics: Bianchi DCF, p-persistent CSMA, RandomReset
fixed points, quasi-concavity checks and fairness indices.

The five functions that solve a closed form (``solve_dcf_fixed_point``,
``optimal_attempt_probability``, ``solve_attempt_probability``,
``equivalent_randomreset`` and ``RandomResetModel.optimal_reset``) import
``scipy.optimize`` where they call it, not at module scope. Every campaign
process imports this package, but the simulators, the controllers and most
experiments never solve a closed form, and loading scipy would more than
double such a process's start-up time and memory.
"""

from .bianchi import (
    BianchiModel,
    conditional_collision_probability,
    dcf_attempt_probability,
    dcf_saturation_throughput,
    solve_dcf_fixed_point,
)
from .convergence import (
    ConvergenceReport,
    analyze_convergence,
    segment_settling_times,
    settling_time,
    sliding_window_jain,
    steady_state_statistics,
)
from .fairness import (
    WeightedFairnessReport,
    jain_index,
    max_relative_deviation,
    normalized_throughputs,
    weighted_fairness_report,
)
from .persistent import (
    PersistentModel,
    approximate_optimal_attempt_probability,
    optimal_attempt_probability,
    per_station_throughput,
    slot_probabilities,
    system_throughput,
    system_throughput_weighted,
    throughput_curve,
    weighted_attempt_probability,
)
from .quasiconcavity import (
    QuasiConcavityReport,
    check_quasiconcavity,
    count_direction_changes,
    is_quasiconcave,
    unimodality_violation,
)
from .stability import (
    LIVELOCK_FLOOR_BPS,
    OSCILLATION_THRESHOLD,
    StabilityReport,
    classify_stability,
    stability_from_probe,
)
from .randomreset import (
    RandomResetModel,
    attempt_probability_range,
    conditional_attempt_probability,
    equivalent_randomreset,
    randomreset_attempt_probability,
    randomreset_conditional_attempt_probability,
    randomreset_distribution,
    randomreset_throughput,
    solve_attempt_probability,
    stage_alphas,
)

__all__ = [
    "BianchiModel",
    "ConvergenceReport",
    "analyze_convergence",
    "segment_settling_times",
    "settling_time",
    "sliding_window_jain",
    "steady_state_statistics",
    "conditional_collision_probability",
    "dcf_attempt_probability",
    "dcf_saturation_throughput",
    "solve_dcf_fixed_point",
    "WeightedFairnessReport",
    "jain_index",
    "max_relative_deviation",
    "normalized_throughputs",
    "weighted_fairness_report",
    "PersistentModel",
    "approximate_optimal_attempt_probability",
    "optimal_attempt_probability",
    "per_station_throughput",
    "slot_probabilities",
    "system_throughput",
    "system_throughput_weighted",
    "throughput_curve",
    "weighted_attempt_probability",
    "QuasiConcavityReport",
    "check_quasiconcavity",
    "count_direction_changes",
    "is_quasiconcave",
    "unimodality_violation",
    "RandomResetModel",
    "attempt_probability_range",
    "conditional_attempt_probability",
    "equivalent_randomreset",
    "randomreset_attempt_probability",
    "randomreset_conditional_attempt_probability",
    "randomreset_distribution",
    "randomreset_throughput",
    "solve_attempt_probability",
    "stage_alphas",
    "LIVELOCK_FLOOR_BPS",
    "OSCILLATION_THRESHOLD",
    "StabilityReport",
    "classify_stability",
    "stability_from_probe",
]
