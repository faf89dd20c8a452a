"""Batching of timed arrivals: exact offline optimum, competitive online
policies, worst-case adversarial constructions, and a Monte-Carlo
experiment harness, all under the objective of per-sample average waiting
time plus per-sample average batch processing cost."""

from .cost import (
    BUILTIN_COSTS,
    CappedLinear,
    ConstantCost,
    CostFunction,
    CountTable,
    CustomSetFunction,
    FeatureMultiset,
    Log1pCount,
    SqrtCount,
    curvature,
    curvature_info,
    parse_cost_spec,
    validate_assumption1,
)
from .instance import (
    Batch,
    InfeasibleScheduleError,
    ProblemInstance,
    Schedule,
    ScheduleCost,
    StepCurve,
    cost_of,
    pending_count_curve,
    positive_excess_integral,
)
from .offline import (
    DualSolution,
    EdgeWeightOracle,
    IlpConstraintViolation,
    brute_force_optimum,
    check_ilp_assignment,
    dual_recursion,
    ilp_certificate,
    optimal_schedule,
    schedule_from_dual,
)
from .online import (
    FixedDelay,
    FixedSize,
    Wta,
    competitive_ratio_bound,
    parse_policy_spec,
    run_policy,
)
from .adversary import (
    AdversaryConfig,
    AdversaryReport,
    finite_rounds_bound,
    run_adversary,
    worst_pair_search,
)
from .sim import (
    ConstantRate,
    SinusoidRate,
    TableRate,
    TrialRecord,
    gen_poisson,
    gen_poisson_horizon,
    parse_rate_spec,
    run_study,
    summarize,
)
from .io_csv import load_arrivals, read_results, save_arrivals, write_results

__version__ = "0.1.0"
