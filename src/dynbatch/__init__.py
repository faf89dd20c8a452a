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
    InfeasibleScheduleError,
    ProblemInstance,
    Schedule,
    ScheduleCost,
    cost_of,
)
from .offline import (
    DualSolution,
    brute_force_optimum,
    dual_recursion,
    optimal_schedule,
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
