"""Batching of timed arrivals: exact offline optimum, competitive online
policies, worst-case adversarial constructions, and a Monte-Carlo
experiment harness, all under the objective of per-sample average waiting
time plus per-sample average batch processing cost.

Each public name below is imported from its submodule on first use (PEP 562),
and so is each submodule named as an attribute: ``import dynbatch`` loads
numpy only, and a caller of the offline optimum never loads the adversary or
the study runner.  The command line (``dynbatch.cli``) loads every module
but ``setsweep``, which ``offline`` loads on a set function's first solve.
"""

import importlib

# Eager, so that a missing numpy fails at ``import dynbatch``, not at first use.
import numpy  # noqa: F401

#: The public names of each submodule that the package exports.
_MODULES = {
    "cost": ["BUILTIN_COSTS", "CappedLinear", "ConstantCost", "CostFunction", "CountTable",
             "CustomSetFunction", "FeatureMultiset", "Log1pCount", "SqrtCount", "curvature",
             "curvature_info", "parse_cost_spec", "validate_assumption1"],
    "instance": ["InfeasibleScheduleError", "ProblemInstance", "Schedule", "ScheduleCost",
                 "cost_of"],
    "offline": ["DualSolution", "brute_force_optimum", "dual_recursion", "optimal_schedule"],
    "online": ["FixedDelay", "FixedSize", "Wta", "competitive_ratio_bound",
               "parse_policy_spec", "run_policy"],
    "adversary": ["AdversaryConfig", "AdversaryReport", "run_adversary", "worst_pair_search"],
    "sim": ["ConstantRate", "SinusoidRate", "TableRate", "TrialRecord", "gen_poisson",
            "gen_poisson_horizon", "parse_rate_spec", "run_study", "summarize"],
    "io_csv": ["load_arrivals", "read_results", "save_arrivals", "write_results"],
}

#: The submodule of each exported name.
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, taken from its submodule and bound here on first
    access, or one of those submodules itself."""
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = globals()[name] = getattr(module, name)
        return value
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
