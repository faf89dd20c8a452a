import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dynbatch

#: Every module of the package but ``__main__``, which runs the command line.
MODULES = [m.name for m in pkgutil.iter_modules(dynbatch.__path__) if m.name != "__main__"]

#: The package's public names, pinned: a name that leaves or joins the table
#: in ``__init__`` is a change of the public interface.
PUBLIC = [
    "BUILTIN_COSTS", "CappedLinear", "ConstantCost", "CostFunction", "CountTable",
    "CustomSetFunction", "FeatureMultiset", "Log1pCount", "SqrtCount", "curvature",
    "curvature_info", "parse_cost_spec", "validate_assumption1",
    "InfeasibleScheduleError", "ProblemInstance", "Schedule", "ScheduleCost", "cost_of",
    "DualSolution", "brute_force_optimum", "dual_recursion", "optimal_schedule",
    "FixedDelay", "FixedSize", "Wta", "competitive_ratio_bound", "parse_policy_spec",
    "run_policy",
    "AdversaryConfig", "AdversaryReport", "run_adversary", "worst_pair_search",
    "ConstantRate", "SinusoidRate", "TableRate", "TrialRecord", "gen_poisson",
    "gen_poisson_horizon", "parse_rate_spec", "run_study", "summarize",
    "load_arrivals", "read_results", "save_arrivals", "write_results",
]

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_every_name_in_all_exists():
    for name in MODULES:
        module = importlib.import_module(f"dynbatch.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_init_exports_each_name_from_its_module():
    assert sorted(dynbatch._EXPORTS) == sorted(PUBLIC) and len(PUBLIC) == 45
    assert dynbatch.__all__ == list(dynbatch._EXPORTS)
    for name, module_name in dynbatch._EXPORTS.items():
        module = importlib.import_module(f"dynbatch.{module_name}")
        assert name in module.__all__, (module_name, name)
        assert getattr(dynbatch, name) is getattr(module, name)
    assert set(PUBLIC) <= set(dir(dynbatch))


def _fresh(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter that
    imports the package from this tree."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    return run.stdout


#: Prints the package's loaded submodules, one line, sorted.
LOADED = "import sys\nprint(*sorted(m for m in sys.modules if m.startswith('dynbatch.')))\n"


@pytest.mark.parametrize("statement,loaded", [
    ("import dynbatch", ""),
    ("from dynbatch import optimal_schedule", "cost instance offline"),
    # The adversary workload's names: no study runner and no CSV code.
    ("from dynbatch import FeatureMultiset, AdversaryConfig, Wta, ConstantCost",
     "adversary cost instance offline online"),
    # CSV code names the adversary's types only in annotations.
    ("from dynbatch import load_arrivals, write_results", "cost instance io_csv offline online sim"),
], ids=["bare", "offline", "adversary", "io_csv"])
def test_a_name_loads_only_the_modules_it_needs(statement, loaded):
    want = " ".join(f"dynbatch.{m}" for m in loaded.split())
    assert _fresh(f"{statement}\n{LOADED}") == want + "\n"


def test_star_import_binds_every_public_name():
    code = ("ns = {}\nexec('from dynbatch import *', ns)\n"
            "print(*sorted(k for k in ns if k != '__builtins__'))\n")
    assert _fresh(code).split() == sorted(PUBLIC)


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    code = ("import dynbatch\ntry:\n    dynbatch.nope\nexcept AttributeError as exc:\n"
            "    print(exc)\n" + LOADED)
    assert _fresh(code) == "module 'dynbatch' has no attribute 'nope'\n\n"


def test_a_parallel_study_matches_the_serial_one():
    code = ("from dynbatch import ConstantRate, SqrtCount, Wta, run_study\n"
            "kw = dict(n_values=[8, 30], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],\n"
            "          cost_fn=SqrtCount(), trials=3, seed=11)\n"
            "serial = run_study(parallelism=1, **kw)\n"
            "print(len(serial), serial == run_study(parallelism=2, **kw))\n")
    assert _fresh(code) == "6 True\n"
