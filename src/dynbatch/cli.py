"""Command-line interface.

Subcommands: ``offline`` (exact optimum for an arrivals file), ``online``
(run a policy on an arrivals file), ``oracle`` (brute-force optimum,
size-capped), ``gamma`` (curvature of a cost spec), ``validate``
(admissibility report), ``simulate`` (Monte-Carlo study), ``adversary``
(worst-case construction against a policy).

Exit codes: 0 on success, 2 for usage errors (including unknown cost,
policy, or rate specs), 1 otherwise with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .adversary import AdversaryConfig, run_adversary
from .cost import CostFunction, FeatureMultiset, curvature, parse_cost_spec, validate_assumption1
from .instance import Schedule, ScheduleCost
from .io_csv import (
    load_arrivals,
    save_arrivals,
    write_adversary_report,
    write_results,
)
from .offline import brute_force_optimum, optimal_schedule
from .online import PolicyConfig, Wta, parse_policy_spec, run_policy
from .sim import check_study_args, parse_rate_spec, run_study, summarize

__all__ = ["cli_main", "main"]


class UsageError(ValueError):
    """Bad spec string or flag combination; exits with status 2."""


def _cost(spec: str) -> CostFunction:
    try:
        return parse_cost_spec(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _policy(spec: str, alpha: float | None, f: CostFunction) -> PolicyConfig:
    spec = spec.strip()
    if spec == "wta":
        # bare "wta" picks --alpha if given, else the cost's curvature
        return Wta(alpha if alpha is not None else curvature(f))
    try:
        policy = parse_policy_spec(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if alpha is not None and isinstance(policy, Wta):
        policy = Wta(alpha)
    return policy


def _print_run(sched: Schedule, cost: ScheduleCost) -> None:
    for j, b in enumerate(sched.batches, start=1):
        print(f"batch {j}: samples {b.lo}-{b.hi} time={b.time!r}")
    print(f"W={cost.waiting!r} F={cost.processing!r} J={cost.total!r}")


def _cmd_offline(args) -> int:
    f = _cost(args.cost)
    inst = load_arrivals(args.arrivals)
    sched, cost = optimal_schedule(inst, f)
    _print_run(sched, cost)
    return 0


def _cmd_oracle(args) -> int:
    f = _cost(args.cost)
    inst = load_arrivals(args.arrivals)
    sched, cost = brute_force_optimum(inst, f, max_n=args.max_n)
    _print_run(sched, cost)
    return 0


def _cmd_online(args) -> int:
    f = _cost(args.cost)
    policy = _policy(args.policy, args.alpha, f)
    inst = load_arrivals(args.arrivals)
    sched, cost = run_policy(inst, f, policy)
    print(f"policy={policy.spec_string()}")
    _print_run(sched, cost)
    return 0


def _cmd_gamma(args) -> int:
    f = _cost(args.cost)
    print(repr(curvature(f, max_batch=args.max_batch)))
    return 0


def _cmd_validate(args) -> int:
    f = _cost(args.cost)
    report = validate_assumption1(f, max_batch=args.max_batch)
    print(f"ok={report.ok} checked={report.checked_pairs} violations={len(report.violations)}")
    for v in report.violations:
        where = f" at {v.sizes}" if v.sizes else ""
        print(f"violation: {v.condition}{where}: {v.detail}")
    return 0


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"bad integer list {text!r}") from None


def _cmd_simulate(args) -> int:
    f = _cost(args.cost)
    # A sin: spec holds commas, so --rate-fn is one spec and never split.
    rate_specs = [args.rate_fn] if args.rate_fn else [p for p in args.rate.split(",") if p.strip()]
    try:
        rates = [parse_rate_spec(p) for p in rate_specs]
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if (args.horizon is None) == (args.n is None):
        raise UsageError("give exactly one of --n or --horizon")
    n_values = _parse_int_list(args.n) if args.n is not None else None
    try:
        check_study_args(n_values, args.trials, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    specs = args.policy if args.policy else ["wta"]
    policies = [_policy(s, args.alpha, f) for s in specs]
    records = run_study(
        n_values=n_values, horizon=args.horizon, rates=rates, policies=policies,
        cost_fn=f, trials=args.trials, seed=args.seed,
        parallelism=args.parallelism, progress=True)
    if args.out:
        write_results(records, args.out)
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    for row in summarize(records):
        print(f"{row.group} n={row.n} policy={row.policy} trials={row.count} "
              f"min={row.min:.6g} q25={row.q25:.6g} median={row.median:.6g} "
              f"q75={row.q75:.6g} max={row.max:.6g}")
    return 0


def _cmd_adversary(args) -> int:
    f = _cost(args.cost)
    policy = _policy(args.policy, args.alpha, f)
    cfg = AdversaryConfig(
        x1=FeatureMultiset.of_size(args.x1),
        x2=FeatureMultiset.of_size(args.x2),
        rounds=args.rounds,
        epsilon=args.epsilon,
    )
    report = run_adversary(policy, f, cfg)
    print(f"n={report.instance.n} J={report.alg_cost.total!r}")
    print(f"odd_cost={report.odd_cost!r} even_cost={report.even_cost!r}")
    print(f"opt_upper={report.opt_upper!r} opt_exact={report.opt_exact!r}")
    print(f"ratio_vs_avg={report.ratio_vs_avg!r} ratio_vs_exact={report.ratio_vs_exact!r}")
    print(f"limit_bound={report.limit_bound!r} split_waves={report.split_waves}")
    if args.out:
        write_adversary_report(report, cfg, policy.spec_string(), f.spec_string(), args.out)
    if args.arrivals_out:
        save_arrivals(report.instance, args.arrivals_out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dynbatch",
        description="Optimal and competitive batching of timed arrivals.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        q = sub.add_parser(name, help=help_)
        q.set_defaults(func=fn)
        return q

    q = add("offline", _cmd_offline, "exact optimal schedule for an arrivals file")
    q.add_argument("--arrivals", required=True)
    q.add_argument("--cost", required=True)

    q = add("oracle", _cmd_oracle, "brute-force optimal schedule (size-capped)")
    q.add_argument("--arrivals", required=True)
    q.add_argument("--cost", required=True)
    q.add_argument("--max-n", type=int, default=20)

    q = add("online", _cmd_online, "run an online policy on an arrivals file")
    q.add_argument("--arrivals", required=True)
    q.add_argument("--cost", required=True)
    q.add_argument("--policy", required=True)
    q.add_argument("--alpha", type=float, default=None)

    q = add("gamma", _cmd_gamma, "curvature of a cost spec")
    q.add_argument("--cost", required=True)
    q.add_argument("--max-batch", type=int, default=64)

    q = add("validate", _cmd_validate, "admissibility report for a cost spec")
    q.add_argument("--cost", required=True)
    q.add_argument("--max-batch", type=int, default=64)

    q = add("simulate", _cmd_simulate, "Monte-Carlo study against the offline optimum")
    q.add_argument("--cost", required=True)
    q.add_argument("--policy", action="append",
                   help="policy spec; repeatable (default: wta with alpha = curvature)")
    q.add_argument("--alpha", type=float, default=None)
    q.add_argument("--n", default=None, help="comma-separated sample counts")
    q.add_argument("--horizon", type=float, default=None,
                   help="fixed time window instead of a fixed count")
    q.add_argument("--rate", default="2", help="comma-separated constant rates")
    q.add_argument("--rate-fn", default=None, help="sin:<base>,<amp>,<period>")
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--parallelism", type=int, default=1)
    q.add_argument("--out", default=None, help="write records CSV here")

    q = add("adversary", _cmd_adversary, "worst-case construction against a policy")
    q.add_argument("--cost", required=True)
    q.add_argument("--policy", required=True)
    q.add_argument("--alpha", type=float, default=None)
    q.add_argument("--x1", type=int, default=1, help="size of the first arrival group")
    q.add_argument("--x2", type=int, default=1, help="size of the second arrival group")
    q.add_argument("--rounds", type=int, default=200)
    q.add_argument("--epsilon", type=float, default=None,
                   help="release gap (default: 1e-6 x the policy's first flush delay)")
    q.add_argument("--out", default=None, help="write the report CSV row here")
    q.add_argument("--arrivals-out", default=None, help="write the realized instance here")

    return p


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"dynbatch: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"dynbatch: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
