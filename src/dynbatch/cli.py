"""Command-line interface.

Subcommands: ``offline`` (exact optimum for an arrivals file), ``online``
(run a policy on an arrivals file), ``oracle`` (brute-force optimum,
size-capped), ``gamma`` (curvature of a cost spec), ``validate``
(admissibility report), ``simulate`` (Monte-Carlo study), ``adversary``
(worst-case construction against a policy).

Exit codes: 0 on success, 2 for usage errors (an unknown cost, policy or
rate spec, or a flag out of range, such as ``--max-batch``, ``--max-n``,
``--alpha`` or a non-finite ``sin:`` rate), 1 for bad input (a ``ValueError``
or ``OSError``) with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .adversary import AdversaryConfig, run_adversary
from .cost import (
    CostFunction,
    FeatureMultiset,
    check_whole,
    curvature,
    parse_cost_spec,
    validate_assumption1,
)
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


def _usage(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a ValueError re-raised as a UsageError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _policy(spec: str, alpha: float | None, f: CostFunction) -> PolicyConfig:
    """The policy of ``spec``.  ``--alpha``, checked whenever given, sets a
    bare "wta"'s alpha, which is otherwise the cost's curvature."""
    given = None if alpha is None else _usage(Wta, alpha)
    spec = spec.strip()
    if spec != "wta":
        return _usage(parse_policy_spec, spec)
    return given or Wta(curvature(f))


def _cmd_schedule(args, f: CostFunction) -> int:
    """``offline``, ``oracle`` and ``online``: the subcommand's solver
    checks its flags, then solves the arrivals file."""
    solve = args.solver(args, f)
    sched, cost = solve(load_arrivals(args.arrivals))
    ends, stamps = sched.ends.tolist(), sched.stamps.tolist()
    for j, (lo, hi, t) in enumerate(zip((0, *ends), ends, stamps), start=1):
        print(f"batch {j}: samples {lo + 1}-{hi} time={t!r}")
    print(f"W={cost.waiting!r} F={cost.processing!r} J={cost.total!r}")
    return 0


def _offline(args, f: CostFunction):
    return lambda inst: optimal_schedule(inst, f)


def _oracle(args, f: CostFunction):
    _usage(check_whole, "max_n", args.max_n, 1)
    return lambda inst: brute_force_optimum(inst, f, max_n=args.max_n)


def _online(args, f: CostFunction):
    policy = _policy(args.policy, args.alpha, f)

    def solve(inst):
        run = run_policy(inst, f, policy)
        print(f"policy={policy.spec_string()}")
        return run
    return solve


def _cmd_gamma(args, f: CostFunction) -> int:
    _usage(check_whole, "max_batch", args.max_batch, 2)
    print(repr(curvature(f, max_batch=args.max_batch)))
    return 0


def _cmd_validate(args, f: CostFunction) -> int:
    _usage(check_whole, "max_batch", args.max_batch, 1)
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


def _cmd_simulate(args, f: CostFunction) -> int:
    # A sin: spec holds commas, so --rate-fn is one spec and never split.
    rate_specs = [args.rate_fn] if args.rate_fn else [p for p in args.rate.split(",") if p.strip()]
    rates = [_usage(parse_rate_spec, p) for p in rate_specs]
    n_values = _parse_int_list(args.n) if args.n is not None else None
    policies = [_policy(s, args.alpha, f) for s in args.policy or ["wta"]]
    _usage(check_study_args, n_values, args.horizon, rates, policies, args.trials, args.seed,
           args.parallelism)
    records = run_study(
        n_values=n_values, horizon=args.horizon, rates=rates, policies=policies,
        cost_fn=f, trials=args.trials, seed=args.seed,
        parallelism=args.parallelism, progress=True)
    if args.out:
        write_results(records, args.out)
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    for row in summarize(records):
        n = "varies" if row.n is None else row.n
        print(f"{row.group} n={n} policy={row.policy} trials={row.count} "
              f"min={row.min:.6g} q25={row.q25:.6g} median={row.median:.6g} "
              f"q75={row.q75:.6g} max={row.max:.6g}")
    return 0


def _cmd_adversary(args, f: CostFunction) -> int:
    policy = _policy(args.policy, args.alpha, f)
    cfg = _usage(lambda: AdversaryConfig(x1=FeatureMultiset.of_size(args.x1),
                                         x2=FeatureMultiset.of_size(args.x2),
                                         rounds=args.rounds, epsilon=args.epsilon))
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


def _flag(name: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag that several subcommands share."""
    q = argparse.ArgumentParser(add_help=False)
    q.add_argument(name, **kwargs)
    return q


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dynbatch",
        description="Optimal and competitive batching of timed arrivals.")
    sub = p.add_subparsers(dest="command", required=True)
    arrivals = _flag("--arrivals", required=True)
    cost = _flag("--cost", required=True)
    policy = _flag("--policy", required=True)
    alpha = _flag("--alpha", type=float, default=None)
    max_batch = _flag("--max-batch", type=int, default=64)

    def add(name, fn, help_, *parents, **defaults):
        q = sub.add_parser(name, help=help_, parents=parents)
        q.set_defaults(func=fn, **defaults)
        return q

    add("offline", _cmd_schedule, "exact optimal schedule for an arrivals file",
        arrivals, cost, solver=_offline)
    q = add("oracle", _cmd_schedule, "brute-force optimal schedule (size-capped)",
            arrivals, cost, solver=_oracle)
    q.add_argument("--max-n", type=int, default=20)
    add("online", _cmd_schedule, "run an online policy on an arrivals file",
        arrivals, cost, policy, alpha, solver=_online)

    add("gamma", _cmd_gamma, "curvature of a cost spec", cost, max_batch)
    add("validate", _cmd_validate, "admissibility report for a cost spec", cost, max_batch)

    q = add("simulate", _cmd_simulate, "Monte-Carlo study against the offline optimum",
            cost, alpha)
    q.add_argument("--policy", action="append",
                   help="policy spec; repeatable (default: wta with alpha = curvature)")
    q.add_argument("--n", default=None, help="comma-separated sample counts")
    q.add_argument("--horizon", type=float, default=None,
                   help="fixed time window instead of a fixed count")
    q.add_argument("--rate", default="2", help="comma-separated constant rates")
    q.add_argument("--rate-fn", default=None, help="sin:<base>,<amp>,<period>")
    q.add_argument("--trials", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--parallelism", type=int, default=1)
    q.add_argument("--out", default=None, help="write records CSV here")

    q = add("adversary", _cmd_adversary, "worst-case construction against a policy",
            cost, policy, alpha)
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
        return args.func(args, _usage(parse_cost_spec, args.cost))
    except UsageError as exc:
        print(f"dynbatch: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"dynbatch: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
