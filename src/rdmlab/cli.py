"""Command-line front end.

Subcommands: ``run`` executes a benchmark config and writes the results CSV,
``fixtures`` runs the exact fixture diagnostics (nonzero exit on any
failure), ``gen-instance`` samples a random MDP to a JSON document, and
``eval-policy`` prints the exact return distribution of a stored policy on
a stored MDP (optionally its Wasserstein distance to a reference dump).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench, serialize
from .distributions import wasserstein
from .mdp import RewardGrid
from .policies import (
    MarkovianPolicy,
    RewardAugmentedPolicy,
    _check_dims,
    exact_return_distribution,
)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = bench.load_config(args.config)
    if args.output is not None:
        cfg = bench.ExperimentConfig(**{**cfg.__dict__, "output_path": args.output})
    if cfg.output_path is None:
        print("no output path configured (set output_path or pass --output)", file=sys.stderr)
        return 2
    rows = bench.run_experiment(cfg)
    distributions = None
    if args.dump_distributions:
        distributions = bench.collect_example_distributions(cfg, cfg.n_sweep[-1])
    written = bench.emit_results(rows, cfg.output_path, distributions)
    for row in rows:
        print(f"{row.algorithm} N={row.n} mean={row.mean:.6g} std={row.std:.6g} "
              f"failures={row.failures}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_fixtures(_args: argparse.Namespace) -> int:
    report = bench.run_fixture_suite()
    print(report.to_text())
    return 0 if report.passed else 1


def _cmd_gen_instance(args: argparse.Namespace) -> int:
    cfg = bench.ExperimentConfig(
        num_states=args.states,
        num_actions=args.actions,
        horizon=args.horizon,
        theta=1.0,
        rho=args.rho,
        expert_kind=args.expert,
        n_sweep=(1,),
        instances=1,
        seeds_per_dataset=1,
    )
    mdp, expert = bench.generate_instance(cfg, args.seed)
    Path(args.out).write_text(serialize.mdp_to_json(mdp))
    print(f"wrote {args.out} (S={mdp.num_states} A={mdp.num_actions} H={mdp.horizon} "
          f"s0={mdp.initial_state} expert={cfg.expert_kind})")
    if args.expert_out is not None:
        if not isinstance(expert, MarkovianPolicy):
            print("only markovian experts can be serialized", file=sys.stderr)
            return 2
        Path(args.expert_out).write_text(serialize.format_policy(expert))
        print(f"wrote {args.expert_out}")
    return 0


def _cmd_eval_policy(args: argparse.Namespace) -> int:
    try:
        mdp = serialize.mdp_from_json(Path(args.mdp).read_text())
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    try:
        policy = serialize.parse_policy(Path(args.policy).read_text())
        _check_dims(mdp, policy)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    if args.grid_step is not None:
        step = args.grid_step
    elif isinstance(policy, RewardAugmentedPolicy):
        step = policy.grid.theta
    else:
        print("a markovian policy needs --grid-step for exact evaluation", file=sys.stderr)
        return 2
    grid = RewardGrid(step, mdp.horizon)
    dist = exact_return_distribution(mdp, policy, mdp.reward, grid)
    sys.stdout.write(serialize.format_distribution(dist))
    if args.against is not None:
        reference = serialize.parse_distribution(Path(args.against).read_text())
        print(f"wasserstein {wasserstein(dist, reference)!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="rdmlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark configuration")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--output", default=None, help="override the CSV output path")
    p_run.add_argument(
        "--dump-distributions",
        action="store_true",
        help="also dump example distributions for the largest N",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_fix = sub.add_parser("fixtures", help="run the exact fixture diagnostics")
    p_fix.set_defaults(fn=_cmd_fixtures)

    p_gen = sub.add_parser("gen-instance", help="sample a random MDP to JSON")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--states", type=int, default=2)
    p_gen.add_argument("--actions", type=int, default=2)
    p_gen.add_argument("--horizon", type=int, default=5)
    p_gen.add_argument("--rho", type=float, default=0.03, help="reward grid step")
    p_gen.add_argument(
        "--expert", choices=("markovian", "parametric-history"), default="markovian"
    )
    p_gen.add_argument("--out", required=True, help="MDP JSON output path")
    p_gen.add_argument("--expert-out", default=None, help="also save a markovian expert")
    p_gen.set_defaults(fn=_cmd_gen_instance)

    p_eval = sub.add_parser("eval-policy", help="exact return distribution of a policy")
    p_eval.add_argument("--mdp", required=True)
    p_eval.add_argument("--policy", required=True)
    p_eval.add_argument("--grid-step", type=float, default=None,
                        help="evaluation grid step (defaults to the policy's theta)")
    p_eval.add_argument("--against", default=None,
                        help="distribution dump to compare against")
    p_eval.set_defaults(fn=_cmd_eval_policy)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
