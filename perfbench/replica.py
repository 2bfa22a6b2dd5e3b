"""Traced replica of ``rdmlab.bench.run_experiment``.

Built only from the public functions of each module, with one span around
every call into a layer.  It uses the same ``derive_seed`` paths, the same
evaluator choice and the same aggregation as ``run_experiment``, so its
``ResultRow``s must equal the untraced ones bit for bit; ``checks.py``
holds it to that.  Hooks run with the tracer paused, so checks and probes
stay outside the replica's wall clock.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from rdmlab import (
    ExperimentConfig,
    MarkovianPolicy,
    ResultRow,
    RewardAugmentedPolicy,
    RewardGrid,
    bc,
    brute_force_return_distribution,
    build_augmented_mdp,
    build_rskt_lp,
    derive_seed,
    discretize_reward,
    empirical_return_distribution,
    enumerate_trajectory_distribution,
    exact_return_distribution,
    generate_instance,
    mc_return_distribution,
    mimic_md,
    rs_bc,
    rs_kt,
    sample_trajectories,
    solve,
    wasserstein,
)

from spans import Tracer

#: Reward-augmented evaluations with more (state x policy grid x return grid)
#: cells than this fall back to Monte Carlo.  Copied from the harness: if the
#: two drift apart, the replica stops matching ``run_experiment`` and the
#: equality check fails.
DP_CELL_BUDGET = 2_000_000


@dataclass
class ReplicaRound:
    rows: list[ResultRow]
    #: (task id, exception type, message) of every failed task.
    errors: list[tuple] = field(default_factory=list)
    #: Wall time of the round minus the time the tracer spent paused.
    seconds: float = 0.0


class Hooks:
    """Called with the tracer paused; the default does nothing."""

    def after_rskt(self, tracer, task, mdp, data, grid, policy, diag) -> None:
        pass

    def after_evaluate(self, tracer, task, cfg, mdp, policy, dist, path) -> None:
        pass


def _expert_truth(tracer: Tracer, cfg: ExperimentConfig, mdp, expert, i: int, task):
    if cfg.eval_mode == "exact-dp":
        grid = RewardGrid(cfg.rho, mdp.horizon)
        with tracer.span("policies.dp.markov", task, cells=_cells(mdp, 1, grid)):
            return exact_return_distribution(mdp, expert, mdp.reward, grid)
    if cfg.eval_mode == "enumeration":
        with tracer.span("policies.enumeration", task):
            return brute_force_return_distribution(mdp, expert, mdp.reward)
    seed = derive_seed(cfg.master_seed, "expert-eval", i)
    with tracer.span("policies.mc_return_distribution", task, samples=cfg.mc_samples):
        return mc_return_distribution(mdp, expert, mdp.reward, cfg.mc_samples, seed)


def _cells(mdp, g_pol: int, eval_grid: RewardGrid) -> int:
    """S * G_pol * G_ret * A * H, the cells one DP pushes mass through."""
    return mdp.num_states * g_pol * eval_grid.full_size * mdp.num_actions * mdp.horizon


def _evaluate(tracer: Tracer, cfg: ExperimentConfig, mdp, policy, eval_seed: int, task):
    """The harness's evaluator choice, decided from outside; returns (dist, path)."""
    eval_grid = RewardGrid(cfg.rho, mdp.horizon)
    if isinstance(policy, MarkovianPolicy):
        with tracer.span("policies.dp.markov", task, cells=_cells(mdp, 1, eval_grid)):
            return exact_return_distribution(mdp, policy, mdp.reward, eval_grid), "markov"
    if not isinstance(policy, RewardAugmentedPolicy):
        raise TypeError(f"cannot evaluate policy kind {type(policy).__name__}")
    g_pol = policy.grid.num_multiples(mdp.horizon - 1)
    if mdp.num_states * g_pol * eval_grid.full_size > DP_CELL_BUDGET:
        tracer.count("policies.mc_fallback.count")
        with tracer.span("policies.mc_return_distribution", task, samples=cfg.mc_samples):
            dist = mc_return_distribution(mdp, policy, mdp.reward, cfg.mc_samples, eval_seed)
        return dist, "mc-fallback"
    same_reward = policy.grid == eval_grid and np.array_equal(
        policy.reward.multiples, discretize_reward(mdp.reward, eval_grid).multiples
    )
    if same_reward:
        with tracer.span("policies.dp.single", task, cells=_cells(mdp, 1, eval_grid)):
            return exact_return_distribution(mdp, policy, mdp.reward, eval_grid), "single"
    with tracer.span("policies.dp.joint", task, cells=_cells(mdp, g_pol, eval_grid)):
        return exact_return_distribution(mdp, policy, mdp.reward, eval_grid), "joint"


def _run_task(tracer, hooks, cfg, alg, mdp, data, truth, eval_seed, task) -> float:
    grid = RewardGrid(cfg.theta, mdp.horizon)
    with tracer.span("phase.fit", task):
        if alg == "eta-hat":
            with tracer.span("distributions.empirical_return_distribution", task):
                estimate = empirical_return_distribution(data, mdp.reward, grid)
        elif alg == "rs-bc":
            with tracer.span("rsbc.rs_bc", task, steps=data.states.size):
                policy = rs_bc(data, mdp.reward, grid)
        elif alg == "rs-kt":
            with tracer.span("rskt.rs_kt", task) as sp:
                policy, diag = rs_kt(data, mdp, mdp.reward, grid)
                sp.counts.update(
                    lp_variables=diag.num_variables,
                    lp_constraints=diag.num_constraints,
                    lp_iterations=diag.iterations,
                    duality_gap=diag.duality_gap,
                    eta_mass_drift=diag.eta_mass_drift,
                )
        elif alg == "bc":
            with tracer.span("baselines.bc", task):
                policy = bc(data)
        elif alg == "mimic-md":
            with tracer.span("baselines.mimic_md", task):
                policy = mimic_md(data, mdp)
        else:
            raise ValueError(f"unknown algorithm {alg!r}")
    if alg == "rs-kt":
        with tracer.paused():
            hooks.after_rskt(tracer, task, mdp, data, grid, policy, diag)
    with tracer.span("phase.evaluate", task):
        if alg == "eta-hat":
            with tracer.span("distributions.wasserstein", task):
                # estimate-only diagnostic: the fitted policy is at most twice as far
                return 2.0 * wasserstein(estimate, truth)
        dist, path = _evaluate(tracer, cfg, mdp, policy, eval_seed, task)
        with tracer.span("distributions.wasserstein", task):
            error = wasserstein(dist, truth)
    with tracer.paused():
        hooks.after_evaluate(tracer, task, cfg, mdp, policy, dist, path)
    return error


def replicate(
    cfg: ExperimentConfig, round_index: int, tracer: Tracer, hooks: Hooks
) -> ReplicaRound:
    """Run one ``run_experiment`` configuration task by task, traced."""
    paused_before = tracer.paused_seconds
    t0 = time.perf_counter()
    per_instance: dict[tuple[str, int], list[float]] = {
        (alg, n): [] for alg in cfg.algorithms for n in cfg.n_sweep
    }
    failures = {key: 0 for key in per_instance}
    errors: list[tuple] = []
    for i in range(cfg.instances):
        task = (round_index, i, None, None, None)
        with tracer.span("bench.generate_instance", task):
            mdp, expert = generate_instance(cfg, derive_seed(cfg.master_seed, "instance", i))
        with tracer.span("phase.truth", task):
            truth = _expert_truth(tracer, cfg, mdp, expert, i, task)
        if cfg.eval_mode == "enumeration":
            with tracer.paused():
                trajectories, _ = enumerate_trajectory_distribution(mdp, expert)
                tracer.count("policies.enumeration.trajectories", len(trajectories))
        for k, n in enumerate(cfg.n_sweep):
            seed_errors: dict[str, list[float]] = {alg: [] for alg in cfg.algorithms}
            for j in range(cfg.seeds_per_dataset):
                task = (round_index, i, n, j, None)
                seed = derive_seed(cfg.master_seed, "dataset", i, k, j)
                with tracer.span("phase.sample", task):
                    with tracer.span(
                        "policies.sample_trajectories", task, steps=n * mdp.horizon
                    ):
                        data = sample_trajectories(mdp, expert, n, seed)
                for idx, alg in enumerate(cfg.algorithms):
                    task = (round_index, i, n, j, alg)
                    eval_seed = derive_seed(cfg.master_seed, "policy-eval", i, k, j, idx)
                    try:
                        seed_errors[alg].append(
                            _run_task(tracer, hooks, cfg, alg, mdp, data, truth, eval_seed, task)
                        )
                    except Exception as exc:  # the harness counts these as failures
                        failures[(alg, n)] += 1
                        errors.append((task, type(exc).__name__, str(exc)))
            for alg in cfg.algorithms:
                errs = seed_errors[alg]
                per_instance[(alg, n)].append(float(np.mean(errs)) if errs else math.nan)
    seconds = time.perf_counter() - t0 - (tracer.paused_seconds - paused_before)

    rows: list[ResultRow] = []
    for alg in cfg.algorithms:
        for n in cfg.n_sweep:
            values = np.asarray(per_instance[(alg, n)])
            ok = values[~np.isnan(values)]
            rows.append(
                ResultRow(
                    algorithm=alg,
                    n=n,
                    per_instance=tuple(values.tolist()),
                    mean=float(ok.mean()) if ok.size else math.nan,
                    std=float(ok.std(ddof=1)) if ok.size > 1 else 0.0,
                    instances=cfg.instances,
                    seeds=cfg.seeds_per_dataset,
                    failures=failures[(alg, n)],
                )
            )
    return ReplicaRound(rows=rows, errors=errors, seconds=seconds)


def probe_rskt_program(tracer: Tracer, task, mdp, data, grid) -> None:
    """Rebuild and solve one rs-kt program through the public pieces, traced.

    Gives the per-layer split of ``rs_kt`` that a span around the whole call
    cannot: augmented-MDP build, LP assembly and the simplex solve.
    """
    eta_hat = empirical_return_distribution(data, mdp.reward, grid)
    with tracer.span("mdp.build_augmented_mdp", task) as sp:
        aug = build_augmented_mdp(mdp, grid, reward=mdp.reward)
        sp.counts["reachable_cells"] = int(sum(int(r.sum()) for r in aug.reachable))
    with tracer.span("rskt.build_rskt_lp", task):
        lp = build_rskt_lp(aug, eta_hat)
    m, n = lp.num_constraints, lp.num_variables
    with tracer.span("lp.solve", task, tableau_bytes=(m + 1) * (n + 1) * 8) as sp:
        sp.counts["iterations"] = solve(lp).iterations
