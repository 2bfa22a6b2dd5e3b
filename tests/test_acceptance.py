"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-7 and 11 are oracle- or property-based with pinned tolerances;
criteria 8-10 are trend-and-band reproductions at desk scale with pinned
master seeds (the reference table values are not bit-reproducible, so bands
rather than point values are asserted).
"""

import time

import numpy as np

import rdmlab as rl
from rdmlab.lp import solve_transport
from rdmlab.policies import exact_augmented_occupancy, random_reward_augmented_policy
from rdmlab.rskt import OccupancySolution, occupancy_to_policy

from conftest import half_l1_trajectories, make_instance, random_distribution


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} [{name}] {status} {detail}")
    assert ok, f"acceptance criterion {num} ({name}): {detail}"


def _instance_family(count, continuous_reward=False, theta_choices=(1.0, 0.5, 0.25)):
    """Random instances with (S, A, H) <= (3, 2, 4), alternating expert kinds."""
    rng = np.random.default_rng(2024)
    for i in range(count):
        num_states = int(rng.integers(2, 4))
        horizon = int(rng.integers(2, 5))
        theta = float(rng.choice(theta_choices))
        kind = "markovian" if i % 2 == 0 else "parametric-history"
        mdp, expert = make_instance(
            seed=10_000 + i,
            num_states=num_states,
            num_actions=2,
            horizon=horizon,
            rho=theta,
            expert_kind=kind,
            continuous_reward=continuous_reward,
        )
        yield mdp, expert, theta


def test_c01_class_projection_oracle_equivalence():
    started = time.time()
    worst = 0.0
    for mdp, expert, theta in _instance_family(50):
        grid = rl.RewardGrid(theta, mdp.horizon)
        pol = rl.construct_pi_r(mdp, expert, rl.discretize_reward(mdp.reward, grid), grid)
        projected = rl.exact_return_distribution(mdp, pol, mdp.reward, grid)
        truth = rl.brute_force_return_distribution(mdp, expert, mdp.reward)
        worst = max(worst, rl.wasserstein(projected, truth))
    elapsed = time.time() - started
    _report(
        1, "grid-valued projection equals expert", worst <= 1e-9 and elapsed < 60,
        f"worst W = {worst:.3e} over 50 instances in {elapsed:.1f}s",
    )


def test_c02_discretized_projection_bound():
    started = time.time()
    worst_margin = -np.inf
    for mdp, expert, _ in _instance_family(50, continuous_reward=True):
        truth = rl.brute_force_return_distribution(mdp, expert, mdp.reward)
        for theta in (0.5, 0.1):
            grid = rl.RewardGrid(theta, mdp.horizon)
            pol = rl.construct_pi_r(
                mdp, expert, rl.discretize_reward(mdp.reward, grid), grid
            )
            projected = rl.brute_force_return_distribution(mdp, pol, mdp.reward)
            margin = rl.wasserstein(projected, truth) - mdp.horizon * theta
            worst_margin = max(worst_margin, margin)
    elapsed = time.time() - started
    _report(
        2, "projection error at most H*theta", worst_margin <= 1e-12 and elapsed < 120,
        f"worst (W - H*theta) = {worst_margin:.3e} in {elapsed:.1f}s",
    )


def test_c03_wasserstein_coupling_oracle():
    rng = np.random.default_rng(555)
    worst = 0.0
    for _ in range(500):
        p = random_distribution(rng, max_atoms=6)
        q = random_distribution(rng, max_atoms=6)
        costs = np.abs(p.support[:, None] - q.support[None, :])
        lp_value = solve_transport(costs, p.probs, q.probs)
        worst = max(worst, abs(rl.wasserstein(p, q) - lp_value))
    _report(3, "CDF sweep equals transport LP", worst <= 1e-9,
            f"worst |sweep - LP| = {worst:.3e} over 500 pairs")


def test_c04_wasserstein_inequality_suite():
    rng = np.random.default_rng(717)
    horizon = 5.0
    violations = 0
    for _ in range(1000):
        p = random_distribution(rng, high=horizon)
        q = random_distribution(rng, high=horizon)
        w = rl.wasserstein(p, q)
        if abs(rl.mean(p) - rl.mean(q)) > w + 1e-10:
            violations += 1
        for alpha in (0.1, 0.5, 0.9):
            if abs(rl.cvar(p, alpha) - rl.cvar(q, alpha)) > w / alpha + 1e-10:
                violations += 1
        if abs(rl.variance(p) - rl.variance(q)) > 4 * horizon * w + 1e-9:
            violations += 1
    _report(4, "mean/CVaR/variance controlled by W", violations == 0,
            f"{violations} violations over 1000 pairs")


def test_c05_markovian_gap_fixture():
    mdp, expert = rl.make_fork_fixture()
    grid = rl.RewardGrid(1.0, mdp.horizon)
    truth = rl.brute_force_return_distribution(mdp, expert, mdp.reward)
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        dist = rl.exact_return_distribution(
            mdp, rl.fork_markovian_policy(alpha), mdp.reward, grid
        )
        worst = max(worst, abs(rl.wasserstein(truth, dist) - 0.5))
    data = rl.sample_trajectories(mdp, expert, 10_000, seed=424)
    learned = rl.rs_bc(data, mdp.reward, grid)
    fitted = rl.exact_return_distribution(mdp, learned, mdp.reward, grid)
    pipeline_error = rl.wasserstein(fitted, truth)
    _report(
        5, "fixture gap 0.5 and count-based pipeline", worst <= 1e-9 and pipeline_error <= 0.05,
        f"max |gap - 0.5| = {worst:.2e}, pipeline W = {pipeline_error:.4f}",
    )


def test_c06_tv_equals_half_l1():
    rng = np.random.default_rng(161)
    reward = rl.make_tv_hard_reward(2, 2, 2)
    transitions = rng.dirichlet(np.ones(2), size=(2, 2, 2))
    mdp = rl.TabularMdp(2, 2, 2, 0, transitions, reward)
    worst = 0.0
    for _ in range(5):
        pol_a = rl.random_markovian_policy(2, 2, 2, rng)
        pol_b = rl.random_markovian_policy(2, 2, 2, rng)
        da = rl.brute_force_return_distribution(mdp, pol_a, reward)
        db = rl.brute_force_return_distribution(mdp, pol_b, reward)
        tv = rl.total_variation(da, db)
        worst = max(worst, abs(tv - half_l1_trajectories(mdp, pol_a, pol_b)))
    _report(6, "TV identity on power-of-ten reward", worst <= 1e-12,
            f"worst |TV - L1/2| = {worst:.3e}")


def test_c07_lp_lower_envelope_and_round_trip():
    rng = np.random.default_rng(808)
    worst_gap = -np.inf
    worst_fixed_point = 0.0
    for inst in range(20):
        mdp, expert = make_instance(
            seed=20_000 + inst, num_states=2, num_actions=2, horizon=3,
            rho=0.5, expert_kind="parametric-history",
        )
        grid = rl.RewardGrid(0.5, mdp.horizon)
        gr = rl.discretize_reward(mdp.reward, grid)
        data = rl.sample_trajectories(mdp, expert, 50, seed=inst)
        eta_hat = rl.empirical_return_distribution(data, mdp.reward, grid)
        _, diag = rl.rs_kt(data, mdp, mdp.reward, grid)
        for _ in range(100):
            candidate = random_reward_augmented_policy(gr, mdp.num_states, rng)
            dist = rl.exact_return_distribution(mdp, candidate, mdp.reward, grid)
            worst_gap = max(worst_gap, diag.objective - rl.wasserstein(dist, eta_hat))
        probe = random_reward_augmented_policy(gr, mdp.num_states, rng)
        occ = exact_augmented_occupancy(mdp, probe, gr)
        eta = rl.exact_return_distribution(mdp, probe, mdp.reward, grid)
        recovered = occupancy_to_policy(
            OccupancySolution(d=occ, eta=eta, objective=0.0, reward=gr), grid
        )
        live = occ.sum(axis=3) > 1e-9
        worst_fixed_point = max(
            worst_fixed_point, np.abs(recovered.table - probe.table)[live].max()
        )
    ok = worst_gap <= 1e-7 and worst_fixed_point <= 1e-7
    _report(
        7, "LP lower envelope and occupancy round trip", ok,
        f"max (objective - candidate W) = {worst_gap:.3e}, "
        f"round-trip deviation = {worst_fixed_point:.3e}",
    )


def _sweep_medians(rows):
    out = {}
    for row in rows:
        out[(row.algorithm, row.n)] = float(np.nanmedian(row.per_instance))
    return out


def test_c08_headline_trend_at_desk_scale():
    started = time.time()
    cfg = rl.ExperimentConfig(
        num_states=2, num_actions=2, horizon=5, theta=0.05, rho=0.03,
        expert_kind="parametric-history", n_sweep=(20, 300, 10_000),
        instances=20, seeds_per_dataset=2, eval_mode="enumeration",
        algorithms=("rs-bc", "rs-kt", "bc", "mimic-md"), master_seed=1,
    )
    rows = rl.run_experiment(cfg)
    med = _sweep_medians(rows)
    elapsed = time.time() - started
    decreasing = all(
        med[(alg, 20)] > med[(alg, 300)] > med[(alg, 10_000)]
        for alg in ("rs-bc", "rs-kt")
    )
    matchers_small = med[("rs-bc", 10_000)] < 0.03 and med[("rs-kt", 10_000)] < 0.03
    baselines_stuck = med[("bc", 10_000)] > 0.04 and med[("mimic-md", 10_000)] > 0.04
    no_failures = all(row.failures == 0 for row in rows)
    ok = decreasing and matchers_small and baselines_stuck and no_failures and elapsed < 900
    detail = (
        f"rs-bc {med[('rs-bc', 20)]:.3f}>{med[('rs-bc', 300)]:.3f}>{med[('rs-bc', 10_000)]:.3f}, "
        f"rs-kt {med[('rs-kt', 20)]:.3f}>{med[('rs-kt', 300)]:.3f}>{med[('rs-kt', 10_000)]:.3f}, "
        f"bc@1e4 {med[('bc', 10_000)]:.3f}, mimic@1e4 {med[('mimic-md', 10_000)]:.3f}, "
        f"{elapsed:.0f}s"
    )
    _report(8, "headline sweep: matchers improve, baselines plateau", ok, detail)


def test_c09_coarse_grid_sensitivity():
    cfg = rl.ExperimentConfig(
        num_states=2, num_actions=2, horizon=5, theta=0.5, rho=0.03,
        expert_kind="parametric-history", n_sweep=(20, 300, 10_000),
        instances=20, seeds_per_dataset=2, eval_mode="enumeration",
        algorithms=("rs-bc", "rs-kt"), master_seed=1,
    )
    med = _sweep_medians(rl.run_experiment(cfg))
    kt_in_band = 0.05 <= med[("rs-kt", 10_000)] <= 0.25
    bc_robust = med[("rs-bc", 10_000)] < 0.05
    _report(
        9, "coarse grid hurts the LP matcher, not the counter",
        kt_in_band and bc_robust,
        f"rs-kt@1e4 = {med[('rs-kt', 10_000)]:.3f} (band [0.05, 0.25]), "
        f"rs-bc@1e4 = {med[('rs-bc', 10_000)]:.3f}",
    )


def test_c10_estimate_diagnostic_at_scale():
    cfg = rl.ExperimentConfig(
        num_states=100, num_actions=5, horizon=5, theta=0.05, rho=0.03,
        expert_kind="parametric-history", n_sweep=(1000,),
        instances=10, seeds_per_dataset=2, eval_mode="monte-carlo",
        mc_samples=200_000, algorithms=("rs-bc", "bc", "eta-hat"), master_seed=1,
    )
    rows = {row.algorithm: np.asarray(row.per_instance) for row in rl.run_experiment(cfg)}
    wins = np.mean(
        (rows["eta-hat"] < rows["rs-bc"]) & (rows["eta-hat"] < rows["bc"])
    )
    _report(
        10, "estimate-only diagnostic wins at scale", wins >= 0.8,
        f"win fraction = {wins:.2f} (need >= 0.8); "
        f"means: eta-hat {np.nanmean(rows['eta-hat']):.3f}, "
        f"rs-bc {np.nanmean(rows['rs-bc']):.3f}, bc {np.nanmean(rows['bc']):.3f}",
    )


def test_c11_estimator_error_halves_when_n_quadruples():
    sweep = (250, 1000, 4000)
    theta = 0.05
    errors = {n: [] for n in sweep}
    for inst in range(50):
        mdp, expert = make_instance(
            seed=30_000 + inst, num_states=2, num_actions=2, horizon=5,
            rho=theta, expert_kind="markovian",
        )
        grid = rl.RewardGrid(theta, mdp.horizon)
        exact = rl.exact_return_distribution(mdp, expert, mdp.reward, grid)
        for k, n in enumerate(sweep):
            data = rl.sample_trajectories(mdp, expert, n, seed=inst * 7 + k)
            estimate = rl.empirical_return_distribution(data, mdp.reward, grid)
            errors[n].append(rl.wasserstein(estimate, exact))
    means = [float(np.mean(errors[n])) for n in sweep]
    ratios = (means[0] / means[1], means[1] / means[2])
    ok = all(1.4 <= r <= 2.6 for r in ratios)
    _report(
        11, "DKW scaling of the estimator", ok,
        f"mean errors {[f'{m:.4f}' for m in means]}, ratios {[f'{r:.2f}' for r in ratios]} "
        "(band [1.4, 2.6])",
    )
