import hashlib

import numpy as np
import pytest

import rdmlab as rl
from rdmlab.policies import random_reward_augmented_policy
from rdmlab.baselines import count_state_actions
from rdmlab.rsbc import (
    count_occurrences,
    eta_hat_from_counts,
    rs_bc,
    theta_for_epsilon_rsbc,
)

from conftest import direct_grid_law, make_instance

#: (S, A, H) of the desk, scale and bulk benchmark workloads
BENCH_SHAPES = {"desk": (2, 2, 5), "scale": (50, 5, 5), "bulk": (20, 5, 5)}
#: (rho, theta): the matchers' grid equal to the reward grid, and coarser
GRID_PAIRS = {"theta=rho": (0.02, 0.02), "theta>rho": (0.03, 0.05)}


def counted_dataset(shape, kind, grids, seed, n=2000):
    """A sampled dataset, the true reward on the matchers' grid, and M on it."""
    (num_states, num_actions, horizon), (rho, theta) = BENCH_SHAPES[shape], GRID_PAIRS[grids]
    mdp, expert = make_instance(
        seed, num_states=num_states, num_actions=num_actions, horizon=horizon,
        rho=rho, expert_kind=kind,
    )
    data = rl.sample_trajectories(mdp, expert, n, seed=seed + 1)
    grid = rl.RewardGrid(theta, horizon)
    gr = rl.discretize_reward(mdp.reward, grid)
    return mdp, data, grid, gr, count_occurrences(data, gr)


reader_cases = pytest.mark.parametrize(
    "shape, kind, grids",
    [
        (shape, kind, grids)
        for shape in BENCH_SHAPES
        for kind in ("markovian", "parametric-history")
        for grids in GRID_PAIRS
    ],
)


class TestCounting:
    def test_stage_totals_equal_dataset_size(self):
        mdp, expert = make_instance(1, rho=0.25, expert_kind="parametric-history")
        grid = rl.RewardGrid(0.25, mdp.horizon)
        data = rl.sample_trajectories(mdp, expert, 257, seed=0)
        counts = count_occurrences(data, rl.discretize_reward(mdp.reward, grid))
        stage_totals = counts.sum(axis=(1, 2, 3))
        assert (stage_totals == 257).all()

    def test_unit_weights_give_the_counts_as_floats(self):
        mdp, expert = make_instance(1, rho=0.25, expert_kind="parametric-history")
        gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, mdp.horizon))
        data = rl.sample_trajectories(mdp, expert, 257, seed=0)
        weighted = count_occurrences(data, gr, np.ones(len(data)))
        assert weighted.dtype == np.float64
        assert np.array_equal(weighted, count_occurrences(data, gr).astype(float))

    @pytest.mark.parametrize("kind", ["markovian", "parametric-history"])
    def test_enumerated_probabilities_give_unit_stage_totals(self, kind):
        mdp, expert = make_instance(2, rho=0.25, expert_kind=kind)
        gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, mdp.horizon))
        data, probs = rl.enumerate_trajectory_distribution(mdp, expert)
        stage_totals = count_occurrences(data, gr, probs).sum(axis=(1, 2, 3))
        assert np.abs(stage_totals - 1.0).max() <= 1e-12

    def test_single_trajectory_marks_its_path(self):
        mdp, expert = rl.make_fork_fixture()
        grid = rl.RewardGrid(1.0, mdp.horizon)
        data = rl.sample_trajectories(mdp, expert, 1, seed=2)
        policy = rs_bc(data, mdp.reward, grid)
        gr = rl.discretize_reward(mdp.reward, grid)
        g = 0
        for h in range(mdp.horizon):
            s, a = int(data.states[0, h]), int(data.actions[0, h])
            row = policy.table[h, s, g]
            assert row[a] == 1.0 and row.sum() == 1.0
            g += int(gr.multiples[h, s, a])
        # untouched cells fall back to uniform
        assert policy.table[0, 3, 0] == pytest.approx(np.full(2, 0.5))

    def test_mismatched_horizon_rejected(self):
        mdp, expert = rl.make_fork_fixture()
        data = rl.sample_trajectories(mdp, expert, 4, seed=0)
        wrong = rl.discretize_reward(np.zeros((5, 4, 2)), rl.RewardGrid(1.0, 5))
        with pytest.raises(ValueError):
            count_occurrences(data, wrong)

    @reader_cases
    def test_grid_marginal_is_the_state_action_count(self, shape, kind, grids):
        _, data, _, _, counts = counted_dataset(shape, kind, grids, seed=3)
        assert np.array_equal(counts.sum(axis=2), count_state_actions(data))

    @reader_cases
    def test_eta_hat_from_counts_is_the_direct_sum(self, shape, kind, grids):
        # the direct per-trajectory sum in conftest stays the oracle, for the
        # count reader and for the dataset entry built on it
        mdp, data, grid, gr, counts = counted_dataset(shape, kind, grids, seed=4)
        want = direct_grid_law(data, gr)
        for got in (
            eta_hat_from_counts(counts, gr),
            rl.empirical_return_distribution(data, mdp.reward, grid),
        ):
            assert np.array_equal(got.support, want.support)
            assert np.array_equal(got.probs, want.probs)


def loop_counts(data, gr):
    """Reference counter: one Python pass per trajectory."""
    n_g = gr.grid.num_multiples(data.horizon - 1)
    counts = np.zeros((data.horizon, data.num_states, n_g, data.num_actions), dtype=np.int64)
    for s_row, a_row in zip(data.states.tolist(), data.actions.tolist()):
        g = 0
        for h, (s, a) in enumerate(zip(s_row, a_row)):
            counts[h, s, g, a] += 1
            g += int(gr.multiples[h, s, a])
    return counts


class TestCountingMatchesLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_dataset_reaching_the_top_cell(self, seed):
        rng = np.random.default_rng(seed)
        horizon, num_states, num_actions = 4, 3, 2
        grid = rl.RewardGrid(0.25, horizon)
        reward = rng.uniform(0.0, 1.0, size=(horizon, num_states, num_actions))
        reward[:, 0, 0] = 1.0
        gr = rl.discretize_reward(reward, grid)
        states = rng.integers(num_states, size=(300, horizon))
        actions = rng.integers(num_actions, size=(300, horizon))
        states[:5], actions[:5] = 0, 0  # full reward on every step
        data = rl.Dataset(states, actions, num_states, num_actions)
        counts = count_occurrences(data, gr)
        n_g = grid.num_multiples(horizon - 1)
        assert counts.shape == (horizon, num_states, n_g, num_actions)
        assert counts.dtype == np.int64
        assert counts[horizon - 1, :, n_g - 1].sum() >= 5
        assert np.array_equal(counts, loop_counts(data, gr))

    # sha256 of rs_bc tables computed with the np.add.at counter
    PINNED_TABLES = {
        0: "37c87562571c64b427e9832a0df907636d20814bbe84300061cd9829ce0c43aa",
        1: "ed50c04553782da8d1402d794b61ecfb72837137761d58791fdb8b2ab407139b",
        2: "f8d73335beab4c23d75a44eca78c594bebdadd29fb838307f41d6f714f0ec507",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_TABLES))
    def test_rs_bc_tables_match_pinned_digests(self, seed):
        mdp, expert = make_instance(seed, num_states=20, num_actions=5, horizon=5, rho=0.02)
        data = rl.sample_trajectories(mdp, expert, 20_000, seed=seed)
        table = rs_bc(data, mdp.reward, rl.RewardGrid(0.02, mdp.horizon)).table
        digest = hashlib.sha256(np.ascontiguousarray(table, dtype="<f8").tobytes()).hexdigest()
        assert digest == self.PINNED_TABLES[seed]


class TestRsBc:
    def test_deterministic_expert_recovered_on_visited_cells(self):
        mdp, expert = rl.make_fork_fixture()
        grid = rl.RewardGrid(1.0, mdp.horizon)
        data = rl.sample_trajectories(mdp, expert, 5000, seed=4)
        policy = rs_bc(data, mdp.reward, grid)
        # merge state: g distinguishes the branch; actions must be deterministic
        assert policy.table[2, 3, 1, 0] == 1.0  # passed through the rewarding state
        assert policy.table[2, 3, 0, 1] == 1.0  # skipped it, compensates

    def test_fork_pipeline_error_is_tiny(self):
        mdp, expert = rl.make_fork_fixture()
        grid = rl.RewardGrid(1.0, mdp.horizon)
        data = rl.sample_trajectories(mdp, expert, 10_000, seed=11)
        policy = rs_bc(data, mdp.reward, grid)
        d = rl.exact_return_distribution(mdp, policy, mdp.reward, grid)
        w = rl.wasserstein(d, rl.DiscreteReturnDistribution.point_mass(1.0))
        assert w <= 0.02

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            rl.Dataset(np.zeros((0, 1), dtype=int), np.zeros((0, 1), dtype=int), 1, 1)

    def test_error_shrinks_with_data(self):
        # median error over seeds is non-increasing in N and small at N=10^4
        grid_step = 0.5
        per_n = {100: [], 1000: [], 10_000: []}
        for inst in range(3):
            mdp, expert = make_instance(inst + 40, rho=grid_step,
                                        expert_kind="parametric-history", horizon=3)
            grid = rl.RewardGrid(grid_step, mdp.horizon)
            truth = rl.brute_force_return_distribution(mdp, expert, mdp.reward)
            for n in per_n:
                errors = []
                for seed in range(20):
                    data = rl.sample_trajectories(mdp, expert, n, seed=seed * 31 + inst)
                    pol = rs_bc(data, mdp.reward, grid)
                    d = rl.exact_return_distribution(mdp, pol, mdp.reward, grid)
                    errors.append(rl.wasserstein(d, truth))
                per_n[n].append(float(np.median(errors)))
        medians = [float(np.median(per_n[n])) for n in (100, 1000, 10_000)]
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[2] < 0.05

    def test_converges_to_conditional_projection(self):
        # expert drawn from the conditioning class itself, grid-valued reward:
        # empirical cell frequencies approach the exact conditionals
        mdp, _ = make_instance(51, rho=0.5, horizon=3, num_states=2)
        grid = rl.RewardGrid(0.5, mdp.horizon)
        gr = rl.discretize_reward(mdp.reward, grid)
        rng = np.random.default_rng(8)
        expert = random_reward_augmented_policy(gr, mdp.num_states, rng)
        data = rl.sample_trajectories(mdp, expert, 100_000, seed=1)
        estimated = rs_bc(data, mdp.reward, grid)
        exact = rl.construct_pi_r(mdp, expert, gr, grid)
        counts = count_occurrences(data, gr).sum(axis=3)
        heavy = counts >= 1000
        assert heavy.any()
        diff = np.abs(estimated.table - exact.table)[heavy]
        assert diff.max() <= 0.02


class TestThetaForEpsilon:
    def test_reference_ratio(self):
        assert theta_for_epsilon_rsbc(0.4, 5) == pytest.approx(0.02)

    def test_boundary(self):
        assert theta_for_epsilon_rsbc(5, 5) == pytest.approx(0.25)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            theta_for_epsilon_rsbc(20.0, 5)
        with pytest.raises(ValueError):
            theta_for_epsilon_rsbc(0.0, 5)
