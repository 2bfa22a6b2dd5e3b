import hashlib

import numpy as np
import pytest

import rdmlab as rl
from rdmlab.baselines import bc, count_state_actions, mimic_md, mimic_md_from_counts
from rdmlab.rsbc import count_occurrences

from conftest import (
    KNOWN_BAD_PIVOT_CFG,
    MIMIC_MD_SEEDS,
    desk_dataset,
    make_instance,
    markov_occupancy,
)


class TestBc:
    def test_recovers_deterministic_expert_with_full_coverage(self):
        mdp, _ = make_instance(3, rho=0.5)
        rng = np.random.default_rng(0)
        table = np.zeros((mdp.horizon, mdp.num_states, mdp.num_actions))
        picks = rng.integers(mdp.num_actions, size=(mdp.horizon, mdp.num_states))
        for h in range(mdp.horizon):
            table[h, np.arange(mdp.num_states), picks[h]] = 1.0
        expert = rl.MarkovianPolicy(table)
        data = rl.sample_trajectories(mdp, expert, 3000, seed=1)
        learned = bc(data)
        counts = count_state_actions(data).sum(axis=2)
        visited = counts > 0
        assert np.array_equal(learned.table[visited], expert.table[visited])

    def test_unvisited_states_uniform(self):
        data = rl.Dataset(np.array([[0, 0]]), np.array([[1, 1]]), 3, 2)
        learned = bc(data)
        assert learned.table[0, 2] == pytest.approx(np.full(2, 0.5))
        assert learned.table[0, 0].tolist() == [0.0, 1.0]

    def test_matches_count_ratios(self):
        mdp, expert = make_instance(5, expert_kind="markovian")
        data = rl.sample_trajectories(mdp, expert, 500, seed=3)
        learned = bc(data)
        counts = count_state_actions(data)
        state_counts = counts.sum(axis=2)
        visited = state_counts > 0
        ratios = np.zeros_like(learned.table)
        ratios[visited] = counts[visited] / state_counts[visited][..., None]
        assert np.abs(learned.table[visited] - ratios[visited]).max() <= 1e-12


class TestCountStateActions:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        states = rng.integers(4, size=(200, 5))
        actions = rng.integers(3, size=(200, 5))
        data = rl.Dataset(states, actions, 4, 3)
        want = np.zeros((5, 4, 3), dtype=np.int64)
        for s_row, a_row in zip(states.tolist(), actions.tolist()):
            for h, (s, a) in enumerate(zip(s_row, a_row)):
                want[h, s, a] += 1
        counts = count_state_actions(data)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, want)

    # sha256 of bc tables computed with the np.add.at counter, on datasets
    # of the group walk (the Markovian expert's sampler)
    PINNED_TABLES = {
        0: "26647c7afbee46da06039f11d56c0f9d81d288eac6c3e49730f18d30ae913496",
        1: "564d3196d2285a1874f6c297505dff7bbcbe645f470aac21cba1e0622faba688",
        2: "99a6267ce86fe2aa93d428aee9ba68db915ad3a451aa67379ef6fb6599a100c7",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_TABLES))
    def test_bc_tables_match_pinned_digests(self, seed):
        mdp, expert = make_instance(seed, num_states=20, num_actions=5, horizon=5, rho=0.02)
        data = rl.sample_trajectories(mdp, expert, 20_000, seed=seed)
        table = bc(data).table
        digest = hashlib.sha256(np.ascontiguousarray(table, dtype="<f8").tobytes()).hexdigest()
        assert digest == self.PINNED_TABLES[seed]


class TestMimicMd:
    def test_equals_bc_under_full_coverage(self):
        mdp, expert = make_instance(8, expert_kind="markovian", horizon=3)
        data = rl.sample_trajectories(mdp, expert, 4000, seed=2)
        cloned = bc(data)
        matched = mimic_md(data, mdp)
        occ = markov_occupancy(mdp, matched)
        live = occ.sum(axis=2) > 1e-9
        counts = count_state_actions(data).sum(axis=2)
        both = live & (counts > 0)
        assert both.any()
        assert np.abs(matched.table[both] - cloned.table[both]).max() <= 1e-6

    def test_pinned_ratios_hold(self):
        mdp, expert = make_instance(9, expert_kind="parametric-history", horizon=3)
        data = rl.sample_trajectories(mdp, expert, 300, seed=5)
        matched = mimic_md(data, mdp)
        counts = count_state_actions(data)
        state_counts = counts.sum(axis=2)
        occ = markov_occupancy(mdp, matched)
        for h in range(mdp.horizon):
            for s in range(mdp.num_states):
                if state_counts[h, s] == 0 or occ[h, s].sum() <= 1e-9:
                    continue
                ratios = counts[h, s] / state_counts[h, s]
                assert np.abs(matched.table[h, s] - ratios).max() <= 1e-7

    def test_unobserved_state_with_deterministic_dynamics(self):
        # two states, one action each visited state; the unvisited state's row
        # only matters through the objective and ends uniform when unreachable
        horizon = 2
        transitions = np.zeros((horizon, 2, 2, 2))
        transitions[:, :, :, 0] = 1.0  # everything funnels into state 0
        mdp = rl.TabularMdp(0, transitions, np.zeros((horizon, 2, 2)))
        data = rl.Dataset(np.array([[0, 0]]), np.array([[1, 1]]), 2, 2)
        matched = mimic_md(data, mdp)
        assert matched.table[0, 1] == pytest.approx(np.full(2, 0.5))
        assert matched.table[0, 0].tolist() == [0.0, 1.0]

    def test_baselines_plateau_on_history_dependent_experts(self):
        # the distribution-matching estimator keeps improving where the
        # markovian baselines flatten out
        rs_errors, bc_errors, md_errors = [], [], []
        for inst in range(6):
            mdp, expert = make_instance(
                60 + inst, num_states=2, num_actions=2, horizon=5,
                rho=0.03, expert_kind="parametric-history",
            )
            grid = rl.RewardGrid(0.05, mdp.horizon)
            eval_grid = rl.RewardGrid(0.03, mdp.horizon)
            truth = rl.brute_force_return_distribution(mdp, expert, mdp.reward)
            data = rl.sample_trajectories(mdp, expert, 10_000, seed=inst)
            pol = rl.rs_bc(data, mdp.reward, grid)
            d = rl.exact_return_distribution(mdp, pol, mdp.reward, eval_grid)
            rs_errors.append(rl.wasserstein(d, truth))
            d = rl.exact_return_distribution(mdp, bc(data), mdp.reward, eval_grid)
            bc_errors.append(rl.wasserstein(d, truth))
            d = rl.exact_return_distribution(mdp, mimic_md(data, mdp), mdp.reward, eval_grid)
            md_errors.append(rl.wasserstein(d, truth))
        assert np.median(bc_errors) >= 3 * np.median(rs_errors)
        assert np.median(md_errors) >= 3 * np.median(rs_errors)

    def test_markovian_expert_is_easy_for_both(self):
        # with a markovian expert at N=10^4 the baselines are unbiased and land
        # in the reference bands (~0.003 and ~0.005, here with 2x slack for the
        # reduced instance count), slightly ahead of the count-based matcher
        bc_errors, md_errors, rs_errors = [], [], []
        for inst in range(12):
            mdp, expert = make_instance(
                80 + inst, num_states=2, num_actions=2, horizon=5,
                rho=0.03, expert_kind="markovian",
            )
            eval_grid = rl.RewardGrid(0.03, mdp.horizon)
            truth = rl.exact_return_distribution(mdp, expert, mdp.reward, eval_grid)
            data = rl.sample_trajectories(mdp, expert, 10_000, seed=inst)
            d = rl.exact_return_distribution(mdp, bc(data), mdp.reward, eval_grid)
            bc_errors.append(rl.wasserstein(d, truth))
            d = rl.exact_return_distribution(mdp, mimic_md(data, mdp), mdp.reward, eval_grid)
            md_errors.append(rl.wasserstein(d, truth))
            pol = rl.rs_bc(data, mdp.reward, rl.RewardGrid(0.05, mdp.horizon))
            d = rl.exact_return_distribution(mdp, pol, mdp.reward, eval_grid)
            rs_errors.append(rl.wasserstein(d, truth))
        assert 0.001 < np.mean(bc_errors) < 0.007
        assert 0.001 < np.mean(md_errors) < 0.009
        assert np.mean(bc_errors) <= np.mean(rs_errors) + 0.002


class TestMimicMdFromCounts:
    @pytest.mark.parametrize("master_seed", MIMIC_MD_SEEDS)
    def test_rs_bc_counters_give_the_dataset_walk_table(self, master_seed):
        # the harness passes M summed over g; the table must match bit for bit
        mdp, data = desk_dataset(master_seed)
        grid = rl.RewardGrid(KNOWN_BAD_PIVOT_CFG["theta"], mdp.horizon)
        counts = count_occurrences(data, rl.discretize_reward(mdp.reward, grid))
        got = mimic_md_from_counts(counts.sum(axis=2), mdp)
        assert got.table.tobytes() == mimic_md(data, mdp).table.tobytes()


class TestSingleCellEquivalence:
    def test_horizon_one_reduces_rsbc_to_bc(self):
        mdp, expert = make_instance(90, horizon=1, expert_kind="markovian")
        data = rl.sample_trajectories(mdp, expert, 200, seed=0)
        grid = rl.RewardGrid(1.0, 1)
        augmented = rl.rs_bc(data, mdp.reward, grid)
        cloned = bc(data)
        assert np.abs(augmented.table[:, :, 0, :] - cloned.table).max() <= 1e-12

    def test_zero_rewards_reduce_rsbc_to_bc(self):
        mdp, expert = make_instance(91, horizon=4, expert_kind="parametric-history")
        mdp = rl.TabularMdp(mdp.initial_state, mdp.transitions, np.zeros_like(mdp.reward))
        data = rl.sample_trajectories(mdp, expert, 200, seed=0)
        grid = rl.RewardGrid(0.5, mdp.horizon)
        augmented = rl.rs_bc(data, mdp.reward, grid)
        cloned = bc(data)
        # all mass stays at g = 0, so the g-slice 0 is exactly the bc table
        assert np.abs(augmented.table[:, :, 0, :] - cloned.table).max() <= 1e-12
