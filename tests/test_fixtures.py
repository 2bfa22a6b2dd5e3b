import numpy as np
import pytest

import rdmlab as rl
from rdmlab.fixtures import TV_HARD_DIGIT_LIMIT, make_tv_hard_reward

from conftest import half_l1_trajectories


class TestForkFixture:
    def test_mdp_is_valid(self):
        mdp, _ = rl.make_fork_fixture()
        assert rl.validate_mdp(mdp) == []
        assert (mdp.num_states, mdp.num_actions, mdp.horizon) == (4, 2, 3)

    def test_expert_return_is_point_mass_at_one(self):
        mdp, expert = rl.make_fork_fixture()
        d = rl.brute_force_return_distribution(mdp, expert, mdp.reward)
        assert d.support.tolist() == [1.0]
        assert d.probs.tolist() == [1.0]

    def test_upper_path_returns_one(self):
        # action 0 everywhere: the upper path (0,0),(1,0),(3,0) returns 1, the lower 0
        mdp, _ = rl.make_fork_fixture()
        policy = rl.fork_markovian_policy(1.0)
        data, probs = rl.enumerate_trajectory_distribution(mdp, policy)
        rows = zip(data.states.tolist(), data.actions.tolist(), probs.tolist())
        assert {(tuple(s), tuple(a)): p for s, a, p in rows} == {
            ((0, 1, 3), (0, 0, 0)): 0.5,
            ((0, 2, 3), (0, 0, 0)): 0.5,
        }
        d = rl.brute_force_return_distribution(mdp, policy, mdp.reward)
        assert d.support.tolist() == [0.0, 1.0]
        assert d.probs.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_markovian_family_distribution(self, alpha):
        mdp, _ = rl.make_fork_fixture()
        d = rl.exact_return_distribution(
            mdp, rl.fork_markovian_policy(alpha), mdp.reward, rl.RewardGrid(1.0, 3)
        )
        expected = {v: p for v, p in
                    ((0.0, alpha / 2), (1.0, 0.5), (2.0, (1 - alpha) / 2)) if p > 0}
        assert dict(zip(d.support.tolist(), d.probs.tolist())) == pytest.approx(expected)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_gap_is_exactly_half(self, alpha):
        mdp, expert = rl.make_fork_fixture()
        truth = rl.brute_force_return_distribution(mdp, expert, mdp.reward)
        d = rl.exact_return_distribution(
            mdp, rl.fork_markovian_policy(alpha), mdp.reward, rl.RewardGrid(1.0, 3)
        )
        assert abs(rl.wasserstein(truth, d) - 0.5) <= 1e-12

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            rl.fork_markovian_policy(1.5)


class TestForkExpertOracles:
    """The fork expert is a reward-augmented table, so the exact DP, trajectory
    enumeration and Monte Carlo all evaluate it, and must agree."""

    POINT_MASS = ([1.0], [1.0])

    def test_exact_dp_equals_enumeration(self):
        mdp, expert = rl.make_fork_fixture()
        assert isinstance(expert, rl.RewardAugmentedPolicy)
        dp = rl.exact_return_distribution(mdp, expert, mdp.reward, expert.grid)
        brute = rl.brute_force_return_distribution(mdp, expert, mdp.reward)
        for d in (dp, brute):
            assert (d.support.tolist(), d.probs.tolist()) == self.POINT_MASS

    @pytest.mark.parametrize("m", [1, 7, 10_000])
    def test_monte_carlo_gives_the_point_mass(self, m):
        mdp, expert = rl.make_fork_fixture()
        d = rl.mc_return_distribution(mdp, expert, mdp.reward, m, seed=3)
        assert (d.support.tolist(), d.probs.tolist()) == self.POINT_MASS

    def test_sampled_actions_follow_the_history_rule(self):
        """Action 1 exactly in the merge state after s2, action 0 elsewhere."""
        mdp, expert = rl.make_fork_fixture()
        data = rl.sample_trajectories(mdp, expert, 1000, seed=0)
        assert set(data.states[:, 1].tolist()) == {1, 2}
        want = np.zeros_like(data.actions)
        want[:, 2] = data.states[:, 1] == 2
        assert np.array_equal(data.actions, want)

    def test_projection_reproduces_the_table_where_reached(self):
        mdp, expert = rl.make_fork_fixture()
        pi_r = rl.construct_pi_r(mdp, expert, expert.reward, expert.grid)
        reached = rl.exact_augmented_occupancy(mdp, expert, expert.reward).sum(axis=3) > 0
        assert reached.sum() == 5  # s0; s1 and s2; the merge state with g = 0 and g = 1
        assert np.array_equal(pi_r.table[reached], expert.table[reached])


class TestTvHardReward:
    def test_all_returns_distinct_at_222(self):
        reward = make_tv_hard_reward(2, 2, 2)
        transitions = np.full((2, 2, 2, 2), 0.5)
        mdp = rl.TabularMdp(0, transitions, reward)
        policy = rl.MarkovianPolicy(np.full((2, 2, 2), 0.5))
        data, _ = rl.enumerate_trajectory_distribution(mdp, policy)
        returns = sorted(
            sum(reward[h, s, a] for h, (s, a) in enumerate(zip(states, actions)))
            for states, actions in zip(data.states.tolist(), data.actions.tolist())
        )
        assert len(data) == 8  # A * S * A paths from the fixed initial state
        assert all(b - a > 1e-12 for a, b in zip(returns, returns[1:]))

    def test_tv_equals_half_l1_for_random_policies(self):
        rng = np.random.default_rng(77)
        reward = make_tv_hard_reward(2, 2, 2)
        for _ in range(5):
            transitions = rng.dirichlet(np.ones(2), size=(2, 2, 2))
            mdp = rl.TabularMdp(0, transitions, reward)
            pol_a = rl.random_markovian_policy(2, 2, 2, rng)
            pol_b = rl.random_markovian_policy(2, 2, 2, rng)
            da = rl.brute_force_return_distribution(mdp, pol_a, reward)
            db = rl.brute_force_return_distribution(mdp, pol_b, reward)
            tv = rl.total_variation(da, db)
            assert abs(tv - half_l1_trajectories(mdp, pol_a, pol_b)) <= 1e-12

    def test_identical_policies_have_zero_tv(self):
        rng = np.random.default_rng(3)
        reward = make_tv_hard_reward(2, 2, 2)
        transitions = rng.dirichlet(np.ones(2), size=(2, 2, 2))
        mdp = rl.TabularMdp(0, transitions, reward)
        pol = rl.random_markovian_policy(2, 2, 2, rng)
        d = rl.brute_force_return_distribution(mdp, pol, reward)
        assert rl.total_variation(d, d) == 0.0

    def test_digit_limit_enforced(self):
        assert 2 * 2 * 3 <= TV_HARD_DIGIT_LIMIT
        make_tv_hard_reward(2, 2, 3)
        with pytest.raises(ValueError):
            make_tv_hard_reward(2, 2, 5)  # span 20 digits

    def test_entries_are_powers_of_ten(self):
        reward = make_tv_hard_reward(2, 2, 2)
        exponents = np.log10(reward)
        assert np.allclose(exponents, np.round(exponents))
        assert reward.max() == 10.0 ** -(1 * 4 + 0 * 2 + 0)
