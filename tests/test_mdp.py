import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdmlab as rl


def two_state_mdp():
    transitions = np.zeros((2, 2, 2, 2))
    transitions[..., 0] = 0.25
    transitions[..., 1] = 0.75
    reward = np.full((2, 2, 2), 0.5)
    return rl.TabularMdp(2, 2, 2, 0, transitions, reward)


class TestValidate:
    def test_wellformed_is_clean(self):
        assert rl.validate_mdp(two_state_mdp()) == []

    def test_bad_row_sum_names_cell(self):
        mdp = two_state_mdp()
        t = mdp.transitions.copy()
        t[1, 0, 1] = [0.4, 0.5]
        bad = rl.TabularMdp(2, 2, 2, 0, t, mdp.reward)
        report = rl.validate_mdp(bad)
        assert len(report) == 1
        assert "h=1" in report[0] and "s=0" in report[0] and "a=1" in report[0]

    def test_reward_out_of_range_names_cell(self):
        mdp = two_state_mdp()
        r = mdp.reward.copy()
        r[0, 1, 0] = 1.5
        bad = rl.TabularMdp(2, 2, 2, 0, mdp.transitions, r)
        report = rl.validate_mdp(bad)
        assert len(report) == 1
        assert "h=0" in report[0] and "1.5" in report[0]

    def test_shape_errors_raise(self):
        with pytest.raises(ValueError):
            rl.TabularMdp(2, 2, 2, 0, np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            rl.TabularMdp(2, 2, 2, 5, np.zeros((2, 2, 2, 2)), np.zeros((2, 2, 2)))


class TestDiscretize:
    def test_round_to_nearest(self):
        grid = rl.RewardGrid(0.5, 2)
        r = np.full((2, 1, 1), 0.3)
        assert rl.discretize_reward(r, grid).values[0, 0, 0] == 0.5

    def test_tie_goes_down(self):
        grid = rl.RewardGrid(0.5, 2)
        r = np.full((2, 1, 1), 0.25)
        assert rl.discretize_reward(r, grid).values[0, 0, 0] == 0.0

    def test_coarsest_grid(self):
        grid = rl.RewardGrid(1.0, 2)
        r = np.full((2, 1, 1), 0.49)
        assert rl.discretize_reward(r, grid).values[0, 0, 0] == 0.0

    @given(
        theta=st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1, 0.05]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, theta, seed):
        rng = np.random.default_rng(seed)
        grid = rl.RewardGrid(theta, 3)
        reward = rng.uniform(0, 1, size=(3, 2, 2))
        once = rl.discretize_reward(reward, grid)
        twice = rl.discretize_reward(once.values, grid)
        assert np.array_equal(once.multiples, twice.multiples)

    @given(
        theta=st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1, 0.05]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_half_step_bound(self, theta, seed):
        # theta/2 bound needs frac(1/theta) <= 1/2; all sampled steps divide 1
        rng = np.random.default_rng(seed)
        grid = rl.RewardGrid(theta, 3)
        reward = rng.uniform(0, 1, size=(3, 2, 2))
        rounded = rl.discretize_reward(reward, grid).values
        assert np.abs(reward - rounded).max() <= theta / 2 + 1e-12

    def test_trajectory_sums_stay_on_grid(self, rng):
        grid = rl.RewardGrid(0.25, 5)
        gr = rl.discretize_reward(rng.uniform(0, 1, size=(5, 3, 2)), grid)
        for _ in range(50):
            states = rng.integers(0, 3, size=5)
            actions = rng.integers(0, 2, size=5)
            total = int(gr.multiples[np.arange(5), states, actions].sum())
            assert 0 <= total <= grid.max_multiple(5)


class TestRewardGrid:
    @pytest.mark.parametrize("theta", [0.5, 0.1, 0.3, 1.0])
    @pytest.mark.parametrize("steps", [0, 1, 2, 4, 7])
    def test_stage_sizes(self, theta, steps):
        grid = rl.RewardGrid(theta, 8)
        expected = int(np.floor(steps / theta + 1e-9)) + 1
        assert grid.num_multiples(steps) == expected
        values = grid.stage_values(steps)
        assert values.size == expected
        assert values[-1] <= steps + 1e-9

    def test_full_grid_contains_stage_grids(self):
        grid = rl.RewardGrid(0.3, 6)
        for steps in range(7):
            assert grid.num_multiples(steps) <= grid.full_size

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            rl.RewardGrid(0.0, 3)
        with pytest.raises(ValueError):
            rl.RewardGrid(1.5, 3)


class TestAugmentedMdp:
    def test_cardinality_example(self):
        # theta=0.5, H=2: the full grid has 5 values, so |augmented| = S * 5
        mdp = two_state_mdp()
        aug = rl.build_augmented_mdp(mdp, rl.RewardGrid(0.5, 2))
        assert aug.num_aug_states == 2 * 5

    def test_deterministic_chain_accumulates(self):
        horizon, num_states = 3, 4
        transitions = np.zeros((horizon, num_states, 1, num_states))
        for h in range(horizon):
            for s in range(num_states):
                transitions[h, s, 0, min(s + 1, num_states - 1)] = 1.0
        reward = np.ones((horizon, num_states, 1))
        mdp = rl.TabularMdp(num_states, 1, horizon, 0, transitions, reward)
        aug = rl.build_augmented_mdp(mdp, rl.RewardGrid(1.0, horizon))
        for h in range(horizon):
            cells = np.argwhere(aug.reachable[h])
            assert cells.tolist() == [[h, h]]  # state h with g = h

    def test_fork_reachable_merge_states(self):
        mdp, expert = rl.make_fork_fixture()
        aug = rl.build_augmented_mdp(mdp, rl.RewardGrid(1.0, 3))
        cells = {tuple(c) for c in np.argwhere(aug.reachable[2])}
        assert cells == {(3, 0), (3, 1)}
        # each reached with probability 1/2 under the expert
        data, probs = rl.enumerate_trajectory_distribution(mdp, expert)
        g = aug.reward.multiples[[0, 1], data.states[:, :2], data.actions[:, :2]].sum(axis=1)
        mass = {}
        for key, p in zip(zip(data.states[:, 2].tolist(), g.tolist()), probs.tolist()):
            mass[key] = mass.get(key, 0.0) + p
        assert mass == pytest.approx({(3, 0): 0.5, (3, 1): 0.5})


class TestDataset:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            rl.Dataset(np.array([[0, 3]]), np.array([[0, 0]]), num_states=2, num_actions=1)

    def test_writable_input_is_copied(self):
        states = np.array([[0, 1], [1, 0]])
        actions = np.array([[1, 0], [0, 1]])
        data = rl.Dataset(states, actions, num_states=2, num_actions=2)
        states[0, 0] = 1
        actions[0, 0] = 0
        assert data.states[0, 0] == 0 and data.actions[0, 0] == 1
        assert not data.states.flags.writeable and not data.actions.flags.writeable

    def test_read_only_view_is_copied(self):
        base = np.zeros((4, 2), dtype=np.int64)
        view = base[:2]
        view.setflags(write=False)
        data = rl.Dataset(view, view, num_states=1, num_actions=1)
        assert not np.shares_memory(data.states, base)

    def test_owned_read_only_input_is_kept(self):
        states = np.zeros((3, 2), dtype=np.int64)
        states.setflags(write=False)
        data = rl.Dataset(states, states.copy(), num_states=1, num_actions=1)
        assert data.states is states

    def test_sampler_output_is_not_copied(self, monkeypatch):
        from rdmlab import policies

        seen = []

        def spy(states, actions, *args, **kwargs):
            seen.append((states, actions))
            return rl.Dataset(states, actions, *args, **kwargs)

        monkeypatch.setattr(policies, "Dataset", spy)
        mdp = two_state_mdp()
        pol = rl.MarkovianPolicy(np.full((2, 2, 2), 0.5))
        data = rl.sample_trajectories(mdp, pol, 50, seed=3)
        (states, actions), = seen
        assert np.shares_memory(data.states, states)
        assert np.shares_memory(data.actions, actions)
        assert not data.states.flags.writeable
