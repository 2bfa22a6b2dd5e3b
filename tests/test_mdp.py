import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdmlab as rl

from conftest import make_instance


def two_state_mdp():
    transitions = np.zeros((2, 2, 2, 2))
    transitions[..., 0] = 0.25
    transitions[..., 1] = 0.75
    reward = np.full((2, 2, 2), 0.5)
    return rl.TabularMdp(0, transitions, reward)


class TestValidate:
    def test_wellformed_is_clean(self):
        assert rl.validate_mdp(two_state_mdp()) == []

    def test_bad_row_sum_names_cell(self):
        mdp = two_state_mdp()
        t = mdp.transitions.copy()
        t[1, 0, 1] = [0.4, 0.5]
        bad = rl.TabularMdp(0, t, mdp.reward)
        report = rl.validate_mdp(bad)
        assert len(report) == 1
        assert "h=1" in report[0] and "s=0" in report[0] and "a=1" in report[0]

    def test_reward_out_of_range_names_cell(self):
        mdp = two_state_mdp()
        r = mdp.reward.copy()
        r[0, 1, 0] = 1.5
        bad = rl.TabularMdp(0, mdp.transitions, r)
        report = rl.validate_mdp(bad)
        assert len(report) == 1
        assert "h=0" in report[0] and "1.5" in report[0]

    def test_shape_errors_raise(self):
        for initial_state, t_shape, r_shape in (
            (0, (2, 2, 2), (2, 2, 2)),  # transitions not 4-D
            (0, (2, 2, 2, 3), (2, 2, 2)),  # unequal state axes
            (0, (0, 2, 2, 2), (0, 2, 2)),  # an empty axis
            (0, (2, 2, 2, 2), (2, 2, 3)),  # reward not transitions.shape[:3]
            (5, (2, 2, 2, 2), (2, 2, 2)),  # initial state out of range
        ):
            with pytest.raises(ValueError):
                rl.TabularMdp(initial_state, np.zeros(t_shape), np.zeros(r_shape))


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


#: Every (reward, grid) entry point, called as (mdp, table policy, data, reward, grid).
GRID_ENTRY_POINTS = {
    "discretize_reward": lambda mdp, pol, data, r, grid: rl.discretize_reward(r, grid),
    "build_augmented_mdp": lambda mdp, pol, data, r, grid: rl.build_augmented_mdp(mdp, grid, r),
    "exact_return_distribution":
        lambda mdp, pol, data, r, grid: rl.exact_return_distribution(mdp, pol, r, grid),
    "construct_pi_r": lambda mdp, pol, data, r, grid: rl.construct_pi_r(mdp, pol, r, grid),
    "rs_bc": lambda mdp, pol, data, r, grid: rl.rs_bc(data, r, grid),
    "rs_kt": lambda mdp, pol, data, r, grid: rl.rs_kt(data, mdp, r, grid)[0],
    "empirical_return_distribution":
        lambda mdp, pol, data, r, grid: rl.empirical_return_distribution(data, r, grid),
}


def _result_arrays(result):
    """The arrays an entry point's result is made of."""
    if isinstance(result, rl.GridReward):
        return [result.multiples]
    if isinstance(result, rl.AugmentedMdp):
        return [result.reachable, result.reward.multiples]
    if isinstance(result, rl.DiscreteReturnDistribution):
        return [result.support, result.probs]
    return [result.table, result.reward.multiples]


@pytest.mark.parametrize("entry", list(GRID_ENTRY_POINTS))
def test_grid_reward_resolves_through_discretize_reward(entry):
    """A ``GridReward`` on the requested grid gives the result of the raw
    table, bit for bit; one on another grid is refused, never re-rounded."""
    mdp, expert = make_instance(4, num_states=3, num_actions=2, horizon=3, rho=0.25)
    data = rl.sample_trajectories(mdp, expert, 200, 1)
    grid = rl.RewardGrid(0.25, mdp.horizon)
    other = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.5, mdp.horizon))

    def call(reward):
        return GRID_ENTRY_POINTS[entry](mdp, expert, data, reward, grid)

    with pytest.raises(ValueError, match="does not match the requested grid"):
        call(other)
    got = _result_arrays(call(rl.discretize_reward(mdp.reward, grid)))
    want = _result_arrays(call(mdp.reward))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


class TestRewardGrid:
    @pytest.mark.parametrize("theta", [0.5, 0.1, 0.3, 1.0])
    @pytest.mark.parametrize("steps", [0, 1, 2, 4, 7])
    def test_stage_sizes(self, theta, steps):
        grid = rl.RewardGrid(theta, 8)
        expected = int(np.floor(steps / theta + 1e-9)) + 1
        assert grid.num_multiples(steps) == expected

    def test_full_grid_contains_stage_grids(self):
        grid = rl.RewardGrid(0.3, 6)
        for steps in range(7):
            assert grid.num_multiples(steps) <= grid.full_size

    def test_bad_theta(self):
        with pytest.raises(ValueError):
            rl.RewardGrid(0.0, 3)
        with pytest.raises(ValueError):
            rl.RewardGrid(1.5, 3)

    def test_non_nesting_step_is_refused(self):
        # max_multiple(1) = 10 but max_multiple(3) = 29: three rounded rewards
        # of 10 multiples each would leave the three-step grid
        theta = 1 / (10 - 5e-10)
        with pytest.raises(ValueError, match=rf"theta={theta!r}.*k=3"):
            rl.RewardGrid(theta, 5)
        grid = rl.RewardGrid(theta, 2)  # nests up to two steps
        assert 2 * grid.max_multiple(1) <= grid.max_multiple(2)


class TestAugmentedMdp:
    def test_deterministic_chain_accumulates(self):
        horizon, num_states = 3, 4
        transitions = np.zeros((horizon, num_states, 1, num_states))
        for h in range(horizon):
            for s in range(num_states):
                transitions[h, s, 0, min(s + 1, num_states - 1)] = 1.0
        reward = np.ones((horizon, num_states, 1))
        mdp = rl.TabularMdp(0, transitions, reward)
        aug = rl.build_augmented_mdp(mdp, rl.RewardGrid(1.0, horizon), mdp.reward)
        for h in range(horizon):
            cells = np.argwhere(aug.reachable[h])
            assert cells.tolist() == [[h, h]]  # state h with g = h

    def test_fork_reachable_merge_states(self):
        mdp, expert = rl.make_fork_fixture()
        aug = rl.build_augmented_mdp(mdp, rl.RewardGrid(1.0, 3), mdp.reward)
        cells = {tuple(c) for c in np.argwhere(aug.reachable[2])}
        assert cells == {(3, 0), (3, 1)}
        # each reached with probability 1/2 under the expert
        data, probs = rl.enumerate_trajectory_distribution(mdp, expert)
        g = aug.reward.multiples[[0, 1], data.states[:, :2], data.actions[:, :2]].sum(axis=1)
        mass = {}
        for key, p in zip(zip(data.states[:, 2].tolist(), g.tolist()), probs.tolist()):
            mass[key] = mass.get(key, 0.0) + p
        assert mass == pytest.approx({(3, 0): 0.5, (3, 1): 0.5})


def enumerated_cells(mdp, reward):
    """(h, s, g) cells, h = 0..H, on the uniform Markovian policy's enumerated
    trajectories.  One appended stage (action 0, zero reward) makes the
    post-episode state of every path a column of the enumeration."""
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    table = np.full((horizon + 1, num_states, num_actions), 1.0 / num_actions)
    table[horizon] = np.eye(num_actions)[0]
    extended = rl.TabularMdp(
        mdp.initial_state,
        np.concatenate([mdp.transitions, np.full((1, num_states, num_actions, num_states),
                                                 1.0 / num_states)]),
        np.concatenate([mdp.reward, np.zeros((1, num_states, num_actions))]),
    )
    data, _ = rl.enumerate_trajectory_distribution(extended, rl.MarkovianPolicy(table))
    steps = reward.multiples[np.arange(horizon), data.states[:, :horizon], data.actions[:, :horizon]]
    g = np.concatenate([np.zeros((len(data), 1), dtype=np.int64), steps.cumsum(axis=1)], axis=1)
    return {
        (h, int(s), int(v)) for h in range(horizon + 1) for s, v in zip(data.states[:, h], g[:, h])
    }


@pytest.mark.parametrize("shape", [(2, 2, 5), (3, 3, 4)])
@pytest.mark.parametrize("seed, continuous", [(0, False), (1, False), (2, True)])
@pytest.mark.parametrize("theta", [1.0, 0.25, 0.05])
def test_reachable_cells_match_enumeration(shape, seed, continuous, theta):
    """``reachable[h]``, and the return support, are exactly the cells that
    trajectory enumeration visits: an oracle that shares no code with the
    stage kernel.  Seed 2's reward is not grid-valued."""
    num_states, num_actions, horizon = shape
    mdp, _ = make_instance(seed, num_states, num_actions, horizon, continuous_reward=continuous)
    grid = rl.RewardGrid(theta, horizon)
    aug = rl.build_augmented_mdp(mdp, grid, mdp.reward)
    visited = enumerated_cells(mdp, aug.reward)
    assert aug.reachable.shape == (horizon + 1, num_states, grid.full_size)
    assert aug.reachable.dtype == bool and not aug.reachable.flags.writeable
    for h in range(horizon + 1):
        assert not aug.reachable[h, :, grid.num_multiples(h) :].any()
    assert {
        (h, int(s), int(g)) for h in range(horizon + 1) for s, g in np.argwhere(aug.reachable[h])
    } == visited
    returns = np.zeros(grid.full_size, dtype=bool)
    returns[[g for h, _, g in visited if h == horizon]] = True
    assert np.array_equal(aug.return_support_mask(), returns)


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
