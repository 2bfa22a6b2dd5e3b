"""Count-based estimation of the reward-conditioned expert policy.

One pass over the dataset counts (stage, state, cumulative grid reward,
action) occurrences, as one ``np.bincount`` of flat cell indices; the
policy is the row-normalized count table with a uniform fallback on
unvisited cells.  Cumulative rewards are accumulated as integer grid
multiples along each trajectory, never by float bucketing.
Time O(N*H + S*A*H*|grid|), memory O(S*A*H*|grid|).
"""

from __future__ import annotations

import math

import numpy as np

from .mdp import Dataset, GridReward, RewardGrid, discretize_reward
from .policies import RewardAugmentedPolicy, normalize_rows

__all__ = ["count_occurrences", "rs_bc", "theta_for_epsilon_rsbc"]


def count_occurrences(data: Dataset, reward: GridReward) -> np.ndarray:
    """Visit counters M[h, s, g, a] as an (H, S, G, A) int64 array.

    Every stage slice sums to the dataset size.  Each step is keyed by its
    flat (h, s, g, a) cell index and the keys are counted with one
    ``np.bincount``.
    """
    grid = reward.grid
    horizon = data.horizon
    if grid.horizon != horizon:
        raise ValueError("reward horizon does not match the dataset")
    stage_idx = np.arange(horizon)
    step_mult = reward.multiples[stage_idx, data.states, data.actions]  # (N, H)
    g = np.zeros_like(step_mult)
    np.cumsum(step_mult[:, :-1], axis=1, out=g[:, 1:])
    shape = (horizon, data.num_states, grid.num_multiples(horizon - 1), data.num_actions)
    key = ((stage_idx * shape[1] + data.states) * shape[2] + g) * shape[3] + data.actions
    return np.bincount(key.ravel(), minlength=math.prod(shape)).reshape(shape)


def rs_bc(data: Dataset, reward: np.ndarray, grid: RewardGrid) -> RewardAugmentedPolicy:
    """Estimate the reward-conditioned policy from expert trajectories.

    Rows with at least one visit are the empirical action frequencies at
    that (stage, state, cumulative grid reward) cell; unvisited rows are
    uniform, exactly as specified (no smoothing).
    """
    if len(data) < 1:
        raise ValueError("empty dataset")
    gr = discretize_reward(np.asarray(reward, dtype=float), grid)
    table = normalize_rows(count_occurrences(data, gr))
    return RewardAugmentedPolicy(grid=grid, table=table, reward=gr)


def theta_for_epsilon_rsbc(epsilon: float, horizon: int) -> float:
    """Grid step eps / (4 H) that makes the no-interaction estimator eps-accurate."""
    if not 0 < epsilon <= horizon:
        raise ValueError(f"epsilon must lie in (0, {horizon}], got {epsilon}")
    return epsilon / (4.0 * horizon)
