"""Count-based estimation of the reward-conditioned expert policy.

One pass over the dataset counts (stage, state, cumulative grid reward,
action) occurrences; the policy is the row-normalized count table with a
uniform fallback on unvisited cells.  Cumulative rewards are accumulated as
integer grid multiples along each trajectory, never by float bucketing.
Time O(N*H + S*A*H*|grid|), memory O(S*A*H*|grid|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Dataset, GridReward, RewardGrid, discretize_reward
from .policies import RewardAugmentedPolicy, normalize_rows

__all__ = ["CountTable", "count_occurrences", "rs_bc", "theta_for_epsilon_rsbc"]


@dataclass(frozen=True)
class CountTable:
    """Visit counters M[h, s, g, a]; every stage slice sums to the dataset size."""

    grid: RewardGrid
    counts: np.ndarray  # (H, S, G, A) integer

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64).copy()
        if counts.ndim != 4 or counts.min() < 0:
            raise ValueError("counts must be a nonnegative (H, S, G, A) array")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def num_trajectories(self) -> int:
        return int(self.counts[0].sum())


def count_occurrences(data: Dataset, reward: GridReward) -> CountTable:
    """Count (h, s, g, a) occurrences across the dataset."""
    grid = reward.grid
    horizon = data.horizon
    if grid.horizon != horizon:
        raise ValueError("reward horizon does not match the dataset")
    stage_idx = np.arange(horizon)[None, :]
    step_mult = reward.multiples[stage_idx, data.states, data.actions]  # (N, H)
    g = np.zeros_like(step_mult)
    g[:, 1:] = np.cumsum(step_mult[:, :-1], axis=1)
    n_g = grid.num_multiples(horizon - 1)
    counts = np.zeros((horizon, data.num_states, n_g, data.num_actions), dtype=np.int64)
    flat_stage = np.broadcast_to(stage_idx, g.shape)
    np.add.at(counts, (flat_stage, data.states, g, data.actions), 1)
    return CountTable(grid=grid, counts=counts)


def rs_bc(data: Dataset, reward: np.ndarray, grid: RewardGrid) -> RewardAugmentedPolicy:
    """Estimate the reward-conditioned policy from expert trajectories.

    Rows with at least one visit are the empirical action frequencies at
    that (stage, state, cumulative grid reward) cell; unvisited rows are
    uniform, exactly as specified (no smoothing).
    """
    if len(data) < 1:
        raise ValueError("empty dataset")
    gr = discretize_reward(np.asarray(reward, dtype=float), grid)
    table = normalize_rows(count_occurrences(data, gr).counts)
    return RewardAugmentedPolicy(grid=grid, table=table, reward=gr)


def theta_for_epsilon_rsbc(epsilon: float, horizon: int) -> float:
    """Grid step eps / (4 H) that makes the no-interaction estimator eps-accurate."""
    if not 0 < epsilon <= horizon:
        raise ValueError(f"epsilon must lie in (0, {horizon}], got {epsilon}")
    return epsilon / (4.0 * horizon)
