"""Count-based estimation of the reward-conditioned expert policy.

One pass over the dataset counts (stage, state, cumulative grid reward,
action) occurrences, as one ``np.bincount`` of flat cell indices; the
policy is the row-normalized count table with a uniform fallback on
unvisited cells.  Cumulative rewards are accumulated as integer grid
multiples along each trajectory, never by float bucketing.
Time O(N*H + S*A*H*|grid|), memory O(S*A*H*|grid|).

The reward-conditioned projection pi_R that ``rs-bc`` estimates is the
same count table taken over the expert's whole trajectory distribution:
``construct_pi_r`` weights every enumerated trajectory by its probability.
"""

from __future__ import annotations

import math

import numpy as np

from .mdp import Dataset, GridReward, RewardGrid, TabularMdp, discretize_reward
from .policies import (
    PolicyHandle,
    RewardAugmentedPolicy,
    enumerate_trajectory_distribution,
    normalize_rows,
)

__all__ = ["count_occurrences", "rs_bc", "construct_pi_r", "theta_for_epsilon_rsbc"]


def count_occurrences(
    data: Dataset, reward: GridReward, weights: np.ndarray | None = None
) -> np.ndarray:
    """Visit counters M[h, s, g, a] as an (H, S, G, A) array.

    Without ``weights`` these are int64 counts and every stage slice sums
    to the dataset size; with (N,) per-trajectory ``weights`` every visit
    adds its trajectory's weight instead.  Each step is keyed by its flat
    (h, s, g, a) cell index and the keys are counted with one
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
    if weights is not None:
        weights = np.repeat(np.asarray(weights, dtype=float), horizon)
    return np.bincount(key.ravel(), weights, minlength=math.prod(shape)).reshape(shape)


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


def construct_pi_r(
    mdp: TabularMdp,
    expert: PolicyHandle,
    reward: GridReward | np.ndarray,
    grid: RewardGrid,
) -> RewardAugmentedPolicy:
    """The reward-conditioned projection pi_R of an arbitrary expert policy.

    ``rs-bc``'s count table over the expert's enumerated trajectories, each
    weighted by its probability: every (stage, state, cumulative grid value)
    row is the expert's exact conditional action distribution given that the
    cell was reached, and cells the expert never reaches get the uniform
    row.  When the expert's reward is already grid-valued, the output
    provably reproduces the expert's return distribution exactly; with
    rounding, the gap is at most H * theta.
    """
    gr = reward if isinstance(reward, GridReward) else discretize_reward(reward, grid)
    if gr.grid != grid:
        raise ValueError("reward grid does not match the requested grid")
    data, probs = enumerate_trajectory_distribution(mdp, expert)
    table = normalize_rows(count_occurrences(data, gr, probs))
    return RewardAugmentedPolicy(grid=grid, table=table, reward=gr)


def theta_for_epsilon_rsbc(epsilon: float, horizon: int) -> float:
    """Grid step eps / (4 H) that makes the no-interaction estimator eps-accurate."""
    if not 0 < epsilon <= horizon:
        raise ValueError(f"epsilon must lie in (0, {horizon}], got {epsilon}")
    return epsilon / (4.0 * horizon)
