"""Count-based estimation of the reward-conditioned expert policy.

One pass over the dataset counts (stage, state, cumulative grid reward,
action) occurrences, as one ``np.bincount`` of flat cell indices
(``count_occurrences``).  Cumulative rewards are accumulated as integer grid
multiples along each trajectory, never by float bucketing.
Time O(N*H + S*A*H*|grid|), memory O(S*A*H*|grid|).  The run loop never
builds the dataset: ``rdmlab.policies.sample_counts`` counts the same
tensor inside the sampler's one walk, over groups of episodes, with the
dtype and law of ``count_occurrences(sample_trajectories(...))``, and
equals it whenever the grid multiple splits no group of that walk: for the
parametric expert on every grid, for a table policy on the reward's own
grid step.  ``count_occurrences``
stays for weighted counts (``construct_pi_r``), for the data-walk entries
such as ``rs_bc``, and as the tests' oracle.

Two readers turn the count tensor M[h, s, g, a] into estimates, so a caller
that already holds M never walks the dataset again:

- ``rs_bc_from_counts``: the ``rs-bc`` policy, M row-normalized with a
  uniform fallback on unvisited cells;
- ``eta_hat_from_counts``: the empirical grid return distribution, read off
  M's last stage (each trajectory's return is its last cell's g plus the
  last step's reward).

``rs_bc`` is ``rs_bc_from_counts`` on a fresh count, and
``empirical_return_distribution`` on a grid is ``eta_hat_from_counts`` on
one: the grid law of a dataset has that one implementation.  The
reward-conditioned projection pi_R that ``rs-bc`` estimates is the same
count table taken over the expert's whole trajectory distribution:
``construct_pi_r`` weights every enumerated trajectory by its probability.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import DiscreteReturnDistribution
from .mdp import Dataset, GridReward, RewardGrid, TabularMdp, discretize_reward
from .mdp import _check_dims, _raw_reward
from .policies import (
    PolicyHandle,
    RewardAugmentedPolicy,
    enumerate_trajectory_distribution,
    normalize_rows,
)

__all__ = [
    "count_occurrences",
    "rs_bc_from_counts",
    "eta_hat_from_counts",
    "empirical_return_distribution",
    "rs_bc",
    "construct_pi_r",
    "theta_for_epsilon_rsbc",
]


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
    horizon = data.horizon
    shape = (horizon, data.num_states, reward.grid.table_size, data.num_actions)
    _check_dims(shape[:2] + shape[3:], "the dataset", reward=reward.multiples.shape)
    stage_idx = np.arange(horizon)
    step_mult = reward.multiples[stage_idx, data.states, data.actions]  # (N, H)
    g = np.zeros_like(step_mult)
    np.cumsum(step_mult[:, :-1], axis=1, out=g[:, 1:])
    key = ((stage_idx * shape[1] + data.states) * shape[2] + g) * shape[3] + data.actions
    if weights is not None:
        weights = np.repeat(np.asarray(weights, dtype=float), horizon)
    return np.bincount(key.ravel(), weights, minlength=math.prod(shape)).reshape(shape)


def rs_bc_from_counts(counts: np.ndarray, reward: GridReward) -> RewardAugmentedPolicy:
    """The ``rs-bc`` policy read from the visit counters M[h, s, g, a] on ``reward``.

    Rows with at least one visit are the empirical action frequencies at
    that (stage, state, cumulative grid reward) cell; unvisited rows are
    uniform, exactly as specified (no smoothing).
    """
    return RewardAugmentedPolicy(table=normalize_rows(counts), reward=reward)


def eta_hat_from_counts(counts: np.ndarray, reward: GridReward) -> DiscreteReturnDistribution:
    """The empirical grid return distribution read from the counters M[h, s, g, a].

    Every trajectory visits exactly one last-stage cell (s, g, a), and its
    return is ``reward.returns(g)`` grid steps, so the histogram of returns
    is M[H-1] summed over those totals; its exact sum is N, so
    ``DiscreteReturnDistribution.on_grid`` gives the law of the returns
    (count / N at each observed total).
    """
    dims = counts.shape[:2] + counts.shape[3:]  # the (H, S, A) of M[h, s, g, a]
    _check_dims(dims, "the count table", reward=reward.multiples.shape)
    last = counts[-1]  # (S, G, A)
    mass = np.bincount(reward.returns(np.arange(last.shape[1])).ravel(), last.ravel())
    return DiscreteReturnDistribution.on_grid(mass, reward.grid.theta)


def empirical_return_distribution(
    data: Dataset, reward: np.ndarray | GridReward, grid: RewardGrid | None = None
) -> DiscreteReturnDistribution:
    """Empirical distribution of trajectory returns, one atom per observed value.

    With a ``grid`` it is ``eta_hat_from_counts`` of the dataset's counts on
    the reward put on the grid; without one the reward is a raw (H, S, A) table.
    """
    if grid is None:
        reward = _raw_reward(reward, "empirical_return_distribution without a grid")
        _check_dims((data.horizon, data.num_states, data.num_actions), "the dataset",
                    reward=reward.shape)
        n, horizon = data.states.shape
        returns = reward[np.arange(horizon), data.states, data.actions].sum(axis=1)
        return DiscreteReturnDistribution.from_weighted(returns, np.full(n, 1.0 / n))
    gr = discretize_reward(reward, grid)
    return eta_hat_from_counts(count_occurrences(data, gr), gr)


def rs_bc(
    data: Dataset, reward: np.ndarray | GridReward, grid: RewardGrid
) -> RewardAugmentedPolicy:
    """Estimate the reward-conditioned policy from expert trajectories."""
    gr = discretize_reward(reward, grid)
    return rs_bc_from_counts(count_occurrences(data, gr), gr)


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
    gr = discretize_reward(reward, grid)
    data, probs = enumerate_trajectory_distribution(mdp, expert)
    return rs_bc_from_counts(count_occurrences(data, gr, probs), gr)


def theta_for_epsilon_rsbc(epsilon: float, horizon: int) -> float:
    """Grid step eps / (4 H) that makes the no-interaction estimator eps-accurate."""
    if not 0 < epsilon <= horizon:
        raise ValueError(f"epsilon must lie in (0, {horizon}], got {epsilon}")
    return epsilon / (4.0 * horizon)
