"""Tabular finite-horizon MDPs, trajectory datasets, reward grids, and the
reward-augmented construction used by the distribution-matching algorithms.

Conventions: stage indices are 0-based in code (stage ``h`` selects the
h-th action, ``h in range(horizon)``); prose that counts stages from 1 maps
to index ``h - 1``.  Cumulative rewards on a grid are stored as integer
multiples of the step size; they become floats only when a distribution or
a distance is actually computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TabularMdp",
    "Dataset",
    "RewardGrid",
    "GridReward",
    "AugmentedMdp",
    "GridOverflowError",
    "validate_mdp",
    "discretize_reward",
    "build_augmented_mdp",
]

# Slack added before flooring ratios so that decimal steps like 0.1, whose
# binary form sits slightly off the true value, land on the intended integer.
_FLOOR_SLACK = 1e-9

#: Tolerance for probability rows summing to one.
PROB_TOL = 1e-9


class GridOverflowError(RuntimeError):
    """A cumulative grid value escaped its per-stage range (discretization bug)."""


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _owned_or_frozen(values) -> np.ndarray:
    """``values`` itself if it is a read-only, C-contiguous int64 array that
    owns its data (as ``sample_trajectories`` returns), else a frozen copy."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.int64
        and values.flags.c_contiguous
        and values.flags.owndata
        and not values.flags.writeable
    ):
        return values
    return _frozen(values, np.int64)


@dataclass(frozen=True)
class TabularMdp:
    """Finite state/action MDP with horizon H and deterministic reward in [0, 1].

    ``transitions[h, s, a]`` is the probability vector over next states when
    action ``a`` is taken in state ``s`` at stage ``h``; ``reward[h, s, a]``
    is the reward collected by that step.  Instances are immutable; value
    invariants are checked by :func:`validate_mdp`, which reports violations
    instead of raising so that tests can build broken instances on purpose.
    """

    num_states: int
    num_actions: int
    horizon: int
    initial_state: int
    transitions: np.ndarray  # (H, S, A, S)
    reward: np.ndarray  # (H, S, A)

    def __post_init__(self) -> None:
        if self.num_states < 1 or self.num_actions < 1 or self.horizon < 1:
            raise ValueError("num_states, num_actions and horizon must be positive")
        if not 0 <= self.initial_state < self.num_states:
            raise ValueError(f"initial_state {self.initial_state} out of range")
        t = _frozen(self.transitions, float)
        r = _frozen(self.reward, float)
        shape_t = (self.horizon, self.num_states, self.num_actions, self.num_states)
        shape_r = shape_t[:3]
        if t.shape != shape_t:
            raise ValueError(f"transitions shape {t.shape}, expected {shape_t}")
        if r.shape != shape_r:
            raise ValueError(f"reward shape {r.shape}, expected {shape_r}")
        object.__setattr__(self, "transitions", t)
        object.__setattr__(self, "reward", r)


def validate_mdp(mdp: TabularMdp) -> list[str]:
    """Check the value invariants of an MDP and return a report.

    Returns an empty list iff every transition row is a probability vector
    (within ``PROB_TOL``) and every reward entry lies in [0, 1].
    """
    violations: list[str] = []
    t, r = mdp.transitions, mdp.reward
    if not np.isfinite(t).all():
        violations.append("transitions contain non-finite entries")
    if not np.isfinite(r).all():
        violations.append("reward contains non-finite entries")
    neg = np.argwhere(t < -PROB_TOL)
    for h, s, a, s2 in neg[:20]:
        violations.append(f"transitions[h={h},s={s},a={a},s'={s2}] is negative")
    sums = t.sum(axis=3)
    bad = np.argwhere(np.abs(sums - 1.0) > PROB_TOL)
    for h, s, a in bad:
        violations.append(
            f"transitions[h={h},s={s},a={a}] sums to {sums[h, s, a]:.9f}, expected 1"
        )
    out = np.argwhere((r < 0) | (r > 1))
    for h, s, a in out:
        violations.append(f"reward[h={h},s={s},a={a}] = {r[h, s, a]} outside [0, 1]")
    return violations


@dataclass(frozen=True)
class Dataset:
    """N trajectories of a common horizon, stored as (N, H) index arrays.

    ``seed`` and ``policy_tag`` record provenance; ``num_states`` and
    ``num_actions`` record the ambient space so estimators can size their
    tables without guessing from observed indices.  A read-only,
    C-contiguous int64 array that owns its data (as the sampler returns) is
    kept as is; any other input is copied into a frozen array.
    """

    states: np.ndarray  # (N, H)
    actions: np.ndarray  # (N, H)
    num_states: int
    num_actions: int
    seed: int | None = None
    policy_tag: str = ""

    def __post_init__(self) -> None:
        s = _owned_or_frozen(self.states)
        a = _owned_or_frozen(self.actions)
        if s.ndim != 2 or s.shape != a.shape:
            raise ValueError("states and actions must be matching (N, H) arrays")
        if s.shape[0] < 1 or s.shape[1] < 1:
            raise ValueError("dataset must contain at least one step")
        if s.min() < 0 or s.max() >= self.num_states:
            raise ValueError("state index out of range")
        if a.min() < 0 or a.max() >= self.num_actions:
            raise ValueError("action index out of range")
        object.__setattr__(self, "states", s)
        object.__setattr__(self, "actions", a)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class RewardGrid:
    """Uniform cumulative-reward grid with step ``theta`` for a given horizon.

    After ``k`` steps the attainable grid covers [0, k], i.e. the multiples
    ``{0, 1, ..., floor(k / theta)}`` of ``theta``.  ``num_multiples(1)`` is
    the one-step grid that reward discretization rounds onto.
    """

    theta: float
    horizon: int

    def __post_init__(self) -> None:
        if not 0 < self.theta <= 1:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")

    def max_multiple(self, steps: int) -> int:
        """Largest integer k with k * theta <= steps (decimal-tolerant floor)."""
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        return int(math.floor(steps / self.theta + _FLOOR_SLACK))

    def num_multiples(self, steps: int) -> int:
        return self.max_multiple(steps) + 1

    def stage_values(self, steps: int) -> np.ndarray:
        """Grid values attainable after ``steps`` steps, as floats."""
        return np.arange(self.num_multiples(steps)) * self.theta

    @property
    def full_size(self) -> int:
        """Size of the final grid covering [0, horizon]."""
        return self.num_multiples(self.horizon)


@dataclass(frozen=True)
class GridReward:
    """A reward table whose entries are exact integer multiples of a grid step."""

    grid: RewardGrid
    multiples: np.ndarray  # (H, S, A) integer

    def __post_init__(self) -> None:
        m = _frozen(self.multiples, np.int64)
        if m.ndim != 3:
            raise ValueError("multiples must be a (H, S, A) array")
        if m.shape[0] != self.grid.horizon:
            raise ValueError("reward horizon does not match grid horizon")
        if m.min() < 0 or m.max() > self.grid.max_multiple(1):
            raise ValueError("reward multiple outside the one-step grid")
        object.__setattr__(self, "multiples", m)

    @property
    def values(self) -> np.ndarray:
        return self.multiples * self.grid.theta


def discretize_reward(reward: np.ndarray | GridReward, grid: RewardGrid) -> GridReward:
    """Round every reward entry to the nearest one-step grid value.

    Ties are broken toward the smaller grid value, so the map is
    deterministic and idempotent.  The result stores integer multiples of
    ``grid.theta``; use ``.values`` for the rounded float table.
    """
    if isinstance(reward, GridReward):
        if reward.grid == grid:
            return reward
        reward = reward.values
    r = np.asarray(reward, dtype=float)
    if r.ndim != 3 or r.shape[0] != grid.horizon:
        raise ValueError("reward must be a (H, S, A) table matching the grid horizon")
    # Round half down: k = ceil(r/theta - 1/2), with slack so decimal ties
    # that land infinitesimally above one half still go to the smaller value.
    k = np.ceil(r / grid.theta - 0.5 - _FLOOR_SLACK).astype(np.int64)
    k = np.clip(k, 0, grid.max_multiple(1))
    return GridReward(grid, k)


@dataclass(frozen=True)
class AugmentedMdp:
    """The base MDP with the discretized cumulative reward folded into the state.

    Augmented states are pairs (s, g) with g an integer grid multiple; the
    initial state is (s0, 0).  Playing ``a`` in (s, g) at stage ``h`` moves
    to (s', g + increments[h, s, a]) with the base probability p_h(s'|s, a),
    so rows of the augmented kernel sum to one whenever the base rows do.
    ``reachable[h]`` masks the (s, g) pairs attainable at stage ``h`` under
    some action sequence; ``reachable[horizon]`` holds the post-episode pairs,
    whose g-marginal is the attainable return support.
    """

    base: TabularMdp
    grid: RewardGrid
    reward: GridReward
    reachable: tuple[np.ndarray, ...]

    @property
    def increments(self) -> np.ndarray:
        """Integer g-offsets collected by each (h, s, a) step."""
        return self.reward.multiples

    @property
    def num_aug_states(self) -> int:
        """|S x Y|, with Y the full grid covering [0, horizon]."""
        return self.base.num_states * self.grid.full_size

    def return_support_mask(self) -> np.ndarray:
        """Boolean mask over full-grid multiples reachable as total returns."""
        final = self.reachable[self.base.horizon].any(axis=0)
        mask = np.zeros(self.grid.full_size, dtype=bool)
        mask[: final.shape[0]] = final
        return mask


def build_augmented_mdp(
    mdp: TabularMdp, grid: RewardGrid, reward: np.ndarray | GridReward | None = None
) -> AugmentedMdp:
    """Discretize the reward and derive the reward-augmented MDP.

    ``reward`` defaults to ``mdp.reward``; passing an explicit table lets the
    caller augment with a reward different from the one stored in the MDP.
    A forward reachability pass over (s, g) pairs is run here once and reused
    by the occupancy LP to prune variables.
    """
    if grid.horizon != mdp.horizon:
        raise ValueError("grid horizon does not match MDP horizon")
    gr = discretize_reward(mdp.reward if reward is None else reward, grid)
    horizon, num_states = mdp.horizon, mdp.num_states
    reachable: list[np.ndarray] = [
        np.zeros((num_states, grid.num_multiples(h)), dtype=bool)
        for h in range(horizon + 1)
    ]
    reachable[0][mdp.initial_state, 0] = True
    for h in range(horizon):
        cur, nxt = reachable[h], reachable[h + 1]
        g_cap = grid.max_multiple(h + 1)
        for s in range(num_states):
            live = cur[s]
            if not live.any():
                continue
            g_top = int(np.nonzero(live)[0][-1])
            for a in range(mdp.num_actions):
                k = int(gr.multiples[h, s, a])
                if g_top + k > g_cap:
                    raise GridOverflowError(
                        f"stage {h}: g={g_top} + increment {k} escapes the stage-{h + 1} grid"
                    )
                targets = mdp.transitions[h, s, a] > 0.0
                if targets.any():
                    nxt[targets, k : k + g_top + 1] |= live[: g_top + 1]
    frozen = tuple(_frozen(m, bool) for m in reachable)
    return AugmentedMdp(base=mdp, grid=grid, reward=gr, reachable=frozen)
