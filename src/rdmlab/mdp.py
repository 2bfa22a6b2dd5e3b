"""Tabular finite-horizon MDPs, trajectory datasets, reward grids, and the
reward-augmented construction used by the distribution-matching algorithms.

Conventions: stage indices are 0-based in code (stage ``h`` selects the
h-th action, ``h in range(horizon)``); prose that counts stages from 1 maps
to index ``h - 1``.  Cumulative rewards on a grid are stored as integer
multiples of the step size; they become floats only when a distribution or
a distance is actually computed.

Every forward pass of mass over the reward-augmented states (s, g) runs
through one stage kernel, ``_push_stage``: mass lives only on the live
cells of the accumulator box, and per action the action-weighted mass,
shifted by that step's grid multiples, goes to the next stage in one
``P_h[:, a, :].T @ slab`` GEMM.  This shift-and-add on a fixed grid is the
categorical projection of Bellemare, Dabney & Munos (2017).  It has two
callers: ``rs-kt``'s reachable cells (``build_augmented_mdp``) and the walk
of a table policy over the box (policy accumulator x target accumulator),
``policies._table_walk``, which the return DP, the augmented occupancy and
so ``mimic-md``'s crash vertex read.  Where both accumulators sum one reward
on two grids, the live cells lie on a narrow band of the box.

The flow rows of an occupancy polytope (Altman 1999) are written in one
place, ``_flow_rows``: ``rs-kt`` passes its reachable (h, s, g) cells, and
``mimic-md`` every (h, s) cell on a zero reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "TabularMdp",
    "Dataset",
    "RewardGrid",
    "GridReward",
    "AugmentedMdp",
    "validate_mdp",
    "discretize_reward",
    "build_augmented_mdp",
]

# Slack added before flooring ratios so that decimal steps like 0.1, whose
# binary form sits slightly off the true value, land on the intended integer.
_FLOOR_SLACK = 1e-9

#: Tolerance for probability rows summing to one.
PROB_TOL = 1e-9


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TabularMdp:
    """Finite state/action MDP with horizon H and deterministic reward in [0, 1].

    ``transitions[h, s, a]`` is the probability vector over next states when
    action ``a`` is taken in state ``s`` at stage ``h``; ``reward[h, s, a]``
    is the reward collected by that step; H, S and A are read off their
    shape.  Instances are immutable; value invariants are checked by
    :func:`validate_mdp`, which reports violations instead of raising so
    that tests can build broken instances on purpose.
    """

    initial_state: int
    transitions: np.ndarray  # (H, S, A, S)
    reward: np.ndarray  # (H, S, A)
    horizon: int = field(init=False)
    num_states: int = field(init=False)
    num_actions: int = field(init=False)

    def __post_init__(self) -> None:
        t = _frozen(self.transitions, float)
        r = _frozen(self.reward, float)
        if t.ndim != 4 or t.shape[1] != t.shape[3] or 0 in t.shape:
            raise ValueError(f"transitions shape {t.shape}, expected a nonempty (H, S, A, S)")
        if r.shape != t.shape[:3]:
            raise ValueError(f"reward shape {r.shape}, expected {t.shape[:3]}")
        if not 0 <= self.initial_state < t.shape[1]:
            raise ValueError(f"initial_state {self.initial_state} out of range")
        dims = zip(("horizon", "num_states", "num_actions"), t.shape)
        for name, value in (("transitions", t), ("reward", r), *dims):
            object.__setattr__(self, name, value)


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

    ``num_states`` and ``num_actions`` record the ambient space so
    estimators can size their tables without guessing from observed
    indices.  Both arrays are always copied into frozen int64 arrays.
    """

    states: np.ndarray  # (N, H)
    actions: np.ndarray  # (N, H)
    num_states: int
    num_actions: int

    def __post_init__(self) -> None:
        s = _frozen(self.states, np.int64)
        a = _frozen(self.actions, np.int64)
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
    the one-step grid that reward discretization rounds onto.  The grids
    must nest, ``k * max_multiple(1) <= max_multiple(k)`` for k up to the
    horizon, so a cumulative multiple never leaves its stage's grid (the
    tolerant floor breaks this only when 1/theta lies within 1e-9 below an
    integer, as for theta = 1/(10 - 5e-10)).
    """

    theta: float
    horizon: int

    def __post_init__(self) -> None:
        if not 0 < self.theta <= 1:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        one = self.max_multiple(1)
        for k in range(2, self.horizon + 1):
            if k * one > self.max_multiple(k):
                raise ValueError(
                    f"theta={self.theta!r}: grids do not nest at k={k} "
                    f"({k} * {one} > max_multiple({k}) = {self.max_multiple(k)})"
                )

    def max_multiple(self, steps: int) -> int:
        """Largest integer k with k * theta <= steps (decimal-tolerant floor)."""
        if steps < 0:
            raise ValueError("steps must be nonnegative")
        return int(math.floor(steps / self.theta + _FLOOR_SLACK))

    def num_multiples(self, steps: int) -> int:
        return self.max_multiple(steps) + 1

    @property
    def full_size(self) -> int:
        """Size of the final grid covering [0, horizon]."""
        return self.num_multiples(self.horizon)

    @property
    def table_size(self) -> int:
        """Width of every stage table's g axis: ``num_multiples(horizon - 1)``."""
        return self.num_multiples(self.horizon - 1)


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

    def returns(self, g: np.ndarray) -> np.ndarray:
        """The return multiple each last action reaches from the last-stage
        cells ``g``: ``g + multiples[H-1, s, a]`` as an (S, g.size, A) array."""
        return g[:, None] + self.multiples[-1][:, None, :]


def discretize_reward(reward: np.ndarray | GridReward, grid: RewardGrid) -> GridReward:
    """The reward on ``grid``: the one rule every (reward, grid) entry point reads.

    A raw (H, S, A) table is rounded entrywise to the nearest one-step grid
    value, ties toward the smaller, so the map is deterministic and
    idempotent (``.values`` is the rounded table).  A ``GridReward`` on
    ``grid`` is returned as it is; one on another grid raises ``ValueError``
    rather than be silently rounded again.
    """
    if isinstance(reward, GridReward):
        if reward.grid != grid:
            raise ValueError("reward grid does not match the requested grid")
        return reward
    r = np.asarray(reward, dtype=float)
    # Round half down: k = ceil(r/theta - 1/2), with slack so decimal ties
    # that land infinitesimally above one half still go to the smaller value.
    k = np.ceil(r / grid.theta - 0.5 - _FLOOR_SLACK).astype(np.int64)
    k = np.clip(k, 0, grid.max_multiple(1))
    return GridReward(grid, k)


def _raw_reward(reward: np.ndarray | GridReward, entry: str) -> np.ndarray:
    """A raw (H, S, A) reward table as floats; a ``GridReward`` is refused by name."""
    if isinstance(reward, GridReward):
        raise TypeError(f"{entry} takes a raw (H, S, A) reward table, not a GridReward")
    return np.asarray(reward, dtype=float)


def _check_dims(dims: tuple[int, ...], owner: str, **tables: tuple[int, ...]) -> None:
    """The one shape rule: each keyword names a table an entry point was handed
    and gives its (H, S, A), which must be ``dims``, the (H, S, A) of ``owner``."""
    for what, shape in tables.items():
        if shape[:1] != dims[:1]:
            raise ValueError(f"{what} horizon does not match {owner}")
        if shape[1:] != dims[1:]:
            got, want = shape[1:], dims[1:]
            raise ValueError(f"{what} states and actions {got} do not match {owner}'s {want}")


def _push_stage(
    cells: np.ndarray,
    mass: np.ndarray,
    phi: np.ndarray,
    transitions: np.ndarray,
    shifts: np.ndarray,
    limits: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """One forward stage of probability mass over (state, live grid accumulators).

    ``cells`` is the sorted array of live accumulator cells, as flat keys
    row-major over the box ``limits`` (one axis per accumulator), and
    ``mass`` is (S, K): the probability of each state with each live cell.
    ``phi`` holds the action probabilities at those cells with the action
    axis last; it broadcasts against (S, K, A).  ``transitions`` is this
    stage's (S, A, S) tensor and ``shifts`` the (S, A, len(limits)) grid
    multiples each (state, action) adds to the accumulators.  Returns the
    next stage's sorted live keys and their (S, K') mass.  Mass shifted past
    a per-axis limit is dropped, never wrapped into the next row of the flat
    key, so callers size their grids so that none is, and check the total.

    The next keys are ``cell + flat shift`` over every (state, cell) with
    mass and every action, found with a presence map over the box.  For each
    action the action-weighted mass fills one zeroed (S, K') slab by one
    fancy-index assignment (one (state, action) never sends two cells to one
    key; mass with nowhere to go lands in a spare column), and one
    transition GEMM adds the slab to the next stage.
    """
    num_states, num_actions = transitions.shape[:2]
    size = math.prod(limits)
    strides = [math.prod(limits[d + 1 :]) for d in range(len(limits))]
    dst = cells + (shifts @ strides)[:, :, None]  # (S, A, K); key ``size`` is dropped
    for d, (coord, n) in enumerate(zip(np.unravel_index(cells, limits), limits)):
        dst[shifts[:, :, d, None] >= n - coord] = size  # past a limit
    np.copyto(dst, size, where=(mass == 0.0)[:, None, :])  # no mass to move
    present = np.zeros(size + 1, dtype=bool)
    present[dst] = True
    nxt_cells = present[:size].nonzero()[0]
    pos = np.empty(size + 1, dtype=np.intp)
    pos[nxt_cells] = np.arange(nxt_cells.size)
    pos[size] = nxt_cells.size  # dropped mass goes to a spare column
    cols = pos[dst]
    rows = np.arange(num_states)[:, None]
    nxt = np.zeros((num_states, nxt_cells.size))
    for a in range(num_actions):
        slab = np.zeros((num_states, nxt_cells.size + 1))
        slab[rows, cols[:, a]] = mass * phi[:, :, a]
        nxt += transitions[:, a, :].T @ slab[:, :-1]
    return nxt_cells, nxt


def _flow_rows(column, mdp, multiples, a_eq, b_eq):
    """Write the flow rows of an occupancy polytope into ``a_eq`` and ``b_eq``.

    ``column[h, s, g]`` is the column of action 0 in cell (h, s, g), the
    other actions following it, or -1 off the cells; row ``column // A`` is
    the cell's outflow minus its inflow from the cells one stage earlier,
    where (s, g) moves to (s', g + ``multiples[h, s, a]``).  The initial
    cell (s0, 0) carries unit mass.
    """
    num_actions = mdp.num_actions
    live = column >= 0
    row_of = column // num_actions
    a_eq[row_of[live][:, None], column[live][:, None] + np.arange(num_actions)] = 1.0
    b_eq[row_of[0, mdp.initial_state, 0]] = 1.0
    h, s, g = np.nonzero(live[:-1])
    p = mdp.transitions[h, s]  # (cells, A, S')
    i, a, s_next = np.nonzero(p > 0.0)
    g_next = g[i] + multiples[h[i], s[i], a]
    a_eq[row_of[h[i] + 1, s_next, g_next], column[h[i], s[i], g[i]] + a] = -p[i, a, s_next]


@dataclass(frozen=True)
class AugmentedMdp:
    """The base MDP with the discretized cumulative reward folded into the state.

    Augmented states are pairs (s, g) with g an integer grid multiple; the
    initial state is (s0, 0).  Playing ``a`` in (s, g) at stage ``h`` moves
    to (s', g + reward.multiples[h, s, a]) with the base probability
    p_h(s'|s, a), so rows of the augmented kernel sum to one whenever the
    base rows do.  ``reachable[h]`` is the read-only (S, full_size) mask of
    the (s, g) pairs attainable at stage ``h`` under some action sequence,
    all with g < ``num_multiples(h)``; ``reachable[horizon]`` holds the
    post-episode pairs, whose g-marginal is the attainable return support.
    ``grid`` is the reward's grid.
    """

    base: TabularMdp
    reward: GridReward
    reachable: np.ndarray  # (H + 1, S, full_size) bool

    @property
    def grid(self) -> RewardGrid:
        return self.reward.grid

    def return_support_mask(self) -> np.ndarray:
        """Boolean mask over full-grid multiples reachable as total returns."""
        return self.reachable[self.base.horizon].any(axis=0)


def build_augmented_mdp(
    mdp: TabularMdp, grid: RewardGrid, reward: np.ndarray | GridReward
) -> AugmentedMdp:
    """Put ``reward`` on ``grid`` and derive the reward-augmented MDP.

    The reward may differ from the one stored in the MDP.  Reachability,
    which the occupancy LP uses to prune variables, is one ``_push_stage``
    walk with weight 1 on every action and the support ``transitions > 0``
    as the kernel: a cell's mass counts the paths into it, capped at 1
    after each stage (an inf count would make the GEMM NaN), and only
    ``> 0`` is read.
    """
    gr = discretize_reward(reward, grid)
    _check_dims(mdp.reward.shape, "the MDP", reward=gr.multiples.shape)
    support = (mdp.transitions > 0.0).astype(float)
    every_action = np.ones((1, 1, mdp.num_actions))
    cells, paths = np.zeros(1, dtype=np.intp), np.zeros((mdp.num_states, 1))
    paths[mdp.initial_state] = 1.0
    reachable = np.zeros((mdp.horizon + 1, mdp.num_states, grid.full_size), dtype=bool)
    for h in range(mdp.horizon + 1):
        reachable[h][:, cells] = paths > 0.0
        if h < mdp.horizon:
            shifts, limits = gr.multiples[h][..., None], (grid.full_size,)
            cells, paths = _push_stage(cells, paths, every_action, support[h], shifts, limits)
            np.minimum(paths, 1.0, out=paths)
    reachable.setflags(write=False)
    return AugmentedMdp(base=mdp, reward=gr, reachable=reachable)
