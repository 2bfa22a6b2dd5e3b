"""Standard imitation-learning baselines: behavioral cloning and the
known-transition occupancy-matching LP with expert-ratio pinning.

Both output Markovian policies, which is exactly the bias the
distribution-matching algorithms are measured against.
"""

from __future__ import annotations

import math

import numpy as np

from .lp import LinearProgram, LpError, check_dense_size, solve
from .mdp import Dataset, GridReward, RewardGrid, TabularMdp, _flow_rows
from .policies import ZERO_MASS, MarkovianPolicy, exact_augmented_occupancy, normalize_rows

__all__ = ["count_state_actions", "bc_from_counts", "bc", "mimic_md_from_counts", "mimic_md"]


def count_state_actions(data: Dataset) -> np.ndarray:
    """Per-stage visit counters N[h, s, a] as an (H, S, A) int64 array."""
    shape = (data.horizon, data.num_states, data.num_actions)
    key = (np.arange(shape[0]) * shape[1] + data.states) * shape[2] + data.actions
    return np.bincount(key.ravel(), minlength=math.prod(shape)).reshape(shape)


def bc_from_counts(counts: np.ndarray) -> MarkovianPolicy:
    """Empirical Markovian policy from (H, S, A) visit counters: action
    frequencies per visited (stage, state), uniform elsewhere.

    The counters are ``count_state_actions(data)``, or equally the ``rs-bc``
    counters M[h, s, g, a] summed over g.
    """
    return MarkovianPolicy(normalize_rows(counts))


def bc(data: Dataset) -> MarkovianPolicy:
    """Behavioral cloning: ``bc_from_counts`` on the dataset's visit counters."""
    return bc_from_counts(count_state_actions(data))


def mimic_md_from_counts(counts: np.ndarray, mdp: TabularMdp) -> MarkovianPolicy:
    """Known-transition baseline: occupancy LP with expert ratios pinned.

    ``counts`` are the (H, S, A) visit counters, as for ``bc_from_counts``.
    Searches over valid Markovian occupancy measures d_h(s, a) of the base
    MDP.  Wherever the dataset visits a (stage, state), the action split of
    d is pinned to the empirical ratio; the remaining freedom is resolved by
    minimizing the L1 distance between d and the empirical occupancy
    d_hat, the counters over the dataset size (any stage's total).  The
    program is in standard form: its columns are d, p and q, all
    nonnegative; its rows are the initial and flow rows, A - 1 pin rows
    per observed (stage, state) (the last action's pin row is minus the sum
    of the others, so it is left out and the rows stay independent), and
    one residual row d - p + q = d_hat per entry; the objective is
    sum(p + q).

    The simplex starts from the vertex of the policy that plays the
    empirical ratios where observed and action 0 elsewhere: its basis is
    every d column of an observed (stage, state), the action-0 column of
    the others, and p or q on each residual row by the sign of d - d_hat.
    Ordered by stage this basis is block triangular with nonsingular
    diagonal blocks.  The policy is read off by row normalization, uniform
    on zero-mass rows.
    """
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    state_counts = counts.sum(axis=2)
    n_d = horizon * num_states * num_actions  # d column of (h, s, a): (h * S + s) * A + a
    h_seen, s_seen = np.nonzero(state_counts)
    n_pin = h_seen.size * (num_actions - 1)
    n_flow = horizon * num_states
    check_dense_size(n_flow + n_pin + n_d, 3 * n_d, "mimic-md program")
    a_eq = np.zeros((n_flow + n_pin + n_d, 3 * n_d))
    b_eq = np.zeros(n_flow + n_pin + n_d)

    # row h * S + s: the flow row of (h, s), as the one cell of a zero reward
    zero = GridReward(RewardGrid(1.0, horizon), np.zeros(counts.shape, dtype=np.int64))
    column = (np.arange(n_flow) * num_actions).reshape(horizon, num_states, 1)
    _flow_rows(column, mdp, zero.multiples, a_eq, b_eq)

    # pin rows d(h, s, a) - ratio_a * sum_a' d(h, s, a') = 0 for a < A - 1
    # where (h, s) is observed
    ratios = counts[h_seen, s_seen] / state_counts[h_seen, s_seen][:, None]
    pin_rows = n_flow + np.arange(n_pin).reshape(-1, num_actions - 1, 1)
    cell_cols = ((h_seen * num_states + s_seen) * num_actions)[:, None, None]
    pins = np.eye(num_actions) - ratios[:, :, None]
    a_eq[pin_rows, cell_cols + np.arange(num_actions)] = pins[:, :-1]

    # residual rows d - p + q = d_hat
    j = np.arange(n_d)
    res0 = n_flow + n_pin
    a_eq[res0 + j, j] = 1.0
    a_eq[res0 + j, n_d + j] = -1.0
    a_eq[res0 + j, 2 * n_d + j] = 1.0
    d_hat = (counts / counts[0].sum()).ravel()
    b_eq[res0:] = d_hat

    # crash basis: the vertex of the pinned ratios, action 0 where unobserved;
    # its occupancy is the augmented one on a zero reward, summed over g
    table = np.zeros((horizon, num_states, num_actions))
    table[..., 0] = 1.0
    table[h_seen, s_seen] = ratios
    d = exact_augmented_occupancy(mdp, MarkovianPolicy(table), zero).sum(axis=2)
    basic_d = np.zeros(table.shape, dtype=bool)
    basic_d[..., 0] = True
    basic_d[h_seen, s_seen] = True
    residual_cols = np.where(d.ravel() >= d_hat, n_d, 2 * n_d) + j
    basis = np.concatenate([np.flatnonzero(basic_d), residual_cols])

    c = np.zeros(3 * n_d)
    c[n_d:] = 1.0
    sol = solve(LinearProgram(c=c, A_eq=a_eq, b_eq=b_eq), basis=basis)
    if sol.status != "optimal":
        raise LpError(f"occupancy-matching program reported {sol.status}")

    d = sol.x[:n_d].reshape(horizon, num_states, num_actions)
    return MarkovianPolicy(normalize_rows(d, min_mass=ZERO_MASS))


def mimic_md(data: Dataset, mdp: TabularMdp) -> MarkovianPolicy:
    """``mimic_md_from_counts`` on the dataset's visit counters."""
    return mimic_md_from_counts(count_state_actions(data), mdp)
