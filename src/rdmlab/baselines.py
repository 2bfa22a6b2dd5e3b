"""Standard imitation-learning baselines: behavioral cloning and the
known-transition occupancy-matching LP with expert-ratio pinning.

Both output Markovian policies, which is exactly the bias the
distribution-matching algorithms are measured against.
"""

from __future__ import annotations

import math

import numpy as np

from .lp import LinearProgram, LpError, solve
from .mdp import Dataset, TabularMdp
from .policies import ZERO_MASS, MarkovianPolicy, normalize_rows

__all__ = ["count_state_actions", "bc", "mimic_md"]


def count_state_actions(data: Dataset) -> np.ndarray:
    """Per-stage visit counters N[h, s, a] as an (H, S, A) int64 array."""
    shape = (data.horizon, data.num_states, data.num_actions)
    key = (np.arange(shape[0]) * shape[1] + data.states) * shape[2] + data.actions
    return np.bincount(key.ravel(), minlength=math.prod(shape)).reshape(shape)


def bc(data: Dataset) -> MarkovianPolicy:
    """Empirical Markovian policy: action frequencies per visited (stage, state),
    uniform elsewhere."""
    if len(data) < 1:
        raise ValueError("empty dataset")
    return MarkovianPolicy(normalize_rows(count_state_actions(data)))


def mimic_md(data: Dataset, mdp: TabularMdp) -> MarkovianPolicy:
    """Known-transition baseline: occupancy LP with expert ratios pinned.

    Searches over valid Markovian occupancy measures d_h(s, a) of the base
    MDP.  Wherever the dataset visits a (stage, state), the action split of
    d is pinned to the empirical ratio; the remaining freedom is resolved by
    minimizing the L1 distance between d and the empirical occupancy d_hat.
    The program is in standard form: its columns are d, p and q, all
    nonnegative; its rows are the initial and flow rows, the pin rows, and
    one residual row d - p + q = d_hat per entry; the objective is
    sum(p + q).  The policy is read off by row normalization, uniform on
    zero-mass rows.
    """
    if len(data) < 1:
        raise ValueError("empty dataset")
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    counts = count_state_actions(data)
    state_counts = counts.sum(axis=2)
    n_d = horizon * num_states * num_actions  # d column of (h, s, a): (h * S + s) * A + a
    h_seen, s_seen = np.nonzero(state_counts)
    n_pin = h_seen.size * num_actions
    n_flow = horizon * num_states
    a_eq = np.zeros((n_flow + n_pin + n_d, 3 * n_d))
    b_eq = np.zeros(n_flow + n_pin + n_d)

    # row h * S + s: outflow of (h, s) minus, past stage 0, its inflow; the
    # stage-0 rows put all mass on the initial state
    a_eq[np.arange(n_flow)[:, None], np.arange(n_d).reshape(n_flow, num_actions)] = 1.0
    h, s, a, s_next = np.nonzero(mdp.transitions[:-1] > 0.0)
    a_eq[(h + 1) * num_states + s_next, (h * num_states + s) * num_actions + a] = (
        -mdp.transitions[h, s, a, s_next]
    )
    b_eq[mdp.initial_state] = 1.0

    # pin rows d(h, s, a) - ratio_a * sum_a' d(h, s, a') = 0 where (h, s) is observed
    ratios = counts[h_seen, s_seen] / state_counts[h_seen, s_seen][:, None]
    pin_rows = n_flow + np.arange(n_pin).reshape(-1, num_actions, 1)
    cell_cols = ((h_seen * num_states + s_seen) * num_actions)[:, None, None]
    a_eq[pin_rows, cell_cols + np.arange(num_actions)] = np.eye(num_actions) - ratios[:, :, None]

    # residual rows d - p + q = d_hat
    j = np.arange(n_d)
    res0 = n_flow + n_pin
    a_eq[res0 + j, j] = 1.0
    a_eq[res0 + j, n_d + j] = -1.0
    a_eq[res0 + j, 2 * n_d + j] = 1.0
    b_eq[res0:] = (counts / len(data)).ravel()

    c = np.zeros(3 * n_d)
    c[n_d:] = 1.0
    sol = solve(LinearProgram(c=c, A_eq=a_eq, b_eq=b_eq))
    if sol.status != "optimal":
        raise LpError(f"occupancy-matching program reported {sol.status}")

    d = sol.x[:n_d].reshape(horizon, num_states, num_actions)
    return MarkovianPolicy(normalize_rows(d, min_mass=ZERO_MASS))
