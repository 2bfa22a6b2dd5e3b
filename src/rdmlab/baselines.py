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
from .policies import MarkovianPolicy, normalize_rows

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
    minimizing the L1 distance between d and the empirical occupancy
    (linearized through one slack variable per entry).  The policy is read
    off by row normalization, uniform on zero-mass rows.
    """
    if len(data) < 1:
        raise ValueError("empty dataset")
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    counts = count_state_actions(data)
    state_counts = counts.sum(axis=2)
    n = len(data)
    empirical = counts / n

    n_d = horizon * num_states * num_actions
    n_vars = 2 * n_d  # occupancy entries, then their L1 slack partners

    def d_index(h: int, s: int, a: int) -> int:
        return (h * num_states + s) * num_actions + a

    eq_rows: list[np.ndarray] = []
    eq_rhs: list[float] = []

    # stage-0 occupancy: all mass on the initial state
    for s in range(num_states):
        row = np.zeros(n_vars)
        for a in range(num_actions):
            row[d_index(0, s, a)] = 1.0
        eq_rows.append(row)
        eq_rhs.append(1.0 if s == mdp.initial_state else 0.0)

    # flow conservation through the known transitions
    for h in range(1, horizon):
        for s in range(num_states):
            row = np.zeros(n_vars)
            for a in range(num_actions):
                row[d_index(h, s, a)] = 1.0
            for s_prev in range(num_states):
                for a_prev in range(num_actions):
                    p = mdp.transitions[h - 1, s_prev, a_prev, s]
                    if p > 0.0:
                        row[d_index(h - 1, s_prev, a_prev)] -= p
            eq_rows.append(row)
            eq_rhs.append(0.0)

    # pin the action split to the expert's empirical ratios where observed
    for h in range(horizon):
        for s in range(num_states):
            if state_counts[h, s] == 0:
                continue
            ratios = counts[h, s] / state_counts[h, s]
            for a in range(num_actions):
                row = np.zeros(n_vars)
                row[d_index(h, s, a)] = 1.0
                for a2 in range(num_actions):
                    row[d_index(h, s, a2)] -= ratios[a]
                eq_rows.append(row)
                eq_rhs.append(0.0)

    # |d - empirical| <= u, minimized
    a_le = np.zeros((2 * n_d, n_vars))
    b_le = np.zeros(2 * n_d)
    flat_emp = empirical.ravel()
    for j in range(n_d):
        a_le[2 * j, j] = 1.0
        a_le[2 * j, n_d + j] = -1.0
        b_le[2 * j] = flat_emp[j]
        a_le[2 * j + 1, j] = -1.0
        a_le[2 * j + 1, n_d + j] = -1.0
        b_le[2 * j + 1] = -flat_emp[j]

    c = np.zeros(n_vars)
    c[n_d:] = 1.0
    lp = LinearProgram(c=c, A_eq=np.array(eq_rows), b_eq=np.array(eq_rhs), A_le=a_le, b_le=b_le)
    sol = solve(lp)
    if sol.status != "optimal":
        raise LpError(f"occupancy-matching program reported {sol.status}")

    d = sol.x[:n_d].reshape(horizon, num_states, num_actions)
    table = normalize_rows(d, min_mass=1e-12)
    table = table / table.sum(axis=2, keepdims=True)
    return MarkovianPolicy(table)
