"""Hand-built MDPs with exactly known behavior, used as test oracles.

Two constructions live here: a four-state, horizon-3 MDP whose
non-Markovian expert, a reward-augmented table phi_h(a | s, g), has a
point-mass return distribution that no Markovian policy can approach closer
than Wasserstein 0.5, and a reward table assigning every (stage, state,
action) triple its own power of ten so that distinct trajectories always
have distinct returns (which makes total variation between return
distributions coincide with half the L1 distance between trajectory
distributions).
"""

from __future__ import annotations

import numpy as np

from .mdp import RewardGrid, TabularMdp, discretize_reward
from .policies import MarkovianPolicy, RewardAugmentedPolicy

__all__ = [
    "make_fork_fixture",
    "fork_markovian_policy",
    "make_tv_hard_reward",
    "TV_HARD_DIGIT_LIMIT",
]

#: Beyond this many decimal digits of span (H*S*A), double precision can no
#: longer keep every trajectory return exactly distinct.
TV_HARD_DIGIT_LIMIT = 15

_S_INIT, _S_UP, _S_DOWN, _S_MERGE = 0, 1, 2, 3


def make_fork_fixture() -> tuple[TabularMdp, RewardAugmentedPolicy]:
    """The 4-state, 2-action, horizon-3 MDP with its deterministic expert.

    From the initial state both actions earn 0 and move to s1 or s2 with
    probability 1/2 each; s1 pays 1 and s2 pays 0 on the way into the merge
    state; there, action 0 pays 0 and action 1 pays 1.  The expert plays
    action 0 everywhere except in the merge state after passing through s2,
    so its return is always exactly 1.  Any Markovian policy splits mass
    across returns {0, 1, 2} with the middle pinned at 1/2, which keeps its
    Wasserstein distance from the expert at exactly 0.5.

    The expert is a reward-augmented table on the unit grid (theta = 1).
    The only reward collected before the merge state is s1's 1, so there
    the cumulative grid reward g is 1 exactly when the path passed through
    s1 and 0 when it passed through s2: the table plays action 1 at
    (stage 2, merge, g = 0) and action 0 everywhere else, which is the
    history rule above, decision for decision.
    """
    num_states, num_actions, horizon = 4, 2, 3
    transitions = np.zeros((horizon, num_states, num_actions, num_states))
    # default: self-loops, so unreachable rows stay valid probability vectors
    for h in range(horizon):
        for s in range(num_states):
            transitions[h, s, :, s] = 1.0
    transitions[0, _S_INIT, :, :] = 0.0
    transitions[0, _S_INIT, :, _S_UP] = 0.5
    transitions[0, _S_INIT, :, _S_DOWN] = 0.5
    for s in (_S_UP, _S_DOWN):
        transitions[1, s, :, :] = 0.0
        transitions[1, s, :, _S_MERGE] = 1.0

    reward = np.zeros((horizon, num_states, num_actions))
    reward[1, _S_UP, :] = 1.0
    reward[2, _S_MERGE, 1] = 1.0

    mdp = TabularMdp(_S_INIT, transitions, reward)

    grid = RewardGrid(1.0, horizon)
    table = np.zeros((horizon, num_states, grid.table_size, num_actions))
    table[..., 0] = 1.0
    table[2, _S_MERGE, 0] = (0.0, 1.0)
    return mdp, RewardAugmentedPolicy(table, discretize_reward(reward, grid))


def fork_markovian_policy(alpha: float) -> MarkovianPolicy:
    """The Markovian family on the fixture: plays action 0 in the merge state
    with probability ``alpha`` (other decision points are irrelevant and play
    action 0).  Its return distribution is {0: a/2, 1: 1/2, 2: (1-a)/2}.
    """
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    table = np.zeros((3, 4, 2))
    table[:, :, 0] = 1.0
    table[2, _S_MERGE, 0] = alpha
    table[2, _S_MERGE, 1] = 1.0 - alpha
    return MarkovianPolicy(table)


def make_tv_hard_reward(num_states: int, num_actions: int, horizon: int) -> np.ndarray:
    """Reward table r_h(s, a) = 10^-((h+1)*S*A + s*A + a), every entry its own
    power of ten.

    Each stage occupies its own block of decimal digits, so the return of a
    trajectory is the indicator string of the (s, a) pairs it visited and
    distinct trajectories always earn distinct returns.  Requires
    H*S*A <= ``TV_HARD_DIGIT_LIMIT``: the digit span of a return equals
    H*S*A, and past double precision the indicator digits start rounding
    into each other (underflow itself only bites far later, near 10^-308).
    """
    span = horizon * num_states * num_actions
    if span > TV_HARD_DIGIT_LIMIT:
        raise ValueError(
            f"H*S*A = {span} exceeds {TV_HARD_DIGIT_LIMIT}; trajectory returns "
            "would stop being exactly distinct in double precision"
        )
    h = np.arange(1, horizon + 1)[:, None, None]
    s = np.arange(num_states)[None, :, None]
    a = np.arange(num_actions)[None, None, :]
    exponent = h * num_states * num_actions + s * num_actions + a
    return 10.0 ** (-exponent.astype(float))
