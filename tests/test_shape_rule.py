"""The one (H, S, A) rule: every table an entry point is handed lies on its
owner's (H, S, A), or the entry raises ``ValueError`` with the rule's message.

Before the rule was one function, several of these cases returned a result
read at the wrong flat index or ended in a raw numpy error.  Policies of
another (H, S, A) are in ``test_policies.test_policy_horizon_must_match_the_mdp``.
"""

import re

import numpy as np
import pytest

import rdmlab as rl
from rdmlab.baselines import mimic_md_from_counts
from rdmlab.policies import exact_augmented_occupancy
from rdmlab.rskt import rs_kt_from_counts
from rdmlab.rsbc import count_occurrences, eta_hat_from_counts, rs_bc_from_counts

from conftest import make_instance

#: The instance's (H, S, A).
_DIMS = (4, 3, 2)

#: A table of another horizon, another S and another A than ``_DIMS``.
_FOREIGN = {"horizon": (5, 3, 2), "states": (4, 4, 2), "actions": (4, 3, 3)}


@pytest.fixture(scope="module")
def case():
    """The instance, a Markovian policy, its dataset and its counts on the 0.25 grid."""
    mdp, _ = make_instance(3)
    assert mdp.reward.shape == _DIMS
    policy = rl.random_markovian_policy(3, 2, 4, np.random.default_rng(1))
    data = rl.sample_trajectories(mdp, policy, 20, seed=2)
    reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, mdp.horizon))
    return mdp, policy, data, reward, count_occurrences(data, reward)


def _table_policy(reward):
    """A uniform reward-augmented table on the instance's (H, S, A) over ``reward``'s grid."""
    horizon, num_states, num_actions = _DIMS
    table = np.full((horizon, num_states, reward.grid.table_size, num_actions), 1 / num_actions)
    return rl.RewardAugmentedPolicy(table, reward)


#: Every entry handed a reward, as (case, raw table, grid reward) -> result,
#: and the owner its message names.
_REWARD_ENTRIES = {
    "sample_counts": (lambda c, raw, gr: rl.sample_counts(c[0], c[1], 10, 0, gr), "the MDP"),
    "mc_return_distribution": (
        lambda c, raw, gr: rl.mc_return_distribution(c[0], c[1], raw, 10, 0), "the MDP"
    ),
    "exact_return_distribution": (
        lambda c, raw, gr: rl.exact_return_distribution(c[0], c[1], raw, gr.grid), "the MDP"
    ),
    "exact_augmented_occupancy": (
        lambda c, raw, gr: exact_augmented_occupancy(c[0], c[1], gr), "the MDP"
    ),
    "brute_force_return_distribution": (
        lambda c, raw, gr: rl.brute_force_return_distribution(c[0], c[1], raw), "the MDP"
    ),
    "build_augmented_mdp": (
        lambda c, raw, gr: rl.build_augmented_mdp(c[0], gr.grid, gr), "the MDP"
    ),
    # a table policy on a foreign reward was sampled and evaluated at the wrong flat index
    "RewardAugmentedPolicy": (lambda c, raw, gr: _table_policy(gr), "the table"),
    "count_occurrences": (lambda c, raw, gr: count_occurrences(c[2], gr), "the dataset"),
    "empirical_return_distribution-raw": (
        lambda c, raw, gr: rl.empirical_return_distribution(c[2], raw), "the dataset"
    ),
    "empirical_return_distribution-grid": (
        lambda c, raw, gr: rl.empirical_return_distribution(c[2], raw, gr.grid), "the dataset"
    ),
    "rs_bc": (lambda c, raw, gr: rl.rs_bc(c[2], raw, gr.grid), "the dataset"),
    "construct_pi_r": (
        lambda c, raw, gr: rl.construct_pi_r(c[0], c[1], raw, gr.grid), "the dataset"
    ),
    "eta_hat_from_counts": (lambda c, raw, gr: eta_hat_from_counts(c[4], gr), "the count table"),
    "rs_bc_from_counts": (lambda c, raw, gr: rs_bc_from_counts(c[4], gr), "the table"),
    "rs_kt_from_counts": (
        lambda c, raw, gr: rs_kt_from_counts(c[4], c[0], gr), "the count table"
    ),
}


def _fault(what, shape, owner, want=_DIMS):
    """The rule's message for a ``what`` table of ``shape`` against ``owner``'s ``want``."""
    if shape[0] != want[0]:
        return f"{what} horizon does not match {owner}"
    return f"{what} states and actions {shape[1:]} do not match {owner}'s {want[1:]}"


@pytest.mark.parametrize("other", list(_FOREIGN))
@pytest.mark.parametrize("entry", list(_REWARD_ENTRIES))
def test_a_reward_of_another_shape_is_refused(case, entry, other):
    shape = _FOREIGN[other]
    raw = np.zeros(shape)
    foreign = rl.GridReward(rl.RewardGrid(0.25, shape[0]), np.zeros(shape, dtype=np.int64))
    call, owner = _REWARD_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(_fault('reward', shape, owner))}$"):
        call(case, raw, foreign)


@pytest.mark.parametrize("other", list(_FOREIGN))
def test_counts_of_another_shape_are_refused_by_mimic_md(case, other):
    shape = _FOREIGN[other]
    with pytest.raises(ValueError, match=f"^{re.escape(_fault('counts', shape, 'the MDP'))}$"):
        mimic_md_from_counts(np.ones(shape), case[0])


#: The count readers, as (case, counts) -> result, and the message each
#: gives for counts of swapped (S, A).
_SWAPPED = (4, 2, 3)
_SWAPPED_ENTRIES = {
    "eta_hat_from_counts": (
        lambda c, m: eta_hat_from_counts(m, c[3]),
        _fault("reward", _DIMS, "the count table", _SWAPPED),
    ),
    "rs_bc_from_counts": (
        lambda c, m: rs_bc_from_counts(m, c[3]), _fault("reward", _DIMS, "the table", _SWAPPED)
    ),
    "rs_kt_from_counts": (
        lambda c, m: rs_kt_from_counts(m, c[0], c[3]),
        _fault("reward", _DIMS, "the count table", _SWAPPED),
    ),
    "mimic_md_from_counts": (
        lambda c, m: mimic_md_from_counts(m.sum(axis=2), c[0]),
        _fault("counts", _SWAPPED, "the MDP"),
    ),
}


@pytest.mark.parametrize("entry", list(_SWAPPED_ENTRIES))
def test_counts_of_swapped_states_and_actions_are_refused(case, entry):
    """M[h, s, g, a] laid out as M[h, a, g, s] holds as many cells when S and
    A trade places; the rule still refuses it."""
    swapped = case[4].transpose(0, 3, 2, 1)
    call, fault = _SWAPPED_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        call(case, swapped)

