import hashlib

import numpy as np
import pytest

import rdmlab as rl
from rdmlab.policies import random_reward_augmented_policy
from rdmlab.serialize import (
    format_distribution,
    format_policy,
    mdp_from_json,
    mdp_to_json,
    parse_distribution,
    parse_policy,
)

from conftest import make_instance


def _pinned_policies():
    markov = rl.random_markovian_policy(3, 2, 4, np.random.default_rng(0))
    mdp, _ = make_instance(6, rho=0.5)
    gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.5, mdp.horizon))
    augmented = random_reward_augmented_policy(gr, np.random.default_rng(1))
    return {"markovian": markov, "reward-augmented": augmented, "fork": rl.make_fork_fixture()[1]}


# sha256 of each document, written before the policy writer became one row writer
POLICY_DOCUMENT_SHA256 = {
    "markovian": "c3a538b0ab2c02357d92e959c9142138bf35394e3a34df23fcd1ca638b2ded5c",
    "reward-augmented": "4bae4bdeb2b395367f7a65f999af4ea8a934c8d32f5b97f215755867f37292d3",
    "fork": "4c0cc3a67d8e31807d86e3131a57ddf08c55a3d2ebed2f5c0a72b1fe9a6f3d28",
}


class TestMdpDocuments:
    def test_round_trip_is_value_exact(self, tmp_path):
        mdp, _ = make_instance(4, rho=0.03)
        path = tmp_path / "mdp.json"
        path.write_text(mdp_to_json(mdp))
        loaded = mdp_from_json(path.read_text())
        assert np.array_equal(loaded.transitions, mdp.transitions)
        assert np.array_equal(loaded.reward, mdp.reward)
        assert loaded.initial_state == mdp.initial_state
        assert (loaded.num_states, loaded.num_actions, loaded.horizon) == (
            mdp.num_states, mdp.num_actions, mdp.horizon,
        )

    def test_decimal_fractions_survive(self):
        transitions = np.zeros((1, 2, 1, 2))
        transitions[0, :, 0, 0] = 0.1
        transitions[0, :, 0, 1] = 0.9
        reward = np.full((1, 2, 1), 0.3)
        mdp = rl.TabularMdp(0, transitions, reward)
        again = mdp_from_json(mdp_to_json(mdp))
        assert np.array_equal(again.transitions, mdp.transitions)
        assert np.array_equal(again.reward, mdp.reward)


class TestDistributionDumps:
    def test_point_mass_is_two_tokens(self):
        assert format_distribution(rl.DiscreteReturnDistribution.point_mass(1.0)) == "1 1\n"

    def test_round_trip(self):
        d = rl.DiscreteReturnDistribution.from_weighted(
            [0.1, 1.75, 3.0], [0.25, 0.5, 0.25]
        )
        again = parse_distribution(format_distribution(d))
        assert np.array_equal(again.support, d.support)
        assert np.array_equal(again.probs, d.probs)


class TestPolicyDocuments:
    def test_markovian_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pol = rl.random_markovian_policy(3, 2, 4, rng)
        path = tmp_path / "policy.txt"
        path.write_text(format_policy(pol))
        again = parse_policy(path.read_text())
        assert isinstance(again, rl.MarkovianPolicy)
        assert np.array_equal(again.table, pol.table)

    def test_reward_augmented_round_trip(self):
        mdp, _ = make_instance(6, rho=0.5)
        grid = rl.RewardGrid(0.5, mdp.horizon)
        gr = rl.discretize_reward(mdp.reward, grid)
        rng = np.random.default_rng(1)
        pol = random_reward_augmented_policy(gr, rng)
        again = parse_policy(format_policy(pol))
        assert isinstance(again, rl.RewardAugmentedPolicy)
        assert np.array_equal(again.table, pol.table)
        assert np.array_equal(again.reward.multiples, pol.reward.multiples)
        assert again.grid == pol.grid

    def test_document_rows_have_grid_multiples(self):
        mdp, _ = make_instance(6, rho=0.5)
        grid = rl.RewardGrid(0.5, mdp.horizon)
        gr = rl.discretize_reward(mdp.reward, grid)
        rng = np.random.default_rng(1)
        text = format_policy(random_reward_augmented_policy(gr, rng))
        lines = text.splitlines()
        start = lines.index("policy") + 1
        h, s, g = (int(tok) for tok in lines[start].split()[:3])
        assert (h, s, g) == (0, 0, 0)

    @pytest.mark.parametrize("name", sorted(POLICY_DOCUMENT_SHA256))
    def test_document_bytes_are_pinned(self, name):
        pol = _pinned_policies()[name]
        text = format_policy(pol)
        assert hashlib.sha256(text.encode()).hexdigest() == POLICY_DOCUMENT_SHA256[name]
        again = parse_policy(text)
        assert type(again) is type(pol)
        assert np.array_equal(again.table, pol.table)
        if isinstance(pol, rl.RewardAugmentedPolicy):
            assert np.array_equal(again.reward.multiples, pol.reward.multiples)
            assert again.grid == pol.grid

    def test_unknown_document_rejected(self):
        with pytest.raises(ValueError):
            parse_policy("nonsense\n")
