import hashlib
import re
import tracemalloc

import numpy as np
import pytest

import rdmlab as rl
from rdmlab import policies as policies_mod
from rdmlab.bench import generate_instance
from rdmlab.baselines import count_state_actions, mimic_md_from_counts
from rdmlab.distributions import ATOM_MERGE_TOL
from rdmlab.mdp import PROB_TOL, _push_stage
from rdmlab.policies import (
    EnumerationCapError,
    exact_augmented_occupancy,
    random_parametric_policy,
    random_reward_augmented_policy,
)
from rdmlab.rsbc import count_occurrences

from conftest import KNOWN_BAD_PIVOT_CFG, make_instance


class TestSampling:
    def test_seed_reproducibility(self):
        mdp, expert = make_instance(3, expert_kind="parametric-history")
        d1 = rl.sample_trajectories(mdp, expert, 64, seed=9)
        d2 = rl.sample_trajectories(mdp, expert, 64, seed=9)
        assert np.array_equal(d1.states, d2.states)
        assert np.array_equal(d1.actions, d2.actions)
        d3 = rl.sample_trajectories(mdp, expert, 64, seed=10)
        assert not np.array_equal(d1.actions, d3.actions) or not np.array_equal(
            d1.states, d3.states
        )

    def test_deterministic_setting_yields_identical_trajectories(self):
        horizon, num_states = 3, 3
        transitions = np.zeros((horizon, num_states, 1, num_states))
        for h in range(horizon):
            for s in range(num_states):
                transitions[h, s, 0, (s + 1) % num_states] = 1.0
        mdp = rl.TabularMdp(0, transitions, np.zeros((horizon, num_states, 1)))
        policy = rl.MarkovianPolicy(np.ones((horizon, num_states, 1)))
        data = rl.sample_trajectories(mdp, policy, 16, seed=0)
        assert (data.states == data.states[0]).all()

    # sha256 of (states, actions), drawn by the group walk, whose law
    # ``TestGroupWalkLaw`` checks: a change to the sampling stream shows here.
    PINNED_DRAWS = {
        "markovian": (
            "f93c808742a3b12d729886011a10dd6deea9094c85faddad0200ee45888df096",
            "64ea4c552d418e0dc96c057ce2721f9499c1def84081c9d53ed04d7e02367cc1",
        ),
        "reward-augmented": (
            "8fe625c22fe4a9eb06c5dd78c1e4b08f52a43ae585ddc8e782132f2451dab143",
            "a70d4d0d1cb522f12699b677cb668c69bafa535de3c8d7ffbcfa472f03120bd0",
        ),
        "parametric": (
            "e9a4cfb402be33dac34caf99f5e107404962a9fbb2f5017cbc7c2586d5a857fc",
            "b9ffa5c2a6af777f5b2f4fcbc999b0a3a5e14b22a64c76a169e60dfbbda24ffa",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED_DRAWS))
    def test_draws_match_pinned_digests(self, kind):
        mdp, _ = make_instance(7, num_states=4, num_actions=3, horizon=4)
        rng = np.random.default_rng(2024)
        grid = rl.RewardGrid(0.25, mdp.horizon)
        policies = {
            "markovian": rl.random_markovian_policy(4, 3, 4, rng),
            "reward-augmented": random_reward_augmented_policy(
                rl.discretize_reward(mdp.reward, grid), 4, rng
            ),
            "parametric": random_parametric_policy(4, 3, 4, rng),
        }
        data = rl.sample_trajectories(mdp, policies[kind], 500, seed=11)
        digests = tuple(
            hashlib.sha256(np.ascontiguousarray(x, dtype="<i8").tobytes()).hexdigest()
            for x in (data.states, data.actions)
        )
        assert digests == self.PINNED_DRAWS[kind]

    # sha256 of (states, actions) of the group walk at the sizes the flat-table
    # draw kernel and the prefix-shared expert logits serve: wide transition
    # rows, a long horizon, and more live prefixes than one logit block.
    PINNED_DRAWS_AT_SCALE = {
        "markovian": (
            "c14badd460324781a497c68d8ce45c1212d20ef6839a187c22be7a78969467ad",
            "9a459d5700e1f095c2d656ed567e51a6c1f4dbc515b67a5870ef76667f7df198",
        ),
        "parametric": (
            "218a1bad0b6a60db3dd5d9ff77fdb3b7402d051789180200579f3f7ade1cf541",
            "254241c58327f624e54d2e0d8b48151884e769a96473f69e7691851f2e6efb6c",
        ),
        "parametric-h8": (
            "43995221d6ec1e100d9cceeab75f88cdda938431615e8dfdfab07804fe207900",
            "58e4ad5a9955f788ea684bec3700094f33f25eca7e1fcb07038d15d08a3da393",
        ),
        "parametric-wide": (
            "130bcb936941a7060e6b779f4c5dc6b35fef4f07c00db0a9b37fc3cb0c9c2e11",
            "77cdebcacc7a040f8b577e032216bef1d0c1e880ed008160f31e9f87dab36b36",
        ),
        "reward-augmented": (
            "6673c4a938c9828a7568aa55f93443ee3d625c5d991750e61a8209bca827e057",
            "6f2dc6e2f30b4b780d3d326c972dfdf932c34eb53a8d7b2a456b4225f0993672",
        ),
    }

    @staticmethod
    def _scale_case(kind):
        rng = np.random.default_rng(2025)
        if kind == "markovian":
            mdp, _ = make_instance(13, num_states=20, num_actions=5, horizon=5)
            return mdp, rl.random_markovian_policy(20, 5, 5, rng), 300_000
        if kind == "parametric":
            mdp, _ = make_instance(13, num_states=50, num_actions=5, horizon=5)
            return mdp, random_parametric_policy(50, 5, 5, rng), 2 * 4096 + 7
        if kind == "parametric-h8":
            mdp, _ = make_instance(13, num_states=5, num_actions=3, horizon=8)
            return mdp, random_parametric_policy(5, 3, 8, rng), 30_000
        if kind == "parametric-wide":
            # over 2 * _ROW_BLOCK distinct prefixes at the last stage: full
            # prefix blocks and a ragged one
            mdp, _ = make_instance(13, num_states=100, num_actions=5, horizon=5)
            return mdp, random_parametric_policy(100, 5, 5, rng), 200_000
        mdp, _ = make_instance(7, num_states=4, num_actions=3, horizon=4)
        gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, mdp.horizon))
        return mdp, random_reward_augmented_policy(gr, 4, rng), 50_000

    @pytest.mark.parametrize("kind", sorted(PINNED_DRAWS_AT_SCALE))
    def test_draws_match_pinned_digests_at_scale(self, kind):
        mdp, policy, n = self._scale_case(kind)
        data = rl.sample_trajectories(mdp, policy, n, seed=11)
        if kind == "reward-augmented":
            steps = policy.reward.multiples[np.arange(mdp.horizon), data.states, data.actions]
            assert np.cumsum(steps, axis=1)[:, :-1].max() > 0  # rows with g > 0 were drawn
        if kind == "parametric-wide":
            last = np.column_stack([data.states, data.actions[:, :-1]])
            assert np.unique(last, axis=0).shape[0] > 2 * policies_mod._ROW_BLOCK
        digests = tuple(
            hashlib.sha256(np.ascontiguousarray(x, dtype="<i8").tobytes()).hexdigest()
            for x in (data.states, data.actions)
        )
        assert digests == self.PINNED_DRAWS_AT_SCALE[kind]

    def test_fork_expert_within_dkw_band(self):
        mdp, expert = rl.make_fork_fixture()
        data = rl.sample_trajectories(mdp, expert, 4000, seed=21)
        d = rl.empirical_return_distribution(data, mdp.reward)
        band = mdp.horizon * rl.dkw_band(4000, 0.01)
        assert rl.wasserstein(d, rl.DiscreteReturnDistribution.point_mass(1.0)) <= band

    def test_parametric_cdf_rows_match_act_parametric(self, monkeypatch):
        """Every stage's expert CDF rows against ``act`` on each prefix's history."""
        mdp, _ = make_instance(5, num_states=4, num_actions=3, horizon=4)
        policy = random_parametric_policy(4, 3, 4, np.random.default_rng(8))
        tables = []
        real_prefix_cdf = policies_mod._prefix_cdf

        def spy(pol, state, features):
            tables.append(real_prefix_cdf(pol, state, features))
            return tables[-1]

        monkeypatch.setattr(policies_mod, "_prefix_cdf", spy)
        data = rl.sample_trajectories(mdp, policy, 300, seed=4)
        assert len(tables) == mdp.horizon
        for h, table in enumerate(tables):
            # one row per distinct prefix (s_0, a_0, ..., s_h), in trie order
            encoded = np.empty((len(data), 2 * h + 1), dtype=np.int64)
            encoded[:, ::2] = data.states[:, : h + 1]
            encoded[:, 1::2] = data.actions[:, :h]
            prefixes = np.unique(encoded, axis=0)
            assert table.shape == (prefixes.shape[0], 3)
            for prefix, got in zip(prefixes, table):
                history = list(zip(prefix[:-1:2], prefix[1::2]))
                want = np.cumsum(policy.act(h, prefix[-1], history))
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class _StubRng:
    """Stands in for a bit generator: ``random_raw(n)`` returns 64-bit outputs
    that ``Generator.random`` turns into the chosen uniforms, which must lie on
    its 2**-53 lattice.  Their low 11 bits, which that double drops, are set."""

    def __init__(self, values):
        steps = np.asarray(values, dtype=float) * 2.0**53
        assert (steps == np.floor(steps)).all() and (steps < 2.0**53).all()
        self.raw = (steps.astype(np.uint64) << np.uint64(11)) | np.uint64(0x7FF)

    def random_raw(self, n):
        assert n == self.raw.size
        return self.raw


class TestDrawKernel:
    """``_draw`` against ``min((row < u).sum(), width - 1)`` on hand-picked rows."""

    @staticmethod
    def _rows(width, rng):
        rows = [rng.dirichlet(np.ones(width))]
        rows += [np.eye(width)[k] for k in range(width)]  # one-hot
        plateau = np.zeros(width)  # zero plateaus between live entries
        plateau[[0, width // 2, width - 1]] = [0.25, 0.5, 0.25]
        rows.append(plateau / plateau.sum())
        return np.array(rows)

    @staticmethod
    def _uniforms(cdf):
        """The uniforms ``Generator.random`` can return (the 2**-53 lattice) just
        below, at and just above every row value (``<`` is strict), and 0, one
        half and the top uniform."""
        steps = np.floor(cdf * 2.0**53)
        picks = np.concatenate([[0.0, 2.0**52, 2.0**53 - 1], steps - 1, steps, steps + 1])
        return np.unique(picks[(picks >= 0) & (picks < 2.0**53)]) * 2.0**-53

    def _check(self, flat_cdf, width):
        """Every row of ``flat_cdf`` against every boundary uniform."""
        rows = flat_cdf.reshape(-1, width)
        index, us = [], []
        for r, cdf in enumerate(rows):
            u = self._uniforms(cdf)
            index.append(np.full(u.size, r))
            us.append(u)
        index, u = np.concatenate(index), np.concatenate(us)
        want = np.minimum((rows[index] < u[:, None]).sum(axis=1), width - 1)
        got = policies_mod._draw(_StubRng(u), rows, index)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        return index, u, got

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 20, 50])
    def test_matches_strict_count_with_clamp(self, width):
        probs = self._rows(width, np.random.default_rng(width))
        table = policies_mod._cdf_table(probs)
        assert np.array_equal(table, np.cumsum(probs, axis=-1))  # bit for bit
        self._check(table.ravel(), width)

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 20, 50])
    def test_raw_outputs_draw_like_generator_random(self, width):
        """``_draw`` on ``PCG64(s).random_raw(k)`` against the strict count with
        clamp on ``Generator(PCG64(s)).random(k)``: the equality that keeps
        every sampled row what it was on doubles."""
        rows = policies_mod._cdf_table(self._rows(width, np.random.default_rng(width)))
        k = 4096
        index = np.random.default_rng(width + 100).integers(0, rows.shape[0], k)
        for seed in range(3):
            u = np.random.Generator(np.random.PCG64(seed)).random(k)
            want = np.minimum((rows[index] < u[:, None]).sum(axis=1), width - 1)
            got = policies_mod._draw(np.random.PCG64(seed), rows, index)
            assert np.array_equal(got, want), seed

    @pytest.mark.parametrize("width", [2, 3, 5, 8, 20, 50])
    def test_last_entry_below_one_is_clamped(self, width):
        cdf = np.cumsum(np.full(width, 1.0 / width))
        cdf[-1] = 1.0 - 2.0**-52  # one round-off below 1
        index, u, got = self._check(cdf, width)
        assert (got[u > cdf[-1]] == width - 1).all()

    @pytest.mark.parametrize("width", [2, 8, 20])
    def test_last_entries_above_one(self, width):
        """Entries of ``1 + 1e-9`` (the row check admits them) lie above every uniform."""
        cdf = np.cumsum(np.full(width, 1.0 / width))
        cdf[-1] = 1.0 + 1e-9
        self._check(cdf, width)
        cdf[width // 2 :] = 1.0 + 1e-9  # also inside the searched entries
        self._check(cdf, width)

    @pytest.mark.parametrize("width", [2, 8, 20])
    def test_one_hot_rows_at_zero_uniform(self, width):
        """``u = 0.0`` counts no entry below it, so it draws 0 even on a zero-mass action."""
        table = policies_mod._cdf_table(np.eye(width))
        got = policies_mod._draw(_StubRng(np.zeros(width)), table, np.arange(width))
        assert (got == 0).all()

    def test_negative_entry_draws_like_its_clipped_row(self):
        row = np.array([0.5, -1e-12, 0.5 + 1e-12])
        clipped = np.maximum(row, 0.0)
        table = policies_mod._cdf_table(row)
        assert table.shape == (1, 3) and np.array_equal(table[0], np.cumsum(clipped))
        self._check(table.ravel(), 3)
        # unclipped, the dip would count entry 1 below u and draw its zero-mass action
        u = np.floor((0.5 - 0.5e-12) * 2.0**53) * 2.0**-53
        assert (np.cumsum(row) < u).sum() == 1
        assert policies_mod._draw(_StubRng([u]), table, np.zeros(1, np.int64))[0] == 0

    def test_sampler_clips_admitted_negative_entries(self):
        mdp, _ = make_instance(7, num_states=4, num_actions=3, horizon=4)
        table = np.random.default_rng(5).dirichlet(np.ones(3), size=(4, 4))
        table[:, :, 2] += table[:, :, 1] + 1e-12
        table[:, :, 1] = -1e-12  # admitted by the row check
        shaved = rl.MarkovianPolicy(table)
        clipped = rl.MarkovianPolicy(np.maximum(table, 0.0))
        a = rl.sample_trajectories(mdp, shaved, 2000, seed=3)
        b = rl.sample_trajectories(mdp, clipped, 2000, seed=3)
        assert np.array_equal(a.states, b.states) and np.array_equal(a.actions, b.actions)
        assert (a.actions != 1).all()


class TestRowCheck:
    """Both table kinds reject action rows with non-finite entries."""

    @staticmethod
    def _tables(bad):
        markov = np.full((2, 3, 2), 0.5)
        markov[1, 2] = bad
        mdp, _ = make_instance(3, horizon=2)
        gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, 2))
        augmented = np.full((2, 3, gr.grid.num_multiples(1), 2), 0.5)
        augmented[0, 1, -1] = bad
        return [
            lambda: rl.MarkovianPolicy(markov),
            lambda: rl.RewardAugmentedPolicy(table=augmented, reward=gr),
        ]

    @pytest.mark.parametrize("kind", [0, 1], ids=["markovian", "reward-augmented"])
    @pytest.mark.parametrize(
        "bad", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf], [1.0, np.inf]]
    )
    def test_rejects_non_finite_rows(self, kind, bad):
        with pytest.raises(ValueError, match="probability vectors"):
            self._tables(bad)[kind]()

    @pytest.mark.parametrize("kind", [0, 1], ids=["markovian", "reward-augmented"])
    def test_accepts_probability_rows(self, kind):
        self._tables([0.25, 0.75])[kind]()


class TestRenumber:
    """``_renumber`` against ``np.unique(key, return_inverse=True)``, on both
    sides of the presence map's size rule."""

    @pytest.mark.parametrize("rows, space, distinct", [
        (1, 1, 1), (7, 3, 3), (1000, 1024, 1024), (10_000, 1024, 40),
        (1000, 2000, 2000), (1000, 2001, 2001), (1000, 250_000, 300),
    ])
    def test_matches_np_unique(self, rows, space, distinct):
        rng = np.random.default_rng(rows + space)
        key = rng.choice(space, distinct, replace=False)[rng.integers(0, distinct, rows)]
        got = policies_mod._renumber(key, space)
        want = np.unique(key, return_inverse=True)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def _sampling_case(kind, rho=0.25):
    """(mdp, policy, rho): a (4,3,4) instance with a reward on the rho grid
    and a policy of ``kind``, or the fork fixture (0/1 rewards, rho 0.5)."""
    if kind == "fork":
        mdp, expert = rl.make_fork_fixture()
        return mdp, expert, 0.5
    mdp, _ = make_instance(7, num_states=4, num_actions=3, horizon=4, rho=rho)
    rng = np.random.default_rng(12)
    if kind == "markovian":
        policy = rl.random_markovian_policy(4, 3, 4, rng)
    elif kind == "reward-augmented":
        policy_reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(rho, 4))
        policy = random_reward_augmented_policy(policy_reward, 4, rng)
    else:
        policy = random_parametric_policy(4, 3, 4, rng)
    return mdp, policy, rho


class TestSampleCounts:
    """``sample_counts`` against ``count_occurrences`` of the sampled dataset."""

    @staticmethod
    def _assert_counts_match(mdp, policy, n, seed, reward):
        got = rl.sample_counts(mdp, policy, n, seed, reward)
        want = count_occurrences(rl.sample_trajectories(mdp, policy, n, seed), reward)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert (got.sum(axis=(1, 2, 3)) == n).all()

    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize(
        "kind, coarsen",  # theta = rho, theta = 2 rho
        [("markovian", 1), ("reward-augmented", 1), ("parametric", 1), ("parametric", 2),
         ("fork", 1), ("fork", 2)],
        ids=["markovian-1", "reward-augmented-1", "parametric-1", "parametric-2",
             "fork-1", "fork-2"],
    )
    def test_equals_count_of_sampled_dataset(self, kind, coarsen, n):
        """Exact wherever the counted g splits no group: on every grid for the
        parametric expert, whose groups are its prefixes, and for a table
        policy on the reward's own step (the fork's 0/1 rewards on both).  A
        table policy on a coarser grid draws the same law (``TestGroupWalkLaw``)."""
        mdp, policy, rho = _sampling_case(kind)
        reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(coarsen * rho, mdp.horizon))
        self._assert_counts_match(mdp, policy, n, 5, reward)

    def test_equals_count_of_sampled_dataset_at_bulk_scale(self):
        mdp, expert = make_instance(3, num_states=20, num_actions=5, horizon=5, rho=0.02)
        assert isinstance(expert, rl.MarkovianPolicy)
        reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.02, mdp.horizon))
        self._assert_counts_match(mdp, expert, 300_000, 11, reward)

    @staticmethod
    def _peak(mdp, policy, n, reward):
        tracemalloc.start()
        try:
            rl.sample_counts(mdp, policy, n, 11, reward)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_n(self):
        """A bulk-sized call (n = 3e5) of the group walk peaks less than 1 MB
        above an n = 3e4 call: the walk holds M and one stage's groups, never n rows."""
        mdp, expert = make_instance(3, num_states=20, num_actions=5, horizon=5, rho=0.02)
        assert isinstance(expert, rl.MarkovianPolicy)
        reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.02, mdp.horizon))
        assert self._peak(mdp, expert, 300_000, reward) - self._peak(
            mdp, expert, 30_000, reward
        ) < 2**20

    def test_parametric_peak_memory_does_not_grow_with_n(self):
        """The parametric expert on a desk-shaped instance at n = 3e5 peaks less
        than 1 MB above an n = 3e4 call: the walk holds M and one stage's live
        history prefixes, at most (S*A)^H = 1,024 there, never n rows."""
        mdp, expert = generate_instance(rl.ExperimentConfig(**KNOWN_BAD_PIVOT_CFG), 0)
        reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.05, mdp.horizon))
        assert (mdp.num_states * mdp.num_actions) ** mdp.horizon == 1024
        assert self._peak(mdp, expert, 300_000, reward) - self._peak(
            mdp, expert, 30_000, reward
        ) < 2**20

    @pytest.mark.parametrize("shape", ["desk", "scale"])
    @pytest.mark.parametrize("seed", range(3))
    def test_parametric_counts_equal_count_of_sampled_dataset(self, shape, seed):
        """On the benchmark's desk (2,2,5) and scale (50,5,5) shapes, at
        theta = 0.05 and rho = 0.03 and their sample sizes, the counts are
        ``count_occurrences`` of the dataset exactly: the parametric expert's
        groups are its prefixes whatever g is."""
        wide = {} if shape == "desk" else dict(num_states=50, num_actions=5)
        cfg = rl.ExperimentConfig(**{**KNOWN_BAD_PIVOT_CFG, **wide})
        mdp, expert = generate_instance(cfg, seed)
        assert isinstance(expert, rl.ParametricHistoryPolicy) and cfg.theta != cfg.rho
        reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(cfg.theta, mdp.horizon))
        self._assert_counts_match(mdp, expert, 10_000 if shape == "desk" else 1000, seed, reward)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_an_empty_sample(self, n):
        mdp, policy, rho = _sampling_case("markovian")
        reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(rho, mdp.horizon))
        with pytest.raises(ValueError):
            rl.sample_trajectories(mdp, policy, n, 1)
        with pytest.raises(ValueError):
            rl.sample_counts(mdp, policy, n, 1, reward)

    def test_rejects_a_reward_of_another_horizon(self):
        mdp, policy, rho = _sampling_case("markovian")
        short = rl.GridReward(rl.RewardGrid(rho, mdp.horizon - 1),
                              np.zeros((mdp.horizon - 1, mdp.num_states, mdp.num_actions)))
        data = rl.sample_trajectories(mdp, policy, 10, 1)
        with pytest.raises(ValueError, match="horizon"):
            count_occurrences(data, short)
        with pytest.raises(ValueError, match="horizon"):
            rl.sample_counts(mdp, policy, 10, 1, short)

    def test_rejects_a_reward_of_another_shape(self):
        """A reward table over other states or actions is refused, never misread."""
        mdp, policy, rho = _sampling_case("markovian")
        wide = rl.GridReward(rl.RewardGrid(rho, mdp.horizon),
                             np.zeros((mdp.horizon, mdp.num_states, mdp.num_actions + 1)))
        with pytest.raises(ValueError, match="states and actions"):
            rl.sample_counts(mdp, policy, 10, 1, wide)


class TestGroupWalkLaw:
    """The group walk that samples every policy kind, against the exact oracles.

    No pinned stream vouches for its law: the visit counts must have the
    occupancy as their mean, and the rows of ``sample_trajectories`` the
    enumerated trajectory law, i.i.d."""

    @pytest.mark.parametrize("coarsen", [1, 2])  # theta = rho, theta = 2 rho
    @pytest.mark.parametrize("kind", ["markovian", "reward-augmented", "parametric"])
    def test_mean_counts_match_the_occupancy(self, kind, coarsen):
        """M / N within 5 binomial sigmas (and one count) of the occupancy in
        every live cell, and no count where it is 0: ``exact_augmented_occupancy``
        for a table policy, the enumerated trajectories' counts weighted by
        their probabilities for the parametric expert.  On the coarser grid g
        is no function of the raw return, so g splits a table policy's groups."""
        mdp, policy, rho = _sampling_case(kind)
        reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(coarsen * rho, mdp.horizon))
        if kind == "parametric":
            paths, probs = rl.enumerate_trajectory_distribution(mdp, policy)
            occupancy = count_occurrences(paths, reward, weights=probs)
        else:
            occupancy = exact_augmented_occupancy(mdp, policy, reward)
        n = 10**6
        freq = rl.sample_counts(mdp, policy, n, 3, reward) / n
        assert not freq[occupancy == 0].any()
        sigma = np.sqrt(occupancy * (1 - occupancy) / n)
        assert (np.abs(freq - occupancy) <= 5 * sigma + 1 / n).all()

    @pytest.mark.parametrize("kind", ["markovian", "reward-augmented", "parametric"])
    def test_trajectory_frequencies_match_enumeration(self, kind):
        """Each full trajectory's frequency in 2e5 rows within 5 sigmas of its
        enumerated probability (the rare ones, under 10 expected rows each,
        pooled).  A table policy's walk merges histories with different pasts
        here: rows that share a group must draw their futures independently of
        how they got there.  The parametric expert's walk merges none."""
        mdp, policy, _ = _sampling_case(kind)
        n = 200_000
        merged = [
            np.unique(stage.child_group).size < stage.child_group.size
            for stage in policies_mod._group_walk(mdp, policy, n, 5, mdp.reward)
            if stage.child_group is not None
        ]
        assert any(merged) == (kind != "parametric")
        paths, probs = rl.enumerate_trajectory_distribution(mdp, policy)
        data = rl.sample_trajectories(mdp, policy, n, 5)

        def codes(d):
            steps = d.states * mdp.num_actions + d.actions
            return steps @ (mdp.num_states * mdp.num_actions) ** np.arange(mdp.horizon)

        known = codes(paths)
        drawn, counts = np.unique(codes(data), return_counts=True)
        assert np.isin(drawn, known).all()
        order = np.argsort(known)
        freq = np.zeros(known.size)
        freq[order[np.searchsorted(known, drawn, sorter=order)]] = counts / n
        rare = probs * n < 10
        cells = [(freq[~rare], probs[~rare]), (freq[rare].sum(), probs[rare].sum())]
        for f, p in cells:
            assert (np.abs(f - p) <= 5 * np.sqrt(p * (1 - p) / n)).all()

    @pytest.mark.parametrize("kind", ["markovian", "reward-augmented", "parametric"])
    def test_first_rows_draw_like_the_rest(self, kind):
        """The first tenth of the rows has the action law of the other rows at
        every stage: the rows come in no order of their draws."""
        mdp, policy, _ = _sampling_case(kind)
        n = 100_000
        data = rl.sample_trajectories(mdp, policy, n, 8)
        head, tail = data.actions[: n // 10], data.actions[n // 10 :]
        for h in range(mdp.horizon):
            p = np.bincount(data.actions[:, h], minlength=mdp.num_actions) / n
            sigma = np.sqrt(p * (1 - p) * (1 / head.shape[0] + 1 / tail.shape[0]))
            gap = (np.bincount(head[:, h], minlength=mdp.num_actions) / head.shape[0]
                   - np.bincount(tail[:, h], minlength=mdp.num_actions) / tail.shape[0])
            assert (np.abs(gap) <= 5 * sigma).all(), h

    @pytest.mark.parametrize("kind", ["markovian", "reward-augmented", "parametric", "fork"])
    def test_split_chunks_draw_like_one_pass(self, monkeypatch, kind):
        """``_split`` in chunks of a few members or multinomial cells draws what
        one pass draws: datasets, counts and Monte Carlo returns are the same
        whatever ``_SPLIT_BLOCK`` is.  At n = 1000 the walk splits counts both
        by multinomials and by per-member draws."""
        mdp, policy, rho = _sampling_case(kind)
        reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(rho, mdp.horizon))

        def draw(block, n):
            monkeypatch.setattr(policies_mod, "_SPLIT_BLOCK", block)
            data = rl.sample_trajectories(mdp, policy, n, 5)
            mc = rl.mc_return_distribution(mdp, policy, mdp.reward, n, 2)
            counts = rl.sample_counts(mdp, policy, n, 5, reward)
            return data.states, data.actions, counts, mc.support, mc.probs

        for n in (7, 1000):
            want = draw(10**9, n)
            for block in (1, 7, 100):
                for got, ref in zip(draw(block, n), want):
                    assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestActParametric:
    def test_zero_weights_give_uniform(self):
        pol = rl.ParametricHistoryPolicy(np.zeros((6, 16)), np.zeros((2, 16, 3)))
        probs = pol.act(1, 1, [(0, 1)])
        assert probs == pytest.approx(np.full(3, 1 / 3))

    def test_equal_encodings_equal_outputs(self, rng):
        pol = random_parametric_policy(3, 2, 3, rng)
        a = pol.act(2, 1, [(2, 1), (0, 0)])
        b = pol.act(2, 1, [(2, 1), (0, 0)])
        assert np.array_equal(a, b)
        c = pol.act(2, 1, [(2, 1), (1, 0)])
        assert not np.array_equal(a, c)

    def test_distribution_is_valid(self, rng):
        pol = random_parametric_policy(4, 3, 4, rng)
        probs = pol.act(3, 0, [(3, 2), (1, 0), (2, 1)])
        assert probs.sum() == pytest.approx(1.0)
        assert (probs > 0).all()


def _record_prefixes(monkeypatch):
    """Spy on ``_prefix_cdf``: the (state, features) of every stage's prefixes, in call order."""
    calls = []
    real = policies_mod._prefix_cdf

    def spy(pol, state, features):
        calls.append((state.copy(), features.copy()))
        return real(pol, state, features)

    monkeypatch.setattr(policies_mod, "_prefix_cdf", spy)
    return calls


class TestCarriedFeatures:
    """Prefixes carry projected features; each must be its history encoding's projection."""

    def test_stage_walk(self, monkeypatch):
        mdp, expert = make_instance(41, num_states=4, num_actions=3, horizon=5,
                                    expert_kind="parametric-history")
        calls = _record_prefixes(monkeypatch)
        data = rl.sample_trajectories(mdp, expert, 3000, seed=8)
        assert len(calls) == mdp.horizon
        for h, (state, features) in enumerate(calls):
            # prefix ids follow the trie order, lexicographic in (a_0, s_1, ..., s_h)
            encoded = np.zeros((len(data), 2 * mdp.horizon + 1))
            encoded[:, 0 : 2 * h : 2] = data.states[:, :h]
            encoded[:, 1 : 2 * h : 2] = data.actions[:, :h]
            encoded[:, -1] = data.states[:, h]
            prefixes = np.unique(encoded, axis=0)
            assert np.array_equal(state, prefixes[:, -1])
            expected = prefixes[:, :-1] @ expert.projection
            assert np.abs(features - expected).max() <= 1e-12

    def test_monte_carlo(self, monkeypatch):
        mdp, expert = make_instance(42, num_states=4, num_actions=3, horizon=5,
                                    expert_kind="parametric-history")
        calls = _record_prefixes(monkeypatch)
        rl.mc_return_distribution(mdp, expert, mdp.reward, 20_000, seed=9)
        assert len(calls) == mdp.horizon
        seen = {(0.0,) * (2 * mdp.horizon) + (mdp.initial_state,)}
        for h, (state, features) in enumerate(calls):
            # the projection has full row rank: its features determine an encoding
            solved = np.linalg.lstsq(expert.projection.T, features.T, rcond=None)[0].T
            encoded = np.rint(solved)
            assert np.abs(features - encoded @ expert.projection).max() <= 1e-12
            assert not encoded[:, 2 * h :].any()
            prefixes = {(*row, s) for row, s in zip(encoded.tolist(), state.tolist())}
            assert len(prefixes) == state.size  # one group per distinct prefix
            if h:  # every prefix extends a prefix of the stage before
                parents = {(*p[: 2 * h - 2], *(0.0,) * (2 * mdp.horizon - 2 * h + 2), p[2 * h - 2])
                           for p in prefixes}
                assert parents <= seen
            seen = prefixes


#: Every entry point that walks a policy over an MDP, as (mdp, policy, grid reward) -> result.
_HORIZON_ENTRY_POINTS = {
    "sample_trajectories": lambda mdp, pol, gr: rl.sample_trajectories(mdp, pol, 10, seed=0),
    "sample_counts": lambda mdp, pol, gr: rl.sample_counts(mdp, pol, 10, 0, gr),
    "mc_return_distribution": lambda mdp, pol, gr: rl.mc_return_distribution(
        mdp, pol, mdp.reward, 10, seed=0
    ),
    "exact_return_distribution": lambda mdp, pol, gr: rl.exact_return_distribution(
        mdp, pol, gr, gr.grid
    ),
    "exact_augmented_occupancy": lambda mdp, pol, gr: exact_augmented_occupancy(mdp, pol, gr),
    "enumerate_trajectory_distribution": lambda mdp, pol, gr: (
        rl.enumerate_trajectory_distribution(mdp, pol)
    ),
    "brute_force_return_distribution": lambda mdp, pol, gr: (
        rl.brute_force_return_distribution(mdp, pol, mdp.reward)
    ),
}


_HORIZON = "policy horizon does not match the MDP"
_STATES = re.escape("policy states and actions (4, 2) do not match the MDP's (3, 2)")
_ACTIONS = re.escape("policy states and actions (3, 1) do not match the MDP's (3, 2)")

#: A policy of another (H, S, A) than the (H = 4, 3 states, 2 actions)
#: instance, as (grid reward, rng) -> policy, and the error it raises.
_MISMATCHED_POLICIES = {
    "longer": (lambda gr, rng: rl.random_markovian_policy(3, 2, 6, rng), _HORIZON),
    "shorter": (lambda gr, rng: rl.random_markovian_policy(3, 2, 3, rng), _HORIZON),
    "markovian-states": (lambda gr, rng: rl.random_markovian_policy(4, 2, 4, rng), _STATES),
    "markovian-actions": (lambda gr, rng: rl.random_markovian_policy(3, 1, 4, rng), _ACTIONS),
    "augmented-states": (lambda gr, rng: random_reward_augmented_policy(gr, 4, rng), _STATES),
    "augmented-actions": (
        lambda gr, rng: random_reward_augmented_policy(
            rl.GridReward(gr.grid, gr.multiples[..., :1]), 3, rng
        ),
        _ACTIONS,
    ),
    "parametric-states": (lambda gr, rng: rl.random_parametric_policy(4, 2, 4, rng), _STATES),
    "parametric-actions": (lambda gr, rng: rl.random_parametric_policy(3, 1, 4, rng), _ACTIONS),
}


@pytest.mark.parametrize("mismatch", list(_MISMATCHED_POLICIES))
@pytest.mark.parametrize("entry", sorted(_HORIZON_ENTRY_POINTS))
def test_policy_horizon_must_match_the_mdp(entry, mismatch):
    # a longer policy was read for its first H stages, a shorter one ran off
    # its table; one action too few was played as action 0 alone
    mdp, _ = make_instance(3)
    gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, mdp.horizon))
    make_policy, match = _MISMATCHED_POLICIES[mismatch]
    with pytest.raises(ValueError, match=match):
        _HORIZON_ENTRY_POINTS[entry](mdp, make_policy(gr, np.random.default_rng(3)), gr)


#: The entries that read a float reward, as (mdp, policy, grid reward) -> result.
_FLOAT_REWARD_ENTRY_POINTS = {
    "brute_force_return_distribution": lambda mdp, pol, gr: (
        rl.brute_force_return_distribution(mdp, pol, gr)
    ),
    "mc_return_distribution": lambda mdp, pol, gr: rl.mc_return_distribution(
        mdp, pol, gr, 10, seed=0
    ),
    "empirical_return_distribution": lambda mdp, pol, gr: rl.empirical_return_distribution(
        rl.sample_trajectories(mdp, pol, 10, seed=0), gr
    ),
}


@pytest.mark.parametrize("entry", sorted(_FLOAT_REWARD_ENTRY_POINTS))
def test_float_reward_entries_name_a_grid_reward(entry):
    """A ``GridReward`` where a raw table is read is refused by name, not by
    numpy's ``float()`` of an object."""
    mdp, policy = make_instance(3, num_states=3, num_actions=2, horizon=3)
    gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, mdp.horizon))
    with pytest.raises(TypeError, match=r"takes a raw \(H, S, A\) reward table, not a GridReward"):
        _FLOAT_REWARD_ENTRY_POINTS[entry](mdp, policy, gr)


class TestEnumeration:
    @pytest.mark.parametrize(
        "kind", ["markovian", "reward-augmented", "parametric-history", "fork"]
    )
    def test_rows_are_distinct_trajectories_with_unit_mass(self, kind):
        if kind == "fork":
            mdp, policy = rl.make_fork_fixture()
        elif kind == "reward-augmented":
            mdp, _ = make_instance(6, rho=0.5, horizon=3)
            gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.5, mdp.horizon))
            policy = random_reward_augmented_policy(gr, mdp.num_states, np.random.default_rng(6))
        else:
            mdp, policy = make_instance(6, expert_kind=kind)
        data, probs = rl.enumerate_trajectory_distribution(mdp, policy)
        assert data.states.shape == data.actions.shape == (probs.size, mdp.horizon)
        rows = np.hstack([data.states, data.actions])
        assert np.unique(rows, axis=0).shape[0] == probs.size
        assert (probs > 0).all()
        assert abs(probs.sum() - 1.0) <= 1e-12


class TestConstructPiR:
    def test_markovian_expert_ignores_g(self):
        mdp, expert = make_instance(11, expert_kind="markovian", rho=0.5)
        grid = rl.RewardGrid(0.5, mdp.horizon)
        pol = rl.construct_pi_r(mdp, expert, rl.discretize_reward(mdp.reward, grid), grid)
        occ = exact_augmented_occupancy(mdp, pol, pol.reward)
        visited = occ.sum(axis=3) > 1e-12
        for h in range(mdp.horizon):
            for s in range(mdp.num_states):
                rows = pol.table[h, s][visited[h, s]]
                if rows.shape[0] > 1:
                    assert np.abs(rows - rows[0]).max() < 1e-9

    def test_fork_expert_projection_matches_exactly(self):
        mdp, expert = rl.make_fork_fixture()
        grid = rl.RewardGrid(1.0, mdp.horizon)
        pol = rl.construct_pi_r(mdp, expert, mdp.reward, grid)
        d = rl.exact_return_distribution(mdp, pol, mdp.reward, grid)
        assert rl.wasserstein(d, rl.DiscreteReturnDistribution.point_mass(1.0)) <= 1e-12

    def test_unreachable_cells_are_uniform(self):
        mdp, expert = rl.make_fork_fixture()
        grid = rl.RewardGrid(1.0, mdp.horizon)
        pol = rl.construct_pi_r(mdp, expert, mdp.reward, grid)
        # state 3 at stage 0 is unreachable
        assert pol.table[0, 3, 0] == pytest.approx(np.full(2, 0.5))

    def test_cap_exceeded_raises(self):
        horizon = 12
        transitions = np.full((horizon, 4, 4, 4), 0.25)
        mdp = rl.TabularMdp(0, transitions, np.zeros((horizon, 4, 4)))
        grid = rl.RewardGrid(1.0, horizon)
        expert = rl.MarkovianPolicy(np.full((horizon, 4, 4), 0.25))
        with pytest.raises(EnumerationCapError):
            rl.construct_pi_r(mdp, expert, np.zeros((horizon, 4, 4)), grid)


class TestExactReturnDistribution:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_fork_markov_family_closed_form(self, alpha):
        mdp, _ = rl.make_fork_fixture()
        dist = rl.exact_return_distribution(
            mdp, rl.fork_markovian_policy(alpha), mdp.reward, rl.RewardGrid(1.0, 3)
        )
        expected = {0.0: alpha / 2, 1.0: 0.5, 2.0: (1 - alpha) / 2}
        got = dict(zip(dist.support.tolist(), dist.probs.tolist()))
        for value, prob in expected.items():
            if prob > 0:
                assert got.pop(value) == pytest.approx(prob)
        assert not got

    def test_deterministic_chain_full_reward(self):
        horizon = 4
        transitions = np.zeros((horizon, 2, 1, 2))
        transitions[:, :, 0, 1] = 1.0
        mdp = rl.TabularMdp(0, transitions, np.ones((horizon, 2, 1)))
        policy = rl.MarkovianPolicy(np.ones((horizon, 2, 1)))
        dist = rl.exact_return_distribution(mdp, policy, mdp.reward, rl.RewardGrid(1.0, horizon))
        assert dist.support.tolist() == [float(horizon)]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_enumeration_oracle(self, seed):
        mdp, _ = make_instance(seed, rho=0.25)
        grid = rl.RewardGrid(0.25, mdp.horizon)
        rng = np.random.default_rng(seed + 50)
        markov = rl.random_markovian_policy(mdp.num_states, mdp.num_actions, mdp.horizon, rng)
        dp = rl.exact_return_distribution(mdp, markov, mdp.reward, grid)
        brute = rl.brute_force_return_distribution(mdp, markov, mdp.reward)
        assert rl.wasserstein(dp, brute) <= 1e-10

        gr = rl.discretize_reward(mdp.reward, grid)
        augmented = random_reward_augmented_policy(gr, mdp.num_states, rng)
        dp = rl.exact_return_distribution(mdp, augmented, mdp.reward, grid)
        brute = rl.brute_force_return_distribution(mdp, augmented, mdp.reward)
        assert rl.wasserstein(dp, brute) <= 1e-10

    @pytest.mark.parametrize("seed", [4, 5])
    def test_joint_accumulator_matches_enumeration(self, seed):
        # policy conditions on a coarse grid, evaluation runs on a finer one
        mdp, _ = make_instance(seed, rho=0.2, horizon=3)
        coarse = rl.RewardGrid(0.5, mdp.horizon)
        fine = rl.RewardGrid(0.2, mdp.horizon)
        rng = np.random.default_rng(seed)
        policy = random_reward_augmented_policy(
            rl.discretize_reward(mdp.reward, coarse), mdp.num_states, rng
        )
        dp = rl.exact_return_distribution(mdp, policy, mdp.reward, fine)
        brute = rl.brute_force_return_distribution(mdp, policy, mdp.reward)
        assert rl.wasserstein(dp, brute) <= 1e-10

    @pytest.mark.parametrize("theta", [0.05, 0.03], ids=["joint", "single"])
    def test_lifted_markovian_policy_matches_markovian_path(self, theta):
        # a Markovian table broadcast over g, on a benchmark-sized instance: the
        # Markovian table walks a one-cell policy accumulator, the lifted one its
        # own grid's, coarser than rho's (joint) or rho's (single)
        mdp, _ = make_instance(5, num_states=50, num_actions=5, horizon=5, rho=0.03)
        eval_grid = rl.RewardGrid(0.03, mdp.horizon)
        markov = rl.random_markovian_policy(50, 5, 5, np.random.default_rng(5))
        pol_grid = rl.RewardGrid(theta, mdp.horizon)
        n_g = pol_grid.num_multiples(mdp.horizon - 1)
        lifted = rl.RewardAugmentedPolicy(
            table=np.repeat(markov.table[:, :, None, :], n_g, axis=2),
            reward=rl.discretize_reward(mdp.reward, pol_grid),
        )
        expected = rl.exact_return_distribution(mdp, markov, mdp.reward, eval_grid)
        got = rl.exact_return_distribution(mdp, lifted, mdp.reward, eval_grid)
        assert np.array_equal(got.support, expected.support)
        assert np.abs(got.probs - expected.probs).max() <= 1e-12
        assert rl.wasserstein(got, expected) <= 1e-12

    def test_rejects_non_dp_policies(self):
        mdp, expert = make_instance(6, expert_kind="parametric-history", rho=0.5)
        with pytest.raises(TypeError):
            rl.exact_return_distribution(mdp, expert, mdp.reward, rl.RewardGrid(0.5, mdp.horizon))


class _NotAPolicy:
    """An object of no policy kind."""


@pytest.mark.parametrize(
    "entry",
    [
        "sample_trajectories",
        "sample_counts",
        "mc_return_distribution",
        "exact_return_distribution",
        "exact_augmented_occupancy",
    ],
)
def test_refuses_an_object_of_no_policy_kind(entry):
    """Every walk of a policy over an MDP refuses an object of no policy
    kind with a ``TypeError`` that names its kind."""
    mdp, _ = make_instance(4)
    grid = rl.RewardGrid(0.25, mdp.horizon)
    reward = rl.discretize_reward(mdp.reward, grid)
    calls = {
        "sample_trajectories": lambda pol: rl.sample_trajectories(mdp, pol, 10, 1),
        "sample_counts": lambda pol: rl.sample_counts(mdp, pol, 10, 1, reward),
        "mc_return_distribution": lambda pol: rl.mc_return_distribution(
            mdp, pol, mdp.reward, 10, 1
        ),
        "exact_return_distribution": lambda pol: rl.exact_return_distribution(
            mdp, pol, mdp.reward, grid
        ),
        "exact_augmented_occupancy": lambda pol: exact_augmented_occupancy(mdp, pol, reward),
    }
    with pytest.raises(TypeError, match="_NotAPolicy"):
        calls[entry](_NotAPolicy())


class TestMonteCarlo:
    def test_deterministic_point_mass(self, monkeypatch):
        """One path at m = 10**4: every count exceeds its row width, so every split
        is a multinomial and no member draws a categorical."""
        horizon = 3
        transitions = np.zeros((horizon, 2, 1, 2))
        transitions[:, :, 0, 0] = 1.0
        mdp = rl.TabularMdp(0, transitions, np.full((horizon, 2, 1), 0.5))
        policy = rl.MarkovianPolicy(np.ones((horizon, 2, 1)))
        real_draw = policies_mod._draw
        members = []

        def spy(rng, table, rows):
            members.append(rows.size)
            return real_draw(rng, table, rows)

        monkeypatch.setattr(policies_mod, "_draw", spy)
        d = rl.mc_return_distribution(mdp, policy, mdp.reward, 10_000, seed=3)
        assert d.support.tolist() == [1.5] and d.probs.tolist() == [1.0]
        assert len(members) == 2 * horizon - 1 and not any(members)

    @staticmethod
    def _policy(kind, mdp, rng):
        num_states, num_actions, horizon = mdp.num_states, mdp.num_actions, mdp.horizon
        if kind == "markovian":
            return rl.random_markovian_policy(num_states, num_actions, horizon, rng)
        if kind == "reward-augmented":
            gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, horizon))
            return random_reward_augmented_policy(gr, num_states, rng)
        return random_parametric_policy(num_states, num_actions, horizon, rng)

    @classmethod
    def _case(cls, kind, horizon):
        """An enumerable instance with continuous rewards: (3,3,5) or (2,2,8)."""
        size = 3 if horizon == 5 else 2
        mdp, _ = make_instance(
            horizon, num_states=size, num_actions=size, horizon=horizon, continuous_reward=True
        )
        return mdp, cls._policy(kind, mdp, np.random.default_rng(horizon))

    @staticmethod
    def _atom_index(exact, sampled):
        """Index of the enumeration atom each sampled atom is; the two differ at
        most by the round-off of ``from_weighted``'s weighted mean position."""
        hi = np.searchsorted(exact.support, sampled.support).clip(1, exact.support.size - 1)
        lo = hi - 1
        gap_hi, gap_lo = (np.abs(exact.support[i] - sampled.support) for i in (hi, lo))
        idx = np.where(gap_hi < gap_lo, hi, lo)
        assert np.abs(exact.support[idx] - sampled.support).max() <= ATOM_MERGE_TOL
        return idx

    @pytest.mark.parametrize("horizon", [5, 8])
    @pytest.mark.parametrize("kind", ["markovian", "reward-augmented", "parametric"])
    def test_atom_frequencies_match_enumeration(self, monkeypatch, kind, horizon):
        """Every atom of the enumeration within 5 binomial standard deviations plus
        3/m, every sampled atom an atom of the enumeration.

        The 3/m is for the many atoms with p far below 1/m, whose counts are
        near Poisson(mp): with 1/m a correct sampler fails about one seed in
        ten at H = 8, with 3/m all six cases fail together with probability
        about 1.4e-3 (exact binomial tails).

        The root count m is split by a multinomial, and some counts at most
        their row width draw per member.  At H = 8 numpy sums the (k, H)
        reward block pairwise; enumeration sums its rows the same way, so each
        path's return is the same float."""
        mdp, policy = self._case(kind, horizon)
        exact = rl.brute_force_return_distribution(mdp, policy, mdp.reward)
        m = 200_000
        real_draw = policies_mod._draw
        members = []

        def spy(rng, table, rows):
            members.append(rows.size)
            return real_draw(rng, table, rows)

        monkeypatch.setattr(policies_mod, "_draw", spy)
        sampled = rl.mc_return_distribution(mdp, policy, mdp.reward, m, seed=5)
        assert sum(members) > 0
        freq = np.zeros_like(exact.probs)
        freq[self._atom_index(exact, sampled)] = sampled.probs
        p = exact.probs
        assert (np.abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / m) + 3 / m).all()

    @pytest.mark.parametrize("m", [1, 7])
    @pytest.mark.parametrize("kind", ["markovian", "reward-augmented", "parametric"])
    def test_small_samples(self, kind, m):
        mdp, policy = self._case(kind, 5)
        exact = rl.brute_force_return_distribution(mdp, policy, mdp.reward)
        sampled = rl.mc_return_distribution(mdp, policy, mdp.reward, m, seed=2)
        self._atom_index(exact, sampled)
        counts = sampled.probs * m
        assert np.allclose(counts, np.round(counts), rtol=0, atol=1e-9) and counts.min() >= 1

    @pytest.mark.parametrize("kind", ["markovian", "reward-augmented", "parametric"])
    def test_is_the_empirical_law_of_the_dataset_on_its_seed(self, kind):
        """On ``mdp.reward`` Monte Carlo runs the walk ``sample_trajectories``
        replays on the same seed, so its law is that dataset's empirical
        return law, up to the round-off of summing and merging returns."""
        mdp, policy = self._case(kind, 5)
        got = rl.mc_return_distribution(mdp, policy, mdp.reward, 5000, seed=6)
        data = rl.sample_trajectories(mdp, policy, 5000, seed=6)
        want = rl.empirical_return_distribution(data, mdp.reward)
        assert got.support.size == want.support.size
        np.testing.assert_allclose(got.support, want.support, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.probs, want.probs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("extra", [(0, 0, 1), (0, 1, 0), (0, -1, 0)])
    def test_rejects_a_reward_of_another_shape(self, extra):
        """A reward table over other states or actions is refused, never read
        at the wrong flat index."""
        mdp, policy = self._case("markovian", 5)
        shape = tuple(np.add(mdp.reward.shape, extra))
        with pytest.raises(ValueError, match="reward table has shape"):
            rl.mc_return_distribution(mdp, policy, np.zeros(shape), 100, seed=1)

    def test_rejects_objects_that_are_not_policies(self):
        """Anything outside the three kinds is refused, never read as the
        parametric expert."""
        mdp, _ = rl.make_fork_fixture()
        with pytest.raises(TypeError):
            rl.mc_return_distribution(mdp, object(), mdp.reward, 100, seed=1)

    def test_transition_rows_a_hair_above_one(self):
        """A row summing to 1 + 1e-10 passes ``validate_mdp``; the multinomial
        splits it like the row sampler, which never reaches its last state."""
        horizon = 2
        transitions = np.zeros((horizon, 3, 1, 3))
        transitions[:, :, 0, 0] = 1.0
        transitions[0, 0, 0] = [0.5, 0.5 + 1e-10, 0.0]
        reward = np.zeros((horizon, 3, 1))
        reward[1, :, 0] = [0.0, 1.0, 0.5]
        mdp = rl.TabularMdp(0, transitions, reward)
        assert rl.validate_mdp(mdp) == []
        policy = rl.MarkovianPolicy(np.ones((horizon, 3, 1)))
        m = 10_000
        d = rl.mc_return_distribution(mdp, policy, mdp.reward, m, seed=4)
        assert d.support.tolist() == [0.0, 1.0]
        assert abs(d.probs[0] - 0.5) <= 5 * np.sqrt(0.25 / m)

    # sha256 of (support, probs) at m = 5 * 10**4, seed 11: a change to the
    # Monte Carlo stream shows here.
    PINNED_RETURNS = {
        "markovian": "421d1b9ece34a639ee7c59198be73cdf7690178ae16aa506ed37803e57e206ba",
        "reward-augmented": "8f15686506a875bce0513c3cdc6a017f6742f4b69ec060169ac3f79bbb990989",
        "parametric": "a4dc86a2c869d62b0d9a33c05e50ef38ef6cedcf6e0cd6d0ae4641eec282baf3",
    }

    @pytest.mark.parametrize("kind", sorted(PINNED_RETURNS))
    def test_returns_match_pinned_digests(self, kind):
        mdp, _ = make_instance(
            5, num_states=10, num_actions=3, horizon=5, continuous_reward=True
        )
        policy = self._policy(kind, mdp, np.random.default_rng(5))
        d = rl.mc_return_distribution(mdp, policy, mdp.reward, 50_000, seed=11)
        digest = hashlib.sha256(
            np.ascontiguousarray(d.support, dtype="<f8").tobytes()
            + np.ascontiguousarray(d.probs, dtype="<f8").tobytes()
        ).hexdigest()
        assert digest == self.PINNED_RETURNS[kind]

    def test_rejects_empty_sample(self):
        mdp, expert = make_instance(8)
        with pytest.raises(ValueError):
            rl.mc_return_distribution(mdp, expert, mdp.reward, 0, seed=1)

    def test_seed_stability(self):
        mdp, expert = make_instance(8, expert_kind="parametric-history")
        a = rl.mc_return_distribution(mdp, expert, mdp.reward, 500, seed=4)
        b = rl.mc_return_distribution(mdp, expert, mdp.reward, 500, seed=4)
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.probs, b.probs)

    @pytest.mark.parametrize("kind", ["markovian", "reward-augmented", "parametric"])
    def test_agrees_with_dp_within_dkw(self, kind):
        """Monte Carlo of each kind within the DKW band of the exact law: the
        return DP for a table policy, enumeration for the parametric expert."""
        mdp, _ = make_instance(9, rho=0.25)
        policy = self._policy(kind, mdp, np.random.default_rng(3))
        if kind == "parametric":
            exact = rl.brute_force_return_distribution(mdp, policy, mdp.reward)
        else:
            grid = rl.RewardGrid(0.25, mdp.horizon)
            exact = rl.exact_return_distribution(mdp, policy, mdp.reward, grid)
        sampled = rl.mc_return_distribution(mdp, policy, mdp.reward, 100_000, seed=8)
        assert rl.wasserstein(exact, sampled) <= mdp.horizon * rl.dkw_band(100_000, 0.01)

    @pytest.mark.parametrize("kind", ["markovian", "reward-augmented", "parametric"])
    def test_evaluates_the_reward_it_is_given(self, kind):
        """A reward other than ``mdp.reward`` keys the walk's returns: Monte
        Carlo of it within the DKW band of its enumerated law."""
        mdp, policy = self._case(kind, 5)
        other = np.random.default_rng(4).uniform(0.0, 1.0, mdp.reward.shape)
        exact = rl.brute_force_return_distribution(mdp, policy, other)
        sampled = rl.mc_return_distribution(mdp, policy, other, 100_000, seed=8)
        assert rl.wasserstein(exact, sampled) <= mdp.horizon * rl.dkw_band(100_000, 0.01)
        assert rl.wasserstein(exact, rl.brute_force_return_distribution(mdp, policy, mdp.reward)) > 0.1

    def test_reward_augmented_agrees_with_joint_dp_within_dkw(self):
        """A policy on a coarser grid than the evaluation's: the joint-accumulator DP."""
        mdp, _ = make_instance(9, rho=0.25)
        grid = rl.RewardGrid(0.25, mdp.horizon)
        gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.5, mdp.horizon))
        policy = random_reward_augmented_policy(gr, mdp.num_states, np.random.default_rng(3))
        exact = rl.exact_return_distribution(mdp, policy, mdp.reward, grid)
        sampled = rl.mc_return_distribution(mdp, policy, mdp.reward, 100_000, seed=8)
        assert rl.wasserstein(exact, sampled) <= mdp.horizon * rl.dkw_band(100_000, 0.01)


class TestClassProjectionGuarantees:
    @pytest.mark.parametrize("seed", range(5))
    def test_grid_valued_reward_projection_is_exact(self, seed):
        kind = "markovian" if seed % 2 else "parametric-history"
        mdp, expert = make_instance(seed, rho=0.5, expert_kind=kind)
        grid = rl.RewardGrid(0.5, mdp.horizon)
        pol = rl.construct_pi_r(mdp, expert, rl.discretize_reward(mdp.reward, grid), grid)
        projected = rl.exact_return_distribution(mdp, pol, mdp.reward, grid)
        truth = rl.brute_force_return_distribution(mdp, expert, mdp.reward)
        assert rl.wasserstein(projected, truth) <= 1e-9

    @pytest.mark.parametrize("theta", [0.5, 0.1])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_discretized_projection_within_h_theta(self, theta, seed):
        mdp, expert = make_instance(seed, expert_kind="parametric-history",
                                    continuous_reward=True)
        grid = rl.RewardGrid(theta, mdp.horizon)
        pol = rl.construct_pi_r(mdp, expert, rl.discretize_reward(mdp.reward, grid), grid)
        projected = rl.brute_force_return_distribution(mdp, pol, mdp.reward)
        truth = rl.brute_force_return_distribution(mdp, expert, mdp.reward)
        assert rl.wasserstein(projected, truth) <= mdp.horizon * theta + 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_reward_joint_marginals_match(self, seed):
        # the projected policy visits every (stage, state, cumulative reward)
        # cell with exactly the expert's probability
        kind = "parametric-history" if seed % 2 else "markovian"
        mdp, expert = make_instance(seed, rho=0.5, horizon=3, expert_kind=kind)
        grid = rl.RewardGrid(0.5, mdp.horizon)
        gr = rl.discretize_reward(mdp.reward, grid)
        pol = rl.construct_pi_r(mdp, expert, gr, grid)
        occ = exact_augmented_occupancy(mdp, pol, gr)
        joint = occ.sum(axis=3)

        expected = np.zeros_like(joint)
        data, probs = rl.enumerate_trajectory_distribution(mdp, expert)
        for states, actions, p in zip(data.states.tolist(), data.actions.tolist(), probs):
            g = 0
            for h, (s, a) in enumerate(zip(states, actions)):
                expected[h, s, g] += p
                g += int(gr.multiples[h, s, a])
        assert np.abs(joint - expected).max() <= 1e-9


class TestAugmentedOccupancy:
    def test_marginal_over_g_recovers_base_occupancy(self):
        mdp, _ = make_instance(17, rho=0.25)
        grid = rl.RewardGrid(0.25, mdp.horizon)
        rng = np.random.default_rng(5)
        policy = rl.random_markovian_policy(mdp.num_states, mdp.num_actions, mdp.horizon, rng)
        occ = exact_augmented_occupancy(mdp, policy, rl.discretize_reward(mdp.reward, grid))
        marginal = occ.sum(axis=2)

        base = np.zeros((mdp.horizon, mdp.num_states, mdp.num_actions))
        mass = np.zeros(mdp.num_states)
        mass[mdp.initial_state] = 1.0
        for h in range(mdp.horizon):
            base[h] = mass[:, None] * policy.table[h]
            mass = np.einsum("sa,sat->t", base[h], mdp.transitions[h])
        assert np.abs(marginal - base).max() <= 1e-10

    def test_policy_on_another_reward(self):
        # the policy reads its own accumulator, not the occupancy's: a
        # reward-augmented policy conditioned on a second reward on the same grid
        mdp, _ = make_instance(23, num_states=3, num_actions=2, horizon=3)
        grid = rl.RewardGrid(0.25, mdp.horizon)
        gr = rl.discretize_reward(mdp.reward, grid)
        other = rl.discretize_reward(np.random.default_rng(23).random(mdp.reward.shape), grid)
        assert not np.array_equal(other.multiples, gr.multiples)
        policy = random_reward_augmented_policy(other, mdp.num_states, np.random.default_rng(7))
        occ = exact_augmented_occupancy(mdp, policy, gr)
        data, probs = rl.enumerate_trajectory_distribution(mdp, policy)
        assert np.abs(occ - count_occurrences(data, gr, probs)).max() <= 1e-12

    def test_stage_masses_are_one(self):
        mdp, _ = make_instance(19, rho=0.5)
        grid = rl.RewardGrid(0.5, mdp.horizon)
        rng = np.random.default_rng(6)
        gr = rl.discretize_reward(mdp.reward, grid)
        policy = random_reward_augmented_policy(gr, mdp.num_states, rng)
        occ = exact_augmented_occupancy(mdp, policy, gr)
        assert occ.sum(axis=(1, 2, 3)) == pytest.approx(np.ones(mdp.horizon), abs=1e-10)


class TestExactPassDigests:
    """sha256 of the exact passes' output bytes on one (10,3,5) instance with a
    continuous reward, evaluated on the 0.05 grid: a Markovian policy, a
    reward-augmented one on the evaluation reward, and one on the 0.1 grid
    (the joint accumulator); the occupancy of the first two on that reward."""

    PINNED = {
        "return-markovian": "7d8cf63cee9e6cd6d6c7dc7e6105b5d01554b0b93668a85b4ee355d6b19f0bdd",
        "return-same-reward": "92c6faee1c500e9ca5904bcf2c4eb0c6e20a9013381b27a09eb6d7fd5b9e0c39",
        "return-coarser-grid": "9ee678fc5ecf8b274680ad57c46a625a0cf0e47b77f77d06b3c61c961609b8c3",
        "occupancy-markovian": "fc5f3215da55924d3d5d8e9bc85479e2fc9ee313136cc0e822afa40452481837",
        "occupancy-same-reward": "597356a623998c66f46d821663e88f7128383e2fb7466b0a4675ad831b05ecf5",
    }

    @staticmethod
    def _digest(*arrays):
        return hashlib.sha256(
            b"".join(np.ascontiguousarray(x, dtype="<f8").tobytes() for x in arrays)
        ).hexdigest()

    def test_exact_passes_match_pinned_digests(self):
        mdp, _ = make_instance(21, num_states=10, num_actions=3, horizon=5, continuous_reward=True)
        fine, coarse = rl.RewardGrid(0.05, 5), rl.RewardGrid(0.1, 5)
        gr = rl.discretize_reward(mdp.reward, fine)
        rng = np.random.default_rng(21)
        policies = {
            "markovian": rl.random_markovian_policy(10, 3, 5, rng),
            "same-reward": random_reward_augmented_policy(gr, 10, rng),
            "coarser-grid": random_reward_augmented_policy(
                rl.discretize_reward(mdp.reward, coarse), 10, rng
            ),
        }
        got = {}
        for kind, policy in policies.items():
            dist = rl.exact_return_distribution(mdp, policy, mdp.reward, fine)
            got[f"return-{kind}"] = self._digest(dist.support, dist.probs)
        for kind in ("markovian", "same-reward"):
            occ = exact_augmented_occupancy(mdp, policies[kind], gr)
            got[f"occupancy-{kind}"] = self._digest(occ)
        assert got == self.PINNED


def _dense_push_stage(mass, phi, transitions, shifts, limits):
    """The dense-box stage kernel the live-cell ``_push_stage`` replaced (reference).

    ``mass`` is (S, *box) over the whole accumulator box the mass can reach,
    capped at ``limits``; per action one zeroed slab over that box is filled
    state by state and pushed by one transition GEMM.
    """
    num_states, box = mass.shape[0], mass.shape[1:]
    reach = [min(n, b + int(k)) for n, b, k in zip(limits, box, shifts.max(axis=(0, 1)))]
    live = np.flatnonzero(mass.reshape(num_states, -1).any(axis=1))
    slab = np.empty((num_states, *reach))
    nxt = np.empty((num_states, slab[0].size))
    pushed = np.empty_like(nxt)
    for a in range(transitions.shape[1]):
        slab.fill(0.0)
        for s in live:
            dst = tuple(
                slice(k, max(k, min(k + b, r)))
                for k, b, r in zip(shifts[s, a].tolist(), box, reach)
            )
            src = tuple(slice(0, d.stop - d.start) for d in dst)
            np.multiply(mass[s][src], phi[s, ..., a][src], out=slab[s][dst])
        np.matmul(transitions[:, a, :].T, slab.reshape(num_states, -1), out=pushed if a else nxt)
        if a:
            nxt += pushed
    return nxt.reshape(slab.shape)


def _dense_return_distribution(mdp, policy, reward, grid):
    """``exact_return_distribution`` on the dense-box kernel (reference).

    H - 1 stages are pushed; the last action's mass lands on its return cell.
    """
    gr_eval = rl.discretize_reward(reward, grid)
    shifts, limits = gr_eval.multiples[..., None], (grid.full_size,)
    if isinstance(policy, rl.MarkovianPolicy):
        phi = policy.table[:, :, None, :]
    elif policy.grid == grid and np.array_equal(policy.reward.multiples, gr_eval.multiples):
        phi = policy.table
    else:
        phi = policy.table[:, :, :, None, :]
        shifts = np.stack([policy.reward.multiples, gr_eval.multiples], axis=-1)
        limits = (policy.table.shape[2], grid.full_size)
    mass = np.zeros((mdp.num_states,) + (1,) * len(limits))
    mass[mdp.initial_state] = 1.0
    for h in range(mdp.horizon - 1):
        mass = _dense_push_stage(mass, phi[h], mdp.transitions[h], shifts[h], limits)
    box = mass.shape[1:]
    weighted = mass[..., None] * phi[-1][(slice(None), *(slice(0, b) for b in box))]
    shift = gr_eval.multiples[-1].reshape(mdp.num_states, *(1,) * len(box), mdp.num_actions)
    ret = np.arange(box[-1])[:, None] + shift
    ret, weighted = np.broadcast_arrays(ret, weighted)
    totals = np.bincount(ret.ravel(), weights=weighted.ravel())
    support = np.nonzero(totals > 0.0)[0]
    probs = totals[support] / totals[support].sum()
    return rl.DiscreteReturnDistribution(support * grid.theta, probs)


def _dense_occupancy(mdp, policy, reward):
    """``exact_augmented_occupancy`` on the dense-box kernel (reference)."""
    n_g = reward.grid.num_multiples(mdp.horizon - 1)
    occ = np.zeros((mdp.horizon, mdp.num_states, n_g, mdp.num_actions))
    mass = np.zeros((mdp.num_states, 1))
    mass[mdp.initial_state] = 1.0
    for h in range(mdp.horizon):
        if isinstance(policy, rl.MarkovianPolicy):
            phi = policy.table[h][:, None, :]
        else:
            phi = policy.table[h]
        box = mass.shape[1]
        occ[h, :, :box] = mass[:, :, None] * phi[:, :box]
        if h + 1 < mdp.horizon:
            mass = _dense_push_stage(
                mass, phi, mdp.transitions[h], reward.multiples[h][..., None], (n_g,)
            )
    return occ


#: The benchmark workloads' shapes and grids, with instances per shape.
_WORKLOAD_SHAPES = {
    "desk": (8, dict(num_states=2, num_actions=2, horizon=5, theta=0.05, rho=0.03,
                     expert_kind="parametric-history", n_sweep=(10_000,))),
    "scale": (5, dict(num_states=50, num_actions=5, horizon=5, theta=0.05, rho=0.03,
                      expert_kind="parametric-history", n_sweep=(1000,))),
    "bulk": (7, dict(num_states=20, num_actions=5, horizon=5, theta=0.02, rho=0.02,
                     expert_kind="markovian", n_sweep=(1000,))),
}


def _mass_leak_mdp(stage):
    """(3,2,4) MDP whose transition row (stage, 0, 0) sums to 0.9; rewards on the 0.25 grid."""
    rng = np.random.default_rng(stage)
    transitions = rng.dirichlet(np.ones(3), size=(4, 3, 2))
    transitions[stage, 0, 0] *= 0.9
    reward = rng.integers(0, 5, size=(4, 3, 2)) * 0.25
    return rl.TabularMdp(0, transitions, reward)


class TestLiveCellKernel:
    @pytest.mark.parametrize(
        "shape, seed",
        [(name, seed) for name, (count, _) in _WORKLOAD_SHAPES.items() for seed in range(count)],
    )
    def test_matches_dense_reference(self, shape, seed):
        cfg = rl.ExperimentConfig(instances=1, **_WORKLOAD_SHAPES[shape][1])
        mdp, expert = generate_instance(cfg, 7919 * seed + 11)
        data = rl.sample_trajectories(mdp, expert, cfg.n_sweep[0], seed)
        grid = rl.RewardGrid(cfg.theta, mdp.horizon)
        eval_grid = rl.RewardGrid(cfg.rho, mdp.horizon)
        markov, augmented = rl.bc(data), rl.rs_bc(data, mdp.reward, grid)
        # Markov; joint (single on bulk, where theta == rho); single on the policy's grid
        cases = [(markov, eval_grid), (augmented, eval_grid), (augmented, grid)]
        for policy, g in cases:
            dist = rl.exact_return_distribution(mdp, policy, mdp.reward, g)
            expected = _dense_return_distribution(mdp, policy, mdp.reward, g)
            assert np.array_equal(dist.support, expected.support)
            assert np.array_equal(dist.probs, expected.probs)
        for policy in (markov, augmented):
            occ = exact_augmented_occupancy(mdp, policy, augmented.reward)
            assert np.array_equal(occ, _dense_occupancy(mdp, policy, augmented.reward))

    @pytest.mark.parametrize("stage", [0, 3], ids=["first", "last"])
    def test_lost_row_mass_fails_every_return_path(self, stage):
        mdp = _mass_leak_mdp(stage)
        fine, coarse = rl.RewardGrid(0.25, 4), rl.RewardGrid(0.5, 4)
        rng = np.random.default_rng(stage)
        markov = rl.random_markovian_policy(3, 2, 4, rng)
        single = random_reward_augmented_policy(rl.discretize_reward(mdp.reward, fine), 3, rng)
        joint = random_reward_augmented_policy(rl.discretize_reward(mdp.reward, coarse), 3, rng)
        for policy in (markov, single, joint):
            with pytest.raises(AssertionError, match="lost probability mass"):
                rl.exact_return_distribution(mdp, policy, mdp.reward, fine)

    @pytest.mark.parametrize("stage", [0, 2], ids=["first", "last-pushed"])
    def test_lost_row_mass_fails_occupancy(self, stage):
        # the occupancy never reads the last stage's transitions, so its last
        # pushed stage is H - 2
        mdp = _mass_leak_mdp(stage)
        gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, 4))
        rng = np.random.default_rng(stage)
        for policy in (
            rl.random_markovian_policy(3, 2, 4, rng),
            random_reward_augmented_policy(gr, 3, rng),
        ):
            with pytest.raises(AssertionError, match="lost probability mass"):
                exact_augmented_occupancy(mdp, policy, gr)

    @pytest.mark.parametrize("seed", range(3))
    def test_last_stage_kernel_is_never_read(self, seed):
        # the last action's mass lands on its return cell, so swapping
        # transitions[H - 1] for another kernel moves no bit
        mdp = _mass_leak_mdp(0)
        rng = np.random.default_rng(seed)
        transitions = rng.dirichlet(np.ones(3), size=(4, 3, 2))
        swapped = transitions.copy()
        swapped[-1] = rng.dirichlet(np.ones(3), size=(3, 2))
        fine, coarse = rl.RewardGrid(0.25, 4), rl.RewardGrid(0.5, 4)
        policies = (
            rl.random_markovian_policy(3, 2, 4, rng),
            random_reward_augmented_policy(rl.discretize_reward(mdp.reward, fine), 3, rng),
            random_reward_augmented_policy(rl.discretize_reward(mdp.reward, coarse), 3, rng),
        )
        for policy in policies:  # Markov, single, joint
            a, b = (
                rl.exact_return_distribution(
                    rl.TabularMdp(0, kernel, mdp.reward), policy, mdp.reward, fine
                )
                for kernel in (transitions, swapped)
            )
            assert np.array_equal(a.support, b.support)
            assert np.array_equal(a.probs, b.probs)

    def test_rows_admitted_off_one_evaluate_on_every_path(self):
        # every row sums to 1 + 9e-10, within validate_mdp's tolerance; the
        # totals drift by up to H times that
        rng = np.random.default_rng(5)
        transitions = rng.dirichlet(np.ones(3), size=(5, 3, 2))
        transitions *= (1 + 9e-10) / transitions.sum(axis=-1, keepdims=True)
        reward = rng.integers(0, 5, size=(5, 3, 2)) * 0.25
        mdp = rl.TabularMdp(0, transitions, reward)
        assert rl.validate_mdp(mdp) == []
        fine, coarse = rl.RewardGrid(0.25, 5), rl.RewardGrid(0.5, 5)
        gr = rl.discretize_reward(reward, fine)
        markov = rl.random_markovian_policy(3, 2, 5, rng)
        single = random_reward_augmented_policy(gr, 3, rng)
        joint = random_reward_augmented_policy(rl.discretize_reward(reward, coarse), 3, rng)
        for policy in (markov, single, joint):
            dist = rl.exact_return_distribution(mdp, policy, reward, fine)
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-15)
            brute = rl.brute_force_return_distribution(mdp, policy, reward)
            assert brute.probs.sum() == pytest.approx(1.0, abs=1e-15)
            assert rl.wasserstein(dist, brute) < 1e-12
        for policy in (markov, single):
            occ = exact_augmented_occupancy(mdp, policy, gr)
            assert occ.sum(axis=(1, 2, 3)) == pytest.approx(np.ones(5), abs=5 * PROB_TOL)
        counts = count_state_actions(rl.sample_trajectories(mdp, markov, 200, seed=0))
        policy = mimic_md_from_counts(counts, mdp)
        assert np.abs(policy.table.sum(axis=-1) - 1.0).max() <= 1e-12

    def test_mass_past_a_limit_is_dropped_not_wrapped(self):
        # box (2, 3); cells (0, 1) and (0, 2) shifted by (0, 1): (0, 2) stays in
        # the box, (0, 3) is past the last axis's limit.  Its flat key 3 is the
        # cell (1, 0), which must receive nothing.
        cells = np.array([1, 2])
        mass = np.array([[0.25, 0.75]])
        transitions = np.ones((1, 1, 1))
        shifts = np.array([[[0, 1]]])
        nxt_cells, nxt = _push_stage(
            cells, mass, np.ones((1, 2, 1)), transitions, shifts, (2, 3)
        )
        assert nxt_cells.tolist() == [2]
        assert nxt.tolist() == [[0.25]]

    @pytest.mark.parametrize("seed", range(6))
    def test_limits_below_reach_match_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        num_states, num_actions, limits = 4, 3, (5, 6)
        dense_mass = rng.random((num_states, 3, 4)) * (rng.random((num_states, 3, 4)) < 0.5)
        dense_mass[1] = 0.0  # a state without mass
        phi = rng.dirichlet(np.ones(num_actions), size=(num_states, 5, 6))
        transitions = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
        shifts = rng.integers(0, 4, size=(num_states, num_actions, 2))
        expected = _dense_push_stage(dense_mass, phi, transitions, shifts, limits)

        padded = np.zeros((num_states, *limits))
        padded[:, :3, :4] = dense_mass
        cells = np.flatnonzero(padded.any(axis=0))
        mass = padded.reshape(num_states, -1)[:, cells]
        pol = phi.reshape(num_states, -1, num_actions)[:, cells]
        nxt_cells, nxt = _push_stage(cells, mass, pol, transitions, shifts, limits)

        got = np.zeros((num_states, *limits))
        got.reshape(num_states, -1)[:, nxt_cells] = nxt
        reach = expected.shape[1:]
        assert not got[:, reach[0]:].any() and not got[:, :, reach[1]:].any()
        assert np.array_equal(got[:, : reach[0], : reach[1]], expected)
        assert nxt.sum() < mass.sum()  # some mass was shifted past a limit
