import hashlib

import numpy as np
import pytest

import rdmlab as rl
from rdmlab import policies as policies_mod
from rdmlab.bench import generate_instance
from rdmlab.policies import (
    EnumerationCapError,
    act_parametric,
    exact_augmented_occupancy,
    random_parametric_policy,
    random_reward_augmented_policy,
)

from conftest import make_instance


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
        mdp = rl.TabularMdp(num_states, 1, horizon, 0, transitions,
                            np.zeros((horizon, num_states, 1)))
        policy = rl.MarkovianPolicy(np.ones((horizon, num_states, 1)))
        data = rl.sample_trajectories(mdp, policy, 16, seed=0)
        assert (data.states == data.states[0]).all()

    # sha256 of (states, actions) drawn by the per-draw cumsum sampler;
    # cumulative tables built once per call must reproduce every draw.
    PINNED_DRAWS = {
        "markovian": (
            "8e0dd50e62c5e8838c67b20dc80ecf91f57dbbe8989ca33177c474bf95a3a4e9",
            "8bbb62672fd8d1672d252dd0fbcee014f75ad39d00529be52a4e6aaa862fe7ac",
        ),
        "reward-augmented": (
            "43f0e4cda33a2c787a6cb8fc019949b6e172ec837d40575e1f3f364974e6ec86",
            "4e638c8bf87599d266ced290911079916ceb713109062b45b02469ce87e82b36",
        ),
        "parametric": (
            "8694740ba00fcf8ac78beadb4956f87de02d421c4e097cdb6b6c7e5285f092eb",
            "154169f57895db018d9c51081dcf0351c37c16be6e78be9db5b83e9aa9e2e961",
        ),
        "callable": (
            "4facbe90bd623082a3ed9130b8bf224b701635f02729e69dd491d5200d93dbdd",
            "9ed407d49bfcd68864b09e43ffed4fe6752d67c534b528cb5fde77627a227434",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(PINNED_DRAWS))
    def test_draws_match_pinned_digests(self, kind):
        mdp, _ = make_instance(7, num_states=4, num_actions=3, horizon=4)
        rng = np.random.default_rng(2024)
        grid = rl.RewardGrid(0.25, mdp.horizon)

        def callable_fn(h, state, history):
            probs = np.full(3, 0.2)
            probs[(state + len(history) + sum(a for _, a in history)) % 3] = 0.6
            return probs

        policies = {
            "markovian": rl.random_markovian_policy(4, 3, 4, rng),
            "reward-augmented": random_reward_augmented_policy(
                rl.discretize_reward(mdp.reward, grid), 4, rng
            ),
            "parametric": random_parametric_policy(4, 3, 4, rng),
            "callable": rl.CallablePolicy(callable_fn),
        }
        data = rl.sample_trajectories(mdp, policies[kind], 500, seed=11)
        digests = tuple(
            hashlib.sha256(np.ascontiguousarray(x, dtype="<i8").tobytes()).hexdigest()
            for x in (data.states, data.actions)
        )
        assert digests == self.PINNED_DRAWS[kind]

    # sha256 of (states, actions) at the sizes the flat-table draw kernel and
    # the prefix-shared expert logits serve.  The first three were computed
    # with the earlier sampler (one (n x width) gather of CDF rows per draw,
    # one (n x 16 x A) weight gather per step), the two "parametric-" cases
    # with the sampler that computed the expert's logits once per trajectory
    # row; the kernel must reproduce every draw.
    PINNED_DRAWS_AT_SCALE = {
        "markovian": (
            "501050a48f485d94a03393a8975a4d447fe1087b886ba9289064fe98cab02bad",
            "1946591ecc82c16550c7859d2cf640aa40eab3b357e3ecdd39c75f3cd243afb9",
        ),
        "parametric": (
            "de95835c05bb3595cb0484a19723d2161a41b1abb437fc804a680225f9b41269",
            "6d4e6bc182a8f917e3a6788321abf031ed347a9645ee26e52dc15c1071512caa",
        ),
        "parametric-h8": (
            "6c9c00784863fd0f69832777de418ca4faf729aa3d27cde98d92afee9332e6ba",
            "d216460525f444b22a580a6ecd464523e5275e1983ee4863800921dff466d618",
        ),
        "parametric-wide": (
            "487d543c66d0ddcc907a77570a2dcca44b8b8f9a7c126d0413348743d969d19e",
            "63946ffc2f3d74dc10d334781f1dbeeef1adba13bf9aca8bd0acc2b7c8fda7c5",
        ),
        "reward-augmented": (
            "f482fb169bea1f9fc494b6b6165af5be024500e6f094f3ce8a501ec494234e04",
            "90a8b8513cefcb1c075eaa49f9b140bfc36a06a27e996fe91fb4738ed5d97194",
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
        """Every drawn expert CDF row against ``act_parametric`` on that row's history."""
        mdp, _ = make_instance(5, num_states=4, num_actions=3, horizon=4)
        policy = random_parametric_policy(4, 3, 4, np.random.default_rng(8))
        calls = []
        real_draw = policies_mod._draw

        def spy(rng, table, rows):
            calls.append((table.cdf.copy(), rows * table.width, table.width))
            return real_draw(rng, table, rows)

        monkeypatch.setattr(policies_mod, "_draw", spy)
        n = 300
        data = rl.sample_trajectories(mdp, policy, n, seed=4)
        assert len(calls) == 2 * mdp.horizon  # an action draw, then a transition draw
        for h, (flat_cdf, base, width) in enumerate(calls[::2]):
            assert width == 3 and base.shape == (n,)
            for i in range(n):
                history = list(zip(data.states[i, :h], data.actions[i, :h]))
                want = np.cumsum(act_parametric(policy, history, data.states[i, h], h))
                got = flat_cdf[base[i] : base[i] + width]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class _StubRng:
    """Stands in for a Generator: ``random(n)`` returns the chosen values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        assert n == self.values.size
        return self.values


#: Guide sizes the draw-kernel cases run through, as bits (2**bits buckets per row).
_GUIDE_BITS_CHECKED = (0, 1, 2, 4, 8)


class TestDrawKernel:
    """``_draw`` against ``min((row < u).sum(), width - 1)`` on hand-picked rows,
    by plain binary search and through guide tables of every checked size."""

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
        """0, every row value exactly (``<`` is strict), every bucket edge of the
        checked guides, the neighbours of both, and the top uniform."""
        edges = np.arange(2**8) / 2**8  # holds the edges of every smaller guide
        exact = np.concatenate([cdf, edges])
        below = np.nextafter(exact, -np.inf).clip(0.0)
        above = np.nextafter(exact, np.inf)
        picks = np.concatenate([[0.0, 0.5, 1.0 - 2.0**-53], exact, below, above])
        return np.unique(picks[picks < 1.0])

    @staticmethod
    def _tables(flat_cdf, width):
        yield policies_mod._Table(flat_cdf, width)
        for bits in _GUIDE_BITS_CHECKED:
            guide = policies_mod._guide(flat_cdf, width, bits)
            yield policies_mod._Table(flat_cdf, width, guide, bits)

    def _check(self, flat_cdf, width):
        """Every row of ``flat_cdf`` against every boundary uniform, with and without guides."""
        rows = flat_cdf.reshape(-1, width)
        index, us = [], []
        for r, cdf in enumerate(rows):
            u = self._uniforms(cdf)
            index.append(np.full(u.size, r))
            us.append(u)
        index, u = np.concatenate(index), np.concatenate(us)
        want = np.minimum((rows[index] < u[:, None]).sum(axis=1), width - 1)
        for table in self._tables(flat_cdf, width):
            got = policies_mod._draw(_StubRng(u), table, index)
            assert got.dtype == np.int64 and np.array_equal(got, want), table.bits
        return index, u, got

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 20, 50])
    def test_matches_strict_count_with_clamp(self, width):
        table = self._rows(width, np.random.default_rng(width))
        self._check(policies_mod._cdf_table(table).cdf, width)

    @pytest.mark.parametrize("width", [2, 3, 5, 8, 20, 50])
    def test_last_entry_below_one_is_clamped(self, width):
        cdf = np.cumsum(np.full(width, 1.0 / width))
        cdf[-1] = 1.0 - 2.0**-52  # one round-off below 1
        index, u, got = self._check(cdf, width)
        assert (got[u > cdf[-1]] == width - 1).all()

    @pytest.mark.parametrize("width", [2, 8, 20])
    def test_last_entries_above_one(self, width):
        """Entries of ``1 + 1e-9`` (the row check admits them) lie past every bucket."""
        cdf = np.cumsum(np.full(width, 1.0 / width))
        cdf[-1] = 1.0 + 1e-9
        self._check(cdf, width)
        cdf[width // 2 :] = 1.0 + 1e-9  # also inside the searched entries
        self._check(cdf, width)

    @pytest.mark.parametrize("width", [3, 8, 20])
    def test_entries_on_bucket_edges(self, width):
        """CDF entries exactly on a bucket edge of every checked guide, and next to one."""
        for step in (1, 2, 16, 64, 255):
            edge = np.minimum(np.arange(1, width + 1) * step, 256) / 256
            self._check(edge, width)
            self._check(np.nextafter(edge, -np.inf), width)
            self._check(np.nextafter(edge, np.inf), width)

    @pytest.mark.parametrize("width", [2, 8, 20])
    def test_one_hot_rows_at_zero_uniform(self, width):
        """``u = 0.0`` counts no entry below it, so it draws 0 even on a zero-mass action."""
        flat_cdf = policies_mod._cdf_table(np.eye(width)).cdf
        index = np.arange(width)
        for table in self._tables(flat_cdf, width):
            got = policies_mod._draw(_StubRng(np.zeros(width)), table, index)
            assert (got == 0).all()

    @pytest.mark.parametrize("width", [1, 2, 5, 7])
    def test_no_guide_below_the_width_threshold(self, width):
        assert width < policies_mod._GUIDE_MIN_WIDTH
        table = policies_mod._cdf_table(np.full((3, width), 1.0 / width), n=10**6)
        assert table.guide is None

    @pytest.mark.parametrize("n, bits", [(0, None), (10 * 15, None), (10 * 16, 4),
                                         (10 * 100, 6), (10 * 256, 8), (10**6, 8)])
    def test_guide_size_stays_within_n(self, n, bits):
        probs = np.random.default_rng(1).dirichlet(np.ones(8), size=(2, 5))  # 10 rows
        table = policies_mod._cdf_table(probs, n)
        if bits is None:
            assert table.guide is None
        else:
            assert table.bits == bits and table.guide.size == 10 << bits <= n
            self._check(table.cdf, 8)

    def test_negative_entry_draws_like_its_clipped_row(self):
        row = np.array([0.5, -1e-12, 0.5 + 1e-12])
        clipped = np.maximum(row, 0.0)
        flat_cdf = policies_mod._cdf_table(row).cdf
        assert np.array_equal(flat_cdf, np.cumsum(clipped))
        self._check(flat_cdf, 3)
        # unclipped, the dip would count entry 1 below u and draw its zero-mass action
        u = 0.5 - 0.5e-12
        assert (np.cumsum(row) < u).sum() == 1
        for table in self._tables(flat_cdf, 3):
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
            lambda: rl.RewardAugmentedPolicy(grid=gr.grid, table=augmented, reward=gr),
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


class TestGuidedSampling:
    @pytest.mark.parametrize("num_states", [8, 20])
    def test_guided_tables_draw_like_plain_search(self, monkeypatch, num_states):
        """The sampler with guide tables against the sampler without, draw for draw."""
        mdp, _ = make_instance(4, num_states=num_states, num_actions=5, horizon=5)
        rng = np.random.default_rng(6)
        gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, mdp.horizon))
        policies = [
            rl.random_markovian_policy(num_states, 5, 5, rng),
            random_reward_augmented_policy(gr, num_states, rng),
            random_parametric_policy(num_states, 5, 5, rng),
        ]
        n = 40_000
        guided = [rl.sample_trajectories(mdp, pol, n, seed=2) for pol in policies]
        assert policies_mod._cdf_table(mdp.transitions, n).guide is not None
        monkeypatch.setattr(policies_mod, "_GUIDE_MIN_WIDTH", 10**9)
        assert policies_mod._cdf_table(mdp.transitions, n).guide is None
        for pol, got in zip(policies, guided):
            want = rl.sample_trajectories(mdp, pol, n, seed=2)
            assert np.array_equal(got.states, want.states)
            assert np.array_equal(got.actions, want.actions)


class TestActParametric:
    def test_zero_weights_give_uniform(self):
        pol = rl.ParametricHistoryPolicy(np.zeros((6, 16)), np.zeros((2, 16, 3)))
        probs = act_parametric(pol, [(0, 1)], state=1, h=1)
        assert probs == pytest.approx(np.full(3, 1 / 3))

    def test_equal_encodings_equal_outputs(self, rng):
        pol = random_parametric_policy(3, 2, 3, rng)
        a = act_parametric(pol, [(2, 1), (0, 0)], state=1, h=2)
        b = act_parametric(pol, [(2, 1), (0, 0)], state=1, h=2)
        assert np.array_equal(a, b)
        c = act_parametric(pol, [(2, 1), (1, 0)], state=1, h=2)
        assert not np.array_equal(a, c)

    def test_distribution_is_valid(self, rng):
        pol = random_parametric_policy(4, 3, 4, rng)
        probs = act_parametric(pol, [(3, 2), (1, 0), (2, 1)], state=0, h=3)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs > 0).all()


class TestEnumeration:
    @pytest.mark.parametrize(
        "kind", ["markovian", "reward-augmented", "parametric-history", "callable"]
    )
    def test_rows_are_distinct_trajectories_with_unit_mass(self, kind):
        if kind == "callable":
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
        mdp = rl.TabularMdp(4, 4, horizon, 0, transitions, np.zeros((horizon, 4, 4)))
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
        mdp = rl.TabularMdp(2, 1, horizon, 0, transitions, np.ones((horizon, 2, 1)))
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
        # a Markovian table broadcast over g, on a benchmark-sized instance:
        # theta != rho runs the joint-accumulator path, theta == rho the single
        mdp, _ = make_instance(5, num_states=50, num_actions=5, horizon=5, rho=0.03)
        eval_grid = rl.RewardGrid(0.03, mdp.horizon)
        markov = rl.random_markovian_policy(50, 5, 5, np.random.default_rng(5))
        pol_grid = rl.RewardGrid(theta, mdp.horizon)
        n_g = pol_grid.num_multiples(mdp.horizon - 1)
        lifted = rl.RewardAugmentedPolicy(
            grid=pol_grid,
            table=np.repeat(markov.table[:, :, None, :], n_g, axis=2),
            reward=rl.discretize_reward(mdp.reward, pol_grid),
        )
        expected = rl.exact_return_distribution(mdp, markov, mdp.reward, eval_grid)
        got = rl.exact_return_distribution(mdp, lifted, mdp.reward, eval_grid)
        assert np.array_equal(got.support, expected.support)
        assert np.abs(got.probs - expected.probs).max() <= 1e-12
        assert rl.wasserstein(got, expected) <= 1e-12

    def test_rejects_non_dp_policies(self):
        mdp, expert = rl.make_fork_fixture()
        with pytest.raises(TypeError):
            rl.exact_return_distribution(mdp, expert, mdp.reward, rl.RewardGrid(1.0, 3))


class TestMonteCarlo:
    def test_deterministic_point_mass(self):
        horizon = 3
        transitions = np.zeros((horizon, 2, 1, 2))
        transitions[:, :, 0, 0] = 1.0
        mdp = rl.TabularMdp(2, 1, horizon, 0, transitions, np.full((horizon, 2, 1), 0.5))
        policy = rl.MarkovianPolicy(np.ones((horizon, 2, 1)))
        d = rl.mc_return_distribution(mdp, policy, mdp.reward, 100, seed=3)
        assert d.support.size == 1

    @staticmethod
    def _policy(kind, mdp, rng):
        num_states, num_actions, horizon = mdp.num_states, mdp.num_actions, mdp.horizon
        if kind == "markovian":
            return rl.random_markovian_policy(num_states, num_actions, horizon, rng)
        if kind == "reward-augmented":
            gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(0.25, horizon))
            return random_reward_augmented_policy(gr, num_states, rng)
        if kind == "parametric":
            return random_parametric_policy(num_states, num_actions, horizon, rng)

        def fn(h, state, history):
            probs = np.full(num_actions, 0.5 / num_actions)
            probs[(state + sum(a for _, a in history)) % num_actions] += 0.5
            return probs

        return rl.CallablePolicy(fn)

    @pytest.mark.parametrize("horizon", [5, 8, 10])
    @pytest.mark.parametrize("kind", ["markovian", "reward-augmented", "parametric", "callable"])
    def test_equals_empirical_distribution_of_sampled_trajectories(self, kind, horizon):
        """Bit for bit against the trajectories' empirical distribution.

        At H >= 8 numpy sums the rows of an (m, H) block pairwise, so the
        returns must be summed as a block, not by a running total."""
        mdp, _ = make_instance(
            horizon, num_states=10, num_actions=3, horizon=horizon, continuous_reward=True
        )
        policy = self._policy(kind, mdp, np.random.default_rng(horizon))
        m = 400 if kind == "callable" else 6000
        if kind != "callable":  # wide enough for a guide on the transitions
            assert policies_mod._cdf_table(mdp.transitions, m).guide is not None
        got = rl.mc_return_distribution(mdp, policy, mdp.reward, m, seed=5)
        data = rl.sample_trajectories(mdp, policy, m, seed=5)
        want = rl.empirical_return_distribution(data, mdp.reward)
        assert np.array_equal(got.support, want.support)
        assert np.array_equal(got.probs, want.probs)

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

    def test_agrees_with_dp_within_dkw(self):
        mdp, _ = make_instance(9, rho=0.25)
        grid = rl.RewardGrid(0.25, mdp.horizon)
        rng = np.random.default_rng(3)
        policy = rl.random_markovian_policy(mdp.num_states, mdp.num_actions, mdp.horizon, rng)
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

    def test_stage_masses_are_one(self):
        mdp, _ = make_instance(19, rho=0.5)
        grid = rl.RewardGrid(0.5, mdp.horizon)
        rng = np.random.default_rng(6)
        gr = rl.discretize_reward(mdp.reward, grid)
        policy = random_reward_augmented_policy(gr, mdp.num_states, rng)
        occ = exact_augmented_occupancy(mdp, policy, gr)
        assert occ.sum(axis=(1, 2, 3)) == pytest.approx(np.ones(mdp.horizon), abs=1e-10)


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
    """``exact_return_distribution`` on the dense-box kernel (reference)."""
    gr_eval = rl.discretize_reward(reward, grid)
    shifts, limits = gr_eval.multiples[..., None], (grid.full_size,)
    if isinstance(policy, rl.MarkovianPolicy):
        phi = policy.table[:, :, None, :]
    elif policy.grid == grid and np.array_equal(policy.reward.multiples, gr_eval.multiples):
        phi = policy.table
    else:
        phi = policy.table[:, :, :, None, :]
        pol_shifts = policy.reward.multiples.copy()
        pol_shifts[-1] = 0
        shifts = np.stack([pol_shifts, gr_eval.multiples], axis=-1)
        limits = (policy.table.shape[2], grid.full_size)
    mass = np.zeros((mdp.num_states,) + (1,) * len(limits))
    mass[mdp.initial_state] = 1.0
    for h in range(mdp.horizon):
        mass = _dense_push_stage(mass, phi[h], mdp.transitions[h], shifts[h], limits)
    totals = mass.sum(axis=tuple(range(mass.ndim - 1)))
    support = np.nonzero(totals > 0.0)[0]
    return rl.DiscreteReturnDistribution(support * grid.theta, totals[support])


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
    return rl.TabularMdp(3, 2, 4, 0, transitions, reward)


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

    def test_mass_past_a_limit_is_dropped_not_wrapped(self):
        # box (2, 3); cells (0, 1) and (0, 2) shifted by (0, 1): (0, 2) stays in
        # the box, (0, 3) is past the last axis's limit.  Its flat key 3 is the
        # cell (1, 0), which must receive nothing.
        cells = np.array([1, 2])
        mass = np.array([[0.25, 0.75]])
        transitions = np.ones((1, 1, 1))
        shifts = np.array([[[0, 1]]])
        nxt_cells, nxt = policies_mod._push_stage(
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
        nxt_cells, nxt = policies_mod._push_stage(cells, mass, pol, transitions, shifts, limits)

        got = np.zeros((num_states, *limits))
        got.reshape(num_states, -1)[:, nxt_cells] = nxt
        reach = expected.shape[1:]
        assert not got[:, reach[0]:].any() and not got[:, :, reach[1]:].any()
        assert np.array_equal(got[:, : reach[0], : reach[1]], expected)
        assert nxt.sum() < mass.sum()  # some mass was shifted past a limit
