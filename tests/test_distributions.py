import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdmlab as rl
from rdmlab.distributions import ATOM_MERGE_TOL, DiscreteReturnDistribution
from rdmlab.lp import solve_transport

from conftest import random_distribution


def dist(mapping):
    items = sorted(mapping.items())
    return DiscreteReturnDistribution(
        np.array([k for k, _ in items], dtype=float),
        np.array([v for _, v in items], dtype=float),
    )


def fork_family(alpha):
    return dist({0.0: alpha / 2, 1.0: 0.5, 2.0: (1 - alpha) / 2} if 0 < alpha < 1
                else ({1.0: 0.5, 2.0: 0.5} if alpha == 0 else {0.0: 0.5, 1.0: 0.5}))


@st.composite
def distributions(draw, max_atoms=5, high=5.0):
    size = draw(st.integers(1, max_atoms))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    values = rng.uniform(0, high, size=size)
    probs = rng.dirichlet(np.ones(size))
    return DiscreteReturnDistribution.from_weighted(values, probs)


class TestConstruction:
    def test_atoms_merge_within_tolerance(self):
        d = DiscreteReturnDistribution.from_weighted(
            [1.0, 1.0 + 5e-13, 2.0], [0.25, 0.25, 0.5]
        )
        assert d.support.size == 2
        assert d.probs[0] == pytest.approx(0.5)

    def test_rejects_non_increasing_support(self):
        with pytest.raises(ValueError):
            DiscreteReturnDistribution(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            DiscreteReturnDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.4]))


class TestOnGrid:
    def test_zero_entries_are_dropped_and_support_is_grid_multiples(self):
        d = DiscreteReturnDistribution.on_grid(np.array([0.0, 0.5, 0.0, 0.25, 0.25]), 0.1)
        assert d.support.tolist() == [1 * 0.1, 3 * 0.1, 4 * 0.1]
        assert d.probs.tolist() == [0.5, 0.25, 0.25]

    @pytest.mark.parametrize("seed", range(5))
    def test_integer_counts_give_the_law_of_count_over_n(self, seed):
        # the constructor divides by the float sum of count / N once more, so
        # compare with the distribution built from count / N itself
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 4, size=40) * rng.integers(0, 10**6, size=40)
        counts[0] = 1
        n = int(counts.sum())
        keep = np.flatnonzero(counts)
        expected = DiscreteReturnDistribution(keep * 0.05, counts[keep] / n)
        for mass in (counts, counts.astype(float)):
            d = DiscreteReturnDistribution.on_grid(mass, 0.05)
            assert np.array_equal(d.support, expected.support)
            assert np.array_equal(d.probs, expected.probs)
            assert d.probs == pytest.approx(counts[keep] / n, rel=1e-15, abs=0)

    @pytest.mark.parametrize("mass", [np.zeros(3), np.zeros(3, dtype=np.int64)])
    def test_all_zero_mass_is_refused(self, mass):
        with pytest.raises(ValueError):
            DiscreteReturnDistribution.on_grid(mass, 0.5)


class TestWasserstein:
    def test_identical_is_zero(self):
        d = dist({0.0: 0.3, 1.5: 0.7})
        assert rl.wasserstein(d, d) == 0.0

    def test_point_masses(self):
        a = DiscreteReturnDistribution.point_mass(0.25)
        b = DiscreteReturnDistribution.point_mass(2.0)
        assert rl.wasserstein(a, b) == pytest.approx(1.75)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_fork_gap_is_half(self, alpha):
        expert = DiscreteReturnDistribution.point_mass(1.0)
        assert rl.wasserstein(expert, fork_family(alpha)) == pytest.approx(0.5, abs=1e-12)


class TestTotalVariation:
    def test_identical_and_disjoint(self):
        d = dist({0.0: 0.5, 1.0: 0.5})
        e = dist({2.0: 0.5, 3.0: 0.5})
        assert rl.total_variation(d, d) == 0.0
        assert rl.total_variation(d, e) == pytest.approx(1.0)

    def test_direct_formula(self):
        d = dist({0.0: 0.5, 1.0: 0.5})
        e = dist({0.0: 0.25, 1.0: 0.75})
        assert rl.total_variation(d, e) == pytest.approx(0.25)


class TestCvar:
    def test_point_mass(self):
        d = DiscreteReturnDistribution.point_mass(0.7)
        for alpha in (0.05, 0.5, 0.95):
            assert rl.cvar(d, alpha) == pytest.approx(0.7)

    def test_level_hits_atom_boundary(self):
        d = dist({0.0: 0.5, 1.0: 0.5})
        assert rl.cvar(d, 0.5) == pytest.approx(0.0)

    def test_straddled_atom_splits(self):
        d = dist({0.0: 0.25, 1.0: 0.75})
        assert rl.cvar(d, 0.5) == pytest.approx(0.5)

    @given(distributions(), st.sampled_from([0.1, 0.3, 0.5, 0.9]))
    @settings(max_examples=60, deadline=None)
    def test_matches_riemann_sum_oracle(self, d, alpha):
        # independent oracle: integrate the quantile function on a fine grid
        u = (np.arange(200_000) + 0.5) / 200_000
        u = u[u <= alpha]
        cdf = np.cumsum(d.probs)
        idx = np.searchsorted(cdf, u, side="left")
        idx = np.minimum(idx, d.support.size - 1)
        oracle = d.support[idx].sum() / 200_000 / alpha
        assert rl.cvar(d, alpha) == pytest.approx(oracle, abs=2e-4)

    def test_alpha_range_checked(self):
        d = DiscreteReturnDistribution.point_mass(1.0)
        for alpha in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                rl.cvar(d, alpha)


class TestMoments:
    def test_point_mass(self):
        d = DiscreteReturnDistribution.point_mass(3.0)
        assert rl.mean(d) == 3.0 and rl.variance(d) == 0.0

    def test_two_atom(self):
        d = dist({0.0: 0.5, 2.0: 0.5})
        assert rl.mean(d) == pytest.approx(1.0)
        assert rl.variance(d) == pytest.approx(1.0)

    def test_fork_family_mean(self):
        assert rl.mean(fork_family(1.0)) == pytest.approx(0.5)


class TestDkwBand:
    def test_closed_form_value(self):
        band = rl.dkw_band(10_000, 0.05)
        assert band == pytest.approx(0.013581, abs=1e-6)
        # oracle: the band solves 2 exp(-2 N eps^2) = delta
        assert 2 * math.exp(-2 * 10_000 * band**2) == pytest.approx(0.05, rel=1e-12)

    def test_quadrupling_halves(self):
        assert rl.dkw_band(4000, 0.1) == pytest.approx(rl.dkw_band(1000, 0.1) / 2)

    def test_delta_near_one_stays_positive(self):
        assert 0 < rl.dkw_band(100, 0.999) < rl.dkw_band(100, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            rl.dkw_band(0, 0.5)
        with pytest.raises(ValueError):
            rl.dkw_band(10, 1.0)


class TestEmpirical:
    def test_single_trajectory_point_mass(self):
        data = rl.Dataset(np.array([[0, 1]]), np.array([[0, 0]]), 2, 1)
        reward = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])
        d = rl.empirical_return_distribution(data, reward)
        assert d.support.tolist() == [2.0] and d.probs.tolist() == [1.0]

    def test_two_trajectories_split(self):
        data = rl.Dataset(np.array([[0], [1]]), np.array([[0], [0]]), 2, 1)
        reward = np.array([[[0.0], [1.0]]])
        d = rl.empirical_return_distribution(data, reward)
        assert d.support.tolist() == [0.0, 1.0]
        assert d.probs.tolist() == [0.5, 0.5]

    def test_grid_path_collapses_equal_sums(self):
        # two trajectories visiting different cells but with equal grid returns
        data = rl.Dataset(np.array([[0, 1], [1, 0]]), np.array([[0, 0], [0, 0]]), 2, 1)
        reward = np.array([[[0.5001], [0.2499]], [[0.5001], [0.2499]]])
        d = rl.empirical_return_distribution(data, reward, rl.RewardGrid(0.25, 2))
        assert d.support.tolist() == [0.75]

    def test_fork_converges_within_dkw_band(self):
        mdp, expert = rl.make_fork_fixture()
        data = rl.sample_trajectories(mdp, expert, 10_000, seed=5)
        d = rl.empirical_return_distribution(data, mdp.reward)
        w = rl.wasserstein(d, DiscreteReturnDistribution.point_mass(1.0))
        assert w <= mdp.horizon * rl.dkw_band(10_000, 0.05)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            rl.Dataset(np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int), 1, 1)


class TestMetricProperties:
    @given(distributions(), distributions())
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_nonnegativity(self, p, q):
        assert rl.wasserstein(p, q) >= 0
        assert rl.wasserstein(p, q) == pytest.approx(rl.wasserstein(q, p), abs=1e-12)
        assert rl.total_variation(p, q) == pytest.approx(rl.total_variation(q, p), abs=1e-12)

    @given(distributions())
    @settings(max_examples=40, deadline=None)
    def test_identity_of_indiscernibles(self, p):
        assert rl.wasserstein(p, p) <= 1e-12
        assert rl.total_variation(p, p) <= 1e-12

    @given(distributions(), distributions(), distributions())
    @settings(max_examples=80, deadline=None)
    def test_triangle_inequality(self, p, q, r):
        assert rl.wasserstein(p, r) <= rl.wasserstein(p, q) + rl.wasserstein(q, r) + 1e-12
        assert rl.total_variation(p, r) <= (
            rl.total_variation(p, q) + rl.total_variation(q, r) + 1e-12
        )


class TestWassersteinBounds:
    def test_moment_and_cvar_and_variance_bounds(self):
        # Wasserstein controls mean, CVaR (scaled by 1/alpha), and variance
        # (scaled by 4H) deviations; checked over random pairs on [0, H].
        rng = np.random.default_rng(99)
        horizon = 5.0
        for _ in range(300):
            p = random_distribution(rng, high=horizon)
            q = random_distribution(rng, high=horizon)
            w = rl.wasserstein(p, q)
            assert abs(rl.mean(p) - rl.mean(q)) <= w + 1e-10
            for alpha in (0.1, 0.5, 0.9):
                assert abs(rl.cvar(p, alpha) - rl.cvar(q, alpha)) <= w / alpha + 1e-10
            assert abs(rl.variance(p) - rl.variance(q)) <= 4 * horizon * w + 1e-9

    def test_wasserstein_bounded_by_diameter_times_tv(self):
        rng = np.random.default_rng(7)
        horizon = 4.0
        for _ in range(200):
            p = random_distribution(rng, high=horizon)
            q = random_distribution(rng, high=horizon)
            assert rl.wasserstein(p, q) <= horizon * rl.total_variation(p, q) + 1e-10


class TestCouplingOracle:
    def test_matches_transport_lp(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = random_distribution(rng)
            q = random_distribution(rng)
            costs = np.abs(p.support[:, None] - q.support[None, :])
            lp_value = solve_transport(costs, p.probs, q.probs)
            assert rl.wasserstein(p, q) == pytest.approx(lp_value, abs=1e-9)


def _stable_from_weighted(values, weights):
    """Reference merge: stable argsort, then per-group ``np.add.at`` sums."""
    values = np.asarray(values, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    order = np.argsort(values, kind="stable")
    v, w = values[order], weights[order]
    group = np.zeros(v.size, dtype=np.int64)
    group[1:] = np.cumsum(np.diff(v) > ATOM_MERGE_TOL)
    n_groups = int(group[-1]) + 1
    mass = np.zeros(n_groups)
    np.add.at(mass, group, w)
    pos = np.zeros(n_groups)
    np.add.at(pos, group, v * w)
    keep = mass > 0
    return DiscreteReturnDistribution(pos[keep] / mass[keep], mass[keep])


def _stable_aligned(p, q):
    """Reference common support: stable argsort, first value per group, ``np.add.at`` sums."""
    v = np.concatenate([p.support, q.support])
    wp = np.concatenate([p.probs, np.zeros_like(q.probs)])
    wq = np.concatenate([np.zeros_like(p.probs), q.probs])
    order = np.argsort(v, kind="stable")
    v, wp, wq = v[order], wp[order], wq[order]
    group = np.zeros(v.size, dtype=np.int64)
    group[1:] = np.cumsum(np.diff(v) > ATOM_MERGE_TOL)
    n = int(group[-1]) + 1
    values = np.zeros(n)
    values[group[::-1]] = v[::-1]
    pa, qa = np.zeros(n), np.zeros(n)
    np.add.at(pa, group, wp)
    np.add.at(qa, group, wq)
    return values, pa, qa


def _reference_metrics(p, q):
    values, pa, qa = _stable_aligned(p, q)
    w1 = 0.0 if values.size == 1 else float(np.abs(np.cumsum(pa - qa)[:-1]) @ np.diff(values))
    return w1, float(0.5 * np.abs(pa - qa).sum())


def _same(a, b):
    return (
        np.array_equal(a.support, b.support)
        and np.array_equal(a.probs, b.probs)
        and np.array_equal(np.signbit(a.support), np.signbit(b.support))
    )


class TestEqualWeightMerge:
    """``from_weighted`` with equal weights against the stable reference merge."""

    @staticmethod
    def _check(values):
        values = np.asarray(values, dtype=float)
        weights = np.full(values.size, 1.0 / values.size)
        got = DiscreteReturnDistribution.from_weighted(values, weights)
        assert _same(got, _stable_from_weighted(values, weights))

    def test_ties(self):
        rng = np.random.default_rng(3)
        self._check(rng.integers(0, 7, size=5000) * 0.1)
        self._check(np.repeat([2.5, 0.5, 1.5], [3, 1, 4]))

    def test_near_duplicates_within_merge_tolerance(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 40, size=20_000) * 0.05
        jitter = rng.choice([-4e-13, -1e-13, 0.0, 1e-13, 4e-13], size=base.size)
        self._check(base + jitter)
        # float sums of the same grid multiples in different orders
        steps = rng.integers(0, 34, size=(20_000, 8)) * 0.03
        self._check(steps.sum(axis=1))
        self._check(np.cumsum(steps, axis=1)[:, -1])

    def test_single_value(self):
        self._check([0.7])
        self._check(np.full(9, 0.7))

    def test_signed_zeros(self):
        rng = np.random.default_rng(5)
        self._check(rng.choice([-0.0, 0.0], size=101))
        self._check(np.concatenate([[0.0, -0.0, 1e-13, -1e-13, 1.0], -np.zeros(3)]))
        self._check([-0.0])

    def test_returns_at_scale_shape(self):
        mdp, expert = rl.make_fork_fixture()
        data = rl.sample_trajectories(mdp, expert, 50_000, seed=9)
        steps = mdp.reward[np.arange(mdp.horizon), data.states, data.actions]
        self._check(steps.sum(axis=1))

    def test_unequal_weights_keep_the_stable_merge(self):
        rng = np.random.default_rng(6)
        values = rng.integers(0, 9, size=3000) * 0.25 + rng.choice([0.0, 3e-13], size=3000)
        weights = rng.dirichlet(np.ones(values.size))
        got = DiscreteReturnDistribution.from_weighted(values, weights)
        assert _same(got, _stable_from_weighted(values, weights))


class TestAlignedMetricsBitIdentical:
    """``wasserstein`` and ``total_variation`` against the ``np.add.at`` reference."""

    PAIRS = [
        (dist({0.0: 0.3, 1.5: 0.7}), dist({0.0: 0.3, 1.5: 0.7})),
        (DiscreteReturnDistribution.point_mass(0.25), DiscreteReturnDistribution.point_mass(2.0)),
        (dist({0.0: 0.5, 1.0: 0.5}), dist({2.0: 0.5, 3.0: 0.5})),
        (dist({0.0: 0.5, 1.0: 0.5}), dist({0.0: 0.25, 1.0: 0.75})),
        (dist({1.0: 1.0}), dist({1.0 + 5e-13: 0.5, 2.0: 0.5})),
    ] + [(DiscreteReturnDistribution.point_mass(1.0), fork_family(a))
         for a in (0.0, 0.25, 0.5, 0.75, 1.0)]

    @pytest.mark.parametrize("pair", range(len(PAIRS)))
    def test_fixture_pairs(self, pair):
        p, q = self.PAIRS[pair]
        assert (rl.wasserstein(p, q), rl.total_variation(p, q)) == _reference_metrics(p, q)

    def test_random_pairs(self):
        rng = np.random.default_rng(17)
        for i in range(300):
            p = random_distribution(rng, max_atoms=12)
            q = random_distribution(rng, max_atoms=12)
            if i % 3 == 0:  # shared atoms, exactly and within the merge tolerance
                shift = rng.choice([0.0, 4e-13], size=p.support.size)
                q = DiscreteReturnDistribution.from_weighted(
                    np.concatenate([q.support, p.support + shift]),
                    np.concatenate([q.probs, p.probs]) / 2,
                )
            assert (rl.wasserstein(p, q), rl.total_variation(p, q)) == _reference_metrics(p, q)
