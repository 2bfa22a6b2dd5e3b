import hashlib

import numpy as np
import pytest

import rdmlab as rl
import rdmlab.baselines as baselines_mod
import rdmlab.bench as bench_mod
import rdmlab.rskt as rskt_mod
from rdmlab.bench import (
    RESULTS_HEADER,
    collect_example_distributions,
    derive_seed,
    emit_results,
    read_results,
)
from rdmlab.lp import LpError, LpIterationError, LpSizeError
from rdmlab.policies import EnumerationCapError
from rdmlab.serialize import format_distribution

from conftest import KNOWN_BAD_PIVOT_CFG, KNOWN_BAD_PIVOT_SEEDS, direct_grid_law


def tiny_cfg(**overrides):
    base = dict(
        num_states=2,
        num_actions=2,
        horizon=3,
        theta=0.5,
        rho=0.5,
        expert_kind="markovian",
        n_sweep=(10, 40),
        instances=3,
        seeds_per_dataset=2,
        eval_mode="exact-dp",
        algorithms=("bc",),
        master_seed=7,
    )
    base.update(overrides)
    return rl.ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_cfg(theta=0.0)
        with pytest.raises(ValueError):
            tiny_cfg(n_sweep=(10, 10))
        with pytest.raises(ValueError):
            tiny_cfg(algorithms=("nope",))
        with pytest.raises(ValueError):
            tiny_cfg(expert_kind="parametric-history")  # exact-dp needs markovian

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"n_sweep": (0, 5)}, "positive"),
            ({"n_sweep": (-3,)}, "positive"),
            ({"algorithms": ("bc", "bc")}, "duplicate"),
            ({"algorithms": ("rs-bc", "bc", "rs-bc")}, "duplicate"),
            ({"n_sweep": (10.7, 40)}, "whole numbers"),
            ({"n_sweep": (10, 40.5)}, "whole numbers"),
            ({"theta": 1 / (10 - 5e-10)}, "do not nest at k=3"),
            ({"rho": 1 / (10 - 5e-10)}, "do not nest at k=3"),
        ],
    )
    def test_rejects_input_it_cannot_run(self, override, match):
        """A sample size below one or not a whole number, an algorithm named
        twice, or a step whose grids do not nest over the horizon is refused
        when the config is built, before any instance is generated."""
        with pytest.raises(ValueError, match=match):
            tiny_cfg(**override)

    def test_whole_float_sample_sizes_become_ints(self):
        cfg = tiny_cfg(n_sweep=(10.0, 4e1))
        assert cfg.n_sweep == (10, 40) and all(type(n) is int for n in cfg.n_sweep)

    def test_json_round_trip(self, tmp_path):
        import json

        from rdmlab.bench import load_config

        cfg = tiny_cfg()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg.__dict__, "n_sweep": list(cfg.n_sweep),
                                    "algorithms": list(cfg.algorithms)}))
        assert load_config(path) == cfg


class TestDeriveSeed:
    def test_deterministic_and_path_sensitive(self):
        assert derive_seed(1, "dataset", 0, 1, 2) == derive_seed(1, "dataset", 0, 1, 2)
        assert derive_seed(1, "dataset", 0, 1, 2) != derive_seed(1, "dataset", 0, 2, 1)
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestGenerateInstance:
    def test_rho_one_gives_binary_rewards(self):
        cfg = tiny_cfg(rho=1.0, theta=1.0)
        mdp, _ = rl.generate_instance(cfg, 5)
        assert set(np.unique(mdp.reward)) <= {0.0, 1.0}

    def test_instances_are_valid_and_reproducible(self):
        cfg = tiny_cfg()
        mdp1, _ = rl.generate_instance(cfg, 9)
        mdp2, _ = rl.generate_instance(cfg, 9)
        assert rl.validate_mdp(mdp1) == []
        assert np.array_equal(mdp1.transitions, mdp2.transitions)
        assert np.array_equal(mdp1.reward, mdp2.reward)
        assert mdp1.initial_state == mdp2.initial_state

    def test_deterministic_row_frequency(self):
        # across 10^4 rows, about 70% are exactly one-hot
        cfg = rl.ExperimentConfig(
            num_states=10, num_actions=10, horizon=100, theta=1.0, rho=1.0,
            expert_kind="markovian", n_sweep=(1,), instances=1,
            seeds_per_dataset=1, eval_mode="exact-dp",
        )
        mdp, _ = rl.generate_instance(cfg, 123)
        rows = mdp.transitions.reshape(-1, mdp.num_states)
        onehot = (rows.max(axis=1) == 1.0).mean()
        assert onehot == pytest.approx(0.7, abs=0.02)

    def test_parametric_expert_kind(self):
        cfg = tiny_cfg(expert_kind="parametric-history", eval_mode="enumeration")
        _, expert = rl.generate_instance(cfg, 2)
        assert isinstance(expert, rl.ParametricHistoryPolicy)


class TestRunExperiment:
    def test_bc_error_shrinks_on_markovian_experts(self):
        cfg = tiny_cfg(
            num_states=2, num_actions=2, horizon=5, theta=0.25, rho=0.25,
            instances=20, n_sweep=(10, 100, 1000),
        )
        rows = rl.run_experiment(cfg)
        medians = [np.nanmedian(r.per_instance) for r in rows]
        assert medians[0] >= medians[1] >= medians[2]
        assert all(r.failures == 0 for r in rows)

    def test_errors_bounded_by_horizon(self):
        cfg = tiny_cfg(instances=4)
        for row in rl.run_experiment(cfg):
            values = np.asarray(row.per_instance)
            assert np.nanmax(values) <= cfg.horizon

    def test_empty_algorithm_set_gives_no_rows(self):
        assert rl.run_experiment(tiny_cfg(algorithms=())) == []

    def test_aggregation_matches_naive_recomputation(self):
        cfg = tiny_cfg(instances=5)
        for row in rl.run_experiment(cfg):
            values = np.asarray(row.per_instance)
            ok = values[~np.isnan(values)]
            assert row.mean == pytest.approx(float(ok.mean()))
            assert row.std == pytest.approx(float(ok.std(ddof=1)))

    def test_all_algorithms_run(self):
        cfg = tiny_cfg(
            algorithms=("rs-bc", "rs-kt", "bc", "mimic-md", "eta-hat"),
            instances=2,
            n_sweep=(16,),
        )
        rows = rl.run_experiment(cfg)
        assert {r.algorithm for r in rows} == set(cfg.algorithms)
        assert all(r.failures == 0 for r in rows)

    def test_count_readers_score_like_the_dataset_walks(self):
        # every fit reads one count tensor per dataset; the public functions
        # each walk the dataset, eta-hat is the direct per-trajectory sum, and
        # each must give the same W1, bit for bit
        cfg = tiny_cfg(
            theta=0.5, rho=0.25, algorithms=bench_mod.KNOWN_ALGORITHMS,
            instances=2, n_sweep=(16, 64),
        )
        result = rl.run_experiment(cfg)
        assert all(r.failures == 0 for r in result)  # rs-kt's LP runs on every dataset
        rows = {(r.algorithm, r.n): r.per_instance for r in result}
        grid = rl.RewardGrid(cfg.theta, cfg.horizon)
        for i in range(cfg.instances):
            mdp, expert = rl.generate_instance(cfg, derive_seed(cfg.master_seed, "instance", i))
            truth = bench_mod._expert_distribution(cfg, mdp, expert, i)
            for k, n in enumerate(cfg.n_sweep):
                errors = {alg: [] for alg in cfg.algorithms}
                for j in range(cfg.seeds_per_dataset):
                    data = rl.sample_trajectories(
                        mdp, expert, n, derive_seed(cfg.master_seed, "dataset", i, k, j)
                    )
                    policies = (
                        rl.rs_bc(data, mdp.reward, grid),
                        rl.rs_kt(data, mdp, mdp.reward, grid)[0],
                        rl.bc(data),
                        rl.mimic_md(data, mdp),
                    )
                    for idx, policy in enumerate(policies):
                        seed = derive_seed(cfg.master_seed, "policy-eval", i, k, j, idx)
                        dist = bench_mod._policy_distribution(cfg, mdp, policy, seed)
                        errors[cfg.algorithms[idx]].append(rl.wasserstein(dist, truth))
                    estimate = direct_grid_law(data, rl.discretize_reward(mdp.reward, grid))
                    errors["eta-hat"].append(2.0 * rl.wasserstein(estimate, truth))
                for alg in cfg.algorithms:
                    assert rows[(alg, n)][i] == float(np.mean(errors[alg]))

    @staticmethod
    def _flaky_bc(monkeypatch, error):
        """Make every third ``bc`` fit in the harness raise ``error``."""
        calls = {"n": 0}
        original = bench_mod.bc_from_counts

        def flaky(counts):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise error
            return original(counts)

        monkeypatch.setattr(bench_mod, "bc_from_counts", flaky)

    def test_per_run_failures_recorded_not_fatal(self, monkeypatch):
        self._flaky_bc(monkeypatch, LpError("synthetic failure"))
        cfg = tiny_cfg(instances=4, n_sweep=(10,))
        rows = rl.run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].failures > 0
        ok = [v for v in rows[0].per_instance if not np.isnan(v)]
        assert ok and np.isfinite(rows[0].mean)

    @pytest.mark.parametrize("error", [LpIterationError, LpSizeError, EnumerationCapError])
    def test_every_expected_failure_type_is_counted(self, monkeypatch, error):
        self._flaky_bc(monkeypatch, error("synthetic failure"))
        rows = rl.run_experiment(tiny_cfg(instances=4, n_sweep=(10,)))
        assert rows[0].failures == 2  # calls 3 and 6 of 8

    @pytest.mark.parametrize("error", [TypeError, RuntimeError])
    def test_programming_errors_propagate(self, monkeypatch, error):
        self._flaky_bc(monkeypatch, error("synthetic bug"))
        with pytest.raises(error, match="synthetic bug"):
            rl.run_experiment(tiny_cfg(instances=4, n_sweep=(10,)))

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_cfg(instances=4)
        paths = []
        for name in ("a.csv", "b.csv"):
            rows = rl.run_experiment(cfg)
            target = tmp_path / name
            emit_results(rows, target)
            paths.append(target.read_bytes())
        assert paths[0] == paths[1]

    def test_csv_digest_is_pinned(self, tmp_path):
        """sha256 of the CSV of a desk-shaped run of all five algorithms with
        enumeration truth (the rs-kt and mimic-md programs start from their
        crash bases): one moved bit in any result moves it."""
        cfg = rl.ExperimentConfig(
            num_states=2, num_actions=2, horizon=5, theta=0.05, rho=0.03,
            expert_kind="parametric-history", n_sweep=(30, 1000), instances=3,
            seeds_per_dataset=1, eval_mode="enumeration",
            algorithms=("rs-bc", "rs-kt", "bc", "mimic-md", "eta-hat"), master_seed=20,
        )
        rows = rl.run_experiment(cfg)
        assert sum(row.failures for row in rows) == 0
        target = tmp_path / "pinned.csv"
        emit_results(rows, target)
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "d7f2c6933ad48a21ddbe5532b78daeabd2fd0433357a0ee3fd1dffdbb1385f30"
        )


class _Captured(Exception):
    """Raised in place of a simplex solve once its inputs are hashed."""


def test_desk_lp_inputs_are_pinned(monkeypatch):
    """sha256 over (c, A_eq, b_eq, starting basis) of every program the desk
    run loop hands the simplex, ``rs-kt``'s and ``mimic-md``'s, for master
    seeds 0-99, captured at each module's ``solve`` call: a moved LP input
    fails here rather than only as a failed benchmark operation."""
    digest = hashlib.sha256()

    def capture(lp, basis=None):
        for arr in (lp.c, lp.A_eq, lp.b_eq, np.asarray(basis, dtype=np.int64)):
            digest.update(repr(arr.shape).encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        raise _Captured

    monkeypatch.setattr(rskt_mod, "solve", capture)
    monkeypatch.setattr(baselines_mod, "solve", capture)
    for seed in range(100):
        cfg = rl.ExperimentConfig(**{**KNOWN_BAD_PIVOT_CFG, "master_seed": seed})
        mdp, expert = rl.generate_instance(cfg, derive_seed(seed, "instance", 0))
        reward = rl.discretize_reward(mdp.reward, rl.RewardGrid(cfg.theta, mdp.horizon))
        counts = bench_mod._sample_counts(cfg, mdp, expert, reward, (0, 0, 0))
        for alg in ("rs-kt", "mimic-md"):
            with pytest.raises(_Captured):
                bench_mod._FITS[alg](counts, mdp, reward)
    assert digest.hexdigest() == (
        "3657ba15431848afb9c1c4f18f6c7bbfc9517c73ce2e31ea35d1f6bd9c37f239"
    )


@pytest.mark.parametrize("master_seed", KNOWN_BAD_PIVOT_SEEDS)
def test_known_bad_pivot_instance_has_no_rskt_failure(master_seed):
    cfg = rl.ExperimentConfig(**{**KNOWN_BAD_PIVOT_CFG, "master_seed": master_seed})
    rows = rl.run_experiment(cfg)
    assert {r.algorithm: r.failures for r in rows}["rs-kt"] == 0


class TestPolicyDistributionRouting:
    @pytest.mark.parametrize("over", [False, True], ids=["within-budget", "past-budget"])
    def test_cell_budget_picks_the_evaluator(self, monkeypatch, over):
        # a desk-shaped rs-bc output: joint DP up to the budget, Monte Carlo past it
        cfg = tiny_cfg(
            horizon=5, theta=0.05, rho=0.03, expert_kind="parametric-history",
            eval_mode="enumeration", mc_samples=500,
        )
        mdp, expert = bench_mod.generate_instance(cfg, 3)
        data = rl.sample_trajectories(mdp, expert, 200, 5)
        policy = rl.rs_bc(data, mdp.reward, rl.RewardGrid(cfg.theta, mdp.horizon))
        eval_grid = rl.RewardGrid(cfg.rho, mdp.horizon)
        box = mdp.num_states * policy.grid.num_multiples(mdp.horizon - 1) * eval_grid.full_size
        monkeypatch.setattr(bench_mod, "_DP_CELL_BUDGET", box - 1 if over else box)
        got = bench_mod._policy_distribution(cfg, mdp, policy, eval_seed=11)
        mc = rl.mc_return_distribution(mdp, policy, mdp.reward, cfg.mc_samples, 11)
        exact = rl.exact_return_distribution(mdp, policy, mdp.reward, eval_grid)
        assert rl.wasserstein(mc, exact) > 0.0
        expected = mc if over else exact
        assert np.array_equal(got.support, expected.support)
        assert np.array_equal(got.probs, expected.probs)


class TestEmitResults:
    def test_header_and_round_trip(self, tmp_path):
        cfg = tiny_cfg(instances=3)
        rows = rl.run_experiment(cfg)
        path = tmp_path / "results.csv"
        emit_results(rows, path)
        text = path.read_text().splitlines()
        assert text[0] == RESULTS_HEADER
        parsed = read_results(path)
        assert len(parsed) == len(rows)
        for rec, row in zip(parsed, rows):
            assert rec["algorithm"] == row.algorithm
            assert rec["N"] == row.n
            assert rec["mean"] == row.mean  # repr round-trips exactly
            assert rec["std"] == row.std

    def test_point_mass_dump_format(self):
        d = rl.DiscreteReturnDistribution.point_mass(1.0)
        assert format_distribution(d) == "1 1\n"

    def test_io_errors_surface(self, tmp_path):
        cfg = tiny_cfg(instances=2, n_sweep=(10,))
        rows = rl.run_experiment(cfg)
        with pytest.raises(OSError):
            emit_results(rows, tmp_path)  # a directory is not a writable file

    def test_example_distributions_score_like_the_sweep(self):
        # one fit dispatch: the dump of a task is what run_experiment scored
        cfg = tiny_cfg(
            algorithms=bench_mod.KNOWN_ALGORITHMS, instances=2, n_sweep=(16, 64),
            seeds_per_dataset=1,
        )
        rows = {(r.algorithm, r.n): r.per_instance for r in rl.run_experiment(cfg)}
        for n in cfg.n_sweep:
            for instance in range(cfg.instances):
                dists = collect_example_distributions(cfg, n, instance)
                truth = dists["expert"]
                for alg in cfg.algorithms:
                    if alg == "eta-hat":
                        w1 = 2.0 * rl.wasserstein(dists["estimate"], truth)
                    else:
                        w1 = rl.wasserstein(dists[alg], truth)
                    assert w1 == rows[(alg, n)][instance]

    def test_distribution_dumps_written(self, tmp_path):
        cfg = tiny_cfg(instances=2, algorithms=("bc",))
        rows = rl.run_experiment(cfg)
        dists = collect_example_distributions(cfg, cfg.n_sweep[-1])
        path = tmp_path / "results.csv"
        written = emit_results(rows, path, dists)
        assert len(written) == 1 + len(dists)
        for extra in written[1:]:
            assert extra.exists()


class TestFixtureSuite:
    def test_all_checks_pass(self):
        report = rl.run_fixture_suite()
        assert report.passed
        names = [c.name for c in report.checks]
        assert sum("markovian-gap" in n for n in names) == 5
        assert any("tv-equals-half-l1" in n for n in names)
        assert "PASS overall" in report.to_text()
