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
from rdmlab.lp import LpError, LpIterationError, LpSizeError, solve
from rdmlab.policies import EnumerationCapError
from rdmlab.serialize import format_distribution

from conftest import (
    KNOWN_BAD_PIVOT_CFG,
    KNOWN_BAD_PIVOT_SEEDS,
    REGRESSION_PROGRAM_DIGESTS,
    direct_grid_law,
    hash_program,
    regression_program,
)


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
            ({"expert_kind": "tabular"}, "unknown expert kind 'tabular'"),
            ({"eval_mode": "sampling"}, "eval_mode must be one of"),
        ],
    )
    def test_rejects_input_it_cannot_run(self, override, match):
        """A sample size below one or not a whole number, an algorithm named
        twice, a step whose grids do not nest over the horizon, or an unknown
        expert kind or evaluation mode is refused when the config is built,
        before any instance is generated."""
        with pytest.raises(ValueError, match=match):
            tiny_cfg(**override)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_states", 0),
            ("num_actions", 0),
            ("horizon", -1),
            ("instances", 2.5),
            ("seeds_per_dataset", 0),
            ("mc_samples", 10.5),
        ],
    )
    def test_rejects_a_size_that_is_not_a_positive_whole_number(self, field, value):
        """Each once got through: num_states=0 to numpy's ``high <= 0`` in
        ``generate_instance``, num_actions=0 to a ``TabularMdp`` shape error,
        instances=2.5 to a ``TypeError`` from ``range``; mc_samples=10.5 ran."""
        with pytest.raises(ValueError, match=f"^{field} must be a positive whole number"):
            tiny_cfg(**{field: value})

    @pytest.mark.parametrize("seed", [1.9, -1, 2**32, 2**32 + 1, "7", None])
    def test_rejects_a_master_seed_outside_32_bits(self, seed):
        """``derive_seed`` reads 32 bits of the master seed: 1.9 and 2**32 + 1
        once ran exactly as 1."""
        match = r"^master_seed must be a whole number in \[0, 2\*\*32\), got "
        with pytest.raises(ValueError, match=match):
            tiny_cfg(master_seed=seed)

    def test_whole_float_sample_sizes_become_ints(self):
        cfg = tiny_cfg(n_sweep=(10.0, 4e1), num_states=2.0, instances=3.0, mc_samples=1e3,
                       master_seed=2.0**32 - 1)
        assert cfg.n_sweep == (10, 40) and all(type(n) is int for n in cfg.n_sweep)
        values = (cfg.num_states, cfg.instances, cfg.mc_samples, cfg.master_seed)
        assert values == (2, 3, 1000, 2**32 - 1) and all(type(v) is int for v in values)

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
        eval_grid = rl.RewardGrid(cfg.rho, cfg.horizon)
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
                        dist = rl.exact_return_distribution(mdp, policy, mdp.reward, eval_grid)
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
            "742014fd98ed5d0c8bdae301519169bd5fcd1bef0c6d0559873a96ff7ecfba3a"
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
        hash_program(digest, lp, basis)
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
        "3db6c62ef4b340b8ee53393eb72ec7bf662d57c37a64b710ff344ffe332b33ba"
    )


@pytest.mark.parametrize("name", sorted(REGRESSION_PROGRAM_DIGESTS))
def test_stored_programs_hash_as_captured(name):
    """Each stored regression program is, byte for byte, the one its seed's
    run loop handed ``solve`` when it was found."""
    digest = hashlib.sha256()
    hash_program(digest, *regression_program(name))
    assert digest.hexdigest() == REGRESSION_PROGRAM_DIGESTS[name]


@pytest.mark.parametrize("master_seed", KNOWN_BAD_PIVOT_SEEDS)
def test_known_bad_pivot_instance_has_no_rskt_failure(master_seed):
    """Its stored rs-kt program, solved from its crash basis as
    ``rs_kt_from_counts`` solves it, ends optimal without an ``LpError``."""
    lp, basis = regression_program(f"rs-kt-{master_seed}")
    assert solve(lp, basis=basis).status == "optimal"


def test_every_fit_is_scored_by_the_exact_walk():
    """A task whose S x G_pol x G_ret box (11 x 401 x 501 = 2,209,911 cells)
    the harness once judged too big for the exact walk, and scored by Monte
    Carlo instead: its W1 is the exact walk's, bit for bit."""
    cfg = tiny_cfg(
        num_states=11, horizon=5, theta=0.01, rho=0.01, n_sweep=(200,), instances=2,
        algorithms=("rs-bc",),
    )
    grid = rl.RewardGrid(cfg.rho, cfg.horizon)
    assert cfg.num_states * grid.table_size * grid.full_size == 2_209_911
    (row,) = rl.run_experiment(cfg)
    for i in range(cfg.instances):
        mdp, expert = rl.generate_instance(cfg, derive_seed(cfg.master_seed, "instance", i))
        truth = rl.exact_return_distribution(mdp, expert, mdp.reward, grid)
        errors = []
        for j in range(cfg.seeds_per_dataset):
            data = rl.sample_trajectories(
                mdp, expert, 200, derive_seed(cfg.master_seed, "dataset", i, 0, j)
            )
            fitted = rl.rs_bc(data, mdp.reward, grid)
            dist = rl.exact_return_distribution(mdp, fitted, mdp.reward, grid)
            errors.append(rl.wasserstein(dist, truth))
        assert row.per_instance[i] == float(np.mean(errors))


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
