"""The experiment harness: random instances, dataset sweeps, algorithm
comparison, aggregation, and the fixed-fixture diagnostics.

Reproducibility contract: every random task (instance generation, dataset
sampling, Monte Carlo evaluation) gets its seed from
:func:`derive_seed`, keyed by the master seed and a structural path such as
``("dataset", instance, sweep_index, dataset_seed)``.  Task seeds therefore
do not depend on execution order, so a parallel run and a serial run of the
same configuration produce identical results, and identical configurations
produce byte-identical CSVs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import bc_from_counts, mimic_md_from_counts
from .distributions import DiscreteReturnDistribution, total_variation, wasserstein
from .fixtures import make_fork_fixture, make_tv_hard_reward, fork_markovian_policy
from .lp import LpError
from .mdp import GridReward, RewardGrid, TabularMdp, discretize_reward
from .policies import (
    EnumerationCapError,
    PolicyHandle,
    brute_force_return_distribution,
    enumerate_trajectory_distribution,
    exact_return_distribution,
    mc_return_distribution,
    random_markovian_policy,
    random_parametric_policy,
    sample_counts,
)
from .rsbc import eta_hat_from_counts, rs_bc_from_counts
from .rskt import rs_kt_from_counts
from .serialize import format_distribution

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "FixtureCheck",
    "FixtureReport",
    "RESULTS_HEADER",
    "KNOWN_ALGORITHMS",
    "derive_seed",
    "generate_instance",
    "run_experiment",
    "collect_example_distributions",
    "emit_results",
    "read_results",
    "run_fixture_suite",
    "load_config",
]

RESULTS_HEADER = "algorithm,N,mean,std,instances,seeds"

#: Each algorithm's fit: (the dataset's M[h, s, g, a], the MDP, the true
#: reward on the matchers' grid) -> policy.  ``bc`` and ``mimic-md`` read
#: the (H, S, A) counters, M summed over g.
_FITS = {
    "rs-bc": lambda counts, mdp, reward: rs_bc_from_counts(counts, reward),
    "rs-kt": lambda counts, mdp, reward: rs_kt_from_counts(counts, mdp, reward)[0],
    "bc": lambda counts, mdp, reward: bc_from_counts(counts.sum(axis=2)),
    "mimic-md": lambda counts, mdp, reward: mimic_md_from_counts(counts.sum(axis=2), mdp),
}

#: ``eta-hat`` fits no policy: it scores twice the estimate's own distance.
KNOWN_ALGORITHMS = (*_FITS, "eta-hat")

_EVAL_MODES = ("exact-dp", "enumeration", "monte-carlo")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run needs; serializable as flat JSON."""

    num_states: int
    num_actions: int
    horizon: int
    theta: float
    rho: float
    expert_kind: str = "parametric-history"  # or "markovian"
    n_sweep: tuple[int, ...] = (20, 80, 300, 1000, 10000)
    instances: int = 50
    seeds_per_dataset: int = 3
    eval_mode: str = "enumeration"
    mc_samples: int = 200_000
    algorithms: tuple[str, ...] = ("rs-bc", "rs-kt", "bc", "mimic-md")
    master_seed: int = 0
    output_path: str | None = None

    def __post_init__(self) -> None:
        for name in ("num_states", "num_actions", "horizon", "instances",
                     "seeds_per_dataset", "mc_samples"):
            value = getattr(self, name)
            whole = _whole(value, 1, math.inf)
            if whole is None:
                raise ValueError(f"{name} must be a positive whole number, got {value!r}")
            object.__setattr__(self, name, whole)
        seed = _whole(self.master_seed, 0, 2**32)  # derive_seed reads 32 bits of it
        if seed is None:
            raise ValueError(
                f"master_seed must be a whole number in [0, 2**32), got {self.master_seed!r}"
            )
        object.__setattr__(self, "master_seed", seed)
        if not 0 < self.theta <= 1 or not 0 < self.rho <= 1:
            raise ValueError("theta and rho must lie in (0, 1]")
        for step in (self.theta, self.rho):
            RewardGrid(step, self.horizon)  # refuses a step whose grids do not nest
        sweep = tuple(int(n) for n in self.n_sweep)
        if sweep != tuple(self.n_sweep):
            raise ValueError(f"n_sweep entries must be whole numbers, got {self.n_sweep}")
        if not sweep or sweep[0] < 1 or any(b <= a for a, b in zip(sweep, sweep[1:])):
            raise ValueError("n_sweep must be nonempty, positive and strictly increasing")
        object.__setattr__(self, "n_sweep", sweep)
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if self.expert_kind not in ("markovian", "parametric-history"):
            raise ValueError(f"unknown expert kind {self.expert_kind!r}")
        if self.eval_mode not in _EVAL_MODES:
            raise ValueError(f"eval_mode must be one of {_EVAL_MODES}")
        if self.eval_mode == "exact-dp" and self.expert_kind != "markovian":
            raise ValueError("exact-dp expert evaluation needs a markovian expert")
        unknown = set(self.algorithms) - set(KNOWN_ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms {sorted(unknown)}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError(f"duplicate algorithm names in {self.algorithms}")


def _whole(value, low: int, high: float) -> int | None:
    """``value`` as an int if it is a whole number in [low, high), else None."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value and low <= whole < high else None


def load_config(path: str | Path) -> ExperimentConfig:
    doc = json.loads(Path(path).read_text())
    return ExperimentConfig(**doc)


@dataclass(frozen=True)
class ResultRow:
    """Aggregate for one (algorithm, N) pair.

    ``per_instance`` holds each instance's dataset-seed-averaged Wasserstein
    error (NaN if every seed failed); ``mean``/``std`` aggregate over the
    non-failed instances with the sample (ddof=1) standard deviation.
    """

    algorithm: str
    n: int
    per_instance: tuple[float, ...]
    mean: float
    std: float
    instances: int
    seeds: int
    failures: int = 0


def derive_seed(master_seed: int, *path: int | str) -> int:
    """Deterministic per-task seed from a master seed and a structural path."""
    entropy: list[int] = [int(master_seed) & 0xFFFFFFFF]
    for part in path:
        if isinstance(part, str):
            digest = hashlib.sha256(part.encode()).digest()
            entropy.append(int.from_bytes(digest[:4], "little"))
        else:
            entropy.append(int(part) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint32)[0])


def generate_instance(cfg: ExperimentConfig, seed: int) -> tuple[TabularMdp, PolicyHandle]:
    """One random MDP and expert.

    The initial state is uniform; rewards are uniform over the rho-grid
    {0, rho, ..., floor(1/rho) rho}; transition rows are flat-Dirichlet
    draws, each replaced (independently, with probability 0.7) by a one-hot
    row at a uniformly drawn successor.  Experts are uniform-simplex
    Markovian tables or random-projection history policies, per the config.
    """
    rng = np.random.default_rng(seed)
    num_states, num_actions, horizon = cfg.num_states, cfg.num_actions, cfg.horizon
    initial_state = int(rng.integers(num_states))
    levels = RewardGrid(cfg.rho, horizon).max_multiple(1) + 1
    reward = rng.integers(0, levels, size=(horizon, num_states, num_actions)) * cfg.rho
    transitions = rng.dirichlet(np.ones(num_states), size=(horizon, num_states, num_actions))
    deterministic = rng.random((horizon, num_states, num_actions)) < 0.7
    targets = rng.integers(num_states, size=(horizon, num_states, num_actions))
    onehot = np.zeros_like(transitions)
    h_idx, s_idx, a_idx = np.indices(deterministic.shape)
    onehot[h_idx, s_idx, a_idx, targets] = 1.0
    transitions = np.where(deterministic[..., None], onehot, transitions)
    mdp = TabularMdp(initial_state, transitions, reward)
    if cfg.expert_kind == "markovian":
        expert: PolicyHandle = random_markovian_policy(num_states, num_actions, horizon, rng)
    else:
        expert = random_parametric_policy(num_states, num_actions, horizon, rng)
    return mdp, expert


def _expert_distribution(
    cfg: ExperimentConfig, mdp: TabularMdp, expert: PolicyHandle, instance: int
) -> DiscreteReturnDistribution:
    if cfg.eval_mode == "exact-dp":
        return exact_return_distribution(
            mdp, expert, mdp.reward, RewardGrid(cfg.rho, mdp.horizon)
        )
    if cfg.eval_mode == "enumeration":
        return brute_force_return_distribution(mdp, expert, mdp.reward)
    seed = derive_seed(cfg.master_seed, "expert-eval", instance)
    return mc_return_distribution(mdp, expert, mdp.reward, cfg.mc_samples, seed)


def _instance(
    cfg: ExperimentConfig, i: int
) -> tuple[TabularMdp, PolicyHandle, DiscreteReturnDistribution, GridReward]:
    """Instance ``i``: MDP, expert, the expert's return distribution, and the
    true reward on the matchers' grid."""
    mdp, expert = generate_instance(cfg, derive_seed(cfg.master_seed, "instance", i))
    truth = _expert_distribution(cfg, mdp, expert, i)
    reward = discretize_reward(mdp.reward, RewardGrid(cfg.theta, mdp.horizon))
    return mdp, expert, truth, reward


def _sample_counts(
    cfg: ExperimentConfig, mdp: TabularMdp, expert: PolicyHandle, reward: GridReward,
    task: tuple[int, int, int],
) -> np.ndarray:
    """M[h, s, g, a] of the dataset of ``task`` = (instance, sweep index,
    dataset seed), counted inside the sampler's group walk
    (``sample_counts``); no episode is stored.  It is the count of the
    episodes ``sample_trajectories`` draws on the same seed for the
    parametric expert and for a table policy at theta = rho, and has their
    law otherwise."""
    i, k, j = task
    seed = derive_seed(cfg.master_seed, "dataset", i, k, j)
    return sample_counts(mdp, expert, cfg.n_sweep[k], seed, reward)


def _fitted_distribution(
    cfg: ExperimentConfig, alg: str, mdp: TabularMdp, counts: np.ndarray, reward: GridReward
) -> DiscreteReturnDistribution:
    """Exact return distribution, under the true reward on the generation
    grid, of the policy ``alg`` fits to ``counts``."""
    policy = _FITS[alg](counts, mdp, reward)
    return exact_return_distribution(mdp, policy, mdp.reward, RewardGrid(cfg.rho, mdp.horizon))


def _run_one(
    cfg: ExperimentConfig, alg: str, mdp: TabularMdp, counts: np.ndarray,
    reward: GridReward, truth: DiscreteReturnDistribution,
) -> float:
    if alg == "eta-hat":
        estimate = eta_hat_from_counts(counts, reward)
        # estimate-only diagnostic: the fitted policy is at most twice as far
        return 2.0 * wasserstein(estimate, truth)
    return wasserstein(_fitted_distribution(cfg, alg, mdp, counts, reward), truth)


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Full protocol: instances x dataset sizes x dataset seeds x algorithms.

    Per-run failures of an algorithm (``LpError``, including the simplex's
    ``LpIterationError``, and ``EnumerationCapError``) are recorded and
    excluded from the aggregates rather than aborting the sweep; any other
    exception is a programming error and propagates.
    """
    per_instance: dict[tuple[str, int], list[float]] = {
        (alg, n): [] for alg in cfg.algorithms for n in cfg.n_sweep
    }
    failures: dict[tuple[str, int], int] = {key: 0 for key in per_instance}
    for i in range(cfg.instances):
        mdp, expert, truth, reward = _instance(cfg, i)
        for k, n in enumerate(cfg.n_sweep):
            seed_errors: dict[str, list[float]] = {alg: [] for alg in cfg.algorithms}
            for j in range(cfg.seeds_per_dataset):
                counts = _sample_counts(cfg, mdp, expert, reward, (i, k, j))
                for alg in cfg.algorithms:
                    try:
                        seed_errors[alg].append(_run_one(cfg, alg, mdp, counts, reward, truth))
                    except (LpError, EnumerationCapError):
                        failures[(alg, n)] += 1
                # else M stays alive while the next dataset is sampled and counted
                del counts
            for alg in cfg.algorithms:
                errs = seed_errors[alg]
                per_instance[(alg, n)].append(float(np.mean(errs)) if errs else math.nan)

    rows: list[ResultRow] = []
    for alg in cfg.algorithms:
        for n in cfg.n_sweep:
            values = np.asarray(per_instance[(alg, n)])
            ok = values[~np.isnan(values)]
            mean = float(ok.mean()) if ok.size else math.nan
            std = float(ok.std(ddof=1)) if ok.size > 1 else 0.0
            rows.append(
                ResultRow(
                    algorithm=alg,
                    n=n,
                    per_instance=tuple(values.tolist()),
                    mean=mean,
                    std=std,
                    instances=cfg.instances,
                    seeds=cfg.seeds_per_dataset,
                    failures=failures[(alg, n)],
                )
            )
    return rows


def collect_example_distributions(
    cfg: ExperimentConfig, n: int, instance: int = 0
) -> dict[str, DiscreteReturnDistribution]:
    """Expert, estimate, and per-algorithm distributions for one task.

    Reuses the sweep's seed derivation, so the dump matches what
    :func:`run_experiment` scored for that (instance, N, first dataset seed).
    """
    mdp, expert, truth, reward = _instance(cfg, instance)
    counts = _sample_counts(cfg, mdp, expert, reward, (instance, cfg.n_sweep.index(n), 0))
    out = {"expert": truth, "estimate": eta_hat_from_counts(counts, reward)}
    for alg in cfg.algorithms:
        if alg != "eta-hat":
            out[alg] = _fitted_distribution(cfg, alg, mdp, counts, reward)
    return out


def emit_results(
    rows: list[ResultRow],
    path: str | Path,
    distributions: dict[str, DiscreteReturnDistribution] | None = None,
) -> list[Path]:
    """Write the aggregate CSV (and optional distribution dumps next to it).

    The CSV columns are exactly ``algorithm,N,mean,std,instances,seeds``;
    floats use ``repr`` so a parse of the emitted file reproduces the values
    bit for bit.  Each distribution dump goes to ``<stem>.<name>.txt`` in the
    text format of one "value probability" pair per line.
    """
    path = Path(path)
    written = [path]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RESULTS_HEADER.split(","))
    for row in rows:
        writer.writerow(
            [row.algorithm, row.n, repr(row.mean), repr(row.std), row.instances, row.seeds]
        )
    path.write_text(buf.getvalue())
    if distributions:
        for name, dist in distributions.items():
            target = path.with_suffix(f".{name}.txt")
            target.write_text(format_distribution(dist))
            written.append(target)
    return written


def read_results(path: str | Path) -> list[dict]:
    """Parse an emitted CSV back into plain records (exact float round trip)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rows.append(
                {
                    "algorithm": rec["algorithm"],
                    "N": int(rec["N"]),
                    "mean": float(rec["mean"]),
                    "std": float(rec["std"]),
                    "instances": int(rec["instances"]),
                    "seeds": int(rec["seeds"]),
                }
            )
        return rows


# --- fixed-fixture diagnostics ----------------------------------------------

@dataclass(frozen=True)
class FixtureCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class FixtureReport:
    checks: tuple[FixtureCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}" for c in self.checks
        ]
        lines.append(f"{'PASS' if self.passed else 'FAIL'} overall")
        return "\n".join(lines)


def run_fixture_suite() -> FixtureReport:
    """Exact checks on the two proof-derived fixtures.

    (i) On the 4-state fixture, the Wasserstein gap between the expert and
    the one-parameter Markovian family equals 0.5 for every mixing
    coefficient.  (ii) On a random (2,2,2) instance with the power-of-ten
    reward, total variation between return distributions coincides with half
    the L1 distance between trajectory distributions, to within 1e-12.
    """
    checks: list[FixtureCheck] = []
    mdp, expert = make_fork_fixture()
    expert_dist = brute_force_return_distribution(mdp, expert, mdp.reward)
    grid = RewardGrid(1.0, mdp.horizon)
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        markov = fork_markovian_policy(alpha)
        dist = exact_return_distribution(mdp, markov, mdp.reward, grid)
        gap = wasserstein(expert_dist, dist)
        checks.append(
            FixtureCheck(
                name=f"markovian-gap alpha={alpha}",
                passed=abs(gap - 0.5) <= 1e-9,
                detail=f"gap={gap!r}",
            )
        )

    rng = np.random.default_rng(20240)
    num_states, num_actions, horizon = 2, 2, 2
    transitions = rng.dirichlet(np.ones(num_states), size=(horizon, num_states, num_actions))
    reward = make_tv_hard_reward(num_states, num_actions, horizon)
    hard = TabularMdp(0, transitions, reward)
    pol_a = random_markovian_policy(num_states, num_actions, horizon, rng)
    pol_b = random_markovian_policy(num_states, num_actions, horizon, rng)
    dists = [brute_force_return_distribution(hard, pol, hard.reward) for pol in (pol_a, pol_b)]
    tv = total_variation(*dists)
    l1_half = _half_l1_trajectories(hard, pol_a, pol_b)
    checks.append(
        FixtureCheck(
            name="tv-equals-half-l1 (2,2,2)",
            passed=abs(tv - l1_half) <= 1e-12,
            detail=f"tv={tv!r} half-l1={l1_half!r}",
        )
    )
    return FixtureReport(tuple(checks))


def _half_l1_trajectories(mdp: TabularMdp, pol_a, pol_b) -> float:
    probs: dict[tuple, float] = {}
    for pol, sign in ((pol_a, 1.0), (pol_b, -1.0)):
        data, p = enumerate_trajectory_distribution(mdp, pol)
        for states, actions, v in zip(data.states.tolist(), data.actions.tolist(), p.tolist()):
            key = (tuple(states), tuple(actions))
            probs[key] = probs.get(key, 0.0) + sign * v
    return 0.5 * sum(abs(v) for v in probs.values())
