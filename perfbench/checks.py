"""Output checks a run makes before it reports any number.

- The traced replica reproduces every ``per_instance`` W1 value and every
  failure count of ``run_experiment`` exactly, and both write the same CSV.
- Every aggregate is finite.
- ``rs-kt`` (solver-independent): the exact return distribution of the
  fitted policy, scored against the empirical estimate, equals the LP's
  reported objective; duality gap and eta mass drift stay small.  Any
  optimal vertex passes, so a different solver can too.
- ``scale``: the joint-accumulator DP of the first ``rs-bc`` policy agrees
  with a Monte Carlo evaluation at the workload's sample count, within
  ``H * dkw_band(m, delta)``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from rdmlab import (
    derive_seed,
    dkw_band,
    emit_results,
    empirical_return_distribution,
    exact_return_distribution,
    mc_return_distribution,
    wasserstein,
)

from replica import Hooks, ReplicaRound, probe_rskt_program

#: |W1(exact distribution of the fitted policy, estimate) - LP objective|.
RSKT_OBJECTIVE_TOL = 1e-6
RSKT_DUALITY_GAP_TOL = 1e-6
RSKT_ETA_DRIFT_TOL = 1e-7
#: Failure probability of the DKW band in the joint-DP oracle.
ORACLE_DELTA = 1e-3


class OutputChecks(Hooks):
    def __init__(self, joint_dp_oracle: bool, probe: bool) -> None:
        self.problems: list[str] = []
        self.joint_dp_oracle = joint_dp_oracle
        self.probe = probe
        self.rskt_checked = 0
        self.rskt_objective_dev = 0.0
        self.oracle: tuple[float, float] | None = None

    def after_rskt(self, tracer, task, mdp, data, grid, policy, diag) -> None:
        exact = exact_return_distribution(mdp, policy, mdp.reward, grid)
        estimate = empirical_return_distribution(data, mdp.reward, grid)
        dev = abs(wasserstein(exact, estimate) - diag.objective)
        self.rskt_checked += 1
        self.rskt_objective_dev = max(self.rskt_objective_dev, dev)
        if not dev <= RSKT_OBJECTIVE_TOL:
            self.problems.append(
                f"rs-kt {task}: exact W1 of the fitted policy differs from the LP "
                f"objective {diag.objective!r} by {dev!r} (tolerance {RSKT_OBJECTIVE_TOL})"
            )
        if diag.duality_gap is None or not diag.duality_gap <= RSKT_DUALITY_GAP_TOL:
            self.problems.append(f"rs-kt {task}: duality gap {diag.duality_gap!r}")
        if not diag.eta_mass_drift <= RSKT_ETA_DRIFT_TOL:
            self.problems.append(f"rs-kt {task}: eta mass drift {diag.eta_mass_drift!r}")
        if self.probe:
            probe_rskt_program(tracer, task, mdp, data, grid)

    def after_evaluate(self, tracer, task, cfg, mdp, policy, dist, path) -> None:
        if not self.joint_dp_oracle or self.oracle is not None or task[4] != "rs-bc":
            return
        if path != "joint":
            self.problems.append(f"joint-DP oracle {task}: evaluator path was {path!r}")
            return
        seed = derive_seed(cfg.master_seed, "joint-dp-oracle", *task[1:4])
        sampled = mc_return_distribution(mdp, policy, mdp.reward, cfg.mc_samples, seed)
        w1 = wasserstein(dist, sampled)
        bound = mdp.horizon * dkw_band(cfg.mc_samples, ORACLE_DELTA)
        self.oracle = (w1, bound)
        if not w1 <= bound:
            self.problems.append(
                f"joint-DP oracle {task}: W1(DP, MC) = {w1!r} exceeds {bound!r}"
            )


def csv_sha256(rows, path: Path) -> str:
    """Write ``rows`` with ``emit_results`` and hash the file it wrote."""
    emit_results(rows, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_round(rows, replica: ReplicaRound, label: str, out_dir: Path) -> tuple[list[str], str]:
    """Compare one untraced round with its replica.

    Returns the problems found and the sha256 of the round's CSV.
    """
    problems = [
        f"{label}: {row.algorithm} N={row.n} has a non-finite aggregate"
        for row in rows
        if not all(math.isfinite(v) for v in (row.mean, row.std, *row.per_instance))
    ]
    replica_rows = {(r.algorithm, r.n): r for r in replica.rows}
    for row in rows:
        twin = replica_rows.get((row.algorithm, row.n))
        if twin is None:
            problems.append(f"{label}: replica has no row for {row.algorithm} N={row.n}")
            continue
        if [repr(v) for v in row.per_instance] != [repr(v) for v in twin.per_instance]:
            problems.append(
                f"{label}: {row.algorithm} N={row.n} per-instance W1 {row.per_instance} "
                f"!= replica {twin.per_instance}"
            )
        if row.failures != twin.failures:
            problems.append(
                f"{label}: {row.algorithm} N={row.n} run_experiment counted "
                f"{row.failures} failures, the replica saw {twin.failures}"
            )
    untraced = csv_sha256(rows, out_dir / f"{label}.csv")
    if csv_sha256(replica.rows, out_dir / f"{label}.replica.csv") != untraced:
        problems.append(f"{label}: replica CSV differs from run_experiment's")
    return problems, untraced
