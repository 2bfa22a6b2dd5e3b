"""The benchmark's workloads and how a run derives its inputs from ``--seed``.

A run is a closed loop with one client: it calls ``run_experiment`` on one
instance at a time ("a round"), each round with its own master seed derived
from ``--seed``, the workload name and the round index.  The program only
ever sees the resulting ``ExperimentConfig``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from rdmlab import ExperimentConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``ExperimentConfig`` fields except ``instances`` and ``master_seed``.
    config: dict
    #: Rounds every run completes, however short ``--seconds`` is.  Setup,
    #: the traced replica and the quality metrics cover exactly these rounds,
    #: so their work does not depend on how fast the program is.
    fixed_rounds: int
    #: Compare the first ``rs-bc`` joint-DP evaluation with Monte Carlo.
    joint_dp_oracle: bool = False

    def master_seed(self, seed: int, round_index: int) -> int:
        digest = hashlib.sha256(f"{self.name}:{seed}:{round_index}".encode()).digest()
        return int.from_bytes(digest[:4], "little")

    def experiment(self, seed: int, round_index: int) -> ExperimentConfig:
        return ExperimentConfig(
            instances=1, master_seed=self.master_seed(seed, round_index), **self.config
        )

    @property
    def tasks_per_round(self) -> int:
        cfg = self.config
        return len(cfg["n_sweep"]) * cfg["seeds_per_dataset"] * len(cfg["algorithms"])


WORKLOADS = {
    w.name: w
    for w in (
        # The c08 shape (2,2,5), but one N and one dataset seed per instance:
        # the LP cost is set by the instance, and c08's six solves per instance
        # leave too few instances in a run for a steady median.
        Workload(
            name="desk",
            why="(2,2,5) c08 shape, all four algorithms: the rs-kt LP solve dominates, so it shows LP and solver changes and bypasses the DP kernel",
            config=dict(
                num_states=2, num_actions=2, horizon=5, theta=0.05, rho=0.03,
                expert_kind="parametric-history", n_sweep=(10_000,), seeds_per_dataset=1,
                eval_mode="enumeration", algorithms=("rs-bc", "rs-kt", "bc", "mimic-md"),
            ),
            fixed_rounds=8,
        ),
        # c10's grids and expert at half its states, with one dataset seed and
        # 5e4 Monte Carlo truth samples per instance.  At (100,5,5) one joint DP
        # takes 4-6 s, so a 30 s run held four rounds and one slow spell on a
        # shared machine moved the median; here a round takes about 1.5 s.
        Workload(
            name="scale",
            why="(50,5,5) c10 grids: the joint-accumulator DP and Monte Carlo expert sampling dominate and no LP runs, so it shows the DP kernel and sampler",
            config=dict(
                num_states=50, num_actions=5, horizon=5, theta=0.05, rho=0.03,
                expert_kind="parametric-history", n_sweep=(1000,), seeds_per_dataset=1,
                eval_mode="monte-carlo", mc_samples=50_000,
                algorithms=("rs-bc", "bc", "eta-hat"),
            ),
            fixed_rounds=4,
            joint_dp_oracle=True,
        ),
        Workload(
            name="bulk",
            why="(20,5,5) Markovian expert, theta=rho: Markov-table sampling of large datasets, rs-bc counting and the single-accumulator DP dominate",
            config=dict(
                num_states=20, num_actions=5, horizon=5, theta=0.02, rho=0.02,
                expert_kind="markovian", n_sweep=(1000, 300_000), seeds_per_dataset=2,
                eval_mode="exact-dp", algorithms=("rs-bc", "bc", "eta-hat"),
            ),
            fixed_rounds=4,
        ),
    )
}
