"""rdmlab: return-distribution-matching imitation learning in tabular MDPs.

A desk-scale laboratory around one idea: imitate not just an expert's mean
return but its whole return distribution, by searching policies that
condition on the discretized cumulative reward.  The package provides the
MDP and distribution plumbing, the two matching algorithms (count-based and
LP-based), the Markovian baselines they are compared against, and a seeded
benchmark harness with a CLI.
"""

from .baselines import bc, mimic_md
from .bench import (
    ExperimentConfig,
    FixtureReport,
    ResultRow,
    derive_seed,
    emit_results,
    generate_instance,
    read_results,
    run_experiment,
    run_fixture_suite,
)
from .distributions import (
    DiscreteReturnDistribution,
    cvar,
    dkw_band,
    empirical_return_distribution,
    mean,
    total_variation,
    variance,
    wasserstein,
)
from .fixtures import make_fork_fixture, make_tv_hard_reward, fork_markovian_policy
from .lp import LinearProgram, LpSolution, solve, solve_transport
from .mdp import (
    AugmentedMdp,
    Dataset,
    GridReward,
    RewardGrid,
    TabularMdp,
    build_augmented_mdp,
    discretize_reward,
    validate_mdp,
)
from .policies import (
    CallablePolicy,
    MarkovianPolicy,
    ParametricHistoryPolicy,
    PolicyHandle,
    RewardAugmentedPolicy,
    act_parametric,
    brute_force_return_distribution,
    enumerate_trajectory_distribution,
    exact_augmented_occupancy,
    exact_return_distribution,
    mc_return_distribution,
    random_markovian_policy,
    random_parametric_policy,
    random_reward_augmented_policy,
    sample_trajectories,
)
from .rsbc import construct_pi_r, rs_bc, theta_for_epsilon_rsbc
from .rskt import (
    OccupancySolution,
    RsktDiagnostics,
    build_rskt_lp,
    occupancy_to_policy,
    rs_kt,
    theta_for_epsilon_rskt,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
