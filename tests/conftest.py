import numpy as np
import pytest

import rdmlab as rl
from rdmlab.lp import LinearProgram
from rdmlab.rskt import build_rskt_lp

#: the desk benchmark's configuration; its rs-kt programs at ``KNOWN_BAD_PIVOT_SEEDS``
#: once defeated the Bland simplex: pivots on elements near 4e-8 blew the
#: tableau up until a basic value went negative.
KNOWN_BAD_PIVOT_CFG = dict(
    num_states=2, num_actions=2, horizon=5, theta=0.05, rho=0.03,
    expert_kind="parametric-history", n_sweep=(10_000,), instances=1,
    seeds_per_dataset=1, eval_mode="enumeration",
    algorithms=("rs-bc", "rs-kt", "bc", "mimic-md"), master_seed=2492166719,
)

#: master seeds of every desk program known to have failed that way
KNOWN_BAD_PIVOT_SEEDS = (
    2492166719, 3728210711, 2787326782, 2244993218, 3707283196, 271240201,
    700793112, 2989083398, 2079506261, 3429696078, 2789294260,
)


def desk_rskt_program(master_seed):
    """The rs-kt program ``run_experiment`` solves for a desk master seed."""
    cfg = rl.ExperimentConfig(**{**KNOWN_BAD_PIVOT_CFG, "master_seed": master_seed})
    mdp, expert = rl.generate_instance(cfg, rl.derive_seed(master_seed, "instance", 0))
    data = rl.sample_trajectories(
        mdp, expert, 10_000, rl.derive_seed(master_seed, "dataset", 0, 0, 0)
    )
    return rskt_program(mdp, data, cfg.theta)


def rskt_program(mdp, data, theta):
    """The rs-kt occupancy LP that ``rs_kt`` would solve for this dataset."""
    grid = rl.RewardGrid(theta, mdp.horizon)
    eta_hat = rl.empirical_return_distribution(data, mdp.reward, grid)
    return build_rskt_lp(rl.build_augmented_mdp(mdp, grid, reward=mdp.reward), eta_hat)


def slack_form(c, a_eq=(), b_eq=(), a_le=(), b_le=(), upper=None):
    """Standard form of min c.x s.t. a_eq x = b_eq, a_le x <= b_le, 0 <= x <= upper.

    Each <= row, and each finite upper bound as the row x_j <= upper_j, gets
    its own slack column after the structural ones.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n)
    a_le = np.asarray(a_le, dtype=float).reshape(-1, n)
    b_le = np.asarray(b_le, dtype=float).ravel()
    if upper is not None:
        a_le = np.vstack([a_le, np.eye(n)])
        b_le = np.concatenate([b_le, upper])
    k = a_le.shape[0]
    a = np.block([[a_eq, np.zeros((a_eq.shape[0], k))], [a_le, np.eye(k)]])
    b = np.concatenate([np.asarray(b_eq, dtype=float).ravel(), b_le])
    return LinearProgram(c=np.concatenate([c, np.zeros(k)]), A_eq=a, b_eq=b)


def markov_occupancy(mdp, policy):
    """Occupancy d_h(s, a) of a Markovian policy, pushed forward stage by stage."""
    occ = np.zeros((mdp.horizon, mdp.num_states, mdp.num_actions))
    mass = np.zeros(mdp.num_states)
    mass[mdp.initial_state] = 1.0
    for h in range(mdp.horizon):
        occ[h] = mass[:, None] * policy.table[h]
        mass = np.einsum("sa,sat->t", occ[h], mdp.transitions[h])
    return occ


def half_l1_trajectories(mdp, pol_a, pol_b):
    """Half the L1 distance between two policies' enumerated trajectory distributions."""
    rows, signed = [], []
    for pol, sign in ((pol_a, 1.0), (pol_b, -1.0)):
        data, probs = rl.enumerate_trajectory_distribution(mdp, pol)
        rows.append(np.hstack([data.states, data.actions]))
        signed.append(sign * probs)
    _, key = np.unique(np.vstack(rows), axis=0, return_inverse=True)
    return 0.5 * np.abs(np.bincount(key.ravel(), np.concatenate(signed))).sum()


def make_instance(
    seed,
    num_states=3,
    num_actions=2,
    horizon=4,
    rho=0.25,
    expert_kind="markovian",
    continuous_reward=False,
):
    """Small random instance via the bench generator, optionally with a
    continuous (off-grid) reward table."""
    cfg = rl.ExperimentConfig(
        num_states=num_states,
        num_actions=num_actions,
        horizon=horizon,
        theta=rho,
        rho=rho,
        expert_kind=expert_kind,
        n_sweep=(1,),
        instances=1,
        seeds_per_dataset=1,
        eval_mode="enumeration",
    )
    mdp, expert = rl.generate_instance(cfg, seed)
    if continuous_reward:
        rng = np.random.default_rng(seed + 77_000)
        mdp = rl.TabularMdp(
            num_states=mdp.num_states,
            num_actions=mdp.num_actions,
            horizon=mdp.horizon,
            initial_state=mdp.initial_state,
            transitions=mdp.transitions,
            reward=rng.uniform(0.0, 1.0, size=mdp.reward.shape),
        )
    return mdp, expert


def random_distribution(rng, max_atoms=6, high=5.0):
    size = int(rng.integers(1, max_atoms + 1))
    values = rng.uniform(0.0, high, size=size)
    probs = rng.dirichlet(np.ones(size))
    return rl.DiscreteReturnDistribution.from_weighted(values, probs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
