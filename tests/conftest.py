from pathlib import Path

import numpy as np
import pytest

import rdmlab as rl
from rdmlab.lp import LinearProgram
from rdmlab.rskt import build_rskt_lp

#: the desk benchmark's configuration
KNOWN_BAD_PIVOT_CFG = dict(
    num_states=2, num_actions=2, horizon=5, theta=0.05, rho=0.03,
    expert_kind="parametric-history", n_sweep=(10_000,), instances=1,
    seeds_per_dataset=1, eval_mode="enumeration",
    algorithms=("rs-bc", "rs-kt", "bc", "mimic-md"), master_seed=2492166719,
)

#: desk master seeds whose rs-kt programs once defeated the Bland simplex:
#: pivots on elements near 4e-8 blew the tableau up until a basic value went
#: negative.  The programs are stored (``regression_program``): the seeds'
#: live datasets, and so their programs, move with the sampling stream.
KNOWN_BAD_PIVOT_SEEDS = (
    2492166719, 3728210711, 2787326782, 2244993218, 3707283196, 271240201,
    700793112, 2989083398, 2079506261, 3429696078, 2789294260,
)


#: desk master seed (``perfbench/run.py --workload desk --seed 1621``, round
#: 683) whose stored rs-kt program, solved from its crash basis without
#: rebuilding the tableau, piles up round-off until pivot 116 leaves a
#: negative basic value
CRASH_DRIFT_SEED = 2657894300

#: desk master seed (``perfbench/run.py --workload desk --seed 5``, round 332)
#: whose stored mimic-md program breaks Dantzig pricing: a pivot on 1.2e-7 at
#: iteration 9 leads to a negative basic value; Bland's rule solves it.  Its
#: live program is one more desk program.
MIMIC_MD_DANTZIG_FAILURE_SEED = 1659218862

#: desk master seeds whose mimic-md programs are checked against HiGHS
MIMIC_MD_SEEDS = (*range(1, 21), MIMIC_MD_DANTZIG_FAILURE_SEED)

#: The regression programs, as the desk run loop handed them to ``solve``
#: when the seeds above were found: rs-kt's at ``KNOWN_BAD_PIVOT_SEEDS`` and
#: ``CRASH_DRIFT_SEED``, mimic-md's at ``MIMIC_MD_DANTZIG_FAILURE_SEED``.
#: Each is (c, A_eq, b_eq, crash basis), A_eq stored by its nonzero entries.
REGRESSION_PROGRAMS = Path(__file__).with_name("regression_programs.npz")

#: sha256 over the shape and bytes of each stored (c, A_eq, b_eq, crash
#: basis), hashed by ``hash_program`` as ``test_desk_lp_inputs_are_pinned`` hashes
#: a program at ``solve``: the live programs' digests at capture
REGRESSION_PROGRAM_DIGESTS = {
    "rs-kt-2492166719": "fb041f17cd20bfee5df1fdabedf7dc2d103d9110f7c0326118dee8a831d21a37",
    "rs-kt-3728210711": "56b8ae05c200a72b2c52fb324fad0dbbd8f01e506ed1701d5bc68fc046e96c5b",
    "rs-kt-2787326782": "09d5e06b10f73d0151ceb167676ba63de33376201bd7e7f9b36ef985ffd2a79c",
    "rs-kt-2244993218": "16a6afc095cd01482439fa43ac267bfccdf2f5a7a0ad8bc43e2e01d108efbeb4",
    "rs-kt-3707283196": "6995c342e1640ed2d703f5b8dcdb9846a7be858c6ac8b3a9379d516bc25d5b57",
    "rs-kt-271240201": "b05fd90324f10a3a63e6794549baf314be9c33856d0f5d50c20413e319e5460c",
    "rs-kt-700793112": "c36983e42065b44a43c8c5fd9279bb6160730ab7f4dccf5426d579fc7b23dbaf",
    "rs-kt-2989083398": "ec5386ae343d9cf5886f99a2b99e102f4a766da03ee59b68a88b3d065aae6eb7",
    "rs-kt-2079506261": "7d6153f733ea82d0ef66ad400d1ebab5555374c1f322ebd5cccfd4fa1b50e374",
    "rs-kt-3429696078": "2fffdba1366ef16bf8e77b731fc8e59681ecdd50c57cb0c51e7099b30b8ce41e",
    "rs-kt-2789294260": "b1a18fb136c4000b282336e9005d171fef357f171dc058a4f5fe5fc20fd42533",
    "rs-kt-2657894300": "413b2ea080010bf53776cfa14e582e8cc0aeeaa9db892e4746c064fd09fecd09",
    "mimic-md-1659218862": "9c4cb60811ce0208c96624ab561f32e43ff2a370a174c24371c14d8ceca17882",
}


def regression_program(name):
    """The stored program ``name`` (a key of ``REGRESSION_PROGRAM_DIGESTS``)
    as a ``LinearProgram``, and its crash basis."""
    with np.load(REGRESSION_PROGRAMS) as stored:
        a_eq = np.zeros(stored[f"{name}/a_shape"])
        a_eq[stored[f"{name}/a_rows"], stored[f"{name}/a_cols"]] = stored[f"{name}/a_vals"]
        lp = LinearProgram(c=stored[f"{name}/c"], A_eq=a_eq, b_eq=stored[f"{name}/b"])
        return lp, stored[f"{name}/basis"]


def hash_program(digest, lp, basis):
    """Feed the shape and bytes of (c, A_eq, b_eq, basis) to the hashlib object ``digest``."""
    for arr in (lp.c, lp.A_eq, lp.b_eq, np.asarray(basis, dtype=np.int64)):
        digest.update(repr(arr.shape).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())


def desk_dataset(master_seed, **shape):
    """The MDP and first dataset ``run_experiment`` draws for a desk master seed.

    Keyword arguments override the desk configuration, e.g. ``num_states=5,
    num_actions=3`` for the (5,3,5) shape.
    """
    cfg = rl.ExperimentConfig(**{**KNOWN_BAD_PIVOT_CFG, **shape, "master_seed": master_seed})
    mdp, expert = rl.generate_instance(cfg, rl.derive_seed(master_seed, "instance", 0))
    data = rl.sample_trajectories(
        mdp, expert, 10_000, rl.derive_seed(master_seed, "dataset", 0, 0, 0)
    )
    return mdp, data


def desk_rskt_program(master_seed):
    """The rs-kt program ``run_experiment`` solves for a desk master seed."""
    mdp, data = desk_dataset(master_seed)
    return rskt_program(mdp, data, KNOWN_BAD_PIVOT_CFG["theta"])


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


def random_feasible_programs(seed=42, count=50):
    """Random programs min c.x s.t. a_eq x = b_eq, a_le x <= b_le, 0 <= x <= 5.

    Yields (c, a_eq, b_eq, a_le, b_le).  An interior point x0 in [0, 1)
    satisfies every row, so each program is feasible, and the bounds keep
    it bounded.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 8))
        m_eq = int(rng.integers(0, n))
        a_eq = rng.normal(size=(m_eq, n))
        x0 = rng.random(n)
        a_le = rng.normal(size=(3, n))
        c, b_eq, b_le = rng.normal(size=n), a_eq @ x0, a_le @ x0 + rng.random(3)
        yield c, a_eq, b_eq, a_le, b_le


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


def direct_grid_law(data, gr):
    """Reference grid law of a dataset: each trajectory's return is the sum of
    its steps' grid multiples, and the law puts count / N on each total."""
    steps = gr.multiples[np.arange(data.horizon), data.states, data.actions]
    return rl.DiscreteReturnDistribution.on_grid(np.bincount(steps.sum(axis=1)), gr.grid.theta)


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
