import hashlib
import itertools
import time
import tracemalloc

import numpy as np
import pytest

import rdmlab as rl
from rdmlab.lp import LinearProgram, LpSizeError, solve
from rdmlab.mdp import _flow_rows
from rdmlab.policies import (
    ZERO_MASS,
    exact_augmented_occupancy,
    normalize_rows,
    random_reward_augmented_policy,
)
from rdmlab.rsbc import count_occurrences
from rdmlab.rskt import (
    _eta_hat_on_grid,
    build_rskt_lp,
    lp_layout,
    rs_kt,
    rs_kt_from_counts,
    theta_for_epsilon_rskt,
)

from conftest import desk_dataset, direct_grid_law, make_instance, rskt_program

#: the desk benchmark's (2,2,5) shape
DESK_CFG = rl.ExperimentConfig(
    num_states=2, num_actions=2, horizon=5, theta=0.05, rho=0.03,
    n_sweep=(10_000,), instances=1, seeds_per_dataset=1,
)


def loop_built_flow(cell, mdp, multiples, num_columns):
    """Flow rows over ``cell``, a map (h, s, g) -> k, built entry by entry:
    row k and the d columns k * A.. belong to cell k."""
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    a_eq = np.zeros((len(cell), num_columns))
    b_eq = np.zeros(len(cell))
    b_eq[cell[(0, mdp.initial_state, 0)]] = 1.0
    for (h, s, g), k in cell.items():
        for a in range(num_actions):
            a_eq[k, k * num_actions + a] = 1.0
            if h == horizon - 1:
                continue
            g_next = g + int(multiples[h, s, a])
            for s_next in range(num_states):
                p = mdp.transitions[h, s, a, s_next]
                if p > 0.0:
                    a_eq[cell[(h + 1, s_next, g_next)], k * num_actions + a] = -p
    return a_eq, b_eq


def reachable_cells(aug):
    """The reachable (h, s, g) cells of stages 0..H-1, numbered in C order."""
    cell = {}
    for h in range(aug.base.horizon):
        for s, g in np.argwhere(aug.reachable[h]):
            cell[(h, int(s), int(g))] = len(cell)
    return cell


def full_program(aug, eta_hat):
    """The rs-kt program with a CDF row and an x+/x- pair at every grid point
    below n_keep, each of weight 1, built cell by cell: (A_eq, b_eq, c).

    This was the solved program before it kept only the points where a law
    can put mass; it has the same optimal value, so it is the oracle for
    the kept-point program's objective.
    """
    base = aug.base
    horizon, num_actions = base.horizon, base.num_actions
    cell = reachable_cells(aug)
    eta_full = _eta_hat_on_grid(eta_hat, aug.grid)
    n_keep = max(
        int(np.nonzero(aug.return_support_mask())[0][-1]),
        int(np.nonzero(eta_full > 0)[0][-1]),
    ) + 1
    n_cells, n_d = len(cell), len(cell) * num_actions
    a_eq = np.zeros((n_cells + n_keep, n_d + 2 * n_keep))
    b_eq = np.zeros(n_cells + n_keep)
    flow = loop_built_flow(cell, base, aug.reward.multiples, n_d + 2 * n_keep)
    a_eq[:n_cells], b_eq[:n_cells] = flow
    for (h, s, g), k in cell.items():
        if h == horizon - 1:
            for a in range(num_actions):
                g_next = g + int(aug.reward.multiples[h, s, a])
                a_eq[n_cells + g_next, k * num_actions + a] = -1.0
    for g in range(n_keep):
        row = n_cells + g
        a_eq[row, n_d + g] = 1.0
        a_eq[row, n_d + n_keep + g] = -1.0
        if g:
            a_eq[row, n_d + g - 1] = -1.0
            a_eq[row, n_d + n_keep + g - 1] = 1.0
        b_eq[row] = -eta_full[g]
    c = np.zeros(n_d + 2 * n_keep)
    c[n_d:] = 1.0
    return a_eq, b_eq, c


def loop_built_program(aug, eta_hat):
    """The rs-kt program on the kept points built cell by cell: (A_eq, b_eq, c).

    The kept points are read off the final cells' landings and the
    estimate's support here, not off ``return_support_mask``.
    """
    base = aug.base
    horizon, num_actions = base.horizon, base.num_actions
    cell = reachable_cells(aug)
    eta_full = _eta_hat_on_grid(eta_hat, aug.grid)
    landing = {}  # final-stage d column -> the return multiple it reaches
    for (h, s, g), k in cell.items():
        if h == horizon - 1:
            for a in range(num_actions):
                landing[k * num_actions + a] = g + int(aug.reward.multiples[h, s, a])
    points = sorted(set(landing.values()) | set(np.flatnonzero(eta_full).tolist()))
    n_keep, n_points = points[-1] + 1, len(points)
    n_cells, n_d = len(cell), len(cell) * num_actions
    n_var = n_d + 2 * n_points
    a_eq = np.zeros((n_cells + n_points, n_var))
    b_eq = np.zeros(n_cells + n_points)
    a_eq[:n_cells], b_eq[:n_cells] = loop_built_flow(cell, base, aug.reward.multiples, n_var)
    for col, g in landing.items():
        a_eq[n_cells + points.index(g), col] = -1.0
    c = np.zeros(n_var)
    for i, p in enumerate(points):
        row = n_cells + i
        a_eq[row, n_d + i] = 1.0
        a_eq[row, n_d + n_points + i] = -1.0
        if i:
            a_eq[row, n_d + i - 1] = -1.0
            a_eq[row, n_d + n_points + i - 1] = 1.0
        b_eq[row] = -eta_full[p]
        gap = (points[i + 1] if i + 1 < n_points else n_keep) - p
        c[n_d + i] = c[n_d + n_points + i] = gap
    return a_eq, b_eq, c


def desk_program_inputs(master_seed, **shape):
    """The augmented MDP and estimate of a desk master seed's rs-kt program."""
    mdp, data = desk_dataset(master_seed, **shape)
    grid = rl.RewardGrid(DESK_CFG.theta, mdp.horizon)
    eta_hat = rl.empirical_return_distribution(data, mdp.reward, grid)
    return rl.build_augmented_mdp(mdp, grid, reward=mdp.reward), eta_hat


def tiny_grid_instance(seed, num_states=2, num_actions=2, horizon=2, step=1.0):
    mdp, expert = make_instance(
        seed, num_states=num_states, num_actions=num_actions, horizon=horizon,
        rho=step, expert_kind="parametric-history",
    )
    return mdp, expert, rl.RewardGrid(step, horizon)


class TestBuildLp:
    def test_single_action_horizon_one(self):
        transitions = np.ones((1, 1, 1, 1))
        for forced_reward, target, expect_zero in ((1.0, 1.0, True), (1.0, 0.0, False)):
            mdp = rl.TabularMdp(0, transitions, np.full((1, 1, 1), forced_reward))
            aug = rl.build_augmented_mdp(mdp, rl.RewardGrid(1.0, 1), mdp.reward)
            eta_hat = rl.DiscreteReturnDistribution.point_mass(target)
            sol = solve(build_rskt_lp(aug, eta_hat))
            assert sol.status == "optimal"
            if expect_zero:
                assert sol.objective == pytest.approx(0.0, abs=1e-9)
            else:
                assert sol.objective > 0.5  # CDFs differ on one grid cell
            # the target's point is kept, reachable (1) or not (0)
            points = lp_layout(aug, eta_hat).points.tolist()
            assert points == sorted({int(forced_reward), int(target)})

    def test_zero_objective_when_target_is_attainable(self):
        mdp, _, grid = tiny_grid_instance(2, horizon=3, step=0.5)
        rng = np.random.default_rng(0)
        gr = rl.discretize_reward(mdp.reward, grid)
        member = random_reward_augmented_policy(gr, mdp.num_states, rng)
        eta_hat = rl.exact_return_distribution(mdp, member, mdp.reward, grid)
        aug = rl.build_augmented_mdp(mdp, grid, mdp.reward)
        sol = solve(build_rskt_lp(aug, eta_hat))
        assert sol.objective == pytest.approx(0.0, abs=1e-8)

    def test_objective_is_scaled_cdf_distance(self):
        mdp, expert, grid = tiny_grid_instance(5, horizon=3, step=0.5)
        data = rl.sample_trajectories(mdp, expert, 64, seed=3)
        eta_hat = rl.empirical_return_distribution(data, mdp.reward, grid)
        policy, diag = rs_kt(data, mdp, mdp.reward, grid)
        fitted = rl.exact_return_distribution(mdp, policy, mdp.reward, grid)
        assert diag.objective == pytest.approx(rl.wasserstein(fitted, eta_hat), abs=1e-7)
        assert diag.objective == pytest.approx(diag.lp_objective * grid.theta, abs=1e-12)

    def test_off_grid_estimate_rejected(self):
        mdp, _, grid = tiny_grid_instance(1)
        aug = rl.build_augmented_mdp(mdp, grid, mdp.reward)
        eta_hat = rl.DiscreteReturnDistribution.point_mass(0.4243)
        with pytest.raises(ValueError):
            build_rskt_lp(aug, eta_hat)

    def test_feasible_set_contains_every_dp_occupancy(self):
        mdp, _, grid = tiny_grid_instance(7, horizon=3, step=0.5)
        gr = rl.discretize_reward(mdp.reward, grid)
        aug = rl.build_augmented_mdp(mdp, grid, mdp.reward)
        rng = np.random.default_rng(4)
        eta_hat = rl.exact_return_distribution(
            mdp, random_reward_augmented_policy(gr, mdp.num_states, rng), mdp.reward, grid
        )
        lp = build_rskt_lp(aug, eta_hat)
        layout = lp_layout(aug, eta_hat)
        for _ in range(5):
            policy = random_reward_augmented_policy(gr, mdp.num_states, rng)
            occ = exact_augmented_occupancy(mdp, policy, gr)
            x = layout.pack_occupancy(occ)
            residual = np.abs(lp.A_eq @ x - lp.b_eq).max()
            assert residual <= 1e-9
            assert x.min() >= 0.0  # every column is nonnegative
            assert np.array_equal(layout.dense_occupancy(x), occ)
            # the objective at the packed point is the CDF distance of its returns
            fitted = rl.exact_return_distribution(mdp, policy, mdp.reward, grid)
            assert lp.c @ x * grid.theta == pytest.approx(
                rl.wasserstein(fitted, eta_hat), abs=1e-12
            )

    def test_crash_basis_is_the_argmax_policy_vertex(self):
        mdp, _, grid = tiny_grid_instance(7, horizon=3, step=0.5)
        gr = rl.discretize_reward(mdp.reward, grid)
        aug = rl.build_augmented_mdp(mdp, grid, mdp.reward)
        rng = np.random.default_rng(5)
        eta_hat = rl.exact_return_distribution(
            mdp, random_reward_augmented_policy(gr, mdp.num_states, rng), mdp.reward, grid
        )
        lp = build_rskt_lp(aug, eta_hat)
        layout = lp_layout(aug, eta_hat)
        shape = layout.column.shape + (mdp.num_actions,)
        for _ in range(5):
            counts = rng.integers(0, 3, size=shape) * (rng.random(shape[:3]) < 0.5)[..., None]
            basis = layout.crash_basis(counts)
            assert basis.size == lp.num_constraints == np.unique(basis).size
            x = np.zeros(lp.num_variables)
            x[basis] = np.linalg.solve(lp.A_eq[:, basis], lp.b_eq)
            # the vertex is the packed occupancy of the argmax policy, action 0
            # on unvisited cells
            table = np.eye(mdp.num_actions)[counts.argmax(axis=-1)]
            argmax_policy = rl.RewardAugmentedPolicy(table=table, reward=gr)
            occ = exact_augmented_occupancy(mdp, argmax_policy, gr)
            assert x == pytest.approx(layout.pack_occupancy(occ), abs=1e-12)
            assert solve(lp, basis=basis).objective == pytest.approx(
                solve(lp).objective, abs=1e-12
            )

    def test_matches_loop_built_program(self):
        # every (row, column) entry is written once, so the array-built
        # matrix equals a cell-by-cell loop build bit for bit
        for seed in range(3):
            mdp, expert = rl.generate_instance(DESK_CFG, seed)
            data = rl.sample_trajectories(mdp, expert, 500, seed)
            grid = rl.RewardGrid(DESK_CFG.theta, mdp.horizon)
            eta_hat = rl.empirical_return_distribution(data, mdp.reward, grid)
            aug = rl.build_augmented_mdp(mdp, grid, reward=mdp.reward)
            lp = build_rskt_lp(aug, eta_hat)
            a_eq, b_eq, c = loop_built_program(aug, eta_hat)
            assert lp.A_eq.tobytes() == a_eq.tobytes()
            assert lp.b_eq.tobytes() == b_eq.tobytes()
            assert lp.c.tobytes() == c.tobytes()

    @pytest.mark.parametrize("master_seed", range(5))
    def test_points_are_the_reachable_returns_and_cover_the_estimate(self, master_seed):
        aug, eta_hat = desk_program_inputs(master_seed)
        layout = lp_layout(aug, eta_hat)
        assert set(np.flatnonzero(layout.eta_hat)) <= set(layout.points.tolist())
        # a run-loop estimate is drawn on the same MDP, so it adds no point
        assert np.array_equal(layout.points, np.flatnonzero(aug.return_support_mask()))
        assert layout.weights.sum() == layout.n_keep - layout.points[0]

    def test_programs_of_one_instance_share_a_and_c(self):
        mdp, expert = rl.generate_instance(DESK_CFG, 4)
        grid = rl.RewardGrid(DESK_CFG.theta, mdp.horizon)
        aug = rl.build_augmented_mdp(mdp, grid, reward=mdp.reward)
        programs = [
            build_rskt_lp(aug, rl.empirical_return_distribution(
                rl.sample_trajectories(mdp, expert, n, seed), mdp.reward, grid
            ))
            for n, seed in ((30, 1), (10_000, 2))
        ]
        first, second = programs
        assert first.b_eq.tobytes() != second.b_eq.tobytes()
        assert first.A_eq.tobytes() == second.A_eq.tobytes()
        assert first.c.tobytes() == second.c.tobytes()

    def test_c10_shaped_fit_fails_on_size_before_allocating(self):
        # the (100,5,5) program needs about 6 GB dense; it must raise, not be
        # OOM-killed, and the refusal must come before the allocation
        cfg = rl.ExperimentConfig(
            num_states=100, num_actions=5, horizon=5, theta=0.05, rho=0.03,
            expert_kind="parametric-history", n_sweep=(1000,), instances=1,
            seeds_per_dataset=1,
        )
        mdp, expert = rl.generate_instance(cfg, 1)
        gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(cfg.theta, mdp.horizon))
        counts = count_occurrences(rl.sample_trajectories(mdp, expert, 1000, 2), gr)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(LpSizeError, match=r"rs-kt program of \d+ rows x \d+ columns"):
                rs_kt_from_counts(counts, mdp, gr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert time.perf_counter() - start < 10.0


class TestFullProgramOracle:
    """The kept-point program against the full one: same optimal value."""

    @pytest.mark.parametrize("master_seed", range(20))
    def test_desk_objectives_match_the_full_program(self, master_seed):
        aug, eta_hat = desk_program_inputs(master_seed)
        lp = build_rskt_lp(aug, eta_hat)
        full = self._full_lp(aug, eta_hat)
        assert lp.num_constraints <= full.num_constraints
        assert solve(lp).objective == pytest.approx(solve(full).objective, abs=1e-12)
        self._check_with_highs(lp, full)

    @pytest.mark.parametrize("master_seed", range(3))
    def test_535_objectives_match_the_full_program(self, master_seed):
        # Bland's rule stalls on (5,3,5) programs, so HiGHS solves both
        aug, eta_hat = desk_program_inputs(master_seed, num_states=5, num_actions=3)
        full = self._full_lp(aug, eta_hat)
        self._check_with_highs(build_rskt_lp(aug, eta_hat), full)

    @staticmethod
    def _full_lp(aug, eta_hat):
        a_eq, b_eq, c = full_program(aug, eta_hat)
        return LinearProgram(c=c, A_eq=a_eq, b_eq=b_eq)

    @staticmethod
    def _check_with_highs(lp, full):
        scipy_opt = pytest.importorskip("scipy.optimize")
        kept, every = (
            scipy_opt.linprog(p.c, A_eq=p.A_eq, b_eq=p.b_eq, bounds=(0, None), method="highs")
            for p in (lp, full)
        )
        assert kept.status == every.status == 0
        assert kept.fun == pytest.approx(every.fun, abs=1e-12)


class TestFlowRows:
    """``mdp._flow_rows`` against the entry-by-entry loop, on both callers' cells."""

    @staticmethod
    def _written(column, mdp, multiples, num_rows, num_columns):
        a_eq, b_eq = np.zeros((num_rows, num_columns)), np.zeros(num_rows)
        _flow_rows(column, mdp, multiples, a_eq, b_eq)
        return a_eq, b_eq

    @pytest.mark.parametrize("seed", range(3))
    def test_reward_augmented_cells(self, seed):
        mdp, _ = rl.generate_instance(DESK_CFG, seed)
        aug = rl.build_augmented_mdp(mdp, rl.RewardGrid(DESK_CFG.theta, mdp.horizon), mdp.reward)
        cell = reachable_cells(aug)
        column = np.full(aug.reachable[: mdp.horizon].shape, -1, dtype=np.int64)
        for (h, s, g), k in cell.items():
            column[h, s, g] = k * mdp.num_actions
        n_d = len(cell) * mdp.num_actions
        got = self._written(column, mdp, aug.reward.multiples, len(cell), n_d)
        want = loop_built_flow(cell, mdp, aug.reward.multiples, n_d)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("shape", [(2, 2, 5), (4, 3, 3)])
    def test_every_state_on_a_zero_reward(self, shape):
        # mimic-md's cells: every (h, s), reachable or not, as cell h * S + s
        num_states, num_actions, horizon = shape
        mdp, _ = make_instance(3, num_states, num_actions, horizon)
        cell = {(h, s, 0): h * num_states + s for h in range(horizon) for s in range(num_states)}
        column = (np.arange(len(cell)) * num_actions).reshape(horizon, num_states, 1)
        zero = np.zeros((horizon, num_states, num_actions), dtype=np.int64)
        n_d = len(cell) * num_actions
        got = self._written(column, mdp, zero, len(cell), 3 * n_d)
        want = loop_built_flow(cell, mdp, zero, 3 * n_d)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


class TestOccupancyToPolicy:
    """``rs_kt`` recovers its policy by row-normalizing the LP occupancy."""

    @staticmethod
    def _policy(d, reward):
        table = normalize_rows(d, min_mass=ZERO_MASS)
        return rl.RewardAugmentedPolicy(table=table, reward=reward)

    def test_concentrated_occupancy_gives_deterministic_policy(self):
        grid = rl.RewardGrid(1.0, 1)
        reward = rl.discretize_reward(np.zeros((1, 1, 2)), grid)
        d = np.zeros((1, 1, 1, 2))
        d[0, 0, 0, 1] = 1.0
        policy = self._policy(d, reward)
        assert policy.table[0, 0, 0].tolist() == [0.0, 1.0]

    def test_zero_mass_cells_become_uniform(self):
        grid = rl.RewardGrid(1.0, 1)
        reward = rl.discretize_reward(np.zeros((1, 2, 2)), grid)
        d = np.zeros((1, 2, 1, 2))
        d[0, 0, 0, 0] = 1.0
        policy = self._policy(d, reward)
        assert policy.table[0, 1, 0] == pytest.approx(np.full(2, 0.5))

    def test_policy_occupancy_recovery_is_a_fixed_point(self):
        mdp, _, grid = tiny_grid_instance(9, horizon=3, step=0.5)
        gr = rl.discretize_reward(mdp.reward, grid)
        rng = np.random.default_rng(2)
        policy = random_reward_augmented_policy(gr, mdp.num_states, rng)
        occ = exact_augmented_occupancy(mdp, policy, gr)
        recovered = self._policy(occ, gr)
        live = occ.sum(axis=3) > 1e-9
        diff = np.abs(recovered.table - policy.table)[live]
        assert diff.max() <= 1e-7


class TestRsKt:
    def test_in_class_expert_objective_within_dkw(self):
        mdp, _, grid = tiny_grid_instance(12, horizon=3, step=0.5)
        gr = rl.discretize_reward(mdp.reward, grid)
        rng = np.random.default_rng(10)
        expert = random_reward_augmented_policy(gr, mdp.num_states, rng)
        n = 2000
        data = rl.sample_trajectories(mdp, expert, n, seed=6)
        _, diag = rs_kt(data, mdp, mdp.reward, grid)
        assert diag.objective <= mdp.horizon * rl.dkw_band(n, 0.05)

    def test_single_trajectory_matches_deterministic_search(self):
        mdp, expert, grid = tiny_grid_instance(13, horizon=2, step=1.0)
        data = rl.sample_trajectories(mdp, expert, 1, seed=5)
        eta_hat = rl.empirical_return_distribution(data, mdp.reward, grid)
        _, diag = rs_kt(data, mdp, mdp.reward, grid)

        gr = rl.discretize_reward(mdp.reward, grid)
        n_g = grid.num_multiples(mdp.horizon - 1)
        best = np.inf
        shape = (mdp.horizon, mdp.num_states, n_g)
        cells = list(np.ndindex(shape))
        for choice in itertools.product(range(mdp.num_actions), repeat=len(cells)):
            table = np.zeros(shape + (mdp.num_actions,))
            for cell, action in zip(cells, choice):
                table[cell + (action,)] = 1.0
            candidate = rl.RewardAugmentedPolicy(table=table, reward=gr)
            d = rl.exact_return_distribution(mdp, candidate, mdp.reward, grid)
            best = min(best, rl.wasserstein(d, eta_hat))
        assert diag.objective == pytest.approx(best, abs=1e-7)

    def test_fork_pipeline(self):
        mdp, expert = rl.make_fork_fixture()
        grid = rl.RewardGrid(1.0, mdp.horizon)
        data = rl.sample_trajectories(mdp, expert, 10_000, seed=8)
        policy, diag = rs_kt(data, mdp, mdp.reward, grid)
        d = rl.exact_return_distribution(mdp, policy, mdp.reward, grid)
        w = rl.wasserstein(d, rl.DiscreteReturnDistribution.point_mass(1.0))
        assert w <= 0.05
        assert diag.lp_status == "optimal"

    def test_objective_lower_bounds_every_class_member(self):
        rng = np.random.default_rng(20)
        for inst in range(5):
            mdp, expert, grid = tiny_grid_instance(30 + inst, horizon=3, step=0.5)
            gr = rl.discretize_reward(mdp.reward, grid)
            data = rl.sample_trajectories(mdp, expert, 50, seed=inst)
            eta_hat = rl.empirical_return_distribution(data, mdp.reward, grid)
            _, diag = rs_kt(data, mdp, mdp.reward, grid)
            for _ in range(30):
                candidate = random_reward_augmented_policy(gr, mdp.num_states, rng)
                d = rl.exact_return_distribution(mdp, candidate, mdp.reward, grid)
                assert diag.objective <= rl.wasserstein(d, eta_hat) + 1e-7

    def test_recovered_policy_matches_lp_eta(self):
        mdp, expert, grid = tiny_grid_instance(40, horizon=3, step=0.5)
        data = rl.sample_trajectories(mdp, expert, 256, seed=9)
        policy, diag = rs_kt(data, mdp, mdp.reward, grid)
        eta_hat = rl.empirical_return_distribution(data, mdp.reward, grid)
        aug = rl.build_augmented_mdp(mdp, grid, mdp.reward)
        layout = lp_layout(aug, eta_hat)
        lp = build_rskt_lp(aug, eta_hat)
        sol = solve(lp)
        eta_lp = layout.return_distribution(sol.x)
        d = rl.exact_return_distribution(mdp, policy, mdp.reward, grid)
        dense = np.zeros(layout.n_keep)
        idx = np.rint(d.support / grid.theta).astype(int)
        dense[idx] = d.probs
        assert np.abs(dense - eta_lp).max() <= 1e-7

    def test_deterministic_output(self):
        mdp, expert, grid = tiny_grid_instance(41, horizon=3, step=0.5)
        data = rl.sample_trajectories(mdp, expert, 128, seed=14)
        p1, d1 = rs_kt(data, mdp, mdp.reward, grid)
        p2, d2 = rs_kt(data, mdp, mdp.reward, grid)
        assert np.array_equal(p1.table, p2.table)
        assert d1.iterations == d2.iterations

    def test_diagnostics_text(self):
        mdp, expert, grid = tiny_grid_instance(42)
        data = rl.sample_trajectories(mdp, expert, 16, seed=1)
        _, diag = rs_kt(data, mdp, mdp.reward, grid)
        text = diag.to_text()
        for key in ("objective", "iterations", "variables", "constraints"):
            assert key in text


class TestPinnedSolves:
    """The simplex walks one basis path per program; pin where it ends.

    Four seeded (2,2,5) programs of the desk benchmark's shape.  The digests
    of ``x`` and the pivot counts pin the compact program on the kept points
    and the pivot rule; the objectives agree with HiGHS on the same programs
    to 4e-15.
    """

    PINS = {
        0: (
            77,
            "67301af05b38272ea2414a7226be5ae147123446d40b0cc828e8039b9317e33e",
            0.00025538703868321374,
        ),
        1: (
            416,
            "bb7a16a824de458d6c2c94d88948048e571d619b07cdc2107001a41796be5ba4",
            9.215718466127e-19,
        ),
        2: (
            219,
            "9e73d439893e34cb69033376f2076523196997bb666e4facf9ac347de924be18",
            0.001517087172034752,
        ),
        3: (
            222,
            "06082c59780673855d0d2be71730a382b9401dcb3c42aea7d37543303fc81109",
            0.0019206058051270142,
        ),
    }

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_solution_and_iterations_are_pinned(self, seed):
        mdp, expert = rl.generate_instance(DESK_CFG, seed)
        data = rl.sample_trajectories(mdp, expert, 10_000, seed)
        sol = solve(rskt_program(mdp, data, DESK_CFG.theta))
        iterations, digest, objective = self.PINS[seed]
        assert sol.status == "optimal"
        assert sol.iterations == iterations
        assert hashlib.sha256(sol.x.tobytes()).hexdigest() == digest
        assert sol.objective == pytest.approx(objective, abs=1e-12)

    @pytest.mark.parametrize("seed", sorted(PINS))
    def test_count_reader_gives_the_dataset_walk_fit(self, seed):
        mdp, expert = rl.generate_instance(DESK_CFG, seed)
        data = rl.sample_trajectories(mdp, expert, 10_000, seed)
        grid = rl.RewardGrid(DESK_CFG.theta, mdp.horizon)
        gr = rl.discretize_reward(mdp.reward, grid)
        counts = count_occurrences(data, gr)
        policy, diag = rs_kt_from_counts(counts, mdp, gr)
        walk_policy, walk_diag = rs_kt(data, mdp, mdp.reward, grid)
        assert policy.table.tobytes() == walk_policy.table.tobytes()
        assert diag == walk_diag
        # the program built from the direct-sum estimate, solved from the same
        # crash basis, ends at the same vertex
        eta_hat = direct_grid_law(data, gr)
        aug = rl.build_augmented_mdp(mdp, grid, mdp.reward)
        layout = lp_layout(aug, eta_hat)
        basis = layout.crash_basis(counts)
        sol = solve(build_rskt_lp(aug, eta_hat), basis=basis)
        dense = layout.dense_occupancy(sol.x)
        table = normalize_rows(dense, min_mass=ZERO_MASS)
        assert policy.table.tobytes() == table.tobytes()
        assert (diag.iterations, diag.lp_objective) == (sol.iterations, sol.objective)


class TestThetaForEpsilon:
    def test_reference_ratio(self):
        assert theta_for_epsilon_rskt(0.7, 5) == pytest.approx(0.02)

    def test_boundary_value(self):
        assert theta_for_epsilon_rskt(5, 5) == pytest.approx(1 / 7)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            theta_for_epsilon_rskt(35.0, 5)
        with pytest.raises(ValueError):
            theta_for_epsilon_rskt(-1.0, 5)
