"""Cross-library oracle checks (skipped if scipy is unavailable).

The in-repo solver and metrics are self-contained on purpose; these tests
compare them against independent implementations on randomized inputs.
"""

import functools

import numpy as np
import pytest

import rdmlab as rl
from rdmlab import baselines
from rdmlab.baselines import count_state_actions, mimic_md
from rdmlab.lp import LinearProgram, solve
from rdmlab.rsbc import count_occurrences
from rdmlab.rskt import rs_kt_from_counts

scipy_opt = pytest.importorskip("scipy.optimize")
scipy_stats = pytest.importorskip("scipy.stats")

from conftest import (
    CRASH_DRIFT_SEED,
    KNOWN_BAD_PIVOT_CFG,
    KNOWN_BAD_PIVOT_SEEDS,
    MIMIC_MD_SEEDS,
    desk_dataset,
    desk_rskt_program,
    markov_occupancy,
    random_distribution,
    random_feasible_programs,
    rskt_program,
    slack_form,
)


class TestSimplexAgainstHighs:
    def test_objectives_match_on_random_feasible_programs(self):
        # HiGHS solves the program with <= rows and bounds as stated; the
        # in-repo simplex solves its standard form with one slack per <= row
        # and per upper bound
        for c, a_eq, b_eq, a_le, b_le in random_feasible_programs():
            n, m_eq = c.size, b_eq.size
            mine = solve(slack_form(c, a_eq, b_eq, a_le, b_le, upper=np.full(n, 5.0)))
            ref = scipy_opt.linprog(
                c,
                A_eq=a_eq if m_eq else None,
                b_eq=b_eq if m_eq else None,
                A_ub=a_le,
                b_ub=b_le,
                bounds=(0.0, 5.0),
                method="highs",
            )
            assert mine.status == "optimal" and ref.status == 0
            assert mine.objective == pytest.approx(ref.fun, abs=1e-7)

    def test_infeasible_and_unbounded_agree(self):
        lp = LinearProgram(c=[1.0, 0.0], A_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[1.0, 2.0])
        ref = scipy_opt.linprog(lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq, method="highs")
        assert solve(lp).status == "infeasible" and ref.status == 2

        lp = LinearProgram(c=[-1.0, 0.0])
        ref = scipy_opt.linprog(lp.c, bounds=[(0, None), (0, None)], method="highs")
        assert solve(lp).status == "unbounded" and ref.status == 3


    @pytest.mark.parametrize(
        "master_seed", list(range(1, 21)) + list(KNOWN_BAD_PIVOT_SEEDS)
    )
    def test_objectives_match_on_desk_rskt_programs(self, master_seed):
        # 20 desk programs plus every one the simplex once failed on
        lp = desk_rskt_program(master_seed)
        mine = solve(lp)
        ref = scipy_opt.linprog(
            lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq, bounds=(0, None), method="highs"
        )
        assert mine.status == "optimal" and ref.status == 0
        assert mine.objective == pytest.approx(ref.fun, abs=1e-9)

    @pytest.mark.parametrize(
        "master_seed", [*range(1, 21), *KNOWN_BAD_PIVOT_SEEDS, CRASH_DRIFT_SEED]
    )
    def test_crash_basis_objectives_match_on_desk_rskt_programs(self, master_seed):
        # the same programs, solved the way rs_kt_from_counts does: phase 2
        # from the crash basis of the counts' argmax policy, plus the one
        # that needs its tableau rebuilt on the way
        mdp, data = desk_dataset(master_seed)
        theta = KNOWN_BAD_PIVOT_CFG["theta"]
        gr = rl.discretize_reward(mdp.reward, rl.RewardGrid(theta, mdp.horizon))
        _, diag = rs_kt_from_counts(count_occurrences(data, gr), mdp, gr)
        lp = rskt_program(mdp, data, theta)
        ref = scipy_opt.linprog(
            lp.c, A_eq=lp.A_eq, b_eq=lp.b_eq, bounds=(0, None), method="highs"
        )
        assert diag.lp_status == "optimal" and ref.status == 0
        assert diag.lp_objective == pytest.approx(ref.fun, abs=1e-9)


def _abs_deviation_program(data, mdp):
    """``mimic_md``'s program in its original form, for HiGHS.

    Columns d and u; equality rows for the initial mass, the flow and the
    pinned ratios; two <= rows per entry for |d - d_hat| <= u; objective
    sum(u).  Returns (c, A_eq, b_eq, A_ub, b_ub, d_hat).
    """
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    counts = count_state_actions(data)
    state_counts = counts.sum(axis=2)
    n_d = horizon * num_states * num_actions
    col = np.arange(n_d).reshape(horizon, num_states, num_actions)
    rows, rhs = [], []
    for h in range(horizon):
        for s in range(num_states):
            row = np.zeros(2 * n_d)
            row[col[h, s]] = 1.0
            if h > 0:
                row[col[h - 1].ravel()] -= mdp.transitions[h - 1, :, :, s].ravel()
            rows.append(row)
            rhs.append(float(h == 0 and s == mdp.initial_state))
            if state_counts[h, s]:
                for a in range(num_actions):
                    row = np.zeros(2 * n_d)
                    row[col[h, s]] = -counts[h, s, a] / state_counts[h, s]
                    row[col[h, s, a]] += 1.0
                    rows.append(row)
                    rhs.append(0.0)
    d_hat = (counts / len(data)).ravel()
    eye = np.eye(n_d)
    a_ub = np.block([[eye, -eye], [-eye, -eye]])
    b_ub = np.concatenate([d_hat, -d_hat])
    c = np.concatenate([np.zeros(n_d), np.ones(n_d)])
    return c, np.array(rows), np.array(rhs), a_ub, b_ub, d_hat


class TestMimicMdAgainstHighs:
    #: pivots allowed from the crash basis at (5,3,5); 1-10 are needed there
    PIVOT_BUDGET_535 = 30

    @pytest.mark.parametrize("master_seed", MIMIC_MD_SEEDS)
    def test_policy_occupancy_reaches_the_highs_optimum(self, master_seed):
        self._check(*desk_dataset(master_seed))

    @pytest.mark.parametrize("master_seed", range(1, 8))
    def test_535_programs_reach_the_highs_optimum_within_budget(
        self, master_seed, monkeypatch
    ):
        budget = functools.partial(solve, max_iterations=self.PIVOT_BUDGET_535)
        monkeypatch.setattr(baselines, "solve", budget)
        self._check(*desk_dataset(master_seed, num_states=5, num_actions=3))

    @staticmethod
    def _check(mdp, data):
        c, a_eq, b_eq, a_ub, b_ub, d_hat = _abs_deviation_program(data, mdp)
        # HiGHS's default feasibility tolerances (1e-7) leave its (5,3,5)
        # optima up to 6e-8 off; tightened, it agrees with the simplex to 1e-15
        ref = scipy_opt.linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
            options=dict(primal_feasibility_tolerance=1e-10, dual_feasibility_tolerance=1e-10),
        )
        assert ref.status == 0
        occ = markov_occupancy(mdp, mimic_md(data, mdp))
        counts = count_state_actions(data)
        seen = counts.sum(axis=2) > 0
        ratios = counts[seen] / counts[seen].sum(axis=1, keepdims=True)
        pinned = occ[seen] - ratios * occ[seen].sum(axis=1, keepdims=True)
        assert np.abs(pinned).max() <= 1e-9
        assert np.abs(occ.ravel() - d_hat).sum() == pytest.approx(ref.fun, abs=1e-9)


class TestWassersteinAgainstScipy:
    def test_matches_scipy_on_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            p = random_distribution(rng, max_atoms=8)
            q = random_distribution(rng, max_atoms=8)
            ref = scipy_stats.wasserstein_distance(
                p.support, q.support, p.probs, q.probs
            )
            assert rl.wasserstein(p, q) == pytest.approx(ref, abs=1e-10)
