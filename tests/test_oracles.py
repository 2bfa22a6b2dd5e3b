"""Cross-library oracle checks (skipped if scipy is unavailable).

The in-repo solver and metrics are self-contained on purpose; these tests
compare them against independent implementations on randomized inputs.
"""

import numpy as np
import pytest

import rdmlab as rl
from rdmlab.lp import LinearProgram, solve

scipy_opt = pytest.importorskip("scipy.optimize")
scipy_stats = pytest.importorskip("scipy.stats")

from conftest import KNOWN_BAD_PIVOT_SEEDS, desk_rskt_program, random_distribution


class TestSimplexAgainstHighs:
    def _random_lp(self, rng, n, m_eq, m_le):
        a_eq = rng.normal(size=(m_eq, n))
        x0 = rng.random(n)  # interior point guarantees feasibility
        a_le = rng.normal(size=(m_le, n))
        return LinearProgram(
            c=rng.normal(size=n),
            A_eq=a_eq,
            b_eq=a_eq @ x0,
            A_le=a_le,
            b_le=a_le @ x0 + rng.random(m_le),
            upper=np.full(n, 5.0),
        )

    def test_objectives_match_on_random_feasible_programs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            lp = self._random_lp(rng, n, m_eq=int(rng.integers(0, n)), m_le=3)
            mine = solve(lp)
            ref = scipy_opt.linprog(
                lp.c,
                A_eq=lp.A_eq if lp.A_eq.size else None,
                b_eq=lp.b_eq if lp.b_eq.size else None,
                A_ub=lp.A_le if lp.A_le.size else None,
                b_ub=lp.b_le if lp.b_le.size else None,
                bounds=list(zip(lp.lower, lp.upper)),
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
