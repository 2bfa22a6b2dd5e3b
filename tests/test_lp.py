import numpy as np
import pytest

import rdmlab as rl
import rdmlab.lp as lp_mod
from rdmlab.baselines import count_state_actions, mimic_md_from_counts
from rdmlab.lp import (
    LinearProgram,
    LpError,
    LpIterationError,
    LpSizeError,
    _apply_pivot,
    _bland_pivot,
    _install_basis,
    _reinvert_on_drift,
    solve,
    solve_transport,
)

from conftest import random_feasible_programs, slack_form


class TestBasics:
    def test_min_above_one(self):
        # -x + s = -1: the row is flipped to a nonnegative rhs before solving
        sol = solve(slack_form(c=[1.0], a_le=[[-1.0]], b_le=[-1.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(1.0)

    def test_contradictory_equalities_infeasible(self):
        sol = solve(LinearProgram(c=[0.0], A_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]))
        assert sol.status == "infeasible"

    def test_unbounded_below(self):
        assert solve(LinearProgram(c=[-1.0])).status == "unbounded"

    def test_equality_with_redundant_rows(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            A_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
            b_eq=[1.0, 1.0, 2.0],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)

    def test_free_variable_split(self):
        # min t s.t. |x - 3| <= t with x free, written as x = x+ - x-
        lp = slack_form(
            c=[0.0, 0.0, 1.0],
            a_le=[[1.0, -1.0, -1.0], [-1.0, 1.0, -1.0]],
            b_le=[3.0, -3.0],
        )
        sol = solve(lp)
        assert sol.x[0] - sol.x[1] == pytest.approx(3.0)
        assert sol.objective == pytest.approx(0.0)

    def test_upper_bounds(self):
        sol = solve(slack_form(c=[-1.0], upper=[2.5]))
        assert sol.x[0] == pytest.approx(2.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[np.nan])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(c=[1.0, 2.0], A_eq=[[1.0]], b_eq=[1.0])


class TestDegenerateRows:
    """Phase 1 owns the rows with no coefficient and the artificials it leaves
    basic at level zero."""

    def test_zero_row_with_zero_rhs_changes_nothing(self):
        for c, a_eq, b_eq, a_le, b_le in random_feasible_programs(count=10):
            lp = slack_form(c=c, a_eq=a_eq, b_eq=b_eq, a_le=a_le, b_le=b_le, upper=[5.0] * c.size)
            zero = np.zeros((1, lp.num_variables))
            padded = LinearProgram(
                c=lp.c, A_eq=np.vstack([lp.A_eq, zero]), b_eq=np.append(lp.b_eq, 0.0)
            )
            want, got = solve(lp), solve(padded)
            assert (got.status, got.objective) == (want.status, want.objective)
            assert np.array_equal(got.x, want.x)

    def test_zero_row_with_nonzero_rhs_is_infeasible(self):
        lp = LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0], [0.0, 0.0]], b_eq=[1.0, 1.0])
        assert solve(lp).status == "infeasible"

    def test_zero_row_makes_a_given_basis_singular(self):
        lp = LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0], [0.0, 0.0]], b_eq=[1.0, 0.0])
        with pytest.raises(LpError, match=r"^starting basis is singular"):
            solve(lp, basis=[0, 1])

    def test_zero_level_artificial_is_pivoted_out(self, monkeypatch):
        # x + y = 0, x - y = 0: phase 1's one pivot brings x in on row 0 and
        # leaves row 1's artificial basic at zero, which y then replaces
        pivots = []
        real = lp_mod._apply_pivot

        def spy(tableau, r, j, iteration):
            pivots.append((r, j))
            real(tableau, r, j, iteration)

        monkeypatch.setattr(lp_mod, "_apply_pivot", spy)
        sol = solve(LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[0.0, 0.0]))
        assert (sol.status, sol.iterations, sol.objective) == ("optimal", 1, 0.0)
        assert sol.x.tolist() == [0.0, 0.0]
        assert pivots == [(0, 0), (1, 1)]


class TestDeterminism:
    def test_same_program_same_path(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 9))
        x0 = rng.random(9)
        lp = slack_form(c=rng.normal(size=9), a_eq=a, b_eq=a @ x0, upper=np.full(9, 5.0))
        s1, s2 = solve(lp), solve(lp)
        assert s1.iterations == s2.iterations
        assert np.array_equal(s1.x, s2.x)


class TestCertificates:
    def test_duality_gap_small_on_random_programs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n, m = 8, 5
            a = rng.normal(size=(m, n))
            x0 = rng.random(n)
            lp = slack_form(
                c=rng.normal(size=n),
                a_eq=a,
                b_eq=a @ x0,
                upper=np.full(n, 10.0),
            )
            sol = solve(lp)
            assert sol.status == "optimal"
            assert sol.duality_gap is not None and sol.duality_gap <= 1e-7

    def test_scaled_rows_still_solve(self):
        # badly scaled rows get equilibrated internally
        lp = slack_form(
            c=[1.0, 2.0],
            a_eq=[[1e6, 1e6]],
            b_eq=[1e6],
            a_le=[[-1e-6, 0.0]],
            b_le=[-1e-7],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.x[0] + sol.x[1] == pytest.approx(1.0)
        assert sol.x[0] >= 0.1 - 1e-9

    def test_iteration_cap_raises(self):
        lp = slack_form(c=[-1.0, -2.0], a_le=[[1.0, 1.0], [1.0, 3.0]], b_le=[4.0, 6.0])
        with pytest.raises(LpIterationError):
            solve(lp, max_iterations=1)

    def test_bad_pivot_fails_where_it_happens(self):
        # A pivot on a tiny element that drives a basic value negative beyond
        # round-off raises at that pivot instead of being clipped.
        tableau = np.array([
            [1e-9, 1.0, 1.0],  # pivot row
            [1.0, 0.0, 0.5],
            [-1.0, 0.0, 0.0],  # objective row
        ])
        with pytest.raises(
            LpError,
            match=r"^pivot 7 on element 1\.000e-09 \(row 0, column 0\) left a basic value of -",
        ):
            _apply_pivot(tableau, 0, 0, 7)

    def test_round_off_below_zero_is_clipped(self):
        tableau = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0 - 1e-9], [-1.0, 0.0, 0.0]])
        _apply_pivot(tableau, 0, 0, 1)
        assert tableau[1, -1] == 0.0

    def test_tiny_pivot_column_falls_back_instead_of_unbounded(self):
        # min -x s.t. 1e-8 x + y = 1: every entry of the entering column lies
        # in (_OPT_TOL, _PIV_TOL], so the ratio test must fall back to it.
        sol = solve(LinearProgram(c=[-1.0, 0.0], A_eq=[[1e-8, 1.0]], b_eq=[1.0]))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1e8, 0.0], rel=1e-12, abs=1e-12)
        assert sol.objective == pytest.approx(-1e8, rel=1e-12)

    def test_pivot_tolerance_skips_tiny_entries(self):
        # x enters with a tiny entry (ratio 0) and an ordinary one (ratio 1);
        # the tolerance pivots on the ordinary entry.
        tableau = np.array([
            [1e-8, 1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
        ])
        basis = np.array([1, 2])
        status, iterations = _bland_pivot(tableau, basis, 10, 0)
        assert (status, iterations) == ("optimal", 1)
        assert basis.tolist() == [1, 0]
        assert tableau[:2, -1].tolist() == [0.0, 1.0]


class TestStartingBasis:
    """``solve(lp, basis=...)`` runs phase 2 from a given feasible basis."""

    # x0 + x1 = 1 and 2 x0 + 2 x1 + x2 = b1: columns 0 and 1 are parallel
    @staticmethod
    def _program(b1):
        a_eq = [[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]]
        return LinearProgram(c=[1.0, 2.0, 0.0], A_eq=a_eq, b_eq=[1.0, b1])

    def test_optimal_basis_solves_without_pivots(self):
        for c, a_eq, b_eq, a_le, b_le in random_feasible_programs():
            lp = slack_form(c, a_eq, b_eq, a_le, b_le, upper=np.full(c.size, 5.0))
            two_phase = solve(lp)
            basis = np.flatnonzero(two_phase.x > 0.0)
            assert basis.size == lp.num_constraints  # these optima are nondegenerate
            warm = solve(lp, basis=basis)
            assert (warm.status, warm.iterations) == ("optimal", 0)
            assert warm.objective == pytest.approx(two_phase.objective, abs=1e-12)
            assert warm.x == pytest.approx(two_phase.x, abs=1e-12)

    def test_slack_crash_basis_reaches_the_highs_optimum(self):
        # a x <= b with b > 0 and 0 <= x <= 5: x = 0 is feasible, so the slack
        # columns form a crash basis
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            c, a_le, b_le = rng.normal(size=n), rng.normal(size=(3, n)), rng.random(3)
            lp = slack_form(c, a_le=a_le, b_le=b_le, upper=np.full(n, 5.0))
            sol = solve(lp, basis=np.arange(n, lp.num_variables))
            ref = scipy_opt.linprog(c, A_ub=a_le, b_ub=b_le, bounds=(0.0, 5.0), method="highs")
            assert sol.status == "optimal" and ref.status == 0
            assert sol.objective == pytest.approx(ref.fun, abs=1e-9)

    def test_feasible_basis_is_used(self):
        sol = solve(self._program(3.0), basis=[0, 2])
        assert (sol.status, sol.iterations) == ("optimal", 0)
        assert sol.x.tolist() == [1.0, 0.0, 1.0]

    def test_singular_basis_raises(self):
        with pytest.raises(LpError, match=r"^starting basis is singular"):
            solve(self._program(3.0), basis=[0, 1])

    def test_infeasible_basis_raises(self):
        # x0 = 1 leaves x2 = 1 - 2 = -1
        with pytest.raises(LpError, match=r"^starting basis is infeasible: basic value -1\.0"):
            solve(self._program(1.0), basis=[0, 2])
        # the two-phase path reports the program itself as infeasible
        assert solve(self._program(1.0)).status == "infeasible"

    def test_drifted_tableau_is_rebuilt_from_its_basis(self):
        # x + y + s1 = 4, x + 2 y + s2 = 6: the slacks form a feasible basis
        a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 2.0, 0.0, 1.0]])
        b, c, basis = np.array([4.0, 6.0]), np.array([-1.0, -2.0, 0.0, 0.0]), np.array([2, 3])
        tableau = np.zeros((3, 5))
        _install_basis(tableau, a, b, c, basis, 0)
        clean = tableau.copy()
        tableau[0, 0] += 1e-12  # round-off: left alone
        _reinvert_on_drift(tableau, a, b, c, basis, 10)
        assert tableau[0, 0] == clean[0, 0] + 1e-12
        tableau[0, 0] += 1e-6  # drift: rebuilt
        _reinvert_on_drift(tableau, a, b, c, basis, 20)
        assert np.array_equal(tableau, clean)

    def test_two_phase_solve_is_drift_checked(self, monkeypatch):
        # a 6 x 6 transport program: one of its 12 rows is redundant, and
        # phase 2 runs past pivot 10 on the 11 rows phase 1 keeps
        checked = []

        def spy(*args):
            checked.append(args[-1])
            _reinvert_on_drift(*args)

        monkeypatch.setattr(rl.lp, "_reinvert_on_drift", spy)
        rng = np.random.default_rng(0)
        n = 6
        a_eq = np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))])
        b_eq = np.concatenate([rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))])
        sol = solve(LinearProgram(c=rng.random(n * n), A_eq=a_eq, b_eq=b_eq))
        assert sol.status == "optimal" and sol.iterations > 10
        assert checked and all(i % 10 == 0 for i in checked)
        assert checked[-1] == sol.iterations // 10 * 10
        assert sol.duality_gap <= 1e-9

    def test_wrong_length_basis_raises_value_error(self):
        with pytest.raises(ValueError, match="1 columns for 2 rows"):
            solve(self._program(3.0), basis=[0])
        with pytest.raises(ValueError, match="outside"):
            solve(self._program(3.0), basis=[0, 3])


class TestSizeBudget:
    def test_tableau_past_the_budget_raises_before_solving(self, monkeypatch):
        lp = LinearProgram(c=[1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
        monkeypatch.setattr(lp_mod, "DENSE_BYTES", 2 * 3 * 8 - 1)
        with pytest.raises(
            LpSizeError, match=r"simplex tableau of 2 rows x 3 columns needs 48 bytes"
        ):
            solve(lp)
        monkeypatch.setattr(lp_mod, "DENSE_BYTES", 2 * 3 * 8)
        assert solve(lp).objective == pytest.approx(1.0)

    def test_size_error_is_an_lp_error(self):
        # so the harness counts it as a failed fit, not a crash
        assert issubclass(LpSizeError, LpError)

    def test_mimic_md_program_past_the_budget_raises(self, monkeypatch):
        mdp, expert = rl.make_fork_fixture()
        counts = count_state_actions(rl.sample_trajectories(mdp, expert, 50, seed=1))
        monkeypatch.setattr(lp_mod, "DENSE_BYTES", 8)
        with pytest.raises(LpSizeError, match="mimic-md program of"):
            mimic_md_from_counts(counts, mdp)


class TestTransport:
    def test_equal_marginals_zero_cost(self):
        xs = np.array([0.0, 1.0, 2.5])
        costs = np.abs(xs[:, None] - xs[None, :])
        p = np.array([0.2, 0.3, 0.5])
        assert solve_transport(costs, p, p) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses(self):
        assert solve_transport(np.array([[1.75]]), [1.0], [1.0]) == pytest.approx(1.75)

    def test_matches_cdf_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            xs = np.sort(rng.uniform(0, 4, size=4))
            ys = np.sort(rng.uniform(0, 4, size=4))
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            dp = rl.DiscreteReturnDistribution.from_weighted(xs, p)
            dq = rl.DiscreteReturnDistribution.from_weighted(ys, q)
            costs = np.abs(dp.support[:, None] - dq.support[None, :])
            assert solve_transport(costs, dp.probs, dq.probs) == pytest.approx(
                rl.wasserstein(dp, dq), abs=1e-9
            )

    def test_marginal_validation(self):
        with pytest.raises(ValueError):
            solve_transport(np.zeros((2, 2)), [0.5, 0.4], [0.5, 0.5])
