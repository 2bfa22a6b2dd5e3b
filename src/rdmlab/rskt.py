"""Known-transition distribution matching via an occupancy-measure LP.

The search space is the polytope of occupancy measures of the
reward-augmented MDP, which is exactly the set of behaviors of policies
conditioning on (stage, state, discretized cumulative reward).  The program
minimizes the Wasserstein distance between the induced return distribution
and the empirical expert estimate: with both distributions supported on the
uniform grid of step theta, the distance equals theta times the sum of
absolute CDF differences at the grid points.  That theta factor is applied
when reporting, so objectives are comparable with
:func:`rdmlab.distributions.wasserstein` (the raw LP objective is the plain
sum).

The program is compact.  Its columns are the occupancy d over the
forward-reachable (h, s, g) cells times actions, then x+ and x- over the
kept grid prefix ``0..n_keep-1``, all nonnegative.  Its rows are one
initial-mass row (the only reachable stage-0 cell is the initial augmented
state, so the two textbook initial-flow conditions coincide), one flow row
per reachable cell at stages 1..H-1, and one bidiagonal CDF row per kept
grid point with the return distribution substituted:

    x+_g - x-_g - x+_{g-1} + x-_{g-1} - sum_{final (s, g', a) -> g} d = -eta_hat_g

so x+_g - x-_g is the CDF difference at g.  The objective is
sum(x+ + x-).  The return distribution eta is not a column: it is read off
the final-stage occupancy (:meth:`RsktLayout.return_distribution`).  The
matrix is built by array indexing over the reachable cells, each entry
written once.  ``RsktDiagnostics.num_variables`` and ``num_constraints``
count these columns and rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteReturnDistribution, empirical_return_distribution
from .lp import LinearProgram, LpError, LpSolution, solve
from .mdp import AugmentedMdp, Dataset, GridReward, RewardGrid, TabularMdp, build_augmented_mdp
from .policies import ZERO_MASS, RewardAugmentedPolicy, normalize_rows

__all__ = [
    "OccupancySolution",
    "RsktDiagnostics",
    "RsktLayout",
    "lp_layout",
    "build_rskt_lp",
    "occupancy_to_policy",
    "rs_kt",
    "theta_for_epsilon_rskt",
]


@dataclass(frozen=True)
class RsktLayout:
    """Column indexing of the occupancy LP, derived from the augmented MDP.

    Column order: occupancy d over the reachable (h, s, g) cells in C order
    times actions, then x+ and x- over the kept grid prefix
    ``0..n_keep-1``.  ``column[h, s, g]`` is the d column of action 0 in
    cell (h, s, g), or -1 where the cell is unreachable; row ``k`` of the
    program is the flow row of the k-th reachable cell (row 0, the initial
    cell's, is the initial-mass row).
    """

    aug: AugmentedMdp
    n_keep: int
    column: np.ndarray  # (H, S, G) int64
    num_d: int

    @property
    def plus_offset(self) -> int:
        return self.num_d

    @property
    def minus_offset(self) -> int:
        return self.num_d + self.n_keep

    @property
    def num_variables(self) -> int:
        return self.num_d + 2 * self.n_keep

    def dense_occupancy(self, x: np.ndarray) -> np.ndarray:
        """Scatter the d block of an LP vector into a dense (H, S, G, A) array."""
        num_actions = self.aug.base.num_actions
        dense = np.zeros(self.column.shape + (num_actions,))
        dense[self.column >= 0] = x[: self.num_d].reshape(-1, num_actions)
        return dense

    def return_distribution(self, x: np.ndarray) -> np.ndarray:
        """eta over the kept grid: final-stage d pushed through the last increments."""
        cols, returns = self._final_entries()
        return np.bincount(returns, weights=x[cols], minlength=self.n_keep)

    def _final_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """d columns of the final stage and the return multiple each one reaches."""
        last = self.aug.base.horizon - 1
        num_actions = self.aug.base.num_actions
        s, g = np.nonzero(self.column[last] >= 0)
        actions = np.arange(num_actions)
        cols = self.column[last, s, g][:, None] + actions
        returns = g[:, None] + self.aug.increments[last][s]
        return cols.ravel(), returns.ravel()

    def pack_occupancy(self, occ: np.ndarray, eta_hat_full: np.ndarray) -> np.ndarray:
        """Assemble a full LP vector from a dense occupancy (e.g. a DP output).

        x+ and x- are the positive and negative parts of the CDF difference,
        so the result is feasible iff the occupancy itself satisfies the
        flow rows.
        """
        x = np.zeros(self.num_variables)
        x[: self.num_d] = occ[self.column >= 0].ravel()
        cum = np.cumsum(self.return_distribution(x) - eta_hat_full)
        x[self.plus_offset : self.minus_offset] = np.maximum(cum, 0.0)
        x[self.minus_offset :] = np.maximum(-cum, 0.0)
        return x


@dataclass(frozen=True)
class OccupancySolution:
    """Optimal occupancy, its return distribution, and the achieved distance.

    ``objective`` is in true Wasserstein units (the raw LP objective times
    the grid step).
    """

    d: np.ndarray  # (H, S, G, A), zeros on pruned cells
    eta: DiscreteReturnDistribution
    objective: float
    reward: GridReward

    def __post_init__(self) -> None:
        stage_mass = self.d.sum(axis=(1, 2, 3))
        if np.abs(stage_mass - 1.0).max() > 1e-6:
            raise ValueError(f"occupancy stage masses {stage_mass} do not sum to 1")


@dataclass(frozen=True)
class RsktDiagnostics:
    lp_status: str
    objective: float  # Wasserstein units
    lp_objective: float  # raw sum of x+ and x-
    iterations: int
    num_variables: int
    num_constraints: int
    duality_gap: float | None
    eta_mass_drift: float

    def to_text(self) -> str:
        lines = [
            f"status {self.lp_status}",
            f"objective {self.objective!r}",
            f"lp-objective {self.lp_objective!r}",
            f"iterations {self.iterations}",
            f"variables {self.num_variables}",
            f"constraints {self.num_constraints}",
            f"duality-gap {self.duality_gap!r}",
            f"eta-mass-drift {self.eta_mass_drift!r}",
        ]
        return "\n".join(lines)


def _eta_hat_on_grid(eta_hat: DiscreteReturnDistribution, grid: RewardGrid) -> np.ndarray:
    """Expand an estimate supported on grid values into a dense multiple vector."""
    dense = np.zeros(grid.full_size)
    multiples = np.rint(eta_hat.support / grid.theta).astype(np.int64)
    if (
        multiples.min() < 0
        or multiples.max() >= grid.full_size
        or np.abs(multiples * grid.theta - eta_hat.support).max() > 1e-9
    ):
        raise ValueError("estimate support does not lie on the reward grid")
    dense[multiples] = eta_hat.probs
    return dense


def lp_layout(aug: AugmentedMdp, eta_hat: DiscreteReturnDistribution) -> RsktLayout:
    """Index the LP variables for a given augmented MDP and target estimate."""
    return _layout(aug, _eta_hat_on_grid(eta_hat, aug.grid))


def _layout(aug: AugmentedMdp, eta_hat_full: np.ndarray) -> RsktLayout:
    reach_max = int(np.nonzero(aug.return_support_mask())[0][-1])
    hat_max = int(np.nonzero(eta_hat_full > 0)[0][-1])
    n_keep = max(reach_max, hat_max) + 1
    horizon, num_states = aug.base.horizon, aug.base.num_states
    live = np.zeros((horizon, num_states, aug.grid.num_multiples(horizon - 1)), dtype=bool)
    for h in range(horizon):
        live[h, :, : aug.reachable[h].shape[1]] = aug.reachable[h]
    num_cells = int(live.sum())
    column = np.full(live.shape, -1, dtype=np.int64)
    column[live] = np.arange(num_cells) * aug.base.num_actions
    return RsktLayout(
        aug=aug, n_keep=n_keep, column=column, num_d=num_cells * aug.base.num_actions
    )


def build_rskt_lp(
    aug: AugmentedMdp, eta_hat: DiscreteReturnDistribution
) -> LinearProgram:
    """Assemble the compact distribution-matching LP over augmented occupancies.

    Rows: one initial-mass condition, flow conservation per reachable cell
    at stages 1..H-1, and one bidiagonal CDF row per kept grid point (see
    the module docstring).  The objective is sum(x+ + x-); multiply by the
    grid step for Wasserstein units.
    """
    eta_hat_full = _eta_hat_on_grid(eta_hat, aug.grid)
    return _assemble_lp(_layout(aug, eta_hat_full), eta_hat_full)


def _assemble_lp(layout: RsktLayout, eta_hat_full: np.ndarray) -> LinearProgram:
    aug = layout.aug
    base = aug.base
    num_actions = base.num_actions
    n_keep, n_cells = layout.n_keep, layout.num_d // num_actions
    column = layout.column
    a_eq = np.zeros((n_cells + n_keep, layout.num_variables))
    b_eq = np.zeros(n_cells + n_keep)

    # row k is the flow row of reachable cell k: outflow at its stage ...
    cell_cols = column[column >= 0][:, None] + np.arange(num_actions)
    a_eq[np.arange(n_cells)[:, None], cell_cols] = 1.0
    b_eq[0] = 1.0  # ... and cell 0, the initial one, carries the unit mass
    row_of = column // num_actions  # -1 stays -1 on unreachable cells

    # ... minus the inflow from every reachable cell one stage earlier
    h, s, g = np.nonzero(column[:-1] >= 0)
    p = base.transitions[h, s]  # (cells, A, S')
    i, a, s_next = np.nonzero(p > 0.0)
    g_next = g[i] + aug.increments[h[i], s[i], a]
    a_eq[row_of[h[i] + 1, s_next, g_next], column[h[i], s[i], g[i]] + a] = -p[i, a, s_next]

    # CDF rows: x+_g - x-_g - x+_{g-1} + x-_{g-1} - eta_g = -eta_hat_g
    cdf0 = n_cells
    g = np.arange(n_keep)
    a_eq[cdf0 + g, layout.plus_offset + g] = 1.0
    a_eq[cdf0 + g, layout.minus_offset + g] = -1.0
    a_eq[cdf0 + g[1:], layout.plus_offset + g[:-1]] = -1.0
    a_eq[cdf0 + g[1:], layout.minus_offset + g[:-1]] = 1.0
    cols, returns = layout._final_entries()
    a_eq[cdf0 + returns, cols] = -1.0
    b_eq[cdf0:] = -eta_hat_full[:n_keep]

    c = np.zeros(layout.num_variables)
    c[layout.plus_offset :] = 1.0
    return LinearProgram(c=c, A_eq=a_eq, b_eq=b_eq)


def occupancy_to_policy(sol: OccupancySolution, grid: RewardGrid) -> RewardAugmentedPolicy:
    """Row-normalize an occupancy into a policy; uniform rows where it has no mass."""
    table = normalize_rows(sol.d, min_mass=ZERO_MASS)
    return RewardAugmentedPolicy(grid=grid, table=table, reward=sol.reward)


def rs_kt(
    data: Dataset,
    mdp: TabularMdp,
    reward: np.ndarray,
    grid: RewardGrid,
) -> tuple[RewardAugmentedPolicy, RsktDiagnostics]:
    """Estimate the expert's return distribution, then fit the closest policy.

    Pipeline: empirical return estimate on the grid, occupancy LP over the
    reward-augmented MDP, policy recovery by row normalization.  Requires
    the exact transition model (it enters the flow constraints).  LP
    failures propagate as :class:`rdmlab.lp.LpError`.
    """
    eta_hat = empirical_return_distribution(data, reward, grid)
    aug = build_augmented_mdp(mdp, grid, reward=reward)
    eta_hat_full = _eta_hat_on_grid(eta_hat, grid)
    layout = _layout(aug, eta_hat_full)
    lp = _assemble_lp(layout, eta_hat_full)
    solution: LpSolution = solve(lp)
    if solution.status != "optimal":
        raise LpError(f"occupancy program reported {solution.status}")
    dense = layout.dense_occupancy(solution.x)
    eta_block = layout.return_distribution(solution.x)
    mass_drift = abs(float(eta_block.sum()) - 1.0)
    support = np.nonzero(eta_block > ZERO_MASS)[0]
    # solver drift on the eta rows stays well inside 1e-7; renormalize and
    # surface the drift through the diagnostics
    probs = eta_block[support] / eta_block[support].sum()
    eta = DiscreteReturnDistribution(support * grid.theta, probs)
    occupancy = OccupancySolution(
        d=dense,
        eta=eta,
        objective=float(solution.objective) * grid.theta,
        reward=aug.reward,
    )
    policy = occupancy_to_policy(occupancy, grid)
    diagnostics = RsktDiagnostics(
        lp_status=solution.status,
        objective=occupancy.objective,
        lp_objective=float(solution.objective),
        iterations=solution.iterations,
        num_variables=lp.num_variables,
        num_constraints=lp.num_constraints,
        duality_gap=solution.duality_gap,
        eta_mass_drift=mass_drift,
    )
    return policy, diagnostics


def theta_for_epsilon_rskt(epsilon: float, horizon: int) -> float:
    """Grid step eps / (7 H) that makes the known-transition fit eps-accurate."""
    if not 0 < epsilon <= horizon:
        raise ValueError(f"epsilon must lie in (0, {horizon}], got {epsilon}")
    return epsilon / (7.0 * horizon)
