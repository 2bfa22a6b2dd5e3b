"""Known-transition distribution matching via an occupancy-measure LP.

The search space is the polytope of occupancy measures of the
reward-augmented MDP, which is exactly the set of behaviors of policies
conditioning on (stage, state, discretized cumulative reward).  The program
minimizes the Wasserstein distance between the induced return distribution
and the empirical expert estimate: with both distributions supported on the
uniform grid of step theta, the distance equals theta times the sum of
absolute CDF differences at the grid points.  That theta factor is applied
when reporting, so objectives are comparable with
:func:`rdmlab.distributions.wasserstein` (the raw LP objective is the
weighted sum below).

Between two points where neither law can put mass the CDF difference does
not change, so the program writes it only at the kept points: the sorted
grid multiples below ``n_keep`` where some final (s, g, a) lands
(``AugmentedMdp.return_support_mask``) or the estimate has mass.  Point
``p_i`` stands for the run of grid points up to the next kept one and
carries the weight ``w_i = p_{i+1} - p_i`` (the last one ``n_keep -
p_i``), so the weighted sum equals the sum over every grid point below
``n_keep`` (Vallender 1974).  In the run loop the estimate is drawn on
the same MDP, so its support lies in the reachable returns: the kept
points, and with them A and c, are then the same for every program of
one instance, and only b moves with the estimate.

The program is compact.  Its columns are the occupancy d over the
forward-reachable (h, s, g) cells times actions, then x+ and x- over the
kept points, all nonnegative.  Its rows are one initial-mass row (the only
reachable stage-0 cell is the initial augmented state, so the two textbook
initial-flow conditions coincide), one flow row per reachable cell at
stages 1..H-1, and one bidiagonal CDF row per kept point with the return
distribution substituted:

    x+_i - x-_i - x+_{i-1} + x-_{i-1} - sum_{final (s, g', a) -> p_i} d = -eta_hat(p_i)

so x+_i - x-_i is the CDF difference at p_i.  The objective is
sum_i w_i (x+_i + x-_i).  The return distribution eta is not a column: it
is read off the final-stage occupancy
(:meth:`RsktLayout.return_distribution`).  The matrix is built by array
indexing over the reachable cells, each entry written once; the flow rows
by ``mdp._flow_rows``, which ``mimic-md`` shares.  Its size is checked
against ``lp.check_dense_size`` before it is allocated.
``RsktDiagnostics.num_variables`` and ``num_constraints`` count these
columns and rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteReturnDistribution
from .lp import LinearProgram, LpError, LpSolution, check_dense_size, solve
from .mdp import (
    AugmentedMdp,
    Dataset,
    GridReward,
    RewardGrid,
    TabularMdp,
    _flow_rows,
    build_augmented_mdp,
    discretize_reward,
)
from .policies import (
    ZERO_MASS,
    RewardAugmentedPolicy,
    exact_augmented_occupancy,
    normalize_rows,
)
from .rsbc import count_occurrences, eta_hat_from_counts

__all__ = [
    "RsktDiagnostics",
    "RsktLayout",
    "lp_layout",
    "build_rskt_lp",
    "rs_kt_from_counts",
    "rs_kt",
    "theta_for_epsilon_rskt",
]


@dataclass(frozen=True)
class RsktLayout:
    """The occupancy LP of one augmented MDP and target estimate.

    Column order: occupancy d over the reachable (h, s, g) cells in C order
    times actions, then x+ and x- over the kept ``points``, the sorted grid
    multiples below ``n_keep`` where a final (s, g, a) lands or
    ``eta_hat``, the estimate over ``0..n_keep-1``, has mass.
    ``column[h, s, g]`` is the d column of action 0 in cell (h, s, g), or -1
    where the cell is unreachable; row ``k`` of the program is the flow row
    of the k-th reachable cell (row 0, the initial cell's, is the
    initial-mass row), and the CDF rows follow in the order of ``points``.
    """

    aug: AugmentedMdp
    eta_hat: np.ndarray  # (n_keep,)
    points: np.ndarray  # (P,) int64, increasing, the last one n_keep - 1
    column: np.ndarray  # (H, S, G) int64
    num_d: int

    @property
    def n_keep(self) -> int:
        return self.eta_hat.size

    @property
    def plus_offset(self) -> int:
        return self.num_d

    @property
    def minus_offset(self) -> int:
        return self.num_d + self.points.size

    @property
    def num_variables(self) -> int:
        return self.num_d + 2 * self.points.size

    @property
    def weights(self) -> np.ndarray:
        """Grid points each kept point stands for: the gap to the next one."""
        return np.diff(self.points, append=self.n_keep).astype(float)

    def dense_occupancy(self, x: np.ndarray) -> np.ndarray:
        """Scatter the d block of an LP vector into a dense (H, S, G, A) array."""
        num_actions = self.aug.base.num_actions
        dense = np.zeros(self.column.shape + (num_actions,))
        dense[self.column >= 0] = x[: self.num_d].reshape(-1, num_actions)
        return dense

    def return_distribution(self, x: np.ndarray) -> np.ndarray:
        """eta over the kept grid: final-stage d shifted by the last reward multiples."""
        cols, returns = self._final_entries()
        return np.bincount(returns, weights=x[cols], minlength=self.n_keep)

    def _final_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """d columns of the final stage and the return each reaches, cells in C order."""
        last = self.column[-1]
        live = last >= 0
        cols = last[live][:, None] + np.arange(self.aug.base.num_actions)
        returns = self.aug.reward.returns(np.arange(last.shape[1]))[live]
        return cols.ravel(), returns.ravel()

    def program(self) -> LinearProgram:
        """The compact distribution-matching LP of the module docstring; its
        objective times the grid step is in Wasserstein units."""
        n_cells, n_points = self.num_d // self.aug.base.num_actions, self.points.size
        check_dense_size(n_cells + n_points, self.num_variables, "rs-kt program")
        a_eq = np.zeros((n_cells + n_points, self.num_variables))
        b_eq = np.zeros(n_cells + n_points)
        _flow_rows(self.column, self.aug.base, self.aug.reward.multiples, a_eq, b_eq)

        # CDF rows: x+_i - x-_i - x+_{i-1} + x-_{i-1} - eta(p_i) = -eta_hat(p_i)
        i = np.arange(n_points)
        a_eq[n_cells + i, self.plus_offset + i] = 1.0
        a_eq[n_cells + i, self.minus_offset + i] = -1.0
        a_eq[n_cells + i[1:], self.plus_offset + i[:-1]] = -1.0
        a_eq[n_cells + i[1:], self.minus_offset + i[:-1]] = 1.0
        cols, returns = self._final_entries()
        a_eq[n_cells + np.searchsorted(self.points, returns), cols] = -1.0
        b_eq[n_cells:] = -self.eta_hat[self.points]

        c = np.zeros(self.num_variables)
        c[self.plus_offset :] = np.tile(self.weights, 2)
        return LinearProgram(c=c, A_eq=a_eq, b_eq=b_eq)

    def pack_occupancy(self, occ: np.ndarray) -> np.ndarray:
        """Assemble a full LP vector from a dense occupancy (e.g. a DP output).

        x+ and x- are the positive and negative parts of the CDF difference
        at the kept points, so the result is feasible iff the occupancy
        itself satisfies the flow rows.
        """
        x = np.zeros(self.num_variables)
        x[: self.num_d] = occ[self.column >= 0].ravel()
        cum = np.cumsum(self.return_distribution(x) - self.eta_hat)[self.points]
        x[self.plus_offset : self.minus_offset] = np.maximum(cum, 0.0)
        x[self.minus_offset :] = np.maximum(-cum, 0.0)
        return x

    def crash_basis(self, counts: np.ndarray) -> np.ndarray:
        """A feasible starting basis for the program, from the visit counters.

        The deterministic policy playing the most visited action of M[h, s,
        g, :] in every cell (action 0 where unvisited) gives one basic d
        column per reachable cell, and its CDF difference at each kept
        point picks x+ (difference >= 0) or x-.  Ordered by stage, the d
        block is unit triangular and the x block bidiagonal with a unit
        diagonal, so the basis is nonsingular; it is feasible because its
        vertex is that policy's packed occupancy.
        """
        aug = self.aug
        choice = np.argmax(counts, axis=-1)
        table = np.eye(counts.shape[-1])[choice]
        policy = RewardAugmentedPolicy(table=table, reward=aug.reward)
        occ = exact_augmented_occupancy(aug.base, policy, aug.reward)
        x = self.pack_occupancy(occ)
        below = x[self.minus_offset :] > 0.0
        x_cols = np.where(below, self.minus_offset, self.plus_offset) + np.arange(below.size)
        live = self.column >= 0
        return np.concatenate([self.column[live] + choice[live], x_cols])


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
    """The LP layout of an augmented MDP and target estimate; ``.program()`` is the LP."""
    eta_hat_full = _eta_hat_on_grid(eta_hat, aug.grid)
    points = np.flatnonzero(aug.return_support_mask() | (eta_hat_full > 0))
    n_keep = int(points[-1]) + 1
    horizon = aug.base.horizon
    live = aug.reachable[:horizon, :, : aug.grid.table_size]
    num_cells = int(live.sum())
    column = np.full(live.shape, -1, dtype=np.int64)
    column[live] = np.arange(num_cells) * aug.base.num_actions
    return RsktLayout(
        aug=aug,
        eta_hat=eta_hat_full[:n_keep],
        points=points,
        column=column,
        num_d=num_cells * aug.base.num_actions,
    )


def build_rskt_lp(
    aug: AugmentedMdp, eta_hat: DiscreteReturnDistribution
) -> LinearProgram:
    """Assemble the compact distribution-matching LP over augmented occupancies."""
    return lp_layout(aug, eta_hat).program()


def rs_kt_from_counts(
    counts: np.ndarray, mdp: TabularMdp, reward: GridReward
) -> tuple[RewardAugmentedPolicy, RsktDiagnostics]:
    """Fit the closest policy to the return estimate read from M[h, s, g, a].

    Pipeline: the empirical return estimate on the grid of ``reward``
    (:func:`rdmlab.rsbc.eta_hat_from_counts`), occupancy LP over the
    reward-augmented MDP solved from :meth:`RsktLayout.crash_basis`, policy
    recovery by row normalization.  Requires
    the exact transition model (it enters the flow constraints).  LP
    failures propagate as :class:`rdmlab.lp.LpError`.
    """
    grid = reward.grid
    eta_hat = eta_hat_from_counts(counts, reward)
    aug = build_augmented_mdp(mdp, grid, reward=reward)
    layout = lp_layout(aug, eta_hat)
    lp = layout.program()
    solution: LpSolution = solve(lp, basis=layout.crash_basis(counts))
    if solution.status != "optimal":
        raise LpError(f"occupancy program reported {solution.status}")
    dense = layout.dense_occupancy(solution.x)
    stage_mass = dense.sum(axis=(1, 2, 3))
    if np.abs(stage_mass - 1.0).max() > 1e-6:
        raise ValueError(f"occupancy stage masses {stage_mass} do not sum to 1")
    policy = RewardAugmentedPolicy(table=normalize_rows(dense, min_mass=ZERO_MASS), reward=reward)
    # solver drift on the eta rows stays well inside 1e-7; surface it
    eta_mass = float(layout.return_distribution(solution.x).sum())
    diagnostics = RsktDiagnostics(
        lp_status=solution.status,
        objective=float(solution.objective) * grid.theta,
        lp_objective=float(solution.objective),
        iterations=solution.iterations,
        num_variables=lp.num_variables,
        num_constraints=lp.num_constraints,
        duality_gap=solution.duality_gap,
        eta_mass_drift=abs(eta_mass - 1.0),
    )
    return policy, diagnostics


def rs_kt(
    data: Dataset, mdp: TabularMdp, reward: np.ndarray | GridReward, grid: RewardGrid
) -> tuple[RewardAugmentedPolicy, RsktDiagnostics]:
    """``rs_kt_from_counts`` on the dataset's visit counters on ``grid``."""
    gr = discretize_reward(reward, grid)
    return rs_kt_from_counts(count_occurrences(data, gr), mdp, gr)


def theta_for_epsilon_rskt(epsilon: float, horizon: int) -> float:
    """Grid step eps / (7 H) that makes the known-transition fit eps-accurate."""
    if not 0 < epsilon <= horizon:
        raise ValueError(f"epsilon must lie in (0, {horizon}], got {epsilon}")
    return epsilon / (7.0 * horizon)
