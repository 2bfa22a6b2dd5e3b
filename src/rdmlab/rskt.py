"""Known-transition distribution matching via an occupancy-measure LP.

The search space is the polytope of occupancy measures of the
reward-augmented MDP, which is exactly the set of behaviors of policies
conditioning on (stage, state, discretized cumulative reward).  The program
minimizes the Wasserstein distance between the induced return distribution
and the empirical expert estimate, linearized through cumulative-difference
variables: with both distributions supported on the uniform grid of step
theta, the distance equals theta times the sum of absolute CDF differences
at the grid points.  That theta factor is applied when reporting, so
objectives are comparable with :func:`rdmlab.distributions.wasserstein`
(the raw LP objective is the plain sum).

Variables are pruned to the forward-reachable (state, g) pairs, which also
collapses the two textbook initial-flow conditions into one (the only
reachable stage-0 cell is the initial augmented state).  The cumulative
difference variables are free; the remaining blocks are nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteReturnDistribution, empirical_return_distribution
from .lp import LinearProgram, LpError, LpSolution, solve
from .mdp import AugmentedMdp, Dataset, GridReward, RewardGrid, TabularMdp, build_augmented_mdp
from .policies import RewardAugmentedPolicy, normalize_rows

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

_ZERO_MASS = 1e-12


@dataclass(frozen=True)
class RsktLayout:
    """Variable indexing of the occupancy LP, derived from the augmented MDP.

    Variable order: occupancy d over reachable (h, s, g) cells times actions,
    then the induced return distribution eta, the absolute-value bounds t,
    and the free cumulative differences x, each over the kept grid prefix
    ``0..n_keep-1``.
    """

    aug: AugmentedMdp
    n_keep: int
    cells: tuple[np.ndarray, ...]  # per stage: (n_cells, 2) arrays of (s, g)
    cell_index: tuple[dict[tuple[int, int], int], ...]
    stage_offsets: tuple[int, ...]
    num_d: int

    @property
    def eta_offset(self) -> int:
        return self.num_d

    @property
    def t_offset(self) -> int:
        return self.num_d + self.n_keep

    @property
    def x_offset(self) -> int:
        return self.num_d + 2 * self.n_keep

    @property
    def num_variables(self) -> int:
        return self.num_d + 3 * self.n_keep

    def d_index(self, h: int, s: int, g: int, a: int) -> int:
        cell = self.cell_index[h].get((s, g))
        if cell is None:
            raise KeyError(f"(h={h}, s={s}, g={g}) is not reachable")
        return self.stage_offsets[h] + cell * self.aug.base.num_actions + a

    def dense_occupancy(self, x: np.ndarray) -> np.ndarray:
        """Scatter the d block of an LP vector into a dense (H, S, G, A) array."""
        aug = self.aug
        horizon, num_states, num_actions = (
            aug.base.horizon,
            aug.base.num_states,
            aug.base.num_actions,
        )
        n_g = aug.grid.num_multiples(horizon - 1)
        dense = np.zeros((horizon, num_states, n_g, num_actions))
        for h in range(horizon):
            for idx, (s, g) in enumerate(self.cells[h]):
                base = self.stage_offsets[h] + idx * num_actions
                dense[h, s, g, :] = x[base : base + num_actions]
        return dense

    def pack_occupancy(self, occ: np.ndarray, eta_hat_full: np.ndarray) -> np.ndarray:
        """Assemble a full LP vector from a dense occupancy (e.g. a DP output).

        eta, t and x are filled in consistently with the constraints, so the
        result is feasible iff the occupancy itself satisfies the flow rows.
        """
        x = np.zeros(self.num_variables)
        num_actions = self.aug.base.num_actions
        for h in range(self.aug.base.horizon):
            for idx, (s, g) in enumerate(self.cells[h]):
                base = self.stage_offsets[h] + idx * num_actions
                x[base : base + num_actions] = occ[h, s, g, :]
        eta = np.zeros(self.n_keep)
        last = self.aug.base.horizon - 1
        mult = self.aug.increments[last]
        for s, g in self.cells[last]:
            for a in range(num_actions):
                eta[g + mult[s, a]] += occ[last, s, g, a]
        cum = np.cumsum(eta - eta_hat_full)
        x[self.eta_offset : self.eta_offset + self.n_keep] = eta
        x[self.x_offset : self.x_offset + self.n_keep] = cum
        x[self.t_offset : self.t_offset + self.n_keep] = np.abs(cum)
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
    lp_objective: float  # raw sum of t variables
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
    cells = tuple(np.argwhere(aug.reachable[h]) for h in range(aug.base.horizon))
    cell_index = tuple(
        {(int(s), int(g)): i for i, (s, g) in enumerate(stage)} for stage in cells
    )
    num_actions = aug.base.num_actions
    offsets = []
    total = 0
    for stage in cells:
        offsets.append(total)
        total += stage.shape[0] * num_actions
    return RsktLayout(
        aug=aug,
        n_keep=n_keep,
        cells=cells,
        cell_index=cell_index,
        stage_offsets=tuple(offsets),
        num_d=total,
    )


def build_rskt_lp(
    aug: AugmentedMdp, eta_hat: DiscreteReturnDistribution
) -> LinearProgram:
    """Assemble the distribution-matching LP over augmented occupancy measures.

    Rows: one initial-mass condition (the stage-0 reachable set is the single
    augmented initial state, so the two textbook initial conditions coincide),
    flow conservation per reachable cell at stages 1..H-1, the linear map
    from final-stage occupancy to the return distribution, the cumulative
    difference definition, and the two-sided absolute-value bounds.  The
    objective is the plain sum of the bound variables; multiply by the grid
    step for Wasserstein units.
    """
    eta_hat_full = _eta_hat_on_grid(eta_hat, aug.grid)
    return _assemble_lp(_layout(aug, eta_hat_full), eta_hat_full)


def _assemble_lp(layout: RsktLayout, eta_hat_full: np.ndarray) -> LinearProgram:
    aug = layout.aug
    eta_hat_full = eta_hat_full[: layout.n_keep]
    base = aug.base
    horizon, num_actions = base.horizon, base.num_actions
    n_keep = layout.n_keep
    n_vars = layout.num_variables

    n_flow = sum(layout.cells[h].shape[0] for h in range(1, horizon))
    n_eq = 1 + n_flow + n_keep + n_keep
    a_eq = np.zeros((n_eq, n_vars))
    b_eq = np.zeros(n_eq)

    row = 0
    # initial occupancy mass
    for a in range(num_actions):
        a_eq[row, layout.d_index(0, base.initial_state, 0, a)] = 1.0
    b_eq[row] = 1.0
    row += 1

    # flow conservation: inflow from stage h-1 equals outflow at stage h
    flow_row: list[dict[tuple[int, int], int]] = []
    for h in range(1, horizon):
        rows_here = {}
        for s, g in layout.cells[h]:
            for a in range(num_actions):
                a_eq[row, layout.d_index(h, int(s), int(g), a)] = 1.0
            rows_here[(int(s), int(g))] = row
            row += 1
        flow_row.append(rows_here)
    for h in range(1, horizon):
        rows_here = flow_row[h - 1]
        mult = aug.increments[h - 1]
        trans = base.transitions[h - 1]
        for s_prev, g_prev in layout.cells[h - 1]:
            s_prev, g_prev = int(s_prev), int(g_prev)
            for a_prev in range(num_actions):
                col = layout.d_index(h - 1, s_prev, g_prev, a_prev)
                g_next = g_prev + int(mult[s_prev, a_prev])
                p_row = trans[s_prev, a_prev]
                for s_next in np.nonzero(p_row > 0.0)[0]:
                    a_eq[rows_here[(int(s_next), g_next)], col] -= p_row[s_next]

    # return distribution from final-stage occupancy
    eta_row0 = row
    for g in range(n_keep):
        a_eq[row, layout.eta_offset + g] = 1.0
        row += 1
    mult = aug.increments[horizon - 1]
    for s, g in layout.cells[horizon - 1]:
        s, g = int(s), int(g)
        for a in range(num_actions):
            g_ret = g + int(mult[s, a])
            a_eq[eta_row0 + g_ret, layout.d_index(horizon - 1, s, g, a)] = -1.0

    # cumulative differences x(g) = sum_{g' <= g} (eta - eta_hat)
    hat_cum = np.cumsum(eta_hat_full)
    for g in range(n_keep):
        a_eq[row, layout.x_offset + g] = 1.0
        a_eq[row, layout.eta_offset : layout.eta_offset + g + 1] = -1.0
        b_eq[row] = -hat_cum[g]
        row += 1
    assert row == n_eq

    # |x| <= t, linearized two-sided
    a_le = np.zeros((2 * n_keep, n_vars))
    for g in range(n_keep):
        a_le[2 * g, layout.x_offset + g] = 1.0
        a_le[2 * g, layout.t_offset + g] = -1.0
        a_le[2 * g + 1, layout.x_offset + g] = -1.0
        a_le[2 * g + 1, layout.t_offset + g] = -1.0
    b_le = np.zeros(2 * n_keep)

    c = np.zeros(n_vars)
    c[layout.t_offset : layout.t_offset + n_keep] = 1.0
    lower = np.zeros(n_vars)
    lower[layout.x_offset :] = -np.inf
    return LinearProgram(c=c, A_eq=a_eq, b_eq=b_eq, A_le=a_le, b_le=b_le, lower=lower)


def occupancy_to_policy(sol: OccupancySolution, grid: RewardGrid) -> RewardAugmentedPolicy:
    """Row-normalize an occupancy into a policy; uniform rows where it has no mass."""
    table = normalize_rows(sol.d, min_mass=_ZERO_MASS)
    # LP round-off can leave rows a hair off one; renormalize exactly
    table = table / table.sum(axis=3, keepdims=True)
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
    eta_block = solution.x[layout.eta_offset : layout.eta_offset + layout.n_keep]
    mass_drift = abs(float(eta_block.sum()) - 1.0)
    support = np.nonzero(eta_block > _ZERO_MASS)[0]
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
