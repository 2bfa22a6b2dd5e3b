"""Dense linear programming in standard form and a primal simplex.

Every program is min c.x subject to A x = b and x >= 0 (Chvatal 1983,
*Linear Programming*, ch. 7-8); callers write other forms in it with
explicit slack, shifted or split columns.  The solver targets the
desk-scale programs built elsewhere in this package (occupancy matching,
transport couplings), i.e. up to a few thousand variables.  It is
deliberately deterministic: Bland's smallest-index rule picks both the
entering column and, among tied minimum ratios, the leaving basic
variable, so the same program always walks the same basis path and never
cycles.  Rows are equilibrated to unit max magnitude and flipped to a
nonnegative right-hand side before solving; feasibility of the reported
optimum is re-checked against the original, unscaled constraints.

There are two ways in.  ``solve(lp)`` starts with phase 1: each row
starts with an artificial basic, phase 1 drives the artificial mass to
zero, and rows that prove redundant are dropped from the program (a row
with no coefficient among them; one with a nonzero right-hand side keeps
its artificial mass, so the program is reported infeasible).
``solve(lp, basis=...)`` takes a caller's feasible starting basis, one
column per row (a crash basis, Bixby 1992), and builds its tableau
B^-1 [A | b] with one dense solve.  Only the nonbasic columns and b go
through that solve: B^-1 B is the identity, which is written in exactly.
Its rows must be independent: a singular or infeasible starting basis
raises :class:`LpError`, and nothing falls back to phase 1.  Both then run
the same phase 2: the objective row is installed as c - c_B B^-1 A, and
the tableau is checked every ``_CHECK_PIVOTS`` pivots and rebuilt from its
basis, by the same dense solve, once round-off has moved it by more than
``_DRIFT_TOL``.

The ratio test has a pivot tolerance: a row may leave the basis only if
its entry in the entering column exceeds ``_PIV_TOL`` (1e-7, relative to
the unit row scale).  Pivots on smaller elements blow the tableau up
until a basic value goes negative, which is how the plain rule failed on
some occupancy programs.  Only when no entry passes is the rule relaxed
to entries above ``_OPT_TOL``; the column is reported unbounded only when
none passes that either.

The tableau is dense, but a pivot touches only the rows whose entry in the
pivot column is nonzero (and, when the pivot row is sparse, only that row's
nonzero columns): every other entry would change by an exact zero, so the
basis path, the pivot count and the answer are those of the full rank-1
update.  Pivot cost therefore grows with fill-in, the nonzeros earlier
pivots leave behind, rather than with the tableau's size.  A sparse pivot
row updates its rows x columns block through one flat index into the
tableau's buffer, which costs less than the two-axis ``np.ix_`` gather
and gives the same entries.  Artificial variables have no tableau
columns, since phase 1 never reads them.  The duality gap rebuilds the
dual y from the final basis by solving the square system A_B^T y = c_B on
the equilibrated rows phase 2 ran on.

Dense is the point and the limit: every dense program and tableau is
checked against one byte budget, ``DENSE_BYTES``, before it is allocated
(:func:`check_dense_size`), so a program too large for the method raises
:class:`LpSizeError` naming its size rather than exhausting memory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearProgram",
    "LpSolution",
    "LpError",
    "LpIterationError",
    "LpSizeError",
    "DENSE_BYTES",
    "check_dense_size",
    "solve",
    "solve_transport",
]

_OPT_TOL = 1e-9  # reduced-cost threshold; smallest pivot element accepted
_PIV_TOL = 1e-7  # pivot elements the ratio test prefers (rows have unit max)
_FEAS_TOL = 1e-7  # post-hoc feasibility check on the original data
_PHASE1_TOL = 1e-8  # residual artificial mass that still counts as feasible
_CHECK_PIVOTS = 10  # from a caller's basis, check the tableau's drift this often
_DRIFT_TOL = 1e-9  # drift past which the tableau is rebuilt from its basis

#: Largest dense float64 matrix, in bytes, that a program or tableau may
#: allocate; the solve holds a few arrays of that size at once.
DENSE_BYTES = 1 << 29


class LpError(RuntimeError):
    """The solver could not certify the answer it was about to report."""


class LpIterationError(LpError):
    """Pivot budget exhausted; the program is numerically troublesome."""


class LpSizeError(LpError):
    """A dense program or tableau would exceed ``DENSE_BYTES``."""


def check_dense_size(rows: int, cols: int, what: str) -> None:
    """Raise :class:`LpSizeError` if a dense ``rows x cols`` float64 array of
    ``what`` would exceed ``DENSE_BYTES``; call it before allocating."""
    size = rows * cols * 8
    if size > DENSE_BYTES:
        raise LpSizeError(
            f"{what} of {rows} rows x {cols} columns needs {size} bytes dense, "
            f"over the budget of {DENSE_BYTES}"
        )


@dataclass
class LinearProgram:
    """min c.x  s.t.  A_eq x = b_eq,  x >= 0.

    ``A_eq`` and ``b_eq`` may be None for a program without constraints.
    Other forms are written in this one: a <= row gets its own slack
    column, a bounded variable a shifted column plus a slack, and a free
    variable the difference of two columns.
    """

    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        if n == 0:
            raise ValueError("program has no variables")
        if self.A_eq is None or (hasattr(self.A_eq, "__len__") and len(self.A_eq) == 0):
            self.A_eq, self.b_eq = np.zeros((0, n)), np.zeros(0)
        else:
            self.A_eq = np.atleast_2d(np.asarray(self.A_eq, dtype=float))
            self.b_eq = np.asarray(self.b_eq, dtype=float).ravel()
            if self.A_eq.shape != (self.b_eq.size, n):
                raise ValueError(
                    f"A_eq shape {self.A_eq.shape} inconsistent with b ({self.b_eq.size}) and n={n}"
                )
        for name, arr in (("c", self.c), ("A_eq", self.A_eq), ("b_eq", self.b_eq)):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"{name} contains NaN or Inf")

    @property
    def num_variables(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.A_eq.shape[0]


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    duality_gap: float | None = None


def _bland_pivot(tableau, basis, max_pivots, start_iter, check=None):
    """Run simplex pivots under Bland's rule until optimal or unbounded.

    Returns (status, iterations).  Every column may enter the basis; the
    objective row is the last row, the rhs the last column.  The ratio test
    considers only rows whose pivot-column entry exceeds ``_PIV_TOL``, and
    falls back to entries above ``_OPT_TOL`` when there are none.  With
    ``check``, ``check(iterations)`` runs after every ``_CHECK_PIVOTS``
    pivots; it rewrites the tableau in place, so the views held here stay
    valid.
    """
    m = tableau.shape[0] - 1
    reduced = tableau[-1, :-1]
    rhs = tableau[:m, -1]
    iters = start_iter
    while True:
        eligible = reduced < -_OPT_TOL
        j = int(np.argmax(eligible))  # Bland: smallest eligible index
        if not eligible[j]:
            return "optimal", iters
        col = tableau[:m, j]
        rows = np.flatnonzero(col > _PIV_TOL)
        if rows.size == 0:  # only tiny entries: take them rather than stop
            rows = np.flatnonzero(col > _OPT_TOL)
            if rows.size == 0:
                return "unbounded", iters
        ratios = rhs[rows] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = int(tied[np.argmin(basis[tied])])  # Bland: smallest basic variable
        iters += 1
        _apply_pivot(tableau, r, j, iters)
        basis[r] = j
        if iters > max_pivots:
            raise LpIterationError(f"pivot budget {max_pivots} exhausted")
        if check is not None and iters % _CHECK_PIVOTS == 0:
            check(iters)


def _apply_pivot(tableau, r, j, iteration):
    """Pivot on (r, j), updating only the rows with a nonzero in column j.

    A row whose column-j entry is zero would subtract an exact zero multiple
    of the pivot row, and so would a column where the pivot row is zero;
    skipping them leaves every value the solver reads bit-identical to the
    full rank-1 update (only the sign of a zero may differ).  Gathering a
    column subset costs about twice as much per entry as whole rows, so the
    columns are restricted only when the pivot row is sparse, and then the
    rows x columns block is addressed by one flat index into the (C
    contiguous) tableau's buffer: desk is no faster for it, but a (10,3,5)
    program (890 x 2,593, 2,912 Bland pivots) took 16-17 s with it, 20 s
    without.  Column j ends as the unit vector e_r exactly (x - x * 1.0 ==
    0).  Basic values below zero by more than round-off mean the basis has
    gone numerically wrong; that raises here instead of being clipped.
    """
    pivot = tableau[r, j]
    tableau[r] /= pivot
    rows = np.flatnonzero(tableau[:, j])
    rows = rows[rows != r]
    width = tableau.shape[1]
    cols = np.flatnonzero(tableau[r])
    if 4 * cols.size < width:
        flat = tableau.ravel()
        block = (rows * width)[:, None] + cols
        flat[block] -= tableau[rows, j, None] * tableau[r, cols]
    else:
        tableau[rows] -= tableau[rows, j, None] * tableau[r]
    rhs = tableau[:-1, -1]
    low = rhs.min()
    if low < -_FEAS_TOL:
        raise LpError(
            f"pivot {iteration} on element {pivot:.3e} (row {r}, column {j}) "
            f"left a basic value of {low:.3e}"
        )
    np.clip(rhs, 0.0, None, out=rhs)  # shave off pivot round-off


def solve(
    lp: LinearProgram,
    max_iterations: int | None = None,
    basis: np.ndarray | None = None,
) -> LpSolution:
    """Solve a linear program with the primal simplex method.

    Without ``basis``, two phases: phase 1 minimizes the total artificial
    mass (no big-M constants); artificial variables left basic at level
    zero are pivoted out, and rows where that is impossible (redundant
    constraints) are dropped.  With ``basis``, one column index per
    constraint row naming a feasible starting vertex, phase 2 starts there;
    a singular or infeasible basis raises :class:`LpError` and one of the
    wrong length (or naming a column that does not exist) ``ValueError``,
    with no fallback to phase 1.  Reports ``infeasible`` / ``unbounded``
    faithfully and raises :class:`LpIterationError` past ``max_iterations``
    pivots (default ``50 * (variables + constraints)``), and
    :class:`LpSizeError`, before allocating, when its tableau would exceed
    ``DENSE_BYTES``.
    """
    n = lp.num_variables
    check_dense_size(lp.num_constraints + 1, n + 1, "simplex tableau")
    if max_iterations is None:
        max_iterations = 50 * (n + lp.num_constraints)
    if basis is not None:
        basis = np.array(basis, dtype=np.intp).ravel()
        if basis.size != lp.num_constraints:
            raise ValueError(
                f"starting basis has {basis.size} columns for {lp.num_constraints} rows"
            )
        if basis.size and not 0 <= basis.min() <= basis.max() < n:
            raise ValueError(f"starting basis names a column outside 0..{n - 1}")

    # --- row equilibration to unit max magnitude (including the rhs)
    scale = np.maximum(np.abs(lp.A_eq).max(axis=1), np.abs(lp.b_eq))
    scale[scale == 0.0] = 1.0
    a = lp.A_eq / scale[:, None]
    b = lp.b_eq / scale
    m = b.size
    flip = b < 0
    a[flip] *= -1.0
    b = np.abs(b)

    tableau = np.zeros((m + 1, n + 1))
    if basis is None:
        tableau[:m, :n] = a
        tableau[:m, -1] = b
        status, keep, basis, iters = _phase_one(tableau, n, max_iterations)
        if status == "infeasible":
            return LpSolution("infeasible", None, None, iterations=iters)
        tableau = tableau[np.append(keep, m)]
        a, b, m = a[keep], b[keep], basis.size
        _install_objective(tableau, lp.c, basis)
    else:
        _install_basis(tableau, a, b, lp.c, basis, 0)
        iters = 0

    check = functools.partial(_reinvert_on_drift, tableau, a, b, lp.c, basis)
    status, iters = _bland_pivot(tableau, basis, max_iterations, iters, check)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, iterations=iters)

    x = np.zeros(n)
    x[basis] = tableau[:m, -1]
    objective = float(lp.c @ x)

    # post-hoc feasibility against the original, unscaled data
    if lp.A_eq.size:
        residual = np.abs(lp.A_eq @ x - lp.b_eq) / (1.0 + np.abs(lp.b_eq))
        worst = float(np.max(residual))
        if worst > _FEAS_TOL:
            raise LpError(f"optimal vertex violates original constraints by {worst:.3e}")

    gap = _duality_gap(a, b, basis, lp.c, x)
    return LpSolution("optimal", x, objective, iterations=iters, duality_gap=gap)


def _phase_one(tableau, n, max_pivots):
    """Drive an artificial basis to a feasible one, in place.

    Returns (status, keep, basis, iterations), with status ``infeasible``
    when artificial mass is left at the phase-1 optimum.  Every row starts
    with an artificial basic.  Artificials never re-enter, and no value in
    their columns is ever read (a pivot updates each column on its own), so
    they get basis indices n.. but no tableau columns.  Artificials left
    basic at level zero are pivoted out; a row where that is impossible is
    a combination of the kept rows, and is left out of ``keep`` (the kept
    row indices) and of the returned basis.
    """
    m = tableau.shape[0] - 1
    basis = n + np.arange(m)

    # phase 1 objective: minimize the artificial mass
    for r in range(m):
        tableau[-1, :] -= tableau[r, :]

    status, iters = _bland_pivot(tableau, basis, max_pivots, 0)
    if status != "optimal":  # phase 1 is always bounded below by 0
        raise LpError("phase 1 reported unbounded; constraint data is corrupt")
    if -tableau[-1, -1] > _PHASE1_TOL:
        return "infeasible", None, basis, iters

    # pivot zero-level artificials out of the basis; drop rows that resist
    keep = np.ones(m, dtype=bool)
    for r in range(m):
        if basis[r] < n:
            continue
        pivots = np.nonzero(np.abs(tableau[r, :-1]) > 1e-7)[0]
        if pivots.size:
            _apply_pivot(tableau, r, int(pivots[0]), iters)
            basis[r] = int(pivots[0])
        else:
            keep[r] = False
    return "feasible", np.flatnonzero(keep), basis[keep], iters


def _install_objective(tableau, c, basis):
    """Write the reduced costs c - c_B T of the tableau's basis into its last row."""
    m = basis.size
    tableau[-1, :-1] = c
    tableau[-1, -1] = 0.0
    tableau[-1] -= c[basis] @ tableau[:m]


def _install_basis(tableau, a, b, c, basis, iteration):
    """Write the tableau of ``basis``, B^-1 [A | b] and its reduced costs, in place.

    ``a`` and ``b`` are the equilibrated rows the solve started from.  One
    dense solve gives the nonbasic columns and the rhs; the basic columns
    are the exact unit vectors a pivot leaves.  A singular basis, or one
    whose basic values fall below ``-_FEAS_TOL``, raises :class:`LpError`;
    round-off below zero is clipped.
    """
    what = "starting basis" if iteration == 0 else f"basis at pivot {iteration}"
    m, n = a.shape
    solved = np.ones(n + 1, dtype=bool)
    solved[basis] = False
    solved = np.flatnonzero(solved)  # nonbasic columns, then the rhs
    tableau[:m, :-1] = a
    tableau[:m, -1] = b
    try:
        tableau[:m, solved] = np.linalg.solve(a[:, basis], tableau[:m, solved])
    except np.linalg.LinAlgError as exc:
        raise LpError(f"{what} is singular: {exc}") from None
    tableau[:m, basis] = np.eye(m)
    if not np.isfinite(tableau[:m]).all():
        raise LpError(f"{what} is singular: B^-1 [A | b] is not finite")
    rhs = tableau[:m, -1]
    if rhs.min(initial=0.0) < -_FEAS_TOL:
        r = int(np.argmin(rhs))
        raise LpError(
            f"{what} is infeasible: basic value {rhs[r]:.3e} (row {r}, column {basis[r]})"
        )
    np.clip(rhs, 0.0, None, out=rhs)
    _install_objective(tableau, c, basis)


def _reinvert_on_drift(tableau, a, b, c, basis, iteration):
    """Rebuild the tableau from its basis once round-off has moved it.

    Pivots pile up round-off: on one desk ``rs-kt`` program the tableau's
    error grew from 1e-12 to 0.26 within 55 pivots from the crash basis,
    then steered the ratio test into a singular basis.  The basic solution
    alone does not show it (its residual stayed below 1e-14), so the check
    multiplies the basic columns by the tableau's row sums, which must give
    the row sums of [A | b].  That costs two matrix-vector products; the
    rebuild, one dense solve, runs only when the check fails.
    """
    m = b.size
    drift = np.abs(a[:, basis] @ tableau[:m].sum(axis=1) - a.sum(axis=1) - b).max()
    if drift > _DRIFT_TOL:
        _install_basis(tableau, a, b, c, basis, iteration)


def _duality_gap(a, b, basis, c, x) -> float | None:
    """|primal - dual| objective gap, with the dual rebuilt from the final basis.

    Solves the square system A_B^T y = c_B on the equilibrated rows the
    tableau started from (phase 1 has dropped the redundant ones).
    """
    try:
        y = np.linalg.solve(a[:, basis].T, c[basis])
    except np.linalg.LinAlgError:
        return None
    return abs(float(c @ x) - float(b @ y))


def solve_transport(costs: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Optimal transport cost between two finite distributions.

    min sum_ij gamma_ij c_ij subject to row marginals ``p`` and column
    marginals ``q``; this is the coupling oracle used to cross-check the
    CDF-sweep Wasserstein distance.
    """
    costs = np.asarray(costs, dtype=float)
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    m, n = costs.shape
    if p.size != m or q.size != n:
        raise ValueError("marginal sizes do not match the cost matrix")
    if p.min() < 0 or q.min() < 0 or abs(p.sum() - q.sum()) > 1e-9:
        raise ValueError("marginals must be nonnegative with equal mass")
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([p, q])
    sol = solve(LinearProgram(c=costs.ravel(), A_eq=a_eq, b_eq=b_eq))
    if sol.status != "optimal":
        raise LpError(f"transport program reported {sol.status}")
    return float(sol.objective)
