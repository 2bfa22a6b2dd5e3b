"""Dense linear programming: problem container and a two-phase primal simplex.

The solver targets the desk-scale programs built elsewhere in this package
(occupancy matching, transport couplings), i.e. up to a few thousand
variables.  It is deliberately deterministic: Bland's smallest-index rule
picks both the entering column and, among tied minimum ratios, the leaving
basic variable, so the same program always walks the same basis path and
never cycles.  Rows are equilibrated to unit max magnitude before solving;
feasibility of the reported optimum is re-checked against the original,
unscaled constraints.

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
pivots leave behind, rather than with the tableau's size.  Artificial
variables have no tableau columns, since phase 1 never reads them.  The
duality gap rebuilds the dual y from the final basis by solving
A_B^T y = c_B on the equilibrated system (least squares when redundant rows
were dropped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearProgram",
    "LpSolution",
    "LpError",
    "LpIterationError",
    "solve",
    "solve_transport",
    "format_lp",
]

_OPT_TOL = 1e-9  # reduced-cost threshold; smallest pivot element accepted
_PIV_TOL = 1e-7  # pivot elements the ratio test prefers (rows have unit max)
_FEAS_TOL = 1e-7  # post-hoc feasibility check on the original data
_PHASE1_TOL = 1e-8  # residual artificial mass that still counts as feasible


class LpError(RuntimeError):
    """The solver could not certify the answer it was about to report."""


class LpIterationError(LpError):
    """Pivot budget exhausted; the program is numerically troublesome."""


@dataclass
class LinearProgram:
    """min c.x  s.t.  A_eq x = b_eq,  A_le x <= b_le,  lower <= x <= upper.

    ``lower`` defaults to zero and ``upper`` to +inf; entries of ``lower``
    may be -inf to free a variable.  Matrices may be None when a block of
    constraints is absent.
    """

    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_le: np.ndarray | None = None
    b_le: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.c = np.asarray(self.c, dtype=float).ravel()
        n = self.c.size
        if n == 0:
            raise ValueError("program has no variables")

        def block(a, b, name):
            if a is None or (hasattr(a, "__len__") and len(a) == 0):
                return np.zeros((0, n)), np.zeros(0)
            a = np.atleast_2d(np.asarray(a, dtype=float))
            b = np.asarray(b, dtype=float).ravel()
            if a.shape != (b.size, n):
                raise ValueError(f"{name} shape {a.shape} inconsistent with b ({b.size}) and n={n}")
            return a, b

        self.A_eq, self.b_eq = block(self.A_eq, self.b_eq, "A_eq")
        self.A_le, self.b_le = block(self.A_le, self.b_le, "A_le")
        self.lower = (
            np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float).ravel()
        )
        self.upper = (
            np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float).ravel()
        )
        if self.lower.size != n or self.upper.size != n:
            raise ValueError("bound vectors must have one entry per variable")
        for name, arr in (("c", self.c), ("A_eq", self.A_eq), ("b_eq", self.b_eq),
                          ("A_le", self.A_le), ("b_le", self.b_le)):
            if arr.size and not np.isfinite(arr).all():
                raise ValueError(f"{name} contains NaN or Inf")
        if np.isnan(self.lower).any() or np.isnan(self.upper).any():
            raise ValueError("bounds contain NaN")

    @property
    def num_variables(self) -> int:
        return self.c.size

    @property
    def num_constraints(self) -> int:
        return self.A_eq.shape[0] + self.A_le.shape[0]


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    duality_gap: float | None = None


def _bland_pivot(tableau, basis, max_pivots, start_iter):
    """Run simplex pivots under Bland's rule until optimal or unbounded.

    Returns (status, iterations).  Every column may enter the basis; the
    objective row is the last row, the rhs the last column.  The ratio test
    considers only rows whose pivot-column entry exceeds ``_PIV_TOL``, and
    falls back to entries above ``_OPT_TOL`` when there are none.
    """
    m = tableau.shape[0] - 1
    iters = start_iter
    while True:
        reduced = tableau[-1, :-1]
        candidates = np.nonzero(reduced < -_OPT_TOL)[0]
        if candidates.size == 0:
            return "optimal", iters
        j = int(candidates[0])  # Bland: smallest eligible index
        col = tableau[:m, j]
        rows = np.nonzero(col > _PIV_TOL)[0]
        if rows.size == 0:  # only tiny entries: take them rather than stop
            rows = np.nonzero(col > _OPT_TOL)[0]
            if rows.size == 0:
                return "unbounded", iters
        ratios = tableau[rows, -1] / col[rows]
        best = ratios.min()
        tied = rows[ratios <= best + 1e-12 * (1.0 + abs(best))]
        r = int(tied[np.argmin(basis[tied])])  # Bland: smallest basic variable
        iters += 1
        _apply_pivot(tableau, r, j, iters)
        basis[r] = j
        if iters > max_pivots:
            raise LpIterationError(f"pivot budget {max_pivots} exhausted")


def _apply_pivot(tableau, r, j, iteration):
    """Pivot on (r, j), updating only the rows with a nonzero in column j.

    A row whose column-j entry is zero would subtract an exact zero multiple
    of the pivot row, and so would a column where the pivot row is zero;
    skipping them leaves every value the solver reads bit-identical to the
    full rank-1 update (only the sign of a zero may differ).  Gathering a
    column subset costs about twice as much per entry as whole rows, so the
    columns are restricted only when the pivot row is sparse.  Column j ends
    as the unit vector e_r exactly (x - x * 1.0 == 0).  Basic values below
    zero by more than round-off mean the basis has gone numerically wrong;
    that raises here instead of being clipped.
    """
    pivot = tableau[r, j]
    tableau[r] /= pivot
    rows = np.nonzero(tableau[:, j])[0]
    rows = rows[rows != r]
    cols = np.nonzero(tableau[r])[0]
    if 4 * cols.size < tableau.shape[1]:
        tableau[np.ix_(rows, cols)] -= tableau[rows, j, None] * tableau[r, cols]
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


def solve(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Solve a linear program with the two-phase primal simplex method.

    Phase 1 minimizes the total artificial mass (no big-M constants);
    artificial variables left basic at level zero are pivoted out, and rows
    where that is impossible (redundant constraints) are dropped.  Reports
    ``infeasible`` / ``unbounded`` faithfully and raises
    :class:`LpIterationError` past ``max_iterations`` pivots (default
    ``50 * (variables + constraints)``).
    """
    n = lp.num_variables
    if max_iterations is None:
        max_iterations = 50 * (n + lp.num_constraints)

    # --- bound transform: every structural column becomes a z >= 0 column.
    lower, upper = lp.lower, lp.upper
    if (upper < lower).any():
        return LpSolution("infeasible", None, None)
    shift = np.where(np.isfinite(lower), lower, 0.0)
    mirror = ~np.isfinite(lower) & np.isfinite(upper)
    split = ~np.isfinite(lower) & ~np.isfinite(upper)
    shift = np.where(mirror, upper, shift)

    def transform_matrix(a):
        base = a * np.where(mirror, -1.0, 1.0)[None, :]
        extra = -a[:, split]
        return np.hstack([base, extra]) if extra.size else base

    a_eq = transform_matrix(lp.A_eq) if lp.A_eq.size else np.zeros((0, n + int(split.sum())))
    a_le = transform_matrix(lp.A_le) if lp.A_le.size else np.zeros((0, n + int(split.sum())))
    b_eq = lp.b_eq - lp.A_eq @ shift if lp.A_eq.size else lp.b_eq.copy()
    b_le = lp.b_le - lp.A_le @ shift if lp.A_le.size else lp.b_le.copy()

    # finite upper bounds of non-mirrored variables become extra <= rows
    boxed = np.isfinite(upper) & np.isfinite(lower)
    if boxed.any():
        idx = np.nonzero(boxed)[0]
        rows = np.zeros((idx.size, a_eq.shape[1]))
        rows[np.arange(idx.size), idx] = 1.0
        a_le = np.vstack([a_le, rows])
        b_le = np.concatenate([b_le, upper[idx] - lower[idx]])

    c_std = np.concatenate([lp.c * np.where(mirror, -1.0, 1.0), -lp.c[split]])
    n_std = c_std.size

    # --- row equilibration to unit max magnitude (including the rhs)
    def equilibrate(a, b):
        if a.shape[0] == 0:
            return a, b, np.zeros(0, dtype=bool)
        scale = np.maximum(np.abs(a).max(axis=1), np.abs(b))
        zero_rows = scale == 0.0
        scale = np.where(zero_rows, 1.0, scale)
        return a / scale[:, None], b / scale, zero_rows

    a_eq, b_eq, zero_eq = equilibrate(a_eq, b_eq)
    a_le, b_le, zero_le = equilibrate(a_le, b_le)
    # all-zero rows: 0 = 0 / 0 <= 0 hold trivially, anything else cannot
    coeff_zero_eq = np.abs(a_eq).max(axis=1) == 0 if a_eq.shape[0] else zero_eq
    coeff_zero_le = np.abs(a_le).max(axis=1) == 0 if a_le.shape[0] else zero_le
    if ((coeff_zero_eq) & (np.abs(b_eq) > _OPT_TOL)).any():
        return LpSolution("infeasible", None, None)
    if ((coeff_zero_le) & (b_le < -_OPT_TOL)).any():
        return LpSolution("infeasible", None, None)
    keep_eq = ~coeff_zero_eq
    keep_le = ~coeff_zero_le
    a_eq, b_eq = a_eq[keep_eq], b_eq[keep_eq]
    a_le, b_le = a_le[keep_le], b_le[keep_le]

    m_eq, m_le = a_eq.shape[0], a_le.shape[0]
    m = m_eq + m_le
    a = np.vstack([a_eq, a_le]) if m else np.zeros((0, n_std))
    b = np.concatenate([b_eq, b_le])

    # slacks for <= rows
    slack = np.zeros((m, m_le))
    slack[m_eq:, :] = np.eye(m_le)
    a = np.hstack([a, slack])
    flip = b < 0
    a[flip] *= -1.0
    b = np.abs(b)
    a_saved = a.copy()  # standard system kept aside for the dual reconstruction
    b_saved = b.copy()

    # artificials for eq rows and for <= rows whose slack got negated.  They
    # start basic, never re-enter, and no value in their columns is ever read
    # (a pivot updates each column on its own), so they get basis indices
    # art_first.. but no tableau columns.
    needs_art = np.ones(m, dtype=bool)
    needs_art[m_eq:] = flip[m_eq:]
    art_rows = np.nonzero(needs_art)[0]
    art_first = n_std + m_le

    tableau = np.zeros((m + 1, art_first + 1))
    tableau[:m, :art_first] = a
    tableau[:m, -1] = b

    basis = np.empty(m, dtype=np.int64)
    basis[m_eq:] = n_std + np.arange(m_le)  # slack columns
    basis[art_rows] = art_first + np.arange(art_rows.size)

    # phase 1 objective: minimize the artificial mass
    for r in art_rows:
        tableau[-1, :] -= tableau[r, :]

    status, iters = _bland_pivot(tableau, basis, max_iterations, 0)
    if status != "optimal":  # phase 1 is always bounded below by 0
        raise LpError("phase 1 reported unbounded; constraint data is corrupt")
    if -tableau[-1, -1] > _PHASE1_TOL:
        return LpSolution("infeasible", None, None, iterations=iters)

    # pivot zero-level artificials out of the basis; drop rows that resist
    drop_rows: list[int] = []
    for r in range(m):
        if basis[r] < art_first:
            continue
        pivots = np.nonzero(np.abs(tableau[r, :-1]) > 1e-7)[0]
        if pivots.size:
            _apply_pivot(tableau, r, int(pivots[0]), iters)
            basis[r] = int(pivots[0])
        else:
            drop_rows.append(r)
    if drop_rows:
        keep = np.ones(m + 1, dtype=bool)
        keep[drop_rows] = False
        tableau = tableau[keep]
        basis = basis[np.delete(np.arange(m), drop_rows)]
        m = basis.size

    # install the phase 2 objective
    c_ext = np.concatenate([c_std, np.zeros(m_le)])
    tableau[-1, :-1] = c_ext
    tableau[-1, -1] = 0.0
    for r in range(m):
        coef = tableau[-1, basis[r]]
        if coef != 0.0:
            tableau[-1, :] -= coef * tableau[r, :]

    status, iters = _bland_pivot(tableau, basis, max_iterations, iters)
    if status == "unbounded":
        return LpSolution("unbounded", None, None, iterations=iters)

    z = np.zeros(art_first)
    z[basis] = tableau[:m, -1]

    # map standard-form variables back to the user's coordinates
    x = np.where(mirror, -1.0, 1.0) * z[:n] + shift
    x[split] = z[:n][split] - z[n : n + int(split.sum())]

    objective = float(lp.c @ x)

    # post-hoc feasibility against the original, unscaled data
    def residual(a_orig, b_orig, sense):
        if a_orig.size == 0:
            return 0.0
        res = a_orig @ x - b_orig
        if sense == "le":
            res = np.clip(res, 0.0, None)
        scale = 1.0 + np.abs(b_orig)
        return float(np.max(np.abs(res) / scale))

    worst = max(
        residual(lp.A_eq, lp.b_eq, "eq"),
        residual(lp.A_le, lp.b_le, "le"),
        float(np.max(np.clip(lp.lower - x, 0.0, None), initial=0.0)),
        float(np.max(np.clip(x - lp.upper, 0.0, None), initial=0.0)),
    )
    if worst > _FEAS_TOL:
        raise LpError(f"optimal vertex violates original constraints by {worst:.3e}")

    gap = _duality_gap(a_saved, b_saved, basis, c_ext, z)
    return LpSolution("optimal", x, objective, iterations=iters, duality_gap=gap)


def _duality_gap(a_saved, b_saved, basis, c_ext, z) -> float | None:
    """|primal - dual| objective gap, with the dual rebuilt from the final basis.

    Solves A_B^T y = c_B on the scaled standard system saved before any
    pivoting.  A_B is square unless redundant rows were dropped; then the
    system is underdetermined and least squares picks one solution.  The
    basic solution satisfies b = A_B x_B, so b.y is the same for every
    solution and the gap is well defined either way.
    """
    a_basis_t = a_saved[:, basis].T
    try:
        if a_basis_t.shape[0] == a_basis_t.shape[1]:
            y = np.linalg.solve(a_basis_t, c_ext[basis])
        else:
            y, *_ = np.linalg.lstsq(a_basis_t, c_ext[basis], rcond=None)
        return abs(float(c_ext @ z) - float(b_saved @ y))
    except np.linalg.LinAlgError:
        return None


def format_lp(lp: LinearProgram) -> str:
    """Plain-text dump for debugging: one line per objective term, constraint
    row (``eq``/``le`` tag, coefficients, rhs), and non-default bound."""

    def fmt(values) -> str:
        return " ".join(repr(float(v)) for v in values)

    lines = ["minimize " + fmt(lp.c)]
    for tag, a, b in (("eq", lp.A_eq, lp.b_eq), ("le", lp.A_le, lp.b_le)):
        for row, rhs in zip(a, b):
            lines.append(f"{tag} {fmt(row)} | {float(rhs)!r}")
    for j, (lo, up) in enumerate(zip(lp.lower, lp.upper)):
        if lo != 0.0 or np.isfinite(up):
            lines.append(f"bound x{j} [{float(lo)!r}, {float(up)!r}]")
    return "\n".join(lines) + "\n"


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
