"""Policy representations, trajectory sampling, and return-distribution evaluation.

Four policy kinds share one interface, ``act(h, state, history) -> action
probabilities``: Markovian tables, reward-augmented tables indexed by the
discretized cumulative reward, the random-projection history policies used
as simulation experts, and arbitrary callables for hand-built fixtures.

Exact evaluation comes in two flavors: a forward dynamic program over
(state, cumulative grid reward) pairs for policies that condition only on
that pair, and full trajectory enumeration (capped at ``(S*A)^H <= 2^20``)
for everything else.  Every forward pass (Markovian and reward-augmented
return distributions, the joint policy x return accumulator, augmented
occupancy) runs through one stage kernel, ``_push_stage``, which keeps
mass only on live accumulator cells: a sorted array of flat keys into the
accumulator box and an (S, K) mass.  Per action it scatters the
action-weighted mass of every state, shifted by that step's grid multiples,
into one zeroed slab over the next stage's live keys and adds
``P_h[:, a, :].T @ slab`` to the next stage.  Both accumulators of the joint
program sum the same rewards, so its live cells lie on a narrow band of the
box.  This shift-and-add on a fixed grid is the categorical projection of
Bellemare, Dabney & Munos (2017).
The enumeration path stays outside the kernel: it is the independent oracle
the DP is tested against.  Its one depth-first walk over histories returns
a ``Dataset`` with one row per positive-probability trajectory, and their
probabilities; the brute-force return distribution sums rewards over those
rows, and the reward-conditioned projection pi_R is ``rs-bc``'s
probability-weighted count table over them (``rdmlab.rsbc.construct_pi_r``).

Sampling runs one stage loop, ``_rollout``, which yields each stage's
(n,) states and actions: ``sample_trajectories`` stores them, and
``mc_return_distribution`` gathers only their rewards into an (m x H)
block, so Monte Carlo evaluation builds no trajectories.  Every draw takes
one uniform per row and finds it in a flat cumulative table at a computed
row offset (``_draw``); no (n x width) block of CDF rows is gathered.
Tables are built once per rollout with negative round-off entries clipped
to 0, so rows are nondecreasing.  Transition, Markovian and
reward-augmented tables at least ``_GUIDE_MIN_WIDTH`` wide also get a
guide table (Chen & Asau 1974) of up to ``2**_GUIDE_BITS`` buckets per row,
never more entries than draws per stage: a uniform whose bucket holds no
CDF entry reads its draw there, and only the rest are binary-searched.
Narrower tables (the parametric expert's per-prefix rows, the desk
shapes) gain nothing from a guide and keep the plain search.
The parametric expert's action distribution depends only on the (history,
current state) prefix, and a stage has far fewer distinct prefixes than
rows, so it is computed once per prefix (``_prefix_cdf``): features,
logits (in blocks of ``_ROW_BLOCK`` prefixes), then softmax and cumulative
sum in place, in buffers sized once per call.  Each row carries a prefix
id, renumbered after every step from the trie key (parent id, action, next
state), and draws its action from its prefix's row.  The features use
einsum rather than a BLAS product, which made the peak RSS grow with the
varying prefix count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .distributions import DiscreteReturnDistribution
from .mdp import (
    Dataset,
    GridReward,
    RewardGrid,
    TabularMdp,
    discretize_reward,
)

__all__ = [
    "MarkovianPolicy",
    "RewardAugmentedPolicy",
    "ParametricHistoryPolicy",
    "CallablePolicy",
    "PolicyHandle",
    "EnumerationCapError",
    "ENUMERATION_CAP",
    "act_parametric",
    "sample_trajectories",
    "exact_return_distribution",
    "exact_augmented_occupancy",
    "mc_return_distribution",
    "enumerate_trajectory_distribution",
    "brute_force_return_distribution",
    "random_markovian_policy",
    "random_reward_augmented_policy",
    "random_parametric_policy",
]

History = Sequence[tuple[int, int]]

#: Trajectory spaces larger than this refuse to enumerate.
ENUMERATION_CAP = 2**20

_ROW_TOL = 1e-9
_MASS_TOL = 1e-10

#: Occupancy mass at or below this counts as none when a policy or a return
#: distribution is read off an LP solution.
ZERO_MASS = 1e-12

#: Width of the history embedding used by the parametric simulation experts.
PROJECTION_DIM = 16

#: Prefixes per block when sampling gathers the parametric expert's state weights.
_ROW_BLOCK = 4096

#: Sampling tables with rows at least this wide get a guide table of
#: between 2**_GUIDE_MIN_BITS and 2**_GUIDE_BITS buckets per row.
_GUIDE_MIN_WIDTH = 8
_GUIDE_MIN_BITS = 4
_GUIDE_BITS = 8


class EnumerationCapError(RuntimeError):
    """The trajectory space (S*A)^H exceeds the enumeration cap."""


def _check_rows(table: np.ndarray, what: str) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    if (
        not np.isfinite(table).all()
        or np.abs(table.sum(axis=-1) - 1.0).max() > _ROW_TOL
        or table.min() < -_ROW_TOL
    ):
        raise ValueError(f"{what}: action rows must be probability vectors")
    table = table.copy()
    table.setflags(write=False)
    return table


def normalize_rows(weights: np.ndarray, min_mass: float = 0.0) -> np.ndarray:
    """Action table from nonnegative weights, with actions on the last axis.

    A row whose total exceeds ``min_mass`` becomes ``weights / total``;
    every other row is uniform.  With ``min_mass > 0`` (an occupancy read
    off an LP, whose round-off can leave a row a hair off one) every row is
    then divided by its sum once more.
    """
    totals = weights.sum(axis=-1)
    table = np.full(weights.shape, 1.0 / weights.shape[-1])
    live = totals > min_mass
    table[live] = weights[live] / totals[live][..., None]
    if min_mass > 0:
        table /= table.sum(axis=-1, keepdims=True)
    return table


@dataclass(frozen=True)
class MarkovianPolicy:
    """Stage-indexed action table pi_h(a | s)."""

    table: np.ndarray  # (H, S, A)

    def __post_init__(self) -> None:
        t = _check_rows(self.table, "MarkovianPolicy")
        if t.ndim != 3:
            raise ValueError("table must have shape (H, S, A)")
        object.__setattr__(self, "table", t)

    @property
    def horizon(self) -> int:
        return self.table.shape[0]

    def act(self, h: int, state: int, history: History = ()) -> np.ndarray:
        return self.table[h, state]


@dataclass(frozen=True)
class RewardAugmentedPolicy:
    """Action table phi_h(a | s, g) indexed by the discretized cumulative reward.

    ``g`` is the integer grid multiple of the rewards collected so far under
    the stored :class:`GridReward`, which both identifies the reward this
    policy conditions on and lets ``act`` recompute ``g`` from a raw history
    by exact integer accumulation.
    """

    grid: RewardGrid
    table: np.ndarray  # (H, S, G, A) with G = num_multiples(H - 1)
    reward: GridReward

    def __post_init__(self) -> None:
        t = _check_rows(self.table, "RewardAugmentedPolicy")
        if t.ndim != 4:
            raise ValueError("table must have shape (H, S, G, A)")
        horizon = t.shape[0]
        if self.grid.horizon != horizon or self.reward.grid != self.grid:
            raise ValueError("grid, reward and table horizons must agree")
        if t.shape[2] != self.grid.num_multiples(horizon - 1):
            raise ValueError(
                f"g-axis has {t.shape[2]} cells, expected {self.grid.num_multiples(horizon - 1)}"
            )
        object.__setattr__(self, "table", t)

    @property
    def horizon(self) -> int:
        return self.table.shape[0]

    def g_of_history(self, history: History) -> int:
        mult = self.reward.multiples
        return int(sum(mult[i, s, a] for i, (s, a) in enumerate(history)))

    def act(self, h: int, state: int, history: History = ()) -> np.ndarray:
        return self.table[h, state, self.g_of_history(history)]


@dataclass(frozen=True)
class ParametricHistoryPolicy:
    """History-dependent policy from random projections (the simulation expert).

    The history (s_1, a_1, ..., s_{h-1}, a_{h-1}) is written as raw integer
    codes (states and actions in declaration order, interleaved), zero-padded
    to length 2H, projected to ``PROJECTION_DIM`` dimensions, and multiplied
    by the current state's weight matrix.  The ``normalization`` tag names
    the rule that turns that product into probabilities; "softmax" (unit
    temperature) is the only rule implemented.
    """

    projection: np.ndarray  # (2H, PROJECTION_DIM)
    state_weights: np.ndarray  # (S, PROJECTION_DIM, A)
    normalization: str = "softmax"

    def __post_init__(self) -> None:
        proj = np.asarray(self.projection, dtype=float).copy()
        w = np.asarray(self.state_weights, dtype=float).copy()
        if proj.ndim != 2 or proj.shape[1] != PROJECTION_DIM or proj.shape[0] % 2:
            raise ValueError(f"projection must have shape (2H, {PROJECTION_DIM})")
        if w.ndim != 3 or w.shape[1] != PROJECTION_DIM:
            raise ValueError(f"state_weights must have shape (S, {PROJECTION_DIM}, A)")
        if self.normalization != "softmax":
            raise ValueError(f"unknown normalization rule {self.normalization!r}")
        proj.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "state_weights", w)

    @property
    def horizon(self) -> int:
        return self.projection.shape[0] // 2

    def act(self, h: int, state: int, history: History = ()) -> np.ndarray:
        return act_parametric(self, history, state, h)


@dataclass(frozen=True)
class CallablePolicy:
    """Wraps an exact closure (h, state, history) -> action probabilities."""

    fn: Callable[[int, int, History], np.ndarray]
    tag: str = "callable"

    def act(self, h: int, state: int, history: History = ()) -> np.ndarray:
        return np.asarray(self.fn(h, state, history), dtype=float)


PolicyHandle = Union[MarkovianPolicy, RewardAugmentedPolicy, ParametricHistoryPolicy, CallablePolicy]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def act_parametric(
    pol: ParametricHistoryPolicy, history: History, state: int, h: int
) -> np.ndarray:
    """Action distribution of a parametric history policy at one decision point."""
    encoded = np.zeros(pol.projection.shape[0])
    for i, (s, a) in enumerate(history):
        encoded[2 * i] = s
        encoded[2 * i + 1] = a
    features = encoded @ pol.projection
    return _softmax(features @ pol.state_weights[state])


class _Table(NamedTuple):
    """A sampling table: cumulative rows, flat, with an optional guide table.

    Row ``r`` is ``cdf[r * width : (r + 1) * width]``, nondecreasing.  A
    guide cuts [0, 1) into ``2**bits`` equal buckets per row: entry
    ``(r << bits) + j`` is the draw of every uniform in bucket ``j`` of row
    ``r``, or -1 when a searched row entry falls inside that bucket.
    """

    cdf: np.ndarray
    width: int
    guide: np.ndarray | None = None
    bits: int = 0


def _guide(cdf: np.ndarray, width: int, bits: int) -> np.ndarray:
    """Guide table (Chen & Asau 1974) of the flat cumulative rows ``cdf``.

    ``floor(c * 2**bits)`` is exact, so an entry ``c`` lies in bucket ``j``
    iff ``j <= c * 2**bits < j + 1``.  Every uniform in a bucket without
    entries counts the same entries below it: those of buckets 0 to ``j``.
    The last entry of a row is never searched (``_draw`` clamps), and entries
    of 1 or more lie past every bucket.
    """
    buckets = 1 << bits
    searched = cdf.reshape(-1, width)[:, :-1]
    num_rows = searched.shape[0]
    at = np.minimum(np.floor(searched * buckets), buckets).astype(np.intp)
    at += np.arange(num_rows)[:, None] * (buckets + 1)
    hits = np.bincount(at.ravel(), minlength=num_rows * (buckets + 1))
    hits = hits.reshape(num_rows, buckets + 1)[:, :-1]
    guide = np.where(hits > 0, -1, np.cumsum(hits, axis=1))
    return guide.astype(np.min_scalar_type(-width)).ravel()


def _cdf_table(probs: np.ndarray, n: int = 0) -> _Table:
    """Sampling table of ``probs`` (last axis: outcomes) for ``n`` draws per use.

    Cumulative sums over the last axis, flattened; negative entries count as
    0.  Rows at least ``_GUIDE_MIN_WIDTH`` wide get a guide of up to
    ``2**_GUIDE_BITS`` buckets per row, as many as keep it within ``n`` entries.
    """
    width = probs.shape[-1]
    cdf = np.cumsum(np.maximum(probs, 0.0), axis=-1).ravel()
    bits = min(_GUIDE_BITS, (n // (cdf.size // width)).bit_length() - 1)
    if width < _GUIDE_MIN_WIDTH or bits < _GUIDE_MIN_BITS:
        return _Table(cdf, width)
    return _Table(cdf, width, _guide(cdf, width, bits), bits)


def _prefix_cdf(
    pol: ParametricHistoryPolicy,
    state: np.ndarray,
    encoded: np.ndarray,
    features: np.ndarray,
    cdf: np.ndarray,
    peak: np.ndarray,
) -> None:
    """Write the cumulative action distribution of ``m = state.size`` prefixes.

    Prefix ``i`` is the history encoding ``encoded[i]`` at current state
    ``state[i]``; its row goes to ``cdf[i]``.  ``features`` and ``peak`` are
    scratch.  Every buffer has at least m rows.  The softmax runs in place
    in the operation order of ``_softmax`` then ``_cdf_table`` (whose clip
    is a no-op on exponentials).
    """
    m = state.size
    features, out, peak = features[:m], cdf[:m], peak[:m]
    # einsum, not BLAS: with a BLAS product over the varying prefix count the
    # scale workload's peak RSS rose from 65 to 75 MB (2-core host).
    np.einsum("nk,kf->nf", encoded[:m], pol.projection, out=features)
    for block in (slice(i, i + _ROW_BLOCK) for i in range(0, m, _ROW_BLOCK)):
        weights = pol.state_weights[state[block]]
        np.einsum("nf,nfa->na", features[block], weights, out=out[block])
    np.max(out, axis=-1, keepdims=True, out=peak)
    np.subtract(out, peak, out=out)
    np.exp(out, out=out)
    np.sum(out, axis=-1, keepdims=True, out=peak)
    np.divide(out, peak, out=out)
    np.cumsum(out, axis=-1, out=out)


def _search(flat_cdf: np.ndarray, base: np.ndarray, u: np.ndarray, width: int) -> np.ndarray:
    """``min((row < u).sum(), width - 1)`` for row ``flat_cdf[base : base + width]``.

    A branchless binary search over the first ``width - 1`` entries
    (skipping the last is the clamp), for ``width >= 2``.
    """
    pos = base.copy()
    size = width - 1
    while size > 1:
        half = size // 2
        pos += half * (flat_cdf[pos + half] < u)
        size -= half
    pos += flat_cdf[pos] < u
    return pos - base


def _draw(rng: np.random.Generator, table: _Table, rows: np.ndarray) -> np.ndarray:
    """One categorical draw from each given row of ``table``, on one uniform each.

    The draw is ``min((row < u).sum(), width - 1)``.  With a guide, a uniform
    whose bucket holds no row entry reads its draw there; the rest are
    binary-searched.
    """
    u = rng.random(rows.shape[0])
    width = table.width
    if width == 1:
        return np.zeros_like(rows)
    if table.guide is None:
        return _search(table.cdf, rows * width, u, width)
    bucket = (u * (1 << table.bits)).astype(np.intp)  # exact: a power-of-2 scaling
    bucket += rows << table.bits
    draw = table.guide[bucket].astype(np.int64)
    open_ = np.flatnonzero(draw < 0)
    draw[open_] = _search(table.cdf, rows[open_] * width, u[open_], width)
    return draw


def _rollout(
    mdp: TabularMdp, policy: PolicyHandle, n: int, seed: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Draw ``n`` i.i.d. episodes stage by stage, yielding ``(h, cur, a)``.

    ``cur`` and ``a`` are the (n,) states and actions of stage ``h``.  The
    caller must drop them before asking for the next stage, or they stay
    alive while it is drawn.
    """
    rng = np.random.default_rng(seed)
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    cur = np.full(n, mdp.initial_state, dtype=np.int64)
    trans = _cdf_table(mdp.transitions, n)

    if isinstance(policy, (MarkovianPolicy, RewardAugmentedPolicy)):
        policy_table = _cdf_table(policy.table, n)
    if isinstance(policy, RewardAugmentedPolicy):
        g = np.zeros(n, dtype=np.int64)
        n_g = policy.table.shape[2]
    elif isinstance(policy, ParametricHistoryPolicy):
        # One row per distinct (history, current state) prefix; row pid[i]
        # is trajectory i's.  Buffers hold n rows and are used as [:m] views.
        width = policy.state_weights.shape[2]
        pid = np.zeros(n, dtype=np.int64)
        prefix_state = np.full(1, mdp.initial_state, dtype=np.int64)
        encoded = np.zeros((n, 2 * horizon))
        features = np.empty((n, PROJECTION_DIM))
        cdf = np.empty((n, width))
        peak = np.empty((n, 1))
    elif isinstance(policy, CallablePolicy):
        histories: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    for h in range(horizon):
        row = h * num_states + cur  # flat (stage, state) index
        if isinstance(policy, MarkovianPolicy):
            a = _draw(rng, policy_table, row)
        elif isinstance(policy, RewardAugmentedPolicy):
            a = _draw(rng, policy_table, row * n_g + g)
        elif isinstance(policy, ParametricHistoryPolicy):
            _prefix_cdf(policy, prefix_state, encoded, features, cdf, peak)
            a = _draw(rng, _Table(cdf.ravel(), width), pid)
        elif isinstance(policy, CallablePolicy):
            probs = np.stack(
                [policy.act(h, int(cur[i]), tuple(histories[i])) for i in range(n)]
            )
            a = _draw(rng, _cdf_table(probs), np.arange(n))
        else:
            raise TypeError(f"unsupported policy kind {type(policy).__name__}")
        nxt = _draw(rng, trans, row * num_actions + a)
        yield h, cur, a
        if isinstance(policy, RewardAugmentedPolicy):
            g = g + policy.reward.multiples[h, cur, a]
        elif isinstance(policy, ParametricHistoryPolicy) and h + 1 < horizon:
            # The key is a trie id: (parent prefix, action, next state).
            key, pid = np.unique((pid * width + a) * num_states + nxt, return_inverse=True)
            parent = key // (width * num_states)
            m = key.size
            encoded[:m] = encoded[parent]
            encoded[:m, 2 * h] = prefix_state[parent]
            encoded[:m, 2 * h + 1] = key // num_states % width
            prefix_state = key % num_states
        elif isinstance(policy, CallablePolicy):
            for i in range(n):
                histories[i].append((int(cur[i]), int(a[i])))
        cur = nxt


def sample_trajectories(
    mdp: TabularMdp, policy: PolicyHandle, n: int, seed: int
) -> Dataset:
    """Draw ``n`` i.i.d. trajectories; bit-identical output for equal seeds.

    Sampling is vectorized across trajectories for the table-based and
    parametric policy kinds; callable fixtures fall back to a per-trajectory
    loop with explicit history tuples.  The returned arrays are read-only
    and the dataset keeps them without a copy.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    states = np.empty((n, mdp.horizon), dtype=np.int64)
    actions = np.empty((n, mdp.horizon), dtype=np.int64)
    for h, cur, a in _rollout(mdp, policy, n, seed):
        states[:, h] = cur
        actions[:, h] = a
        del cur, a
    states.setflags(write=False)
    actions.setflags(write=False)
    tag = getattr(policy, "tag", type(policy).__name__)
    return Dataset(states, actions, mdp.num_states, mdp.num_actions, seed=seed, policy_tag=tag)


def _check_enumeration_cap(mdp: TabularMdp, cap: int) -> None:
    size = (mdp.num_states * mdp.num_actions) ** mdp.horizon
    if size > cap:
        raise EnumerationCapError(
            f"trajectory space (S*A)^H = {size} exceeds the cap {cap}"
        )


def enumerate_trajectory_distribution(
    mdp: TabularMdp, policy: PolicyHandle, cap: int = ENUMERATION_CAP
) -> tuple[Dataset, np.ndarray]:
    """All positive-probability trajectories, one row each, and their probabilities.

    Depth-first walk over histories; works for every policy kind and is the
    brute-force oracle the dynamic program is checked against.  Rows are
    pairwise distinct and the probabilities sum to one.
    """
    _check_enumeration_cap(mdp, cap)
    rows: list[list[tuple[int, int]]] = []
    probs: list[float] = []
    horizon = mdp.horizon

    def walk(h: int, state: int, prob: float, steps: list[tuple[int, int]]) -> None:
        action_probs = np.asarray(policy.act(h, state, tuple(steps)), dtype=float)
        for a, pa in enumerate(action_probs):
            if pa <= 0.0:
                continue
            steps.append((state, a))
            if h + 1 == horizon:
                rows.append(list(steps))
                probs.append(prob * pa)
            else:
                row = mdp.transitions[h, state, a]
                for s2 in np.nonzero(row > 0.0)[0]:
                    walk(h + 1, int(s2), prob * pa * float(row[s2]), steps)
            steps.pop()

    walk(0, mdp.initial_state, 1.0, [])
    pairs = np.array(rows, dtype=np.int64).reshape(-1, horizon, 2)
    data = Dataset(pairs[..., 0], pairs[..., 1], mdp.num_states, mdp.num_actions)
    return data, np.asarray(probs)


def brute_force_return_distribution(
    mdp: TabularMdp,
    policy: PolicyHandle,
    reward: np.ndarray,
    cap: int = ENUMERATION_CAP,
) -> DiscreteReturnDistribution:
    """Exact return distribution by full trajectory enumeration."""
    data, probs = enumerate_trajectory_distribution(mdp, policy, cap)
    reward = np.asarray(reward, dtype=float)
    returns = reward[np.arange(mdp.horizon), data.states, data.actions].sum(axis=1)
    return DiscreteReturnDistribution.from_weighted(returns, probs)


def mc_return_distribution(
    mdp: TabularMdp, policy: PolicyHandle, reward: np.ndarray, m: int, seed: int
) -> DiscreteReturnDistribution:
    """Empirical return distribution of ``m`` sampled episodes.

    Equal to ``empirical_return_distribution(sample_trajectories(mdp, policy,
    m, seed), reward)`` bit for bit, without building the trajectories: each
    stage's rewards go into an (m, H) block summed by ``sum(axis=1)``, as the
    gathered rewards are there.  A running total over the stages would round
    differently from H = 8 on, where numpy sums each row pairwise.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    reward = np.asarray(reward, dtype=float)
    steps = np.empty((m, mdp.horizon))
    for h, cur, a in _rollout(mdp, policy, m, seed):
        steps[:, h] = reward[h, cur, a]
        del cur, a
    return DiscreteReturnDistribution.from_weighted(steps.sum(axis=1), np.full(m, 1.0 / m))


def _dp_mass_check(total: float) -> None:
    if abs(total - 1.0) > _MASS_TOL:
        raise AssertionError(f"dynamic program lost probability mass: total {total!r}")


def _push_stage(
    cells: np.ndarray,
    mass: np.ndarray,
    phi: np.ndarray,
    transitions: np.ndarray,
    shifts: np.ndarray,
    limits: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """One forward stage of probability mass over (state, live grid accumulators).

    ``cells`` is the sorted array of live accumulator cells, as flat keys
    row-major over the box ``limits`` (one axis per accumulator), and
    ``mass`` is (S, K): the probability of each state with each live cell.
    ``phi`` holds the action probabilities at those cells with the action
    axis last; it broadcasts against (S, K, A).  ``transitions`` is this
    stage's (S, A, S) tensor and ``shifts`` the (S, A, len(limits)) grid
    multiples each (state, action) adds to the accumulators.  Returns the
    next stage's sorted live keys and their (S, K') mass.  Mass shifted past
    a per-axis limit is dropped, never wrapped into the next row of the flat
    key, so callers size their grids so that none is, and check the total.

    The next keys are ``cell + flat shift`` over every (state, cell) with
    mass and every action, found with a presence map over the box.  For each
    action the action-weighted mass fills one zeroed (S, K') slab by one
    fancy-index assignment (one (state, action) never sends two cells to one
    key; mass with nowhere to go lands in a spare column), and a single
    transition GEMM pushes the slab into the next stage.
    """
    num_states, num_actions = transitions.shape[:2]
    size = math.prod(limits)
    strides = [math.prod(limits[d + 1 :]) for d in range(len(limits))]
    dst = cells + (shifts @ strides)[:, :, None]  # (S, A, K); key ``size`` is dropped
    for d, (coord, n) in enumerate(zip(np.unravel_index(cells, limits), limits)):
        dst[shifts[:, :, d, None] >= n - coord] = size  # past a limit
    np.copyto(dst, size, where=(mass == 0.0)[:, None, :])  # no mass to move
    present = np.zeros(size + 1, dtype=bool)
    present[dst] = True
    nxt_cells = present[:size].nonzero()[0]
    pos = np.empty(size + 1, dtype=np.intp)
    pos[nxt_cells] = np.arange(nxt_cells.size)
    pos[size] = nxt_cells.size  # dropped mass goes to a spare column
    cols = pos[dst]
    rows = np.arange(num_states)[:, None]
    weighted = np.empty_like(mass)
    slab = np.empty((num_states, nxt_cells.size + 1))
    nxt = np.empty((num_states, nxt_cells.size))
    pushed = np.empty_like(nxt)
    for a in range(num_actions):
        slab.fill(0.0)
        np.multiply(mass, phi[:, :, a], out=weighted)
        slab[rows, cols[:, a]] = weighted
        # The first action's GEMM writes the next stage, saving a zero fill and an add.
        np.matmul(transitions[:, a, :].T, slab[:, :-1], out=pushed if a else nxt)
        if a:
            nxt += pushed
    return nxt_cells, nxt


def exact_return_distribution(
    mdp: TabularMdp,
    policy: MarkovianPolicy | RewardAugmentedPolicy,
    reward: np.ndarray | GridReward,
    grid: RewardGrid,
) -> DiscreteReturnDistribution:
    """Exact return distribution of a dynamic-programmable policy.

    The evaluation reward is rounded onto ``grid`` (a no-op if it is already
    grid-valued) and the return is accumulated as integer multiples.  For a
    reward-augmented policy whose own conditioning reward differs from the
    evaluation reward, the program tracks both accumulators jointly, so the
    result is still exact.
    """
    gr_eval = reward if isinstance(reward, GridReward) else discretize_reward(reward, grid)
    if gr_eval.grid != grid:
        raise ValueError("evaluation reward grid does not match the requested grid")
    horizon, num_states = mdp.horizon, mdp.num_states
    if getattr(policy, "horizon", horizon) != horizon:
        raise ValueError("policy horizon does not match the MDP")
    shifts = gr_eval.multiples[..., None]
    limits: tuple[int, ...] = (grid.full_size,)

    # Each run of ``stride`` flat keys shares one policy cell (a Markovian table has one).
    if isinstance(policy, MarkovianPolicy):
        table, stride = policy.table[:, :, None, :], grid.full_size
    elif isinstance(policy, RewardAugmentedPolicy):
        same_reward = policy.grid == grid and np.array_equal(
            policy.reward.multiples, gr_eval.multiples
        )
        table, stride = policy.table, 1
        if not same_reward:
            # Policy accumulator x evaluation return.  After the last action
            # the policy accumulator is never read again, so it need not
            # advance (it could overflow its table).
            stride = grid.full_size
            pol_shifts = policy.reward.multiples.copy()
            pol_shifts[-1] = 0
            shifts = np.stack([pol_shifts, gr_eval.multiples], axis=-1)
            limits = (policy.table.shape[2], grid.full_size)
    else:
        raise TypeError(
            f"{type(policy).__name__} does not condition on (stage, state, grid reward); "
            "use enumeration or Monte Carlo instead"
        )

    cells, mass = np.zeros(1, dtype=np.intp), np.zeros((num_states, 1))
    mass[mdp.initial_state] = 1.0
    for h in range(horizon):
        phi = table[h][:, cells // stride]
        cells, mass = _push_stage(cells, mass, phi, mdp.transitions[h], shifts[h], limits)
    # Summed in (state, cell) order, as a dense box sums over its leading axes.
    ret = np.broadcast_to(cells % grid.full_size, mass.shape)
    totals = np.bincount(ret.ravel(), weights=mass.ravel())
    _dp_mass_check(float(totals.sum()))
    support = np.nonzero(totals > 0.0)[0]
    return DiscreteReturnDistribution(support * grid.theta, totals[support])


def exact_augmented_occupancy(
    mdp: TabularMdp,
    policy: RewardAugmentedPolicy | MarkovianPolicy,
    reward: GridReward,
) -> np.ndarray:
    """Occupancy d[h, s, g, a] of a policy on the reward-augmented state space.

    ``d[h, s, g, a]`` is the probability of being in state ``s`` at stage
    ``h`` with cumulative grid multiple ``g`` and choosing action ``a``.
    A Markovian policy is lifted by ignoring ``g``.
    """
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    n_g = reward.grid.num_multiples(horizon - 1)
    occ = np.zeros((horizon, num_states, n_g, num_actions))
    cells, mass = np.zeros(1, dtype=np.intp), np.zeros((num_states, 1))
    mass[mdp.initial_state] = 1.0
    for h in range(horizon):
        if isinstance(policy, MarkovianPolicy):
            phi = policy.table[h][:, None, :]
        else:
            phi = policy.table[h][:, cells]
        occ[h][:, cells] = mass[:, :, None] * phi
        if h + 1 < horizon:
            cells, mass = _push_stage(
                cells, mass, phi, mdp.transitions[h], reward.multiples[h][..., None], (n_g,)
            )
        _dp_mass_check(float(occ[h].sum()))
    return occ


def random_markovian_policy(
    num_states: int, num_actions: int, horizon: int, rng: np.random.Generator
) -> MarkovianPolicy:
    """Rows drawn uniformly from the action simplex."""
    table = rng.dirichlet(np.ones(num_actions), size=(horizon, num_states))
    return MarkovianPolicy(table)


def random_reward_augmented_policy(
    reward: GridReward, num_states: int, rng: np.random.Generator
) -> RewardAugmentedPolicy:
    """Uniform-simplex rows over every (stage, state, grid value) cell."""
    grid = reward.grid
    horizon = grid.horizon
    num_actions = reward.multiples.shape[2]
    n_g = grid.num_multiples(horizon - 1)
    table = rng.dirichlet(np.ones(num_actions), size=(horizon, num_states, n_g))
    return RewardAugmentedPolicy(grid=grid, table=table, reward=reward)


def random_parametric_policy(
    num_states: int, num_actions: int, horizon: int, rng: np.random.Generator
) -> ParametricHistoryPolicy:
    """Projection and per-state weight matrices drawn i.i.d. standard normal."""
    projection = rng.standard_normal((2 * horizon, PROJECTION_DIM))
    weights = rng.standard_normal((num_states, PROJECTION_DIM, num_actions))
    return ParametricHistoryPolicy(projection, weights)
