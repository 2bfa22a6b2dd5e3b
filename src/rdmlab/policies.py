"""Policy representations, trajectory sampling, and return-distribution evaluation.

Three policy kinds share one interface, ``act(h, state, history) -> action
probabilities``: Markovian tables, reward-augmented tables indexed by the
discretized cumulative reward (the hand-built fork expert among them), and
the random-projection history policies used as simulation experts.

Exact evaluation comes in two flavors: one forward walk of mass over
(state, cumulative grid reward) pairs for the table policies, and full
trajectory enumeration (capped at ``(S*A)^H <= 2^20``) for everything else.
The walk, ``_table_walk``, lifts a table policy to (H, S, G, A) rows over
the grid multiple it reads (``_grid_table``; a Markovian table is one cell
wide) and pushes H - 1 stages of mass over the box (policy accumulator x
target accumulator) through ``rdmlab.mdp._push_stage``, so it is exact
whichever reward the policy reads.  The return DP drops its last stage's
action mass straight onto the return cells, still checking that stage's
row sums; the augmented occupancy sums each stage over the policy's
accumulator.  The mass checks allow the drift of rows ``validate_mdp``
admits, ``PROB_TOL`` per stage.  Enumeration stays outside the walk: it is
the independent oracle the walk is tested against.  Its one depth-first
walk over histories returns a ``Dataset`` with one row per
positive-probability trajectory, and their probabilities; the brute-force
return distribution sums rewards over those rows, and the reward-conditioned
projection pi_R is ``rs-bc``'s probability-weighted count table over them
(``rdmlab.rsbc.construct_pi_r``).  Every entry point that walks a policy
over an MDP refuses one of another horizon, state or action count
(``_check_dims``).

One walk draws every sample, the group walk ``_group_walk``.  It carries
integer counts over groups, not rows: a group is a set of episodes whose
futures share one law, and the walk starts with one group of n at the
initial state.  Per stage it splits each group's count over its action row,
then each (group, action) count over its transition row (``_split``), on the
stream of ``default_rng(seed)``, so its cost follows the live groups, not n.
A table policy (Markovian, or reward-augmented through the same
``_grid_table`` lift) takes its next step from its (state, own grid cell)
alone: its groups are keyed by that pair and the raw return so far, and the
children that share a key merge.  The parametric expert's next step depends
on its whole history: its group is one (history, current state) prefix, a
trie node, whose children are never merged, so a stage holds its live
prefixes, at most (S*A)^h of them at stage h, whatever n is.
``sample_counts`` adds each stage's (group, action) counts straight into the
visit tensor M[h, s, g, a], each group carrying its counted g;
``sample_trajectories`` replays the walk on the same seed and hands its
outcomes to rows, in a fresh uniformly random order within each group at
every stage (from a second stream), so the rows are i.i.d.  The two agree
exactly whenever the counted g splits no group: for the parametric expert
on every grid, for a table policy when g is a function of the raw return so
far; otherwise they draw the same law.  ``mc_return_distribution`` runs the
walk with the reward it evaluates as the raw return and reads its last
stage: each (group, action) pair's return is its group's return so far plus
the pair's reward.  ``_split`` splits a count above the row width by one
multinomial, a smaller one by one categorical draw per member, in chunks of
``_SPLIT_BLOCK`` that leave every draw as it is.  Every categorical draw
reads one raw 64-bit output per member, the uniform ``Generator.random``
would make of it, and binary-searches it in a flat cumulative table at a
computed row offset (``_draw``); no (n x width) block of CDF rows is
gathered.  Tables are built once per call with negative round-off entries
clipped to 0.  The parametric expert's action row is computed once per
prefix (``_prefix_cdf``): logits (in blocks of ``_ROW_BLOCK`` prefixes), then
softmax and cumulative sum in place, in one (k, A) array per stage.  Each
prefix carries its projected history, (k, ``PROJECTION_DIM``), not its (2H,)
encoding: the encoding is linear, so a child's features are its parent's
plus two projected terms (``_extend_features``), summed in the order of
``encoded @ projection``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np

from .distributions import DiscreteReturnDistribution
from .mdp import (
    PROB_TOL,
    Dataset,
    GridReward,
    RewardGrid,
    TabularMdp,
    _frozen,
    _push_stage,
    _raw_reward,
    discretize_reward,
)

__all__ = [
    "MarkovianPolicy",
    "RewardAugmentedPolicy",
    "ParametricHistoryPolicy",
    "PolicyHandle",
    "EnumerationCapError",
    "ENUMERATION_CAP",
    "sample_trajectories",
    "sample_counts",
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

#: Prefixes per gather of the parametric expert's state weights.  In Monte Carlo
#: at (50,5,5), m = 5e4, 4096 (2.6 MB) cost ~1,500 page faults per call, 512 six.
_ROW_BLOCK = 512

#: Members, or multinomial cells, per chunk of ``_split``; every draw is the
#: same whatever it is.
_SPLIT_BLOCK = 2**13

#: ``Generator.random`` makes the double ``(x >> 11) * _UNIT`` of a 64-bit output x.
_UNIT = 2.0**-53


class EnumerationCapError(RuntimeError):
    """The trajectory space (S*A)^H exceeds the enumeration cap."""


def _check_rows(table: np.ndarray, what: str) -> np.ndarray:
    table = _frozen(table, float)
    if (
        not np.isfinite(table).all()
        or np.abs(table.sum(axis=-1) - 1.0).max() > _ROW_TOL
        or table.min() < -_ROW_TOL
    ):
        raise ValueError(f"{what}: action rows must be probability vectors")
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
    by exact integer accumulation.  ``grid`` is the reward's grid.
    """

    table: np.ndarray  # (H, S, G, A) with G = grid.table_size
    reward: GridReward

    def __post_init__(self) -> None:
        t = _check_rows(self.table, "RewardAugmentedPolicy")
        if t.ndim != 4:
            raise ValueError("table must have shape (H, S, G, A)")
        horizon = t.shape[0]
        if self.grid.horizon != horizon:
            raise ValueError("reward and table horizons must agree")
        if t.shape[2] != self.grid.table_size:
            raise ValueError(f"g-axis has {t.shape[2]} cells, expected {self.grid.table_size}")
        object.__setattr__(self, "table", t)

    @property
    def grid(self) -> RewardGrid:
        return self.reward.grid

    @property
    def horizon(self) -> int:
        return self.table.shape[0]

    def act(self, h: int, state: int, history: History = ()) -> np.ndarray:
        mult = self.reward.multiples
        return self.table[h, state, int(sum(mult[i, s, a] for i, (s, a) in enumerate(history)))]


@dataclass(frozen=True)
class ParametricHistoryPolicy:
    """History-dependent policy from random projections (the simulation expert).

    The history (s_1, a_1, ..., s_{h-1}, a_{h-1}) is written as raw integer
    codes (states and actions in declaration order, interleaved), zero-padded
    to length 2H, projected to ``PROJECTION_DIM`` dimensions, and multiplied
    by the current state's weight matrix; a unit-temperature softmax turns
    that product into probabilities.
    """

    projection: np.ndarray  # (2H, PROJECTION_DIM)
    state_weights: np.ndarray  # (S, PROJECTION_DIM, A)

    def __post_init__(self) -> None:
        proj = _frozen(self.projection, float)
        w = _frozen(self.state_weights, float)
        if proj.ndim != 2 or proj.shape[1] != PROJECTION_DIM or proj.shape[0] % 2:
            raise ValueError(f"projection must have shape (2H, {PROJECTION_DIM})")
        if w.ndim != 3 or w.shape[1] != PROJECTION_DIM:
            raise ValueError(f"state_weights must have shape (S, {PROJECTION_DIM}, A)")
        object.__setattr__(self, "projection", proj)
        object.__setattr__(self, "state_weights", w)

    @property
    def horizon(self) -> int:
        return self.projection.shape[0] // 2

    def act(self, h: int, state: int, history: History = ()) -> np.ndarray:
        encoded = np.zeros(self.projection.shape[0])
        for i, (s, a) in enumerate(history):
            encoded[2 * i] = s
            encoded[2 * i + 1] = a
        return _softmax((encoded @ self.projection) @ self.state_weights[state])


PolicyHandle = Union[MarkovianPolicy, RewardAugmentedPolicy, ParametricHistoryPolicy]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _accumulate(table: np.ndarray) -> np.ndarray:
    """Cumulative sums along the rows of the 2-D ``table``, in place, one
    column at a time: numpy accumulates a short last axis slowly (scale's
    (1250, 50) transition rows took 447 us by ``np.cumsum``, 154 so).  The
    sums are ``np.cumsum``'s, bit for bit."""
    cols = table.T
    for prev, col in zip(cols, cols[1:]):
        col += prev
    return table


def _cdf_table(probs: np.ndarray) -> np.ndarray:
    """Sampling table of ``probs``, with the outcomes on the last axis.

    Cumulative sums over the outcomes, one row per leading index, as a
    (rows, width) array; negative entries count as 0, so rows are
    nondecreasing.
    """
    return _accumulate(np.maximum(probs, 0.0).reshape(-1, probs.shape[-1]))


def _prefix_cdf(
    pol: ParametricHistoryPolicy, state: np.ndarray, features: np.ndarray
) -> np.ndarray:
    """Cumulative action distributions of ``k = state.size`` prefixes, (k, A).

    Prefix ``i`` has the projected history ``features[i]`` at current state
    ``state[i]``.  The logits are formed in blocks of ``_ROW_BLOCK``
    prefixes; the softmax runs in place in the operation order of
    ``_softmax`` then ``_cdf_table`` (whose clip is a no-op on exponentials),
    one action column at a time: numpy reduces a few-wide last axis slowly.
    """
    cdf = np.empty((state.size, pol.state_weights.shape[2]))
    for block in (slice(i, i + _ROW_BLOCK) for i in range(0, state.size, _ROW_BLOCK)):
        weights = pol.state_weights[state[block]]
        np.einsum("nf,nfa->na", features[block], weights, out=cdf[block])
    cols = cdf.T
    cdf -= reduce(np.maximum, cols)[:, None]
    np.exp(cdf, out=cdf)
    cdf /= reduce(np.add, cols)[:, None]
    return _accumulate(cdf)


def _extend_features(pol, features, parent, h, s, a) -> np.ndarray:
    """Features of the prefixes ``parent`` extended by the stage-h step (s, a),
    added in the order of ``encoded @ projection`` (the encoding is linear)."""
    out = features[parent]
    out += s[:, None] * pol.projection[2 * h]
    out += a[:, None] * pol.projection[2 * h + 1]
    return out


def _draw(bitgen: np.random.BitGenerator, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One categorical draw from each given row of ``table``, on one 64-bit output each.

    ``table`` is a (rows, width) cumulative table.  Output ``x`` stands for
    the uniform ``u = (x >> 11) * 2**-53``, the double ``Generator.random``
    makes of it, and the draw is ``min((row < u).sum(), width - 1)``: a
    branchless binary search over the row's first ``width - 1`` entries
    (skipping the last is the clamp).
    """
    raw = bitgen.random_raw(rows.shape[0])
    width = table.shape[1]
    if width == 1:
        return np.zeros_like(rows)
    flat_cdf, u = table.reshape(-1), (raw >> 11) * _UNIT
    base = rows * width
    pos = base.copy()
    size = width - 1
    while size > 1:
        half = size // 2
        pos += half * (flat_cdf[pos + half] < u)
        size -= half
    pos += flat_cdf[pos] < u
    return pos - base


def _split(
    rng: np.random.Generator, table: np.ndarray, rows: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``counts[i]`` draws from row ``rows[i]`` of ``table`` over its outcomes.

    Returns the keys ``i * width + outcome`` of every nonzero outcome count,
    sorted, and those counts.  A count at most the row width draws one
    categorical per member through ``_draw``, and equal (source, outcome)
    members are counted by ``np.bincount`` over the chunk's key range.  A
    larger count is split by one multinomial on
    ``p_j = min(cdf_j, 1) - min(cdf_{j-1}, 1)``, the law ``_draw`` samples
    (the last outcome takes what the others leave); the clip also keeps a
    row admitted a hair above one (``validate_mdp``'s tolerance) within the
    multinomial's own check.  Both passes run in chunks of about
    ``_SPLIT_BLOCK`` members or multinomial cells, in order: the stream, and
    so every draw, is the one of a single pass.  Each pass yields its keys
    in order, so the stable sort (timsort) only merges two sorted runs.
    """
    width = table.shape[1]
    big = counts > width
    small = np.flatnonzero(~big)
    ends = np.cumsum(counts[small])
    cuts = np.searchsorted(ends, np.arange(_SPLIT_BLOCK, ends[-1:].sum(), _SPLIT_BLOCK))
    parts = []
    bounds = [0, *cuts.tolist(), small.size]
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = small[lo:hi]
        member = np.repeat(chunk, counts[chunk])
        first = chunk[:1].sum() * width  # the chunk's first key (0 if it is empty)
        key = _draw(rng.bit_generator, table, rows[member])
        key += member * width - first
        tally = np.bincount(key)
        key = np.flatnonzero(tally)
        parts.append((key + first, tally[key]))
    big = np.flatnonzero(big)
    step = max(1, _SPLIT_BLOCK // width)
    for chunk in (big[i : i + step] for i in range(0, big.size, step)):
        probs = np.minimum(table[rows[chunk]], 1.0)
        probs[:, 1:] -= probs[:, :-1]  # numpy buffers the overlap: np.diff's values
        split = rng.multinomial(counts[chunk], probs)
        src, outcome = split.nonzero()
        parts.append((chunk[src] * width + outcome, split[src, outcome]))
    keys, tally = (np.concatenate(x) for x in zip(*parts))
    del parts  # hold one copy of the keys at a time
    order = keys.argsort(kind="stable")
    keys = keys[order]
    return keys, tally[order]


def _renumber(key: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(key, return_inverse=True)`` for keys in ``[0, space)``.

    A key space at most twice the rows is renumbered by a presence map over
    it and a running count, which gives the same sorted keys and inverse
    without a sort.  At 10**4 rows (2 cores) the map took 52-114 us to
    np.unique's 230-270 us up to twice the rows, but 360 to 235 us at four
    times; at scale's 10**3 rows and key space 2.5e5 np.unique is far ahead.
    A larger space is sorted, as np.unique does, but holding fewer
    row-sized temporaries at once.
    """
    if space > 2 * key.size:
        order = key.argsort()
        ordered = key[order]
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        ordered = ordered[first]
        ids = np.cumsum(first, dtype=np.intp)
        del first
        ids -= 1
        inverse = np.empty_like(ids)
        inverse[order] = ids
        return ordered, inverse
    present = np.zeros(space, dtype=bool)
    present[key] = True
    ids = np.cumsum(present, dtype=np.intp)
    ids -= 1
    return np.flatnonzero(present), ids[key]


class _GroupStage(NamedTuple):
    """One stage of ``_group_walk``.

    ``state``, ``cell`` (the counted grid multiple, or None) and ``ret``
    (the raw return so far) are per group; ``group``, ``action`` and
    ``count`` per (group, action) pair, sorted by (group, action).
    ``child_count`` and ``child_group`` are per (pair, next state) child,
    sorted by (pair, next state): its count and the next stage's group it
    went to (None after the last action).
    """

    state: np.ndarray
    cell: np.ndarray | None
    ret: np.ndarray
    group: np.ndarray
    action: np.ndarray
    count: np.ndarray
    child_count: np.ndarray | None
    child_group: np.ndarray | None


def _group_walk(
    mdp: TabularMdp, policy: PolicyHandle, n: int, seed: int, raw_reward: np.ndarray,
    reward: GridReward | None = None,
) -> Iterator[_GroupStage]:
    """Walk ``n`` episodes of any policy as counts over groups, stage by stage.

    The walk starts with one group of n at the initial state.  Each stage
    splits every group's count over its action row, then every (group,
    action) count over ``transitions[h, s, a]`` (``_split``, on the stream
    of ``default_rng(seed)``), and sends each (pair, next state) child to a
    group of the next stage.  Every group carries its state, its return so
    far of the (H, S, A) table ``raw_reward``, summed in stage order, and,
    given ``reward``, the cumulative grid multiple of ``reward`` it counts.

    A table policy's action row is row (h, s, own cell) of its
    ``_grid_table`` lift; its next step depends on that alone, so the
    episodes of a group keyed by (state, own cell, return so far, counted
    cell) are exchangeable, and children that share a key merge: a stage
    holds at most one group per live key however large n is.  The return so
    far is in the key so that a counted multiple that is a function of it (a
    reward on the grid of ``raw_reward``'s own step) adds no group and no
    draw.  Groups are numbered in key order; a child's key is its next
    state and its pair's key after the step, ranked over the pairs.

    The parametric expert's group is one (history, state) prefix, a trie
    node carrying its projected history, and its action row is its
    ``_prefix_cdf`` row.  Each child is a group of its own, numbered in
    (pair, next state) order, so a stage holds the live prefixes and the
    counted multiple never changes a draw.
    """
    _check_dims(mdp, policy)
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    prefix = isinstance(policy, ParametricHistoryPolicy)
    if prefix:
        features = np.zeros((1, PROJECTION_DIM))
    else:
        table, own_multiples = _grid_table(policy)
        num_own = table.shape[2]
        actions = _cdf_table(table)
        step_own = own_multiples.ravel()
        own = np.zeros(1, dtype=np.int64)
    trans = _cdf_table(mdp.transitions)
    # per flat (h, s, a) step: what it adds to the return and the counted cell
    step_return = raw_reward.ravel()
    if reward is not None:
        num_cells, step_cell = reward.grid.table_size, reward.multiples.ravel()
    rng = np.random.default_rng(seed)
    count = np.full(1, n, dtype=np.int64)
    state = np.full(1, mdp.initial_state, dtype=np.int64)
    ret = np.zeros(1)
    cell = None if reward is None else np.zeros(1, dtype=np.int64)
    for h in range(horizon):
        if prefix:
            cdf, rows = _prefix_cdf(policy, state, features), np.arange(state.size)
        else:
            cdf, rows = actions, (h * num_states + state) * num_own + own
        keys, pair_count = _split(rng, cdf, rows, count)
        group, action = np.divmod(keys, num_actions)
        if h + 1 == horizon:
            yield _GroupStage(state, cell, ret, group, action, pair_count, None, None)
            return
        step = (h * num_states + state[group]) * num_actions + action
        keys, child_count = _split(rng, trans, step, pair_count)
        # each pair's return and counted cell after its step
        pair_ret = ret[group] + step_return[step]
        pair_cell = None if cell is None else cell[group] + step_cell[step]
        if prefix:
            pair, keys = np.divmod(keys, num_states)  # each child's pair and next state
            child_group = np.arange(keys.size)
        else:
            # Each pair's key after its step, (own cell, return, counted cell), ranked.
            returns, post = np.unique(pair_ret, return_inverse=True)
            post += (own[group] + step_own[step]) * returns.size
            if cell is not None:
                post = post * num_cells + pair_cell
            del pair_ret, pair_cell
            post, rank = np.unique(post, return_inverse=True)
            pair, keys = np.divmod(keys, num_states)
            keys *= post.size
            keys += rank[pair]
            del pair, rank
            keys, child_group = _renumber(keys, num_states * post.size)
        yield _GroupStage(state, cell, ret, group, action, pair_count, child_count, child_group)
        if prefix:
            parent = group[pair]
            features = _extend_features(policy, features, parent, h, state[parent], action[pair])
            state, count, ret = keys, child_count, pair_ret[pair]
            cell = None if cell is None else pair_cell[pair]
            continue
        count = np.bincount(child_group, child_count).astype(np.int64)
        state, rank = np.divmod(keys, post.size)
        post = post[rank]
        if cell is not None:
            post, cell = np.divmod(post, num_cells)
        own, rank = np.divmod(post, returns.size)
        ret = returns[rank]


def sample_trajectories(
    mdp: TabularMdp, policy: PolicyHandle, n: int, seed: int
) -> Dataset:
    """Draw ``n`` i.i.d. trajectories; bit-identical output for equal seeds.

    Replays the group walk ``_group_walk`` that ``sample_counts`` runs on
    the same seed, keyed without a counted reward, and hands its outcomes to
    rows: per stage the rows are ordered by group, in a uniformly random
    order within each group (a permutation from ``default_rng([seed, 1])``,
    a stream the walk never reads, then a stable sort), and take the stage's
    actions, then its children, in blocks.  The random order is what makes
    the rows i.i.d.: without it the rows that took one outcome at a stage
    would take the next stage's outcomes together.  ``count_occurrences`` of
    the result equals ``sample_counts`` on the same seed whenever the
    counted multiple splits no group: for the parametric expert on every
    grid, for a table policy on the grid of ``mdp.reward``'s own step; on
    another grid a table policy draws the same law but other episodes.
    Memory is the (n, H) columns and one stage's groups.  The ``Dataset``
    keeps a frozen copy of the columns.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    # Stage-major columns of the smallest dtype: each stage writes one
    # contiguous row, and the ``Dataset`` copy transposes and widens them.
    states = np.empty((mdp.horizon, n), dtype=np.min_scalar_type(mdp.num_states - 1))
    actions = np.empty((mdp.horizon, n), dtype=np.min_scalar_type(mdp.num_actions - 1))
    shuffler = np.random.default_rng([seed, 1])
    row_group = np.zeros(n, dtype=np.uint8)
    for h, stage in enumerate(_group_walk(mdp, policy, n, seed, mdp.reward)):
        states[h] = stage.state[row_group]
        perm = shuffler.permutation(n)
        # A stable sort of a small integer dtype is numpy's radix sort.
        order = perm[row_group[perm].argsort(kind="stable")]
        actions[h, order] = np.repeat(stage.action, stage.count)
        if stage.child_group is not None:
            row_group = np.empty(n, dtype=np.min_scalar_type(stage.child_group.max()))
            row_group[order] = np.repeat(stage.child_group, stage.child_count)
    return Dataset(
        states.T.astype(np.int64, order="C"), actions.T.astype(np.int64, order="C"),
        mdp.num_states, mdp.num_actions,
    )


def sample_counts(
    mdp: TabularMdp, policy: PolicyHandle, n: int, seed: int, reward: GridReward
) -> np.ndarray:
    """Visit counters M[h, s, g, a] of ``n`` episodes drawn on ``seed``.

    Has the dtype and law of ``rdmlab.rsbc.count_occurrences`` of
    ``sample_trajectories(mdp, policy, n, seed)`` on ``reward``, without a
    dataset: it runs the group walk ``_group_walk`` with the counted g
    carried per group and adds each stage's (group, action) counts into
    M[h].  Memory is M and one stage's groups: a table policy's merged keys,
    the parametric expert's live history prefixes (at most (S*A)^h at stage
    h), never n rows.  It is the count of that dataset exactly whenever g
    splits no group: for the parametric expert on every grid, whose groups
    are its prefixes whatever g is, and for a table policy when g is a
    function of the raw return so far (``reward`` on the grid of
    ``mdp.reward``'s own step, as in the benchmark).  On another grid a
    table policy draws the same law but other episodes, since g then splits
    groups the dataset's walk keeps whole.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    if reward.grid.horizon != horizon:
        raise ValueError("reward horizon does not match the dataset")
    if reward.multiples.shape[1:] != (num_states, num_actions):
        raise ValueError("reward table does not match the MDP's states and actions")
    num_g = reward.grid.table_size
    counts = np.zeros((horizon, num_states * num_g * num_actions), dtype=np.intp)
    for h, stage in enumerate(_group_walk(mdp, policy, n, seed, mdp.reward, reward)):
        key = (stage.state * num_g + stage.cell)[stage.group] * num_actions + stage.action
        np.add.at(counts[h], key, stage.count)
    return counts.reshape(horizon, num_states, num_g, num_actions)


def _check_dims(mdp: TabularMdp, policy: PolicyHandle) -> None:
    # refuse another (H, S, A); an object of another kind is left to the caller's kind check
    if getattr(policy, "horizon", mdp.horizon) != mdp.horizon:
        raise ValueError("policy horizon does not match the MDP")
    if isinstance(policy, ParametricHistoryPolicy):
        dims = policy.state_weights.shape[::2]  # (S, PROJECTION_DIM, A)
    elif isinstance(policy, (MarkovianPolicy, RewardAugmentedPolicy)):
        dims = policy.table.shape[1], policy.table.shape[-1]
    else:
        return
    want = mdp.num_states, mdp.num_actions
    if dims != want:
        raise ValueError(f"policy states and actions {dims} do not match the MDP's {want}")


def enumerate_trajectory_distribution(
    mdp: TabularMdp, policy: PolicyHandle
) -> tuple[Dataset, np.ndarray]:
    """All positive-probability trajectories, one row each, and their probabilities.

    Depth-first walk over histories; works for every policy kind and is the
    brute-force oracle the dynamic program is checked against.  Rows are
    pairwise distinct and the probabilities sum to one.
    """
    _check_dims(mdp, policy)
    size = (mdp.num_states * mdp.num_actions) ** mdp.horizon
    if size > ENUMERATION_CAP:
        raise EnumerationCapError(f"trajectory space (S*A)^H = {size} exceeds {ENUMERATION_CAP}")
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
    mdp: TabularMdp, policy: PolicyHandle, reward: np.ndarray
) -> DiscreteReturnDistribution:
    """Exact return distribution by full trajectory enumeration."""
    data, probs = enumerate_trajectory_distribution(mdp, policy)
    total = probs.sum()
    _dp_mass_check(total, mdp.horizon)  # rows admitted off one, as in the return DP
    if abs(total - 1.0) > _MASS_TOL:  # a total closer to one keeps its bits
        probs = probs / total
    reward = _raw_reward(reward, "brute_force_return_distribution")
    returns = reward[np.arange(mdp.horizon), data.states, data.actions].sum(axis=1)
    return DiscreteReturnDistribution.from_weighted(returns, probs)


def mc_return_distribution(
    mdp: TabularMdp, policy: PolicyHandle, reward: np.ndarray, m: int, seed: int
) -> DiscreteReturnDistribution:
    """Empirical return distribution of ``m`` i.i.d. sampled episodes.

    The episodes are drawn as counts over groups by the group walk
    ``_group_walk``, with ``reward`` as the return each group carries, and
    no row is drawn.  The counts of m categorical draws are Multinomial(m,
    p), and splitting them group by group, stage by stage, gives exactly the
    law of the histogram of m episodes, so the result has that law.  On
    ``mdp.reward`` it is the walk ``sample_trajectories`` replays on the
    same seed, so it is that dataset's empirical return law.  Each
    last-stage (group, action) pair's return is its group's return so far
    plus the pair's reward, summed in stage order, weighted by count / m.
    Memory is one stage's groups: a table policy's merged keys, the
    parametric expert's live history prefixes.  Supports Markovian,
    reward-augmented and parametric history policies.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    reward = _raw_reward(reward, "mc_return_distribution")
    if reward.shape != mdp.reward.shape:  # the walk reads it by flat (h, s, a) index
        raise ValueError(f"reward table has shape {reward.shape}, the MDP's {mdp.reward.shape}")
    for stage in _group_walk(mdp, policy, m, seed, reward):
        pass
    last = reward[-1, stage.state[stage.group], stage.action]
    return DiscreteReturnDistribution.from_weighted(stage.ret[stage.group] + last, stage.count / m)


def _dp_mass_check(total: float, horizon: int) -> None:
    # each transition stage may scale the mass by a row sum within PROB_TOL of one
    if abs(total - 1.0) > horizon * PROB_TOL + _MASS_TOL:
        raise AssertionError(f"lost probability mass: total {total!r}")


def _grid_table(policy: PolicyHandle) -> tuple[np.ndarray, np.ndarray]:
    """A table policy's (H, S, G, A) rows and the (H, S, A) grid multiples each
    step adds to the g it reads; a Markovian table is one cell (G = 1) that
    never moves."""
    if isinstance(policy, MarkovianPolicy):
        return policy.table[:, :, None, :], np.zeros(policy.table.shape[:3], dtype=np.int64)
    if isinstance(policy, RewardAugmentedPolicy):
        return policy.table, policy.reward.multiples
    raise TypeError(f"policy kind {type(policy).__name__} has no (stage, state, grid) table")


def _table_walk(mdp: TabularMdp, policy: PolicyHandle, multiples: np.ndarray, size: int):
    """Walk a table policy's mass forward, yielding each stage's ``(cells, mass, phi)``.

    ``cells`` are the sorted live keys ``g_policy * size + g`` of the box
    (policy accumulator x target accumulator ``g < size`` of ``multiples``),
    ``mass`` is (S, K) and ``phi`` the (S, K, A) action rows there.  H - 1
    stages are pushed: nothing reads the post-episode state.  A policy on the
    target reward keeps both coordinates equal, so its keys and pushes are,
    bit for bit, those of a walk over the target accumulator alone.
    """
    _check_dims(mdp, policy)
    table, own_multiples = _grid_table(policy)
    shifts = np.stack([own_multiples, multiples], axis=-1)
    limits = (table.shape[2], size)
    cells, mass = np.zeros(1, dtype=np.intp), np.zeros((mdp.num_states, 1))
    mass[mdp.initial_state] = 1.0
    for h in range(mdp.horizon):
        phi = table[h][:, cells // size]
        yield cells, mass, phi
        if h + 1 < mdp.horizon:
            cells, mass = _push_stage(cells, mass, phi, mdp.transitions[h], shifts[h], limits)


def exact_return_distribution(
    mdp: TabularMdp, policy: MarkovianPolicy | RewardAugmentedPolicy,
    reward: np.ndarray | GridReward, grid: RewardGrid,
) -> DiscreteReturnDistribution:
    """Exact return distribution of a dynamic-programmable policy.

    The evaluation reward is put on ``grid`` by ``discretize_reward`` and the
    return is accumulated as integer multiples, jointly with the multiple the
    policy reads (``_table_walk``), so the result is exact whichever reward
    the policy conditions on.
    """
    gr_eval = discretize_reward(reward, grid)
    for cells, mass, phi in _table_walk(mdp, policy, gr_eval.multiples, grid.full_size):
        pass
    # The last action's mass lands on its return cell, summed in (state, cell, action) order.
    weighted = mass[:, :, None] * phi
    totals = np.bincount(gr_eval.returns(cells % grid.full_size).ravel(), weighted.ravel())
    # The last stage's rows still carry the mass: a leaking row must show.
    row_mass = mdp.transitions[-1].sum(axis=-1)
    _dp_mass_check(float((weighted.sum(axis=1) * row_mass).sum()), mdp.horizon)
    # Rows admitted off one leave the total up to H * PROB_TOL off one.
    return DiscreteReturnDistribution.on_grid(totals, grid.theta)


def exact_augmented_occupancy(
    mdp: TabularMdp, policy: MarkovianPolicy | RewardAugmentedPolicy, reward: GridReward
) -> np.ndarray:
    """Occupancy d[h, s, g, a] of a policy on the reward-augmented state space.

    ``d[h, s, g, a]`` is the probability of being in state ``s`` at stage
    ``h`` with cumulative grid multiple ``g`` of ``reward`` and choosing
    action ``a``.  The policy reads its own accumulator (``_table_walk``),
    which may sum another reward; each stage's mass is summed over it.
    """
    n_g = reward.grid.table_size
    occ = np.zeros((mdp.horizon, mdp.num_states, n_g, mdp.num_actions))
    for h, (cells, mass, phi) in enumerate(_table_walk(mdp, policy, reward.multiples, n_g)):
        np.add.at(occ[h], (slice(None), cells % n_g), mass[:, :, None] * phi)
        _dp_mass_check(float(occ[h].sum()), mdp.horizon)
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
    num_actions = reward.multiples.shape[2]
    table = rng.dirichlet(np.ones(num_actions), size=(grid.horizon, num_states, grid.table_size))
    return RewardAugmentedPolicy(table=table, reward=reward)


def random_parametric_policy(
    num_states: int, num_actions: int, horizon: int, rng: np.random.Generator
) -> ParametricHistoryPolicy:
    """Projection and per-state weight matrices drawn i.i.d. standard normal."""
    projection = rng.standard_normal((2 * horizon, PROJECTION_DIM))
    weights = rng.standard_normal((num_states, PROJECTION_DIM, num_actions))
    return ParametricHistoryPolicy(projection, weights)
