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

One stage walk, ``_stages``, draws n episodes in blocks of at most
``_STAGE_BLOCK`` consecutive rows, each walked through all H stages before
the next starts, so its memory is one block's, whatever n is: per stage an
action pass draws the block's actions, then a transition pass its next
states (none after the last action).  Every block reads its own stretch of
the stream of ``default_rng(seed)``, a ``PCG64`` moved there by
``advance``: the stretches that a stage-by-stage walk over all n rows
would read, so every draw is the same whatever the block size.  A table
policy draws from its ``_grid_table`` lift, as the exact walk and Monte
Carlo read it; a one-cell (Markovian) table keeps no per-row g.  Its two
consumers take each block's (h, rows, states, actions): ``sample_trajectories``
writes the (n, H) columns of a ``Dataset``, and ``sample_counts`` adds them
straight into the visit tensor M[h, s, g, a] on a grid reward, carrying
each row's cumulative grid multiple, which is ``count_occurrences`` of that
dataset without the dataset.  ``mc_return_distribution`` draws no rows:
it carries groups, distinct histories with integer multiplicities, and
splits each group's count over actions and then over next states
(``_split``): a count above the row width by one multinomial, a smaller
one by one categorical draw per member.  Every categorical draw reads one
raw 64-bit output per row, the uniform ``Generator.random`` would make of
it, and finds it in a flat cumulative table at a computed row offset
(``_draw``); no (n x width) block of CDF rows is gathered.  Tables are
built once per call with negative round-off entries clipped to 0.
Transition, Markovian and reward-augmented tables at least
``_GUIDE_MIN_WIDTH`` wide also get a guide table (Chen & Asau 1974) of up
to ``2**_GUIDE_BITS`` buckets per row, never more entries than the n or m
episodes: a uniform whose bucket, read off its output's top bits, holds no CDF
entry reads its draw there, and only the rest are formed as doubles and
binary-searched.
Two-outcome tables (the desk shapes) and the parametric expert's
per-prefix rows gain nothing from a guide and keep the plain search.
The parametric expert's action distribution depends only on the (history,
current state) prefix, and a stage has far fewer distinct prefixes than
rows, so it is computed once per prefix (``_prefix_cdf``): logits (in
blocks of ``_ROW_BLOCK`` prefixes), then softmax and cumulative sum in
place, in one (k, A) array per stage.  Each prefix carries its projected
history, (k, ``PROJECTION_DIM``), not its (2H,) encoding: the encoding is
linear, so a child's features are its parent's plus two projected terms
(``_extend_features``), summed in the order of ``encoded @ projection``.
In the stage walk each row carries a prefix id, renumbered over its block
after every transition pass from the trie key (parent id, action, next
state), and draws its action from its prefix's row: a prefix two blocks
share gets its row once per block, the same row, as it depends on the
prefix alone.  In ``mc_return_distribution`` each group is one prefix.
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

#: Rows per block of the sampler's stage walk; every draw is the same
#: whatever it is.  An n = 3e5 ``sample_counts`` call on ``bulk`` instances
#: (2 cores, median) took 65 ms in one block (a 21.6 MB traced peak), 59 in
#: blocks of 2**13 rows, 48 of 2**14, 41 of 2**15 (3.3 MB) and 47 of 2**16.
_STAGE_BLOCK = 2**15

#: Sampling tables with rows at least this wide get a guide table of
#: between 2**_GUIDE_MIN_BITS and 2**_GUIDE_BITS buckets per row.  At
#: n = 3e5 draws (2 cores) a guide took a width-5 action draw from 6.5 to
#: 3.6 ms and a width-3 one from 7.9 to 5.1 ms, but slowed width 2.
_GUIDE_MIN_WIDTH = 3
_GUIDE_MIN_BITS = 4
_GUIDE_BITS = 8

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
    # Counts stay below the width, so the guide's own small dtype holds them
    # and only the bincount is as wide as an int64 per guide entry.
    dtype = np.min_scalar_type(-width)
    hits = np.bincount(at.ravel(), minlength=num_rows * (buckets + 1)).astype(dtype)
    hits = hits.reshape(num_rows, buckets + 1)[:, :-1]
    return np.where(hits > 0, -1, np.cumsum(hits, axis=1, dtype=dtype)).ravel()


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
    for prev, col in zip(cols, cols[1:]):
        col += prev
    return cdf


def _extend_features(pol, features, parent, h, s, a) -> np.ndarray:
    """Features of the prefixes ``parent`` extended by the stage-h step (s, a),
    added in the order of ``encoded @ projection`` (the encoding is linear)."""
    out = features[parent]
    out += s[:, None] * pol.projection[2 * h]
    out += a[:, None] * pol.projection[2 * h + 1]
    return out


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


def _draw(bitgen: np.random.BitGenerator, table: _Table, rows: np.ndarray) -> np.ndarray:
    """One categorical draw from each given row of ``table``, on one 64-bit output each.

    Output ``x`` stands for the uniform ``u = (x >> 11) * 2**-53``, the double
    ``Generator.random`` makes of it, and the draw is
    ``min((row < u).sum(), width - 1)``.  With a guide, ``x >> (64 - bits)``
    is u's bucket, ``floor(u * 2**bits)`` exactly: a uniform whose bucket
    holds no row entry reads its draw there, and only the rest form ``u``
    and are binary-searched.
    """
    raw = bitgen.random_raw(rows.shape[0])
    width = table.width
    if width == 1:
        return np.zeros_like(rows)
    if table.guide is None:
        return _search(table.cdf, rows * width, (raw >> 11) * _UNIT, width)
    draw = rows << table.bits
    draw += (raw >> (64 - table.bits)).view(np.int64)  # the bucket
    draw[:] = table.guide[draw]
    open_ = np.flatnonzero(draw < 0)
    draw[open_] = _search(table.cdf, rows[open_] * width, (raw[open_] >> 11) * _UNIT, width)
    return draw


def _split(
    rng: np.random.Generator, table: _Table, rows: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``counts[i]`` draws from row ``rows[i]`` of ``table`` over its outcomes.

    Returns ``(source, outcome, count)`` for every nonzero outcome count, in
    no particular order.  A count at most the row width draws one
    categorical per member through ``_draw``, and equal (source, outcome)
    members are merged by ``np.unique``.  A larger count is split by one
    multinomial on ``p_j = min(cdf_j, 1) - min(cdf_{j-1}, 1)``, the law
    ``_draw`` samples (the last outcome takes what the others leave); the
    clip also keeps a row admitted a hair above one (``validate_mdp``'s
    tolerance) within the multinomial's own check.
    """
    width = table.width
    big = counts > width
    small = np.flatnonzero(~big)
    member = np.repeat(small, counts[small])
    draw = _draw(rng.bit_generator, table, rows[member])
    keys, tally = np.unique(member * width + draw, return_counts=True)
    if big.any():
        big = np.flatnonzero(big)
        cdf = np.minimum(table.cdf.reshape(-1, width)[rows[big]], 1.0)
        split = rng.multinomial(counts[big], np.diff(cdf, axis=1, prepend=0.0))
        src, outcome = split.nonzero()
        keys = np.concatenate([keys, big[src] * width + outcome])
        tally = np.concatenate([tally, split[src, outcome]])
    return keys // width, keys % width, tally


def _renumber(key: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(key, return_inverse=True)`` for keys in ``[0, space)``.

    A key space at most twice the rows is renumbered by a presence map over
    it and a running count, which gives the same sorted keys and inverse
    without a sort.  At 10**4 rows (2 cores) the map took 52-114 us to
    np.unique's 230-270 us up to twice the rows, but 360 to 235 us at four
    times; at scale's 10**3 rows and key space 2.5e5 np.unique is far ahead.
    """
    if space > 2 * key.size:
        return np.unique(key, return_inverse=True)
    present = np.zeros(space, dtype=bool)
    present[key] = True
    ids = np.cumsum(present, dtype=np.intp)
    ids -= 1
    return np.flatnonzero(present), ids[key]


def _stages(
    mdp: TabularMdp, policy: PolicyHandle, n: int, seed: int
) -> Iterator[tuple[int, slice, np.ndarray, np.ndarray]]:
    """Walk ``n`` episodes block by block through every stage, yielding ``(h, rows, cur, a)``.

    A block, the slice ``rows``, holds at most ``_STAGE_BLOCK`` episodes and
    is walked through all H stages before the next starts; ``cur`` and ``a``
    are its states and actions at stage ``h``.  Per stage an action pass
    draws the block's actions and yields them, then a transition pass
    (none after the last action: nothing reads that state) its next states.
    Each pass reads the block's stretch of the stream of
    ``default_rng(seed)`` that a stage-by-stage walk over all n rows reads:
    stage h's action draw of row i takes output ``2hn + i``, its transition
    draw output ``(2h + 1)n + i`` (``PCG64.advance`` skips the other rows).
    So every draw is the one-block walk's whatever ``_STAGE_BLOCK`` is, and
    the walk holds O(block) memory.  A table policy reads row (h, s, g) of
    its ``_grid_table`` lift (``_grid_table`` refuses other kinds), the
    parametric expert its prefix row, from one prefix table per stage and
    block, renumbered after each transition pass (``_renumber``).  ``n >= 1``.
    """
    _check_dims(mdp, policy)
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    trans = _cdf_table(mdp.transitions, n)
    prefix = isinstance(policy, ParametricHistoryPolicy)
    if prefix:
        width = policy.state_weights.shape[2]
    else:
        table, own_multiples = _grid_table(policy)
        policy_table = _cdf_table(table, n)
        n_g = table.shape[2]

    for start in range(0, n, _STAGE_BLOCK):
        rows = slice(start, min(start + _STAGE_BLOCK, n))
        k = rows.stop - start
        bitgen = np.random.PCG64(seed)  # the bit generator of default_rng(seed)
        bitgen.advance(start)
        cur = np.full(k, mdp.initial_state, dtype=np.int64)
        if prefix:
            # One row per distinct (history, current state) prefix; row pid[i]
            # is the block's trajectory i's.
            pid = np.zeros(k, dtype=np.intp)
            prefix_state = np.full(1, mdp.initial_state, dtype=np.int64)
            features = np.zeros((1, PROJECTION_DIM))
            g = None
        else:
            # A one-cell table (G = 1, a Markovian one) keeps no per-row g, whose
            # zeros made ``sample_counts`` at bulk's n = 3e5 about 25% slower.
            g = np.zeros(k, dtype=np.int64) if n_g > 1 else None
        for h in range(horizon):
            if prefix:
                prefix_table = _Table(_prefix_cdf(policy, prefix_state, features).ravel(), width)
                a = _draw(bitgen, prefix_table, pid)
            elif g is None:
                a = _draw(bitgen, policy_table, h * num_states + cur)
            else:
                a = _draw(bitgen, policy_table, (h * num_states + cur) * n_g + g)
            yield h, rows, cur, a
            if h + 1 == horizon:
                break
            bitgen.advance(n - k)
            nxt = _draw(bitgen, trans, (h * num_states + cur) * num_actions + a)
            bitgen.advance(n - k)
            if g is not None:
                g += own_multiples[h, cur, a]
            cur = nxt
            if prefix:
                # The key is a trie id: (parent prefix, action, next state).
                key, pid = _renumber(
                    (pid * width + a) * num_states + cur, prefix_state.size * width * num_states
                )
                parent = key // (width * num_states)
                features = _extend_features(
                    policy, features, parent, h, prefix_state[parent], key // num_states % width
                )
                prefix_state = key % num_states


def sample_trajectories(
    mdp: TabularMdp, policy: PolicyHandle, n: int, seed: int
) -> Dataset:
    """Draw ``n`` i.i.d. trajectories; bit-identical output for equal seeds.

    The (n, H) columns of the stage walk ``_stages``, block by block; the
    ``Dataset`` keeps a frozen copy of them.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    states = np.empty((n, mdp.horizon), dtype=np.int64)
    actions = np.empty((n, mdp.horizon), dtype=np.int64)
    for h, rows, cur, a in _stages(mdp, policy, n, seed):
        states[rows, h] = cur
        actions[rows, h] = a
    return Dataset(states, actions, mdp.num_states, mdp.num_actions)


def sample_counts(
    mdp: TabularMdp, policy: PolicyHandle, n: int, seed: int, reward: GridReward
) -> np.ndarray:
    """Visit counters M[h, s, g, a] of ``sample_trajectories(mdp, policy, n, seed)``.

    Equal, dtype included, to ``rdmlab.rsbc.count_occurrences`` of that
    dataset on ``reward``, without building it: the same stage walk draws
    the same episodes, each row carries its cumulative grid multiple g, and
    each block's flat (s, g, a) keys at stage h are added into M[h] by one
    ``np.bincount``.  Memory is M and per-block temporaries (states,
    actions, g offsets, keys): none grows with n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    if reward.grid.horizon != horizon:
        raise ValueError("reward horizon does not match the dataset")
    if reward.multiples.shape[1:] != (num_states, num_actions):
        raise ValueError("reward table does not match the MDP's states and actions")
    num_g = reward.grid.table_size
    cells = num_states * num_g * num_actions
    # A row's offset into its state's (G, A) block of M[h] is g * A; each
    # step adds multiples[h, s, a] * A, read at the flat (s, a) index.
    step = reward.multiples * num_actions
    counts = np.zeros((horizon, cells), dtype=np.intp)
    for h, rows, cur, a in _stages(mdp, policy, n, seed):
        if h == 0:
            offset = 0  # a new block: its rows start at g = 0
        key = cur * (num_g * num_actions)
        key += offset
        key += a
        counts[h] += np.bincount(key, minlength=cells)
        if h + 1 < horizon:
            np.multiply(cur, num_actions, out=key)
            key += a
            offset = offset + step[h].take(key)
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

    The episodes are drawn as counts over groups, not as m rows.  A group is
    a distinct history with its multiplicity; there is one group of count m
    at the initial state.  Each stage splits every group's count over its
    action row (row (h, s, g) of a table policy's ``_grid_table`` lift, or
    the parametric expert's ``_prefix_cdf`` row), then every nonzero (group,
    action) count over ``transitions[h, s, a]``; each child (parent, action,
    next state) is a new group, a trie node.  The counts of m categorical
    draws are Multinomial(m, p), and splitting them group by group, stage by
    stage, gives exactly the law of the histogram of m episodes, so the
    result has that law (not the random stream of ``sample_trajectories``).
    ``_split`` picks, per count, a multinomial or one draw per member.  The
    return of each path is its (H,) reward row summed as a block, the float
    sum enumeration computes, weighted by count / m.  Supports Markovian,
    reward-augmented and parametric history policies.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    _check_dims(mdp, policy)
    rng = np.random.default_rng(seed)
    reward = _raw_reward(reward, "mc_return_distribution")
    horizon, num_states, num_actions = mdp.horizon, mdp.num_states, mdp.num_actions
    trans = _cdf_table(mdp.transitions, m)
    count = np.full(1, m, dtype=np.int64)
    state = np.full(1, mdp.initial_state, dtype=np.int64)
    prefix = isinstance(policy, ParametricHistoryPolicy)
    if prefix:
        features = np.zeros((1, PROJECTION_DIM))
    else:
        table, own_multiples = _grid_table(policy)
        policy_table = _cdf_table(table, m)
        g = np.zeros(1, dtype=np.int64)
        n_g = table.shape[2]

    # Per stage, each (group, action) pair's reward and the stage before's
    # pair it descends from.
    trail: list[tuple[np.ndarray, np.ndarray]] = []
    parent_pair = np.zeros(1, dtype=np.int64)
    for h in range(horizon):
        if prefix:
            actions = _Table(_prefix_cdf(policy, state, features).ravel(), num_actions)
            group, a, pair_count = _split(rng, actions, np.arange(state.size), count)
        else:
            row = (h * num_states + state) * n_g + g
            group, a, pair_count = _split(rng, policy_table, row, count)
        s = state[group]
        trail.append((reward[h, s, a], parent_pair[group]))
        if h + 1 == horizon:
            break
        trans_row = (h * num_states + s) * num_actions + a
        parent_pair, state, count = _split(rng, trans, trans_row, pair_count)
        if prefix:
            features = _extend_features(
                policy, features, group[parent_pair], h, s[parent_pair], a[parent_pair]
            )
        else:
            g = (g[group] + own_multiples[h, s, a])[parent_pair]

    steps = np.empty((pair_count.size, horizon))
    pair = np.arange(pair_count.size)
    for h in range(horizon - 1, -1, -1):
        rewards, parents = trail[h]
        steps[:, h] = rewards[pair]
        pair = parents[pair]
    return DiscreteReturnDistribution.from_weighted(steps.sum(axis=1), pair_count / m)


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
