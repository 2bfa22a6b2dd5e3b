"""Text formats: MDP documents, policy tables, distribution dumps, result CSVs.

Floats are written with ``repr``, which round-trips every double exactly;
integral values are printed without a decimal point (a point mass at 1 dumps
as the line ``1 1``).
"""

from __future__ import annotations

import json

import numpy as np

from .distributions import DiscreteReturnDistribution
from .mdp import GridReward, RewardGrid, TabularMdp, validate_mdp
from .policies import MarkovianPolicy, RewardAugmentedPolicy

__all__ = [
    "mdp_to_json",
    "mdp_from_json",
    "format_distribution",
    "parse_distribution",
    "format_policy",
    "parse_policy",
]


def _fmt(x: float) -> str:
    if float(x) == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


# --- MDP documents ---------------------------------------------------------

def mdp_to_json(mdp: TabularMdp) -> str:
    doc = {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "horizon": mdp.horizon,
        "initial_state": mdp.initial_state,
        "transitions": mdp.transitions.tolist(),
        "reward": mdp.reward.tolist(),
    }
    return json.dumps(doc, indent=1)


#: The keys of an MDP document; the first three must agree with its arrays.
_MDP_KEYS = ("num_states", "num_actions", "horizon", "initial_state", "transitions", "reward")


def mdp_from_json(text: str) -> TabularMdp:
    """The MDP a document describes; ``ValueError`` names up to 20 faults (a
    missing key, a dimension key off the arrays' shape, a ``validate_mdp`` one)."""
    doc = json.loads(text)
    faults = [f"{k} is missing" for k in _MDP_KEYS if not isinstance(doc, dict) or k not in doc]
    if not faults:
        transitions, reward = (np.array(doc[key], dtype=float) for key in _MDP_KEYS[4:])
        mdp = TabularMdp(int(doc["initial_state"]), transitions, reward)
        faults = [
            f"{key} is {doc[key]}, the arrays give {getattr(mdp, key)}"
            for key in _MDP_KEYS[:3]
            if doc[key] != getattr(mdp, key)
        ] + validate_mdp(mdp)
    if faults:
        more = [f"{len(faults) - 20} more"] if len(faults) > 20 else []
        raise ValueError("invalid MDP document: " + "; ".join(faults[:20] + more))
    return mdp


# --- distribution dumps ----------------------------------------------------

def format_distribution(dist: DiscreteReturnDistribution) -> str:
    """One "value probability" pair per line."""
    lines = [f"{_fmt(v)} {_fmt(p)}" for v, p in zip(dist.support, dist.probs)]
    return "\n".join(lines) + "\n"


def parse_distribution(text: str) -> DiscreteReturnDistribution:
    values, probs = [], []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        v, p = line.split()
        values.append(float(v))
        probs.append(float(p))
    return DiscreteReturnDistribution(np.array(values), np.array(probs))


# --- policy tables ---------------------------------------------------------

def _rows(table: np.ndarray) -> list[str]:
    """One line per cell of ``table.shape[:-1]``: its indices, then its entries."""
    return [
        " ".join([*map(str, idx), *map(_fmt, table[idx])])
        for idx in np.ndindex(table.shape[:-1])
    ]


def _read_rows(lines: list[str], shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """The ``shape`` table whose ``_rows`` are ``lines``; cells not listed stay 0."""
    table = np.zeros(shape, dtype=dtype)
    depth = len(shape) - 1
    for ln in lines:
        parts = ln.split()
        table[tuple(int(tok) for tok in parts[:depth])] = [float(p) for p in parts[depth:]]
    return table


def format_policy(policy: MarkovianPolicy | RewardAugmentedPolicy) -> str:
    """A header, a reward-augmented policy's (h, s, a) reward multiples, then the table."""
    if not isinstance(policy, (MarkovianPolicy, RewardAugmentedPolicy)):
        raise TypeError(f"cannot serialize policy kind {type(policy).__name__}")
    horizon, num_states, *_, num_actions = policy.table.shape
    head = f"horizon {horizon} states {num_states} actions {num_actions}"
    if isinstance(policy, MarkovianPolicy):
        lines = ["rdmlab-policy markovian", head]
    else:
        lines = [
            "rdmlab-policy reward-augmented",
            f"{head} theta {_fmt(policy.grid.theta)}",
            "reward",
            *_rows(policy.reward.multiples[..., None]),
        ]
    return "\n".join([*lines, "policy", *_rows(policy.table)]) + "\n"


#: The dimension-line keys of each policy kind.
_HEADER_KEYS = {
    "markovian": ("horizon", "states", "actions"),
    "reward-augmented": ("horizon", "states", "actions", "theta"),
}


def _line(lines: list[str], name: str) -> int:
    """Index of the line ``name``; ``ValueError`` naming it when it is missing."""
    if name not in lines:
        raise ValueError(f"policy document has no {name!r} line")
    return lines.index(name)


def parse_policy(text: str) -> MarkovianPolicy | RewardAugmentedPolicy:
    """The policy a ``format_policy`` document describes; ``ValueError`` names
    a missing kind, header line, header key or section line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("rdmlab-policy"):
        raise ValueError("not a policy document")
    opening = lines[0].split()
    if len(opening) < 2:
        raise ValueError("policy document names no kind after 'rdmlab-policy'")
    kind = opening[1]
    if kind not in _HEADER_KEYS:
        raise ValueError(f"unknown policy kind {kind!r}")
    if len(lines) < 2:
        raise ValueError(f"policy document has no header line ({' '.join(_HEADER_KEYS[kind])})")
    header = lines[1].split()
    fields = dict(zip(header[0::2], header[1::2]))
    missing = [key for key in _HEADER_KEYS[kind] if key not in fields]
    if missing:
        raise ValueError(f"policy header has no {', '.join(missing)}")
    horizon = int(fields["horizon"])
    num_states = int(fields["states"])
    num_actions = int(fields["actions"])
    split = _line(lines, "policy")
    if kind == "markovian":
        return MarkovianPolicy(_read_rows(lines[split + 1 :], (horizon, num_states, num_actions)))
    grid = RewardGrid(float(fields["theta"]), horizon)
    reward_rows = lines[_line(lines, "reward") + 1 : split]
    multiples = _read_rows(reward_rows, (horizon, num_states, num_actions, 1), np.int64)
    table = _read_rows(lines[split + 1 :], (horizon, num_states, grid.table_size, num_actions))
    return RewardAugmentedPolicy(table=table, reward=GridReward(grid, multiples[..., 0]))
