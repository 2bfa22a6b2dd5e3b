"""Text formats: MDP documents, policy tables, distribution dumps, result CSVs.

Floats are written with ``repr``, which round-trips every double exactly;
integral values are printed without a decimal point (a point mass at 1 dumps
as the line ``1 1``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .distributions import DiscreteReturnDistribution
from .mdp import GridReward, RewardGrid, TabularMdp
from .policies import MarkovianPolicy, RewardAugmentedPolicy

__all__ = [
    "save_mdp",
    "load_mdp",
    "mdp_to_json",
    "mdp_from_json",
    "format_distribution",
    "parse_distribution",
    "save_policy",
    "load_policy",
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


def mdp_from_json(text: str) -> TabularMdp:
    doc = json.loads(text)
    return TabularMdp(
        num_states=int(doc["num_states"]),
        num_actions=int(doc["num_actions"]),
        horizon=int(doc["horizon"]),
        initial_state=int(doc["initial_state"]),
        transitions=np.array(doc["transitions"], dtype=float),
        reward=np.array(doc["reward"], dtype=float),
    )


def save_mdp(mdp: TabularMdp, path: str | Path) -> None:
    Path(path).write_text(mdp_to_json(mdp))


def load_mdp(path: str | Path) -> TabularMdp:
    return mdp_from_json(Path(path).read_text())


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

def format_policy(policy: MarkovianPolicy | RewardAugmentedPolicy) -> str:
    lines: list[str] = []
    if isinstance(policy, MarkovianPolicy):
        horizon, num_states, num_actions = policy.table.shape
        lines.append("rdmlab-policy markovian")
        lines.append(f"horizon {horizon} states {num_states} actions {num_actions}")
        lines.append("policy")
        for h in range(horizon):
            for s in range(num_states):
                probs = " ".join(_fmt(p) for p in policy.table[h, s])
                lines.append(f"{h} {s} {probs}")
    elif isinstance(policy, RewardAugmentedPolicy):
        horizon, num_states, n_g, num_actions = policy.table.shape
        lines.append("rdmlab-policy reward-augmented")
        lines.append(
            f"horizon {horizon} states {num_states} actions {num_actions} "
            f"theta {_fmt(policy.grid.theta)}"
        )
        lines.append("reward")
        for h in range(horizon):
            for s in range(num_states):
                for a in range(num_actions):
                    lines.append(f"{h} {s} {a} {policy.reward.multiples[h, s, a]}")
        lines.append("policy")
        for h in range(horizon):
            for s in range(num_states):
                for g in range(n_g):
                    probs = " ".join(_fmt(p) for p in policy.table[h, s, g])
                    lines.append(f"{h} {s} {g} {probs}")
    else:
        raise TypeError(f"cannot serialize policy kind {type(policy).__name__}")
    return "\n".join(lines) + "\n"


def parse_policy(text: str) -> MarkovianPolicy | RewardAugmentedPolicy:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("rdmlab-policy"):
        raise ValueError("not a policy document")
    kind = lines[0].split()[1]
    header = lines[1].split()
    fields = dict(zip(header[0::2], header[1::2]))
    horizon = int(fields["horizon"])
    num_states = int(fields["states"])
    num_actions = int(fields["actions"])
    if kind == "markovian":
        if lines[2] != "policy":
            raise ValueError("malformed markovian policy document")
        table = np.zeros((horizon, num_states, num_actions))
        for ln in lines[3:]:
            parts = ln.split()
            h, s = int(parts[0]), int(parts[1])
            table[h, s] = [float(p) for p in parts[2:]]
        return MarkovianPolicy(table)
    if kind == "reward-augmented":
        theta = float(fields["theta"])
        grid = RewardGrid(theta, horizon)
        idx = lines.index("reward")
        multiples = np.zeros((horizon, num_states, num_actions), dtype=np.int64)
        body = lines[idx + 1 :]
        split = body.index("policy")
        for ln in body[:split]:
            h, s, a, k = (int(tok) for tok in ln.split())
            multiples[h, s, a] = k
        reward = GridReward(grid, multiples)
        n_g = grid.num_multiples(horizon - 1)
        table = np.zeros((horizon, num_states, n_g, num_actions))
        for ln in body[split + 1 :]:
            parts = ln.split()
            h, s, g = int(parts[0]), int(parts[1]), int(parts[2])
            table[h, s, g] = [float(p) for p in parts[3:]]
        return RewardAugmentedPolicy(table=table, reward=reward)
    raise ValueError(f"unknown policy kind {kind!r}")


def save_policy(policy, path: str | Path) -> None:
    Path(path).write_text(format_policy(policy))


def load_policy(path: str | Path):
    return parse_policy(Path(path).read_text())
