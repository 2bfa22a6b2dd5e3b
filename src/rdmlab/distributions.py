"""Finite-support return distributions and the metrics used to compare them.

Everything here works on exact atom lists.  The 1-Wasserstein distance is
the area between the two CDFs, computed by one sweep over the merged
support; the CVaR at level ``alpha`` integrates the left-continuous
generalized inverse ``inf{z : F(z) >= u}`` over (0, alpha], splitting the
atom that straddles ``alpha`` proportionally.  Laws and metrics only: this
module imports nothing from the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiscreteReturnDistribution",
    "ATOM_MERGE_TOL",
    "wasserstein",
    "total_variation",
    "cvar",
    "mean",
    "variance",
    "dkw_band",
]

#: Support values closer than this are treated as the same atom.
ATOM_MERGE_TOL = 1e-12

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteReturnDistribution:
    """A probability distribution with finite, strictly increasing support.

    Construct with :meth:`from_weighted` when the atoms may be unsorted,
    repeated, or separated by less than ``ATOM_MERGE_TOL``: floating-point
    returns of equal grid sums must collapse to one atom.  The stored
    weights are normalized exactly to one (inputs may drift by up to
    ``1e-9``, e.g. out of an LP solution).
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if support.ndim != 1 or support.shape != probs.shape or support.size == 0:
            raise ValueError("support and probs must be matching nonempty 1-D arrays")
        if not np.isfinite(support).all() or not np.isfinite(probs).all():
            raise ValueError("support and probs must be finite")
        if support.size > 1 and not (np.diff(support) > 0).all():
            raise ValueError("support must be strictly increasing")
        if probs.min() < -_MASS_TOL:
            raise ValueError("negative probability")
        total = float(probs.sum())
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        probs = np.clip(probs, 0.0, None) / np.clip(probs, 0.0, None).sum()
        support = support.copy()
        support.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_weighted(cls, values, weights) -> "DiscreteReturnDistribution":
        """Build a distribution from raw (value, weight) pairs.

        Values are sorted, near-duplicates merged (weight-averaged position),
        and zero-weight atoms dropped.
        """
        values = np.asarray(values, dtype=float).ravel()
        weights = np.asarray(weights, dtype=float).ravel()
        if values.size != weights.size or values.size == 0:
            raise ValueError("values and weights must be matching nonempty arrays")
        order = np.argsort(values, kind="stable")
        v, w = values[order], weights[order]
        _, (mass, pos) = _merge_atoms(v, w, v * w)
        keep = mass > 0
        return cls(pos[keep] / mass[keep], mass[keep])

    @classmethod
    def on_grid(cls, mass, theta: float) -> "DiscreteReturnDistribution":
        """Positive ``mass[k]`` at ``k * theta``, divided by its sum (exact for
        integer counts below 2**53, so counts give the law of count / N)."""
        mass = np.asarray(mass)
        support = np.flatnonzero(mass > 0)
        return cls(support * theta, mass[support] / mass[support].sum())

    @classmethod
    def point_mass(cls, value: float) -> "DiscreteReturnDistribution":
        return cls(np.array([float(value)]), np.array([1.0]))


def _merge_atoms(
    v: np.ndarray, *weights: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Group sorted values closer than ``ATOM_MERGE_TOL`` into atoms.

    Returns each group's first value and, for every weight array, its sum
    per group.  ``np.bincount`` adds each group's weights in array order.
    """
    starts = np.empty(v.size, dtype=bool)
    starts[0] = True
    np.greater(np.diff(v), ATOM_MERGE_TOL, out=starts[1:])
    group = np.cumsum(starts) - 1
    n = int(group[-1]) + 1
    return v[starts], [np.bincount(group, weights=w, minlength=n) for w in weights]


def _aligned(
    p: DiscreteReturnDistribution, q: DiscreteReturnDistribution
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Common support of two distributions, grouping atoms within tolerance."""
    v = np.concatenate([p.support, q.support])
    wp = np.concatenate([p.probs, np.zeros_like(q.probs)])
    wq = np.concatenate([np.zeros_like(p.probs), q.probs])
    order = np.argsort(v, kind="stable")
    values, (pa, qa) = _merge_atoms(v[order], wp[order], wq[order])
    return values, pa, qa


def wasserstein(p: DiscreteReturnDistribution, q: DiscreteReturnDistribution) -> float:
    """1-Wasserstein distance: the integral of |F_p - F_q|."""
    values, pa, qa = _aligned(p, q)
    if values.size == 1:
        return 0.0
    gaps = np.diff(values)
    cdf_diff = np.cumsum(pa - qa)[:-1]
    return float(np.abs(cdf_diff) @ gaps)


def total_variation(p: DiscreteReturnDistribution, q: DiscreteReturnDistribution) -> float:
    """Total variation distance: half the L1 distance over the union support."""
    _, pa, qa = _aligned(p, q)
    return float(0.5 * np.abs(pa - qa).sum())


def cvar(p: DiscreteReturnDistribution, alpha: float) -> float:
    """Average of the worst ``alpha`` fraction of outcomes.

    Equals (1/alpha) * integral of the quantile function over (0, alpha];
    the atom straddling ``alpha`` contributes proportionally to the part of
    its mass below the level.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    cum = np.cumsum(p.probs)
    below = np.minimum(cum, alpha)
    weights = np.clip(below - (cum - p.probs), 0.0, None)
    return float(weights @ p.support / alpha)


def mean(p: DiscreteReturnDistribution) -> float:
    return float(p.probs @ p.support)


def variance(p: DiscreteReturnDistribution) -> float:
    m = mean(p)
    return float(p.probs @ (p.support - m) ** 2)


def dkw_band(n: int, delta: float) -> float:
    """Uniform CDF deviation bound sqrt(ln(2/delta) / (2 n)).

    With probability at least 1 - delta the empirical CDF of n i.i.d. draws
    stays within this band of the true CDF, uniformly.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))
