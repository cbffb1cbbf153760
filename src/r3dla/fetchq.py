"""Analytical model of the decoupled fetch buffer.

The buffer is a discrete-time Markov chain over occupancies 0..N.  Per cycle
the decode stage withdraws instructions under a demand distribution D and
the fetch unit deposits under a supply distribution S.  Convolving the two
gives the distribution of the per-cycle change; shifting that vector along
the diagonal (with boundary absorption) gives the transition matrix, whose
eigenvector for eigenvalue 1 is the steady-state occupancy distribution.
One linear solve finds it: the balance equations with one of them replaced
by the condition that the occupancies sum to 1.  A chain with several
closed classes has no unique steady state and gets the minimum-norm one.
Expected fetch bubbles per cycle follow directly from the steady state and D.

The tests check the solve against a power iteration and a Monte Carlo
simulation of the same queue, both in ``tests/fetchq_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-9


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class Distribution:
    """Probability mass over a contiguous integer support [lo, lo+len-1]."""
    lo: int
    probs: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if len(p) == 0 or (p < -1e-15).any():
            raise ModelError("probabilities must be non-negative and non-empty")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ModelError(f"probabilities sum to {p.sum()}, not 1")

    @property
    def hi(self) -> int:
        return self.lo + len(self.probs) - 1

    @classmethod
    def from_map(cls, m: dict[int, float]) -> "Distribution":
        lo, hi = min(m), max(m)
        return cls(lo, tuple(m.get(k, 0.0) for k in range(lo, hi + 1)))

    @classmethod
    def from_counts(cls, counts: dict[int, int]) -> "Distribution":
        total = sum(counts.values())
        if total == 0:
            raise ModelError("empty histogram")
        return cls.from_map({k: v / total for k, v in counts.items()})

    def to_map(self) -> dict[int, float]:
        return {self.lo + i: p for i, p in enumerate(self.probs)}


def convolve(demand: Distribution, supply: Distribution) -> Distribution:
    """Distribution of the per-cycle occupancy change, supply minus demand.

    C[delta] = sum over (s, d) with s - d = delta of S[s] * D[d].
    """
    s = np.asarray(supply.probs)
    d = np.asarray(demand.probs)
    c = np.convolve(s, d[::-1])
    lo = supply.lo - demand.hi
    return Distribution(lo, tuple(c / c.sum()))


def build_transition(change: Distribution, capacity: int) -> np.ndarray:
    """(N+1)x(N+1) column-stochastic matrix; column j is change shifted by j.

    Boundary rows absorb the probability mass that would land outside
    [0, N]: row 0 collects all changes k <= -j, row N all k >= N - j.
    ``np.add.at`` adds each column's masses in order of k, so the sums are
    the same as one Python ``+=`` per (j, k).
    """
    if capacity < 1:
        raise ModelError("capacity must be >= 1")
    n = capacity
    ks = np.arange(change.lo, change.hi + 1)
    cols = np.arange(n + 1)[:, None]
    rows = np.clip(cols + ks, 0, n)
    p = np.zeros((n + 1, n + 1))
    np.add.at(p, (rows, cols), change.probs)
    return p


def steady_state(p: np.ndarray) -> np.ndarray:
    """Stationary distribution q of a column-stochastic matrix p.

    Solves (p - I) q = 0 with sum(q) = 1 in one linear solve: the balance
    rows sum to zero, so one of them is replaced by the normalization row.
    A chain with several closed classes (of the chains ``build_transition``
    makes, only the identity) has a singular system; it gets the
    minimum-norm stationary vector, which is uniform for the identity.
    Raises ModelError if p is not column-stochastic or the solution is not
    a distribution that p maps to itself.
    """
    n = p.shape[0]
    if not np.abs(p.sum(axis=0) - 1.0).max() <= 1e-9:
        raise ModelError("matrix is not column-stochastic")
    a = p - np.eye(n)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        q = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        q = np.linalg.lstsq(a, b, rcond=None)[0]
    if q.min() < -RESIDUAL_TOL:
        raise ModelError(f"stationary vector has a negative entry {q.min()}")
    # round-off leaves states of near-zero mass at about -1e-16
    q[q < 0.0] = 0.0
    residual = np.abs(p @ q - q).sum() + abs(q.sum() - 1.0)
    if not residual < RESIDUAL_TOL:
        raise ModelError(f"stationary vector has residual {residual}")
    return q


def expected_bubbles(q: np.ndarray, demand: Distribution) -> float:
    """E(bubbles/cycle) = sum_i Q_i * sum_{j>i} D_j * (j - i)."""
    js = np.arange(demand.lo, demand.hi + 1)
    short = np.maximum(js - np.arange(len(q))[:, None], 0)
    return float(q @ (short @ np.asarray(demand.probs)))


@dataclass
class QueueModel:
    demand: Distribution
    transition: np.ndarray
    q_ss: np.ndarray

    @classmethod
    def solve(cls, demand: Distribution, supply: Distribution,
              capacity: int) -> "QueueModel":
        p = build_transition(convolve(demand, supply), capacity)
        return cls(demand=demand, transition=p, q_ss=steady_state(p))

    def bubbles(self) -> float:
        return expected_bubbles(self.q_ss, self.demand)


def harvest_distributions(report: dict) -> tuple[Distribution, Distribution]:
    """Extract (demand, supply) from an engine run report.

    The report must carry ``demand_hist`` (from an idealized-fetch run) and
    ``supply_hist`` (from an idealized-backend run) histograms.
    """
    hists = []
    for key in ("demand_hist", "supply_hist"):
        h = report.get(key)
        if not h:
            raise ModelError(f"report has no {key}; run with distribution "
                             "recording enabled")
        hists.append(Distribution.from_counts({int(k): v for k, v in h.items()}))
    return hists[0], hists[1]


def capacity_sweep(demand: Distribution, supply: Distribution,
                   capacities) -> list[tuple[int, float, np.ndarray]]:
    out = []
    for n in capacities:
        m = QueueModel.solve(demand, supply, n)
        out.append((n, m.bubbles(), m.q_ss))
    return out
