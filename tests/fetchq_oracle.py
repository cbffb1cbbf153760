"""Reference fetch-buffer queue models shared by the fetchq tests.

The loop forms of ``build_transition`` and ``expected_bubbles``, and a
stationary distribution found by power iteration with a damped retry.  This
is different machinery from the direct linear solve in ``r3dla.fetchq``, so
agreement between the two is meaningful.  Power iteration converges only
geometrically, and a periodic chain defeats it: the damped retry cannot
reach STEADY_TOL within MAX_POWER_ITERS at this DAMPING.

``monte_carlo`` simulates the queue itself, step by step, as an independent
check of the Markov model; ``l1_distance``, ``prob`` and ``mean`` read the
distributions the two give.
"""

import numpy as np

from r3dla.fetchq import Distribution, ModelError, RESIDUAL_TOL, convolve

STEADY_TOL = 1e-12
MAX_POWER_ITERS = 10 ** 6
DAMPING = 1e-6


def build_transition(change, capacity):
    if capacity < 1:
        raise ModelError("capacity must be >= 1")
    n = capacity
    p = np.zeros((n + 1, n + 1))
    for j in range(n + 1):
        for k, pk in change.to_map().items():
            i = j + k
            if i <= 0:
                p[0, j] += pk
            elif i >= n:
                p[n, j] += pk
            else:
                p[i, j] += pk
    return p


def steady_state(p):
    n = p.shape[0]
    if not np.allclose(p.sum(axis=0), 1.0, atol=1e-9):
        raise ModelError("matrix is not column-stochastic")
    q = np.full(n, 1.0 / n)
    mat = p
    for attempt in range(2):
        for _ in range(MAX_POWER_ITERS):
            nq = mat @ q
            step = np.abs(nq - q).sum()
            q = nq
            if step < STEADY_TOL:
                q = q / q.sum()
                if np.abs(p @ q - q).sum() < RESIDUAL_TOL:
                    return q
                break
        if attempt == 0:
            # damp to break periodic chains; realizes the epsilon > 0 argument
            mat = (1.0 - DAMPING) * p + DAMPING / n
            q = np.full(n, 1.0 / n)
    raise ModelError("power iteration did not converge")


def expected_bubbles(q, demand):
    total = 0.0
    for i, qi in enumerate(q):
        if qi == 0.0:
            continue
        short = sum(dj * (j - i) for j, dj in demand.to_map().items() if j > i)
        total += qi * short
    return total


def capacity_sweep(demand, supply, capacities):
    change = convolve(demand, supply)
    out = []
    for n in capacities:
        q = steady_state(build_transition(change, n))
        out.append((n, expected_bubbles(q, demand), q))
    return out


def prob(d, k):
    i = k - d.lo
    return d.probs[i] if 0 <= i < len(d.probs) else 0.0


def mean(d):
    return float(sum((d.lo + i) * p for i, p in enumerate(d.probs)))


def monte_carlo(demand: Distribution, supply: Distribution, capacity: int,
                steps: int, seed: int = 0,
                q0: int = 0) -> tuple[Distribution, float]:
    """Simulate the queue; returns (occupancy distribution, bubbles/cycle).

    Each step: draw supply s and demand d, serve min(d, q), count unserved
    demand as bubbles, then fill, truncating at capacity.  Serve-then-fill
    matches the engine's fetch-buffer ordering.
    """
    if steps < 1:
        raise ModelError("steps must be >= 1")
    if not 0 <= q0 <= capacity:
        raise ModelError(f"q0 must be in 0..{capacity}, got {q0}")
    rng = np.random.default_rng(seed)
    d_draw = rng.choice(np.arange(demand.lo, demand.hi + 1), size=steps,
                        p=np.asarray(demand.probs) / sum(demand.probs))
    s_draw = rng.choice(np.arange(supply.lo, supply.hi + 1), size=steps,
                        p=np.asarray(supply.probs) / sum(supply.probs))
    occ = np.zeros(capacity + 1, dtype=np.int64)
    q = q0
    bubbles = 0
    dl = d_draw.tolist()
    sl = s_draw.tolist()
    for d, s in zip(dl, sl):
        occ[q] += 1
        served = d if d < q else q
        bubbles += d - served
        q = q - served + s
        if q > capacity:
            q = capacity
    return Distribution(0, tuple(occ / steps)), bubbles / steps


def l1_distance(a, b) -> float:
    av = np.asarray(a.probs if isinstance(a, Distribution) else a, dtype=float)
    bv = np.asarray(b.probs if isinstance(b, Distribution) else b, dtype=float)
    n = max(len(av), len(bv))
    av = np.pad(av, (0, n - len(av)))
    bv = np.pad(bv, (0, n - len(bv)))
    return float(np.abs(av - bv).sum())
