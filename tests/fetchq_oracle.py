"""Reference fetch-buffer queue model shared by the fetchq tests.

The loop forms of ``build_transition`` and ``expected_bubbles``, and a
stationary distribution found by power iteration with a damped retry.  This
is different machinery from the direct linear solve in ``r3dla.fetchq``, so
agreement between the two is meaningful.  Power iteration converges only
geometrically, and a periodic chain defeats it: the damped retry cannot
reach STEADY_TOL within MAX_POWER_ITERS at this DAMPING.
"""

import numpy as np

from r3dla.fetchq import ModelError, RESIDUAL_TOL, convolve

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
