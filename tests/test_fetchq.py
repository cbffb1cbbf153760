"""Fetch-buffer queue model tests: convolution, transition matrix, steady
state, expected bubbles, Monte Carlo cross-check, and the model against the
power-iteration oracle in fetchq_oracle.py."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fetchq_oracle
from r3dla import fetchq
from r3dla.fetchq import Distribution, ModelError


def dist(m):
    return Distribution.from_map(m)


# -- Distribution -------------------------------------------------------------

def test_distribution_validation():
    with pytest.raises(ModelError):
        Distribution(0, (0.5, 0.4))         # does not sum to 1
    with pytest.raises(ModelError):
        Distribution(0, ())
    with pytest.raises(ModelError):
        Distribution.from_counts({})


def test_distribution_from_counts():
    d = Distribution.from_counts({0: 1, 2: 3})
    assert d.prob(0) == 0.25
    assert d.prob(1) == 0.0
    assert d.prob(2) == 0.75
    assert d.mean() == 1.5


# -- convolution ---------------------------------------------------------------

def test_convolve_deterministic_cancel():
    c = fetchq.convolve(dist({1: 1.0}), dist({1: 1.0}))
    assert c.to_map() == {0: 1.0}


def test_convolve_two_by_two():
    c = fetchq.convolve(dist({0: .5, 1: .5}), dist({0: .5, 1: .5}))
    m = c.to_map()
    assert m[-1] == pytest.approx(.25)
    assert m[0] == pytest.approx(.5)
    assert m[1] == pytest.approx(.25)


def _oracle_convolve(demand, supply):
    out = {}
    for j, dj in demand.to_map().items():
        for s, ps in supply.to_map().items():
            out[s - j] = out.get(s - j, 0.0) + ps * dj
    return out


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_convolve_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    d = {int(k): float(v) for k, v in
         enumerate(rng.dirichlet(np.ones(rng.integers(1, 6))))}
    s = {int(k): float(v) for k, v in
         enumerate(rng.dirichlet(np.ones(rng.integers(1, 6))), start=1)}
    c = fetchq.convolve(dist(d), dist(s)).to_map()
    want = _oracle_convolve(dist(d), dist(s))
    for k in set(c) | set(want):
        assert c.get(k, 0.0) == pytest.approx(want.get(k, 0.0), abs=1e-12)


# -- transition matrix ---------------------------------------------------------

def test_transition_direct_substitution():
    c = dist({-1: .5, 1: .5})
    p = fetchq.build_transition(c, 2)
    assert p[:, 0].tolist() == [.5, .5, 0]
    assert p[:, 1].tolist() == [.5, 0, .5]
    assert p[:, 2].tolist() == [0, .5, .5]


def test_transition_identity():
    p = fetchq.build_transition(dist({0: 1.0}), 4)
    assert np.array_equal(p, np.eye(5))


def test_transition_boundary_absorption():
    p = fetchq.build_transition(dist({-3: .5, 3: .5}), 2)
    # from any state both jumps land outside [0, 2]
    assert p[0, 1] == .5 and p[2, 1] == .5
    assert abs(p.sum(axis=0) - 1.0).max() < 1e-12


def test_transition_rejects_bad_capacity():
    with pytest.raises(ModelError):
        fetchq.build_transition(dist({0: 1.0}), 0)


# -- steady state ---------------------------------------------------------------

def test_steady_state_identity_is_uniform():
    q = fetchq.steady_state(np.eye(3))
    assert q == pytest.approx([1 / 3] * 3, abs=1e-9)


def test_steady_state_symmetric_walk():
    p = fetchq.build_transition(dist({-1: .5, 1: .5}), 2)
    q = fetchq.steady_state(p)
    assert np.abs(q - 1 / 3).max() < 1e-9


def test_steady_state_residual():
    m = fetchq.QueueModel.solve(dist({0: .3, 1: .7}), dist({1: .5, 2: .5}), 16)
    res = np.abs(m.transition @ m.q_ss - m.q_ss).sum()
    assert res < 1e-9


def test_steady_state_rejects_non_stochastic():
    with pytest.raises(ModelError):
        fetchq.steady_state(np.ones((3, 3)))


def test_steady_state_periodic_chain():
    # period 2: power iteration oscillates, and its damped retry cannot
    # reach its tolerance within its iteration cap
    p = np.array([[0, 1, 1], [.5, 0, 0], [.5, 0, 0]])
    t0 = time.perf_counter()
    q = fetchq.steady_state(p)
    assert time.perf_counter() - t0 < 1.0
    assert q == pytest.approx([.5, .25, .25], abs=1e-12)


@pytest.mark.parametrize("p, error", [
    # columns sum to 1 but an entry is negative: the fixed point is (-1, 2)
    ([[0, -.5], [1, 1.5]], "negative entry"),
    # singular, and no vector both sums to 1 and satisfies the balance rows
    ([[0, -1], [1, 2]], "residual"),
])
def test_steady_state_refuses_what_is_not_a_distribution(p, error):
    with pytest.raises(ModelError, match=error):
        fetchq.steady_state(np.array(p, dtype=float))


def _random_pair(rng):
    """(demand, supply) over small supports, as harvested from a core."""
    def draw(lo):
        probs = rng.dirichlet(np.ones(rng.integers(1, 6)))
        return dist({lo + i: float(v) for i, v in enumerate(probs)})
    return draw(int(rng.integers(0, 3))), draw(int(rng.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 64))
def test_model_matches_power_iteration_oracle(seed, capacity):
    demand, supply = _random_pair(np.random.default_rng(seed))
    change = fetchq.convolve(demand, supply)
    p = fetchq.build_transition(change, capacity)
    assert np.array_equal(p, fetchq_oracle.build_transition(change, capacity))
    q = fetchq.steady_state(p)
    assert np.abs(p @ q - q).sum() < 1e-12
    want = fetchq_oracle.steady_state(p)
    # the oracle stops once a step moves q by less than STEADY_TOL, which
    # leaves it about STEADY_TOL / (1 - lam) short of the fixed point, lam
    # the chain's second-largest eigenvalue modulus: up to 4.4e-9 on the
    # slowest-mixing chains drawn here (lam 0.99977, capacity 64)
    lam = np.sort(np.abs(np.linalg.eigvals(p)))[-2]
    slack = 2 * fetchq_oracle.STEADY_TOL / (1 - lam) if lam < 1 else 0.0
    assert np.abs(q - want).sum() < 1e-9 + slack
    assert fetchq.expected_bubbles(q, demand) == pytest.approx(
        fetchq_oracle.expected_bubbles(want, demand), abs=1e-9)


# ``fetchq harvest`` of perfbench's branchy baseline config (branchy,
# iters 2000, streams 2) at seeds 1 and 11
BRANCHY_PAIRS = {
    1: ({0: 82, 1: 4418, 2: 974, 3: 495, 4: 4038},
        {0: 44527, 1: 1999, 3: 2000, 4: 4001}),
    11: ({0: 78, 1: 4926, 2: 1, 3: 965, 4: 4037},
         {0: 42364, 1: 1999, 3: 2032, 4: 3969}),
}


@pytest.mark.parametrize("seed", sorted(BRANCHY_PAIRS))
def test_capacity_sweep_matches_oracle_on_branchy(seed):
    """The rows ``fetchq analyze --sweep 4:64`` writes, to 6 decimals."""
    demand, supply = (Distribution.from_counts(h) for h in BRANCHY_PAIRS[seed])
    got = fetchq.capacity_sweep(demand, supply, range(4, 65))
    want = fetchq_oracle.capacity_sweep(demand, supply, range(4, 65))
    assert [(n, round(b, 6)) for n, b, _ in got] == \
        [(n, round(b, 6)) for n, b, _ in want]
    for (_, _, q), (_, _, wq) in zip(got, want):
        assert np.abs(q - wq).sum() < 1e-9


# -- expected bubbles -------------------------------------------------------------

def test_bubbles_empty_queue_full_demand():
    q = np.array([1.0, 0, 0, 0, 0])
    assert fetchq.expected_bubbles(q, dist({4: 1.0})) == pytest.approx(4.0)


def test_bubbles_zero_when_queue_covers_demand():
    q = np.zeros(9)
    q[8] = 1.0
    assert fetchq.expected_bubbles(q, dist({0: .5, 4: .5})) == 0.0


def test_bubbles_partial_shortfall():
    # occupancy 1, demand always 3 -> shortfall 2
    q = np.array([0, 1.0, 0, 0])
    assert fetchq.expected_bubbles(q, dist({3: 1.0})) == pytest.approx(2.0)


def test_capacity_sweep_monotone():
    d = dist({0: .2, 2: .4, 4: .4})
    s = dist({1: .3, 3: .3, 4: .4})
    rows = fetchq.capacity_sweep(d, s, range(4, 65))
    bubbles = [b for _, b, _ in rows]
    for a, b in zip(bubbles, bubbles[1:]):
        assert b <= a + 1e-12


# -- Monte Carlo ---------------------------------------------------------------

def test_monte_carlo_static_change():
    occ, bubbles = fetchq.monte_carlo(dist({1: 1.0}), dist({1: 1.0}),
                                      capacity=8, steps=1000, q0=5)
    assert occ.prob(5) == pytest.approx(1.0)
    assert bubbles == 0.0


def test_monte_carlo_internal_consistency():
    d = dist({0: .3, 2: .3, 4: .4})
    s = dist({1: .5, 4: .5})
    occ, emp_bubbles = fetchq.monte_carlo(d, s, capacity=16, steps=10 ** 6,
                                          seed=1)
    model_bubbles = fetchq.expected_bubbles(np.asarray(occ.probs), d)
    assert emp_bubbles == pytest.approx(model_bubbles, rel=0.05)


def test_monte_carlo_rejects_bad_steps():
    with pytest.raises(ModelError):
        fetchq.monte_carlo(dist({1: 1.0}), dist({1: 1.0}), 4, 0)


@pytest.mark.parametrize("q0", [-1, 5])
def test_monte_carlo_rejects_q0_outside_the_queue(q0):
    # q0=-1 counted the first step at occupancy 4 through occ[-1], and
    # q0=5 raised IndexError
    with pytest.raises(ModelError, match="^q0 must be in 0..4, got "):
        fetchq.monte_carlo(dist({1: 1.0}), dist({1: 1.0}), capacity=4,
                           steps=5, q0=q0)


# -- plumbing ---------------------------------------------------------------

def test_l1_distance_pads():
    a = Distribution(0, (1.0,))
    b = Distribution(0, (0.5, 0.5))
    assert fetchq.l1_distance(a, b) == pytest.approx(1.0)


def test_harvest_distributions():
    report = {"demand_hist": {"0": 3, "4": 1}, "supply_hist": {"1": 1, "4": 1}}
    d, s = fetchq.harvest_distributions(report)
    assert d.prob(0) == 0.75
    assert s.prob(4) == 0.5
    with pytest.raises(ModelError, match="demand_hist"):
        fetchq.harvest_distributions({"supply_hist": {"1": 1}})
