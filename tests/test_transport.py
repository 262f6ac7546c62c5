"""Tests for couplings, transport values, and exact potentials."""

import math

import numpy as np
import pytest

import oracles
from otrisk.errors import InvalidParams, WrongMode
from otrisk.measures import INF, DiscreteMeasure, from_samples, point_mass, uniform_on
from otrisk.riskmeasures import KusuokaMixture, cvar, cvar_target_set, evaluate_risk
from otrisk.transport import (
    Coupling,
    GeneratorSet,
    HullMode,
    comonotone_coupling,
    exact_potentials,
    feasibility_violation,
    finite_set_value,
    lipschitz_constant,
    transport_value,
)


def two_point_target(beta: float) -> DiscreteMeasure:
    """beta*d_0 + (1-beta)*d_{1/(1-beta)}: the tail-expectation target."""
    if beta == 0.0:
        return point_mass(1.0)
    return DiscreteMeasure([0.0, 1.0 / (1.0 - beta)], [beta, 1.0 - beta])


def random_instance(rng, n_max=6, k_max=6):
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    m = from_samples(rng.normal(size=n) * 4, rng.uniform(0.05, 1.0, size=n))
    y = np.sort(rng.uniform(0.0, 3.0, size=k))
    w = rng.uniform(0.05, 1.0, size=k)
    w = w / w.sum()
    mean = float(w @ y)
    if mean < 1e-6:
        y = y + 1.0
        mean = float(w @ y)
    r = DiscreteMeasure(y / mean, w)  # rescale support to unit mean
    return m, r


# ----------------------------------------------------------------------
# comonotone coupling


def test_comonotone_worked_example_two_by_two():
    pi = comonotone_coupling(uniform_on([1, 3]), two_point_target(0.5))
    assert pi.atoms() == [(1.0, 0.0, 0.5), (3.0, 2.0, 0.5)]


def test_comonotone_point_mass_gives_product():
    r = from_samples([0.5, 1.0, 2.0], [1, 2, 1])
    pi = comonotone_coupling(point_mass(7.0), r)
    assert pi.n_atoms == r.n_atoms
    assert np.all(pi.xs == 7.0)
    assert np.array_equal(pi.ys, r.positions)
    np.testing.assert_allclose(pi.masses, r.weights, atol=1e-15)


def test_comonotone_worked_example_four_atoms():
    pi = comonotone_coupling(uniform_on([1, 2, 3, 4]), two_point_target(0.5))
    assert pi.atoms() == [
        (1.0, 0.0, 0.25),
        (2.0, 0.0, 0.25),
        (3.0, 2.0, 0.25),
        (4.0, 2.0, 0.25),
    ]


def test_comonotone_atom_budget_and_monotone_support():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m, r = random_instance(rng)
        pi = comonotone_coupling(m, r)
        assert pi.n_atoms <= m.n_atoms + r.n_atoms - 1
        assert np.all(np.diff(pi.xs) >= 0)  # staircase sorted in x...
        assert np.all(np.diff(pi.ys) >= 0)  # ...with nondecreasing y


def test_comonotone_marginals_atom_for_atom():
    rng = np.random.default_rng(6)
    for _ in range(100):
        m, r = random_instance(rng)
        pi = comonotone_coupling(m, r)
        assert np.array_equal(pi.first_marginal.positions, m.positions)
        assert np.array_equal(pi.second_marginal.positions, r.positions)
        np.testing.assert_allclose(pi.first_marginal.weights, m.weights, atol=1e-12)
        np.testing.assert_allclose(pi.second_marginal.weights, r.weights, atol=1e-12)


def test_coupling_validation():
    with pytest.raises(InvalidParams):
        Coupling([1, 2], [0, 1], [0.5, 0.6])  # masses exceed 1
    with pytest.raises(InvalidParams):
        Coupling([1, 2], [0, 1], [1.1, -0.1])


# ----------------------------------------------------------------------
# transport values


def test_transport_value_worked_examples():
    assert transport_value(uniform_on([1, 3]), two_point_target(0.5)) == 3.0
    assert transport_value(uniform_on([1, 2, 3, 4]), two_point_target(0.5)) == 3.5
    # point mass factorizes: value = a * E[r] = a
    r = from_samples([0.5, 1.5], [1, 1])
    assert transport_value(point_mass(-2.5), r) == pytest.approx(-2.5, abs=1e-12)


def test_transport_value_equals_coupling_objective():
    # two routes to one number: the integrated-quantile pairing and the
    # merged sweep's plan, so they agree to round-off rather than bit for bit
    rng = np.random.default_rng(7)
    for _ in range(50):
        m, r = random_instance(rng)
        value = transport_value(m, r)
        assert abs(value - comonotone_coupling(m, r).objective()) <= 1e-13 * (1.0 + abs(value))


def test_comonotone_is_the_polytope_maximum():
    # exhaustive vertex enumeration of the coupling polytope as oracle
    rng = np.random.default_rng(8)
    for _ in range(60):
        m, r = random_instance(rng, n_max=6, k_max=3)
        want = oracles.max_bilinear(m.positions, r.positions, m.weights, r.weights)
        assert transport_value(m, r) == pytest.approx(want, abs=1e-9)


def test_transport_value_against_scipy_linprog():
    from scipy.optimize import linprog

    rng = np.random.default_rng(9)
    for _ in range(10):
        m, r = random_instance(rng, n_max=5, k_max=4)
        n, k = m.n_atoms, r.n_atoms
        cost = np.outer(m.positions, r.positions).ravel()
        A_eq = np.zeros((n + k, n * k))
        for i in range(n):
            A_eq[i, i * k : (i + 1) * k] = 1.0
        for j in range(k):
            A_eq[n + j, j::k] = 1.0
        b_eq = np.concatenate([m.weights, r.weights])
        res = linprog(-cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert res.success
        assert transport_value(m, r) == pytest.approx(-res.fun, abs=1e-9)


# ----------------------------------------------------------------------
# generator sets


def test_generator_set_validation():
    with pytest.raises(InvalidParams):
        GeneratorSet([-0.5, 2.0], [[0.5, 0.5]])  # negative support
    with pytest.raises(InvalidParams):
        GeneratorSet([0.0, 2.0], [[0.7, 0.3]])  # mean 0.6, not 1
    with pytest.raises(InvalidParams):
        GeneratorSet([0.0, 2.0], [[0.6, 0.6]])  # not a probability vector
    with pytest.raises(InvalidParams):
        GeneratorSet([1.0, 1.0], [[0.5, 0.5]])  # duplicate support points
    R = GeneratorSet([2.0, 0.0], [[0.5, 0.5]])  # unsorted input is sorted
    assert R.support.tolist() == [0.0, 2.0]
    assert R.vertices[0].tolist() == [0.5, 0.5]


def test_finite_set_value_worked_examples():
    m = uniform_on([1, 2, 3, 4])
    R1 = GeneratorSet.singleton(point_mass(1.0))
    val, idx = finite_set_value(m, R1)
    assert (val, idx) == (2.5, 0)

    R2 = GeneratorSet([0.0, 1.0, 2.0], [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    val, idx = finite_set_value(m, R2)
    assert val == 3.5 and idx == 1

    r = two_point_target(0.25)
    val, idx = finite_set_value(m, GeneratorSet.singleton(r))
    assert val == transport_value(m, r) and idx == 0


def test_finite_set_value_lowest_index_wins_ties():
    m = uniform_on([1, 2])
    R = GeneratorSet([0.0, 1.0, 2.0], [[0.5, 0.0, 0.5], [0.5, 0.0, 0.5]])
    _, idx = finite_set_value(m, R)
    assert idx == 0


def test_finite_set_value_hull_mode_guard():
    m = uniform_on([1, 2])
    R = GeneratorSet([0.0, 2.0], [[0.5, 0.5]], HullMode.CONVEX_HULL)
    with pytest.raises(WrongMode):
        finite_set_value(m, R)
    val, _ = finite_set_value(m, R, allow_lower_bound=True)
    assert val == transport_value(m, two_point_target(0.5))


def test_mixture_measure_and_vertex_measure():
    R = GeneratorSet([0.0, 1.0, 2.0], [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]], HullMode.CONVEX_HULL)
    r = R.mixture_measure([0.5, 0.5])
    assert r.positions.tolist() == [0.0, 1.0, 2.0]
    np.testing.assert_allclose(r.weights, [0.25, 0.5, 0.25], atol=1e-15)
    assert R.vertex_measure(1).positions.tolist() == [0.0, 2.0]


def _million_atom_sample(kind):
    rng = np.random.default_rng(2026)
    n = 1_000_000
    if kind == "t4":
        return from_samples(rng.standard_t(4.0, size=n))
    if kind == "weighted_grid":
        grid = rng.integers(-500_000, 500_000, size=n) / 1000.0
        return from_samples(grid, rng.uniform(0.0, 1.0, size=n))
    # span far below the magnitude: rounding must scale with the span
    return from_samples(1e6 + rng.normal(size=n))


@pytest.mark.parametrize("kind", ["t4", "weighted_grid", "offset"])
def test_million_atom_values_match_the_coupling(kind):
    m = _million_atom_sample(kind)
    eps = np.finfo(float).eps
    span = float(m.positions[-1] - m.positions[0])
    scale = float(np.abs(m.positions[[0, -1]]).max())

    def agrees(value, r):
        # the coupling's cells come from the same cumulative grid; a running
        # sum of n terms drifts by n*eps per cell edge, worth span*y_max each
        budget = 2 * (m.n_atoms + r.n_atoms) * eps * span * r.positions[-1] + 16 * eps * (
            1.0 + scale * r.positions[-1]
        )
        want = comonotone_coupling(m, r).objective()
        assert abs(value - want) <= budget, (value, want, budget)

    for beta in (0.5, 0.95, 0.99):
        r = cvar_target_set(beta).vertex_measure(0)
        agrees(cvar(m, beta), r)
        agrees(transport_value(m, r), r)

    R = GeneratorSet([0.0, 0.5, 1.5, 4.0], [[1 / 3, 0, 2 / 3, 0], [0, 6 / 7, 0, 1 / 7]])
    value, idx = finite_set_value(m, R)
    agrees(value, R.vertex_measure(idx))
    other = R.vertex_measure(1 - idx)
    assert transport_value(m, other) <= value

    spec = KusuokaMixture(((0.0, 0.3), (0.5, 0.4), (0.9, 0.3)))
    agrees(evaluate_risk(spec, m), spec.image().image_measure)


# ----------------------------------------------------------------------
# exact potentials


def test_exact_potentials_worked_example():
    m = uniform_on([1, 3])
    r = two_point_target(0.5)
    pair = exact_potentials(m, r)
    assert pair.f_values.tolist() == [0.0, 4.0]
    assert pair.g_values.tolist() == [0.0, 2.0]
    assert pair.pairing(m, r) == 3.0
    # the disconnected-block closure makes f(1) + g(2) = 2 >= 1*2 binding
    assert pair.f_values[0] + pair.g_values[1] == 2.0
    assert feasibility_violation(pair) <= 0.0


def test_exact_potentials_point_masses():
    pair = exact_potentials(point_mass(3.0), point_mass(1.0))
    assert pair.f_values.tolist() == [3.0]
    assert pair.g_values.tolist() == [0.0]


def test_exact_potentials_zero_gap_and_feasible():
    rng = np.random.default_rng(10)
    for _ in range(200):
        m, r = random_instance(rng)
        pair = exact_potentials(m, r)
        value = transport_value(m, r)
        assert pair.g_values[0] == 0.0 or r.n_atoms == 1
        assert feasibility_violation(pair) <= 1e-12
        assert pair.pairing(m, r) == pytest.approx(value, rel=1e-10, abs=1e-10)


def test_exact_potentials_weak_duality_with_slack():
    # any feasible pair upper-bounds the transport value; add slack and check
    rng = np.random.default_rng(11)
    for _ in range(50):
        m, r = random_instance(rng)
        pair = exact_potentials(m, r)
        slack = rng.uniform(0.0, 1.0, size=pair.f_values.size)
        loose = type(pair)(pair.x_support, pair.f_values + slack, pair.y_support, pair.g_values)
        assert feasibility_violation(loose) <= 1e-12
        assert loose.pairing(m, r) >= transport_value(m, r) - 1e-10


def test_exact_potentials_extended_grid():
    m = uniform_on([1, 2, 3, 4])
    r = two_point_target(0.5)
    grid = np.array([0.0, 1.0, 2.0, 5.0])
    pair = exact_potentials(m, r, y_support=grid)
    assert pair.y_support.tolist() == grid.tolist()
    assert feasibility_violation(pair) <= 1e-12
    # the extension is tight: each added g value binds for some x
    prod = np.outer(pair.x_support, grid) - pair.f_values[:, None] - pair.g_values[None, :]
    assert prod.max(axis=0)[3] == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------------
# lipschitz constants and elementary bounds


def test_lipschitz_worked_examples():
    R_half = GeneratorSet.singleton(two_point_target(0.5))
    assert lipschitz_constant(R_half, INF) == 2.0
    assert lipschitz_constant(R_half, 2) == pytest.approx(math.sqrt(2), abs=1e-12)
    R_one = GeneratorSet.singleton(point_mass(1.0))
    for q in (1, 2, 7.5, INF):
        assert lipschitz_constant(R_one, q) == 1.0


def test_elementary_bound():
    rng = np.random.default_rng(12)
    R = GeneratorSet(
        [0.0, 0.5, 2.0, 3.0],
        [[0.5, 0.0, 0.5, 0.0], [0.0, 2.0 / 3.0, 1.0 / 3.0, 0.0], [0.0, 0.8, 0.0, 0.2]],
    )
    for _ in range(50):
        n = int(rng.integers(1, 8))
        m = from_samples(rng.normal(size=n) * 10)
        val, _ = finite_set_value(m, R)
        for p, q in ((1.0, INF), (2.0, 2.0), (INF, 1.0)):
            assert abs(val) <= m.moment(p) * lipschitz_constant(R, q) + 1e-9
