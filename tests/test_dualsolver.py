"""Hull solver tests: frozen worked examples plus convexity,
weak-duality, refinement and coercivity properties on random instances.

The ``test_frank_wolfe_*`` and ``test_subgradient_*`` tests keep the names
they had when a Frank-Wolfe ascent and a subgradient descent served hull
families; they now hold the cutting-plane solver behind
``duality_gap_report`` to the same oracles, at round-off tolerances.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from otrisk import (
    BadOptions,
    DualPotential,
    GeneratorSet,
    HullMode,
    NonFiniteValue,
    SolverOptions,
    SolveStatus,
    cvar_target_set,
    double_conjugate_refine,
    dual_objective,
    duality_gap_report,
    eval_conjugate,
    from_samples,
    point_mass,
    support_function,
    transport_value,
    uniform_on,
)

# Two unit-mean generators on {0, 0.5, 1.5, 4} whose best mixture strictly
# beats both endpoints.  Exact rational arithmetic on the comonotone
# integral gives value 193/88 at lambda = 7/22, against 15/8 at either
# vertex (the two one-dimensional pieces of the value cross there).
MIX_SUPPORT = [0.0, 0.5, 1.5, 4.0]
MIX_ROWS = [[1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0], [0.0, 6.0 / 7.0, 0.0, 1.0 / 7.0]]
MIX_MEASURE_ATOMS = [-2.0, 0.0, 2.0, 3.0]
MIX_HULL_VALUE = 193.0 / 88.0
MIX_LAMBDA_STAR = 7.0 / 22.0
MIX_VERTEX_VALUE = 15.0 / 8.0
# the README's family on these normal samples ended iter_limit under the
# former Frank-Wolfe + subgradient solver
FORMER_ITER_LIMIT_SAMPLES = ((3, 200), (5, 100))


def round_off_gap(rep):
    return 1e-9 * (1.0 + abs(rep.primal_lower))


def two_point_set(hull_mode=HullMode.FINITE_SET):
    # the beta=0.5 tail generator: mass 1/2 at 0 and 1/2 at 2
    return GeneratorSet([0.0, 2.0], [[0.5, 0.5]], hull_mode=hull_mode)


def delta_one_and_tail_hull():
    return GeneratorSet(
        [0.0, 1.0, 2.0],
        [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
        hull_mode=HullMode.CONVEX_HULL,
    )


def mixing_set(hull_mode):
    return GeneratorSet(MIX_SUPPORT, MIX_ROWS, hull_mode=hull_mode)


def random_measure(rng, n_max=40):
    n = int(rng.integers(1, n_max + 1))
    xs = rng.uniform(-3.0, 5.0, size=n)
    return from_samples(xs, rng.uniform(0.1, 1.0, size=n))


def unit_mean_rows(rng, support, n_rows):
    """Random generator rows: positive mixtures of two-point unit-mean bricks.

    Every grid point is charged by every row, which the coercivity test
    relies on (the averaged generator must put mass on each point).
    """
    support = np.asarray(support, dtype=float)
    below = np.flatnonzero(support < 1.0)
    above = np.flatnonzero(support > 1.0)
    exact = np.flatnonzero(support == 1.0)
    bricks = []
    for i in below:
        for j in above:
            row = np.zeros(support.size)
            ya, yb = support[i], support[j]
            row[i] = (yb - 1.0) / (yb - ya)
            row[j] = (1.0 - ya) / (yb - ya)
            bricks.append(row)
    for i in exact:
        row = np.zeros(support.size)
        row[i] = 1.0
        bricks.append(row)
    mix = rng.uniform(0.05, 1.0, size=(n_rows, len(bricks)))
    mix /= mix.sum(axis=1, keepdims=True)
    return mix @ np.array(bricks)


def random_generator_set(rng, k_max=6, v_max=4, hull_mode=HullMode.CONVEX_HULL):
    n_lo = int(rng.integers(1, k_max // 2 + 1))
    n_hi = int(rng.integers(1, k_max // 2 + 1))
    lo = np.sort(rng.uniform(0.0, 0.9, size=n_lo))
    hi = np.sort(rng.uniform(1.1, 4.0, size=n_hi))
    support = np.concatenate([lo, hi])
    rows = unit_mean_rows(rng, support, int(rng.integers(1, v_max + 1)))
    return GeneratorSet(support, rows, hull_mode=hull_mode)


def pinned(rng, size, scale=10.0):
    g = rng.uniform(-scale, scale, size=size)
    g[0] = 0.0
    return g


# ---------------------------------------------------------------- conjugates


def test_eval_conjugate_examples():
    R = two_point_set()
    assert eval_conjugate(DualPotential([0.0, 4.0]), R, 3.0) == (2.0, 1)
    assert eval_conjugate(DualPotential([0.0, 4.0]), R, 1.0) == (0.0, 0)
    assert eval_conjugate(DualPotential([0.0, 0.0]), R, 5.0) == (10.0, 1)


def test_support_function_examples():
    value, idx = support_function(two_point_set(), DualPotential([0.0, 4.0]))
    assert (value, idx) == (2.0, 0)
    # a point mass at 1 is insensitive to the pinned slot only
    R1 = GeneratorSet([1.0, 3.0], [[1.0, 0.0]])
    assert support_function(R1, DualPotential([0.0, 17.0])) == (0.0, 0)
    # componentwise inner products, and lowest index on exact ties
    R2 = GeneratorSet([0.0, 1.0, 2.0], [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    assert support_function(R2, DualPotential([0.0, 4.0, 2.0])) == (4.0, 1)
    assert support_function(R2, DualPotential([0.0, 2.0, 4.0])) == (2.0, 0)


def test_dual_objective_worked_example():
    m = uniform_on([1.0, 2.0, 3.0, 4.0])
    R = cvar_target_set(0.5)
    # g1 anywhere in [4, 6] is optimal; both ends evaluate to 3.5
    assert dual_objective(m, R, DualPotential([0.0, 4.0])) == pytest.approx(3.5, abs=1e-12)
    assert dual_objective(m, R, DualPotential([0.0, 6.0])) == pytest.approx(3.5, abs=1e-12)


def test_dual_objective_point_mass_singleton():
    R = cvar_target_set(0.0)
    assert dual_objective(point_mass(2.5), R, DualPotential([0.0])) == pytest.approx(2.5)


def test_dual_potential_pins_first_entry():
    g = DualPotential([1.0, 5.0, 2.0])
    assert g.values[0] == 0.0
    np.testing.assert_allclose(g.values, [0.0, 4.0, 1.0])
    with pytest.raises(NonFiniteValue):
        DualPotential([0.0, math.inf])
    with pytest.raises(ValueError):
        g.values[1] = 9.0


@settings(max_examples=60, deadline=None)
@given(
    g1=st.floats(-50.0, 50.0),
    g2=st.floats(-50.0, 50.0),
    shift=st.floats(-100.0, 100.0),
)
def test_dual_objective_shift_invariant(g1, g2, shift):
    # adding a constant to every slot moves the conjugate term down and
    # the support term up by the same amount
    m = uniform_on([-1.0, 0.5, 2.0, 4.0])
    R = GeneratorSet([0.0, 1.0, 2.0], [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    base = dual_objective(m, R, np.array([0.0, g1, g2]))
    moved = dual_objective(m, R, np.array([shift, g1 + shift, g2 + shift]))
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_weak_duality_random(rng=None):
    rng = np.random.default_rng(1123)
    for _ in range(60):
        R = random_generator_set(rng)
        m = random_measure(rng)
        g = pinned(rng, R.n_points)
        ub = dual_objective(m, R, g)
        for v in range(R.n_vertices):
            lb = transport_value(m, R.vertex_measure(v))
            assert ub >= lb - 1e-9 * (1.0 + abs(lb))


# ------------------------------------------------------------- dual witness


def test_subgradient_solver_cvar_example():
    m = uniform_on([1.0, 2.0, 3.0, 4.0])
    rep = duality_gap_report(m, cvar_target_set(0.5))
    assert rep.dual_upper == pytest.approx(3.5, abs=1e-12)
    assert 4.0 <= rep.dual_witness.values[1] <= 6.0
    assert rep.iterations["cutting_plane"] >= 1


def test_subgradient_solver_cold_start_without_bound():
    # the dual witness comes from the hull master alone: the same potential
    # serves a singleton family in both modes, whatever the primal side is
    m = uniform_on([1.0, 2.0, 3.0, 4.0])
    beta = cvar_target_set(0.5)
    hull = GeneratorSet(beta.support, beta.vertices, hull_mode=HullMode.CONVEX_HULL)
    a, b = duality_gap_report(m, beta), duality_gap_report(m, hull)
    np.testing.assert_array_equal(a.dual_witness.values, b.dual_witness.values)
    assert dual_objective(m, beta, a.dual_witness) == pytest.approx(3.5, abs=1e-12)
    assert 4.0 <= a.dual_witness.values[1] <= 6.0


def test_subgradient_solver_point_masses():
    for a in (-1.5, 0.0, 2.25):
        for R in (cvar_target_set(0.3), cvar_target_set(0.0)):
            rep = duality_gap_report(point_mass(a), R)
            assert rep.dual_upper == pytest.approx(a, abs=1e-12)


def test_subgradient_solver_two_atoms():
    rep = duality_gap_report(uniform_on([1.0, 3.0]), cvar_target_set(0.5))
    assert rep.dual_upper == pytest.approx(3.0, abs=1e-12)


def test_subgradient_convexity_inequality():
    # dual_objective against an independent subgradient oracle
    rng = np.random.default_rng(80)
    for _ in range(8):
        R = random_generator_set(rng)
        m = random_measure(rng)
        g = pinned(rng, R.n_points)
        J, s = oracles.dual_value_and_subgradient(
            m.positions, m.weights, R.support, R.vertices, g
        )
        assert J == pytest.approx(dual_objective(m, R, g), rel=1e-12, abs=1e-12)
        for _ in range(100):
            g2 = pinned(rng, R.n_points, scale=20.0)
            J2 = dual_objective(m, R, g2)
            assert J2 >= J + float(s @ (g2 - g)) - 1e-9 * (1.0 + abs(J))


def test_subgradient_respects_iteration_budget():
    m = uniform_on(np.linspace(-2.0, 6.0, 37))
    R = mixing_set(HullMode.CONVEX_HULL)
    rep = duality_gap_report(m, R, SolverOptions(max_iters=1))
    assert rep.iterations == {"cutting_plane": 1}
    # a capped run still reports a valid bound from its own potential
    assert rep.dual_upper == dual_objective(m, R, rep.dual_witness)
    assert rep.dual_upper >= duality_gap_report(m, R).primal_lower - 1e-12


def test_coercivity_along_rays():
    # far from the origin the objective grows at least linearly, with
    # slope coefficients min(mean generator mass, mass_0 / K) per slot
    rng = np.random.default_rng(4242)
    for _ in range(12):
        R = random_generator_set(rng)
        m = random_measure(rng)
        r_bar = R.vertices.mean(axis=0)
        assert np.all(r_bar > 0.0)
        K = R.n_points - 1
        eps = r_bar[0] / K
        big_c = float(np.abs(R.support).max()) * abs(m.expectation())
        coeffs = np.minimum(r_bar[1:], eps)
        at_zero = dual_objective(m, R, np.zeros(R.n_points))
        for _ in range(6):
            d = pinned(rng, R.n_points, scale=1.0)
            if not np.any(d):
                continue
            d /= np.linalg.norm(d)
            g = 1e6 * d
            val = dual_objective(m, R, g)
            floor = -big_c + float(coeffs @ np.abs(g[1:]))
            assert val >= floor - 1e-3
            assert val >= at_zero


def test_solver_options_validation():
    with pytest.raises(BadOptions):
        SolverOptions(max_iters=0)
    with pytest.raises(BadOptions):
        SolverOptions(max_iters=2.5)
    with pytest.raises(BadOptions):
        SolverOptions(target_gap=0.0)
    with pytest.raises(BadOptions):
        SolverOptions(target_gap=math.nan)
    with pytest.raises(BadOptions):
        SolverOptions(seed="7")
    # no cap by default: the rounds run until the master is exact
    assert SolverOptions().max_iters is None
    m = uniform_on(np.linspace(-2.0, 6.0, 37))
    R = mixing_set(HullMode.CONVEX_HULL)
    rounds = duality_gap_report(m, R).iterations["cutting_plane"]
    assert 2 <= rounds <= (R.n_points - 1) * m.n_atoms
    capped = duality_gap_report(m, R, SolverOptions(max_iters=rounds - 1))
    assert capped.iterations["cutting_plane"] == rounds - 1


# ------------------------------------------------------------ primal witness


def test_frank_wolfe_prefers_the_better_vertex():
    m = uniform_on([1.0, 2.0, 3.0, 4.0])
    R = delta_one_and_tail_hull()
    rep = duality_gap_report(m, R)
    assert rep.primal_lower == pytest.approx(3.5, abs=1e-12)
    np.testing.assert_allclose(rep.primal_weights, [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(R.mixture_measure(rep.primal_weights).positions, [0.0, 2.0])


def test_frank_wolfe_single_vertex_hull():
    m = uniform_on([-1.0, 2.0, 7.0])
    R = two_point_set(HullMode.CONVEX_HULL)
    rep = duality_gap_report(m, R)
    assert rep.primal_weights == pytest.approx([1.0])
    assert rep.primal_lower == transport_value(m, R.vertex_measure(0))


def test_frank_wolfe_point_mass_is_flat():
    rep = duality_gap_report(point_mass(-0.75), delta_one_and_tail_hull())
    assert rep.primal_lower == pytest.approx(-0.75, abs=1e-12)
    assert rep.gap <= 1e-12


def test_frank_wolfe_rejects_finite_set_mode():
    # a finite set never mixes its vertices, though its dual certifies the hull
    m = uniform_on(MIX_MEASURE_ATOMS)
    rep = duality_gap_report(m, mixing_set(HullMode.FINITE_SET))
    assert sorted(rep.primal_weights.tolist()) == [0.0, 1.0]
    assert rep.primal_lower == pytest.approx(MIX_VERTEX_VALUE, abs=1e-12)
    assert rep.dual_upper == pytest.approx(MIX_HULL_VALUE, abs=1e-12)


def test_frank_wolfe_finds_the_interior_mix():
    m = uniform_on(MIX_MEASURE_ATOMS)
    R = mixing_set(HullMode.CONVEX_HULL)
    both = [transport_value(m, R.vertex_measure(v)) for v in range(2)]
    assert both == pytest.approx([MIX_VERTEX_VALUE, MIX_VERTEX_VALUE], abs=1e-12)
    rep = duality_gap_report(m, R)
    assert rep.primal_lower == pytest.approx(MIX_HULL_VALUE, abs=1e-12)
    assert rep.dual_upper == pytest.approx(MIX_HULL_VALUE, abs=1e-12)
    assert rep.primal_weights[1] == pytest.approx(MIX_LAMBDA_STAR, abs=1e-12)


def test_frank_wolfe_matches_grid_scan():
    rng = np.random.default_rng(9)
    grid = np.linspace(0.0, 1.0, 2001)
    for _ in range(6):
        R = random_generator_set(rng, v_max=2)
        if R.n_vertices != 2:
            continue
        m = random_measure(rng, n_max=15)
        rep = duality_gap_report(m, R)
        scan = max(
            transport_value(m, R.mixture_measure(np.array([1.0 - t, t]))) for t in grid
        )
        # the scan is itself a lower bound, so the solver must not sit below it
        assert rep.primal_lower >= scan - 1e-12 * (1.0 + abs(scan))
        assert rep.gap <= round_off_gap(rep)


def test_frank_wolfe_respects_iteration_budget():
    m = uniform_on(MIX_MEASURE_ATOMS)
    rep = duality_gap_report(m, mixing_set(HullMode.CONVEX_HULL), SolverOptions(max_iters=1))
    assert rep.iterations == {"cutting_plane": 1}
    assert rep.primal_weights.sum() == pytest.approx(1.0)
    assert rep.primal_lower <= MIX_HULL_VALUE + 1e-12


@pytest.mark.parametrize("seed, n", FORMER_ITER_LIMIT_SAMPLES)
def test_readme_family_former_iter_limit_inputs(seed, n):
    values = np.random.default_rng(seed).normal(0.0, 3.0, n)
    rep = duality_gap_report(from_samples(values), mixing_set(HullMode.CONVEX_HULL))
    assert rep.status is SolveStatus.CONVERGED
    assert abs(rep.gap) <= round_off_gap(rep)
    scan, t = oracles.two_vertex_hull_scan(values, MIX_SUPPORT, MIX_ROWS)
    assert rep.primal_lower == pytest.approx(scan, rel=1e-12, abs=1e-12)
    assert rep.primal_weights[1] == pytest.approx(t, abs=1e-9)


def test_readme_family_certificate_at_n_1e5():
    m = from_samples(np.random.default_rng(11).normal(0.0, 3.0, 100_000))
    R = mixing_set(HullMode.CONVEX_HULL)
    rep = duality_gap_report(m, R)
    assert rep.status is SolveStatus.CONVERGED
    assert abs(rep.gap) <= round_off_gap(rep)
    assert rep.dual_upper == dual_objective(m, R, rep.dual_witness)


def test_random_hulls_match_the_transport_lp():
    rng = np.random.default_rng(77)
    for _ in range(10):
        R = random_generator_set(rng, k_max=6, v_max=4)
        m = random_measure(rng, n_max=30)
        rep = duality_gap_report(m, R)
        assert abs(rep.gap) <= round_off_gap(rep)
        lp = oracles.hull_value_lp(m.positions, m.weights, R.support, R.vertices)
        # HiGHS solves to its own 1e-7 tolerances
        assert rep.primal_lower == pytest.approx(lp, rel=1e-7, abs=1e-7)


# --------------------------------------------------------------- refinement


def test_refine_worked_examples():
    m = uniform_on([1.0, 2.0, 3.0, 4.0])
    R = cvar_target_set(0.5)
    fixed = double_conjugate_refine(m, R, DualPotential([0.0, 4.0]))
    np.testing.assert_allclose(fixed.values, [0.0, 4.0], atol=1e-14)
    far = DualPotential([0.0, 100.0])
    refined = double_conjugate_refine(m, R, far)
    assert dual_objective(m, R, refined) < dual_objective(m, R, far) - 1.0


def test_refine_monotone_and_idempotent():
    rng = np.random.default_rng(314)
    for _ in range(40):
        R = random_generator_set(rng)
        m = random_measure(rng)
        g = DualPotential(pinned(rng, R.n_points, scale=30.0))
        once = double_conjugate_refine(m, R, g)
        assert dual_objective(m, R, once) <= dual_objective(m, R, g) + 1e-12
        twice = double_conjugate_refine(m, R, once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)


# ------------------------------------------------------------- gap reports


def test_gap_report_cvar():
    rep = duality_gap_report(uniform_on([1.0, 2.0, 3.0, 4.0]), cvar_target_set(0.5))
    assert rep.gap <= 1e-4
    assert rep.primal_lower == pytest.approx(3.5, abs=1e-6)
    assert rep.dual_upper == pytest.approx(3.5, abs=1e-4)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.gap == rep.dual_upper - rep.primal_lower


def test_gap_report_point_mass():
    rep = duality_gap_report(point_mass(1.75), cvar_target_set(0.25))
    assert rep.gap <= 1e-8
    assert rep.primal_lower == pytest.approx(1.75, abs=1e-9)


def test_gap_report_witnesses_are_consistent():
    m = uniform_on(MIX_MEASURE_ATOMS)
    rep = duality_gap_report(m, mixing_set(HullMode.CONVEX_HULL))
    assert rep.gap <= 1e-3 * (1.0 + abs(rep.primal_lower))
    # primal witness really achieves the reported lower bound
    assert rep.primal_coupling.objective() == pytest.approx(rep.primal_lower, abs=1e-9)
    assert rep.primal_weights.shape == (2,)
    assert rep.primal_weights.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(rep.primal_coupling.first_marginal.positions, m.positions)
    # dual witness reproduces the reported upper bound and is pinned
    assert rep.dual_witness.values[0] == 0.0
    replayed = dual_objective(m, mixing_set(HullMode.CONVEX_HULL), rep.dual_witness)
    assert replayed == pytest.approx(rep.dual_upper, rel=1e-12, abs=1e-12)
    # the true hull value 193/88 sits inside the sandwich
    assert rep.primal_lower <= MIX_HULL_VALUE + 1e-9
    assert rep.dual_upper >= MIX_HULL_VALUE - 1e-9


def test_gap_report_finite_set_keeps_honest_gap():
    # in finite-set mode the primal side may not reach the hull closure;
    # the report must then show the positive gap instead of hiding it
    m = uniform_on(MIX_MEASURE_ATOMS)
    rep = duality_gap_report(m, mixing_set(HullMode.FINITE_SET))
    assert rep.primal_lower == pytest.approx(MIX_VERTEX_VALUE, abs=1e-9)
    assert rep.dual_upper >= MIX_HULL_VALUE - 1e-9
    assert rep.gap >= (MIX_HULL_VALUE - MIX_VERTEX_VALUE) - 1e-6
    assert rep.status is SolveStatus.ITER_LIMIT
    assert rep.iterations["cutting_plane"] >= 1


def test_gap_report_random_hulls():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        R = random_generator_set(rng, k_max=6, v_max=4)
        m = random_measure(rng, n_max=50)
        rep = duality_gap_report(m, R)
        assert rep.dual_upper >= rep.primal_lower - 1e-9
        assert rep.gap <= 1e-3 * (1.0 + abs(rep.primal_lower))
        assert rep.primal_coupling.objective() == pytest.approx(
            rep.primal_lower, rel=1e-9, abs=1e-9
        )


def test_gap_report_is_deterministic():
    m = uniform_on(MIX_MEASURE_ATOMS)
    a = duality_gap_report(m, mixing_set(HullMode.CONVEX_HULL))
    b = duality_gap_report(m, mixing_set(HullMode.CONVEX_HULL))
    assert a.primal_lower == b.primal_lower
    assert a.dual_upper == b.dual_upper
    np.testing.assert_array_equal(a.primal_weights, b.primal_weights)
    np.testing.assert_array_equal(a.dual_witness.values, b.dual_witness.values)
