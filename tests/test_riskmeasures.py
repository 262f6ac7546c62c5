"""Tests for the risk-measure families: CV@R, higher-moment, Kusuoka."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from otrisk.errors import (
    EmptyInput,
    InvalidMixture,
    InvalidParams,
    LengthMismatch,
    NonFiniteValue,
    OutOfRange,
)
from otrisk.measures import DiscreteMeasure, from_samples, point_mass, uniform_on
from otrisk.riskmeasures import (
    CVaR,
    Explicit,
    HigherMoment,
    KusuokaMixture,
    cvar,
    cvar_target_set,
    evaluate_batch,
    evaluate_risk,
    higher_moment,
    higher_moment_certificate,
    kusuoka_image,
)
from otrisk.transport import GeneratorSet, HullMode, transport_value

# analytic optimum of t + 1.2*sqrt(0.5*(t^2 + (1-t)^2)): first-order condition
# squares to 0.44 t^2 - 0.44 t - 0.14 = 0, taking the negative root
GOLDEN_T = (1.0 - math.sqrt(25.0 / 11.0)) / 2.0
GOLDEN_VALUE = GOLDEN_T + 1.2 * math.sqrt(0.5 * (GOLDEN_T**2 + (1.0 - GOLDEN_T) ** 2))


def random_measure(rng, n_max=12, scale=5.0):
    n = int(rng.integers(1, n_max + 1))
    return from_samples(rng.normal(size=n) * scale, rng.uniform(0.05, 1.0, size=n))


# ----------------------------------------------------------------------
# CV@R


def test_cvar_worked_examples():
    m = uniform_on([1, 2, 3, 4])
    assert cvar(m, 0.5) == 3.5
    assert cvar(m, 0.0) == m.expectation()
    for beta in (0.0, 0.3, 0.99):
        assert cvar(point_mass(-2.0), beta) == -2.0


def test_cvar_matches_rockafellar_uryasev_grid():
    m = uniform_on([1, 2, 3, 4])
    coarse = oracles.rockafellar_uryasev_grid(m.positions, m.weights, 0.5, np.arange(0, 5, 1e-4))
    assert cvar(m, 0.5) == pytest.approx(coarse, abs=1e-7)


def test_cvar_equals_ru_objective_at_quantile():
    # the infimum is attained at the beta-quantile; check the identity there
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = random_measure(rng)
        beta = float(rng.uniform(0.01, 0.98))
        t = m.quantile(beta)
        ru = t + float(m.weights @ np.maximum(m.positions - t, 0.0)) / (1.0 - beta)
        assert cvar(m, beta) == pytest.approx(ru, abs=1e-12)


def test_cvar_matches_tail_sort_oracle():
    rng = np.random.default_rng(22)
    for _ in range(100):
        m = random_measure(rng)
        beta = float(rng.uniform(0.0, 0.98))
        want = oracles.cvar_tail_sort(m.positions.tolist(), m.weights.tolist(), beta)
        assert cvar(m, beta) == pytest.approx(want, abs=1e-11)


def test_cvar_range_check():
    m = uniform_on([1, 2])
    for beta in (-0.1, 1.0, 1.2, math.nan):
        with pytest.raises(OutOfRange):
            cvar(m, beta)


def test_cvar_monotone_in_beta_and_above_mean():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = random_measure(rng)
        values = [cvar(m, b) for b in np.linspace(0.0, 0.95, 20)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(m.expectation(), abs=1e-12)


def test_cvar_target_set_worked_examples():
    R = cvar_target_set(0.5)
    assert R.support.tolist() == [0.0, 2.0]
    assert R.vertices.tolist() == [[0.5, 0.5]]
    R0 = cvar_target_set(0.0)
    assert R0.support.tolist() == [1.0]
    assert R0.vertices.tolist() == [[1.0]]
    R9 = cvar_target_set(0.9)
    assert R9.support.tolist() == [0.0, pytest.approx(10.0, abs=1e-12)]
    assert R9.vertices.tolist() == [[0.9, pytest.approx(0.1, abs=1e-15)]]


def test_cvar_transport_equivalence():
    # the closed form and the transport value against the two-point target agree
    rng = np.random.default_rng(24)
    for _ in range(50):
        m = random_measure(rng, n_max=50)
        for beta in (0.0, 0.25, 0.5, 0.9):
            r = cvar_target_set(beta).vertex_measure(0)
            assert cvar(m, beta) == pytest.approx(transport_value(m, r), abs=1e-9)


# ----------------------------------------------------------------------
# higher-moment measures


def test_higher_moment_point_mass():
    assert higher_moment(point_mass(3.5), 2, 2) == (3.5, 3.5)


def test_higher_moment_optimum_at_sup():
    value, t_star = higher_moment(uniform_on([0, 1]), 2, 2)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert t_star == pytest.approx(1.0, abs=1e-9)


def test_higher_moment_golden_instance():
    value, t_star = higher_moment(uniform_on([0, 1]), 2, 1.2)
    assert value == pytest.approx(0.83166, abs=1e-4)
    assert t_star == pytest.approx(-0.25378, abs=1e-4)
    # tighter: the analytic optimum
    assert value == pytest.approx(GOLDEN_VALUE, abs=1e-10)
    assert t_star == pytest.approx(GOLDEN_T, abs=1e-7)


def test_higher_moment_matches_grid_oracle():
    rng = np.random.default_rng(25)
    for _ in range(20):
        m = random_measure(rng, n_max=6)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        c = float(rng.uniform(1.01, 4.0))
        want, _ = oracles.higher_moment_grid(m.positions, m.weights, p, c)
        got, _ = higher_moment(m, p, c)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-7)


def test_higher_moment_far_from_unit_scale():
    # solved on the atoms rescaled to [-1, 0], so tail powers cannot overflow
    m = from_samples([0.0, 1e200])
    value, t_star = higher_moment(m, 2.0, 1.2)
    assert value == pytest.approx(8.3166247903554e199, rel=1e-12)
    assert value == pytest.approx(1e200 * GOLDEN_VALUE, rel=1e-12)
    t, u, dual = higher_moment_certificate(m, 2.0, 1.2)
    assert t == t_star
    assert u == pytest.approx(1e200 * 0.37688918, rel=1e-6)
    assert dual == pytest.approx(value, rel=1e-12)


def test_higher_moment_minimizer_far_below_the_support():
    # with c near 1 the minimizer sits three spans below the coin's support
    c = 1.01
    t_true = 0.5 - math.sqrt(0.25 / (c * c - 1.0))
    v_true = t_true + c * math.sqrt(0.5 * (t_true**2 + (1.0 - t_true) ** 2))
    coin = from_samples([0.0, 1.0])
    value, t_star = higher_moment(coin, 2.0, c)
    assert value == pytest.approx(0.570887, abs=1e-6)
    assert value == pytest.approx(v_true, rel=1e-12)
    assert t_star == pytest.approx(t_true, rel=1e-12)
    t, _, dual = higher_moment_certificate(coin, 2.0, c)
    assert t == t_star
    assert dual == pytest.approx(v_true, rel=1e-12)


@pytest.mark.parametrize(
    "values, p, sup",
    [([0.0, 1e8], 50.0, 1e8), ([0.0, 1.0, 2.0, 5.0], 500.0, 5.0)],
)
def test_higher_moment_large_p(values, p, sup):
    # 1 - c*w_max^(1/p) <= 0: the minimizer is the largest atom, whatever the
    # tails' p-th powers would underflow to
    m = from_samples(values)
    value, t_star = higher_moment(m, p, 1.2)
    assert value == pytest.approx(sup, rel=1e-12)
    assert t_star == pytest.approx(sup, rel=1e-12)
    t, u, dual = higher_moment_certificate(m, p, 1.2)
    assert (t, u) == (t_star, 0.0)
    assert dual == pytest.approx(sup, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_higher_moment_certificate_just_below_the_top(p):
    # the minimizer lies about 1e-12 below the largest atom; the certificate
    # still has u > 0 and matches the primal there
    m = from_samples([0.0, 1.0 - 1e-12, 1.0], [0.01, 0.5, 0.49])
    value, t_star = higher_moment(m, p, 1.2)
    assert 0.0 < 1.0 - t_star < 1e-11
    t, u, dual = higher_moment_certificate(m, p, 1.2)
    assert t == t_star
    assert u > 0.0
    assert dual == pytest.approx(value, rel=1e-15)


def _hm_objective(m, p, c, t):
    """t + c*E[(X-t)_+^p]^(1/p), with the tails divided by the largest one."""
    top = float(m.positions[-1]) - t
    if top <= 0.0:
        return t
    tail = np.maximum(m.positions - t, 0.0) / top
    return t + c * top * float(m.weights @ tail**p) ** (1.0 / p)


def _hm_budget(m, t, h):
    # a length-n dot product of nonnegative terms is good to n*eps relative;
    # the atoms are rescaled by the span, so each tail is good to eps*span
    eps = np.finfo(float).eps
    span = float(m.positions[-1] - m.positions[0])
    return 2.0 * (m.n_atoms + 8) * eps * (abs(h - t) + span) + 8.0 * eps * (abs(t) + abs(h))


@given(
    sample=st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n),
            st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
        )
    ),
    p=st.sampled_from([1.5, 2.0, 3.0, 7.0]),
    c=st.floats(1.01, 5.0),
)
@settings(max_examples=300, deadline=None)
def test_higher_moment_is_the_minimum(sample, p, c):
    m = from_samples(*sample)
    value, t_star = higher_moment(m, p, c)
    at_t = _hm_objective(m, p, c, t_star)
    slack = _hm_budget(m, t_star, at_t)
    assert abs(value - at_t) <= slack
    span = float(m.positions[-1] - m.positions[0])
    probes = m.positions.tolist() + [t_star - 1e-6 * (1.0 + span), t_star + 1e-6 * (1.0 + span)]
    for t in probes:
        h = _hm_objective(m, p, c, t)
        assert value <= h + _hm_budget(m, t, h) + slack


def test_higher_moment_param_validation():
    m = uniform_on([0, 1])
    for p, c in ((1.0, 2.0), (0.5, 2.0), (2.0, 1.0), (2.0, 0.9), (math.inf, 2.0)):
        with pytest.raises(InvalidParams):
            higher_moment(m, p, c)


def test_certificate_worked_examples():
    t, u, dual = higher_moment_certificate(uniform_on([0, 1]), 2, 2)
    assert (t, u, dual) == (pytest.approx(1.0, abs=1e-9), 0.0, pytest.approx(1.0, abs=1e-9))

    t, u, dual = higher_moment_certificate(uniform_on([0, 1]), 2, 1.2)
    assert t == pytest.approx(-0.25378, abs=1e-4)
    assert u == pytest.approx(0.37689, abs=1e-4)
    assert dual == pytest.approx(0.83166, abs=1e-4)

    t, u, dual = higher_moment_certificate(point_mass(-1.5), 2, 2)
    assert (t, u, dual) == (-1.5, 0.0, -1.5)


def test_certificate_strong_duality():
    rng = np.random.default_rng(26)
    saw_degenerate = False
    for _ in range(100):
        m = random_measure(rng, n_max=10)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        c = float(rng.uniform(1.01, 5.0))
        primal, _ = higher_moment(m, p, c)
        t, u, dual = higher_moment_certificate(m, p, c)
        assert abs(primal - dual) <= 1e-7 * (1.0 + abs(primal))
        if u == 0.0:
            saw_degenerate = True
            assert dual == t
    assert saw_degenerate  # the a=0 branch must occur for large c


# ----------------------------------------------------------------------
# Kusuoka mixtures


def test_kusuoka_image_worked_examples():
    img = kusuoka_image([(0.0, 0.5), (0.5, 0.5)])
    assert img.image_measure.atoms() == [(0.5, 0.5), (1.5, 0.5)]
    assert img.psi_breaks == ((0.0, 0.5), (0.5, 1.5))

    for beta in (0.25, 0.5, 0.9):
        img = kusuoka_image([(beta, 1.0)])
        r_beta = cvar_target_set(beta).vertex_measure(0)
        assert img.image_measure == r_beta

    assert kusuoka_image([(0.0, 1.0)]).image_measure == point_mass(1.0)


def test_kusuoka_image_merges_and_validates():
    img = kusuoka_image([(0.3, 0.25), (0.3, 0.25), (0.0, 0.5)])
    # duplicate betas merged: jumps at 0 and 0.3
    assert len(img.psi_breaks) == 2
    assert img.image_measure.expectation() == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(InvalidMixture):
        kusuoka_image([])
    with pytest.raises(InvalidMixture):
        kusuoka_image([(0.5, 0.4)])  # weights sum to 0.4
    with pytest.raises(InvalidMixture):
        kusuoka_image([(1.0 - 1e-10, 1.0)])  # beta too close to 1
    with pytest.raises(InvalidMixture):
        kusuoka_image([(-0.1, 1.0)])
    with pytest.raises(InvalidMixture):
        kusuoka_image([(0.2, -0.5), (0.3, 1.5)])


def test_kusuoka_psi_nondecreasing_and_unit_mean():
    rng = np.random.default_rng(27)
    for _ in range(100):
        j = int(rng.integers(1, 8))
        betas = rng.uniform(0.0, 0.97, size=j)
        w = rng.uniform(0.05, 1.0, size=j)
        w /= w.sum()
        img = kusuoka_image(list(zip(betas, w)))
        vals = [v for _, v in img.psi_breaks]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert img.image_measure.expectation() == pytest.approx(1.0, abs=1e-12)
        assert np.all(img.image_measure.positions >= 0.0)


def test_kusuoka_mixture_identity():
    # a mixture of CV@Rs evaluates to the weighted sum of CV@Rs
    rng = np.random.default_rng(28)
    for _ in range(50):
        m = random_measure(rng, n_max=30)
        j = int(rng.integers(1, 6))
        betas = rng.uniform(0.0, 0.95, size=j)
        w = rng.uniform(0.05, 1.0, size=j)
        w /= w.sum()
        spec = KusuokaMixture(tuple(zip(betas.tolist(), w.tolist())))
        direct = math.fsum(wj * cvar(m, bj) for bj, wj in zip(betas, w))
        assert evaluate_risk(spec, m) == pytest.approx(direct, abs=1e-9)


# ----------------------------------------------------------------------
# dispatch and the sandwich bound


def test_evaluate_risk_worked_examples():
    m = uniform_on([1, 2, 3, 4])
    assert evaluate_risk(CVaR(0.5), m) == 3.5
    assert evaluate_risk(KusuokaMixture(((0.0, 0.5), (0.5, 0.5))), m) == pytest.approx(3.0, abs=1e-12)
    # and the same mixture via its image measure directly
    img = kusuoka_image([(0.0, 0.5), (0.5, 0.5)])
    assert transport_value(m, img.image_measure) == pytest.approx(3.0, abs=1e-12)
    R = GeneratorSet.singleton(point_mass(1.0))
    assert evaluate_risk(Explicit(R, 2.0), m) == pytest.approx(m.expectation(), abs=1e-12)


def test_risk_spec_validation():
    with pytest.raises(OutOfRange):
        CVaR(1.0)
    with pytest.raises(InvalidParams):
        HigherMoment(1.0, 2.0)
    with pytest.raises(InvalidMixture):
        KusuokaMixture(((0.2, 0.5),))
    assert HigherMoment(2.0, 1.5).q == 2.0
    assert HigherMoment(3.0, 1.5).q == 1.5


# ----------------------------------------------------------------------
# batches of equal-weight scenario vectors

README_FAMILY = GeneratorSet([0.0, 0.5, 1.5, 4.0], [[1 / 3, 0, 2 / 3, 0], [0, 6 / 7, 0, 1 / 7]])


@st.composite
def scenario_batches(draw):
    """(B, n) arrays with n in 1..12: small integers make ties, and some
    batches end with a constant row."""
    n = draw(st.integers(1, 12))
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e3, 1e3))
    rows = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=6))
    if draw(st.booleans()):
        rows.append([rows[0][0]] * n)
    return np.array(rows)


@given(
    spec=st.one_of(
        st.floats(0.0, 0.99).map(CVaR),
        st.builds(HigherMoment, st.sampled_from([1.5, 2.0, 3.0, 7.0]), st.floats(1.01, 5.0)),
        st.sampled_from(
            [
                KusuokaMixture(((0.25, 0.5), (0.6, 0.5))),
                KusuokaMixture(((0.0, 0.3), (0.5, 0.4), (0.9, 0.3))),
            ]
        ),
        st.sampled_from([Explicit(cvar_target_set(0.3)), Explicit(README_FAMILY)]),
    ),
    X=scenario_batches(),
)
@settings(max_examples=400, deadline=None)
def test_evaluate_batch_matches_evaluate_risk(spec, X):
    got = evaluate_batch(spec, X)
    assert got.shape == (len(X),)
    for value, row in zip(got.tolist(), X):
        want = evaluate_risk(spec, from_samples(row))
        assert abs(value - want) <= 1e-12 * (1.0 + abs(want) + np.ptp(row))


def test_evaluate_batch_hull_rows_use_the_exact_solver():
    spec = Explicit(GeneratorSet(README_FAMILY.support, README_FAMILY.vertices, HullMode.CONVEX_HULL))
    X = np.random.default_rng(4).normal(0.0, 3.0, size=(3, 7))
    want = [evaluate_risk(spec, from_samples(row)) for row in X]
    assert evaluate_batch(spec, X).tolist() == want


def test_evaluate_batch_errors():
    with pytest.raises(LengthMismatch):
        evaluate_batch(CVaR(0.5), [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        evaluate_batch(CVaR(0.5), np.zeros((2, 2, 2)))
    for empty in ([], np.zeros((0, 3)), np.zeros((2, 0))):
        with pytest.raises(EmptyInput):
            evaluate_batch(CVaR(0.5), empty)
    for bad in (math.inf, -math.inf, math.nan):
        X = np.zeros((2, 3))
        X[1, 2] = bad
        with pytest.raises(NonFiniteValue):
            evaluate_batch(HigherMoment(2.0, 1.2), X)


@pytest.mark.parametrize(
    "spec", [CVaR(0.99), KusuokaMixture(((0.25, 0.5), (0.6, 0.5))), HigherMoment(2.0, 1.2)]
)
def test_overflowing_span_is_a_typed_error(spec):
    # finite values whose span overflows a double have no finite risk to report
    x = [-1e308, 1e308, 5e307]
    with pytest.raises(NonFiniteValue):
        evaluate_risk(spec, from_samples(x))
    with pytest.raises(NonFiniteValue):
        evaluate_batch(spec, [x, [0.0, 1.0, 2.0]])


def unit_mean_vertex(rng, support):
    """Random simplex point with unit mean: mix two-point unit-mean bricks."""
    below = np.where(support < 1.0)[0]
    above = np.where(support > 1.0)[0]
    K = support.size
    out = np.zeros(K)
    for _ in range(int(rng.integers(1, 4))):
        a = int(rng.choice(below))
        b = int(rng.choice(above))
        ya, yb = support[a], support[b]
        brick = np.zeros(K)
        brick[a] = (yb - 1.0) / (yb - ya)
        brick[b] = (1.0 - ya) / (yb - ya)
        lam = rng.uniform(0.2, 1.0)
        out = out + lam * brick
    return out / out.sum() if out.sum() > 0 else out


def test_sandwich_inner_approximation():
    # any unit-mean family with q-moment <= c^q lower-bounds the higher-moment value
    rng = np.random.default_rng(29)
    for _ in range(40):
        p = float(rng.choice([1.5, 2.0, 3.0]))
        q = p / (p - 1.0)
        support = np.sort(np.concatenate([rng.uniform(0.0, 0.99, 2), rng.uniform(1.01, 6.0, 2)]))
        verts = np.array([unit_mean_vertex(rng, support) for _ in range(3)])
        R = GeneratorSet(support, verts)
        c = max(float(np.max((verts @ support**q)) ** (1.0 / q)), 1.0 + 1e-6)
        m = random_measure(rng, n_max=10)
        from otrisk.transport import finite_set_value

        val, _ = finite_set_value(m, R)
        bound, _ = higher_moment(m, p, c)
        assert val <= bound + 1e-9
