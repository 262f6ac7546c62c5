"""Tests for discrete measures: construction, quantiles, moments, Wasserstein."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from otrisk import measures
from otrisk.errors import (
    EmptyInput,
    InvalidOrder,
    LengthMismatch,
    NegativeWeight,
    NonFiniteValue,
    OutOfRange,
    ZeroTotalWeight,
)
from otrisk.measures import (
    INF,
    DiscreteMeasure,
    as_order,
    conjugate_order,
    from_samples,
    point_mass,
    uniform_on,
    wasserstein_p,
)

TOL_EXACT = 1e-12


# ----------------------------------------------------------------------
# construction


def test_from_samples_merges_and_uniform_weights():
    m = from_samples([3, 1, 1])
    assert m.atoms() == [(1.0, pytest.approx(2 / 3, abs=TOL_EXACT)), (3.0, pytest.approx(1 / 3, abs=TOL_EXACT))]


def test_from_samples_point_mass():
    m = from_samples([5])
    assert m.atoms() == [(5.0, 1.0)]


def test_from_samples_normalizes_relative_weights():
    m = from_samples([1, 2], [1, 3])
    assert m.positions.tolist() == [1.0, 2.0]
    assert m.weights.tolist() == [0.25, 0.75]


def test_from_samples_drops_zero_weights():
    m = from_samples([1, 2, 3], [1, 0, 1])
    assert m.positions.tolist() == [1.0, 3.0]


def test_from_samples_errors():
    with pytest.raises(EmptyInput):
        from_samples([])
    with pytest.raises(NonFiniteValue):
        from_samples([1, math.nan])
    with pytest.raises(NonFiniteValue):
        from_samples([1, math.inf])
    with pytest.raises(NegativeWeight):
        from_samples([1, 2], [1, -1])
    with pytest.raises(ZeroTotalWeight):
        from_samples([1, 2], [0, 0])
    with pytest.raises(LengthMismatch):
        from_samples([1, 2], [1, 1, 1])


def test_weights_near_the_largest_double_normalize():
    # their sum overflows a double; the weights are summed after exact scaling
    m = from_samples([1, 2], [1e308, 1e308])
    assert m.atoms() == [(1.0, 0.5), (2.0, 0.5)]
    m = from_samples([3, 1, 2], [1.7e308, 1.7e308, 5e-324])
    assert m.atoms() == [(1.0, 0.5), (3.0, 0.5)]
    with pytest.raises(ZeroTotalWeight):
        DiscreteMeasure([1, 2], [1e308, 1e308])


def test_direct_construction_rejects_badly_normalized_weights():
    # direct constructor wants probabilities, not masses
    with pytest.raises(ZeroTotalWeight):
        DiscreteMeasure([1, 2], [1.0, 3.0])
    # but tolerates ingestion round-off below 1e-9
    m = DiscreteMeasure([1, 2], [0.5 + 1e-10, 0.5])
    assert math.isclose(float(m.weights.sum()), 1.0, abs_tol=TOL_EXACT)


def test_measures_are_immutable():
    m = from_samples([1, 2, 3])
    with pytest.raises(AttributeError):
        m.positions = np.array([0.0])
    with pytest.raises(ValueError):
        m.weights[0] = 0.9


def test_atoms_sorted_and_cumulative_pinned():
    m = from_samples([4, 2, 9, 2], [1, 2, 3, 4])
    assert np.all(np.diff(m.positions) > 0)
    assert m.cumulative[-1] == 1.0
    assert np.all(m.weights > 0)


# ----------------------------------------------------------------------
# quantile


def test_quantile_reference_values():
    m = uniform_on([1, 2, 3, 4])
    # CDF(1)=0.25 < 0.3, CDF(2)=0.5 >= 0.3
    assert m.quantile(0.3) == 2.0
    # exact breakpoint returns the lower cell's value
    assert m.quantile(0.25) == 1.0
    assert point_mass(5).quantile(0.999) == 5.0


def test_quantile_range_checks():
    m = uniform_on([1, 2])
    for t in (0.0, -0.5, 1.0 + 1e-12, math.nan):
        with pytest.raises(OutOfRange):
            m.quantile(t)
    assert m.quantile(1.0) == 2.0


def test_quantile_matches_cdf_scan():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(1, 10)
        m = from_samples(rng.normal(size=n), rng.uniform(0.1, 1.0, size=n))
        for t in rng.uniform(1e-9, 1.0, size=20):
            assert m.quantile(t) == oracles.quantile_scan(m.positions, m.cumulative, t)


@given(
    values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=12),
    t1=st.floats(1e-9, 1.0),
    t2=st.floats(1e-9, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_quantile_monotone(values, t1, t2):
    m = from_samples(values)
    lo, hi = sorted((t1, t2))
    assert m.quantile(lo) <= m.quantile(hi)


# ----------------------------------------------------------------------
# moments and expectation


def test_moment_reference_values():
    m = DiscreteMeasure([0, 2], [0.5, 0.5])
    assert m.moment(INF) == 2.0
    assert m.moment(1) == 1.0
    assert m.moment(2) == pytest.approx(math.sqrt(2), abs=TOL_EXACT)


def test_moment_accepts_inf_spellings():
    m = DiscreteMeasure([-3, 2], [0.5, 0.5])
    assert m.moment(math.inf) == 3.0
    assert m.moment("inf") == 3.0


def test_moment_rejects_small_order():
    m = point_mass(1)
    with pytest.raises(InvalidOrder):
        m.moment(0.5)
    with pytest.raises(InvalidOrder):
        m.moment(-math.inf)


@given(
    values=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=10),
    p=st.floats(1, 20),
    q=st.floats(1, 20),
)
@settings(max_examples=200, deadline=None)
def test_moment_holder_ordering(values, p, q):
    m = from_samples(values)
    lo, hi = sorted((p, q))
    assert m.moment(lo) <= m.moment(hi) + 1e-9 * (1 + m.moment(hi))
    assert m.moment(hi) <= m.moment(INF) + 1e-9 * (1 + m.moment(INF))


def test_expectation_values():
    assert uniform_on([1, 2, 3, 4]).expectation() == 2.5
    assert point_mass(-7.25).expectation() == -7.25
    # the two-point target measure for tail expectations at level 1/2 has mean one
    target = DiscreteMeasure([0.0, 2.0], [0.5, 0.5])
    assert target.expectation() == 1.0


def test_conjugate_order():
    assert conjugate_order(1.0) is INF
    assert conjugate_order(INF) == 1.0
    assert conjugate_order(2.0) == 2.0
    assert conjugate_order(3.0) == pytest.approx(1.5, abs=TOL_EXACT)
    assert as_order("Inf") is INF


# ----------------------------------------------------------------------
# wasserstein


def test_wasserstein_reference_values():
    assert wasserstein_p(point_mass(0), point_mass(1), 1) == 1.0
    m = from_samples([3, 1, 4], [1, 1, 2])
    assert wasserstein_p(m, m, 2) == 0.0
    assert wasserstein_p(uniform_on([0, 2]), uniform_on([1, 3]), 2) == pytest.approx(1.0, abs=TOL_EXACT)


def test_wasserstein_matches_polytope_oracle():
    # quantile formula vs exhaustive vertex enumeration of the coupling polytope
    rng = np.random.default_rng(3)
    for _ in range(25):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        m1 = from_samples(rng.normal(size=n) * 5, rng.uniform(0.1, 1, size=n))
        m2 = from_samples(rng.normal(size=k) * 5, rng.uniform(0.1, 1, size=k))
        for p in (1.0, 2.0, 3.5):
            cost = np.abs(np.subtract.outer(m1.positions, m2.positions)) ** p
            want = oracles.min_cost_transport(cost, m1.weights, m2.weights) ** (1 / p)
            assert wasserstein_p(m1, m2, p) == pytest.approx(want, abs=1e-9)


def test_wasserstein_inf_order():
    m1 = uniform_on([0, 10])
    m2 = uniform_on([1, 2])
    assert wasserstein_p(m1, m2, INF) == 8.0
    with pytest.raises(InvalidOrder):
        wasserstein_p(m1, m2, 0.99)


@given(
    a=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8),
    b=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8),
    c=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8),
    p=st.sampled_from([1.0, 2.0, 4.0]),
)
@settings(max_examples=150, deadline=None)
def test_wasserstein_metric_properties(a, b, c, p):
    ma, mb, mc = from_samples(a), from_samples(b), from_samples(c)
    dab = wasserstein_p(ma, mb, p)
    assert dab == wasserstein_p(mb, ma, p)  # symmetry is exact
    assert dab <= wasserstein_p(ma, mc, p) + wasserstein_p(mc, mb, p) + 1e-12 * (1 + dab)
    if ma == mb:
        assert dab == 0.0


def test_wasserstein_zero_iff_equal():
    m1 = from_samples([1, 2], [1, 1])
    m2 = from_samples([1, 2], [1, 1.0000001])
    assert wasserstein_p(m1, m2, 1) > 0
