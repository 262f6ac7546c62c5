"""Small tests of the reference computations, on cases with known answers.

    python3 -m pytest perfbench
"""

import numpy as np
import pytest

import reference as ref

README_SUPPORT = [0.0, 0.5, 1.5, 4.0]
README_VERTICES = [[1 / 3, 0, 2 / 3, 0], [0, 6 / 7, 0, 1 / 7]]


def test_cvar_splits_the_straddling_atom():
    s = ref.Sample([4, 1, 3, 2])
    assert s.cvar(0.5) == 3.5
    assert s.cvar(0.0) == 2.5
    assert s.cvar(0.9) == pytest.approx(4.0, abs=1e-15)
    # the top 40%: all of 4 and 0.15 of the 0.25 on 3
    assert s.cvar(0.6) == pytest.approx((4 * 0.25 + 3 * 0.15) / 0.4, abs=1e-15)


def test_integer_weights_equal_repeated_atoms():
    weighted = ref.Sample([2.0, 1.0], np.array([3, 1]))
    repeated = ref.Sample([1.0, 2.0, 2.0, 2.0])
    for beta in (0.0, 0.1, 0.3, 0.8):
        assert weighted.cvar(beta) == pytest.approx(repeated.cvar(beta), abs=1e-15)
    assert weighted.mean() == 1.75


def test_integrated_quantile_ends():
    s = ref.Sample([-1.0, 5.0, 2.0])
    assert float(s.Phi(0.0)[0]) == 0.0
    assert float(s.Phi(1.0)[0]) == pytest.approx(2.0, abs=1e-15)
    assert float(s.Phi(1 / 3)[0]) == pytest.approx(-1 / 3, abs=1e-15)


def test_kusuoka_is_the_weighted_sum_of_cvars():
    s = ref.Sample(np.arange(10.0))
    assert ref.kusuoka_value(s, [[0.8, 1.0]]) == s.cvar(0.8)
    atoms = [[0.0, 0.3], [0.5, 0.4], [0.9, 0.3]]
    assert ref.kusuoka_value(s, atoms) == pytest.approx(0.3 * 4.5 + 0.4 * 7.0 + 0.3 * 9.0, abs=1e-14)


def test_vertex_values_by_hand():
    # vertex 0: 1.5 * (2 + 3) / 4;  vertex 1: 0.5 * 9/28 + 4 * 3/7
    s = ref.Sample([-2.0, 0.0, 2.0, 3.0])
    values = ref.vertex_values(s, README_SUPPORT, README_VERTICES)
    assert values == pytest.approx([1.875, 1.875], abs=1e-15)


def test_hull_value_of_the_readme_family():
    s = ref.Sample([-2.0, 0.0, 2.0, 3.0])
    value, lam = ref.hull_value_two_vertices(s, README_SUPPORT, README_VERTICES)
    assert value == pytest.approx(193 / 88, abs=1e-14)
    assert lam == pytest.approx(7 / 22, abs=1e-14)  # weights (15/22, 7/22)
    lp = ref.hull_value_lp([-2, 0, 2, 3], [0.25] * 4, README_SUPPORT, README_VERTICES)
    assert lp == pytest.approx(193 / 88, abs=1e-9)


def test_kink_scan_matches_the_transport_lp():
    rng = np.random.default_rng(11)
    x = rng.normal(0.0, 3.0, 25)
    value, _ = ref.hull_value_two_vertices(ref.Sample(x), README_SUPPORT, README_VERTICES)
    lp = ref.hull_value_lp(x, np.full(x.size, 1 / x.size), README_SUPPORT, README_VERTICES)
    assert value == pytest.approx(lp, abs=1e-9)


def test_dual_objective_bounds_the_hull_value():
    rng = np.random.default_rng(12)
    s = ref.Sample(rng.normal(0.0, 3.0, 40))
    hull, _ = ref.hull_value_two_vertices(s, README_SUPPORT, README_VERTICES)
    for _ in range(50):
        g = np.concatenate(([0.0], rng.normal(0.0, 3.0, 3)))
        assert ref.dual_objective(s, README_SUPPORT, README_VERTICES, g) >= hull - 1e-12
    # a single target at 1: the zero potential is optimal and gives the mean
    assert ref.dual_objective(s, [1.0], [[1.0]], [0.0]) == pytest.approx(s.mean(), abs=1e-14)


def test_higher_moment_of_a_point_mass():
    s = ref.Sample([3.0])
    assert ref.hm_objective(s, 2.0, 1.2, [3.0, 4.0, 2.0]) == pytest.approx([3.0, 4.0, 3.2])
    (lower, upper), t = ref.hm_minimum_bounds(s, 2.0, 1.2)
    assert t == pytest.approx(3.0, abs=1e-9)
    assert lower - 1e-12 <= 3.0 <= upper + 1e-12


def test_higher_moment_bounds_bracket_a_dense_scan():
    rng = np.random.default_rng(13)
    s = ref.Sample(rng.uniform(-10.0, 10.0, 9))
    (lower, upper), _ = ref.hm_minimum_bounds(s, 2.0, 1.2)
    dense = ref.hm_objective(s, 2.0, 1.2, np.linspace(s.x[0] - s.span, s.x[-1], 20001)).min()
    assert lower <= upper + 1e-12
    assert upper - lower < 1e-9
    assert lower <= dense + 1e-12
    assert dense - upper < 1e-6  # the scan's own resolution
    assert s.mean() <= upper <= s.x[-1]


def test_budget_grows_with_n_and_the_tail():
    small = ref.Sample(np.arange(10.0))
    large = ref.Sample(np.arange(1000.0) / 100.0)
    assert ref.transport_budget(large, 20.0, 2) > ref.transport_budget(small, 20.0, 2)
    assert ref.transport_budget(small, 100.0, 2) > ref.transport_budget(small, 20.0, 2)
    assert ref.hm_budget(large, 0.0, 2.0) > ref.hm_budget(small, 0.0, 2.0) > 0.0
