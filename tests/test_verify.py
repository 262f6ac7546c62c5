"""Tests for the axiom/bounds harness and its seeded instance generator."""

import numpy as np
import pytest

import otrisk.verify
from oracles import max_bilinear
from otrisk import (
    AxiomCheck,
    AxiomReport,
    CVaR,
    EmptyInput,
    Explicit,
    GeneratorSet,
    HigherMoment,
    HullMode,
    InvalidParams,
    KusuokaMixture,
    LengthMismatch,
    SplitMix64,
    check_axioms,
    check_bounds,
    cvar_target_set,
    default_tolerance,
    evaluate_risk,
    from_samples,
    lipschitz_and_order,
    sample_pairs,
)

# canonical splitmix64 outputs for seed 1234567 (widely published as the
# seeding reference for the xoshiro family)
SPLITMIX_SEED = 1234567
SPLITMIX_FIRST = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
]


def test_splitmix_reference_outputs():
    gen = SplitMix64(SPLITMIX_SEED)
    assert [gen.next_raw() for _ in range(3)] == SPLITMIX_FIRST


def test_splitmix_uniforms_and_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    xs = [a.uniform() for _ in range(100)]
    assert xs == [b.uniform() for _ in range(100)]
    assert all(0.0 <= x < 1.0 for x in xs)
    c = SplitMix64(43)
    assert xs != [c.uniform() for _ in range(100)]
    g = SplitMix64(-1)  # negative seeds reduce mod 2^64
    assert 0 <= g.next_raw() <= (1 << 64) - 1
    h = SplitMix64(7)
    vals = [h.integer(3, 5) for _ in range(50)]
    assert set(vals) <= {3, 4, 5}


def reference_pairs(seed, count, max_len=12, scale=10.0):
    """sample_pairs drawn one value at a time from SplitMix64."""
    gen = SplitMix64(seed)
    pairs = []
    for _ in range(count):
        n = gen.integer(1, max_len)
        x1 = np.array([gen.uniform_in(-scale, scale) for _ in range(n)])
        x2 = np.array([gen.uniform_in(-scale, scale) for _ in range(n)])
        pairs.append((x1, x2))
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 5, -1, 20260815])
@pytest.mark.parametrize("kwargs", [{}, {"max_len": 1}, {"max_len": 3, "scale": 0.25}])
def test_sample_pairs_match_the_generator_bit_for_bit(seed, kwargs):
    got = sample_pairs(seed, 500, **kwargs)
    want = reference_pairs(seed, 500, **kwargs)
    assert len(got) == len(want)
    for (a1, a2), (b1, b2) in zip(got, want):
        assert a1.tobytes() == b1.tobytes() and a2.tobytes() == b2.tobytes()


def test_sample_pairs_long_streams_match_the_generator():
    # more pairs than one block of the stream, and vectors longer than the default
    got = sample_pairs(8, 5000, max_len=30, scale=1e300)
    for (a1, a2), (b1, b2) in zip(got, reference_pairs(8, 5000, max_len=30, scale=1e300)):
        assert a1.tobytes() == b1.tobytes() and a2.tobytes() == b2.tobytes()


def test_axiom_draws_follow_the_generator(monkeypatch):
    # with rho = 0 the translation violation of pair i is |alpha_i|, the
    # first of the three draws per pair
    monkeypatch.setattr(otrisk.verify, "evaluate_batch", lambda spec, X: np.zeros(len(X)))
    pairs = sample_pairs(3, 80)
    gen = SplitMix64(41)
    alphas = []
    for _ in pairs:
        alphas.append(gen.uniform_in(-10.0, 10.0))
        gen.uniform_in(0.0, 10.0)
        gen.uniform()
    worst = max(alphas, key=abs)
    by_name = {c.name: c for c in check_axioms(CVaR(0.5), pairs, tol=1e-9, seed=41).checks}
    assert by_name["translation"].witness["alpha"] == worst
    assert by_name["translation"].max_violation == abs(worst)


def test_witness_is_the_first_pair_at_the_worst_violation(monkeypatch):
    pairs = [
        (np.array([0.0]), np.array([1.0])),
        (np.array([0.0]), np.array([4.0])),
        (np.array([1.0]), np.array([5.0])),
    ]
    # an antitone functional: pairs 1 and 2 both break monotonicity by 4
    monkeypatch.setattr(otrisk.verify, "evaluate_batch", lambda spec, X: -X.mean(axis=1))
    by_name = {c.name: c for c in check_axioms(CVaR(0.5), pairs, tol=1e-9).checks}
    assert by_name["monotonicity"].max_violation == 4.0
    assert by_name["monotonicity"].witness == {"x1": [0.0], "x2": [4.0]}
    # the mean violates no bound, so every witness is pair 0
    monkeypatch.setattr(otrisk.verify, "evaluate_batch", lambda spec, X: X.mean(axis=1))
    report = check_bounds(CVaR(0.5), pairs, tol=1e-9)
    assert [c.max_violation for c in report.checks] == [0.0, 0.0, 0.0]
    assert [c.witness for c in report.checks] == [
        {"x": [0.0]},
        {"x1": [0.0], "x2": [1.0], "L": 2.0},
        {"x": [0.0]},
    ]


def test_sample_pairs_shape_and_determinism():
    pairs = sample_pairs(11, 40, max_len=9, scale=4.0)
    assert len(pairs) == 40
    for x1, x2 in pairs:
        assert x1.shape == x2.shape
        assert 1 <= x1.size <= 9
        assert np.all(np.abs(x1) <= 4.0) and np.all(np.abs(x2) <= 4.0)
    again = sample_pairs(11, 40, max_len=9, scale=4.0)
    for (a1, a2), (b1, b2) in zip(pairs, again):
        np.testing.assert_array_equal(a1, b1)
        np.testing.assert_array_equal(a2, b2)
    for max_len in (0, -3):
        with pytest.raises(InvalidParams):
            sample_pairs(11, 40, max_len=max_len)


# ------------------------------------------------------------------ axioms


def test_axioms_cvar_closed_form():
    report = check_axioms(CVaR(0.5), sample_pairs(0, 200), tol=1e-9)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {
        "translation",
        "homogeneity",
        "monotonicity",
        "convexity",
        "monotonicity_fsd",
    }
    for c in report.checks:
        assert c.max_violation >= 0.0
        assert c.witness is not None


def test_axioms_higher_moment_iterative():
    report = check_axioms(HigherMoment(2.0, 1.2), sample_pairs(1, 120), tol=1e-6)
    assert report.passed


def test_axioms_expectation_family():
    # a single generator at 1 turns the risk measure into the plain mean
    report = check_axioms(Explicit(cvar_target_set(0.0)), sample_pairs(2, 60), tol=1e-12)
    assert report.passed


def test_axioms_kusuoka_and_hull():
    report = check_axioms(
        KusuokaMixture(((0.25, 0.5), (0.6, 0.5))), sample_pairs(3, 60), tol=1e-9
    )
    assert report.passed
    hull = Explicit(
        GeneratorSet(
            [0.0, 1.0, 2.0],
            [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
            hull_mode=HullMode.CONVEX_HULL,
        )
    )
    report = check_axioms(hull, sample_pairs(4, 25), tol=1e-6)
    assert report.passed


def rowwise(functional):
    """A stand-in for evaluate_batch that applies functional to each row's measure."""
    return lambda spec, X: np.array([functional(spec, from_samples(row)) for row in X])


def test_axioms_flag_broken_functional(monkeypatch):
    # the harness has to be able to fail: second moment breaks translation
    def broken(spec, measure):
        return float(measure.moment(2.0)) ** 2

    monkeypatch.setattr(otrisk.verify, "evaluate_batch", rowwise(broken))
    report = check_axioms(CVaR(0.5), sample_pairs(5, 30), tol=1e-6)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["translation"].max_violation > 1.0
    assert "alpha" in by_name["translation"].witness


def test_axioms_input_validation():
    with pytest.raises(LengthMismatch):
        check_axioms(CVaR(0.5), [(np.zeros(2), np.zeros(3))], tol=1e-9)
    with pytest.raises(EmptyInput):
        check_axioms(CVaR(0.5), [], tol=1e-9)


def test_axioms_deterministic_given_seed():
    a = check_axioms(CVaR(0.8), sample_pairs(9, 50), tol=1e-9, seed=17)
    b = check_axioms(CVaR(0.8), sample_pairs(9, 50), tol=1e-9, seed=17)
    assert [(c.name, c.max_violation) for c in a.checks] == [
        (c.name, c.max_violation) for c in b.checks
    ]


# ------------------------------------------------------------------ bounds


def test_bounds_cvar():
    L, p = lipschitz_and_order(CVaR(0.9))
    assert (L, p) == (pytest.approx(10.0), 1.0)
    report = check_bounds(CVaR(0.9), sample_pairs(6, 200), tol=1e-9)
    assert report.passed
    assert {c.name for c in report.checks} == {"aversity", "lipschitz", "elementary"}


def test_bounds_kusuoka():
    spec = KusuokaMixture(((0.0, 0.5), (0.5, 0.5)))
    L, p = lipschitz_and_order(spec)
    assert (L, p) == (pytest.approx(1.5), 1.0)
    assert check_bounds(spec, sample_pairs(7, 120), tol=1e-9).passed


def test_bounds_higher_moment():
    assert check_bounds(HigherMoment(3.0, 2.0), sample_pairs(8, 120), tol=1e-6).passed


def test_bounds_expectation_is_tight():
    spec = Explicit(cvar_target_set(0.0))
    report = check_bounds(spec, sample_pairs(10, 60), tol=1e-12)
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    # aversity holds with equality for the mean, so the slack is pure round-off
    assert by_name["aversity"].max_violation <= 1e-12
    x = np.array([3.0, -1.0, 0.5])
    assert evaluate_risk(spec, from_samples(x)) == pytest.approx(x.mean())


def test_bounds_flag_broken_functional(monkeypatch):
    def below_mean(spec, measure):
        return measure.expectation() - 1.0

    monkeypatch.setattr(otrisk.verify, "evaluate_batch", rowwise(below_mean))
    report = check_bounds(CVaR(0.5), sample_pairs(12, 30), tol=1e-9)
    assert not report.passed
    assert {c.name for c in report.checks if c.max_violation > 0.9} >= {"aversity"}
    assert report.worst().witness is not None


# ----------------------------------------------------- brute-force crosscheck


def test_explicit_matches_polytope_enumeration():
    rng = np.random.default_rng(321)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        xs = rng.uniform(-4.0, 4.0, size=n)
        mw = rng.uniform(0.1, 1.0, size=n)
        m = from_samples(xs, mw)
        k = int(rng.integers(2, 4))
        lo = rng.uniform(0.0, 0.9, size=1)
        hi = np.sort(rng.uniform(1.1, 3.0, size=k - 1))
        support = np.concatenate([lo, hi])
        nv = int(rng.integers(1, 4))
        rows = []
        for _ in range(nv):
            # random mixture of unit-mean bricks anchored at the low point
            mix = rng.uniform(0.05, 1.0, size=k - 1)
            mix /= mix.sum()
            row = np.zeros(k)
            for j in range(1, k):
                ya, yb = support[0], support[j]
                row[0] += mix[j - 1] * (yb - 1.0) / (yb - ya)
                row[j] += mix[j - 1] * (1.0 - ya) / (yb - ya)
            rows.append(row)
        R = GeneratorSet(support, rows)
        value = evaluate_risk(Explicit(R), m)
        brute = max(
            max_bilinear(m.positions, R.support, m.weights, R.vertices[v])
            for v in range(R.n_vertices)
        )
        assert value == pytest.approx(brute, abs=1e-9)


def test_default_tolerances():
    assert default_tolerance(CVaR(0.3)) == 1e-9
    assert default_tolerance(KusuokaMixture(((0.5, 1.0),))) == 1e-9
    assert default_tolerance(HigherMoment(2.0, 1.5)) == 1e-6
    assert default_tolerance(Explicit(cvar_target_set(0.5))) == 1e-9
    hull = GeneratorSet([0.0, 2.0], [[0.5, 0.5]], hull_mode=HullMode.CONVEX_HULL)
    assert default_tolerance(Explicit(hull)) == 1e-6


def test_report_worst_and_threshold():
    checks = (
        AxiomCheck("a", 0.5, None),
        AxiomCheck("b", 2.0, {"x": [1.0]}),
    )
    report = AxiomReport(tol=2.0, checks=checks)
    assert report.worst().name == "b"
    assert report.passed  # violations equal to tol still pass
    assert not AxiomReport(tol=1.9, checks=checks).passed
