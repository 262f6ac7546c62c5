"""Numerical falsification harness for the risk-measure axioms and bounds.

Everything here is driven by a small deterministic generator so that any
reported violation is reproducible from the seed alone, on any platform:

    state := (state + 0x9E3779B97F4A7C15) mod 2^64
    z := state
    z := (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2^64)
    z := (z XOR (z >> 27)) * 0x94D049BB133111EB   (mod 2^64)
    z := z XOR (z >> 31)
    uniform := (z >> 11) * 2^-53

The checks evaluate a risk functional on equal-weight empirical vectors,
where translation, scaling, coordinatewise comparison and convex
combination are all well-defined pointwise operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, LengthMismatch
from .measures import from_samples
from .riskmeasures import (
    CVaR,
    Explicit,
    HigherMoment,
    KusuokaMixture,
    RiskSpec,
    evaluate_risk,
    lipschitz_and_order,
)
from .transport import HullMode

__all__ = [
    "SplitMix64",
    "AxiomCheck",
    "AxiomReport",
    "sample_pairs",
    "default_tolerance",
    "check_axioms",
    "check_bounds",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The 64-bit splitmix generator; see the module docstring for the
    exact update, which is part of the library's reproducibility contract."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_raw(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """A float in [0, 1) from the top 53 bits."""
        return (self.next_raw() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def integer(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo reduction; the tiny
        bias is irrelevant for instance generation)."""
        return lo + self.next_raw() % (hi - lo + 1)


def sample_pairs(seed: int, count: int, max_len: int = 12, scale: float = 10.0):
    """Deterministic paired sample vectors for the checks below.

    Each item is a pair (x1, x2) of equal-length float arrays with
    entries in [-scale, scale].  Lengths vary between 1 and max_len.
    """
    gen = SplitMix64(seed)
    pairs = []
    for _ in range(count):
        n = gen.integer(1, max_len)
        x1 = np.array([gen.uniform_in(-scale, scale) for _ in range(n)])
        x2 = np.array([gen.uniform_in(-scale, scale) for _ in range(n)])
        pairs.append((x1, x2))
    return pairs


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    max_violation: float
    witness: dict | None


@dataclass(frozen=True)
class AxiomReport:
    tol: float
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.max_violation <= self.tol for c in self.checks)

    def worst(self) -> AxiomCheck:
        return max(self.checks, key=lambda c: c.max_violation)


def default_tolerance(spec: RiskSpec) -> float:
    """1e-9 for closed-form families, 1e-6 for hull families and higher-moment.

    Hull values are iterative.  Higher-moment values are exact, but keep
    1e-6 so that the ``tol`` in their ``check`` reports stays the same.
    """
    if isinstance(spec, HigherMoment):
        return 1e-6
    if isinstance(spec, Explicit) and spec.generators.hull_mode is HullMode.CONVEX_HULL:
        return 1e-6
    return 1e-9


class _Tracker:
    """Keeps the worst violation and its witness per check name."""

    def __init__(self, names):
        self.worst = {name: (0.0, None) for name in names}

    def record(self, name, violation, witness):
        violation = max(0.0, float(violation))
        if self.worst[name][1] is None or violation > self.worst[name][0]:
            self.worst[name] = (violation, witness)

    def report(self, tol) -> AxiomReport:
        checks = tuple(
            AxiomCheck(name, v, w) for name, (v, w) in self.worst.items()
        )
        return AxiomReport(tol=tol, checks=checks)


def _validated_pairs(samples):
    pairs = list(samples)
    if not pairs:
        raise EmptyInput("no sample pairs to check")
    out = []
    for x1, x2 in pairs:
        a1 = np.asarray(x1, dtype=float)
        a2 = np.asarray(x2, dtype=float)
        if a1.shape != a2.shape:
            raise LengthMismatch(
                f"paired vectors must have equal length, got {a1.shape} vs {a2.shape}"
            )
        out.append((a1, a2))
    return out


def check_axioms(spec: RiskSpec, samples, tol: float, seed: int = 0) -> AxiomReport:
    """Measure worst-case violations of the four coherence axioms.

    For each pair (x1, x2) one random shift alpha in [-10, 10], scale
    delta in [0, 10] and mixing weight theta in [0, 1] are drawn from
    the seeded generator and the following are accumulated:

    * translation:   |rho(x1 + alpha) - rho(x1) - alpha|
    * homogeneity:   |rho(delta*x1) - delta*rho(x1)|
    * monotonicity:  rho(x1) - rho(max(x1, x2)) clipped at 0
    * convexity:     rho((1-theta)x1 + theta*x2) - mixture of values, clipped

    A fifth entry, monotonicity_fsd, replaces the coordinatewise
    comparison by dominance of the sorted vectors; it checks the same
    conclusion through a purely distributional route and is reported as
    its own line rather than folded into the monotonicity number.
    """
    pairs = _validated_pairs(samples)
    gen = SplitMix64(seed)
    tracker = _Tracker(
        ["translation", "homogeneity", "monotonicity", "convexity", "monotonicity_fsd"]
    )

    def rho(vec):
        return evaluate_risk(spec, from_samples(vec))

    for x1, x2 in pairs:
        alpha = gen.uniform_in(-10.0, 10.0)
        delta = gen.uniform_in(0.0, 10.0)
        theta = gen.uniform()
        r1 = rho(x1)

        tracker.record(
            "translation",
            abs(rho(x1 + alpha) - r1 - alpha),
            {"x1": x1.tolist(), "alpha": alpha},
        )
        tracker.record(
            "homogeneity",
            abs(rho(delta * x1) - delta * r1),
            {"x1": x1.tolist(), "delta": delta},
        )
        upper = np.maximum(x1, x2)
        tracker.record(
            "monotonicity",
            r1 - rho(upper),
            {"x1": x1.tolist(), "x2": upper.tolist()},
        )
        r2 = rho(x2)
        blend = (1.0 - theta) * x1 + theta * x2
        tracker.record(
            "convexity",
            rho(blend) - ((1.0 - theta) * r1 + theta * r2),
            {"x1": x1.tolist(), "x2": x2.tolist(), "theta": theta},
        )
        dominating = np.maximum(np.sort(x1), np.sort(x2))
        tracker.record(
            "monotonicity_fsd",
            r1 - rho(dominating),
            {"x1": x1.tolist(), "x2": x2.tolist()},
        )
    return tracker.report(tol)


def check_bounds(spec: RiskSpec, samples, tol: float) -> AxiomReport:
    """Measure worst-case violations of the three structural bounds.

    * aversity:    E[x] <= rho(x), on both vectors of each pair
    * lipschitz:   |rho(x2) - rho(x1)| <= L * ||x2 - x1||_p
    * elementary:  |rho(x)| <= moment_p(x) * L

    with (L, p) supplied by lipschitz_and_order for the given family.
    """
    pairs = _validated_pairs(samples)
    L, p = lipschitz_and_order(spec)
    tracker = _Tracker(["aversity", "lipschitz", "elementary"])

    for x1, x2 in pairs:
        m1 = from_samples(x1)
        m2 = from_samples(x2)
        r1 = evaluate_risk(spec, m1)
        r2 = evaluate_risk(spec, m2)

        for vec, m, r in ((x1, m1, r1), (x2, m2, r2)):
            witness = {"x": vec.tolist()}
            tracker.record("aversity", m.expectation() - r, witness)
            tracker.record("elementary", abs(r) - m.moment(p) * L, witness)

        diff_norm = from_samples(np.abs(x2 - x1)).moment(p)
        tracker.record(
            "lipschitz",
            abs(r2 - r1) - L * diff_norm,
            {"x1": x1.tolist(), "x2": x2.tolist(), "L": L},
        )
    return tracker.report(tol)
