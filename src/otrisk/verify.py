"""Numerical falsification harness for the risk-measure axioms and bounds.

Everything here is driven by a small deterministic generator so that any
reported violation is reproducible from the seed alone, on any platform:

    state := (state + 0x9E3779B97F4A7C15) mod 2^64
    z := state
    z := (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2^64)
    z := (z XOR (z >> 27)) * 0x94D049BB133111EB   (mod 2^64)
    z := z XOR (z >> 31)
    uniform := (z >> 11) * 2^-53

The k-th output is thus the mix of seed + k*0x9E3779B97F4A7C15, so the
harness draws whole stretches of the stream in one numpy pass.

The checks evaluate a risk functional on equal-weight empirical vectors,
where translation, scaling, coordinatewise comparison and convex
combination are all well-defined pointwise operations.  The pairs are
grouped by length, and every vector one check needs from a group's pairs
is priced in one :func:`~otrisk.riskmeasures.evaluate_batch` call; each
check then reports its largest violation, clipped at 0, with the witness
of the first pair that attains it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidParams, LengthMismatch
from .measures import INF
from .riskmeasures import (
    Explicit,
    HigherMoment,
    RiskSpec,
    evaluate_batch,
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


def _splitmix_raw(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of ``SplitMix64(seed).next_raw()``.

    Output k mixes seed + k*gamma, so any stretch of the stream is one
    vectorized pass; uint64 arithmetic wraps mod 2^64 as the update does.
    """
    k = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(int(seed) & _MASK64) + k * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _uniforms(raw: np.ndarray, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """:meth:`SplitMix64.uniform_in` of each raw output, in the same float steps."""
    return lo + (hi - lo) * ((raw >> np.uint64(11)).astype(float) * 2.0**-53)


# pairs drawn per block of the stream in sample_pairs
_PAIR_BLOCK = 4096


def sample_pairs(seed: int, count: int, max_len: int = 12, scale: float = 10.0):
    """Deterministic paired sample vectors for the checks below.

    Each item is a pair (x1, x2) of equal-length float arrays with
    entries in [-scale, scale].  Lengths vary between 1 and max_len.
    The draws are those of ``SplitMix64(seed)``: per pair, its length
    ``integer(1, max_len)``, then x1 and x2 by ``uniform_in(-scale, scale)``.
    """
    if max_len < 1:
        raise InvalidParams(f"max_len must be at least 1, got {max_len!r}")
    pairs = []
    offset = 0
    while len(pairs) < count:
        block = min(count - len(pairs), _PAIR_BLOCK)
        # enough draws for the longest pairs; a block of pairs uses fewer
        raw = _splitmix_raw(seed, offset, block * (1 + 2 * max_len))
        lengths = (raw % np.uint64(max_len) + np.uint64(1)).tolist()
        values = _uniforms(raw, -scale, scale)
        at = 0
        for _ in range(block):
            n = lengths[at]
            x = values[at + 1 : at + 1 + 2 * n]
            pairs.append((x[:n].copy(), x[n:].copy()))
            at += 1 + 2 * n
        offset += at
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


def _validated_pairs(samples):
    pairs = list(samples)
    if not pairs:
        raise EmptyInput("no sample pairs to check")
    out = []
    for x1, x2 in pairs:
        a1 = np.atleast_1d(np.asarray(x1, dtype=float))
        a2 = np.atleast_1d(np.asarray(x2, dtype=float))
        if a1.shape != a2.shape:
            raise LengthMismatch(
                f"paired vectors must have equal length, got {a1.shape} vs {a2.shape}"
            )
        if a1.ndim != 1:
            raise LengthMismatch("paired vectors must be flat sequences")
        out.append((a1, a2))
    return out


def _by_length(pairs):
    """(indices, X1, X2) per length: the pairs of one length stacked as rows."""
    groups = {}
    for i, (x1, _) in enumerate(pairs):
        groups.setdefault(x1.size, []).append(i)
    for idx in groups.values():
        yield (
            np.array(idx),
            np.array([pairs[i][0] for i in idx]),
            np.array([pairs[i][1] for i in idx]),
        )


def _worst(violations: np.ndarray) -> tuple[float, int]:
    """The largest violation clipped at 0, and the first candidate that
    attains it (candidate 0 when nothing is violated)."""
    clipped = np.fmax(violations, 0.0)
    best = int(np.argmax(clipped))
    return float(clipped[best]), best


def _row_moments(x: np.ndarray, p) -> np.ndarray:
    """:meth:`DiscreteMeasure.moment` of each equal-weight row of x.

    Each row is divided exactly by the power of two above its largest
    entry before the power, so that none overflows.
    """
    a = np.abs(x)
    if p is INF:
        return a.max(axis=1)
    e = np.frexp(a.max(axis=1))[1]
    powers = np.ldexp(a, -e[:, None]) ** p
    return np.ldexp((powers.sum(axis=1) / x.shape[1]) ** (1.0 / p), e)


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
    raw = _splitmix_raw(seed, 0, 3 * len(pairs)).reshape(-1, 3)
    alpha = _uniforms(raw[:, 0], -10.0, 10.0)
    delta = _uniforms(raw[:, 1], 0.0, 10.0)
    theta = _uniforms(raw[:, 2])
    # each check, with what its witness holds besides x1 of the worst pair i
    extras = {
        "translation": lambda i: {"alpha": float(alpha[i])},
        "homogeneity": lambda i: {"delta": float(delta[i])},
        "monotonicity": lambda i: {"x2": np.maximum(*pairs[i]).tolist()},
        "convexity": lambda i: {"x2": pairs[i][1].tolist(), "theta": float(theta[i])},
        "monotonicity_fsd": lambda i: {"x2": pairs[i][1].tolist()},
    }
    found = {name: np.empty(len(pairs)) for name in extras}
    for idx, x1, x2 in _by_length(pairs):
        a, d, t = alpha[idx], delta[idx], theta[idx]
        rows = (
            x1,
            x1 + a[:, None],
            d[:, None] * x1,
            np.maximum(x1, x2),
            x2,
            (1.0 - t[:, None]) * x1 + t[:, None] * x2,
            np.maximum(np.sort(x1, axis=1), np.sort(x2, axis=1)),
        )
        r1, shifted, scaled, upper, r2, blend, dominating = evaluate_batch(
            spec, np.concatenate(rows)
        ).reshape(len(rows), -1)
        found["translation"][idx] = np.abs(shifted - r1 - a)
        found["homogeneity"][idx] = np.abs(scaled - d * r1)
        found["monotonicity"][idx] = r1 - upper
        found["convexity"][idx] = blend - ((1.0 - t) * r1 + t * r2)
        found["monotonicity_fsd"][idx] = r1 - dominating

    checks = []
    for name, extra in extras.items():
        worst, i = _worst(found[name])
        checks.append(AxiomCheck(name, worst, {"x1": pairs[i][0].tolist(), **extra(i)}))
    return AxiomReport(tol=tol, checks=tuple(checks))


def check_bounds(spec: RiskSpec, samples, tol: float) -> AxiomReport:
    """Measure worst-case violations of the three structural bounds.

    * aversity:    E[x] <= rho(x), on both vectors of each pair
    * lipschitz:   |rho(x2) - rho(x1)| <= L * ||x2 - x1||_p
    * elementary:  |rho(x)| <= moment_p(x) * L

    with (L, p) supplied by lipschitz_and_order for the given family.
    """
    pairs = _validated_pairs(samples)
    L, p = lipschitz_and_order(spec)
    # candidates 2i and 2i + 1 are x1 and x2 of pair i
    aversity = np.empty(2 * len(pairs))
    elementary = np.empty(2 * len(pairs))
    lipschitz = np.empty(len(pairs))
    for idx, x1, x2 in _by_length(pairs):
        x = np.concatenate((x1, x2))
        r = evaluate_batch(spec, x)
        # L times the moments of x1, x2 and x2 - x1, from one call
        bound = _row_moments(np.concatenate((x, x2 - x1)), p) * L
        both = np.concatenate((2 * idx, 2 * idx + 1))
        aversity[both] = x.mean(axis=1) - r
        elementary[both] = np.abs(r) - bound[: len(x)]
        r1, r2 = r.reshape(2, -1)
        lipschitz[idx] = np.abs(r2 - r1) - bound[len(x) :]

    checks = []
    for name, violations in (
        ("aversity", aversity),
        ("lipschitz", lipschitz),
        ("elementary", elementary),
    ):
        worst, i = _worst(violations)
        if name == "lipschitz":
            witness = {"x1": pairs[i][0].tolist(), "x2": pairs[i][1].tolist(), "L": L}
        else:
            witness = {"x": pairs[i // 2][i % 2].tolist()}
        checks.append(AxiomCheck(name, worst, witness))
    return AxiomReport(tol=tol, checks=tuple(checks))
