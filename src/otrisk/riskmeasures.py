"""The named risk-measure families and their closed-form evaluators.

Four families share one interface:

* ``CVaR(beta)`` — expected shortfall at level beta, evaluated by the
  exact tail average (equivalently the Rockafellar-Uryasev infimum).
* ``HigherMoment(p, c)`` — inf over t of ``t + c*E[(X-t)_+^p]^(1/p)``,
  by golden-section search; a matching dual certificate is available.
* ``KusuokaMixture(atoms)`` — a convex mixture of CV@R levels, realized
  as one transport problem against the mixture's image measure.
* ``Explicit(generators, p)`` — a user-supplied generator family.

``evaluate_risk`` dispatches a spec against a measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InvalidMixture, InvalidParams, OutOfRange
from .measures import DiscreteMeasure, Order, as_order, conjugate_order
from .transport import (
    GeneratorSet,
    HullMode,
    finite_set_value,
    lipschitz_constant,
    transport_value,
)

__all__ = [
    "CVaR",
    "HigherMoment",
    "KusuokaMixture",
    "Explicit",
    "RiskSpec",
    "KusuokaImage",
    "cvar",
    "cvar_target_set",
    "higher_moment",
    "higher_moment_certificate",
    "kusuoka_image",
    "evaluate_risk",
    "lipschitz_and_order",
]

# betas this close to 1 would need unbounded target supports; refuse them
MAX_BETA = 1.0 - 1e-9


# ----------------------------------------------------------------------
# CV@R


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if math.isnan(beta) or beta < 0.0 or beta >= 1.0:
        raise OutOfRange(f"beta must lie in [0, 1), got {beta!r}")
    return beta


def cvar(m: DiscreteMeasure, beta: float) -> float:
    """Average of the worst (1-beta) tail, splitting the straddling atom.

    Exact closed form; equals inf_t { t + E[(X-t)_+]/(1-beta) }.
    """
    beta = _check_beta(beta)
    if beta == 0.0:
        return m.expectation()
    cw = m.cumulative
    lower = np.maximum(beta, np.concatenate(([0.0], cw[:-1])))
    overlap = np.maximum(cw - lower, 0.0)
    return math.fsum((m.positions * overlap).tolist()) / (1.0 - beta)


def cvar_target_set(beta: float) -> GeneratorSet:
    """The two-point target measure whose transport value is CV@R_beta."""
    beta = _check_beta(beta)
    if beta == 0.0:
        return GeneratorSet([1.0], [[1.0]])
    return GeneratorSet([0.0, 1.0 / (1.0 - beta)], [[beta, 1.0 - beta]])


# ----------------------------------------------------------------------
# higher-moment measures

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section_min(h, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Minimize a convex h over [lo, hi]; returns (h(t), t)."""
    a, b = lo, hi
    if b - a <= tol:
        t = 0.5 * (a + b)
        return h(t), t
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    h1, h2 = h(x1), h(x2)
    while b - a > tol:
        if h1 <= h2:
            b, x2, h2 = x2, x1, h1
            x1 = b - _INV_PHI * (b - a)
            h1 = h(x1)
        else:
            a, x1, h1 = x1, x2, h2
            x2 = a + _INV_PHI * (b - a)
            h2 = h(x2)
    t = 0.5 * (a + b)
    return h(t), t


def _check_pc(p: float, c: float) -> tuple[float, float]:
    p = float(p)
    c = float(c)
    if not (math.isfinite(p) and p > 1.0):
        raise InvalidParams(f"order p must be finite and > 1, got {p!r}")
    if not (math.isfinite(c) and c > 1.0):
        raise InvalidParams(f"scale c must be finite and > 1, got {c!r}")
    return p, c


def higher_moment(m: DiscreteMeasure, p: float, c: float) -> tuple[float, float]:
    """inf over t of t + c*E[(X-t)_+^p]^(1/p); returns (value, minimizer).

    The objective is convex and piecewise smooth with kinks at support
    points, so a bracketing golden-section search is used.  The bracket is
    [min support - range, max support]: one range-length of margin on the
    left because the minimizer can sit below the support.
    """
    p, c = _check_pc(p, c)
    x = m.positions
    w = m.weights
    span = float(x[-1] - x[0])
    if span == 0.0:
        return float(x[0]), float(x[0])
    inv_p = 1.0 / p

    def h(t: float) -> float:
        tail = np.maximum(x - t, 0.0)
        return t + c * float(w @ tail**p) ** inv_p

    return _golden_section_min(h, float(x[0]) - span, float(x[-1]), 1e-12 * (1.0 + span))


def higher_moment_certificate(
    m: DiscreteMeasure, p: float, c: float
) -> tuple[float, float, float]:
    """Dual certificate (t_bar, u_bar, dual_value) for :func:`higher_moment`.

    The dual potential is y -> t*y + u*y^q; its conjugate in x is
    (1/p)(u*q)^(-(p-1)) (x-t)_+^p, and the dual objective evaluates to
    E[conjugate] + t + u*c^q.  With u chosen as a^(1/p)/(q c^(q-1)) for
    a = E[(x-t)_+^p] this matches the primal objective at the same t.
    When a = 0 the potential degenerates to u = 0 and the value is t.
    """
    p, c = _check_pc(p, c)
    q = p / (p - 1.0)
    _, t_bar = higher_moment(m, p, c)
    tail = np.maximum(m.positions - t_bar, 0.0)
    a = float(m.weights @ tail**p)
    span = float(m.positions[-1] - m.positions[0])
    if a ** (1.0 / p) <= 1e-11 * (1.0 + span):
        # tail mass below solver resolution: the optimum sits at the
        # essential sup and the dual potential degenerates to u = 0
        return t_bar, 0.0, t_bar
    u_bar = a ** (1.0 / p) / (q * c ** (q - 1.0))
    conj = (1.0 / p) * (u_bar * q) ** (-(p - 1.0)) * tail**p
    dual_value = math.fsum((conj * m.weights).tolist()) + t_bar + u_bar * c**q
    return t_bar, u_bar, dual_value


# ----------------------------------------------------------------------
# Kusuoka mixtures


@dataclass(frozen=True)
class KusuokaImage:
    """A CV@R mixture as a step function and its image measure.

    ``psi_breaks`` lists (t, value): the mixture's quantile weight
    function equals ``value`` on [t, next t).  ``image_measure`` is the
    push-forward of Lebesgue measure on (0,1] through that step function;
    it has unit expectation, so the mixture is one transport problem.
    """

    psi_breaks: tuple[tuple[float, float], ...]
    image_measure: DiscreteMeasure


def kusuoka_image(atoms) -> KusuokaImage:
    """Build the step function and image measure of a CV@R mixture.

    ``atoms`` is a sequence of (beta, weight) with betas in [0, 1),
    weights > 0 summing to 1.  Duplicate betas merge.  The step function
    jumps by weight/(1-beta) at each beta (right-continuous).
    """
    arr = np.atleast_2d(np.asarray(list(atoms), dtype=float))
    if arr.size == 0:
        raise InvalidMixture("mixture needs at least one (beta, weight) atom")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidMixture(f"mixture atoms must be (beta, weight) pairs, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidMixture("mixture atoms must be finite")
    betas, weights = arr[:, 0], arr[:, 1]
    if np.any(betas < 0.0) or np.any(betas > MAX_BETA):
        raise InvalidMixture(f"mixture levels must lie in [0, {MAX_BETA}]")
    if np.any(weights <= 0.0):
        raise InvalidMixture("mixture weights must be strictly positive")
    if abs(math.fsum(weights.tolist()) - 1.0) > 1e-12:
        raise InvalidMixture("mixture weights must sum to 1 within 1e-12")

    order = np.argsort(betas, kind="stable")
    betas, weights = betas[order], weights[order]
    if np.any(np.diff(betas) == 0.0):
        uniq, inverse = np.unique(betas, return_inverse=True)
        merged = np.zeros(uniq.size)
        np.add.at(merged, inverse, weights)
        betas, weights = uniq, merged

    jumps = weights / (1.0 - betas)
    values = np.cumsum(jumps)
    breaks = [(0.0, 0.0)] if betas[0] > 0.0 else []
    breaks += list(zip(betas.tolist(), values.tolist()))

    upper = np.concatenate((betas[1:], [1.0]))
    masses = upper - betas
    positions = values
    if betas[0] > 0.0:
        positions = np.concatenate(([0.0], positions))
        masses = np.concatenate(([betas[0]], masses))
    return KusuokaImage(tuple(breaks), DiscreteMeasure(positions, masses))


# ----------------------------------------------------------------------
# risk specs and dispatch


@dataclass(frozen=True)
class CVaR:
    """Expected shortfall at level ``beta`` in [0, 1)."""

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_beta(self.beta))


@dataclass(frozen=True)
class HigherMoment:
    """inf_t { t + c * ||(X - t)_+||_p } with p > 1, c > 1."""

    p: float
    c: float

    def __post_init__(self):
        p, c = _check_pc(self.p, self.c)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "c", c)

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class KusuokaMixture:
    """Convex mixture of CV@R levels: atoms of (beta, weight)."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        norm = tuple(
            (float(b), float(w)) for b, w in np.atleast_2d(np.asarray(self.atoms, float))
        )
        object.__setattr__(self, "atoms", norm)
        # built (and so validated) eagerly, then shared by every evaluation
        object.__setattr__(self, "_image", kusuoka_image(norm))

    def image(self) -> KusuokaImage:
        return self._image


@dataclass(frozen=True)
class Explicit:
    """A user-supplied generator family, with the norm order for bounds."""

    generators: GeneratorSet
    p: Union[float, Order] = 2.0

    def __post_init__(self):
        object.__setattr__(self, "p", as_order(self.p))


RiskSpec = Union[CVaR, HigherMoment, KusuokaMixture, Explicit]


def evaluate_risk(spec: RiskSpec, m: DiscreteMeasure) -> float:
    """The risk of (the distribution) m under the given spec."""
    if isinstance(spec, CVaR):
        return cvar(m, spec.beta)
    if isinstance(spec, HigherMoment):
        return higher_moment(m, spec.p, spec.c)[0]
    if isinstance(spec, KusuokaMixture):
        return transport_value(m, spec.image().image_measure)
    if isinstance(spec, Explicit):
        if spec.generators.hull_mode is HullMode.FINITE_SET:
            return finite_set_value(m, spec.generators)[0]
        from .dualsolver import SolverOptions, duality_gap_report

        return duality_gap_report(m, spec.generators, SolverOptions()).primal_lower
    raise InvalidParams(f"unknown risk spec {spec!r}")


def lipschitz_and_order(spec: RiskSpec) -> tuple[float, Union[float, Order]]:
    """(L, p) such that |rho(X) - rho(Y)| <= L * W_p(law X, law Y).

    CV@R and mixtures are Lipschitz in W_1; a higher-moment measure with
    order p is c-Lipschitz in W_p; an explicit family gets the largest
    conjugate moment of its generators.
    """
    if isinstance(spec, CVaR):
        return 1.0 / (1.0 - spec.beta), 1.0
    if isinstance(spec, HigherMoment):
        return spec.c, spec.p
    if isinstance(spec, KusuokaMixture):
        image = spec.image().image_measure
        return float(image.positions[-1]), 1.0
    if isinstance(spec, Explicit):
        return lipschitz_constant(spec.generators, conjugate_order(spec.p)), spec.p
    raise InvalidParams(f"unknown risk spec {spec!r}")
