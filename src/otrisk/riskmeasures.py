"""The named risk-measure families and their closed-form evaluators.

Four families share one interface:

* ``CVaR(beta)`` — expected shortfall at level beta, evaluated by the
  exact tail average (equivalently the Rockafellar-Uryasev infimum).
* ``HigherMoment(p, c)`` — inf over t of ``t + c*E[(X-t)_+^p]^(1/p)``,
  solved exactly: a binary search over the atoms, then the root of the
  slope inside one cell (closed-form for p = 2); a matching dual
  certificate is available.
* ``KusuokaMixture(atoms)`` — a convex mixture of CV@R levels, realized
  as one transport problem against the mixture's image measure.
* ``Explicit(generators, p)`` — a user-supplied generator family.

``evaluate_risk`` dispatches a spec against a measure;
``evaluate_batch`` prices many equal-weight scenario vectors at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    EmptyInput,
    InvalidMixture,
    InvalidParams,
    LengthMismatch,
    NonFiniteValue,
    OutOfRange,
)
from .measures import (
    DiscreteMeasure,
    Order,
    _excess_prefix,
    _fsum,
    _integrated_excess,
    _merged,
    as_order,
    conjugate_order,
    from_samples,
)
from .transport import (
    GeneratorSet,
    HullMode,
    _grid_values,
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
    "evaluate_batch",
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

    Exact closed form (Phi(1) - Phi(beta))/(1-beta) = inf_t { t + E[(X-t)_+]/(1-beta) }.
    """
    beta = _check_beta(beta)
    if beta == 0.0:
        return m.expectation()
    at_beta, at_one = m.integrated_excess([beta, 1.0]).tolist()
    return float(m.positions[0]) + (at_one - at_beta) / (1.0 - beta)


def cvar_target_set(beta: float) -> GeneratorSet:
    """The two-point target measure whose transport value is CV@R_beta."""
    beta = _check_beta(beta)
    if beta == 0.0:
        return GeneratorSet([1.0], [[1.0]])
    return GeneratorSet([0.0, 1.0 / (1.0 - beta)], [[beta, 1.0 - beta]])


# ----------------------------------------------------------------------
# higher-moment measures

def _check_pc(p: float, c: float) -> tuple[float, float]:
    p = float(p)
    c = float(c)
    if not (math.isfinite(p) and p > 1.0):
        raise InvalidParams(f"order p must be finite and > 1, got {p!r}")
    if not (math.isfinite(c) and c > 1.0):
        raise InvalidParams(f"scale c must be finite and > 1, got {c!r}")
    return p, c


def _rescaled(m: DiscreteMeasure) -> tuple[np.ndarray, float, float]:
    """The atoms as z = (x - x_max)/span in [-1, 0], with x_max and span."""
    x_max = float(m.positions[-1])
    span = x_max - float(m.positions[0])
    return (m.positions - x_max) / span, x_max, span


def _row_slopes(z: np.ndarray, w: np.ndarray, s: np.ndarray, p: float, c: float) -> np.ndarray:
    """h'(s) = 1 - c*B_{p-1}/B_p^((p-1)/p) of each row of z at its own s < 0.

    The columns of z are atoms with the masses w, and end with the largest
    atom, 0.  B_r is w @ tau^r over the tails divided by the largest one,
    tau = (z - s)_+/-s, so that no power underflows at any p; atoms at or
    below s have no tail.
    """
    tau = z - s[:, None]
    np.maximum(tau, 0.0, out=tau)
    tau /= -s[:, None]
    tau_p1 = tau ** (p - 1.0)
    b1 = tau_p1 @ w
    tau_p1 *= tau
    return 1.0 - c * b1 / (tau_p1 @ w) ** ((p - 1.0) / p)


def _higher_moment_rows(x: np.ndarray, w: np.ndarray, p: float, c: float):
    """(values, minimizers) of :func:`higher_moment` for the sorted rows of x,
    whose columns carry the masses w.

    The solve that :func:`higher_moment` describes, run on all rows at
    once; each pass reads only the columns above every row's search point.
    Ties within a row may stay unmerged: the largest atom's mass is that
    of all its copies.
    """
    n = x.shape[1]
    x_max = x[:, -1]
    is_top = x == x_max[:, None]
    ties = is_top.sum(axis=1)
    a = n - ties.max()
    values = x_max.copy()
    minimizers = x_max.copy()
    # constant rows have all the mass on top and so fail this test too, as c > 1
    live = 1.0 - c * (is_top[:, a:] @ w[a:]) ** (1.0 / p) > 0.0
    if not live.any():
        return values, minimizers
    x, x_max = x[live], x_max[live]
    span = x_max - x[:, 0]
    z = (x - x_max[:, None]) / span[:, None]
    rows = np.arange(z.shape[0])
    # the smallest k with h'(z_k) >= 0; h' > 0 above the largest atom below the top
    lo_k, k = np.zeros(len(rows), dtype=np.intp), n - ties[live] - 1
    while (searching := lo_k < k).any():
        # a row done searching has mid == k, and so keeps its k
        mid = (lo_k + k) // 2
        a = mid[searching].min() + 1
        up = _row_slopes(z[:, a:], w[a:], z[rows, mid], p, c) >= 0.0
        k = np.where(up, mid, k)
        lo_k = np.where(up, lo_k, mid + 1)
    # the root lies in (lo, z_k], where the active atoms are z[k:]
    below = z[rows, np.maximum(k - 1, 0)]
    lo = below.copy()
    first = k == 0
    lo[first] = (c * (z[first] @ w) - c + 1.0) / (c - 1.0)
    hi = z[rows, k]
    a = k.min()
    z, w = z[:, a:], w[a:]
    if p == 2.0:
        # mu - sqrt(V/(c^2*W - 1)) from the mass W, mean mu and variance V of
        # the active atoms, taken in two passes on z - below; with
        # c^2*W <= 1, h' > 0 throughout and the root is lo
        active = np.arange(a, n) >= k[:, None]
        mass = active @ w
        y = np.where(active, z - below[:, None], 0.0)
        mean = (y @ w) / mass
        y = np.where(active, y - mean[:, None], 0.0)
        excess = c * c * mass - 1.0
        dist = np.full(len(rows), math.inf)
        ok = excess > 0.0
        dist[ok] = np.sqrt(((y[ok] * y[ok]) @ w) / mass[ok] / excess[ok])
        s = np.minimum(np.maximum(below + mean - dist, lo), hi)
    else:
        # rows already closed keep halving their cells, which does no harm
        while (hi - lo > 1e-15 * (1.0 - lo)).any():
            mid = 0.5 * (lo + hi)
            up = _row_slopes(z, w, mid, p, c) >= 0.0
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        s = hi
    tau = np.maximum(z - s[:, None], 0.0) / -s[:, None]
    values[live] = x_max + span * (s - c * s * ((tau**p) @ w) ** (1.0 / p))
    minimizers[live] = x_max + span * s
    return values, minimizers


def higher_moment(m: DiscreteMeasure, p: float, c: float) -> tuple[float, float]:
    """inf over t of t + c*E[(X-t)_+^p]^(1/p); returns (value, minimizer).

    Exact, on the atoms rescaled to z in [-1, 0] (Krokhmal 2007).  The
    objective h is convex with slope h'(s) = 1 - c*E[(z-s)_+^(p-1)] /
    E[(z-s)_+^p]^((p-1)/p), which is nondecreasing and equals
    1 - c*w_max^(1/p) just below the largest atom: when that is <= 0 the
    minimizer is the largest atom.  Otherwise a binary search over the
    atoms on the sign of h' finds the cell between two atoms, or below the
    smallest, where the active tails are fixed, and the root is solved
    there: in closed form for p = 2, by bisection on the sign of h'
    otherwise.  Below the smallest atom the root is no less than
    (c*E z - c + 1)/(c - 1), by Jensen.  The measure is solved as a batch
    of one row, by the solver that :func:`evaluate_batch` runs on many.
    """
    p, c = _check_pc(p, c)
    values, minimizers = _higher_moment_rows(m.positions[None], m.weights, p, c)
    return float(values[0]), float(minimizers[0])


def higher_moment_certificate(
    m: DiscreteMeasure, p: float, c: float
) -> tuple[float, float, float]:
    """Dual certificate (t_bar, u_bar, dual_value) for :func:`higher_moment`.

    The dual potential is y -> t*y + u*y^q; its conjugate in x is
    (1/p)(u*q)^(-(p-1)) (x-t)_+^p, and the dual objective evaluates to
    E[conjugate] + t + u*c^q.  With u chosen as a^(1/p)/(q c^(q-1)) for
    a = E[(x-t)_+^p] this matches the primal objective at the same t.
    When a = 0 the potential degenerates to u = 0 and the value is t.
    Computed on the rescaled atoms, where u is u_bar/span, with the tails
    divided by the largest one, -s, so that no power overflows.
    """
    p, c = _check_pc(p, c)
    return _certificate_at(m, p, c, higher_moment(m, p, c)[1])


def _certificate_at(
    m: DiscreteMeasure, p: float, c: float, t_bar: float
) -> tuple[float, float, float]:
    """The certificate of :func:`higher_moment_certificate` at its minimizer t_bar.

    For callers that already ran :func:`higher_moment`, which checked p and c.
    """
    if t_bar >= m.positions[-1]:
        return t_bar, 0.0, t_bar
    q = p / (p - 1.0)
    z, x_max, span = _rescaled(m)
    s = (t_bar - x_max) / span
    tail = np.maximum(z - s, 0.0) / -s
    root = float(m.weights @ tail**p) ** (1.0 / p)  # a^(1/p) / -s, a on the rescaled atoms
    uq = -s * root / c ** (q - 1.0)
    conj = (uq / p) * (tail * (c ** (q - 1.0) / root)) ** p
    dual_z = _fsum(conj * m.weights) + uq / q * c**q
    return t_bar, span * uq / q, t_bar + span * dual_z


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
    if abs(_fsum(weights) - 1.0) > 1e-12:
        raise InvalidMixture("mixture weights must sum to 1 within 1e-12")

    betas, weights = _merged(betas, weights)

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
    """The risk of (the distribution) m under the given spec.

    Raises :class:`NonFiniteValue` when the span of m's atoms overflows.
    """
    if not math.isfinite(float(m.positions[-1]) - float(m.positions[0])):
        raise NonFiniteValue("the span of the atoms overflows a double")
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


def evaluate_batch(spec: RiskSpec, X) -> np.ndarray:
    """The risk of each row of X, a (B, n) array of equal-weight scenarios.

    Row i gives ``evaluate_risk(spec, from_samples(X[i]))`` to round-off.
    The rows are sorted once and read as measures on the shared grid k/n,
    through the same code as a single measure: CV@R, Kusuoka mixtures and
    finite families pair one row-wise prefix of the integrated quantile
    with their targets by parts, and higher-moment runs its exact solve
    across the rows.  Hull families go through :func:`evaluate_risk` row
    by row, so that they keep one exact solver.  Raises
    :class:`NonFiniteValue` when a value or the span of a row is not finite.
    """
    x = np.asarray(X, dtype=float)
    if x.size == 0:
        raise EmptyInput("a batch needs at least one row of at least one scenario")
    if x.ndim != 2:
        raise LengthMismatch(f"a batch must be a (rows, scenarios) array, got shape {x.shape}")
    x = np.sort(x, axis=1)
    # a sorted row ends on its nan, or on an infinity, if it holds one
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(x[:, -1] - x[:, 0]).all():
            raise NonFiniteValue("scenario values and the span of each row must be finite")
    if isinstance(spec, Explicit) and spec.generators.hull_mode is HullMode.CONVEX_HULL:
        return np.array([evaluate_risk(spec, from_samples(row)) for row in x])
    n = x.shape[1]
    if isinstance(spec, HigherMoment):
        return _higher_moment_rows(x, np.full(n, 1.0 / n), spec.p, spec.c)[0]
    if isinstance(spec, CVaR):
        target = cvar_target_set(spec.beta)
        y, rows = target.support, target.vertices
    elif isinstance(spec, KusuokaMixture):
        image = spec.image().image_measure
        y, rows = image.positions, image.weights[None, :]
    elif isinstance(spec, Explicit):
        y, rows = spec.generators.support, spec.generators.vertices
    else:
        raise InvalidParams(f"unknown risk spec {spec!r}")
    cum = np.arange(1, n + 1) / n
    edges, prefix = _excess_prefix(x, cum)
    excess = functools.partial(_integrated_excess, x, cum, edges, prefix)
    return _grid_values(x[:, :1], excess, y, rows).max(axis=1)


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
