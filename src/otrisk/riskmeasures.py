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
from .measures import DiscreteMeasure, Order, as_order, conjugate_order, from_samples
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


def _slope(z: np.ndarray, w: np.ndarray, s: float, p: float, c: float) -> float:
    """h'(s) = 1 - c*B_{p-1}/B_p^((p-1)/p) from the atoms z > s with masses w.

    z ends with the largest atom, 0, and B_r is sum w*tau^r over the tails
    divided by the largest one, tau = (z - s)/-s, so that no power
    underflows at any p.
    """
    tau = z - s
    tau /= -s
    tau_p1 = tau ** (p - 1.0)
    b1 = float(w @ tau_p1)
    tau_p1 *= tau
    return 1.0 - c * b1 / float(w @ tau_p1) ** ((p - 1.0) / p)


def _quadratic_root(z, w, a: float, lo: float, hi: float, c: float) -> float:
    """The root of h' for p = 2 with the atoms z active, clamped to [lo, hi].

    It is mu - sqrt(V/(c^2*W - 1)) from the mass W, mean mu and variance V
    of the atoms, taken in two passes on z - a; with c^2*W <= 1, h' > 0
    throughout and the root is lo.
    """
    y = z - a
    mass = float(w.sum())
    mean = float(w @ y) / mass
    y -= mean
    excess = c * c * mass - 1.0
    dist = math.sqrt(float(w @ (y * y)) / mass / excess) if excess > 0.0 else math.inf
    return min(max(a + mean - dist, lo), hi)


def _bisect_in_cell(z, w, lo: float, hi: float, p: float, c: float) -> float:
    """The root of h' in (lo, hi], where the atoms z >= hi are active and
    h'(lo) <= 0 <= h'(hi), by bisection on the sign of :func:`_slope`."""
    while hi - lo > 1e-15 * (1.0 - lo):
        mid = 0.5 * (lo + hi)
        if _slope(z, w, mid, p, c) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


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
    (c*E z - c + 1)/(c - 1), by Jensen.
    """
    p, c = _check_pc(p, c)
    x_max = float(m.positions[-1])
    w = m.weights
    if m.n_atoms == 1 or 1.0 - c * float(w[-1]) ** (1.0 / p) <= 0.0:
        return x_max, x_max
    z, _, span = _rescaled(m)
    # the smallest k with h'(z_k) >= 0; h' > 0 between the two largest atoms
    lo_k, k = 0, m.n_atoms - 2
    while lo_k < k:
        mid = (lo_k + k) // 2
        if _slope(z[mid + 1 :], w[mid + 1 :], float(z[mid]), p, c) >= 0.0:
            k = mid
        else:
            lo_k = mid + 1
    # the root lies in (lo, z_k], where the active atoms are z[k:]
    zk, wk = z[k:], w[k:]
    lo = float(z[k - 1]) if k else (c * float(w @ z) - c + 1.0) / (c - 1.0)
    hi = float(z[k])
    if p == 2.0:
        s = _quadratic_root(zk, wk, float(z[max(k - 1, 0)]), lo, hi, c)
    else:
        s = _bisect_in_cell(zk, wk, lo, hi, p, c)
    tau = (zk - s) / -s
    value = s - c * s * float(wk @ tau**p) ** (1.0 / p)
    return x_max + span * value, x_max + span * s


def _row_slopes(z: np.ndarray, s: np.ndarray, p: float, c: float) -> np.ndarray:
    """:func:`_slope` of each equal-weight row of z at its own s < 0.

    Atoms at or below s have no tail, so every atom enters, clipped at 0.
    """
    tau = np.maximum(z - s[:, None], 0.0)
    tau /= -s[:, None]
    tau_p1 = tau ** (p - 1.0)
    n = z.shape[1]
    b1 = tau_p1.sum(axis=1) / n
    tau_p1 *= tau
    return 1.0 - c * b1 / (tau_p1.sum(axis=1) / n) ** ((p - 1.0) / p)


def _higher_moment_rows(x: np.ndarray, p: float, c: float) -> np.ndarray:
    """:func:`higher_moment` values of the sorted equal-weight rows of x.

    The same solve, run across the rows at once: the binary search over
    the atoms, then the root in one cell, in closed form for p = 2 and by
    bisection otherwise.  Ties stay unmerged; they change no tail sum,
    and the largest atom's mass is its tie count over n.
    """
    n = x.shape[1]
    x_max = x[:, -1]
    top = (x == x_max[:, None]).sum(axis=1)
    values = x_max.copy()
    # constant rows have top == n and so fail this test too, as c > 1
    live = 1.0 - c * (top / n) ** (1.0 / p) > 0.0
    if not live.any():
        return values
    x, x_max, top = x[live], x_max[live], top[live]
    span = x_max - x[:, 0]
    z = (x - x_max[:, None]) / span[:, None]
    rows = np.arange(z.shape[0])
    # the smallest k with h'(z_k) >= 0; h' > 0 above the largest atom below the top
    lo_k, k = np.zeros_like(top), n - top - 1
    while (searching := lo_k < k).any():
        mid = (lo_k + k) // 2
        up = _row_slopes(z, z[rows, mid], p, c) >= 0.0
        k = np.where(searching & up, mid, k)
        lo_k = np.where(searching & ~up, mid + 1, lo_k)
    # the root lies in (lo, z_k], where the active atoms are z[k:]
    jensen = (c * z.mean(axis=1) - c + 1.0) / (c - 1.0)
    below = z[rows, np.maximum(k - 1, 0)]
    lo = np.where(k > 0, below, jensen)
    hi = z[rows, k]
    if p == 2.0:
        # _quadratic_root, row-wise, anchored at the cell's left atom
        active = np.arange(n) >= k[:, None]
        count = n - k
        y = np.where(active, z - below[:, None], 0.0)
        mean = y.sum(axis=1) / count
        y = np.where(active, y - mean[:, None], 0.0)
        excess = c * c * count / n - 1.0
        dist = np.full(len(rows), math.inf)
        ok = excess > 0.0
        dist[ok] = np.sqrt((y[ok] * y[ok]).sum(axis=1) / count[ok] / excess[ok])
        s = np.minimum(np.maximum(below + mean - dist, lo), hi)
    else:
        # _bisect_in_cell, row-wise
        while (open_ := hi - lo > 1e-15 * (1.0 - lo)).any():
            mid = 0.5 * (lo + hi)
            up = _row_slopes(z, mid, p, c) >= 0.0
            hi = np.where(open_ & up, mid, hi)
            lo = np.where(open_ & ~up, mid, lo)
        s = hi
    tau = np.maximum(z - s[:, None], 0.0) / -s[:, None]
    value = s - c * s * ((tau**p).sum(axis=1) / n) ** (1.0 / p)
    values[live] = x_max + span * value
    return values


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
    dual_z = math.fsum((conj * m.weights).tolist()) + uq / q * c**q
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


def _row_excess(x: np.ndarray):
    """The integrated excess of each sorted equal-weight row of x, as a
    function of levels u shared by all rows; see
    :meth:`DiscreteMeasure.integrated_excess`.

    The cumulative weights are the exact grid k/n, so every row has the same
    cells; ties need no merging, since Phi does not change.
    """
    n = x.shape[1]
    cells = np.arange(1, n) / n
    prefix = np.zeros(x.shape)
    np.cumsum(x[:, :-1] - x[:, :1], axis=1, out=prefix[:, 1:])
    prefix /= n

    def excess(u):
        i = cells.searchsorted(u, side="left")
        x0 = x[:, :1].reshape((-1,) + (1,) * i.ndim)
        return prefix[:, i] + (x[:, i] - x0) * (u - i / n)

    return excess


def evaluate_batch(spec: RiskSpec, X) -> np.ndarray:
    """The risk of each row of X, a (B, n) array of equal-weight scenarios.

    Row i gives ``evaluate_risk(spec, from_samples(X[i]))`` to round-off,
    from one sort and one row-wise prefix of the integrated quantile.
    CV@R, Kusuoka mixtures and finite families pair it with their targets
    by parts; higher-moment runs its exact solve across the rows.  Hull
    families go through :func:`evaluate_risk` row by row, so that they
    keep one exact solver.
    """
    x = np.asarray(X, dtype=float)
    if x.size == 0:
        raise EmptyInput("a batch needs at least one row of at least one scenario")
    if x.ndim != 2:
        raise LengthMismatch(f"a batch must be a (rows, scenarios) array, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteValue("scenario values must be finite")
    if isinstance(spec, Explicit) and spec.generators.hull_mode is HullMode.CONVEX_HULL:
        return np.array([evaluate_risk(spec, from_samples(row)) for row in x])
    x = np.sort(x, axis=1)
    if isinstance(spec, HigherMoment):
        return _higher_moment_rows(x, spec.p, spec.c)
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
    return _grid_values(x[:, :1], _row_excess(x), y, rows).max(axis=1)


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
