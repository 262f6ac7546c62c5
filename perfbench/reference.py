"""Reference computations that the benchmark checks otrisk's reports against.

Written apart from otrisk: only numpy and math, plus scipy's ``linprog``
for the transport LP (imported inside that one function, so a benchmark
run never loads scipy).  Every value is computed through the integrated
quantile

    Phi(u) = integral_0^u q_m(s) ds,

which is piecewise linear with the sorted sample as its slopes.  The
transport value against a target on y_0 < ... < y_K with cumulative
weights C_k is  sum_k y_k (Phi(C_k) - Phi(C_{k-1})),  CVaR_beta is
(Phi(1) - Phi(beta)) / (1 - beta), and so on.  otrisk sweeps a merged
partition of the two cumulative grids instead, so agreement between the
two is evidence that neither route is wrong.
"""

from __future__ import annotations

import math

import numpy as np

EPS = float(np.finfo(float).eps)


class Sample:
    """A weighted sample held as its sorted atoms and integrated quantile.

    ``weights`` of None means equal weights.  Integer weights keep the
    cumulative grid exact: cell edges are integer prefix sums divided by
    the integer total, each correctly rounded.  ``Phi`` at the cell edges
    is accumulated in long double.
    """

    def __init__(self, values, weights=None):
        x = np.asarray(values, dtype=float)
        order = np.argsort(x, kind="stable")
        self.x = x[order]
        n = self.x.size
        if weights is None:
            counts = np.ones(n, dtype=np.int64)
        else:
            counts = np.asarray(weights)[order]
        if counts.dtype.kind in "iu":
            total = int(counts.sum())
            self.edges = np.concatenate(([0], np.cumsum(counts))) / total
            mass = counts / total
        else:
            total = math.fsum(counts.tolist())
            mass = counts / total
            self.edges = np.concatenate(([0.0], np.cumsum(mass)))
            self.edges[-1] = 1.0
        self.mass = mass
        phi = np.zeros(n + 1, dtype=np.longdouble)
        np.cumsum(self.x.astype(np.longdouble) * mass.astype(np.longdouble), out=phi[1:])
        self.phi = phi

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def span(self) -> float:
        return float(self.x[-1] - self.x[0])

    @property
    def scale(self) -> float:
        """Largest magnitude of an atom."""
        return float(max(abs(self.x[0]), abs(self.x[-1])))

    def mean(self) -> float:
        return float(self.phi[-1])

    def Phi(self, u):
        """Integrated quantile at levels u in [0, 1] (long double)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        cell = np.clip(np.searchsorted(self.edges, u, side="left"), 1, self.n)
        lo = self.edges[cell - 1]
        return self.phi[cell - 1] + self.x[cell - 1].astype(np.longdouble) * (
            u - lo
        ).astype(np.longdouble)

    def pairing(self, ys, target_cum):
        """Quantile-product integral against a target with support ``ys``
        and cumulative weights ``target_cum`` (rows: one target each)."""
        cum = np.atleast_2d(np.asarray(target_cum, dtype=float))
        cum = np.concatenate((np.zeros((cum.shape[0], 1)), cum), axis=1)
        cum[:, -1] = 1.0
        cells = np.diff(self.Phi(cum.ravel()).reshape(cum.shape), axis=1)
        return (cells * np.asarray(ys, dtype=np.longdouble)).sum(axis=1).astype(float)

    def cvar(self, beta: float) -> float:
        """Tail average above level beta, splitting the straddling atom."""
        tail = self.phi[-1] - self.Phi(beta)[0]
        return float(tail / np.longdouble(1.0 - beta))


def transport_budget(sample: Sample, ymax: float, cells: int) -> float:
    """How far an honest transport value may sit from the reference, for a
    target whose largest support point is ``ymax`` and that has ``cells``
    atoms.

    A running sum of n weights is off by at most n*eps at each cell edge,
    and shifting every edge by at most d moves the quantile-product
    integral by at most d * span * ymax (summation by parts).  The factor
    2 covers the reference's own rounding of the same kind; the second
    term covers the relative rounding of the final sums.  CVaR_beta is the
    case ymax = 1/(1-beta), cells = 2.
    """
    return 2.0 * (sample.n + cells) * EPS * sample.span * ymax + 16 * EPS * (
        1.0 + sample.scale * ymax
    )


def kusuoka_value(sample: Sample, atoms) -> float:
    """sum_j w_j CVaR_{beta_j} for a mixture given as (beta, weight) pairs."""
    return math.fsum(w * sample.cvar(b) for b, w in atoms)


def vertex_values(sample: Sample, support, vertices) -> np.ndarray:
    """Transport value of the sample against each row of a generator family."""
    rows = np.atleast_2d(np.asarray(vertices, dtype=float))
    return sample.pairing(support, np.cumsum(rows, axis=1))


def hull_value_two_vertices(sample: Sample, support, vertices) -> tuple[float, float]:
    """Best transport value over mixtures (1 - lam) r0 + lam r1.

    The value is concave and piecewise linear in lam, with kinks where a
    cumulative weight C_k(lam) meets a cell edge of the sample; scanning
    lam over every kink (and the ends) finds the maximum.  Returns
    (value, lam).
    """
    r0, r1 = np.asarray(vertices, dtype=float)
    a, b = np.cumsum(r0)[:-1], np.cumsum(r1)[:-1]
    lams = [np.array([0.0, 1.0])]
    for ak, bk in zip(a, b):
        if bk != ak:
            lam = (sample.edges - ak) / (bk - ak)
            lams.append(lam[(lam >= 0.0) & (lam <= 1.0)])
    lam = np.unique(np.concatenate(lams))
    mixtures = (1.0 - lam)[:, None] * r0[None, :] + lam[:, None] * r1[None, :]
    values = sample.pairing(support, np.cumsum(mixtures, axis=1))
    best = int(np.argmax(values))
    return float(values[best]), float(lam[best])


def hull_value_lp(values, weights, support, vertices) -> float:
    """The same hull value as a transport LP: maximize sum pi_ik x_i y_k over
    couplings pi of the sample with a mixture of the rows (scipy linprog)."""
    from scipy.optimize import linprog

    x = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    y = np.asarray(support, dtype=float)
    R = np.atleast_2d(np.asarray(vertices, dtype=float))
    n, k, v = x.size, y.size, R.shape[0]
    cost = np.concatenate((-np.outer(x, y).ravel(), np.zeros(v)))
    rows_x = np.zeros((n, n * k + v))
    for i in range(n):
        rows_x[i, i * k : (i + 1) * k] = 1.0
    rows_y = np.zeros((k, n * k + v))
    for j in range(k):
        rows_y[j, j : n * k : k] = 1.0
        rows_y[j, n * k :] = -R[:, j]
    rows_lam = np.concatenate((np.zeros(n * k), np.ones(v)))[None, :]
    res = linprog(
        cost,
        A_eq=np.vstack((rows_x, rows_y, rows_lam)),
        b_eq=np.concatenate((w, np.zeros(k), [1.0])),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return -float(res.fun)


def dual_objective(sample: Sample, support, vertices, g) -> float:
    """E_m[max_k (x y_k - g_k)] + max_v <g, r_v>: an upper bound on the hull
    value for every potential g (weak duality)."""
    y = np.asarray(support, dtype=float)
    g = np.asarray(g, dtype=float)
    conj = np.max(sample.x[:, None] * y[None, :] - g[None, :], axis=1)
    sigma = max(math.fsum((row * g).tolist()) for row in np.atleast_2d(vertices))
    return math.fsum((conj * sample.mass).tolist()) + sigma


def hm_objective(sample: Sample, p: float, c: float, ts) -> np.ndarray:
    """t + c * E[(X - t)_+^p]^(1/p) at each t."""
    out = np.empty(len(ts))
    for i, t in enumerate(np.asarray(ts, dtype=float)):
        tail = np.maximum(sample.x - t, 0.0)
        out[i] = t + c * float(np.dot(sample.mass, tail**p)) ** (1.0 / p)
    return out


def hm_budget(sample: Sample, t, h):
    """Rounding budget of the objective h at t: the length-n dot product of
    nonnegative terms is good to n*eps relative, which the p-th root keeps,
    so the tail part h - t is good to n*eps of itself, and t is exact."""
    t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
    return 2.0 * (sample.n + 8) * EPS * np.abs(h - t) + 8 * EPS * (np.abs(t) + np.abs(h))


def hm_resolution(sample: Sample, c: float) -> float:
    """How far above its minimum a minimizer good to 1e-12 * (1 + span) in t
    may leave the objective, whose slope is at most 1 + c in magnitude."""
    return (1.0 + c) * 1e-12 * (1.0 + sample.span)


def hm_grid(sample: Sample, points: int = 33) -> np.ndarray:
    """Grid over the bracket where the minimizing t lies: from one span
    below the smallest atom up to the largest."""
    return np.linspace(sample.x[0] - sample.span - 1.0, sample.x[-1] + 1.0, points)


def hm_minimum_bounds(sample: Sample, p: float, c: float):
    """((lower, upper), t): bounds on min_t of the higher-moment objective,
    and the grid point t where the upper bound is attained.

    The objective is convex in t.  A grid is zoomed in on its smallest
    value until the values on it agree to rounding.  Every grid value is an
    upper bound; by convexity the function dips between grid points below
    the smallest of them by at most twice the spread of the values, which
    gives the lower bound.
    """
    points = 17
    ts = hm_grid(sample, points)
    for _ in range(64):
        hs = hm_objective(sample, p, c, ts)
        i = int(np.argmin(hs))
        noise = 64 * EPS * (1.0 + abs(hs[i]))
        spread = float(hs.max() - hs[i])
        if spread <= noise:
            break
        ts = np.linspace(ts[max(i - 2, 0)], ts[min(i + 2, points - 1)], points)
    return (float(hs[i] - 3 * spread - noise), float(hs[i])), float(ts[i])
