"""Comonotone couplings and the optimal-transport value of a risk measure.

The transport problem maximizes E[x*y] over couplings of a distribution m
with a target measure r of unit mean on the nonnegative half-line.  On
the real line with this product cost, the maximum is attained by the
comonotone (quantile) coupling, so values, optimal plans and exact dual
potentials all come out of one merged sweep over the two quantile
partitions.

A :class:`GeneratorSet` is the finite description of a whole family of
target measures: a common support grid plus one weight vector per
generator, tagged by whether the family means the finite set itself or
its convex hull.  Values over the finite set are an exact max here; hull
values come from the cutting-plane solver in :mod:`otrisk.dualsolver`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInput,
    InvalidParams,
    LengthMismatch,
    NonFiniteValue,
    WrongMode,
)
from .measures import DiscreteMeasure, as_order, from_samples, merged_partition, INF

__all__ = [
    "HullMode",
    "GeneratorSet",
    "Coupling",
    "PotentialPair",
    "comonotone_coupling",
    "transport_value",
    "finite_set_value",
    "exact_potentials",
    "lipschitz_constant",
    "feasibility_violation",
]

# weights this small are treated as absent when a mixture is materialized
MIXTURE_WEIGHT_FLOOR = 1e-15


class HullMode(enum.Enum):
    """Whether a GeneratorSet means the listed measures or their convex hull."""

    FINITE_SET = "finite_set"
    CONVEX_HULL = "convex_hull"


class GeneratorSet:
    """A finite family of unit-mean target measures on a common grid.

    ``support`` is the strictly increasing grid y_0 < ... < y_K of
    nonnegative reals; ``vertices`` is a (V, K+1) array whose rows are
    probability weights over the grid, each with unit expectation
    (sum r_k y_k = 1 within 1e-9).  ``hull_mode`` records whether the
    family is the finite set of rows or their convex hull.
    """

    __slots__ = ("support", "vertices", "hull_mode", "_vertex_measures")

    def __init__(self, support, vertices, hull_mode: HullMode = HullMode.FINITE_SET):
        y = np.atleast_1d(np.asarray(support, dtype=float))
        V = np.atleast_2d(np.asarray(vertices, dtype=float))
        if y.size == 0 or V.size == 0:
            raise EmptyInput("generator set needs a support grid and at least one vertex")
        if not np.all(np.isfinite(y)):
            raise NonFiniteValue("support points must be finite")
        if not np.all(np.isfinite(V)):
            raise NonFiniteValue("vertex weights must be finite")
        if y.ndim != 1 or V.ndim != 2 or V.shape[1] != y.size:
            raise LengthMismatch(
                f"vertices must be rows of length {y.size}, got shape {V.shape}"
            )
        if np.any(y < 0.0):
            raise InvalidParams("support points must be nonnegative")
        order = np.argsort(y, kind="stable")
        y = y[order]
        V = V[:, order]
        if y.size > 1 and np.any(np.diff(y) == 0.0):
            raise InvalidParams("support points must be distinct")
        if np.any(V < -1e-12):
            raise InvalidParams("vertex weights must be nonnegative")
        V = np.maximum(V, 0.0)
        row_sums = V.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-12):
            raise InvalidParams(
                f"each vertex must be a probability vector (row sums {row_sums})"
            )
        means = V @ y
        if np.any(np.abs(means - 1.0) > 1e-9):
            raise InvalidParams(
                f"each generator must have unit expectation, got means {means}"
            )
        y.setflags(write=False)
        V.setflags(write=False)
        object.__setattr__(self, "support", y)
        object.__setattr__(self, "vertices", V)
        object.__setattr__(self, "hull_mode", HullMode(hull_mode))
        object.__setattr__(self, "_vertex_measures", None)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorSet is immutable")

    @classmethod
    def singleton(cls, r: DiscreteMeasure) -> "GeneratorSet":
        """The one-element family {r}."""
        return cls(r.positions, r.weights[None, :], HullMode.FINITE_SET)

    @property
    def n_points(self) -> int:
        return self.support.size

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def vertex_measure(self, v: int) -> DiscreteMeasure:
        """Row ``v`` as a measure (zero-weight grid points dropped).

        The rows' measures are built once, on first use, and shared.
        """
        if self._vertex_measures is None:
            built = tuple(from_samples(self.support, row) for row in self.vertices)
            object.__setattr__(self, "_vertex_measures", built)
        return self._vertex_measures[v]

    def mixture_measure(self, weights) -> DiscreteMeasure:
        """Convex combination of the rows as a measure.

        Mixture weights below 1e-15 on a grid point are treated as zero.
        """
        lam = np.asarray(weights, dtype=float)
        if lam.shape != (self.n_vertices,):
            raise LengthMismatch(
                f"need {self.n_vertices} mixture weights, got shape {lam.shape}"
            )
        if np.any(lam < -1e-12) or abs(lam.sum() - 1.0) > 1e-9:
            raise InvalidParams("mixture weights must lie in the probability simplex")
        w = np.maximum(lam, 0.0) @ self.vertices
        w[w < MIXTURE_WEIGHT_FLOOR] = 0.0
        return from_samples(self.support, w)

    def __repr__(self) -> str:
        return (
            f"GeneratorSet({self.n_vertices} vertices on {self.n_points} points, "
            f"{self.hull_mode.value})"
        )


class Coupling:
    """Finitely supported measure on the plane; marginals built on first use."""

    __slots__ = ("xs", "ys", "masses", "_first_marginal", "_second_marginal")

    def __init__(self, xs, ys, masses):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        masses = np.atleast_1d(np.asarray(masses, dtype=float))
        if not (xs.shape == ys.shape == masses.shape) or xs.ndim != 1:
            raise LengthMismatch("xs, ys, masses must be equal-length vectors")
        if xs.size == 0:
            raise EmptyInput("a coupling needs at least one atom")
        if np.any(masses <= 0.0):
            raise InvalidParams("coupling masses must be strictly positive")
        total = math.fsum(masses.tolist())
        if abs(total - 1.0) > 1e-12:
            raise InvalidParams(f"coupling masses must sum to 1 within 1e-12, got {total!r}")
        for arr in (xs, ys, masses):
            arr.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "_first_marginal", None)
        object.__setattr__(self, "_second_marginal", None)

    def __setattr__(self, name, value):
        raise AttributeError("Coupling is immutable")

    @property
    def first_marginal(self) -> DiscreteMeasure:
        if self._first_marginal is None:
            object.__setattr__(self, "_first_marginal", from_samples(self.xs, self.masses))
        return self._first_marginal

    @property
    def second_marginal(self) -> DiscreteMeasure:
        if self._second_marginal is None:
            object.__setattr__(self, "_second_marginal", from_samples(self.ys, self.masses))
        return self._second_marginal

    @property
    def n_atoms(self) -> int:
        return self.xs.size

    def atoms(self) -> list[tuple[float, float, float]]:
        return list(zip(self.xs.tolist(), self.ys.tolist(), self.masses.tolist()))

    def objective(self) -> float:
        """E[x*y] under the coupling (compensated summation)."""
        return math.fsum((self.xs * self.ys * self.masses).tolist())

    def __repr__(self) -> str:
        return f"Coupling({self.n_atoms} atoms, objective={self.objective():.6g})"


@dataclass(frozen=True)
class PotentialPair:
    """Dual potentials (f on the x-support, g on the y-grid).

    Feasible when f(x) + g(y) >= x*y on the full product grid; the pairs
    built by :func:`exact_potentials` are feasible with zero duality gap.
    """

    x_support: np.ndarray
    f_values: np.ndarray
    y_support: np.ndarray
    g_values: np.ndarray

    def pairing(self, m: DiscreteMeasure, r: DiscreteMeasure) -> float:
        """Integral of f against m plus integral of g against r."""
        fi = self.f_values[np.searchsorted(self.x_support, m.positions)]
        gi = self.g_values[np.searchsorted(self.y_support, r.positions)]
        return math.fsum((fi * m.weights).tolist()) + math.fsum((gi * r.weights).tolist())


def feasibility_violation(pair: PotentialPair) -> float:
    """max over the product grid of x*y - f(x) - g(y); <= 0 means feasible."""
    gap = (
        np.outer(pair.x_support, pair.y_support)
        - pair.f_values[:, None]
        - pair.g_values[None, :]
    )
    return float(gap.max())


# ----------------------------------------------------------------------
# comonotone coupling and transport values


def comonotone_coupling(m: DiscreteMeasure, r: DiscreteMeasure) -> Coupling:
    """The quantile coupling of m and r (optimal for the product cost).

    Pushes Lebesgue measure on (0,1] through both quantile functions at
    once: one merged sweep over the two cumulative-weight grids, emitting
    an atom per merged cell.  Simultaneous jumps (breakpoints within
    1e-15) stay simultaneous, so the support is a monotone staircase with
    at most |m| + |r| - 1 atoms.
    """
    breaks, im, ir = merged_partition(m, r)
    widths = np.diff(breaks, prepend=0.0)
    return Coupling(m.positions[im], r.positions[ir], widths)


def transport_value(m: DiscreteMeasure, r: DiscreteMeasure) -> float:
    """max E[x*y] over couplings of m and r: the quantile product integral."""
    breaks, im, ir = merged_partition(m, r)
    widths = np.diff(breaks, prepend=0.0)
    return math.fsum((m.positions[im] * r.positions[ir] * widths).tolist())


def finite_set_value(
    m: DiscreteMeasure, R: GeneratorSet, allow_lower_bound: bool = False
) -> tuple[float, int]:
    """max of transport_value(m, .) over the generator vertices.

    Returns (value, argmax index); the lowest index wins ties.  For a
    ConvexHull family this is only a lower bound on the hull value, so it
    raises :class:`WrongMode` unless ``allow_lower_bound`` says the caller
    knows that.
    """
    if R.hull_mode is HullMode.CONVEX_HULL and not allow_lower_bound:
        raise WrongMode(
            "vertex max is only a lower bound for a convex hull; "
            "use the dual solver, or pass allow_lower_bound=True"
        )
    best_val = -math.inf
    best_idx = 0
    for v in range(R.n_vertices):
        val = transport_value(m, R.vertex_measure(v))
        if val > best_val:
            best_val, best_idx = val, v
    return best_val, best_idx


def exact_potentials(
    m: DiscreteMeasure, r: DiscreteMeasure, y_support=None
) -> PotentialPair:
    """Complementary-slackness potentials for the singleton target {r}.

    Propagates f(x) = x*y - g(y) and g(y) = x*y - f(x) along the
    comonotone staircase starting from g(y_0) = 0.  When a simultaneous
    jump disconnects the staircase, the new block's g is pinned by the
    tightest constraint against every already-assigned x, which keeps the
    pair feasible and the duality gap exactly zero.

    ``y_support`` optionally supplies a larger grid (a superset of the
    support of r, e.g. a generator grid where r charges only some
    points); the extra points get the same tightest-constraint closure.
    """
    breaks, im, ir = merged_partition(m, r)
    xs = m.positions
    f = np.full(xs.size, np.nan)
    if y_support is None:
        ys = r.positions
        rmap = np.arange(ys.size)
    else:
        ys = np.asarray(y_support, dtype=float)
        rmap = np.searchsorted(ys, r.positions)
        if not np.array_equal(ys[rmap], r.positions):
            raise InvalidParams("y_support must contain the support of r")
    g = np.full(ys.size, np.nan)

    n_assigned = 0  # x atoms 0..n_assigned-1 already have f values
    for i, j in zip(im.tolist(), rmap[ir].tolist()):
        have_f = not math.isnan(f[i])
        have_g = not math.isnan(g[j])
        if have_f and have_g:
            continue
        if have_f:
            g[j] = xs[i] * ys[j] - f[i]
        elif have_g:
            f[i] = xs[i] * ys[j] - g[j]
            n_assigned = i + 1
        else:
            # new block: first cell pins g, either to 0 (start) or to the
            # tightest feasible value against everything assigned so far
            if n_assigned == 0:
                g[j] = 0.0
            else:
                g[j] = float(np.max(xs[:n_assigned] * ys[j] - f[:n_assigned]))
            f[i] = xs[i] * ys[j] - g[j]
            n_assigned = i + 1

    missing = np.isnan(g)
    if np.any(missing):
        # grid points never touched by the staircase: same closure rule
        g[missing] = np.max(
            xs[:, None] * ys[None, missing] - f[:, None], axis=0
        )
    return PotentialPair(xs, f, ys, g)


def lipschitz_constant(R: GeneratorSet, q) -> float:
    """Largest q-th moment over the family (its Wasserstein-Lipschitz rank).

    The q-th power moment is linear in the vertex weights, so the max
    over vertices is also the max over the convex hull.
    """
    q = as_order(q)
    if q is INF:
        charged = np.any(R.vertices > 0.0, axis=0)
        return float(R.support[charged].max())
    powered = R.support**q
    return float(np.max(R.vertices @ powered) ** (1.0 / q))
