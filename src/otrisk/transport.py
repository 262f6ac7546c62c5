"""Comonotone couplings and the optimal-transport value of a risk measure.

The transport problem maximizes E[x*y] over couplings of a distribution m
with a target measure r of unit mean on the nonnegative half-line.  On
the real line with this product cost, the maximum is attained by the
comonotone (quantile) coupling.  Values pair r with the integrated
quantile of m, read off m's prefix; optimal plans come out of one merged
sweep over the two quantile partitions.

A :class:`GeneratorSet` is the finite description of a whole family of
target measures: a common support grid plus one weight vector per
generator, tagged by whether the family means the finite set itself or
its convex hull.  Values over the finite set are an exact max here; hull
values come from the cutting-plane solver in :mod:`otrisk.dualsolver`.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import (
    EmptyInput,
    InvalidParams,
    LengthMismatch,
    NonFiniteValue,
    WrongMode,
)
from .measures import DiscreteMeasure, _fsum, as_order, from_samples, merged_partition, INF

__all__ = [
    "HullMode",
    "GeneratorSet",
    "Coupling",
    "comonotone_coupling",
    "transport_value",
    "finite_set_value",
    "lipschitz_constant",
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

    __slots__ = ("support", "vertices", "hull_mode")

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
        """Row ``v`` as a measure (zero-weight grid points dropped)."""
        return from_samples(self.support, self.vertices[v])

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
        total = _fsum(masses)
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
        return _objective(self.xs, self.ys, self.masses)

    def __repr__(self) -> str:
        return f"Coupling({self.n_atoms} atoms, objective={self.objective():.6g})"


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
    return Coupling(*_comonotone_atoms(m, r))


def _comonotone_atoms(m: DiscreteMeasure, r: DiscreteMeasure) -> tuple[np.ndarray, ...]:
    """The atoms of :func:`comonotone_coupling` as arrays: xs, ys and masses."""
    breaks, im, ir = merged_partition(m, r)
    return m.positions[im], r.positions[ir], np.diff(breaks, prepend=0.0)


def _objective(xs: np.ndarray, ys: np.ndarray, masses: np.ndarray) -> float:
    """E[x*y] over the atoms of a coupling (compensated summation)."""
    return _fsum(xs * ys * masses)


def _grid_values(x0, excess, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Transport values of a measure against each row of weights on the grid y.

    By parts, y_K Phi(1) - sum_k d_k Phi(C_k), with Phi(u) = x_0 u + excess(u),
    where x0 is the smallest atom and excess is the measure's
    :meth:`~DiscreteMeasure.integrated_excess`.  Both may carry a leading
    axis of measures, one value row each (the batch path of
    :func:`otrisk.riskmeasures.evaluate_batch`).
    """
    C = rows.cumsum(axis=1)
    C[:, -1] = 1.0
    phi = excess(C)
    tail = y[-1] * phi[..., -1] - phi[..., :-1] @ (y[1:] - y[:-1])
    return x0 * (rows @ y) + tail


def transport_value(m: DiscreteMeasure, r: DiscreteMeasure) -> float:
    """max E[x*y] over couplings of m and r: m's integrated quantile paired with r."""
    return float(
        _grid_values(m.positions[0], m.integrated_excess, r.positions, r.weights[None, :])[0]
    )


def finite_set_value(
    m: DiscreteMeasure, R: GeneratorSet, allow_lower_bound: bool = False
) -> tuple[float, int]:
    """max of transport_value(m, .) over the generator vertices.

    All vertices are priced by one lookup of m's integrated quantile.
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
    values = _grid_values(m.positions[0], m.integrated_excess, R.support, R.vertices)
    best = int(np.argmax(values))
    return float(values[best]), best


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
