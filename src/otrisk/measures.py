"""Discrete probability measures on the real line.

Provides the measure type used everywhere else in the package, together
with quantile functions, the integrated quantile, moments, expectations
and the one-dimensional p-Wasserstein distance.  All computations are
closed-form on finite supports; sums that feed reported values go through
compensated summation so results are reproducible to ~1e-15.

Moment orders live in [1, inf].  The infinite order is the distinguished
sentinel :data:`INF` (an enum member), never a large float.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    InvalidOrder,
    LengthMismatch,
    NegativeWeight,
    NonFiniteValue,
    OutOfRange,
    ZeroTotalWeight,
)

__all__ = [
    "INF",
    "Order",
    "DiscreteMeasure",
    "as_order",
    "conjugate_order",
    "from_samples",
    "point_mass",
    "uniform_on",
    "wasserstein_p",
    "merged_partition",
]

# Two breakpoints of a cumulative-weight grid closer than this are treated
# as one simultaneous jump when partitions are merged.
BREAKPOINT_TOL = 1e-15

# Weight vectors handed directly to DiscreteMeasure must already be
# normalized to this accuracy; anything worse is a caller bug, not round-off.
NORMALIZATION_TOL = 1e-9


class Order(enum.Enum):
    """Moment orders that are not finite reals."""

    INF = "inf"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "INF"


INF = Order.INF


def as_order(p) -> float | Order:
    """Coerce ``p`` to a finite order ``>= 1`` or the :data:`INF` sentinel.

    Accepts the sentinel itself, ``math.inf``, or the string ``"inf"``
    (convenient for JSON round-trips).  Raises :class:`InvalidOrder` for
    anything below 1 or non-numeric.
    """
    if isinstance(p, Order):
        return INF
    if isinstance(p, str):
        if p.strip().lower() in ("inf", "infinity"):
            return INF
        try:
            p = float(p)
        except ValueError:
            raise InvalidOrder(f"moment order must be a real >= 1 or 'inf', got {p!r}")
    try:
        q = float(p)
    except (TypeError, ValueError):
        raise InvalidOrder(f"moment order must be a real >= 1 or 'inf', got {p!r}")
    if math.isnan(q):
        raise InvalidOrder("moment order must not be NaN")
    if math.isinf(q):
        if q > 0:
            return INF
        raise InvalidOrder("moment order must be >= 1")
    if q < 1.0:
        raise InvalidOrder(f"moment order must be >= 1, got {q}")
    return q


def conjugate_order(p) -> float | Order:
    """Return the Hölder conjugate q with 1/p + 1/q = 1.

    ``p = 1`` maps to :data:`INF` and vice versa; ``p = 2`` is self-dual.
    """
    p = as_order(p)
    if p is INF:
        return 1.0
    if p == 1.0:
        return INF
    return p / (p - 1.0)


class DiscreteMeasure:
    """Finitely supported probability measure on the reals.

    Atoms are stored sorted by position with exact duplicates merged.
    ``positions`` are strictly increasing, ``weights`` strictly positive
    and summing to one (renormalized exactly at construction), and
    ``cumulative`` is the running sum of weights with the last entry
    pinned to 1.0.  All three arrays are read-only; instances are
    immutable and safe to share across threads.
    """

    __slots__ = ("positions", "weights", "cumulative", "_prefix")

    def __init__(self, positions, weights):
        pos = np.atleast_1d(np.asarray(positions, dtype=float))
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if pos.size == 0:
            raise EmptyInput("a measure needs at least one atom")
        if pos.shape != w.shape or pos.ndim != 1:
            raise LengthMismatch(
                f"positions and weights must be equal-length vectors, "
                f"got shapes {pos.shape} and {w.shape}"
            )
        # array methods and slices, not np.all/np.diff: this runs once per
        # evaluated vector, and their wrappers cost more than the work
        if not np.isfinite(pos).all():
            raise NonFiniteValue("positions must be finite")
        if not np.isfinite(w).all():
            raise NonFiniteValue("weights must be finite")
        if (w <= 0.0).any():
            raise NegativeWeight("weights must be strictly positive")

        order = pos.argsort(kind="stable")
        pos = pos[order]
        w = w[order]
        if (pos[1:] == pos[:-1]).any():
            # merge exact duplicates (positions equal bit-for-bit)
            uniq, inverse = np.unique(pos, return_inverse=True)
            merged = np.zeros(uniq.size)
            np.add.at(merged, inverse, w)
            pos, w = uniq, merged

        w, total = _normalized(w)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ZeroTotalWeight(
                f"weights must sum to 1 within {NORMALIZATION_TOL:g} "
                f"(got {total!r}); use from_samples for unnormalized masses"
            )

        cum = np.cumsum(w)
        cum[-1] = 1.0
        if cum[0] <= 0.0 or (cum[1:] <= cum[:-1]).any():
            # an atom so light it vanishes at cumulative resolution; drop it
            keep = np.diff(cum, prepend=0.0) > 0.0
            pos, w = pos[keep], _normalized(w[keep])[0]
            cum = np.cumsum(w)
            cum[-1] = 1.0

        for arr in (pos, w, cum):
            arr.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "cumulative", cum)
        object.__setattr__(self, "_prefix", None)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    @property
    def n_atoms(self) -> int:
        return self.positions.size

    def atoms(self) -> list[tuple[float, float]]:
        """Atoms as (position, weight) pairs, sorted by position."""
        return list(zip(self.positions.tolist(), self.weights.tolist()))

    def __repr__(self) -> str:
        if self.n_atoms <= 6:
            body = ", ".join(f"({x:g}, {w:g})" for x, w in self.atoms())
        else:
            body = f"{self.n_atoms} atoms on [{self.positions[0]:g}, {self.positions[-1]:g}]"
        return f"DiscreteMeasure({body})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return np.array_equal(self.positions, other.positions) and np.array_equal(
            self.weights, other.weights
        )

    __hash__ = None  # mutable-free but equality is by value; keep unhashable

    # ------------------------------------------------------------------
    # distribution functionals

    def quantile(self, t: float) -> float:
        """Generalized inverse CDF: inf{x : CDF(x) >= t}, for t in (0, 1].

        Right-inverse with a weak inequality, so a ``t`` that hits a
        cumulative breakpoint exactly returns the lower cell's value.
        """
        t = float(t)
        if math.isnan(t) or t <= 0.0 or t > 1.0:
            raise OutOfRange(f"quantile level must lie in (0, 1], got {t!r}")
        return float(self.positions[self.cells(t)])

    def expectation(self) -> float:
        """Mean of the measure (compensated summation)."""
        return math.fsum((self.positions * self.weights).tolist())

    def moment(self, p) -> float:
        """p-th absolute moment (sum w|x|^p)^(1/p); sup |x| for p = INF."""
        p = as_order(p)
        a = np.abs(self.positions)
        if p is INF:
            return float(a.max())
        if p == 1.0:
            return math.fsum((a * self.weights).tolist())
        s = math.fsum(((a**p) * self.weights).tolist())
        return s ** (1.0 / p)

    def cells(self, u) -> np.ndarray:
        """Atom index of the quantile cell (e_i, C_i] holding each level u."""
        return self.cumulative[:-1].searchsorted(u, side="left")

    def excess_prefix(self) -> tuple[np.ndarray, np.ndarray]:
        """Left cell edges e_i and :meth:`integrated_excess` at them, built once."""
        if self._prefix is None:
            x, cum = self.positions, self.cumulative
            edges = np.concatenate(([0.0], cum[:-1]))
            prefix = np.empty(cum.size)
            prefix[0] = 0.0
            # summed over the cell widths, so the prefix and the cells agree
            ((x[:-1] - x[0]) * (cum[:-1] - edges[:-1])).cumsum(out=prefix[1:])
            edges.setflags(write=False)
            prefix.setflags(write=False)
            object.__setattr__(self, "_prefix", (edges, prefix))
        return self._prefix

    def integrated_excess(self, u) -> np.ndarray:
        """Phi(u) - u*x_0 at levels u in [0, 1], with Phi(u) = int_0^u q_m.

        Measured from the smallest atom x_0, so rounding scales with the span.
        """
        u = np.asarray(u, dtype=float)
        edges, prefix = self.excess_prefix()
        i = self.cells(u)
        return prefix[i] + (self.positions[i] - self.positions[0]) * (u - edges[i])


def _normalized(w: np.ndarray) -> tuple[np.ndarray, float]:
    """(w / total, total) for positive weights, with total = fsum(w).

    The sum is taken after dividing the weights by the power of two at or
    below their maximum, which is exact and keeps it finite: weights near
    the largest double still normalize, and their total comes back as inf.
    """
    scale = 2.0 ** (math.frexp(float(w.max()))[1] - 1)
    w = w / scale
    total = math.fsum(w.tolist())
    return w / total, total * scale


# ----------------------------------------------------------------------
# constructors


def from_samples(values: Sequence[float], weights: Sequence[float] | None = None) -> DiscreteMeasure:
    """Empirical measure of a sample, with optional relative masses.

    Missing ``weights`` mean uniform 1/n.  Given weights may be any
    nonnegative masses (zeros are dropped); they are normalized by their
    total.
    """
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise EmptyInput("empty sample")
    if vals.ndim != 1:
        raise LengthMismatch("values must be a flat sequence")
    if not np.isfinite(vals).all():
        raise NonFiniteValue("sample values must be finite")
    if weights is None:
        w = np.full(vals.size, 1.0 / vals.size)
    else:
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.shape != vals.shape:
            raise LengthMismatch(
                f"{vals.size} values but {w.size} weights"
            )
        if not np.isfinite(w).all():
            raise NonFiniteValue("weights must be finite")
        if (w < 0.0).any():
            raise NegativeWeight("weights must be nonnegative")
        if not (w > 0.0).any():
            raise ZeroTotalWeight("weights sum to zero")
        w = _normalized(w)[0]
        keep = w > 0.0  # zeros, and weights that vanish beside the total
        vals, w = vals[keep], w[keep]
    return DiscreteMeasure(vals, w)


def point_mass(x: float) -> DiscreteMeasure:
    """The Dirac measure at ``x``."""
    return DiscreteMeasure([x], [1.0])


def uniform_on(values: Iterable[float]) -> DiscreteMeasure:
    """Uniform measure over the given values (duplicates merge mass)."""
    return from_samples(list(values))


# ----------------------------------------------------------------------
# merged partitions and the 1-D Wasserstein distance


def merged_partition(
    m1: DiscreteMeasure, m2: DiscreteMeasure, tol: float = BREAKPOINT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union of two cumulative-weight grids.

    Returns ``(breaks, idx1, idx2)`` where ``breaks`` is strictly
    increasing and ends at exactly 1, and ``idx1[c]`` / ``idx2[c]`` index
    the atom of each measure whose quantile cell covers
    ``(breaks[c-1], breaks[c]]``.  Breakpoints closer than ``tol`` are
    collapsed so simultaneous jumps stay simultaneous.
    """
    allb = np.concatenate((m1.cumulative, m2.cumulative))
    allb.sort(kind="stable")
    keep = np.empty(allb.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(allb), tol, out=keep[1:])
    breaks = allb[keep]
    breaks[-1] = 1.0
    idx1 = np.searchsorted(m1.cumulative, breaks, side="left")
    idx2 = np.searchsorted(m2.cumulative, breaks, side="left")
    return breaks, idx1, idx2


def wasserstein_p(m1: DiscreteMeasure, m2: DiscreteMeasure, p) -> float:
    """1-D p-Wasserstein distance via the merged quantile partition.

    Equals the L^p norm of the quantile difference on (0,1); for
    ``p = INF`` the essential sup over the merged partition.
    """
    p = as_order(p)
    breaks, idx1, idx2 = merged_partition(m1, m2)
    gap = np.abs(m1.positions[idx1] - m2.positions[idx2])
    if p is INF:
        return float(gap.max())
    widths = np.diff(breaks, prepend=0.0)
    if p == 1.0:
        return math.fsum((gap * widths).tolist())
    return math.fsum(((gap**p) * widths).tolist()) ** (1.0 / p)
