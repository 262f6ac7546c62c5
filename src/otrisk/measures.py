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

    The weights given must already sum to one within 1e-9; :func:`from_samples`
    builds a measure from relative masses instead, normalized once after
    their duplicates merge (the private ``_masses`` flag).
    """

    __slots__ = ("positions", "weights", "cumulative", "_prefix")

    def __init__(self, positions, weights, *, _masses: bool = False):
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

        pos, w = _merged(pos, w)
        w, total = _normalized(w)
        if not _masses and abs(total - 1.0) > NORMALIZATION_TOL:
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
        return _fsum(self.positions * self.weights)

    def moment(self, p) -> float:
        """p-th absolute moment (sum w|x|^p)^(1/p); sup |x| for p = INF."""
        p = as_order(p)
        a = np.abs(self.positions)
        if p is INF:
            return float(a.max())
        return _scaled_norm(a, self.weights, p)

    def cells(self, u) -> np.ndarray:
        """Atom index of the quantile cell (e_i, C_i] holding each level u."""
        return self.cumulative[:-1].searchsorted(u, side="left")

    def excess_prefix(self) -> tuple[np.ndarray, np.ndarray]:
        """Left cell edges e_i and :meth:`integrated_excess` at them, built once."""
        if self._prefix is None:
            edges, prefix = _excess_prefix(self.positions, self.cumulative)
            edges.setflags(write=False)
            prefix.setflags(write=False)
            object.__setattr__(self, "_prefix", (edges, prefix))
        return self._prefix

    def integrated_excess(self, u) -> np.ndarray:
        """Phi(u) - u*x_0 at levels u in [0, 1], with Phi(u) = int_0^u q_m.

        Measured from the smallest atom x_0, so rounding scales with the span.
        """
        u = np.asarray(u, dtype=float)
        return _integrated_excess(self.positions, self.cumulative, *self.excess_prefix(), u)


def _excess_prefix(x: np.ndarray, cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left cell edges e_i of the grid cum, and Phi(e_i) - e_i*x_0 of each row of x.

    x holds sorted atoms along its last axis, one measure per row, and cum
    their shared cumulative masses, ending at 1: a measure's own grid, or
    k/n for a batch of equal-weight rows, whose ties need no merging.
    """
    edges = np.concatenate(([0.0], cum[:-1]))
    prefix = np.zeros(x.shape)
    # summed over the cell widths, so the prefix and the cells agree
    widths = cum[:-1] - edges[:-1]
    np.cumsum((x[..., :-1] - x[..., :1]) * widths, axis=-1, out=prefix[..., 1:])
    return edges, prefix


def _integrated_excess(x, cum, edges, prefix, u: np.ndarray) -> np.ndarray:
    """Phi(u) - u*x_0 of each row of x at the levels u, from :func:`_excess_prefix`.

    Rows lead the result's axes, followed by those of u.
    """
    i = cum[:-1].searchsorted(u, side="left")
    x0 = x[..., :1].reshape(x.shape[:-1] + (1,) * i.ndim)
    return prefix[..., i] + (x[..., i] - x0) * (u - edges[i])


def _fsum(a: np.ndarray) -> float:
    """Exactly rounded sum of a float array, read through its buffer.

    Same value as ``math.fsum(a.tolist())``, without building the list.
    """
    return math.fsum(memoryview(a))


def _scaled_norm(a: np.ndarray, w: np.ndarray, p: float) -> float:
    """(sum w a^p)^(1/p) for a >= 0, divided exactly by the power of two
    above the largest a before the power, so that no power overflows."""
    e = math.frexp(float(a.max()))[1]
    return math.ldexp(_fsum((np.ldexp(a, -e) ** p) * w) ** (1.0 / p), e)


def _merged(pos: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pos sorted with exact duplicates merged, and the total of w on each.

    One argsort; a merged total adds its parts in input order (bincount), as
    a stable sort followed by ``np.add.at`` would, so the sums are the same
    doubles.  Which of +0 and -0 stands for a merged zero follows the sort.
    """
    order = pos.argsort()
    pos = pos[order]
    first = np.empty(pos.size, dtype=bool)
    first[0] = True
    np.not_equal(pos[1:], pos[:-1], out=first[1:])
    if first.all():
        return pos, w[order]
    group = np.empty(order.size, dtype=np.intp)
    group[order] = first.cumsum() - 1
    return pos[first], np.bincount(group, weights=w)


def _normalized(w: np.ndarray) -> tuple[np.ndarray, float]:
    """(w / total, total) for positive weights, with total = fsum(w).

    The sum is taken after dividing the weights by the power of two at or
    below their maximum, which is exact and keeps it finite: weights near
    the largest double still normalize, and their total comes back as inf.
    """
    scale = 2.0 ** (math.frexp(float(w.max()))[1] - 1)
    w = w / scale
    total = _fsum(w)
    return w / total, total * scale


# ----------------------------------------------------------------------
# constructors


def from_samples(values: Sequence[float], weights: Sequence[float] | None = None) -> DiscreteMeasure:
    """Empirical measure of a sample, with optional relative masses.

    Missing ``weights`` mean uniform 1/n.  Given weights may be any
    nonnegative masses (zeros are dropped).  Equal values merge their raw
    masses first, and the merged masses are normalized once by their total,
    so integer masses give correctly rounded weights.
    """
    vals = np.atleast_1d(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise EmptyInput("empty sample")
    if vals.ndim != 1:
        raise LengthMismatch("values must be a flat sequence")
    if not np.isfinite(vals).all():
        raise NonFiniteValue("sample values must be finite")
    if weights is None:
        w = np.ones(vals.size)
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
        # divided exactly by the power of two at or below the largest mass,
        # so that merged masses cannot overflow
        w = w / 2.0 ** (math.frexp(float(w.max()))[1] - 1)
        keep = w > 0.0  # zeros, and masses that vanish beside the largest
        if not keep.all():
            vals, w = vals[keep], w[keep]
    return DiscreteMeasure(vals, w, _masses=True)


def point_mass(x: float) -> DiscreteMeasure:
    """The Dirac measure at ``x``."""
    return DiscreteMeasure([x], [1.0])


def uniform_on(values: Iterable[float]) -> DiscreteMeasure:
    """Uniform measure over the given values (duplicates merge mass)."""
    return from_samples(list(values))


# ----------------------------------------------------------------------
# merged partitions and the 1-D Wasserstein distance


def merged_partition(m1: DiscreteMeasure, m2: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union of two cumulative-weight grids.

    Returns ``(breaks, idx1, idx2)`` where ``breaks`` is strictly
    increasing and ends at exactly 1, and ``idx1[c]`` / ``idx2[c]`` index
    the atom of each measure whose quantile cell covers
    ``(breaks[c-1], breaks[c]]``.  Breakpoints closer than
    :data:`BREAKPOINT_TOL` are collapsed so simultaneous jumps stay
    simultaneous.
    """
    allb = np.concatenate((m1.cumulative, m2.cumulative))
    allb.sort(kind="stable")
    keep = np.empty(allb.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(allb), BREAKPOINT_TOL, out=keep[1:])
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
        return _fsum(gap * widths)
    return _scaled_norm(gap, widths, p)
