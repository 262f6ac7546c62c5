"""The exact hull solver and the certified duality-gap report.

For a target family on the grid y_0 < ... < y_K the dual program
minimizes, over vectors g with g[0] pinned to 0,

    J(g) = E_m[ max_k (x*y_k - g_k) ] + max_v <g, r^(v)>,

which upper-bounds the transport value for every g (weak duality) and
meets it at the optimum.  The primal side maximizes the concave map
lambda -> transport_value(m, mixture(lambda)) over the vertex simplex.
With Phi(u) = int_0^u q_m the integrated quantile of m, d_k = y_{k+1} - y_k
and C_k(lambda) the mixture's cumulative weight up to y_k, that map is

    y_K Phi(1) - sum_{k<K} d_k Phi(C_k(lambda)).

Phi is convex and piecewise linear with the sorted atoms of m as slopes,
so the hull value is a finite LP in lambda and phi_k >= Phi(C_k(lambda)).
:func:`duality_gap_report` solves it by Kelley's cutting planes: a small
master LP holds some of the linear pieces of Phi for each k, each round
adds the piece of the cell that holds C_k(lambda), and the loop ends, with
the exact optimum, once every such piece is already in the master.  The
master's optimal multipliers give the dual potential.

:func:`double_conjugate_refine` is one biconjugation sweep of any
potential; it never increases J and is idempotent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadOptions, NonFiniteValue
from .measures import DiscreteMeasure, _fsum
from .transport import (
    Coupling,
    GeneratorSet,
    HullMode,
    comonotone_coupling,
    finite_set_value,
    transport_value,
)

__all__ = [
    "DualPotential",
    "GapReport",
    "SolveStatus",
    "SolverOptions",
    "eval_conjugate",
    "support_function",
    "dual_objective",
    "double_conjugate_refine",
    "duality_gap_report",
]

# reduced costs and pivot entries of the (unit-scaled) master below this
# are treated as zero
SIMPLEX_TOL = 1e-12


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    ITER_LIMIT = "iter_limit"


@dataclass(frozen=True)
class SolverOptions:
    """Round budget and the target duality gap.

    ``max_iters`` caps the cutting-plane rounds; ``None`` runs them until
    the master is exact, which takes at most K*n rounds.  ``target_gap``
    is applied in mixed absolute/relative form: converged when
    gap <= target_gap * (1 + |primal|).  ``seed`` is reserved for
    randomized schedules; the solver is deterministic and does not
    consume it.
    """

    max_iters: int | None = None
    target_gap: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_iters is not None and (
            not isinstance(self.max_iters, int) or self.max_iters <= 0
        ):
            raise BadOptions(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not (math.isfinite(self.target_gap) and self.target_gap > 0.0):
            raise BadOptions(f"target_gap must be positive and finite, got {self.target_gap!r}")
        if not isinstance(self.seed, int):
            raise BadOptions(f"seed must be an integer, got {self.seed!r}")


@dataclass(frozen=True)
class DualPotential:
    """Dual variable on the generator grid, pinned so values[0] == 0.

    Construction subtracts the first entry (a constant shift never
    changes the dual objective), so any finite vector is accepted.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(v)):
            raise NonFiniteValue("dual potential entries must be finite")
        v = v - v[0]
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class GapReport:
    """Certified sandwich primal_lower <= value <= dual_upper."""

    primal_lower: float
    dual_upper: float
    gap: float
    primal_weights: np.ndarray
    primal_coupling: Coupling
    dual_witness: DualPotential
    iterations: dict
    status: SolveStatus


# ----------------------------------------------------------------------
# the dual objective and its pieces


def _as_g(g) -> np.ndarray:
    return g.values if isinstance(g, DualPotential) else np.asarray(g, dtype=float)


def eval_conjugate(g, R: GeneratorSet, x: float) -> tuple[float, int]:
    """max over grid points of x*y_k - g_k, with the lowest argmax index."""
    scores = float(x) * R.support - _as_g(g)
    idx = int(np.argmax(scores))
    return float(scores[idx]), idx


def _conjugate_profile(gv: np.ndarray, R: GeneratorSet, xs: np.ndarray):
    """Conjugate values and argmax indices for a whole support vector."""
    scores = xs[:, None] * R.support[None, :] - gv[None, :]
    idx = np.argmax(scores, axis=1)  # first maximum wins ties
    return scores[np.arange(xs.size), idx], idx


def support_function(R: GeneratorSet, g) -> tuple[float, int]:
    """max over generators of <g, r^(v)>, with the lowest argmax index."""
    inner = R.vertices @ _as_g(g)
    idx = int(np.argmax(inner))
    return float(inner[idx]), idx


def dual_objective(m: DiscreteMeasure, R: GeneratorSet, g) -> float:
    """E_m[conjugate] + support function: an upper bound on the transport value."""
    gv = _as_g(g)
    conj, _ = _conjugate_profile(gv, R, m.positions)
    sigma, _ = support_function(R, gv)
    return _fsum(conj * m.weights) + sigma


def double_conjugate_refine(m: DiscreteMeasure, R: GeneratorSet, g) -> DualPotential:
    """One biconjugation sweep of the dual potential, re-pinned at the grid min.

    Replaces g by the conjugate (in y) of its own conjugate (in x),
    both restricted to the finite supports.  The result never has a
    larger dual objective and the sweep is idempotent.
    """
    gv = _as_g(g)
    f_tilde, _ = _conjugate_profile(gv, R, m.positions)
    g_tilde = np.max(m.positions[:, None] * R.support[None, :] - f_tilde[:, None], axis=0)
    return DualPotential(g_tilde)


# ----------------------------------------------------------------------
# the cutting-plane solver


def _pivot(T: np.ndarray, basis: list, row: int, col: int) -> None:
    T[row] /= T[row, col]
    column = T[:, col].copy()
    column[row] = 0.0
    T -= np.outer(column, T[row])
    basis[row] = col


def _master(A, d, xs, beta, cut_k, cut_i, v0):
    """Solve the master LP; returns (lambda, cut multipliers).

    In units where the atoms run from 0 to 1 (the first piece of Phi is
    then phi_k >= 0), the master reads

        min d.s   s.t.  sum(lambda) = 1,
                        xs_i C_k(lambda) - s_k <= beta_i   for each cut (k, i),
                        lambda, s >= 0,

    with beta_i = xs_i e_i - Phi(e_i) >= 0 at the left cell edge e_i.
    A dense tableau simplex with Bland's rule starts from lambda at
    vertex v0, each s_k basic in its most violated cut and the other
    cuts' slacks, which is feasible, so no phase one is needed.
    """
    V, K = A.shape
    R = cut_k.size
    T = np.zeros((R + 2, V + K + R + 1))
    rows = np.arange(R)
    T[:R, :V] = xs[cut_i][:, None] * A[:, cut_k].T
    T[rows, V + cut_k] = -1.0
    T[rows, V + K + rows] = 1.0
    T[:R, -1] = beta[cut_i]
    T[R, :V] = 1.0
    T[R, -1] = 1.0
    T[R + 1, V : V + K] = d
    basis = list(range(V + K, V + K + R)) + [-1]

    _pivot(T, basis, R, v0)
    for k in range(K):
        group = np.flatnonzero(cut_k == k)
        if group.size:
            p = int(group[np.argmin(T[group, -1])])
            if T[p, -1] < 0.0:
                _pivot(T, basis, p, V + k)

    cost_tol = SIMPLEX_TOL * max(1.0, float(d.max(initial=0.0)))
    while True:
        entering = np.flatnonzero(T[-1, :-1] < -cost_tol)
        if entering.size == 0:
            break
        col = int(entering[0])
        candidates = np.flatnonzero(T[:-1, col] > SIMPLEX_TOL)
        ratios = T[candidates, -1] / T[candidates, col]
        ties = candidates[ratios <= ratios.min()]
        row = int(min(ties, key=basis.__getitem__))
        _pivot(T, basis, row, col)

    basis = np.array(basis)
    lam = np.zeros(V)
    in_lam = basis < V
    lam[basis[in_lam]] = np.maximum(T[:-1, -1][in_lam], 0.0)
    # a cut's multiplier is the reduced cost of its slack
    return lam / lam.sum(), np.maximum(T[-1, V + K : V + K + R], 0.0)


def _cutting_planes(m: DiscreteMeasure, R: GeneratorSet, max_rounds):
    """Optimal mixture weights and dual potential of the hull problem.

    Returns (lambda, g, rounds).  Each round solves the master, finds
    for each k the cell of m holding C_k(lambda) by binary search, and
    adds that cell's piece of Phi, read off m's prefix, when the master
    lacks it; with no piece to add the master is exact and both
    witnesses are optimal.
    The multipliers pi of the cuts of k average their slopes into a
    subgradient xi_k of Phi at C_k, and g_{k+1} = g_k + d_k xi_k.
    """
    x = m.positions
    n = x.size
    edges, prefix = m.excess_prefix()
    span = float(x[-1] - x[0])
    unit = span or 1.0
    xs = (x - x[0]) / unit
    beta = np.maximum(xs * edges - prefix / unit, 0.0)
    d = np.diff(R.support)
    K = d.size
    A = np.cumsum(R.vertices, axis=1)[:, :K]

    # start from the vertex with the best value
    v0 = int(np.argmin(m.integrated_excess(A) @ d))

    cut_k = np.arange(K) if n > 1 else np.zeros(0, dtype=np.intp)
    cut_i = np.full(cut_k.size, n - 1)
    have = set(zip(cut_k.tolist(), cut_i.tolist()))
    rounds = 0
    while True:
        rounds += 1
        lam, pi = _master(A, d, xs, beta, cut_k, cut_i, v0)
        new = [
            (k, i)
            for k, i in enumerate(m.cells(lam @ A).tolist())
            if i > 0 and (k, i) not in have
        ]
        if not new or (max_rounds is not None and rounds >= max_rounds):
            break
        have.update(new)
        cut_k = np.concatenate((cut_k, [k for k, _ in new]))
        cut_i = np.concatenate((cut_i, [i for _, i in new]))

    steps = d * x[0] + span * np.bincount(cut_k, weights=pi * xs[cut_i], minlength=K)
    g = np.concatenate(([0.0], np.cumsum(steps)))
    return lam, g, rounds


# ----------------------------------------------------------------------
# the certified report


def duality_gap_report(
    m: DiscreteMeasure, R: GeneratorSet, opts: SolverOptions = SolverOptions()
) -> GapReport:
    """Sandwich the family's value between a primal witness and a dual bound.

    The cutting-plane solver supplies the optimal mixture weights and
    the dual potential g; ``dual_upper`` is ``dual_objective`` of g,
    recomputed and never taken from the master.  ConvexHull: the primal
    is the transport value of the optimal mixture.  FiniteSet: the exact
    vertex max is the primal side, and the same g certifies the hull
    closure, so a genuinely mixing finite family reports an honest
    positive gap.
    """
    lam, g, rounds = _cutting_planes(m, R, opts.max_iters)
    if R.hull_mode is HullMode.CONVEX_HULL:
        mixture = R.mixture_measure(lam)
        primal = transport_value(m, mixture)
    else:
        primal, idx = finite_set_value(m, R)
        lam = np.zeros(R.n_vertices)
        lam[idx] = 1.0
        mixture = R.vertex_measure(idx)
    lam.setflags(write=False)
    dual = DualPotential(g)
    dual_value = dual_objective(m, R, dual)
    gap = dual_value - primal
    status = (
        SolveStatus.CONVERGED
        if gap <= opts.target_gap * (1.0 + abs(primal))
        else SolveStatus.ITER_LIMIT
    )
    return GapReport(
        primal_lower=primal,
        dual_upper=dual_value,
        gap=gap,
        primal_weights=lam,
        primal_coupling=comonotone_coupling(m, mixture),
        dual_witness=dual,
        iterations={"cutting_plane": rounds},
        status=status,
    )
