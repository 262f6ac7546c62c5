"""Independent oracles used by the test suite.

Everything in here recomputes expected values by a route different from
the library under test: exhaustive vertex enumeration of transportation
polytopes, dense grid minimization, explicit tail sorting, and Sinkhorn
scaling for random feasible couplings.  Deliberately slow and simple.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


# ----------------------------------------------------------------------
# transportation polytope vertices via spanning trees of K_{n,k}
#
# Every vertex of {P >= 0 : P 1 = w, P^T 1 = v} is the basic solution of
# some spanning tree of the complete bipartite graph on n rows + k cols
# (degenerate vertices come from several trees).  For fixed (n, k) the
# basic solution is LINEAR in (w, v), so we precompute, per tree, the
# matrix mapping [w; v] to the n+k-1 edge values, stacked over all trees.


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _spanning_trees(n: int, k: int) -> list[tuple[tuple[int, int], ...]]:
    """All spanning trees of K_{n,k}, as tuples of (row, col) edges."""
    edges = [(i, j) for i in range(n) for j in range(k)]
    need = n + k - 1
    trees = []
    for subset in itertools.combinations(edges, need):
        uf = _UnionFind(n + k)
        ok = True
        for i, j in subset:
            if not uf.union(i, n + j):
                ok = False
                break
        if ok:
            trees.append(subset)
    expected = n ** (k - 1) * k ** (n - 1)
    assert len(trees) == expected, (n, k, len(trees), expected)
    return trees


@lru_cache(maxsize=None)
def _tree_tensor(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-shape linear maps from marginals to tree basic solutions.

    Returns (T, cells): T has shape (trees, n+k-1, n+k) with
    edge_values = T[t] @ concat(w, v), and cells[t, e] is the flat cell
    index i*k+j of edge e in tree t.
    """
    trees = _spanning_trees(n, k)
    nt = len(trees)
    T = np.zeros((nt, n + k - 1, n + k))
    cells = np.zeros((nt, n + k - 1), dtype=np.intp)
    for t, tree in enumerate(trees):
        # symbolic leaf peeling: node budgets live in coefficient space
        budget = np.zeros((n + k, n + k))
        for node in range(n + k):
            budget[node, node] = 1.0
        remaining = {e: None for e in tree}
        deg = [0] * (n + k)
        inc: list[list[tuple[int, int]]] = [[] for _ in range(n + k)]
        for e in tree:
            i, j = e
            deg[i] += 1
            deg[n + j] += 1
            inc[i].append(e)
            inc[n + j].append(e)
        alive = {e for e in tree}
        edge_slot = {e: s for s, e in enumerate(tree)}
        leaves = [node for node in range(n + k) if deg[node] == 1]
        while alive:
            node = leaves.pop()
            if deg[node] != 1:  # stale: its edge was consumed from the other end
                continue
            edge = next(e for e in inc[node] if e in alive)
            i, j = edge
            other = n + j if node == i else i
            coeff = budget[node].copy()
            s = edge_slot[edge]
            T[t, s] = coeff
            cells[t, s] = i * k + j
            budget[other] -= coeff
            alive.discard(edge)
            deg[node] -= 1
            deg[other] -= 1
            if deg[other] == 1:
                leaves.append(other)
    return T, cells


def polytope_vertices(w: np.ndarray, v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """All vertices of the transportation polytope with marginals (w, v).

    Returns an array (count, n, k) of coupling matrices.  Degenerate
    vertices may appear several times (once per supporting tree); that is
    harmless for the min/max uses these serve.
    """
    w = np.asarray(w, float)
    v = np.asarray(v, float)
    n, k = w.size, v.size
    T, cells = _tree_tensor(n, k)
    z = np.concatenate([w, v])
    vals = T @ z  # (trees, n+k-1)
    feasible = np.where(vals.min(axis=1) >= -tol)[0]
    mats = np.zeros((feasible.size, n * k))
    for out, t in enumerate(feasible):
        mats[out][cells[t]] = np.maximum(vals[t], 0.0)
    return mats.reshape(-1, n, k)


def max_bilinear(x: np.ndarray, y: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """max over couplings of sum_ij P_ij x_i y_j, by vertex enumeration."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    w = np.asarray(w, float)
    v = np.asarray(v, float)
    T, cells = _tree_tensor(w.size, v.size)
    z = np.concatenate([w, v])
    vals = T @ z
    feasible = vals.min(axis=1) >= -1e-12
    cost = np.outer(x, y).ravel()
    scores = (np.maximum(vals, 0.0) * cost[cells]).sum(axis=1)
    return float(scores[feasible].max())


def min_cost_transport(cost: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """min over couplings of sum_ij P_ij cost_ij, by vertex enumeration."""
    w = np.asarray(w, float)
    v = np.asarray(v, float)
    T, cells = _tree_tensor(w.size, v.size)
    z = np.concatenate([w, v])
    vals = T @ z
    feasible = vals.min(axis=1) >= -1e-12
    scores = (np.maximum(vals, 0.0) * np.asarray(cost, float).ravel()[cells]).sum(axis=1)
    return float(scores[feasible].min())


# ----------------------------------------------------------------------
# random feasible couplings (Sinkhorn scaling of positive matrices)


def random_couplings(
    rng: np.random.Generator, w: np.ndarray, v: np.ndarray, count: int, iters: int = 80
) -> np.ndarray:
    """`count` random interior points of the transportation polytope.

    Sinkhorn scaling of i.i.d. positive matrices; the final row scaling
    makes row sums exact, column sums match to ~1e-15.
    """
    w = np.asarray(w, float)
    v = np.asarray(v, float)
    P = rng.uniform(0.1, 1.0, size=(count, w.size, v.size))
    for _ in range(iters):
        P *= (v / P.sum(axis=1))[:, None, :]
        P *= (w / P.sum(axis=2))[:, :, None]
    return P


# ----------------------------------------------------------------------
# grid minimizers


def cvar_tail_sort(values, weights, beta: float) -> float:
    """CV@R by explicit descending-sort tail accumulation (scalar loop)."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    tail = 1.0 - beta
    acc = 0.0
    remaining = tail
    for i in order:
        take = min(weights[i], remaining)
        acc += take * values[i]
        remaining -= take
        if remaining <= 1e-17:
            break
    return acc / tail


def rockafellar_uryasev_grid(values, weights, beta: float, t_grid) -> float:
    """min over the grid of t + E[(X - t)_+]/(1 - beta)."""
    x = np.asarray(values, float)
    w = np.asarray(weights, float)
    best = math.inf
    for t in t_grid:
        val = t + float(w @ np.maximum(x - t, 0.0)) / (1.0 - beta)
        best = min(best, val)
    return best


def higher_moment_grid(values, weights, p: float, c: float, num: int = 4001, refine: int = 3):
    """Grid minimization of t + c * E[(X-t)_+^p]^(1/p), with refinement.

    Returns (value, argmin).  Each refinement zooms 10x around the
    incumbent, so the final t-resolution is span / num / 10^refine.
    """
    x = np.asarray(values, float)
    w = np.asarray(weights, float)

    def h(t):
        pos = np.maximum(x - t, 0.0)
        return t + c * float(w @ pos**p) ** (1.0 / p)

    # the minimizer can sit below the support, but no more than c*span/(c-1)
    # below it: further down the Jensen bound t + c*(mean - t) exceeds h(x.max())
    lo = float(x.min()) - c * (float(x.max()) - float(x.min())) / (c - 1.0) - 1.0
    hi = float(x.max()) + 1.0
    best_t, best_v = lo, math.inf
    for _ in range(refine + 1):
        grid = np.linspace(lo, hi, num)
        vals = np.array([h(t) for t in grid])
        i = int(vals.argmin())
        best_t, best_v = float(grid[i]), float(vals[i])
        step = (hi - lo) / (num - 1)
        lo, hi = best_t - 5 * step, best_t + 5 * step
    return best_v, best_t


# ----------------------------------------------------------------------
# misc direct scans


def quantile_scan(positions, cumulative, t: float) -> float:
    """First support point whose CDF reaches t, by linear scan."""
    for x, c in zip(positions, cumulative):
        if c >= t:
            return float(x)
    return float(positions[-1])


def quantile_product_integral(m1, m2, samples: int = 200_001) -> float:
    """Midpoint-rule approximation of the quantile product integral.

    Independent of the merged-partition code path: evaluates both
    quantile functions at midpoints of a uniform grid on (0,1).
    """
    t = (np.arange(samples) + 0.5) / samples
    q1 = m1.positions[np.searchsorted(m1.cumulative, t, side="left")]
    q2 = m2.positions[np.searchsorted(m2.cumulative, t, side="left")]
    return float(q1 @ q2) / samples


# ----------------------------------------------------------------------
# hull values


def _quantile_product(x_sorted, cum_x, y, cum_y) -> float:
    """Quantile-product integral of two step quantile functions, read at
    the midpoints of the cells of their merged cumulative grid."""
    breaks = np.unique(np.concatenate((cum_x, cum_y)))
    widths = np.diff(breaks, prepend=0.0)
    mid = breaks - widths / 2.0
    qx = x_sorted[np.minimum(np.searchsorted(cum_x, mid), x_sorted.size - 1)]
    qy = y[np.minimum(np.searchsorted(cum_y, mid), y.size - 1)]
    return math.fsum((qx * qy * widths).tolist())


def two_vertex_hull_scan(values, support, rows) -> tuple[float, float]:
    """Best transport value of an equal-weight sample over the mixtures
    (1 - t) r0 + t r1, by scanning t over every kink and both ends.

    The value is concave and piecewise linear in t, with kinks where a
    cumulative mixture weight crosses an edge i/n of the sample, so the
    best scanned t is a maximizer.  Returns (value, t).
    """
    x = np.sort(np.asarray(values, float))
    n = x.size
    cum_x = np.arange(1, n + 1) / n
    y = np.asarray(support, float)
    r0, r1 = np.asarray(rows, float)
    a, b = np.cumsum(r0)[:-1], np.cumsum(r1)[:-1]
    ts = [np.array([0.0, 1.0])]
    for ak, bk in zip(a, b):
        if bk != ak:
            t = (cum_x - ak) / (bk - ak)
            ts.append(t[(t >= 0.0) & (t <= 1.0)])
    best, best_t = -math.inf, 0.0
    for t in np.unique(np.concatenate(ts)).tolist():
        cum_y = np.cumsum((1.0 - t) * r0 + t * r1)
        cum_y[-1] = 1.0
        value = _quantile_product(x, cum_x, y, cum_y)
        if value > best:
            best, best_t = value, t
    return best, best_t


def hull_value_lp(values, weights, support, rows) -> float:
    """The hull value as one transport LP (scipy HiGHS): maximize
    sum_ik P_ik x_i y_k over couplings P of (values, weights) with a
    mixture lambda @ rows, jointly in P and lambda."""
    from scipy.optimize import linprog

    x = np.asarray(values, float)
    w = np.asarray(weights, float)
    y = np.asarray(support, float)
    R = np.atleast_2d(np.asarray(rows, float))
    n, k, v = x.size, y.size, R.shape[0]
    cost = np.concatenate((-np.outer(x, y).ravel(), np.zeros(v)))
    a_x = np.hstack((np.kron(np.eye(n), np.ones((1, k))), np.zeros((n, v))))
    a_y = np.hstack((np.kron(np.ones((1, n)), np.eye(k)), -R.T))
    a_lam = np.concatenate((np.zeros(n * k), np.ones(v)))[None, :]
    res = linprog(
        cost,
        A_eq=np.vstack((a_x, a_y, a_lam)),
        b_eq=np.concatenate((w, np.zeros(k), [1.0])),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def dual_value_and_subgradient(values, weights, support, rows, g):
    """J(g) = E[max_k (x y_k - g_k)] + max_v <g, r_v> and a subgradient of
    it in g: r_{v*} minus the law of the conjugate's argmax, with the
    pinned slot 0 zeroed."""
    x = np.asarray(values, float)
    w = np.asarray(weights, float)
    y = np.asarray(support, float)
    R = np.atleast_2d(np.asarray(rows, float))
    g = np.asarray(g, float)
    scores = x[:, None] * y[None, :] - g[None, :]
    ki = scores.argmax(axis=1)
    inner = R @ g
    vi = int(inner.argmax())
    J = math.fsum((scores[np.arange(x.size), ki] * w).tolist()) + float(inner[vi])
    s = R[vi] - np.bincount(ki, weights=w, minlength=y.size)
    s[0] = 0.0
    return J, s
