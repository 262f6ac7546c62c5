"""The power-penalty risk measure and its dual certificate.

rho(X) = inf_t { t + c * ||(X - t)_+||_p } has a one-variable dual whose value
matches the primal exactly at the optimum.  The exact minimizer (a binary
search over the atoms, then the closed-form root for p = 2 inside one cell),
an exhaustive grid, and the certificate all land on the same number; the table
then tracks the minimizer as the penalty weight c grows (heavier penalty
pushes t toward the left tail, and rho toward the essential sup).
"""

import numpy as np

from otrisk import from_samples, higher_moment, higher_moment_certificate


def grid_scan(m, p, c, num=2_000_001):
    # the minimizer can sit below the support, but never further than
    # c * span / (c - 1): below that, the Jensen lower bound t + c*(mean - t)
    # already exceeds the value at the support minimum
    span = float(m.positions[-1] - m.positions[0])
    lo = float(m.positions[0]) - c * max(span, 1.0) / (c - 1.0) - 1.0
    ts = np.linspace(lo, float(m.positions[-1]), num)
    tails = np.maximum(m.positions[None, :] - ts[:, None], 0.0) ** p
    h = ts + c * (tails @ m.weights) ** (1.0 / p)
    return float(h.min())


def main() -> None:
    coin = from_samples([0.0, 1.0])
    value, t_star = higher_moment(coin, 2.0, 1.2)
    t_bar, u_bar, dual = higher_moment_certificate(coin, 2.0, 1.2)
    print("fair coin on {0,1}, p=2, c=1.2")
    print(f"  exact minimizer {value:.12f}  at t = {t_star:+.6f}")
    print(f"  grid scan       {grid_scan(coin, 2.0, 1.2):.12f}")
    print(f"  dual certificate{dual: .12f}  (t = {t_bar:+.6f}, u = {u_bar:.6f})")
    print()

    rng = np.random.default_rng(5)
    m = from_samples(rng.normal(0.0, 1.0, size=400))
    print(f"gaussian-ish sample, p=2, sup = {m.positions[-1]:.4f}")
    print(f"{'c':>6} {'rho':>10} {'t*':>9} {'|primal-dual|':>14}")
    for c in (1.05, 1.5, 2.0, 4.0, 8.0):
        value, t_star = higher_moment(m, 2.0, c)
        dual = higher_moment_certificate(m, 2.0, c)[2]
        print(f"{c:>6.2f} {value:>10.5f} {t_star:>9.4f} {abs(value - dual):>14.2e}")


if __name__ == "__main__":
    main()
