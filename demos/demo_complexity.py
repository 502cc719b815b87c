"""Measure primitive-operation counts over an (n, m) grid and fit them.

n is the number of blocks a deal touches, m its sub-transaction count.

    python demos/demo_complexity.py
"""

from topocbt import complexity_fit, fit_ops, measure_grid
from topocbt.harness import FIT_TOLERANCE


def show_grid(points):
    ns = sorted({n for n, _, _ in points})
    ms = sorted({m for _, m, _ in points})
    ops = {(n, m): o for n, m, o in points}
    print("        " + "".join(f"m={m:<6}" for m in ms))
    for n in ns:
        print(f"  n={n}  " + "".join(f"{ops[(n, m)]:<8}" for m in ms))


def main():
    print("Main engine, failure-free grid:")
    points = measure_grid("topocbt")
    show_grid(points)
    verdict = complexity_fit(points)
    a, b, c = verdict.main_fit.coefficients
    print(f"\n  least squares: ops = {a:.2f}*n^2 + {b:.2f}*n*m + {c:.2f}")
    print(f"  residual ratio {verdict.main_fit.residual_ratio:.4f} "
          f"(tolerance {FIT_TOLERANCE}) -> {'PASS' if verdict.passed else 'FAIL'}")
    print(f"  at m=1 the quadratic term dominates: {verdict.n2_dominates_at_m1}")
    print("  locking and teardown touch every block pair once, and each")
    print("  sub-transaction costs a linear pass: quadratic plus cross term")

    print("\nPairwise-swap baseline, same grid:")
    swap_points = measure_grid("ac2s")
    show_grid(swap_points)
    per_swap = fit_ops(swap_points, "mn2_1")
    mixed = fit_ops(swap_points, "n2_nm_1")
    print(f"\n  m*n^2 model residual ratio:   {per_swap.residual_ratio:.4f}")
    print(f"  n^2 + n*m model residual ratio: {mixed.residual_ratio:.4f}")
    print("  every swap re-verifies all block pairs, so the count scales")
    print(f"  with m*n^2 -> the per-swap model fits better: "
          f"{per_swap.residual_ratio < mixed.residual_ratio}")


if __name__ == "__main__":
    main()
