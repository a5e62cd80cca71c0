#!/usr/bin/env python3
"""Sweep identity residuals over a denser grid than the default checks use.

Emits one CSV row per (n, x) with the residual of each identity that is
defined pointwise, which is handy for plotting how far the quadrature and
series budgets actually sit below their tolerances. The derivative, ladder
and path columns are the residuals `logsine verify` scores, with the path
residual not scaled by 1/n.
"""

import argparse
import csv
import sys

from logsine import GridPoint, eval_derivative_cot, eval_derivative_series
from logsine.verify import _fd_residual, _ladder_residual, _path_residual

COLUMNS = ("n", "x", "derivative_fd_vs_cot", "ladder_vs_diff", "path_equivalence", "series_vs_cot_corrected")


def residuals(n: int, x: float) -> dict:
    p = GridPoint(n, x)
    series = abs(eval_derivative_series(p, constant_variant="corrected") - eval_derivative_cot(p))
    return dict(zip(COLUMNS, (n, x, _fd_residual(p), _ladder_residual(p), _path_residual(p), series)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--x-steps", type=int, default=16,
                        help="number of x samples in (0.05, 0.85]")
    args = parser.parse_args()

    writer = csv.DictWriter(sys.stdout, fieldnames=COLUMNS, lineterminator="\n")
    writer.writeheader()
    for n in range(1, args.n_max + 1):
        for i in range(1, args.x_steps + 1):
            x = 0.05 + 0.8 * i / args.x_steps
            writer.writerow(residuals(n, round(x, 6)))


if __name__ == "__main__":
    main()
