#!/usr/bin/env python3
"""Produce the full audit bundle as text and CSV files.

Writes the published-table residual audit, both asymptotic audits, the
verification suite report, and a reference grid table into --out-dir.
"""

import argparse
from pathlib import Path

from logsine.cli import main as logsine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="audit_out", help="destination directory")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    jobs = [
        (["audit"], "audits.txt"),
        (["audit", "--only", "table", "--format", "csv"], "table_audit.csv"),
        (["audit", "--only", "small-x", "--format", "csv"], "small_x_audit.csv"),
        (["audit", "--only", "large-n", "--format", "csv"], "large_n_audit.csv"),
        (["verify"], "verify.txt"),
        (
            [
                "table",
                "--n-list", ",".join(str(n) for n in range(1, 11)),
                "--x-list", ",".join(f"{i / 10:.1f}" for i in range(1, 11)),
                "--format", "csv",
            ],
            "grid.csv",
        ),
    ]
    for argv, name in jobs:
        code = logsine(argv + ["--out", str(out / name)])
        print(f"{name}: exit {code}")
    print(f"bundle written to {out}/")


if __name__ == "__main__":
    main()
