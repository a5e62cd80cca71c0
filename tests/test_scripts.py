"""The helper scripts under scripts/, loaded by path and run in-process."""

import csv
import importlib.util
import io
import re
import sys
from pathlib import Path

from logsine import GridPoint, eval_derivative_cot, eval_derivative_series
from logsine.verify import _fd_residual, _ladder_residual, _path_residual

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, argv, monkeypatch, capsys) -> str:
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()
    return capsys.readouterr().out


def test_residual_sweep_columns_are_verify_residuals(monkeypatch, capsys):
    out = _run_script("residual_sweep", ["--n-max", "2", "--x-steps", "2"], monkeypatch, capsys)
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(int(r["n"]), float(r["x"])) for r in rows] == [(1, 0.45), (1, 0.85), (2, 0.45), (2, 0.85)]
    for row in rows:
        p = GridPoint(int(row["n"]), float(row["x"]))
        assert float(row["derivative_fd_vs_cot"]) == _fd_residual(p)
        assert float(row["ladder_vs_diff"]) == _ladder_residual(p)
        assert float(row["path_equivalence"]) == _path_residual(p)
        assert float(row["series_vs_cot_corrected"]) == abs(eval_derivative_series(p) - eval_derivative_cot(p))


def test_run_audits_writes_the_bundle(tmp_path, monkeypatch, capsys):
    out = _run_script("run_audits", ["--out-dir", str(tmp_path)], monkeypatch, capsys)
    names = ["audits.txt", "table_audit.csv", "small_x_audit.csv", "large_n_audit.csv", "verify.txt", "grid.csv"]
    assert re.findall(r"^(\S+): exit (\d+)$", out, re.M) == [(name, "0") for name in names]
    for name in names:
        assert (tmp_path / name).stat().st_size > 0
