"""scripts/artifact_diff.py and the tolerance flags of scripts/compare_outputs.sh."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_spec = importlib.util.spec_from_file_location("artifact_diff", SCRIPTS / "artifact_diff.py")
AD = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(AD)


def _json(path, **fields):
    path.write_text(json.dumps(fields), encoding="utf-8")
    return str(path)


def _csv(path, header, *rows):
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    return str(path)


def test_equal_values_pass_without_a_tolerance(tmp_path):
    a = _json(tmp_path / "a.json", residual_l2=0.5, grid="100 x 100", linf_u=None)
    b = _json(tmp_path / "b.json", grid="100 x 100", residual_l2=0.5, linf_u=None)
    assert AD.main([a, b]) == 0


@pytest.mark.parametrize(
    "rtol, atol, ok",
    [(0.0, 0.0, False), (2e-9, 0.0, True), (5e-10, 0.0, False), (0.0, 1e-9, False), (0.0, 2e-8, True)],
)
def test_numeric_fields_within_rtol_and_atol(tmp_path, rtol, atol, ok):
    """|a - b| <= atol + rtol max(|a|, |b|) on every value: here |a - b| = 1e-8 at scale 10."""
    a = _csv(tmp_path / "a.csv", ["iteration", "total"], (0, 10.0), (1, -1e-300))
    b = _csv(tmp_path / "b.csv", ["iteration", "total"], (0, 10.0 + 1e-8), (1, -1e-300))
    assert AD.main([a, b, "--rtol", str(rtol), "--atol", str(atol)]) == (0 if ok else 1)


def test_report_lines_name_each_field_and_mark_the_excess(tmp_path, capsys):
    a = _json(tmp_path / "a.json", mass_error=1.0, hbar_gap=2.0)
    b = _json(tmp_path / "b.json", mass_error=1.5, hbar_gap=2.0)
    assert AD.main([a, b, "--rtol", "0.1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "  mass_error: max rel diff 0.333, max abs diff 0.5  exceeds",
        "  hbar_gap: max rel diff 0, max abs diff 0",
    ]


@pytest.mark.parametrize(
    "b_header, b_rows",
    [
        (["x0", "u", "mm"], [(0.0, 1.0, 2.0)]),  # a renamed column
        (["x0", "u", "m"], [(0.0, 1.0, 2.0), (1.0, 1.0, 2.0)]),  # an extra row
        (["x0", "u", "m"], [(0.0, 1.0, float("nan"))]),  # NaN on one side
    ],
)
def test_structure_and_nan_fail_any_tolerance(tmp_path, b_header, b_rows):
    a = _csv(tmp_path / "a.csv", ["x0", "u", "m"], (0.0, 1.0, 2.0))
    b = _csv(tmp_path / "b.csv", b_header, *b_rows)
    assert AD.main([a, b, "--rtol", "1", "--atol", "1e300"]) == 1


def test_a_differing_string_field_fails_any_tolerance(tmp_path):
    a = _json(tmp_path / "a.json", grid="100 x 100", residual_l2=0.5)
    b = _json(tmp_path / "b.json", grid="64 x 512", residual_l2=0.5)
    assert AD.main([a, b, "--rtol", "1"]) == 1


@pytest.mark.parametrize("method_b, ok", [("gp", True), ("ff", False)])
def test_a_text_csv_column_is_compared_as_other_content(tmp_path, method_b, ok):
    """timing.csv's ``method`` column holds no numbers: an equal one passes
    within the tolerance of the time columns, a differing one fails, and
    neither raises."""
    paths = [tmp_path / "a" / "timing.csv", tmp_path / "b" / "timing.csv"]
    for path, method, seconds in zip(paths, ("gp", method_b), ("0.0125", "0.0126")):
        path.parent.mkdir()
        header = "method,M,qr_seconds,cholesky_seconds"
        path.write_text(f"{header}\r\n{method},256,0.0,{seconds}\r\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "artifact_diff.py"), *map(str, paths), "--rtol", "0.01"],
        capture_output=True, text=True,
    )
    assert proc.returncode == (0 if ok else 1)
    assert "Traceback" not in proc.stderr
    assert ("non-numeric content differs" in proc.stdout) != ok


@pytest.mark.parametrize(
    "args", [[], ["--rtol"], ["--rtol", "abc", "HEAD"], ["--atol", "-1", "HEAD"], ["--tol", "1", "HEAD"]]
)
def test_compare_outputs_rejects_malformed_flags(args):
    """Usage errors exit 2 before any tree is extracted or run."""
    proc = subprocess.run(
        ["bash", str(SCRIPTS / "compare_outputs.sh"), *args], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
