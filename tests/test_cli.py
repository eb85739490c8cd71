"""Command line interface: artifacts, exit codes, thread cap handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfgsolvers import cli
from mfgsolvers.errors import BadCount, NonFiniteObjective, NotPositiveDefinite


TINY = {
    "problem": "mfg1d",
    "method": "ff",
    "M": 32,
    "N": 6,
    "gamma": 1.0,
    "beta": 1e6,
    "alpha": 0.4,
    "max_iters": 3,
}


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_run_writes_all_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, TINY)
    out = tmp_path / "out"
    code = cli.main(["run", cfg, "--output-dir", str(out)])
    assert code == cli.EXIT_OK
    for name in ("loss_history.csv", "solution_grid.csv", "error_report.json", "timing.csv"):
        assert (out / name).exists(), name
    report = json.loads((out / "error_report.json").read_text())
    assert set(report) == {"err_hbar", "grid", "linf_m", "linf_u", "mass_error", "residual_l2"}


def test_error_report_is_byte_identical_across_runs(tmp_path):
    cfg = _write_config(tmp_path, TINY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg, "--output-dir", str(out1)]) == 0
    assert cli.main(["run", cfg, "--output-dir", str(out2)]) == 0
    assert (out1 / "error_report.json").read_bytes() == (out2 / "error_report.json").read_bytes()


def test_missing_config_exits_2(tmp_path, capsys):
    code = cli.main(["run", str(tmp_path / "nope.json")])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**TINY, "bogus_knob": 1})
    assert cli.main(["run", cfg]) == cli.EXIT_CONFIG
    assert "bogus_knob" in capsys.readouterr().err


def test_config_naming_the_mode_count_exits_2(tmp_path, capsys):
    """The periodic kernel derives its mode count from sigma; the old key is rejected by name."""
    cfg = _write_config(tmp_path, {**TINY, "method": "gp", "nonlocal_modes": 64})
    out = tmp_path / "o"
    assert cli.main(["run", cfg, "--output-dir", str(out)]) == cli.EXIT_CONFIG
    assert "nonlocal_modes: unknown config key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, patch",
    [
        ("full_basis_2d", {"problem": "nonlocal2d", "method": "ff", "M": 64, "N": 2}),
        ("shared_features", {"problem": "planning", "method": "ff", "N": 4}),
    ],
)
def test_config_naming_a_retired_basis_key_exits_2(tmp_path, capsys, key, patch):
    """The torus basis is always the full mode set and the random bases are
    always drawn apart; a config that still names either key is rejected by name."""
    cfg = _write_config(tmp_path, {**TINY, **patch, key: True})
    out = tmp_path / "o"
    assert cli.main(["run", cfg, "--output-dir", str(out)]) == cli.EXIT_CONFIG
    assert f"{key}: unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_non_square_torus_lattice_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"problem": "nonlocal2d", "method": "gp", "M": 401})
    assert cli.main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    assert "M:" in capsys.readouterr().err


def test_non_object_config_exits_2(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    import mfgsolvers.pipeline as PL

    def boom(cfg):
        raise NotPositiveDefinite(7)

    monkeypatch.setattr(PL, "run_experiment", boom)
    cfg = _write_config(tmp_path, TINY)
    assert cli.main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_non_finite_objective_exits_3(tmp_path, monkeypatch):
    import mfgsolvers.pipeline as PL

    monkeypatch.setattr(
        PL, "run_experiment", lambda cfg: (_ for _ in ()).throw(NonFiniteObjective(2))
    )
    cfg = _write_config(tmp_path, TINY)
    assert cli.main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == cli.EXIT_NUMERICAL


def test_other_package_errors_exit_3_on_one_line(tmp_path, capsys, monkeypatch):
    import mfgsolvers.pipeline as PL

    monkeypatch.setattr(PL, "run_experiment", lambda cfg: (_ for _ in ()).throw(BadCount("odd")))
    cfg = _write_config(tmp_path, TINY)
    assert cli.main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "BadCount: odd" in err


def test_memory_error_exits_3_on_one_line(tmp_path, capsys, monkeypatch):
    """An allocation the machine refuses is reported, not raised as a traceback."""
    import mfgsolvers.pipeline as PL

    def refuse(cfg):
        raise MemoryError("Unable to allocate 18.6 GiB for an array with shape (50000, 50000)")

    monkeypatch.setattr(PL, "run_experiment", refuse)
    cfg = _write_config(tmp_path, TINY)
    assert cli.main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: out of memory: Unable to allocate")


def test_overflowing_objective_exits_3(tmp_path, capsys):
    """A start so large that its squared normalization terms overflow a float
    is a non-finite objective, not an OverflowError."""
    cfg = _write_config(
        tmp_path,
        {"problem": "mfg1d", "method": "gp", "M": 16, "init_mode": "gaussian",
         "init_scale": 1e300, "max_iters": 2},
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", cfg, "--output-dir", str(tmp_path / "o")])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.endswith("numerical failure: objective non-finite at iteration 0\n")


def test_overflowing_start_prints_one_line_on_stderr(tmp_path):
    """In a fresh process, with numpy's warnings at their defaults, an
    overflowing start prints its numerical failure and nothing else: the
    initial held-out residual and loss are evaluated with overflow ignored."""
    cfg = _write_config(
        tmp_path,
        {"problem": "mfg1d", "method": "gp", "M": 16, "init_mode": "gaussian",
         "init_scale": 1e300, "max_iters": 2},
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "mfgsolvers", "run", cfg, "--output-dir", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert proc.stderr == "numerical failure: objective non-finite at iteration 0\n"


def test_closed_stdout_exits_0_with_the_reports_written(tmp_path):
    """A run whose stdout reader is gone, as under ``| head -0``, writes its
    reports and exits 0 with nothing on stderr: no BrokenPipeError traceback
    and no "Exception ignored" line from the flush at exit."""
    cfg = _write_config(tmp_path, TINY)
    out = tmp_path / "o"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    read, write = os.pipe()
    os.close(read)  # closed before the run starts: its first write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mfgsolvers", "run", cfg, "--output-dir", str(out)],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.stderr == ""
    assert proc.returncode == cli.EXIT_OK
    for name in ("loss_history.csv", "solution_grid.csv", "error_report.json", "timing.csv"):
        assert (out / name).exists(), name


def test_overflowing_capacitance_prints_one_line_on_stderr(tmp_path):
    """In a fresh process, with numpy's warnings at their defaults, feature
    matrices so large that the feature side's V^T V overflows fail the inner
    step as one numerical failure line, not a finite answer with exit 0."""
    cfg = _write_config(
        tmp_path,
        {"problem": "planning", "method": "ff", "n_interior": 30, "n_initial": 5,
         "n_terminal": 5, "N": 3, "max_iters": 1},
    )
    scaled = (
        "import sys\n"
        "from mfgsolvers import cli, linsys\n"
        "assemble = linsys.assemble_feature_matrix\n"
        "linsys.assemble_feature_matrix = lambda *a: 1e160 * assemble(*a)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", scaled, "run", cfg, "--output-dir", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert proc.stderr.startswith(
        "numerical failure: feature-side inner solve failed: capacitance matrix I + V^T V: "
    )
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "config",
    [
        {"problem": "mfg1d", "method": "gp", "M": 64, "max_iters": 2, "eta": 1e308},
        {"problem": "planning", "method": "gp", "n_interior": 30, "n_initial": 5,
         "n_terminal": 5, "max_iters": 2, "eta": 1e308},
    ],
    ids=["lattice", "dense"],
)
def test_overflowing_nugget_prints_one_line_on_stderr(config, tmp_path):
    """In a fresh process, with numpy's warnings at their defaults, a nugget eta
    that overflows the gram's diagonal is a numerical failure on one line, on
    the lattice route (per-frequency factors) and on the dense one."""
    cfg = _write_config(tmp_path, config)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "mfgsolvers", "run", cfg, "--output-dir", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == cli.EXIT_NUMERICAL
    assert proc.stderr == (
        "numerical failure: the regularized gram must not contain infs or NaNs\n"
    )


def test_output_dir_that_is_a_file_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, TINY)
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    assert cli.main(["run", cfg, "--output-dir", str(blocker)]) == cli.EXIT_CONFIG
    assert "--output-dir:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "bench-precompute"])
def test_output_file_in_missing_dir_exits_2_before_running(command, tmp_path, capsys, monkeypatch):
    import mfgsolvers.pipeline as PL

    def never(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(PL, "run_experiment", never)
    monkeypatch.setattr(PL, "bench_precompute", never)
    cfg = _write_config(tmp_path, TINY)
    target = str(tmp_path / "missing" / "out.csv")
    argv = {
        "compare": ["compare", cfg, cfg, "--output", target],
        "bench-precompute": ["bench-precompute", "--m-values", "32", "--output", target],
    }[command]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "--output:" in capsys.readouterr().err


def test_bench_rejects_m_values_for_planning(tmp_path, capsys):
    argv = ["bench-precompute", "--problem", "planning", "--m-values", "16",
            "--output", str(tmp_path / "t.csv")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "--problem:" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_thread_cap_applied(monkeypatch):
    monkeypatch.setenv("MFG_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cli._apply_thread_cap()
    import os

    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_importing_cli_loads_no_numpy(tmp_path):
    """MFG_THREADS must be set before OpenBLAS loads, so importing the CLI loads no numpy.

    The package's public names still import; they load ``pipeline`` on first use.
    A whole run then calls LAPACK without importing ``scipy.linalg``, whose
    import would pull in ``numpy.f2py`` and most of scipy's startup cost.
    """
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps({"problem": "mfg1d", "method": "gp", "M": 32, "beta": 1e6, "max_iters": 2}),
        encoding="utf-8",
    )
    script = (
        "import sys, mfgsolvers.cli\n"
        "assert 'numpy' not in sys.modules, 'importing mfgsolvers.cli loaded numpy'\n"
        "from mfgsolvers import ExperimentConfig, RunResult, run_experiment\n"
        "from mfgsolvers import pipeline\n"
        "assert run_experiment is pipeline.run_experiment\n"
        "assert ExperimentConfig is pipeline.ExperimentConfig and RunResult is pipeline.RunResult\n"
        "assert mfgsolvers.cli.main(['run', sys.argv[1], '--output-dir', sys.argv[2]]) == 0\n"
        "loaded = {'scipy.linalg', 'numpy.f2py'} & set(sys.modules)\n"
        "assert not loaded, f'a run loaded {sorted(loaded)}'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("config", ["nonlocal2d_ff_nu1", "mfg1d_gp"])
def test_bundled_run_loads_neither_numpy_ma_nor_scipy_linalg(config, tmp_path):
    """A whole bundled run, its report included, imports neither ``numpy.ma`` nor
    ``scipy.linalg``: each import costs a sub-second run tens of milliseconds.
    ``np.unique`` without ``return_inverse`` (or the index and count flags)
    imports ``numpy.ma`` to ask ``np.ma.is_masked``."""
    path = Path(__file__).resolve().parents[1] / "src" / "mfgsolvers" / "configs" / f"{config}.json"
    script = (
        "import sys, mfgsolvers.cli\n"
        "assert mfgsolvers.cli.main(['run', sys.argv[1], '--output-dir', sys.argv[2]]) == 0\n"
        "loaded = {'numpy.ma', 'scipy.linalg'} & set(sys.modules)\n"
        "assert not loaded, f'a run loaded {sorted(loaded)}'\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_thread_cap_rejects_garbage(monkeypatch, capsys):
    monkeypatch.setenv("MFG_THREADS", "lots")
    with pytest.raises(SystemExit) as exc:
        cli._apply_thread_cap()
    assert exc.value.code == cli.EXIT_CONFIG


def test_bench_subcommand(tmp_path, capsys):
    out = tmp_path / "timing.csv"
    code = cli.main(
        [
            "bench-precompute",
            "--problem",
            "mfg1d",
            "--method",
            "ff",
            "--m-values",
            "32,64",
            "--repeats",
            "1",
            "--output",
            str(out),
        ]
    )
    assert code == cli.EXIT_OK
    assert out.exists()
    assert "M=64" in capsys.readouterr().out


def test_bench_rejects_bad_m_values(tmp_path, capsys):
    """Each bad count exits 2 naming its flag, before anything is timed or written."""
    target = tmp_path / "t.csv"
    cases = [
        (["--m-values", "a,b"], "--m-values:"),
        (["--m-values", ""], "--m-values: expected at least one M"),
        (["--m-values", "64,0"], "--m-values: M must be positive, got 0"),
        (["--m-values", "64,32"], "--m-values: M values must be ascending"),
        (["--m-values", "32", "--repeats", "-3"], "--repeats: expected at least 1, got -3"),
        (["--m-values", "32", "--repeats", "0"], "--repeats: expected at least 1, got 0"),
    ]
    for flags, message in cases:
        assert cli.main(["bench-precompute", *flags, "--output", str(target)]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err, flags
        assert not target.exists()


def test_compare_subcommand(tmp_path, capsys):
    cfg1 = _write_config(tmp_path, {**TINY, "method": "gp"}, "a.json")
    cfg2 = _write_config(tmp_path, TINY, "b.json")
    out = tmp_path / "gaps.json"
    code = cli.main(["compare", cfg1, cfg2, "--output", str(out)])
    assert code == cli.EXIT_OK
    gaps = json.loads(out.read_text())
    assert {"linf_u_gap", "linf_m_gap", "hbar_gap"} <= set(gaps)


def test_compare_mismatched_problems_exits_2(tmp_path, capsys, monkeypatch):
    import mfgsolvers.pipeline as PL

    def never(cfg):
        raise AssertionError("ran an experiment before comparing the problems")

    monkeypatch.setattr(PL, "run_experiment", never)
    cfg1 = _write_config(tmp_path, TINY, "a.json")
    cfg2 = _write_config(
        tmp_path,
        {"problem": "nonlocal2d", "method": "ff", "M": 64, "N": 2, "max_iters": 1, "beta": 1e4, "gamma": 10.0},
        "b.json",
    )
    assert cli.main(["compare", cfg1, cfg2]) == cli.EXIT_CONFIG
    assert "problem:" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["gp", "ff"])
def test_infinite_inner_system_exits_3(method, tmp_path, capsys, monkeypatch):
    """An infinite Jacobian entry with a finite residual is a numerical failure."""
    import mfgsolvers.problems as P

    residual = P._nonlocal2d_residual

    def inf_jacobian(spec, X, U, M, lam, out):
        residual(spec, X, U, M, lam, out)
        out[1][0, 0, 1] = np.inf

    monkeypatch.setattr(P, "_nonlocal2d_residual", inf_jacobian)
    cfg = _write_config(
        tmp_path,
        {"problem": "nonlocal2d", "method": method, "M": 64, "N": 2,
         "max_iters": 2, "beta": 1e4, "gamma": 10.0},
    )
    assert cli.main(["run", cfg, "--output-dir", str(tmp_path / "o")]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
