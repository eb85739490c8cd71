"""Command line entry point.

Subcommands: ``run <config>`` executes one experiment from a JSON config
and writes loss_history.csv, solution_grid.csv, error_report.json and
timing.csv; ``bench-precompute`` times the factorizations over a range of
sample counts; ``compare`` runs two configs on the same problem and
reports their cross-agreement.

The environment variable MFG_THREADS caps the BLAS/OpenMP worker count: it
sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS where they
are unset.  That works only before numpy and its BLAS load, so the heavy
imports happen inside main(), after the cap, and importing this module (or
the package, whose public names load ``pipeline`` on first use) loads no
numpy.  This holds for ``python -m mfgsolvers`` and the ``mfgsolvers``
script alike.

Exit codes: 0 success, also when the reader of stdout closed it early; 2 a
bad config or flag (output paths, and whether the two ``compare`` configs
name one problem, are checked before anything runs), naming it; 3 a
numerical failure, any other ``MfgError`` or a refused allocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _apply_thread_cap() -> None:
    cap = os.environ.get("MFG_THREADS")
    if not cap:
        return
    if not cap.isdigit() or int(cap) < 1:
        print(f"MFG_THREADS: expected a positive integer, got {cap!r}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _load_config(path: str):
    from .errors import ConfigError
    from .pipeline import ExperimentConfig

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return ExperimentConfig.from_dict(data)


def _check_output_file(path: str, flag: str) -> None:
    """Fail before any run when ``path`` cannot be written as a file."""
    from .errors import ConfigError

    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise ConfigError(f"{flag}: {path} is a directory or its directory does not exist")


def _cmd_run(args) -> int:
    from .errors import ConfigError
    from .pipeline import export_solution_grid, export_timing, run_experiment

    cfg = _load_config(args.config)
    out = Path(args.output_dir or cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        flag = "--output-dir" if args.output_dir else "output_dir"
        raise ConfigError(f"{flag}: cannot create directory {out}: {exc}") from exc
    result = run_experiment(cfg)
    result.history.export_csv(out / "loss_history.csv")
    export_solution_grid(result, out / "solution_grid.csv")
    export_timing(result.timing_rows, out / "timing.csv")
    (out / "error_report.json").write_text(result.report.to_json() + "\n", encoding="utf-8")
    print(f"run complete; reports written to {out}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .errors import ConfigError
    from .pipeline import ExperimentConfig, bench_precompute, check_bench_counts, export_timing
    from .pipeline import sized_by_m_problem

    try:
        m_values = [int(v) for v in args.m_values.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"--m-values: {exc}") from exc
    check_bench_counts(m_values, args.repeats, ("--m-values", "--repeats"))
    sized_by_m_problem(args.problem, "--problem")
    _check_output_file(args.output, "--output")
    base = _load_config(args.config) if args.config else ExperimentConfig()
    rows = bench_precompute(args.problem, args.method, m_values, args.repeats, base)
    export_timing(rows, args.output)
    for method, m, qr, chol in rows:
        print(f"{method} M={m}: qr {qr:.4f}s cholesky {chol:.4f}s")
    return EXIT_OK


def _cmd_compare(args) -> int:
    from .errors import ConfigError
    from .pipeline import compare_runs, run_experiment

    cfg1 = _load_config(args.config1)
    cfg2 = _load_config(args.config2)
    if cfg1.problem != cfg2.problem:
        raise ConfigError(
            f"problem: the configs name different problems ({cfg1.problem} and {cfg2.problem})"
        )
    if args.output:
        _check_output_file(args.output, "--output")
    r1 = run_experiment(cfg1)
    r2 = run_experiment(cfg2)
    gaps = compare_runs(r1, r2)
    text = json.dumps(gaps, sort_keys=True, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfgsolvers",
        description="Mesh-free MFG solvers: kernel collocation and Fourier features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None, help="override the config output_dir")
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench-precompute", help="time the precomputation step")
    p_bench.add_argument("--problem", default="mfg1d")
    p_bench.add_argument("--method", default="gp", choices=["gp", "ff"])
    p_bench.add_argument("--m-values", default="256,512,1024,2048")
    p_bench.add_argument("--repeats", type=int, default=5)
    p_bench.add_argument("--config", default=None, help="base config for other parameters")
    p_bench.add_argument("--output", default="timing.csv")
    p_bench.set_defaults(func=_cmd_bench)

    p_cmp = sub.add_parser("compare", help="cross-agreement of two configs")
    p_cmp.add_argument("config1")
    p_cmp.add_argument("config2")
    p_cmp.add_argument("--output", default=None)
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    from .errors import (
        ConfigError,
        GridMismatch,
        MfgError,
        NonFiniteMatrix,
        NonFiniteObjective,
        NotPositiveDefinite,
        SingularNormalEquations,
    )

    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (``| head``); every subcommand
        # writes its files before it prints.  Python's documented recipe:
        # stdout goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ConfigError, GridMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        NonFiniteMatrix, NotPositiveDefinite, NonFiniteObjective, SingularNormalEquations
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MfgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
