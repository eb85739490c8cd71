"""One benchmark sample: ``mfgsolvers run CONFIG`` once, in a fresh process.

    python3 perfbench/sample.py CONFIG OUT_DIR RESULT_JSON [--spans SPANS_JSON] [--pause-fds R,W]

``run.py`` starts it with the checkout's ``src`` on PYTHONPATH and the
thread variables pinned. The clock starts before the package is imported,
so the run covers the imports that ``cli.main`` triggers plus the call
itself, as a command-line user pays them.

Untraced, exactly two calls are wrapped: ``optimizer.gauss_newton_run``,
whose entry and exit split the run into setup, solve and report, and
``pipeline.run_experiment``, whose result carries lambda and the held-out
residuals (the CLI writes lambda nowhere). With ``--spans`` every layer
entry point in ``tracing.install_layer_wrappers`` is wrapped too and the
spans are written to SPANS_JSON. With ``--pause-fds`` the sample stops at
the entry and the exit of ``gauss_newton_run`` while ``run.py`` times its
host-speed probe; the pauses are left out of every stage time.

The clock marks (``time.perf_counter``, the launcher's clock too) and the
run's resource use go to RESULT_JSON; ``run.py`` turns the marks into stage
times. The exit code is that of ``cli.main``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

THREAD_VARS = ("MFG_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _software() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_desc,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("out_dir")
    ap.add_argument("result")
    ap.add_argument("--spans", default=None, help="trace every layer and write the spans here")
    ap.add_argument("--pause-fds", default=None, metavar="R,W",
                    help="pause at the entry and exit of the solve: write a byte to W, "
                         "then wait for a byte on R")
    args = ap.parse_args(argv)
    pause_fds = [int(fd) for fd in args.pause_fds.split(",")] if args.pause_fds else None

    t0 = time.perf_counter()
    from mfgsolvers import cli, optimizer, pipeline

    marks: dict = {}
    captured: dict = {}
    gauss_newton_run = optimizer.gauss_newton_run
    run_experiment = pipeline.run_experiment

    def pause() -> None:
        """Lets the launcher time its host-speed probe."""
        if pause_fds:
            os.write(pause_fds[1], b"p")
            os.read(pause_fds[0], 1)

    def timed_gauss_newton_run(*a, **kw):
        marks["setup_end"] = time.perf_counter()
        pause()
        marks["solve_start"] = time.perf_counter()
        try:
            return gauss_newton_run(*a, **kw)
        finally:
            marks["solve_end"] = time.perf_counter()
            pause()
            marks["report_start"] = time.perf_counter()

    def capturing_run_experiment(cfg):
        r = run_experiment(cfg)
        captured.update(
            lam=None if r.lam is None else float(r.lam),
            initial_residual=float(r.initial_residual),
            final_residual=float(r.final_residual),
        )
        return r

    optimizer.gauss_newton_run = timed_gauss_newton_run
    pipeline.run_experiment = capturing_run_experiment

    run = cli.main
    tracer = None
    if args.spans:
        from tracing import Tracer, install_layer_wrappers

        # the sample directory is named after workload, seed and sample index
        tracer = Tracer(os.path.basename(os.path.dirname(os.path.abspath(args.result))))
        install_layer_wrappers(tracer)
        run = tracer.wrap("cli.main", cli.main)

    code = run(["run", args.config, "--output-dir", args.out_dir])
    t_end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "exit_code": code,
        "marks": {"t0": t0, **marks, "t_end": t_end},
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime,
        **captured,
        "software": _software(),
    }
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
