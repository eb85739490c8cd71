"""Spans recorded around calls into the package's layers, from outside it.

A ``Tracer`` replaces a public function (or method) with a wrapper that
records one span per call: name, start, end, parent span and run id, plus
counts derived from the call's arguments or result. Spans stay in memory
and are written out once, when the sample ends. The tracer also times its
own bookkeeping, which is the tracing overhead it adds to the run.

``install_layer_wrappers`` puts a wrapper around every layer entry point
the benchmark reports on; ``layer_metrics`` turns a span list into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

_NONLOCAL_CHUNK_ENTRIES = 2**24  # chunk size used by kernels.nonlocal_from_coeffs
_MB = float(2**20)
# every span name a traced sample records; each gets a ``<name>.self_s`` metric
SPAN_NAMES = (
    "cli.main", "pipeline.run_experiment", "pipeline.export_grid",
    "collocation.build_functionals", "linsys.assemble", "linsys.factor",
    "kernels.pairwise", "kernels.nonlocal_dft", "features.eval",
    "optimizer.gauss_newton", "optimizer.inner_solve", "lapack.inner_cho", "optimizer.loss",
    "problems.residual", "solution.reconstruct", "solution.heldout_residual", "solution.eval",
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.overhead_s = 0.0

    def wrap(self, name, fn, counts=None):
        """``fn`` wrapped in a span; ``counts(args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            o0 = time.perf_counter()
            rec = {"name": name, "parent": self._stack[-1] if self._stack else -1, "run": self.run_id}
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            t0 = time.perf_counter()
            self.overhead_s += t0 - o0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                rec["t0"], rec["t1"] = t0, t1
            if counts is not None:
                rec.update(counts(args, kwargs, result))
            self.overhead_s += time.perf_counter() - t1
            return result

        return wrapper

    def patch(self, owner, attr, name, counts=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "overhead_s": self.overhead_s, "spans": self.spans}, fh)


class _Proxy:
    """Attribute proxy whose own attributes shadow those of ``target``."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _nonlocal_counts(args, kwargs, result):
    X, Y, n_modes = args[3], args[4], args[5]
    nx, ny, k = _rows(X), _rows(Y), int(n_modes) ** 2
    chunk = min(nx, max(1, _NONLOCAL_CHUNK_ENTRIES // k))
    # complex128 buffers: exp(2 pi i Y a) plus one chunk of exp(2 pi i X a) and its scaled copy
    return {"cmacs": nx * ny * k, "buffer_mb": (ny + 2 * chunk) * k * 16 / _MB}


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the layer entry points; call before ``cli.main``."""
    import scipy
    import scipy.linalg

    from mfgsolvers import collocation, features, kernels, linsys, optimizer, pipeline, solution

    t = tracer
    t.patch(kernels, "nonlocal_from_coeffs", "kernels.nonlocal_dft", _nonlocal_counts)
    t.patch(kernels, "pairwise_op_matrix", "kernels.pairwise",
            lambda a, k, r: {"entries": int(r.shape[0] * r.shape[1])})
    for cls in (solution.GpField, solution.FfField):
        t.patch(cls, "eval_op", "solution.eval", lambda a, k, r: {"points": int(r.shape[0])})
    t.patch(solution, "pde_residual_norm", "solution.heldout_residual")
    t.patch(solution, "gp_reconstruct", "solution.reconstruct")
    t.patch(solution, "ff_reconstruct", "solution.reconstruct")
    t.patch(pipeline, "export_solution_grid", "pipeline.export_grid")
    t.patch(optimizer.MfgSystem, "inner_solve", "optimizer.inner_solve")
    t.patch(optimizer.MfgSystem, "loss", "optimizer.loss")
    cho = t.wrap("lapack.inner_cho", scipy.linalg.cho_factor,
                 lambda a, k, r: {"rows": int(r[0].shape[0])})
    optimizer.scipy = _Proxy(scipy, linalg=_Proxy(scipy.linalg, cho_factor=cho))
    for mod in (optimizer, solution):
        t.patch(mod, "interior_residual_batch", "problems.residual",
                lambda a, k, r: {"points": _rows(a[1])})
    t.patch(linsys, "assemble_gram", "linsys.assemble")
    t.patch(linsys, "assemble_feature_matrix", "linsys.assemble")
    t.patch(linsys, "cholesky_factor", "linsys.factor", lambda a, k, r: {"rows": _rows(a[0])})
    t.patch(linsys, "qr_ridge_factor", "linsys.factor", lambda a, k, r: {"rows": _rows(a[0])})
    t.patch(features, "eval_feature_op", "features.eval",
            lambda a, k, r: {"entries": int(r.shape[0] * r.shape[1])})
    t.patch(collocation, "build_functionals", "collocation.build_functionals",
            lambda a, k, r: {"n_u": int(r[0].size), "n_m": int(r[1].size)})
    t.patch(optimizer, "gauss_newton_run", "optimizer.gauss_newton")
    t.patch(pipeline, "run_experiment", "pipeline.run_experiment")


# ---------------------------------------------------------------------------
# analysis


def _outermost(spans, name):
    """Spans called ``name`` that have no ancestor of the same name."""
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p >= 0 and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p < 0:
            out.append(s)
    return out


def _busy(spans, name) -> float:
    return sum((s["t1"] - s["t0"] for s in _outermost(spans, name)), 0.0)


def _total(spans, name, key) -> float:
    return sum(s.get(key, 0) for s in spans if s["name"] == name)


def self_times(spans) -> dict:
    """Seconds per span name not covered by child spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["t1"] - s["t0"]
    out: dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["t1"] - s["t0"] - c)
    return out


def iteration_metrics(totals) -> dict:
    """Iterations run, the first one within 1e-3 relative of the final loss, and their ratio."""
    iters = len(totals) - 1
    final = totals[-1]
    to_tol = next(i for i, v in enumerate(totals) if abs(v - final) <= 1e-3 * abs(final))
    return {
        "optimizer.iters": iters,
        "optimizer.iters_to_tol": to_tol,
        "optimizer.useful_iter_frac": to_tol / iters if iters else 1.0,
    }


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced sample (loss history metrics excluded)."""
    m = {}
    m["kernels.nonlocal_dft_s"] = _busy(spans, "kernels.nonlocal_dft")
    m["kernels.nonlocal_dft_cmacs_computed"] = _total(spans, "kernels.nonlocal_dft", "cmacs")
    m["kernels.nonlocal_dft_buffer_mb_computed"] = max(
        [s.get("buffer_mb", 0.0) for s in spans if s["name"] == "kernels.nonlocal_dft"], default=0.0
    )
    m["kernels.pairwise_s"] = _busy(spans, "kernels.pairwise")
    m["kernels.pairwise_entries"] = _total(spans, "kernels.pairwise", "entries")
    m["solution.eval_s"] = _busy(spans, "solution.eval")
    m["solution.eval_calls"] = len(_outermost(spans, "solution.eval"))
    m["solution.eval_points"] = sum(s.get("points", 0) for s in _outermost(spans, "solution.eval"))
    m["solution.heldout_residual_s"] = _busy(spans, "solution.heldout_residual")
    m["solution.reconstruct_s"] = _busy(spans, "solution.reconstruct")
    m["pipeline.export_grid_s"] = _busy(spans, "pipeline.export_grid")
    inner = _busy(spans, "optimizer.inner_solve")
    cho = _busy(spans, "lapack.inner_cho")
    rows = max([s.get("rows", 0) for s in spans if s["name"] == "lapack.inner_cho"], default=0)
    gflop = sum(s.get("rows", 0) ** 3 / 3.0 for s in spans if s["name"] == "lapack.inner_cho") / 1e9
    m["optimizer.inner_solve_s"] = inner
    m["optimizer.inner_solve_self_s"] = inner - cho
    m["optimizer.inner_rows"] = rows
    m["optimizer.inner_matrix_mb_computed"] = rows * rows * 8 / _MB
    m["lapack.inner_cho_s"] = cho
    m["lapack.inner_cho_gflop_computed"] = gflop
    m["lapack.inner_cho_gflops"] = gflop / cho if cho > 0 else 0.0
    m["optimizer.loss_s"] = _busy(spans, "optimizer.loss")
    m["problems.residual_s"] = _busy(spans, "problems.residual")
    m["problems.residual_points"] = _total(spans, "problems.residual", "points")
    m["linsys.assemble_s"] = _busy(spans, "linsys.assemble")
    m["linsys.factor_s"] = _busy(spans, "linsys.factor")
    m["linsys.factor_rows"] = _total(spans, "linsys.factor", "rows")
    m["features.eval_s"] = _busy(spans, "features.eval")
    m["features.eval_entries"] = _total(spans, "features.eval", "entries")
    m["collocation.n_functionals_u"] = _total(spans, "collocation.build_functionals", "n_u")
    m["collocation.n_functionals_m"] = _total(spans, "collocation.build_functionals", "n_m")
    own = self_times(spans)
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = own.get(name, 0.0)
    return m
