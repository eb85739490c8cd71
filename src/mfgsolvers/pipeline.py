"""End-to-end experiment driver: sample, assemble, factor, optimize, report.

Configs are plain dataclasses mirroring the JSON schema consumed by the
CLI.  Each bundled problem (the 1D stationary game with known closed form,
the 2D game with nonlocal coupling, the time-dependent planning problem) is
one ``Problem`` of ``PROBLEMS`` and each method one class of ``METHODS``,
keyed by the config's ``problem`` and ``method``; nothing else names them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from . import collocation as C
from . import features as F
from . import kernels as K
from . import linsys as L
from . import optimizer as O
from . import problems as P
from . import solution as S
from .errors import BadGrid, ConfigError

GP = "gp"
FF = "ff"

# ExperimentConfig's type check of a field, by its annotation: (accepted types,
# message).  A bool passes only a bool field, and a float field must be finite
_FIELD_KINDS = {
    "int": ((int, np.integer), "must be an integer"),
    "float": ((int, float, np.integer, np.floating), "must be a finite number"),
    "bool": (bool, "must be true or false"),
    "str": (str, "must be a string"),
}
_LENGTHSCALE_FIELDS = ("sigma", "sigma_space", "sigma_time", "varsigma")
# a lengthscale s enters the kernel tables and the feature products up to its
# fourth inverse power: the Gaussian profile's fourth derivative at 0 is
# 12/s^4, and F F^T and V^T V reach |omega|^4 with |omega| ~ 1/varsigma.  Sums
# over such entries (the gram's B + B^T, the nugget's block means, the inner
# products) must stay finite too, so 2^20 times 12/s^4 must be finite
_LENGTHSCALE_HEADROOM = 12.0 * 2.0**20
# cap in bytes on a torus GP run's mode tables (_largest_mode_table_bytes); its
# n x n gram is not one and can be larger: 32 MB against 16 MB on nonlocal2d_gp_nu1
MAX_MODE_TABLE_BYTES = 2**30


def default_potential(x):
    return np.sin(np.pi * np.asarray(x, dtype=float))


def default_drift(x):
    return np.cos(2.0 * np.pi * np.asarray(x, dtype=float))


def default_drift_dx(x):
    return -2.0 * np.pi * np.sin(2.0 * np.pi * np.asarray(x, dtype=float))


def _torus_points(cfg, spec: P.ProblemSpec) -> C.CollocationSet:
    if cfg.grid_sampling:
        return C.sample_uniform_grid(spec.dim, cfg.M)
    return C.sample_uniform_random(spec.dim, cfg.M, cfg.seed)


def _planning_points(cfg, spec: P.ProblemSpec) -> C.CollocationSet:
    counts = (cfg.n_interior, cfg.n_initial, cfg.n_terminal)
    if cfg.grid_sampling:
        return C.sample_planning_grid(*counts)
    return C.sample_planning(cfg.seed, *counts)


def _random_bases(cfg):
    """Random feature bases for u and m, drawn independently: m's frequencies from seed + 1."""

    def draw(seed):
        sampler = F.RandomFeatureSampler(dimension=2, varsigma=cfg.varsigma, seed=seed)
        return F.sample_orthogonal_features(sampler, cfg.N)

    return draw(cfg.seed), draw(cfg.seed + 1)


_NO_REFERENCE = {"linf_u": None, "linf_m": None, "err_hbar": None}


def _torus_metrics(m_field, lam, grid, u_grid, m_grid) -> dict:
    return {**_NO_REFERENCE, "mass_error": abs(float(np.mean(m_grid)) - 1.0)}


def _mfg1d_metrics(m_field, lam, grid, u_grid, m_grid) -> dict:
    exact = P.explicit_solution_1d(default_potential, default_drift)
    return {
        **_torus_metrics(m_field, lam, grid, u_grid, m_grid),
        "linf_u": S.linf_error(u_grid, lambda X: exact.u_star(X[:, 0]), grid),
        "linf_m": S.linf_error(m_grid, lambda X: exact.m_star(X[:, 0]), grid),
        "err_hbar": abs(float(lam) - exact.h_bar_star),
    }


def _planning_metrics(m_field, lam, grid, u_grid, m_grid) -> dict:
    xq = np.linspace(-P.SPACE_HALF_WIDTH, P.SPACE_HALF_WIDTH, 512)
    masses = S.mass_trace(m_field, (0.25, 0.5, 0.75), xq)
    return {**_NO_REFERENCE, "mass_error": float(max(abs(v - 1.0) for v in masses))}


@dataclass(frozen=True)
class Problem:
    """One bundled problem: its spec and the builders, from a config, of what a run needs."""

    spec: Callable  # cfg -> ProblemSpec
    points: Callable  # (cfg, spec) -> CollocationSet
    kernel: Callable  # cfg -> KernelSpec, for gp
    bases: Callable  # cfg -> (u basis, m basis), for ff
    grid_axes: tuple  # evaluation grid nodes along each axis
    grid_desc: str
    metrics: Callable  # (m_field, lam, grid, u_grid, m_grid) -> the ErrorReport entries
    sized_by_M: bool = True  # else n_interior, n_initial and n_terminal set the sample count

    def grid(self) -> np.ndarray:
        return S.TensorGrid(self.grid_axes).points()


PROBLEMS = {
    P.MFG_1D: Problem(
        spec=lambda cfg: P.make_1d_stationary(default_potential, default_drift, default_drift_dx),
        points=_torus_points,
        kernel=lambda cfg: K.periodic_kernel_1d(cfg.sigma),
        bases=lambda cfg: (F.build_periodic(cfg.N, 1),) * 2,
        grid_axes=(np.linspace(0.0, 1.0, 1000, endpoint=False),),
        grid_desc="1000 uniform on [0,1)",
        metrics=_mfg1d_metrics,
    ),
    P.NONLOCAL_2D: Problem(
        spec=lambda cfg: P.make_nonlocal_2d(cfg.nu),
        points=_torus_points,
        kernel=lambda cfg: K.periodic_kernel_2d(cfg.sigma),
        bases=lambda cfg: (F.build_periodic(cfg.N, 2),) * 2,
        grid_axes=(np.arange(100) / 100.0,) * 2,
        grid_desc="100x100 uniform on the torus",
        metrics=_torus_metrics,
    ),
    P.PLANNING: Problem(
        spec=lambda cfg: P.make_planning(),
        points=_planning_points,
        kernel=lambda cfg: K.anisotropic_kernel(cfg.sigma_space, cfg.sigma_time),
        bases=_random_bases,
        grid_axes=(
            np.linspace(0.0, 1.0, 64),
            np.linspace(-P.SPACE_HALF_WIDTH, P.SPACE_HALF_WIDTH, 512),
        ),
        grid_desc="64x512 uniform on [0,1]x[-2,2]",
        metrics=_planning_metrics,
        sized_by_M=False,
    ),
}


class GpMethod:
    """Kernel collocation: gram factors and representer-form fields."""

    def __init__(self, cfg, problem: Problem):
        self.cfg, self.kernel = cfg, problem.kernel(cfg)

    @staticmethod
    def validate(cfg, problem: Problem) -> None:
        """A torus kernel's fields go through its truncated spectrum: check its tables' size."""
        kernel = problem.kernel(cfg)
        if not kernel.periodic:
            return
        try:
            size = _largest_mode_table_bytes(cfg, problem)
        except BadGrid as exc:  # sigma needs more than kernels.MAX_MODES modes
            raise ConfigError(str(exc)) from exc
        if size > MAX_MODE_TABLE_BYTES:
            raise ConfigError(
                f"sigma: {cfg.sigma} needs {kernel.n_modes} modes, whose largest table takes "
                f"{size / 2**30:.2f} GiB (M={cfg.M}), above the "
                f"{MAX_MODE_TABLE_BYTES / 2**30:g} GiB cap"
            )

    def factor(self, funcs):
        """Gram factors of the (u, m) functional sets; a set that leads the other shares its factor."""
        self.funcs = funcs
        self.factors = L.build_gram_factors(self.kernel, funcs, self.cfg.eta)
        return self.factors

    def reconstruct(self, state: O.SolverState):
        """(u, m, lambda) of a solver state on the last factors."""
        return S.gp_reconstruct(state, *self.factors, self.kernel, *self.funcs)


class FfMethod:
    """Fourier features: ridge factors of the feature matrices and feature-sum fields."""

    def __init__(self, cfg, problem: Problem):
        self.cfg, self.bases = cfg, problem.bases(cfg)

    @staticmethod
    def validate(cfg, problem: Problem) -> None:
        """Nothing to check beyond ExperimentConfig.validate."""

    def factor(self, funcs):
        """Ridge factors of the (u, m) functional sets on their feature bases."""
        self.factors = [
            L.qr_ridge_factor(L.assemble_feature_matrix(f, b), self.cfg.mu)
            for f, b in zip(funcs, self.bases)
        ]
        return self.factors

    def reconstruct(self, state: O.SolverState):
        """(u, m, lambda) of a solver state on the last factors."""
        return S.ff_reconstruct(state, *self.factors, *self.bases)


METHODS = {GP: GpMethod, FF: FfMethod}


def _factor_seconds(factors):
    """(qr, cholesky) seconds summed over factors."""
    return sum(f.qr_seconds for f in factors), sum(f.cholesky_seconds for f in factors)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = P.MFG_1D
    method: str = GP
    M: int = 256
    n_interior: int = 1200
    n_initial: int = 200
    n_terminal: int = 200
    N: int = 10  # periodic series order, or feature pair count for random bases
    sigma: float = 0.6
    sigma_space: float = 1.0 / np.sqrt(5.0)
    sigma_time: float = 1.0 / np.sqrt(2.0)
    varsigma: float = 0.2
    nu: float = 0.1
    gamma: float = 1.0
    beta: float = 1e-6
    eta: float = 1e-6
    mu: float = 1e-6
    alpha: float = 0.4
    max_iters: int = 50
    seed: int = 0
    init_mode: str = O.INIT_ZEROS
    init_scale: float = 1.0
    grid_sampling: bool = True
    output_dir: str = "."

    def validate(self) -> None:
        if not isinstance(self.problem, str) or self.problem not in PROBLEMS:
            raise ConfigError(f"problem: unknown value {self.problem!r}")
        if not isinstance(self.method, str) or self.method not in METHODS:
            raise ConfigError(f"method: unknown value {self.method!r}")
        problem = PROBLEMS[self.problem]
        for f in fields(self):
            types, message = _FIELD_KINDS[f.type]
            value = getattr(self, f.name)
            ok = isinstance(value, types) and (f.type == "bool" or not isinstance(value, bool))
            if not ok or (f.type == "float" and not math.isfinite(value)):
                raise ConfigError(f"{f.name}: {message}, got {value!r}")
        for name in ("M", "n_interior", "n_initial", "n_terminal", "N", "max_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be a positive integer")
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")
        # collocation.sample_uniform_grid lays M points out as a square in 2D
        on_lattice = problem.sized_by_M and problem.spec(self).dim == 2 and self.grid_sampling
        if on_lattice and math.isqrt(self.M) ** 2 != self.M:
            raise ConfigError(f"M: the 2D torus lattice needs a perfect square, got {self.M}")
        for name in ("sigma", "sigma_space", "sigma_time", "varsigma", "nu", "eta", "mu"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive")
        for name in _LENGTHSCALE_FIELDS:
            value = float(getattr(self, name))
            sq = value * value
            quartic = sq * sq
            if not (0.0 < quartic < math.inf and _LENGTHSCALE_HEADROOM / quartic < math.inf):
                raise ConfigError(
                    f"{name}: {value!r} is out of range; {name}^4 and 12 * 2^20/{name}^4 "
                    "must be finite"
                )
        for name in ("gamma", "beta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must be nonnegative")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError("alpha: must lie in (0, 1]")
        METHODS[self.method].validate(self, problem)
        if self.init_mode not in (O.INIT_ZEROS, O.INIT_GAUSSIAN):
            raise ConfigError(f"init_mode: unknown value {self.init_mode!r}")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"{', '.join(sorted(unknown))}: unknown config key")
        try:
            cfg = ExperimentConfig(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)


def _largest_mode_table_bytes(cfg: ExperimentConfig, problem: Problem) -> int:
    """Bytes a torus GP run holds at once in arrays that grow with the kernel's mode count.

    That is the largest of: with J5, what a J5 gram block on M random
    points holds (``kernels.half_mode_block_bytes``); an array of the field weights
    or of their evaluation (``kernels.mode_table_bytes``) at the collocation
    and held-out points with every operator of a field (no product spans the
    operators of both fields, so the larger count is the one that matters),
    and on the grid with the field's values alone, whose tables span one
    axis's nodes
    (``kernels.eval_mode_weights_grid``; in 1D the nodes are its points);
    and the held-out residual, which keeps its points' tables while it
    evaluates each field (``kernels.mode_points_bytes``) and then holds both
    fields' values and the residual rows with their Jacobians.  Raises
    ``BadGrid`` when sigma needs more than ``kernels.MAX_MODES`` modes.
    """
    kernel, spec = problem.kernel(cfg), problem.spec(cfg)
    n_held = S.HELD_OUT_COUNT
    q_u, q_m = len(spec.u_operators), len(spec.m_operators)
    features = K.half_mode_block_bytes(kernel, cfg.M) if K.J5 in spec.m_operators else 0
    residual_rows = 8 * n_held * (q_u + q_m + P.INTERIOR_ROWS * (q_u + q_m + 2))
    return max(
        features,
        K.mode_table_bytes(kernel, max(cfg.M, n_held), max(q_u, q_m)),
        K.mode_table_bytes(kernel, max(map(len, problem.grid_axes)), 1),
        K.mode_points_bytes(kernel, n_held, max(q_u, q_m)) + residual_rows,
    )


@dataclass
class RunResult:
    config: ExperimentConfig
    spec: P.ProblemSpec
    state: O.SolverState
    history: O.LossHistory
    u_field: object
    m_field: object
    lam: float | None
    report: S.ErrorReport
    timing_rows: list  # (method, M, qr_seconds, cholesky_seconds)
    grid: np.ndarray
    grid_axes: tuple  # the grid's nodes along each axis; grid is their tensor product
    initial_residual: float
    final_residual: float
    u_grid: np.ndarray  # u and m on the evaluation grid
    m_grid: np.ndarray


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    cfg.validate()
    problem = PROBLEMS[cfg.problem]
    spec = problem.spec(cfg)
    pts = problem.points(cfg, spec)
    phi, psi = C.build_functionals(spec, pts)
    method = METHODS[cfg.method](cfg, problem)
    fac_u, fac_m = method.factor((phi, psi))
    timing_rows = [(cfg.method, pts.m_total, *_factor_seconds((fac_u, fac_m)))]

    system = O.MfgSystem(spec, pts, phi, psi, fac_u, fac_m, cfg.gamma, cfg.beta)
    state0 = O.init_state(
        phi, psi, spec.has_ergodic_constant, cfg.init_mode, cfg.init_scale, cfg.seed
    )
    held = S.PointSet(S.held_out_points(spec))
    # a start that overflows is reported once, as the optimizer's non-finite objective
    with np.errstate(over="ignore", invalid="ignore"):
        initial_residual = S.pde_residual_norm(*method.reconstruct(state0), spec, held)
    state, history = O.gauss_newton_run(system, state0, cfg.alpha, cfg.max_iters)

    u_field, m_field, lam = method.reconstruct(state)
    final_residual = S.pde_residual_norm(u_field, m_field, lam, spec, held)
    grid = problem.grid()
    tensor_grid = S.TensorGrid(problem.grid_axes)
    u_grid, m_grid = u_field(tensor_grid), m_field(tensor_grid)
    report = S.ErrorReport(
        **problem.metrics(m_field, lam, grid, u_grid, m_grid),
        residual_l2=final_residual,
        grid=problem.grid_desc,
    )
    return RunResult(
        config=cfg,
        spec=spec,
        state=state,
        history=history,
        u_field=u_field,
        m_field=m_field,
        lam=lam,
        report=report,
        timing_rows=timing_rows,
        grid=grid,
        grid_axes=problem.grid_axes,
        initial_residual=initial_residual,
        final_residual=final_residual,
        u_grid=u_grid,
        m_grid=m_grid,
    )


def export_solution_grid(result: RunResult, path) -> None:
    """One row per grid point: its coordinates, u and m, each value as its repr.

    The grid is the tensor product of ``result.grid_axes``, so each node's
    repr is formed once per axis, and a row's coordinates are the
    concatenation of its nodes' strings; only u and m are formatted per
    point.  The bytes are those of ``csv.writer``: a float's repr needs no
    quoting, so each row is joined directly.
    """
    prefixes = [""]
    for nodes in result.grid_axes:
        strings = [f"{v!r}," for v in np.asarray(nodes, dtype=float).tolist()]
        prefixes = [p + s for p in prefixes for s in strings]
    header = [f"x{i}" for i in range(len(result.grid_axes))] + ["u", "m"]
    rows = zip(prefixes, result.u_grid.tolist(), result.m_grid.tolist(), strict=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join([f"{p}{u!r},{m!r}\r\n" for p, u, m in rows]))


def export_timing(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "M", "qr_seconds", "cholesky_seconds"])
        for method, m, qr, chol in rows:
            w.writerow([method, m, repr(float(qr)), repr(float(chol))])


def sized_by_m_problem(name: str, field: str = "problem") -> Problem:
    """The ``PROBLEMS`` entry ``name``, which must take its sample count from M."""
    if name not in PROBLEMS:
        raise ConfigError(f"{field}: unknown value {name!r}")
    if not PROBLEMS[name].sized_by_M:
        raise ConfigError(
            f"{field}: {name} takes its sample count from n_interior, n_initial "
            "and n_terminal, so M does not set it"
        )
    return PROBLEMS[name]


def check_bench_counts(m_values, repeats: int, fields=("m_values", "repeats")) -> None:
    """Reject no M, an M below 1, unordered M values or under one repeat, naming ``fields``."""
    m_field, repeats_field = fields
    if len(m_values) == 0:
        raise ConfigError(f"{m_field}: expected at least one M")
    if min(m_values) < 1:
        raise ConfigError(f"{m_field}: M must be positive, got {min(m_values)}")
    if list(m_values) != sorted(m_values):
        raise ConfigError(f"{m_field}: M values must be ascending")
    if repeats < 1:
        raise ConfigError(f"{repeats_field}: expected at least 1, got {repeats}")


def bench_precompute(problem: str, method: str, m_values, repeats: int = 5, cfg=None):
    """Median factorization times at growing sample counts; basis size fixed."""
    entry = sized_by_m_problem(problem)
    check_bench_counts(m_values, repeats)
    base = cfg or ExperimentConfig()
    rows = []
    for m in m_values:
        run_cfg = ExperimentConfig.from_dict(
            {**base.to_dict(), "problem": problem, "method": method, "M": int(m)}
        )
        spec = entry.spec(run_cfg)
        funcs = C.build_functionals(spec, entry.points(run_cfg, spec))
        runs = (METHODS[method](run_cfg, entry).factor(funcs) for _ in range(repeats))
        qrs, chols = zip(*map(_factor_seconds, runs))
        rows.append((method, int(m), float(np.median(qrs)), float(np.median(chols))))
    return rows


def compare_runs(r1: RunResult, r2: RunResult) -> dict:
    """Cross-method agreement of two runs on the shared evaluation grid."""
    from .errors import GridMismatch

    if r1.spec.kind != r2.spec.kind:
        raise GridMismatch("runs target different problems")
    if r1.grid.shape != r2.grid.shape or not np.allclose(r1.grid, r2.grid):
        raise GridMismatch("runs use different evaluation grids")
    du = float(np.max(np.abs(r1.u_grid - r2.u_grid)))
    dm = float(np.max(np.abs(r1.m_grid - r2.m_grid)))
    out = {"linf_u_gap": du, "linf_m_gap": dm}
    if r1.lam is not None and r2.lam is not None:
        out["hbar_gap"] = abs(float(r1.lam) - float(r2.lam))
    return out
