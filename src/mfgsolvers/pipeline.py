"""End-to-end experiment driver: sample, assemble, factor, optimize, report.

Configs are plain dataclasses mirroring the JSON schema consumed by the
CLI.  The three bundled problems are the 1D stationary game with known
closed form, the 2D game with nonlocal coupling, and the time-dependent
planning problem.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import collocation as C
from . import features as F
from . import kernels as K
from . import linsys as L
from . import optimizer as O
from . import problems as P
from . import solution as S
from .errors import ConfigError

GP = "gp"
FF = "ff"

_INT_FIELDS = (
    "M", "n_interior", "n_initial", "n_terminal", "N", "max_iters", "seed", "nonlocal_modes",
)
_FLOAT_FIELDS = (
    "sigma", "sigma_space", "sigma_time", "varsigma", "nu",
    "gamma", "beta", "eta", "mu", "alpha", "init_scale",
)
_BOOL_FIELDS = ("grid_sampling", "shared_features", "full_basis_2d")
_LENGTHSCALE_FIELDS = ("sigma", "sigma_space", "sigma_time", "varsigma")
# largest Nyquist-to-peak ratio of the weighted kernel spectrum
# (kernels.spectral_tail_ratio) a torus GP run accepts; every torus GP field
# is evaluated through the truncated spectrum
SPECTRAL_TAIL_TOL = 1e-12
# cap on the largest array a torus GP run allocates, in bytes.  The arrays
# that grow with nonlocal_modes are, on the 2D torus, the gram's J5 mode
# features (M x about nonlocal_modes^2 float64) and the mode exponentials of
# the 100x100 export grid (10000 x nonlocal_modes complex128); on the 1D
# torus, the mode exponentials of the held-out points or the collocation
# points, whichever are more (at least 2000 x nonlocal_modes complex128).
MAX_MODE_TABLE_BYTES = 2**30


def default_potential(x):
    return np.sin(np.pi * np.asarray(x, dtype=float))


def default_drift(x):
    return np.cos(2.0 * np.pi * np.asarray(x, dtype=float))


def default_drift_dx(x):
    return -2.0 * np.pi * np.sin(2.0 * np.pi * np.asarray(x, dtype=float))


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
    nonlocal_modes: int = 64
    grid_sampling: bool = True
    shared_features: bool = False
    full_basis_2d: bool = False
    output_dir: str = "."

    def validate(self) -> None:
        if self.problem not in (P.MFG_1D, P.NONLOCAL_2D, P.PLANNING):
            raise ConfigError(f"problem: unknown value {self.problem!r}")
        if self.method not in (GP, FF):
            raise ConfigError(f"method: unknown value {self.method!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name}: must be an integer, got {value!r}")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float, np.integer, np.floating))
                or not math.isfinite(value)
            ):
                raise ConfigError(f"{name}: must be a finite number, got {value!r}")
        for name in _BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name}: must be true or false, got {getattr(self, name)!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir: must be a string, got {self.output_dir!r}")
        for name in ("M", "n_interior", "n_initial", "n_terminal", "N", "max_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be a positive integer")
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")
        on_lattice = self.problem == P.NONLOCAL_2D and self.grid_sampling
        if on_lattice and math.isqrt(self.M) ** 2 != self.M:
            raise ConfigError(f"M: the 2D torus lattice needs a perfect square, got {self.M}")
        for name in ("sigma", "sigma_space", "sigma_time", "varsigma", "eta", "mu"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name}: must be positive")
        for name in _LENGTHSCALE_FIELDS:
            # the kernels and features divide by the squared lengthscale
            value = float(getattr(self, name))
            sq = value * value
            if not (0.0 < sq < math.inf and 1.0 / sq < math.inf):
                raise ConfigError(
                    f"{name}: {value!r} is out of range; {name}^2 and 1/{name}^2 must be finite"
                )
        for name in ("gamma", "beta"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must be nonnegative")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError("alpha: must lie in (0, 1]")
        if self.nonlocal_modes < 16 or self.nonlocal_modes % 2:
            raise ConfigError("nonlocal_modes: must be even and >= 16")
        if self.method == GP and self.problem in (P.MFG_1D, P.NONLOCAL_2D):
            size = _largest_mode_table_bytes(self)
            if size > MAX_MODE_TABLE_BYTES:
                raise ConfigError(
                    f"nonlocal_modes: {self.nonlocal_modes} modes need a {size / 2**30:.1f} GiB "
                    f"mode table (M={self.M}), above the {MAX_MODE_TABLE_BYTES / 2**30:g} GiB cap"
                )
            tail = K.spectral_tail_ratio(self.sigma, self.nonlocal_modes)
            if not tail <= SPECTRAL_TAIL_TOL:
                raise ConfigError(
                    f"nonlocal_modes: {self.nonlocal_modes} modes leave the weighted kernel "
                    f"spectrum at {tail:.1e} of its peak (sigma={self.sigma}); raise "
                    f"nonlocal_modes or sigma until it is below {SPECTRAL_TAIL_TOL:g}"
                )
        if self.init_mode not in (O.INIT_ZEROS, O.INIT_GAUSSIAN):
            raise ConfigError(f"init_mode: unknown value {self.init_mode!r}")

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        try:
            cfg = ExperimentConfig(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)


def _largest_mode_table_bytes(cfg: ExperimentConfig) -> int:
    """Bytes of the largest array of a torus GP run that grows with nonlocal_modes.

    10000 is the size of the 2D ``_evaluation_grid`` and 2000 the default
    count of ``solution.held_out_points``.
    """
    n = cfg.nonlocal_modes
    if cfg.problem == P.NONLOCAL_2D:
        return max(8 * cfg.M * n * n, 16 * 10000 * n)
    return 16 * max(cfg.M, 2000) * n


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
    initial_residual: float
    final_residual: float


def build_problem(cfg: ExperimentConfig) -> P.ProblemSpec:
    if cfg.problem == P.MFG_1D:
        return P.make_1d_stationary(default_potential, default_drift, default_drift_dx)
    if cfg.problem == P.NONLOCAL_2D:
        return P.make_nonlocal_2d(cfg.nu)
    return P.make_planning()


def build_points(cfg: ExperimentConfig, spec: P.ProblemSpec) -> C.CollocationSet:
    if spec.kind == P.PLANNING:
        if cfg.grid_sampling:
            return C.sample_planning_grid(cfg.n_interior, cfg.n_initial, cfg.n_terminal)
        return C.sample_planning(cfg.seed, cfg.n_interior, cfg.n_initial, cfg.n_terminal)
    if cfg.grid_sampling:
        return C.sample_uniform_grid(spec.dim, cfg.M)
    return C.sample_uniform_random(spec.dim, cfg.M, cfg.seed)


def build_kernel(cfg: ExperimentConfig, spec: P.ProblemSpec) -> K.KernelSpec:
    if spec.kind == P.MFG_1D:
        return K.periodic_kernel_1d(cfg.sigma)
    if spec.kind == P.NONLOCAL_2D:
        return K.periodic_kernel_2d(cfg.sigma)
    return K.anisotropic_kernel(cfg.sigma_space, cfg.sigma_time)


def build_bases(cfg: ExperimentConfig, spec: P.ProblemSpec):
    """Feature bases for u and m; random bases draw independently by default."""
    if spec.kind == P.MFG_1D:
        b = F.build_periodic_1d(cfg.N)
        return b, b
    if spec.kind == P.NONLOCAL_2D:
        b = F.build_periodic_2d(cfg.N, full=cfg.full_basis_2d)
        return b, b
    s_u = F.RandomFeatureSampler(dimension=2, varsigma=cfg.varsigma, seed=cfg.seed)
    b_u = F.sample_orthogonal_features(s_u, cfg.N)
    if cfg.shared_features:
        return b_u, b_u
    s_m = F.RandomFeatureSampler(dimension=2, varsigma=cfg.varsigma, seed=cfg.seed + 1)
    return b_u, F.sample_orthogonal_features(s_m, cfg.N)


def _evaluation_grid(spec: P.ProblemSpec):
    if spec.kind == P.MFG_1D:
        return np.linspace(0.0, 1.0, 1000, endpoint=False)[:, None], "1000 uniform on [0,1)"
    if spec.kind == P.NONLOCAL_2D:
        g = np.arange(100) / 100.0
        a, b = np.meshgrid(g, g, indexing="ij")
        return np.stack([a.ravel(), b.ravel()], axis=1), "100x100 uniform on the torus"
    t = np.linspace(0.0, 1.0, 64)
    x = np.linspace(-P.SPACE_HALF_WIDTH, P.SPACE_HALF_WIDTH, 512)
    a, b = np.meshgrid(t, x, indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1), "64x512 uniform on [0,1]x[-2,2]"


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    cfg.validate()
    spec = build_problem(cfg)
    pts = build_points(cfg, spec)
    phi, psi = C.build_functionals(spec, pts)
    timing_rows = []

    if cfg.method == GP:
        kernel = build_kernel(cfg, spec)
        fac_u = L.build_gram_factor(kernel, phi, cfg.eta, cfg.nonlocal_modes)
        fac_m = L.build_gram_factor(kernel, psi, cfg.eta, cfg.nonlocal_modes)
        timing_rows.append(
            (GP, pts.m_total, 0.0, fac_u.cholesky_seconds + fac_m.cholesky_seconds)
        )
    else:
        basis_u, basis_m = build_bases(cfg, spec)
        fac_u = L.qr_ridge_factor(L.assemble_feature_matrix(phi, basis_u), cfg.mu)
        fac_m = L.qr_ridge_factor(L.assemble_feature_matrix(psi, basis_m), cfg.mu)
        timing_rows.append(
            (
                FF,
                pts.m_total,
                fac_u.qr_seconds + fac_m.qr_seconds,
                fac_u.cholesky_seconds + fac_m.cholesky_seconds,
            )
        )

    solver_cfg = O.SolverConfig(
        gamma=cfg.gamma,
        beta=cfg.beta,
        alpha=cfg.alpha,
        max_iters=cfg.max_iters,
        seed=cfg.seed,
        init_mode=cfg.init_mode,
        init_scale=cfg.init_scale,
    )
    system = O.MfgSystem(spec, pts, phi, psi, fac_u, fac_m, cfg.gamma, cfg.beta)
    state0 = O.init_state(phi, psi, spec.has_ergodic_constant, solver_cfg)
    held = S.held_out_points(spec)
    initial_residual = _held_out_residual(cfg, spec, state0, fac_u, fac_m, phi, psi, held)
    state, history = O.gauss_newton_run(system, state0, solver_cfg)

    if cfg.method == GP:
        kernel = build_kernel(cfg, spec)
        u_field, m_field, lam = S.gp_reconstruct(
            state, fac_u, fac_m, kernel, phi, psi, cfg.nonlocal_modes
        )
    else:
        u_field, m_field, lam = S.ff_reconstruct(state, fac_u, fac_m, basis_u, basis_m)

    grid, grid_desc = _evaluation_grid(spec)
    final_residual = S.pde_residual_norm(u_field, m_field, lam, spec, held)

    linf_u = linf_m = err_hbar = None
    mass_error = 0.0
    if spec.kind == P.MFG_1D:
        exact = P.explicit_solution_1d(default_potential, default_drift)
        linf_u = S.linf_error(u_field, lambda X: exact.u_star(X[:, 0]), grid)
        linf_m = S.linf_error(m_field, lambda X: exact.m_star(X[:, 0]), grid)
        err_hbar = abs(float(lam) - exact.h_bar_star)
        mv = m_field(grid)
        mass_error = abs(float(np.mean(mv)) - 1.0)
    elif spec.kind == P.NONLOCAL_2D:
        mv = m_field(grid)
        mass_error = abs(float(np.mean(mv)) - 1.0)
    else:
        xq = np.linspace(-P.SPACE_HALF_WIDTH, P.SPACE_HALF_WIDTH, 512)
        masses = S.mass_trace(m_field, (0.25, 0.5, 0.75), xq)
        mass_error = float(max(abs(v - 1.0) for v in masses))

    report = S.ErrorReport(
        linf_u=linf_u,
        linf_m=linf_m,
        err_hbar=err_hbar,
        residual_l2=final_residual,
        mass_error=mass_error,
        grid=grid_desc,
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
        initial_residual=initial_residual,
        final_residual=final_residual,
    )


def _held_out_residual(cfg, spec, state, fac_u, fac_m, phi, psi, held):
    if cfg.method == GP:
        kernel = build_kernel(cfg, spec)
        u0, m0, lam0 = S.gp_reconstruct(state, fac_u, fac_m, kernel, phi, psi, cfg.nonlocal_modes)
    else:
        basis_u, basis_m = build_bases(cfg, spec)
        u0, m0, lam0 = S.ff_reconstruct(state, fac_u, fac_m, basis_u, basis_m)
    return S.pde_residual_norm(u0, m0, lam0, spec, held)


def export_solution_grid(result: RunResult, path) -> None:
    grid = result.grid
    uv = np.asarray(result.u_field(grid))
    mv = np.asarray(result.m_field(grid))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(grid.shape[1])] + ["u", "m"])
        for i in range(grid.shape[0]):
            w.writerow([repr(float(v)) for v in grid[i]] + [repr(float(uv[i])), repr(float(mv[i]))])


def export_timing(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "M", "qr_seconds", "cholesky_seconds"])
        for method, m, qr, chol in rows:
            w.writerow([method, m, repr(float(qr)), repr(float(chol))])


def bench_precompute(problem: str, method: str, m_values, repeats: int = 5, cfg=None):
    """Median factorization times at growing sample counts; basis size fixed."""
    if list(m_values) != sorted(m_values):
        raise ConfigError("M values must be ascending")
    base = cfg or ExperimentConfig()
    rows = []
    for m in m_values:
        run_cfg = ExperimentConfig.from_dict(
            {**base.to_dict(), "problem": problem, "method": method, "M": int(m)}
        )
        spec = build_problem(run_cfg)
        pts = build_points(run_cfg, spec)
        phi, psi = C.build_functionals(spec, pts)
        qrs, chols = [], []
        for _ in range(max(1, repeats)):
            if method == GP:
                kernel = build_kernel(run_cfg, spec)
                fu = L.build_gram_factor(kernel, phi, run_cfg.eta, run_cfg.nonlocal_modes)
                fm = L.build_gram_factor(kernel, psi, run_cfg.eta, run_cfg.nonlocal_modes)
                qrs.append(0.0)
            else:
                bu, bm = build_bases(run_cfg, spec)
                fu = L.qr_ridge_factor(L.assemble_feature_matrix(phi, bu), run_cfg.mu)
                fm = L.qr_ridge_factor(L.assemble_feature_matrix(psi, bm), run_cfg.mu)
                qrs.append(fu.qr_seconds + fm.qr_seconds)
            chols.append(fu.cholesky_seconds + fm.cholesky_seconds)
        rows.append((method, int(m), float(np.median(qrs)), float(np.median(chols))))
    return rows


def compare_runs(r1: RunResult, r2: RunResult) -> dict:
    """Cross-method agreement of two runs on the shared evaluation grid."""
    from .errors import GridMismatch

    if r1.spec.kind != r2.spec.kind:
        raise GridMismatch("runs target different problems")
    if r1.grid.shape != r2.grid.shape or not np.allclose(r1.grid, r2.grid):
        raise GridMismatch("runs use different evaluation grids")
    grid = r1.grid
    du = float(np.max(np.abs(np.asarray(r1.u_field(grid)) - np.asarray(r2.u_field(grid)))))
    dm = float(np.max(np.abs(np.asarray(r1.m_field(grid)) - np.asarray(r2.m_field(grid)))))
    out = {"linf_u_gap": du, "linf_m_gap": dm}
    if r1.lam is not None and r2.lam is not None:
        out["hbar_gap"] = abs(float(r1.lam) - float(r2.lam))
    return out
