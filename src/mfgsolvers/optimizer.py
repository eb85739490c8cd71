"""Relaxed penalized objectives and the Gauss-Newton iteration.

The objective is  theta^T P theta + gamma * sum r_i(theta)^2 + beta * (mean
constraints)^2  where P encodes the RKHS (or ridge) quadratic form on the
functional values and lambda^2.  Gauss-Newton linearizes only the gamma
residuals; the quadratic and beta terms enter the inner problem exactly.

The inner minimizer is computed in residual space: with A the stacked
linearized rows, W the row weights and c the linearized targets,

    theta_hat = P^{-1} A^T (W^{-1} + A P^{-1} A^T)^{-1} c,

which is algebraically the solution of the dense normal equations
(P + A^T W A) theta_hat = A^T W c but only ever factors a matrix of size
equal to the number of residual rows.  Crucially P^{-1} is cheap on both
paths: it is the regularized gram matrix itself for the GP quadratic form
and A_feat A_feat^T + mu I for the ridge form.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from . import kernels as K
from .collocation import CollocationSet, FunctionalSet
from .errors import NonFiniteObjective, SingularNormalEquations
from .linsys import FeatureFactor, GramFactor, apply_qr_inverse
from .problems import ProblemSpec, boundary_residual_batch, interior_residual_batch

INIT_ZEROS = "zeros-with-unit-density"
INIT_GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class SolverConfig:
    gamma: float = 1.0
    beta: float = 0.0
    alpha: float = 1.0
    max_iters: int = 50
    seed: int = 0
    init_mode: str = INIT_ZEROS
    init_scale: float = 1.0
    loss_tol: float = 0.0  # relative loss-change stop; 0 disables
    debug: bool = False

    def __post_init__(self):
        if self.gamma < 0 or self.beta < 0:
            raise ValueError("penalty weights must be nonnegative")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError("alpha must lie in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolverState:
    z: np.ndarray
    rho: np.ndarray
    lam: float | None

    def pack(self) -> np.ndarray:
        tail = [] if self.lam is None else [self.lam]
        return np.concatenate([self.z, self.rho, tail])


@dataclass
class LossHistory:
    total: list = field(default_factory=list)
    quadratic: list = field(default_factory=list)
    pde_penalty: list = field(default_factory=list)
    norm_penalty: list = field(default_factory=list)

    def append(self, total, quad, pde, norm):
        self.total.append(float(total))
        self.quadratic.append(float(quad))
        self.pde_penalty.append(float(pde))
        self.norm_penalty.append(float(norm))

    def export_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "total", "quadratic", "pde_penalty", "norm_penalty"])
            for i in range(len(self.total)):
                w.writerow(
                    [
                        i,
                        repr(self.total[i]),
                        repr(self.quadratic[i]),
                        repr(self.pde_penalty[i]),
                        repr(self.norm_penalty[i]),
                    ]
                )


def init_state(
    phi: FunctionalSet, psi: FunctionalSet, has_lam: bool, cfg: SolverConfig
) -> SolverState:
    """Default start: z = 0, unit density on every identity block of m."""
    z = np.zeros(phi.size)
    rho = np.zeros(psi.size)
    lam = 0.0 if has_lam else None
    if cfg.init_mode == INIT_GAUSSIAN:
        rng = np.random.default_rng(cfg.seed)
        z = cfg.init_scale * rng.standard_normal(phi.size)
        rho = cfg.init_scale * rng.standard_normal(psi.size)
        if has_lam:
            lam = cfg.init_scale * float(rng.standard_normal())
    elif cfg.init_mode != INIT_ZEROS:
        raise ValueError(f"unknown init mode {cfg.init_mode!r}")
    for tag, sl in zip(psi.operator_tags, psi.slices):
        if tag == K.ID:
            rho[sl] += 1.0
    return SolverState(z=z, rho=rho, lam=lam)


# ---------------------------------------------------------------------------
# cheap application of P^{-1} to sparse row blocks

def _cross(provider, A_blk):
    """B = A P^{-1} A^T and a closure computing P^{-1} A^T y for one block."""
    if isinstance(provider, GramFactor):
        M1 = A_blk @ provider.regularized  # (rows, n)

        def apply_t(y):
            return M1.T @ y

        return A_blk @ M1.T, apply_t
    if isinstance(provider, FeatureFactor):
        Af = provider.A
        G = A_blk @ Af  # (rows, n_feat)
        B = G @ G.T + provider.mu * (A_blk @ A_blk.T).toarray()

        def apply_t(y):
            return Af @ (G.T @ y) + provider.mu * (A_blk.T @ y)

        return B, apply_t
    raise TypeError(f"unsupported quadratic provider {type(provider).__name__}")


def _p_apply(provider, v):
    """The quadratic-form matrix applied to v (i.e. P v); debug checks only."""
    if isinstance(provider, GramFactor):
        return provider.solve(v)
    return apply_qr_inverse(provider, v)


class MfgSystem:
    """Bundles problem, collocation, functionals and quadratic providers."""

    def __init__(
        self,
        spec: ProblemSpec,
        pts: CollocationSet,
        phi: FunctionalSet,
        psi: FunctionalSet,
        quad_u,
        quad_m,
        gamma: float,
        beta: float,
    ):
        self.spec = spec
        self.pts = pts
        self.phi = phi
        self.psi = psi
        self.quad_u = quad_u
        self.quad_m = quad_m
        self.gamma = float(gamma)
        self.beta = float(beta)
        self.n_z = phi.size
        self.n_rho = psi.size
        self.has_lam = spec.has_ergodic_constant
        self.m_int = pts.m_interior
        self.n_b = pts.boundary.shape[0]
        self.d_b = len(spec.m_boundary_operators) if self.n_b else 0
        # interior psi blocks start after the boundary blocks
        self._psi_int_slices = psi.slices[self.d_b :]
        self._psi_b_slices = psi.slices[: self.d_b]

    # -- state block bookkeeping ------------------------------------------

    def values(self, state: SolverState):
        U = np.stack([state.z[sl] for sl in self.phi.slices], axis=1)
        M = np.stack([state.rho[sl] for sl in self._psi_int_slices], axis=1)
        if self.d_b:
            Mb = np.stack([state.rho[sl] for sl in self._psi_b_slices], axis=1)
        else:
            Mb = np.zeros((0, 0))
        return U, M, Mb

    # -- loss --------------------------------------------------------------

    def loss(self, state: SolverState):
        U, M, Mb = self.values(state)
        lam = state.lam or 0.0
        R, _, _, _ = interior_residual_batch(self.spec, self.pts.interior, U, M, lam)
        pde = float(np.sum(R**2))
        if self.d_b:
            Rb, _ = boundary_residual_batch(self.spec, self.pts.boundary, Mb)
            pde += float(np.sum(Rb**2))
        quad = self.quad_u.quadratic_form(state.z) + self.quad_m.quadratic_form(state.rho)
        if self.has_lam:
            quad += lam**2
        norm = 0.0
        if self.spec.normalize_u:
            norm += float(np.mean(U[:, 0])) ** 2
        if self.spec.normalize_m:
            norm += (float(np.mean(M[:, 0])) - self.spec.density_mean) ** 2
        total = quad + self.gamma * pde + self.beta * norm
        return total, quad, self.gamma * pde, self.beta * norm

    # -- linearized rows ---------------------------------------------------

    def _rows(self, state: SolverState):
        """Sparse row blocks (A_z, A_rho, a_lam), targets c and weights w."""
        m = self.m_int
        U, M, Mb = self.values(state)
        lam = state.lam or 0.0
        R, dU, dM, dlam = interior_residual_batch(self.spec, self.pts.interior, U, M, lam)
        rows_int = 2 * m
        idx = np.arange(m)

        zr, zc, zv = [], [], []
        rr, rc, rv = [], [], []
        for c in range(2):
            for q, sl in enumerate(self.phi.slices):
                zr.append(c * m + idx)
                zc.append(sl.start + idx)
                zv.append(dU[:, c, q])
            for d, sl in enumerate(self._psi_int_slices):
                rr.append(c * m + idx)
                rc.append(sl.start + idx)
                rv.append(dM[:, c, d])
        lam_rows = [dlam[:, 0], dlam[:, 1]]
        resid = [R[:, 0], R[:, 1]]

        n_rows = rows_int
        if self.d_b:
            Rb, dMb = boundary_residual_batch(self.spec, self.pts.boundary, Mb)
            ib = np.arange(self.n_b)
            for d, sl in enumerate(self._psi_b_slices):
                rr.append(rows_int + ib)
                rc.append(sl.start + ib)
                rv.append(dMb[:, 0, d])
            lam_rows.append(np.zeros(self.n_b))
            resid.append(Rb[:, 0])
            n_rows += self.n_b

        w = [np.full(n_rows, self.gamma)]
        targets_extra = []
        norm_triplets_z, norm_triplets_rho = [], []
        if self.spec.normalize_u and self.beta > 0:
            sl = self.phi.slices[0]
            norm_triplets_z.append((n_rows, sl, np.full(m, 1.0 / m)))
            targets_extra.append(0.0)
            n_rows += 1
        if self.spec.normalize_m and self.beta > 0:
            sl = self._psi_int_slices[0]
            norm_triplets_rho.append((n_rows, sl, np.full(m, 1.0 / m)))
            targets_extra.append(self.spec.density_mean)
            n_rows += 1
        n_norm = len(targets_extra)
        if n_norm:
            w.append(np.full(n_norm, self.beta))
        for row, sl, vals in norm_triplets_z:
            zr.append(np.full(m, row))
            zc.append(sl.start + idx)
            zv.append(vals)
        for row, sl, vals in norm_triplets_rho:
            rr.append(np.full(m, row))
            rc.append(sl.start + idx)
            rv.append(vals)

        A_z = scipy.sparse.csr_matrix(
            (np.concatenate(zv), (np.concatenate(zr), np.concatenate(zc))),
            shape=(n_rows, self.n_z),
        )
        A_rho = scipy.sparse.csr_matrix(
            (np.concatenate(rv), (np.concatenate(rr), np.concatenate(rc))),
            shape=(n_rows, self.n_rho),
        )
        a_lam = np.zeros(n_rows)
        if self.has_lam:
            a_lam[: rows_int + (self.n_b if self.d_b else 0)] = np.concatenate(lam_rows)

        # linearized target: c = A theta_k - r(theta_k); for the (already
        # linear) normalization rows this is exactly the constraint target
        theta_lin = A_z @ state.z + A_rho @ state.rho + a_lam * lam
        r_full = np.concatenate(resid + [np.zeros(n_norm)])
        c_vec = theta_lin - r_full
        if n_norm:
            # the normalization rows are already linear; their linearized
            # target is exactly the constraint value
            c_vec[-n_norm:] = np.asarray(targets_extra)
        return A_z, A_rho, a_lam, c_vec, np.concatenate(w)

    def inner_solve(self, state: SolverState) -> SolverState:
        A_z, A_rho, a_lam, c_vec, w = self._rows(state)
        keep = w > 0
        if not np.any(keep):
            zer = np.zeros_like
            return SolverState(zer(state.z), zer(state.rho), 0.0 if self.has_lam else None)
        A_z, A_rho = A_z[keep], A_rho[keep]
        a_lam, c_vec, w = a_lam[keep], c_vec[keep], w[keep]

        B_z, apply_z = _cross(self.quad_u, A_z)
        B_r, apply_r = _cross(self.quad_m, A_rho)
        B = np.asarray(B_z + B_r)
        if self.has_lam:
            B += np.outer(a_lam, a_lam)
        B[np.diag_indices_from(B)] += 1.0 / w
        try:
            cf = scipy.linalg.cho_factor(0.5 * (B + B.T), lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise SingularNormalEquations(str(exc)) from exc
        y = scipy.linalg.cho_solve(cf, c_vec)
        z_hat = apply_z(y)
        rho_hat = apply_r(y)
        lam_hat = float(a_lam @ y) if self.has_lam else None
        hat = SolverState(z=z_hat, rho=rho_hat, lam=lam_hat)
        return hat

    def normal_equation_residual(self, state: SolverState, hat: SolverState) -> float:
        """Relative residual of (P + A^T W A) theta_hat = A^T W c; debug only."""
        A_z, A_rho, a_lam, c_vec, w = self._rows(state)
        keep = w > 0
        A_z, A_rho = A_z[keep], A_rho[keep]
        a_lam, c_vec, w = a_lam[keep], c_vec[keep], w[keep]
        lin = A_z @ hat.z + A_rho @ hat.rho + a_lam * (hat.lam or 0.0)
        wres = w * (lin - c_vec)
        lhs = [
            _p_apply(self.quad_u, hat.z) + A_z.T @ wres,
            _p_apply(self.quad_m, hat.rho) + A_rho.T @ wres,
        ]
        if self.has_lam:
            lhs.append(np.array([hat.lam + a_lam @ wres]))
        num = np.linalg.norm(np.concatenate(lhs))
        den = np.linalg.norm(w * c_vec) + 1e-300
        return float(num / den)


def gauss_newton_run(system, init: SolverState, cfg: SolverConfig):
    """Relaxed Gauss-Newton: theta <- theta + alpha (theta_hat - theta)."""
    state = SolverState(
        z=np.array(init.z, dtype=float), rho=np.array(init.rho, dtype=float), lam=init.lam
    )
    history = LossHistory()
    history.append(*system.loss(state))
    if not np.isfinite(history.total[0]):
        raise NonFiniteObjective(0)
    for it in range(1, cfg.max_iters + 1):
        hat = system.inner_solve(state)
        if cfg.debug:
            rel = system.normal_equation_residual(state, hat)
            if rel > 1e-8:
                raise SingularNormalEquations(
                    f"inner solve violates normal equations (rel {rel:.2e})"
                )
        a = cfg.alpha
        state = SolverState(
            z=state.z + a * (hat.z - state.z),
            rho=state.rho + a * (hat.rho - state.rho),
            lam=None if state.lam is None else state.lam + a * (hat.lam - state.lam),
        )
        history.append(*system.loss(state))
        if not np.isfinite(history.total[-1]):
            raise NonFiniteObjective(it)
        if cfg.loss_tol > 0 and it >= 2:
            prev, cur = history.total[-2], history.total[-1]
            if abs(prev - cur) <= cfg.loss_tol * max(abs(prev), 1e-300):
                break
    return state, history

