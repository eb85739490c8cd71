"""Relaxed penalized objectives and the Gauss-Newton iteration.

The objective is  theta^T P theta + gamma * sum r_i(theta)^2 + beta * (mean
constraints)^2  where P encodes the RKHS (or ridge) quadratic form on the
functional values and lambda^2.  Gauss-Newton linearizes only the gamma
residuals; the quadratic and beta terms enter the inner problem exactly.

The inner minimizer is computed in residual space: with A the stacked
linearized rows, W the row weights and c the linearized targets,

    theta_hat = P^{-1} A^T (W^{-1} + A P^{-1} A^T)^{-1} c,

which is algebraically the solution of the dense normal equations
(P + A^T W A) theta_hat = A^T W c but only ever factors a matrix whose size
is the smaller of rows and features.  Crucially P^{-1} is cheap on both
paths: it is the regularized gram matrix itself for the GP quadratic form
and A_feat A_feat^T + mu I for the ridge form.

With the ridge form on both u and m, B = W^{-1} + A P^{-1} A^T splits as
S + U U^T: S = W^{-1} + mu A A^T couples only the rows of one point (plus
the dense normalization rows) and U = [A_z F_u, A_rho F_m, a_lam] has one
column per feature.  When those k columns are fewer than the r kept rows,
the inner step factors S point by point and takes a thin SVD of the
whitened r x k matrix instead of a Cholesky factor of the r x r matrix B
(``linsys.low_rank_update_solve``); every other system factors B densely.
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
from .linsys import ArrowCholesky, low_rank_update_solve
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


def _gram(J):
    """J J^T for each point of a (points, rows, cols) stack."""
    return J @ J.transpose(0, 2, 1)


def _apply(J, v):
    """J v for each point of a (points, rows, cols) stack and (points, cols) values."""
    return np.einsum("ics,is->ic", J, v)


def _by_point(X, slices, n):
    """Rows of X on the given blocks of n rows each, as (n, blocks, columns)."""
    if not slices:
        return np.zeros((n, 0, X.shape[1]))
    return np.stack([X[sl] for sl in slices], axis=1)


def _point_rows(blocks):
    """Stack per-point blocks (points, rows per point, ...) into rows, point by point."""
    return np.concatenate([b.reshape(b.shape[0] * b.shape[1], *b.shape[2:]) for b in blocks])


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
        n_res = 2 * self.m_int + (self.n_b if self.d_b else 0)
        self.n_rows = (n_res if self.gamma > 0 else 0) + len(self._norm_rows())
        # the feature side pays off when B = S + U U^T has fewer columns in U
        # than kept rows: both factors carry feature matrices and k < r
        F_u, F_m = quad_u.features, quad_m.features
        k = -1 if F_u is None or F_m is None else F_u.shape[1] + F_m.shape[1] + self.has_lam
        self.feature_side = 0 <= k < self.n_rows
        if self.feature_side:
            self._feature_tables(F_u, F_m)

    # -- state block bookkeeping ------------------------------------------

    def values(self, state: SolverState):
        U = np.stack([state.z[sl] for sl in self.phi.slices], axis=1)
        M = np.stack([state.rho[sl] for sl in self._psi_int_slices], axis=1)
        if self.d_b:
            Mb = np.stack([state.rho[sl] for sl in self._psi_b_slices], axis=1)
        else:
            Mb = np.zeros((0, 0))
        return U, M, Mb

    def _norm_rows(self):
        """The linear normalization rows, each the mean over one identity block.

        One (is_u, block slice, target) per row, in row order; weight beta.
        """
        rows = []
        if self.spec.normalize_u and self.beta > 0:
            rows.append((True, self.phi.slices[0], 0.0))
        if self.spec.normalize_m and self.beta > 0:
            rows.append((False, self._psi_int_slices[0], self.spec.density_mean))
        return rows

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
        norm = self._norm_rows()
        targets_extra = [target for _, _, target in norm]
        for is_u, sl, _ in norm:
            cols = (zr, zc, zv) if is_u else (rr, rc, rv)
            cols[0].append(np.full(m, n_rows))
            cols[1].append(sl.start + idx)
            cols[2].append(np.full(m, 1.0 / m))
            n_rows += 1
        n_norm = len(norm)
        if n_norm:
            w.append(np.full(n_norm, self.beta))

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
        """Minimizer of the linearized objective, on the feature side when it is smaller."""
        if self.feature_side:
            return self._feature_inner_solve(state)
        A_z, A_rho, a_lam, c_vec, w = self._rows(state)
        keep = w > 0
        if not np.any(keep):
            zer = np.zeros_like
            return SolverState(zer(state.z), zer(state.rho), 0.0 if self.has_lam else None)
        A_z, A_rho = A_z[keep], A_rho[keep]
        a_lam, c_vec, w = a_lam[keep], c_vec[keep], w[keep]

        B_z, apply_z = self.quad_u.cross(A_z)
        B_r, apply_r = self.quad_m.cross(A_rho)
        B = np.asarray(B_z + B_r)
        if self.has_lam:
            B += np.outer(a_lam, a_lam)
        B[np.diag_indices_from(B)] += 1.0 / w
        try:
            cf = scipy.linalg.cho_factor(0.5 * (B + B.T), lower=True)
        except (scipy.linalg.LinAlgError, ValueError) as exc:  # ValueError: inf or NaN in B
            raise SingularNormalEquations(f"inner Cholesky failed: {exc}") from exc
        y = scipy.linalg.cho_solve(cf, c_vec)
        if not np.all(np.isfinite(y)):
            raise SingularNormalEquations("inner solve is not finite")
        z_hat = apply_z(y)
        rho_hat = apply_r(y)
        lam_hat = float(a_lam @ y) if self.has_lam else None
        hat = SolverState(z=z_hat, rho=rho_hat, lam=lam_hat)
        return hat

    # -- the feature side: B = S + U U^T --------------------------------------

    def _feature_tables(self, F_u, F_m):
        """Point-major feature and normalization rows per group, and the constant rows."""
        mu_u, mu_m = self.quad_u.mu, self.quad_m.mu
        norm = self._norm_rows()
        # normalization rows as dense vectors over z and rho
        nz, nr = np.zeros((len(norm), self.n_z)), np.zeros((len(norm), self.n_rho))
        for j, (is_u, sl, _) in enumerate(norm):
            (nz if is_u else nr)[j, sl] = 1.0 / (sl.stop - sl.start)
        # point groups as in _linearize_by_point: boundary points (one row,
        # m-values only) first, as in psi, then interior points (two rows)
        groups = [(self.m_int, self.phi.slices, self._psi_int_slices)]
        if self.d_b:
            groups.insert(0, (self.n_b, (), self._psi_b_slices))
        self._tables = [
            (_by_point(F_u, z_sl, n), _by_point(F_m, m_sl, n),
             _by_point(nz.T, z_sl, n), _by_point(nr.T, m_sl, n))
            for n, z_sl, m_sl in groups
        ]
        lam_col = [np.zeros((len(norm), 1))] if self.has_lam else []
        self._norm_U = np.hstack([nz @ F_u, nr @ F_m] + lam_col)
        self._norm_S = np.diag(np.full(len(norm), 1.0 / self.beta)) if norm else np.zeros((0, 0))
        self._norm_S += mu_u * (nz @ nz.T) + mu_m * (nr @ nr.T)
        self._norm_c = np.array([target for _, _, target in norm])

    def _linearize_by_point(self, state: SolverState):
        """Per group: u-values, m-values, residuals and their Jacobians, point-major."""
        U, M, Mb = self.values(state)
        lam = state.lam or 0.0
        R, dU, dM, dlam = interior_residual_batch(self.spec, self.pts.interior, U, M, lam)
        groups = [(U, M, R, dU, dM, dlam)]
        if self.d_b:
            Rb, dMb = boundary_residual_batch(self.spec, self.pts.boundary, Mb)
            n = self.n_b
            groups.insert(0, (np.zeros((n, 0)), Mb, Rb, np.zeros((n, 1, 0)), dMb, np.zeros((n, 1))))
        return groups

    def _feature_inner_solve(self, state: SolverState) -> SolverState:
        """The inner step with B = S + U U^T, factored on the feature side.

        U = [A_z F_u, A_rho F_m, a_lam] and S = W^{-1} + mu_u A_z A_z^T +
        mu_m A_rho A_rho^T, which is a 2 x 2 block per interior point, a
        scalar per boundary row and the dense normalization rows.  Rows are
        ordered point by point; ``linsys.low_rank_update_solve`` does the rest
        in O(r k^2).  Returns P^{-1} A^T y with the feature part F^T A^T y
        taken from the factored basis.
        """
        mu_u, mu_m, lam = self.quad_u.mu, self.quad_m.mu, state.lam or 0.0
        lin = self._linearize_by_point(state)
        if not all(np.all(np.isfinite(a)) for group in lin for a in group):
            raise SingularNormalEquations("the linearized residual rows are not finite")
        blocks, rows, coupling, c = [], [], [], []
        for (Uv, Mv, R, Jz, Jm, jl), (Fz, Fm, Nz, Nm) in zip(lin, self._tables):
            blocks.append(np.eye(R.shape[1]) / self.gamma + mu_u * _gram(Jz) + mu_m * _gram(Jm))
            lam_col = [jl[:, :, None]] if self.has_lam else []
            rows.append(np.concatenate([Jz @ Fz, Jm @ Fm] + lam_col, axis=2))
            coupling.append(mu_u * (Jz @ Nz) + mu_m * (Jm @ Nm))
            c.append(_apply(Jz, Uv) + _apply(Jm, Mv) + jl * lam - R)
        U_all = np.vstack([_point_rows(rows), self._norm_U])
        c_all = np.concatenate([_point_rows(c), self._norm_c])
        try:
            chol = ArrowCholesky(blocks, _point_rows(coupling), self._norm_S)
            y, g = low_rank_update_solve(chol, U_all, c_all)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            raise SingularNormalEquations(f"feature-side inner solve failed: {exc}") from exc

        # A^T y, group by group, in the block layout of z and rho
        y_norm = y[self.n_rows - len(self._norm_c) :]
        at_z, at_rho, lo = [], [], 0
        for (_, _, R, Jz, Jm, _), (_, _, Nz, Nm) in zip(lin, self._tables):
            y_g = y[lo : lo + R.size].reshape(R.shape)
            lo += R.size
            at_z.append((np.einsum("icq,ic->iq", Jz, y_g) + Nz @ y_norm).T.ravel())
            at_rho.append((np.einsum("icd,ic->id", Jm, y_g) + Nm @ y_norm).T.ravel())
        k_u, k_m = self.quad_u.features.shape[1], self.quad_m.features.shape[1]
        z_hat = self.quad_u.features @ g[:k_u] + mu_u * np.concatenate(at_z)
        rho_hat = self.quad_m.features @ g[k_u : k_u + k_m] + mu_m * np.concatenate(at_rho)
        return SolverState(z=z_hat, rho=rho_hat, lam=float(g[-1]) if self.has_lam else None)

    def normal_equation_residual(self, state: SolverState, hat: SolverState) -> float:
        """Relative residual of (P + A^T W A) theta_hat = A^T W c; debug only."""
        A_z, A_rho, a_lam, c_vec, w = self._rows(state)
        keep = w > 0
        A_z, A_rho = A_z[keep], A_rho[keep]
        a_lam, c_vec, w = a_lam[keep], c_vec[keep], w[keep]
        lin = A_z @ hat.z + A_rho @ hat.rho + a_lam * (hat.lam or 0.0)
        wres = w * (lin - c_vec)
        lhs = [
            self.quad_u.solve(hat.z) + A_z.T @ wres,
            self.quad_m.solve(hat.rho) + A_rho.T @ wres,
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

