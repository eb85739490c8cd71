"""Relaxed penalized objectives and the globalized Gauss-Newton iteration.

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
paths: it is the regularized gram matrix Theta itself for the GP quadratic
form and F F^T + D, with F the feature matrix and mu on D's every row, for
the ridge form.  A gram on a full torus lattice has the same shape: F holds
the kernel's real half-mode features under the operator symbols, whose
F F^T is the gram without its nugget, and D is the nugget
(``linsys.LatticeFactor``), so both feature models reach the inner step as
one per-row diagonal.

There is one linearization, point-major.  Its rows come in point groups, one
residual batch of ``problems`` each: the boundary points (one row each), then
the interior points (two rows each), as in psi's block layout, then the
normalization rows.  A is never formed, only its per-point Jacobian stacks
and the normalization rows as dense columns N over z and rho, and ``loss``
sums the squares of these same rows.  There are two inner steps, and both
factor and solve their one matrix through the same in-place Cholesky solve,
``linsys.cholesky_solve``.  The residual side forms
B = W^{-1} + A P^{-1} A^T from P^{-1} as a matrix (the factor's
``regularized``); the Cholesky factorization reads only B's upper
triangle, so only that triangle is formed.  It then solves y = B^{-1} c
and returns theta_hat = P^{-1} (A^T y): each factor applies P^{-1} to the
one vector A^T y (``apply_regularized``).  With a split P^{-1} = F F^T + D,
D = diag(``ridge``) given per row, B also splits as S + U U^T:
S = W^{-1} + A D A^T couples only the rows of one point (plus the dense
normalization rows) and U = [A_z F_u, A_rho F_m, a_lam] has one column per
feature.  When those k columns are
fewer than the r kept rows, the inner step instead factors S point by point
and solves by Woodbury's identity with the k x k capacitance matrix
I + V^T V of the whitened rows V = L^{-1} U
(``linsys.low_rank_update_solve``), never forming an r x r or n x n matrix.
Its eigenvalues are all >= 1.  That is the rule for every factor with a
split (``feature_count``): Fourier features, and a lattice gram, whose
k counts its half-mode features (41 per side against r = 514 on mfg1d_gp).
A system with k >= r gains nothing there and takes the residual side on
P^{-1} as a matrix, as does a dense gram, which has no split.  Both steps
fail alike: a Cholesky that fails in
rounding, a non-finite factor diagonal (as from an overflowed matrix) or a
non-finite solution is a ``SingularNormalEquations`` (exit status 3) naming
the side, with no fallback.

The residual side builds B's upper triangle by column slabs of POINT_CHUNK
points and allocates nothing of size r x r or n x r per step, nor holds
anything of size n x r.  Its buffers (B, one column slab of Theta A^T of
each side, n x the slab's width, two chunks of slab products, the constant
Theta N of each side, and F F^T + mu I for a feature factor) belong to the
system: the first step allocates them, every later step overwrites them in
place, and ``gauss_newton_run`` releases them when it returns, so they
never overlap the post-solve field evaluation.

The outer iteration is globalized by a backtracking line search along the
Gauss-Newton direction theta_hat - theta (Nocedal and Wright, Numerical
Optimization, ch. 3).  It tries the full step first and halves it until the
objective decreases; once the step reaches the configured ``alpha``, the
source paper's relaxed step theta + alpha (theta_hat - theta) is taken
whatever its objective, so ``alpha`` is the smallest step.  The run stops
when the Gauss-Newton step vanishes, ||theta_hat - theta|| <= tau
||theta_hat|| with tau = ``STEP_TOL``, or after ``max_iters`` steps.
``alpha``, ``max_iters`` and the start's settings are plain arguments
taken from ``pipeline.ExperimentConfig``, which alone checks them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from . import linsys
from .collocation import CollocationSet, FunctionalSet
from .errors import NonFiniteObjective, SingularNormalEquations
from .linsys import ArrowCholesky, low_rank_update_solve
from .problems import BOUNDARY_ROWS, INTERIOR_ROWS, ProblemSpec
from .problems import boundary_residual_batch, interior_residual_batch

INIT_ZEROS = "zeros-with-unit-density"
INIT_GAUSSIAN = "gaussian"
# points per chunk of the residual-side step: B's column slabs, and the rows
# of a slab's products, span this many points each
POINT_CHUNK = 64
# stop once ||theta_hat - theta|| <= STEP_TOL ||theta_hat||.  On the bundled
# configs the relative step falls to a round-off floor of 2-5e-10
# (planning_ff), from which steps only add noise, and the last step above
# 1e-8 is 1.9e-8 (mfg1d_gp); a 1e-8 relative change of theta moves no
# reported metric beyond its printed digits
STEP_TOL = 1e-8


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
    """The objective split of each accepted state, and the step that reached it.

    ``step`` is the accepted step length t and ``step_norm`` the relative
    Gauss-Newton step ||theta_hat - theta|| / ||theta_hat|| it was taken
    along; both are 0.0 at the start.
    """

    total: list = field(default_factory=list)
    quadratic: list = field(default_factory=list)
    pde_penalty: list = field(default_factory=list)
    norm_penalty: list = field(default_factory=list)
    step: list = field(default_factory=list)
    step_norm: list = field(default_factory=list)

    _COLUMNS = ("total", "quadratic", "pde_penalty", "norm_penalty", "step", "step_norm")

    def append(self, total, quad, pde, norm, step=0.0, step_norm=0.0):
        for column, value in zip(self._COLUMNS, (total, quad, pde, norm, step, step_norm)):
            getattr(self, column).append(float(value))

    def export_csv(self, path) -> None:
        columns = [getattr(self, column) for column in self._COLUMNS]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", *self._COLUMNS])
            w.writerows([i, *map(repr, row)] for i, row in enumerate(zip(*columns)))


def init_state(
    phi: FunctionalSet, psi: FunctionalSet, has_lam: bool, mode: str, scale: float, seed: int
) -> SolverState:
    """The start: unit density on every identity block of m, plus, with mode
    INIT_GAUSSIAN, standard normal values times scale drawn from seed."""
    z = np.zeros(phi.size)
    rho = np.zeros(psi.size)
    lam = 0.0 if has_lam else None
    if mode == INIT_GAUSSIAN:
        rng = np.random.default_rng(seed)
        z = scale * rng.standard_normal(phi.size)
        rho = scale * rng.standard_normal(psi.size)
        if has_lam:
            lam = scale * float(rng.standard_normal())
    for tag, sl in zip(psi.operator_tags, psi.slices):
        if tag == K.ID:
            rho[sl] += 1.0
    return SolverState(z=z, rho=rho, lam=lam)


def _ridge_rows(J, d, X):
    """J D X for each point of a (points, rows, cols) stack and D = diag(d), d (points, cols)."""
    return (J * d[:, None, :]) @ X


def _ridge_gram(X, d):
    """X^T D X for D = diag(d) over X's rows."""
    return X.T @ (d[:, None] * X)


def _apply(J, v):
    """J v for each point of a (points, rows, cols) stack and (points, cols) values."""
    return np.einsum("ics,is->ic", J, v)


def _by_point(X, slices, n):
    """A view of X's rows on consecutive blocks of n rows each, as (n, blocks, ...)."""
    lo = slices[0].start if slices else 0
    return np.moveaxis(X[lo : lo + len(slices) * n].reshape(len(slices), n, *X.shape[1:]), 0, 1)


def _columns(v, slices, n):
    """The blocks of v on slices as the columns of an (n, blocks) array."""
    return np.stack([v[sl] for sl in slices], axis=1) if slices else np.zeros((n, 0))


def _point_rows(blocks, tail):
    """Stack per-point blocks (points, rows per point, ...) into rows, point by point, then tail."""
    return np.concatenate([b.reshape(b.shape[0] * b.shape[1], *b.shape[2:]) for b in blocks] + [tail])


def _upper_columns(groups, side, bottom):
    """(first, count) ranges of a side's functionals on points whose rows start before ``bottom``.

    ``groups`` holds (first row, points, rows per point, (u, m) slices, ...)
    per point group in row order; ranges that meet are merged.
    """
    ranges = []
    for first, n, p, slices, *_ in groups:
        k = min(n, -(-(bottom - first) // p))
        for sl in slices[side] if k > 0 else ():
            if ranges and sum(ranges[-1]) == sl.start:
                ranges[-1][1] += k
            else:
                ranges.append([sl.start, k])
    return ranges


def _product_rows(out, J, columns, lam, sums):
    """out = J_z Y_z + J_rho Y_rho + j_lam lam^T on a point group's first points.

    ``out`` is (points, rows per point, w), ``J`` the group's Jacobians,
    ``columns`` each side's Y = Theta A^T on the group's functionals as
    (points, operators, w), and ``lam`` a_lam on out's columns, or None for
    none.  POINT_CHUNK points at a time, each side's product goes to one of
    the two ``sums`` buffers and their sum, rounded as (J_z Y_z + J_rho
    Y_rho) + j_lam lam^T, is written to out.  Nothing is added in place into
    the strided out, which would make numpy copy through its iterator buffer.
    """
    k, p, w = out.shape
    for a in range(0, k, POINT_CHUNK):
        b = min(a + POINT_CHUNK, k)
        parts = [buf[: (b - a) * p * w].reshape(b - a, p, w) for buf in sums]
        for Js, Y, part in zip(J[:2], columns, parts):
            np.matmul(Js[a:b], Y[a:b], out=part)
        if lam is not None:
            np.add(*parts, out=parts[0])
            np.matmul(J[2][a:b].reshape(-1, 1), lam[None], out=parts[1].reshape(-1, w))
        np.add(*parts, out=out[a:b])


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
        # point groups in row order, boundary first as in psi: (points, rows
        # per point, residual batch, u-block slices, m-block slices)
        n_mb = len(spec.m_boundary_operators) if len(pts.boundary) else 0
        boundary = (pts.boundary, BOUNDARY_ROWS, boundary_residual_batch, (), psi.slices[:n_mb])
        interior = (pts.interior, INTERIOR_ROWS, interior_residual_batch, phi.slices, psi.slices[n_mb:])
        self._groups = [boundary, interior] if n_mb else [interior]
        norm = self._norm_rows()
        self._n_norm = len(norm)
        n_res = sum(len(X) * p for X, p, *_ in self._groups)
        self.n_rows = (n_res if self.gamma > 0 else 0) + self._n_norm
        self._w = np.concatenate(
            [np.full(self.n_rows - self._n_norm, self.gamma), np.full(self._n_norm, self.beta)]
        )
        self._workspace = None  # the residual side's, from its first step to release_workspace
        # normalization rows N as dense vectors over z and rho, one column each
        Nz, Nm = np.zeros((self.n_z, self._n_norm)), np.zeros((self.n_rho, self._n_norm))
        for j, (is_u, sl, _) in enumerate(norm):
            (Nz if is_u else Nm)[sl, j] = 1.0 / (sl.stop - sl.start)
        self._norm_t = (Nz, Nm)
        self._norm_c = np.array([target for _, _, target in norm])
        # the feature side pays off when U has fewer columns k than kept rows r;
        # a factor without a split P^{-1} = F F^T + D has no count
        counts = quad_u.feature_count, quad_m.feature_count
        self.feature_side = None not in counts and sum(counts) + self.has_lam < self.n_rows
        if not self.feature_side:
            return
        lam_col = [np.zeros((self._n_norm, 1))] if self.has_lam else []
        self._norm_U = np.hstack([Nz.T @ quad_u.features, Nm.T @ quad_m.features] + lam_col)
        self._norm_S = np.diag(np.full(self._n_norm, 1.0 / self.beta)) if norm else np.zeros((0, 0))
        self._norm_S += _ridge_gram(Nz, quad_u.ridge) + _ridge_gram(Nm, quad_m.ridge)

    def _norm_rows(self):
        """The linear normalization rows, each the mean over one identity block.

        One (is_u, block slice, target) per row, in row order; weight beta.
        The identity blocks are the first u- and m-blocks of the interior
        group.  ``__init__`` builds N and the targets from them.
        """
        *_, u_slices, m_slices = self._groups[-1]
        rows = []
        if self.spec.normalize_u and self.beta > 0:
            rows.append((True, u_slices[0], 0.0))
        if self.spec.normalize_m and self.beta > 0:
            rows.append((False, m_slices[0], self.spec.density_mean))
        return rows

    # -- the residual rows, point group by point group -----------------------

    def _group_values(self, state: SolverState):
        """(u-values, m-values) of the state per point group, (points, operators) each."""
        return [
            (_columns(state.z, u_sl, len(X)), _columns(state.rho, m_sl, len(X)))
            for X, _, _, u_sl, m_sl in self._groups
        ]

    def _group_residuals(self, state: SolverState):
        """Per point group: its batch's residuals R and Jacobians J_z, J_rho, j_lam.

        Row i of a group holds point i's residual rows.
        """
        lam = state.lam or 0.0
        return [
            batch(self.spec, X, U, M, lam)
            for (X, _, batch, _, _), (U, M) in zip(self._groups, self._group_values(state))
        ]

    def loss(self, state: SolverState):
        """(total, quadratic, gamma * PDE, beta * normalization) of the objective at state."""
        pde = sum(float(np.sum(R**2)) for R, *_ in self._group_residuals(state))
        quad = self.quad_u.quadratic_form(state.z) + self.quad_m.quadratic_form(state.rho)
        # squared as float64, which overflows to inf where a Python float raises
        if self.has_lam:
            quad += np.float64(state.lam) ** 2
        Nz, Nm = self._norm_t
        norm_res = state.z @ Nz + state.rho @ Nm - self._norm_c
        norm = float(norm_res @ norm_res)
        total = quad + self.gamma * pde + self.beta * norm
        return total, quad, self.gamma * pde, self.beta * norm

    def _linearize_by_point(self, state: SolverState):
        """The group residuals, point-major, checked finite: the rows the step linearizes.

        The normalization rows follow all groups.  With gamma = 0 the residual
        rows carry no weight and there are no groups.
        """
        if self.gamma == 0:
            return []
        groups = self._group_residuals(state)
        if not all(np.all(np.isfinite(a)) for group in groups for a in group):
            raise SingularNormalEquations("the linearized residual rows are not finite")
        return groups

    def _point_apply(self, lin, state: SolverState):
        """A theta on the point rows at the state's values, one (points, rows) array per group."""
        lam = state.lam or 0.0
        return [
            _apply(Jz, Uv) + _apply(Jm, Mv) + jl * lam
            for (Uv, Mv), (_, Jz, Jm, jl) in zip(self._group_values(state), lin)
        ]

    def _targets(self, lin, state: SolverState):
        """c = A theta_k - r(theta_k); the normalization rows are linear, so theirs is the target."""
        at = self._point_apply(lin, state)
        return _point_rows([a - R for a, (R, *_) in zip(at, lin)], self._norm_c)

    def _transpose_apply(self, lin, y):
        """A^T y as its z part, rho part (in their block layouts) and lambda part."""
        Nz, Nm = self._norm_t
        y_norm = y[self.n_rows - self._n_norm :]
        at_z, at_rho, at_lam, lo = Nz @ y_norm, Nm @ y_norm, 0.0, 0
        for (*_, z_sl, m_sl), (R, Jz, Jm, jl) in zip(self._groups, lin):
            n = R.shape[0]
            y_g = y[lo : lo + R.size].reshape(R.shape)
            lo += R.size
            _by_point(at_z, z_sl, n)[...] += np.einsum("icq,ic->iq", Jz, y_g)
            _by_point(at_rho, m_sl, n)[...] += np.einsum("icd,ic->id", Jm, y_g)
            at_lam += float(np.sum(jl * y_g))
        return at_z, at_rho, at_lam

    # -- the inner step ------------------------------------------------------

    def inner_solve(self, state: SolverState) -> SolverState:
        """Minimizer of the linearized objective, theta_hat = P^{-1} A^T B^{-1} c."""
        if not self.n_rows:
            zer = np.zeros_like
            return SolverState(zer(state.z), zer(state.rho), 0.0 if self.has_lam else None)
        lin = self._linearize_by_point(state)
        c = self._targets(lin, state)
        step = self._feature_inner_solve if self.feature_side else self._gram_inner_solve
        try:
            return step(lin, c)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            side = "feature" if self.feature_side else "residual"
            raise SingularNormalEquations(f"{side}-side inner solve failed: {exc}") from exc

    def _residual_workspace(self):
        """The residual side's buffers (thetas, B, slabs, sums, theta_ns).

        The ones held, or new ones.  ``thetas`` is P^{-1} of each side as a
        matrix and ``B`` the r x r inner matrix.  ``slabs`` holds one column
        slab of Theta A^T of each side, n x w with w at most POINT_CHUNK
        points of rows plus the normalization columns, and ``sums`` two
        products of a chunk of a point group's Jacobians with a slab.
        ``theta_ns`` is Theta N of each side, which is constant, so each
        factor applies P^{-1} to N's columns once, here.  No buffer has
        n x r entries.
        """
        if self._workspace is None:
            r, n_norm = self.n_rows, self._n_norm
            # a feature factor forms F F^T + mu I anew here; it lives as long as the buffers
            thetas = (self.quad_u.regularized, self.quad_m.regularized)
            n_u, n_m = (theta.shape[0] for theta in thetas)
            width = POINT_CHUNK * max(p for _, p, *_ in self._groups)
            columns = width + n_norm  # the last slab's, with the normalization columns
            # views of one block, freed in one piece on release; freeing
            # separate arrays raised the post-solve peak RSS
            sizes = [r * r, n_u * columns, n_m * columns, 2 * width * columns]
            B, S_u, S_m, sums = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
            quads = (self.quad_u, self.quad_m)
            theta_ns = [quad.apply_regularized(N) for quad, N in zip(quads, self._norm_t)]
            self._workspace = thetas, B.reshape(r, r), (S_u, S_m), np.split(sums, 2), theta_ns
        return self._workspace

    def release_workspace(self) -> None:
        """Drop the residual side's buffers; the next step allocates them again."""
        self._workspace = None

    def _gram_inner_solve(self, lin, c) -> SolverState:
        """The residual-side step: B = W^{-1} + A Theta A^T + a_lam a_lam^T, factored.

        Theta is P^{-1} as a matrix, the factor's ``regularized``: the
        nugget-regularized gram, or F F^T + mu I for a feature factor.  The
        Cholesky factorization reads only the upper triangle of B, so only
        B[i, j] with j >= i is formed, by column slabs [top, bottom) of
        POINT_CHUNK points: B[:bottom, top:bottom] = A[:bottom] Theta
        A_slab^T.  Every product is written into the system's workspace, so
        a step allocates nothing of size r x r or n x r, and no n x r
        product is held.

        In a slab, Theta A_slab^T of each side is needed only on the
        functionals of points whose rows start before bottom
        (``_upper_columns``).  On each range of them, Theta A_slab^T is one
        batched product over the slab's points: Theta's rows at a point's
        functionals, transposed (Theta is symmetric), times the point's
        transposed Jacobian, written straight into the side's slab buffer.
        The last slab also carries the normalization columns, the held
        Theta N, so they come from the same products.  Then, for each point
        group's rows above bottom, ``_product_rows`` writes both sides'
        products with the slab, plus a_lam a_lam^T, into B.  The
        normalization rows keep their corner N^T Theta N alone.  The
        Cholesky factor overwrites B, and theta_hat = P^{-1} (A^T y) is
        applied through each factor (``apply_regularized``).
        """
        thetas, B, slabs, sums, theta_ns = self._residual_workspace()
        r, lo = self.n_rows, 0
        groups = []  # (first row, points, rows per point, (u, m) slices, Jacobians)
        for (_, _, _, *slices), (R, *J) in zip(self._groups, lin):
            groups.append((lo, *R.shape, slices, J))
            lo += R.size
        a_lam = None
        if self.has_lam:  # zero on the normalization rows
            a_lam = _point_rows([jl for *_, jl in lin], np.zeros(self._n_norm))
        for g, (first, n, p, slices, J) in enumerate(groups):
            theta_rows = [_by_point(theta, sl, n) for theta, sl in zip(thetas, slices)]
            for i in range(0, n, POINT_CHUNK):
                j = min(i + POINT_CHUNK, n)
                top, bottom = first + i * p, first + j * p
                # the last slab also takes the normalization columns, Theta N
                right = r if bottom == lo else bottom
                w = right - top
                slab = [S[: len(theta) * w].reshape(-1, w) for S, theta in zip(slabs, thetas)]
                for side, Yt in enumerate(slab):
                    for c0, k in _upper_columns(groups, side, bottom):
                        rows = theta_rows[side][i:j, :, c0 : c0 + k].transpose(0, 2, 1)
                        out = Yt[c0 : c0 + k, : bottom - top].reshape(k, j - i, p)
                        np.matmul(rows, J[side][i:j].transpose(0, 2, 1), out=out.transpose(1, 0, 2))
                    if right > bottom:
                        Yt[:, bottom - top :] = theta_ns[side]
                lam = None if a_lam is None else a_lam[top:right]
                # the rows above the slab's bottom: every earlier group's, and this one's to j
                for h, (first_h, n_h, p_h, slices_h, J_h) in enumerate(groups[: g + 1]):
                    k = j if h == g else n_h
                    columns = [_by_point(Yt, sl, n_h)[:k] for Yt, sl in zip(slab, slices_h)]
                    out = B[first_h : first_h + k * p_h, top:right].reshape(k, p_h, w)
                    _product_rows(out, J_h, columns, lam, sums)
        # the corner N^T Theta N, from the last slab's strided Theta N columns:
        # OpenBLAS rounds a one-column product with a strided operand the
        # same whatever the stride, so the corner does not depend on the slab
        (Nz, Nm), corner = self._norm_t, B[lo:, lo:]
        theta_n = [Yt[:, w - self._n_norm :] for Yt in slab] if groups else theta_ns
        np.matmul(Nz.T, theta_n[0], out=corner)
        corner += Nm.T @ theta_n[1]
        B.reshape(-1)[:: r + 1] += 1.0 / self._w
        y = linsys.cholesky_solve(B, c, "inner matrix B")
        at_z, at_rho, at_lam = self._transpose_apply(lin, y)
        return SolverState(
            z=self.quad_u.apply_regularized(at_z),
            rho=self.quad_m.apply_regularized(at_rho),
            lam=at_lam if self.has_lam else None,
        )

    def _feature_inner_solve(self, lin, c) -> SolverState:
        """The feature-side step, for P^{-1} = F F^T + D and k < r: B = S + U U^T.

        U = [A_z F_u, A_rho F_m, a_lam] and S = W^{-1} + A_z D_u A_z^T +
        A_rho D_m A_rho^T, which is a 2 x 2 block per interior point, a
        scalar per boundary row and the dense normalization rows.  D is
        diagonal, the factor's ``ridge`` per row: mu on every row for a
        feature factor, the nugget for a lattice gram.
        ``linsys.low_rank_update_solve`` works in O(r k^2) on the feature
        side, by a Cholesky factor of the k x k capacitance matrix
        I + V^T V with V = L_S^{-1} U, so neither F F^T nor B is formed.  A
        failed factorization or a non-finite solve raises
        ``SingularNormalEquations`` (exit status 3).  Returns F g + D A^T y
        with g = U^T y.
        """
        F_u, F_m = self.quad_u.features, self.quad_m.features
        d_u, d_m = self.quad_u.ridge, self.quad_m.ridge
        Nz, Nm = self._norm_t
        blocks, rows, coupling = [], [], []
        for (*_, z_sl, m_sl), (R, Jz, Jm, jl) in zip(self._groups, lin):
            n = R.shape[0]
            dz, dm = _columns(d_u, z_sl, n), _columns(d_m, m_sl, n)
            blocks.append(
                np.eye(R.shape[1]) / self.gamma
                + _ridge_rows(Jz, dz, Jz.transpose(0, 2, 1))
                + _ridge_rows(Jm, dm, Jm.transpose(0, 2, 1))
            )
            lam_col = [jl[:, :, None]] if self.has_lam else []
            feats = [Jz @ _by_point(F_u, z_sl, n), Jm @ _by_point(F_m, m_sl, n)]
            rows.append(np.concatenate(feats + lam_col, axis=2))
            coupling.append(
                _ridge_rows(Jz, dz, _by_point(Nz, z_sl, n)) + _ridge_rows(Jm, dm, _by_point(Nm, m_sl, n))
            )
        U = _point_rows(rows, self._norm_U)
        C = _point_rows(coupling, np.zeros((0, self._n_norm)))
        y, g = low_rank_update_solve(ArrowCholesky(blocks, C, self._norm_S), U, c)
        at_z, at_rho, _ = self._transpose_apply(lin, y)
        k_u, k_m = F_u.shape[1], F_m.shape[1]
        z_hat = F_u @ g[:k_u] + d_u * at_z
        rho_hat = F_m @ g[k_u : k_u + k_m] + d_m * at_rho
        return SolverState(z=z_hat, rho=rho_hat, lam=float(g[-1]) if self.has_lam else None)

    def normal_equation_residual(self, state: SolverState, hat: SolverState) -> float:
        """Relative residual of (P + A^T W A) theta_hat = A^T W c, an oracle for tests.

        A and c are the inner step's own point-major rows at state; A theta_hat
        and A^T W (A theta_hat - c) are applied point by point, never formed.
        """
        lin = self._linearize_by_point(state)
        c = self._targets(lin, state)
        Nz, Nm = self._norm_t
        a_hat = _point_rows(self._point_apply(lin, hat), hat.z @ Nz + hat.rho @ Nm)
        at_z, at_rho, at_lam = self._transpose_apply(lin, self._w * (a_hat - c))
        lhs = [self.quad_u.solve(hat.z) + at_z, self.quad_m.solve(hat.rho) + at_rho]
        if self.has_lam:
            lhs.append(np.array([hat.lam + at_lam]))
        num = np.linalg.norm(np.concatenate(lhs))
        den = np.linalg.norm(self._w * c) + 1e-300
        return float(num / den)


def gauss_newton_run(system, init: SolverState, alpha: float, max_iters: int):
    """Gauss-Newton with a backtracking step; returns the last state and its history.

    Each iteration computes theta_hat, the linearized objective's minimizer.
    If ||theta_hat - theta|| <= STEP_TOL ||theta_hat|| (theta packs z, rho
    and lambda) the run stops without stepping.  Otherwise it takes
    theta <- theta + t (theta_hat - theta) for the first t of 1, 1/2, 1/4,
    ... above alpha whose objective is below the current one (a non-finite
    objective is no decrease), else t = alpha whatever its objective; only
    a non-finite objective there raises NonFiniteObjective.  max_iters caps
    the steps; alpha in (0, 1] and max_iters >= 1 are checked by
    ``pipeline.ExperimentConfig``.  Each inner step solves through
    ``linsys.cholesky_solve``, and a failed one raises
    SingularNormalEquations.  The system's inner-step workspace is
    released when the run returns or raises.
    """
    try:
        return _line_search_iterations(system, init, alpha, max_iters)
    finally:
        system.release_workspace()


def _step_lengths(alpha: float) -> list:
    """The trial steps: 1, 1/2, 1/4, ... while above alpha, then alpha itself."""
    steps = [1.0]
    while steps[-1] > alpha:
        steps.append(steps[-1] / 2)
    steps[-1] = alpha
    return steps


def _moved(state: SolverState, hat: SolverState, t: float) -> SolverState:
    """theta + t (theta_hat - theta)."""
    return SolverState(
        z=state.z + t * (hat.z - state.z),
        rho=state.rho + t * (hat.rho - state.rho),
        lam=None if state.lam is None else state.lam + t * (hat.lam - state.lam),
    )


def _line_search_iterations(system, init: SolverState, alpha: float, max_iters: int):
    state = SolverState(
        z=np.array(init.z, dtype=float), rho=np.array(init.rho, dtype=float), lam=init.lam
    )
    history = LossHistory()
    with np.errstate(over="ignore", invalid="ignore"):
        history.append(*system.loss(state))
    if not np.isfinite(history.total[0]):
        raise NonFiniteObjective(0)
    steps = _step_lengths(alpha)
    for it in range(1, max_iters + 1):
        hat = system.inner_solve(state)
        theta, theta_hat = state.pack(), hat.pack()
        d_norm, hat_norm = np.linalg.norm(theta_hat - theta), np.linalg.norm(theta_hat)
        # theta_hat = 0 moves all of theta: a relative step of 1
        step_norm = float(d_norm / (hat_norm or d_norm or 1.0))
        if step_norm <= STEP_TOL:
            break
        for t in steps:
            trial = _moved(state, hat, t)
            with np.errstate(over="ignore", invalid="ignore"):
                parts = system.loss(trial)
            if parts[0] < history.total[-1]:
                break
        if not np.isfinite(parts[0]):
            raise NonFiniteObjective(it)
        state = trial
        history.append(*parts, t, step_norm)
    return state, history
