"""Gram/feature matrix assembly and the cached factorizations.

The GP path regularizes the gram matrix with a block-diagonal nugget and
keeps its Cholesky factor; the FF path keeps a thin-QR factorization of the
feature matrix so that (A A^T + mu I)^{-1} only ever requires factoring the
small feature-count core R1 R1^T + mu I.

Gram blocks that sit on the same pair of point sets share their kernel
tables (``kernels.CrossTables``), so a functional set with many operators on
one lattice pays for its profile derivatives and J5 mode features once.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import features as F
from . import kernels as K
from .collocation import FunctionalSet
from .errors import LengthMismatch, NotPositiveDefinite, UnsupportedOperator


def assemble_gram(kernel: K.KernelSpec, funcs: FunctionalSet, nonlocal_modes: int = 64):
    """Symmetric bi-operator gram matrix over a functional set.

    Only the upper block triangle is evaluated; the rest is mirrored, so the
    result is exactly symmetric.  Blocks on the same pair of point sets share
    one ``kernels.CrossTables``: the profile-derivative tables and the J5
    mode features are computed once per pair, not once per block.  On the
    2D torus each J5 block is then one real GEMM over about nonlocal_modes^2
    mode features.
    """
    n = funcs.size
    out = np.empty((n, n))
    blocks = funcs.blocks
    sls = funcs.slices
    ops_on = {}  # operator tags per point set, keyed by the array's identity
    for op, pts, _ in blocks:
        ops_on.setdefault(id(pts), []).append(op)
    tables = {}
    for i, (op_i, pts_i, _) in enumerate(blocks):
        for j in range(i, len(blocks)):
            op_j, pts_j, _ = blocks[j]
            key = (id(pts_i), id(pts_j))
            if key not in tables:
                tables[key] = K.CrossTables(
                    kernel, pts_i, pts_j, ops_on[key[0]], ops_on[key[1]], nonlocal_modes
                )
            B = tables[key].op_matrix(op_i, op_j)
            if i == j:
                B = 0.5 * (B + B.T)
            out[sls[i], sls[j]] = B
            if i != j:
                out[sls[j], sls[i]] = B.T
    return out


def build_nugget(gram: np.ndarray, funcs: FunctionalSet, eta: float):
    """Diagonal of the block nugget R: each block scaled by its mean gram diagonal."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    d = np.diag(gram)
    r = np.empty(gram.shape[0])
    for sl in funcs.slices:
        r[sl] = float(np.mean(d[sl]))
    return r


@dataclass
class GramFactor:
    """Cholesky factor of the nugget-regularized gram matrix."""

    qr_seconds = 0.0  # no orthogonal factorization, unlike FeatureFactor
    regularized: np.ndarray
    chol: np.ndarray  # lower triangular
    eta: float
    block_multipliers: tuple
    assembly_seconds: float
    cholesky_seconds: float

    @property
    def size(self) -> int:
        return self.regularized.shape[0]

    def _check(self, v):
        if np.shape(v)[0] != self.size:
            raise LengthMismatch(f"vector length {np.shape(v)[0]} vs factor size {self.size}")

    def solve(self, v):
        """(Theta + eta R)^{-1} v."""
        self._check(v)
        return scipy.linalg.cho_solve((self.chol, True), v)

    def inv_quadratic_apply(self, v):
        """The inverse of the quadratic-form matrix, i.e. (Theta + eta R) v itself."""
        self._check(v)
        return self.regularized @ v

    def quadratic_form(self, v) -> float:
        self._check(v)
        y = scipy.linalg.solve_triangular(self.chol, v, lower=True)
        return float(y @ y)


def cholesky_factor(
    matrix: np.ndarray,
    eta: float = 0.0,
    block_multipliers: tuple = (),
    assembly_seconds: float = 0.0,
) -> GramFactor:
    t0 = time.perf_counter()
    try:
        L = scipy.linalg.cholesky(matrix, lower=True)
    except scipy.linalg.LinAlgError as exc:
        m = re.search(r"\d+", str(exc))
        raise NotPositiveDefinite(int(m.group()) if m else -1) from exc
    dt = time.perf_counter() - t0
    return GramFactor(
        regularized=matrix,
        chol=L,
        eta=eta,
        block_multipliers=tuple(block_multipliers),
        assembly_seconds=assembly_seconds,
        cholesky_seconds=dt,
    )


def build_gram_factor(
    kernel: K.KernelSpec, funcs: FunctionalSet, eta: float, nonlocal_modes: int = 64
) -> GramFactor:
    """Assemble, nugget-regularize and factor in one step."""
    t0 = time.perf_counter()
    gram = assemble_gram(kernel, funcs, nonlocal_modes)
    r = build_nugget(gram, funcs, eta)
    assembly = time.perf_counter() - t0
    reg = gram + np.diag(eta * r)
    mults = tuple(float(r[sl][0]) for sl in funcs.slices)
    return cholesky_factor(reg, eta=eta, block_multipliers=mults, assembly_seconds=assembly)


# ---------------------------------------------------------------------------
# feature matrices

def assemble_feature_matrix(funcs: FunctionalSet, basis: F.FeatureBasis):
    """A[i, j] = functional i applied to feature j."""
    rows = []
    for op, pts, _ in funcs.blocks:
        if pts.shape[0]:
            rows.append(F.eval_feature_op(basis, op, pts))
    if not rows:
        raise UnsupportedOperator("functional set is empty")
    return np.vstack(rows)


@dataclass
class FeatureFactor:
    """Orthogonal factorization data for applying (A A^T + mu I)^{-1}.

    Applies the ridge identity
    Q1 (S^2 + mu I)^{-1} Q1^T + (I - Q1 Q1^T)/mu with Q1, S from a thin
    orthogonal factorization of A.  The factorization is computed as a thin
    SVD rather than QR plus a Cholesky of the squared core: the squared
    matrix can be conditioned like s_max^2/mu (past 1/eps when high-order
    derivative rows are present) while the singular values themselves carry
    only ~eps s_max absolute error, so every spectral direction is inverted
    accurately.  Coefficient recovery (ridge_coefficients) works entirely
    inside the factored basis, where A^T annihilates the 1/mu complement
    term exactly.
    """

    A: np.ndarray
    mu: float
    q1: np.ndarray  # left singular vectors, (rows, k)
    sing: np.ndarray  # singular values, (k,)
    v1: np.ndarray  # right singular vectors, (cols, k)
    qr_seconds: float
    cholesky_seconds: float

    @property
    def rows(self) -> int:
        return self.A.shape[0]

    def inv_quadratic_apply(self, v):
        """(A A^T + mu I) v, the inverse of the quadratic-form matrix."""
        if np.shape(v)[0] != self.rows:
            raise LengthMismatch(f"vector length {np.shape(v)[0]} vs {self.rows} rows")
        return self.A @ (self.A.T @ v) + self.mu * v

    def quadratic_form(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.rows:
            raise LengthMismatch(f"vector length {v.shape[0]} vs {self.rows} rows")
        w = self.q1.T @ v
        core = float(np.sum(w * w / (self.sing**2 + self.mu)))
        if self.q1.shape[1] == self.rows:
            # Q1 is square orthogonal: the complement subspace is empty, and
            # forming (I - Q1 Q1^T) v numerically would amplify roundoff by 1/mu.
            return core
        perp = v - self.q1 @ w
        return core + float(perp @ perp) / self.mu


def qr_ridge_factor(A: np.ndarray, mu: float) -> FeatureFactor:
    if mu <= 0:
        raise ValueError("mu must be positive")
    A = np.asarray(A, dtype=float)
    t0 = time.perf_counter()
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    t_fact = time.perf_counter() - t0

    def build_core():
        return (Vt.T * ((s * s) + mu)) @ Vt

    build_core()  # warm pass: the large factorization above evicts the caches,
    # which would otherwise dominate this microsecond-scale stage
    t0 = time.perf_counter()
    core = build_core()  # noqa: F841 - feature-count sized, M-independent
    t_core = time.perf_counter() - t0
    return FeatureFactor(
        A=A,
        mu=mu,
        q1=U,
        sing=s,
        v1=Vt.T,
        qr_seconds=t_fact,
        cholesky_seconds=t_core,
    )


def apply_qr_inverse(f: FeatureFactor, v):
    """(A A^T + mu I)^{-1} v."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != f.rows:
        raise LengthMismatch(f"vector length {v.shape[0]} vs {f.rows} rows")
    w = f.q1.T @ v
    core = f.q1 @ (w / (f.sing**2 + f.mu))
    if f.q1.shape[1] == f.rows:
        return core
    return core + (v - f.q1 @ w) / f.mu


def ridge_coefficients(f: FeatureFactor, v):
    """A^T (A A^T + mu I)^{-1} v without the amplified complement term."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != f.rows:
        raise LengthMismatch(f"vector length {v.shape[0]} vs {f.rows} rows")
    w = f.q1.T @ v
    return f.v1 @ (w * f.sing / (f.sing**2 + f.mu))

