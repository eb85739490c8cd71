"""Evaluable (u, m, H-bar) fields reconstructed from a solver state.

GP fields use the representer form u(x) = K(x, phi) (Theta + eta R)^{-1} z;
FF fields are finite trigonometric sums with coefficients recovered through
the ridge least-squares map.  Both expose exact operator application, so
held-out PDE residuals use analytic derivatives rather than stencils.

Every field evaluates operators (``eval_ops``, ``eval_op`` or a call) two
ways: at scattered points, an (n, dim) array or a ``PointSet`` that keeps
the tables built on them, as for the held-out residual, and on a
``TensorGrid`` of nodes per axis, as for the export grid and the planning
mass slices.  Both field types are sums whose terms factor by
axis, so the grid path forms per-axis tables on each axis's nodes and joins
the axes with one matrix product per term:

- a GP field on the 1D or 2D torus is stored as the per-mode weights of the
  kernel's exact, truncated Fourier spectrum, computed once when the field
  is built.  At n scattered points of the 2D torus an operator costs about
  n * n_modes^2 / 2 over half the first-axis modes, n_modes being the count
  the kernel derives from its sigma, once the points' exponential tables
  (n * 1.5 n_modes) are built: a ``PointSet`` builds them on its first
  call and keeps them, so a run's u and m, at its start and at its end,
  share one set; in 1D an operator costs n_distinct * n_modes.  On a 2D
  grid it is Re(E_1 (mult W) E_2^T) from the exponentials of each axis's
  nodes (``kernels.eval_mode_weights_grid``);
- a GP field of the anisotropic space-time kernel (planning) sums the
  closed-form representer terms at every call.  At scattered points that
  goes in chunks of points, with one table per chunk and point set that
  every block on that set shares; on a grid, the kernel being a product of
  per-axis profiles, each operator term is D_t diag(c) D_x^T
  (``kernels.representer_grid``);
- an FF field folds each operator into per-frequency sin and cos weights.
  At scattered points it evaluates in chunks, so no points x features
  matrix is formed; on a 2D grid angle addition joins the per-axis sin and
  cos tables (``features.eval_feature_grid``).

A 1D grid is its nodes, evaluated as points.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import features as F
from . import kernels as K
from .collocation import FunctionalSet
from .errors import EmptyGrid
from .linsys import FeatureFactor, GramFactor, LatticeFactor, ridge_coefficients
from .optimizer import SolverState
from .problems import ProblemSpec, interior_residual_batch


# scattered evaluation points per chunk of a GP field off the torus (a tensor
# grid goes through ``kernels.representer_grid``).  A chunk's kernel tables
# are _CROSS_CHUNK x (points in the set) per derivative order and axis, 79 MB
# for planning's 1200 interior points and the 8 orders of u's operators.  On
# its 2000 held-out points with u's four operators (2-vCPU Xeon VM, one BLAS
# thread, best of 3) 256, 512, 1024 and 2048 took 0.85, 0.74, 0.67 and
# 0.62 s; 2048 would double the tables for 8% less time.  A multiple of 4,
# because a BLAS matrix-vector kernel that takes rows four at a time may sum
# the last (rows mod 4) another way; so the values do not depend on the
# chunking.
_CROSS_CHUNK = 1024


class PointSet:
    """Scattered evaluation points, an (n, dim) array, with the tables built on them.

    numpy reads it as its points, so it goes wherever points do.  A torus
    GP field evaluated at it reads its exponentials from ``mode_points``,
    built on the first such call for a mode count and kept: the u and m of
    a run, at its start and at its end, share one set of tables.
    """

    def __init__(self, points):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self._mode_points = {}

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)

    def mode_points(self, n_modes: int) -> K.ModePoints:
        if n_modes not in self._mode_points:
            self._mode_points[n_modes] = K.mode_points(self.points, n_modes)
        return self._mode_points[n_modes]


@dataclass(frozen=True)
class TensorGrid:
    """The tensor product of one array of nodes per axis.

    Its points are ``np.meshgrid(*nodes, indexing="ij")`` raveled, the
    first axis slowest; a field evaluated on it returns its values in that
    order.
    """

    nodes: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(np.asarray(x, dtype=float) for x in self.nodes))

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.nodes, indexing="ij")
        return np.stack([a.ravel() for a in mesh], axis=1)


@dataclass(frozen=True)
class GpField:
    """Representer-form field: sum_i c_i (R_i K)(x, y_i).

    On the torus the sum is collapsed into per-mode weights once, when the
    field is built; the anisotropic kernel evaluates the sum in closed form
    on every call, at scattered points ``_CROSS_CHUNK`` points at a time.
    """

    coeffs: np.ndarray
    funcs: FunctionalSet
    kernel: K.KernelSpec
    weights: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kernel.periodic:
            w = K.mode_weights(self.kernel, self.funcs, self.coeffs)
            object.__setattr__(self, "weights", w)

    def eval_ops(self, ops, X) -> np.ndarray:
        """One column per operator in ``ops``, at the points X or on a ``TensorGrid``.

        On the torus the exponential tables of a ``PointSet`` are built
        once and reused.  Off the torus, points go in chunks, with one
        table per chunk and point set.
        """
        if isinstance(X, TensorGrid):
            if self.weights is not None:
                return K.eval_mode_weights_grid(self.kernel, self.weights, ops, X.nodes)
            return K.representer_grid(self.kernel, self.funcs, self.coeffs, ops, X.nodes)
        if self.weights is not None:
            if isinstance(X, PointSet):
                X = X.mode_points(self.kernel.n_modes)
            return K.eval_mode_weights(self.kernel, self.weights, ops, X)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros((X.shape[0], len(ops)))
        sets = self.funcs.point_sets
        for lo in range(0, X.shape[0], _CROSS_CHUNK):
            rows = slice(lo, lo + _CROSS_CHUNK)
            for pts, blocks in sets:
                if pts.shape[0] == 0:
                    continue
                tables = K.CrossTables(self.kernel, X[rows], pts, ops, [tag for tag, _ in blocks])
                for tag, sl in blocks:
                    for j, op in enumerate(ops):
                        out[rows, j] += tables.op_matrix(op, tag) @ self.coeffs[sl]
        return out

    def eval_op(self, op: str, X) -> np.ndarray:
        return self.eval_ops((op,), X)[:, 0]

    def __call__(self, X) -> np.ndarray:
        return self.eval_op(K.ID, X)


@dataclass(frozen=True)
class FfField:
    """Finite feature expansion alpha^T zeta(x)."""

    coeffs: np.ndarray
    basis: F.FeatureBasis

    def eval_ops(self, ops, X) -> np.ndarray:
        """One column per operator in ``ops``: one GEMM per chunk of the points X,
        or per operator on a ``TensorGrid`` (angle addition in 2D)."""
        if isinstance(X, TensorGrid):
            return F.eval_feature_grid(self.basis, self.coeffs, ops, X.nodes)
        return F.eval_feature_sum(self.basis, self.coeffs, ops, X)

    def eval_op(self, op: str, X) -> np.ndarray:
        return self.eval_ops((op,), X)[:, 0]

    def __call__(self, X) -> np.ndarray:
        return self.eval_op(K.ID, X)


def gp_reconstruct(
    state: SolverState,
    factor_u: GramFactor | LatticeFactor,
    factor_m: GramFactor | LatticeFactor,
    kernel: K.KernelSpec,
    phi: FunctionalSet,
    psi: FunctionalSet,
):
    u = GpField(factor_u.solve(state.z), phi, kernel)
    m = GpField(factor_m.solve(state.rho), psi, kernel)
    return u, m, state.lam


def ff_reconstruct(
    state: SolverState,
    factor_u: FeatureFactor,
    factor_m: FeatureFactor,
    basis_u: F.FeatureBasis,
    basis_m: F.FeatureBasis,
):
    alpha = ridge_coefficients(factor_u, state.z)
    beta = ridge_coefficients(factor_m, state.rho)
    return FfField(alpha, basis_u), FfField(beta, basis_m), state.lam


def linf_error(values, reference, grid) -> float:
    """Sup-norm gap between field values on a grid and ``reference`` there."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise EmptyGrid("evaluation grid is empty")
    fv = np.asarray(values, dtype=float)
    rv = np.asarray(reference(grid), dtype=float)
    return float(np.max(np.abs(fv - rv)))


HELD_OUT_COUNT = 2000  # the held-out points of every run's residual report


def held_out_points(
    spec: ProblemSpec, n: int = HELD_OUT_COUNT, seed: int = 987654321
) -> np.ndarray:
    """Seed-fixed uniform points on the spec's domain, disjoint (a.s.) from any training lattice."""
    lo, hi = np.array(spec.domain, dtype=float).T
    return lo + np.random.default_rng(seed).random((n, spec.dim)) * (hi - lo)


def pde_residual_norm(u_field, m_field, lam, spec: ProblemSpec, test_points) -> float:
    """RMS over test points of the interior residual vector norm.

    ``test_points`` is an array or a ``PointSet``, whose tables u and m
    share, as do the calls given the same one.
    """
    X = test_points if isinstance(test_points, PointSet) else PointSet(test_points)
    U = u_field.eval_ops(spec.u_operators, X)
    M = m_field.eval_ops(spec.m_operators, X)
    R, _, _, _ = interior_residual_batch(spec, X.points, U, M, lam or 0.0)
    return float(np.sqrt(np.mean(np.sum(R**2, axis=1))))


def mass_trace(m_field, t_values, x_nodes) -> list:
    """Trapezoid integral of the density in x at each requested time.

    The slices are one ``TensorGrid`` of ``t_values`` and ``x_nodes``,
    which the field evaluates at once.
    """
    grid = TensorGrid((t_values, x_nodes))
    t_values, x_nodes = grid.nodes
    m = np.reshape(m_field(grid), (t_values.size, x_nodes.size))
    return [float(np.trapezoid(row, x_nodes)) for row in m]


@dataclass
class ErrorReport:
    """Error metrics; reference-based entries are None when no closed form exists."""

    linf_u: float | None
    linf_m: float | None
    err_hbar: float | None
    residual_l2: float
    mass_error: float
    grid: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)
