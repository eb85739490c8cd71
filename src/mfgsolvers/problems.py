"""The three mean field game instances and the 1D closed-form solution.

Each instance is one ``ProblemSpec``: its domain, ordered operator lists for
the value function u and the density m, and its own residual functions
coupling the operator values, which also give their Jacobians in the
operator values for the Gauss-Newton linearization.  A new problem is one
residual function and ``make_*`` constructor here plus one entry in
``pipeline.PROBLEMS``.

Residuals come in point groups: interior points carry two rows each (HJB,
Fokker-Planck) over ``u_operators`` and ``m_operators``, and boundary points,
on the planning problem's time slices, one row each (the pinned density)
over ``m_boundary_operators``.  Both kinds of residual function take
``(spec, X, U, M, lam, out)``; the torus specs have no boundary function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import kernels as K
from .errors import ArityMismatch, NonZeroMeanDrift, NotOnBoundary

MFG_1D = "mfg1d"
NONLOCAL_2D = "nonlocal2d"
PLANNING = "planning"

# planning-problem constants: density pinned to Gaussians at the two time
# slices, weak local interaction in the running cost
PLANNING_INTERACTION = 0.01
GAUSSIAN_WIDTH = 0.1
INITIAL_CENTER = 0.5
TERMINAL_CENTER = -0.5
SPACE_HALF_WIDTH = 2.0
# residual rows per point of the interior and boundary point groups
INTERIOR_ROWS, BOUNDARY_ROWS = 2, 1


def gaussian_density(x, center, width=GAUSSIAN_WIDTH):
    x = np.asarray(x, dtype=float)
    return np.exp(-((x - center) ** 2) / (2.0 * width**2)) / (width * np.sqrt(2.0 * np.pi))


# ---------------------------------------------------------------------------
# residuals with analytic Jacobians, one function per problem and point
# group; each fills the zeroed arrays of its batch function

def _mfg1d_residual(V, b, b_x, spec, X, U, M, lam, out):
    R, dU, dM, dlam = out
    xs = X[:, 0]
    Vv = np.asarray(V(xs), dtype=float)
    bv = np.asarray(b(xs), dtype=float)
    bxv = np.asarray(b_x(xs), dtype=float)
    z2, z3 = U[:, 1], U[:, 2]
    rho1, rho2 = M[:, 0], M[:, 1]
    expo = np.exp(Vv + 0.5 * z2**2 + bv * z2 - lam)
    R[:, 0] = expo - rho1
    dU[:, 0, 1] = (z2 + bv) * expo
    dM[:, 0, 0] = -1.0
    dlam[:, 0] = -expo
    R[:, 1] = rho2 * (z2 + bv) + rho1 * (z3 + bxv)
    dU[:, 1, 1] = rho2
    dU[:, 1, 2] = rho1
    dM[:, 1, 0] = z3 + bxv
    dM[:, 1, 1] = z2 + bv


def _nonlocal2d_residual(spec, X, U, M, lam, out):
    R, dU, dM, dlam = out
    nu = spec.nu
    z2, z3, z4 = U[:, 1], U[:, 2], U[:, 3]
    rho1, rho2, rho3, rho4, rho5 = (M[:, j] for j in range(5))
    pot = (
        np.sin(2.0 * np.pi * X[:, 0])
        + np.sin(2.0 * np.pi * X[:, 1])
        + np.cos(4.0 * np.pi * X[:, 0])
    )
    R[:, 0] = -nu * z4 + pot + z2**2 + z3**2 - rho5 - lam
    dU[:, 0, 1] = 2.0 * z2
    dU[:, 0, 2] = 2.0 * z3
    dU[:, 0, 3] = -nu
    dM[:, 0, 4] = -1.0
    dlam[:, 0] = -1.0
    R[:, 1] = -nu * rho4 - 2.0 * (rho2 * z2 + rho3 * z3 + rho1 * z4)
    dU[:, 1, 1] = -2.0 * rho2
    dU[:, 1, 2] = -2.0 * rho3
    dU[:, 1, 3] = -2.0 * rho1
    dM[:, 1, 0] = -2.0 * z4
    dM[:, 1, 1] = -2.0 * z2
    dM[:, 1, 2] = -2.0 * z3
    dM[:, 1, 3] = -nu


def _planning_residual(spec, X, U, M, lam, out):
    R, dU, dM, _ = out
    z2, z3, z4 = U[:, 1], U[:, 2], U[:, 3]
    rho1, rho2, rho3 = M[:, 0], M[:, 1], M[:, 2]
    R[:, 0] = -z2 + 0.5 * z3**2 - PLANNING_INTERACTION * rho1
    dU[:, 0, 1] = -1.0
    dU[:, 0, 2] = z3
    dM[:, 0, 0] = -PLANNING_INTERACTION
    R[:, 1] = rho3 - rho2 * z3 - rho1 * z4
    dU[:, 1, 2] = -rho2
    dU[:, 1, 3] = -rho1
    dM[:, 1, 0] = -z4
    dM[:, 1, 1] = -z3
    dM[:, 1, 2] = 1.0


def _pinned_density_boundary(spec, X, U, M, lam, out):
    """The density equals the initial and terminal Gaussians on t=0 and t=1."""
    R, _, dM, _ = out
    t, x = X[:, 0], X[:, 1]
    on0 = np.abs(t) < 1e-12
    on1 = np.abs(t - 1.0) < 1e-12
    if not np.all(on0 | on1):
        raise NotOnBoundary("points must lie on the t=0 or t=1 slice")
    target = np.where(on0, gaussian_density(x, INITIAL_CENTER), gaussian_density(x, TERMINAL_CENTER))
    R[:, 0] = M[:, 0] - target
    dM[:, 0, 0] = 1.0


@dataclass(frozen=True)
class ProblemSpec:
    """A MFG instance: operator lists plus the pointwise residual coupling."""

    kind: str
    domain: tuple  # (low, high) along each axis
    u_operators: tuple
    m_operators: tuple
    interior: Callable  # residual function, called by interior_residual_batch
    boundary: Callable | None = None  # called by boundary_residual_batch
    m_boundary_operators: tuple = ()
    has_ergodic_constant: bool = False
    normalize_u: bool = False
    normalize_m: bool = False
    density_mean: float = 1.0  # target for the mean-density normalization row
    nu: float = 0.0

    @property
    def dim(self) -> int:
        return len(self.domain)


def make_1d_stationary(V, b, b_x=None) -> ProblemSpec:
    """Stationary MFG on the 1D torus with Hamiltonian V + p^2/2 + b p."""
    return ProblemSpec(
        kind=MFG_1D,
        domain=((0.0, 1.0),),
        u_operators=(K.ID, K.DX, K.DXX),
        m_operators=(K.ID, K.DX),
        interior=partial(_mfg1d_residual, V, b, b_x),
        has_ergodic_constant=True,
        normalize_u=True,
        normalize_m=True,
    )


def make_nonlocal_2d(nu: float) -> ProblemSpec:
    """Stationary MFG on the 2D torus coupled through (1 - Lap)^{-2} m."""
    return ProblemSpec(
        kind=NONLOCAL_2D,
        domain=((0.0, 1.0), (0.0, 1.0)),
        u_operators=(K.ID, K.DX, K.DY, K.LAP),
        m_operators=(K.ID, K.DX, K.DY, K.LAP, K.J5),
        interior=_nonlocal2d_residual,
        has_ergodic_constant=True,
        normalize_u=True,
        normalize_m=True,
        nu=float(nu),
    )


def make_planning() -> ProblemSpec:
    """Time-dependent planning problem: density pinned at t=0 and t=1."""
    return ProblemSpec(
        kind=PLANNING,
        domain=((0.0, 1.0), (-SPACE_HALF_WIDTH, SPACE_HALF_WIDTH)),
        u_operators=(K.ID, K.DT, K.DX, K.DXX),
        m_operators=(K.ID, K.DX, K.DT),
        interior=_planning_residual,
        boundary=_pinned_density_boundary,
        m_boundary_operators=(K.ID,),
        normalize_m=True,
        # each time slice integrates to one, so the space-time average of the
        # density equals 1 / (spatial extent)
        density_mean=1.0 / (2.0 * SPACE_HALF_WIDTH),
    )


# ---------------------------------------------------------------------------
# batched residuals

def _residual_batch(spec, residual, rows, u_operators, m_operators, X, U, M, lam):
    """Residuals and Jacobians of one point group, ``rows`` residual rows per point.

    X is (n, dim), U is (n, Q) and M is (n, D) with Q and D the operator
    counts.  Returns (R, dU, dM, dlam) with shapes (n, rows), (n, rows, Q),
    (n, rows, D), (n, rows).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    U = np.atleast_2d(np.asarray(U, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    n = X.shape[0]
    if U.shape[1] != len(u_operators) or M.shape[1] != len(m_operators):
        raise ArityMismatch(
            f"value shapes {U.shape[1]}/{M.shape[1]} do not match operator "
            f"counts {len(u_operators)}/{len(m_operators)}"
        )
    q, d = U.shape[1], M.shape[1]
    out = np.zeros((n, rows)), np.zeros((n, rows, q)), np.zeros((n, rows, d)), np.zeros((n, rows))
    residual(spec, X, U, M, lam, out)
    return out


def interior_residual_batch(spec: ProblemSpec, X, U, M, lam: float):
    """The HJB and Fokker-Planck rows, 2 per point, over u_operators and m_operators."""
    return _residual_batch(
        spec, spec.interior, INTERIOR_ROWS, spec.u_operators, spec.m_operators, X, U, M, lam
    )


def boundary_residual_batch(spec: ProblemSpec, X, U, M, lam: float):
    """The boundary rows, 1 per point, over no u-operator and m_boundary_operators.

    A spec without a boundary function (every torus problem) raises
    ``NotOnBoundary`` naming its kind.
    """
    if spec.boundary is None:
        raise NotOnBoundary(f"problem {spec.kind!r} has no boundary residual")
    return _residual_batch(
        spec, spec.boundary, BOUNDARY_ROWS, (), spec.m_boundary_operators, X, U, M, lam
    )


# ---------------------------------------------------------------------------
# closed-form solution of the 1D problem

@dataclass(frozen=True)
class ExplicitSolution:
    """u*, m*, H-bar* of the 1D stationary problem with zero-mean drift."""

    u_star: Callable
    m_star: Callable
    h_bar_star: float
    u_x_star: Callable = field(repr=False, default=None)


def explicit_solution_1d(V, b, quad_nodes: int = 4096) -> ExplicitSolution:
    """Closed-form (u*, m*, H-bar*) via spectral antiderivative of the drift.

    u*(x) = -int_0^x b plus the constant making it mean-zero, computed from
    the Fourier series of b; m* = exp(V - b^2/2)/Z; H-bar* = ln Z.  All
    quadrature is the composite trapezoid rule on quad_nodes uniform points,
    which is spectrally accurate for smooth periodic integrands.
    """
    if quad_nodes < 16:
        raise ValueError("quad_nodes too small")
    grid = np.arange(quad_nodes) / quad_nodes
    bv = np.asarray(b(grid), dtype=float) + np.zeros(quad_nodes)
    mean_b = float(np.mean(bv))
    if abs(mean_b) > 1e-8:
        raise NonZeroMeanDrift(f"drift has mean {mean_b:.3e}; closed form invalid")

    bh = np.fft.rfft(bv) / quad_nodes
    ks = np.arange(1, quad_nodes // 2)  # drop mean and Nyquist
    anti = bh[1 : quad_nodes // 2] / (2.0j * np.pi * ks)
    # the modes below round-off of the largest add nothing to u* but their cost
    keep = np.abs(anti) > np.finfo(float).eps * np.max(np.abs(anti), initial=0.0)
    ks, anti = ks[keep], anti[keep]

    def u_star(x):
        x = np.asarray(x, dtype=float)
        phases = np.exp(2.0j * np.pi * np.multiply.outer(x, ks))
        return -2.0 * np.real(phases @ anti)

    def u_x_star(x):
        return -np.asarray(b(np.asarray(x, dtype=float)), dtype=float)

    dens = np.exp(np.asarray(V(grid), dtype=float) - 0.5 * bv**2)
    Z = float(np.mean(dens))
    h_bar = float(np.log(Z))

    def m_star(x):
        x = np.asarray(x, dtype=float)
        return np.exp(np.asarray(V(x), dtype=float) - 0.5 * np.asarray(b(x), dtype=float) ** 2) / Z

    return ExplicitSolution(u_star=u_star, m_star=m_star, h_bar_star=h_bar, u_x_star=u_x_star)
