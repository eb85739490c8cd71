"""Positive-definite kernels and closed-form bi-operator evaluations.

Three families are supported: the 1D/2D periodic exponential-of-cosine
kernels and an anisotropic squared-exponential on a space-time strip.  All
of them are tensor products of one-dimensional profiles, so applying linear
differential operators to either argument reduces to products of profile
derivatives.  The smoothing operator (1-Laplacian)^{-2} has no closed form
on the periodic kernel; it is evaluated spectrally from the FFT of the
kernel profile.

The same FFT makes the 2D periodic kernel a finite sum of Fourier modes,
K(x, y) = sum_a c_a exp(2 pi i a.(x - y)), so a representer-form field on the
torus collapses once into one weight per mode (``mode_weights``) and every
operator applied to it is one small spectral sum (``eval_mode_weights``).
``spectral_tail_ratio`` tells whether the mode count resolves the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadGrid, DimensionMismatch, UnsupportedOperator, UnsupportedOperatorPair

# operator tags
ID = "id"
DX = "dx"
DY = "dy"
DT = "dt"
DXX = "dxx"
LAP = "lap"
J5 = "j5"

ALL_OPS = frozenset({ID, DX, DY, DT, DXX, LAP, J5})

PERIODIC_1D = "periodic1d"
PERIODIC_2D = "periodic2d"
ANISO_SE = "anisotropic_se"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus its lengthscales.

    ``lengthscales`` is (sigma,) for the periodic families and
    (sigma_space, sigma_time) for the anisotropic squared exponential.
    Anisotropic points are ordered (t, x).
    """

    family: str
    lengthscales: tuple

    def __post_init__(self):
        if self.family not in (PERIODIC_1D, PERIODIC_2D, ANISO_SE):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if any(s <= 0 for s in self.lengthscales):
            raise ValueError("lengthscales must be positive")

    @property
    def dim(self) -> int:
        return 1 if self.family == PERIODIC_1D else 2

    def axis_profiles(self):
        """Per-axis (profile kind, sigma) pairs."""
        if self.family == PERIODIC_1D:
            return (("periodic", self.lengthscales[0]),)
        if self.family == PERIODIC_2D:
            s = self.lengthscales[0]
            return (("periodic", s), ("periodic", s))
        # anisotropic: axis 0 is time (sigma_2), axis 1 is space (sigma_1)
        s_space, s_time = self.lengthscales
        return (("gauss", s_time), ("gauss", s_space))


def periodic_kernel_1d(sigma: float) -> KernelSpec:
    return KernelSpec(PERIODIC_1D, (float(sigma),))


def periodic_kernel_2d(sigma: float) -> KernelSpec:
    return KernelSpec(PERIODIC_2D, (float(sigma),))


def anisotropic_kernel(sigma_space: float, sigma_time: float) -> KernelSpec:
    return KernelSpec(ANISO_SE, (float(sigma_space), float(sigma_time)))


# ---------------------------------------------------------------------------
# profile derivatives

def _periodic_profile_derivs(r, sigma, max_order):
    """Derivatives of g(r) = exp((cos(2 pi r) - 1)/sigma^2), orders 0..max_order."""
    q = 1.0 / sigma**2
    w = 2.0 * np.pi
    c = np.cos(w * r)
    s = np.sin(w * r)
    g = np.exp(q * (c - 1.0))
    out = [g]
    if max_order >= 1:
        out.append(-q * w * s * g)
    if max_order >= 2:
        out.append(q * w**2 * (q * s**2 - c) * g)
    if max_order >= 3:
        out.append(q * w**3 * s * (1.0 + 3.0 * q * c - q**2 * s**2) * g)
    if max_order >= 4:
        out.append(
            q
            * w**4
            * (c + 3.0 * q * c**2 - 4.0 * q * s**2 - 6.0 * q**2 * s**2 * c + q**3 * s**4)
            * g
        )
    return out


def _gauss_profile_derivs(r, sigma, max_order):
    """Derivatives of f(r) = exp(-r^2/sigma^2) via the Hermite recurrence."""
    f = np.exp(-(r**2) / sigma**2)
    out = [f]
    a = 2.0 / sigma**2
    for n in range(max_order):
        prev2 = out[n - 1] if n >= 1 else 0.0
        out.append(-a * (r * out[n] + n * prev2))
    return out


def _profile_derivs(kind, r, sigma, max_order):
    if kind == "periodic":
        return _periodic_profile_derivs(r, sigma, max_order)
    return _gauss_profile_derivs(r, sigma, max_order)


# ---------------------------------------------------------------------------
# operator expansion: op -> [(coeff, per-axis derivative orders)]

def _op_terms(kernel: KernelSpec, op: str):
    fam = kernel.family
    if op not in ALL_OPS:
        raise UnsupportedOperator(f"unknown operator tag {op!r}")
    if fam == PERIODIC_1D:
        table = {ID: [(1.0, (0,))], DX: [(1.0, (1,))], DXX: [(1.0, (2,))], LAP: [(1.0, (2,))]}
    elif fam == PERIODIC_2D:
        table = {
            ID: [(1.0, (0, 0))],
            DX: [(1.0, (1, 0))],
            DY: [(1.0, (0, 1))],
            DXX: [(1.0, (2, 0))],
            LAP: [(1.0, (2, 0)), (1.0, (0, 2))],
        }
    else:  # anisotropic space-time, points ordered (t, x)
        table = {
            ID: [(1.0, (0, 0))],
            DT: [(1.0, (1, 0))],
            DX: [(1.0, (0, 1))],
            DXX: [(1.0, (0, 2))],
        }
    if op not in table:
        raise UnsupportedOperator(f"operator {op!r} unsupported for kernel family {fam!r}")
    return table[op]


def _as_points(kernel: KernelSpec, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != kernel.dim:
        raise DimensionMismatch(
            f"points have dimension {x.shape[-1]}, kernel family expects {kernel.dim}"
        )
    return x


def eval(k: KernelSpec, x, y) -> float:  # noqa: A001 - spec-level name
    """Kernel value K(x, y)."""
    return float(pairwise_matrix(k, _as_points(k, x), _as_points(k, y))[0, 0])


def pairwise_matrix(k: KernelSpec, X, Y) -> np.ndarray:
    return pairwise_op_matrix(k, ID, ID, X, Y)


def pairwise_op_matrix(k: KernelSpec, left: str, right: str, X, Y, n_modes: int = 64):
    """Matrix of (L_x (x) R_y) K(x, y) over all pairs of rows of X and Y."""
    if J5 in (left, right):
        return nonlocal_cross_matrix(k, left, right, X, Y, n_modes)
    X = _as_points(k, X)
    Y = _as_points(k, Y)
    terms_l = _op_terms(k, left)
    terms_r = _op_terms(k, right)
    profiles = k.axis_profiles()
    lags = [X[:, a][:, None] - Y[:, a][None, :] for a in range(k.dim)]
    max_orders = [0] * k.dim
    for cl, ol in terms_l:
        for cr, orr in terms_r:
            for a in range(k.dim):
                max_orders[a] = max(max_orders[a], ol[a] + orr[a])
    derivs = [
        _profile_derivs(profiles[a][0], lags[a], profiles[a][1], max_orders[a])
        for a in range(k.dim)
    ]
    out = np.zeros((X.shape[0], Y.shape[0]))
    for cl, ol in terms_l:
        for cr, orr in terms_r:
            sign = -1.0 if (sum(orr) % 2) else 1.0
            term = cl * cr * sign
            acc = np.full_like(out, term)
            for a in range(k.dim):
                acc = acc * derivs[a][ol[a] + orr[a]]
            out += acc
    return out


def eval_with_ops(k: KernelSpec, left: str, right: str, x, y) -> float:
    """Closed-form (L_x (x) R_y) K(x, y) for the supported derivative tags."""
    if J5 in (left, right):
        raise UnsupportedOperatorPair("nonlocal tag must go through eval_nonlocal")
    return float(pairwise_op_matrix(k, left, right, _as_points(k, x), _as_points(k, y))[0, 0])


# ---------------------------------------------------------------------------
# spectral evaluation of the nonlocal smoothing operator (1 - Lap)^{-2}

def _check_modes(n_modes: int):
    if n_modes < 16 or n_modes % 2 != 0:
        raise BadGrid(f"n_modes must be even and >= 16, got {n_modes}")


def _profile_coeffs_1d(sigma: float, n_modes: int):
    """Fourier coefficients of the 1D periodic profile, sampled on n_modes points."""
    g = np.arange(n_modes) / n_modes
    prof1d = np.exp((np.cos(2.0 * np.pi * g) - 1.0) / sigma**2)
    return np.fft.fft(prof1d) / n_modes


@lru_cache(maxsize=16)
def _profile_coeff_grid(sigma: float, n_modes: int):
    """Fourier coefficients of the 2D periodic kernel profile on an n x n mode grid."""
    c1 = _profile_coeffs_1d(sigma, n_modes)
    return np.outer(c1, c1)


def spectral_tail_ratio(sigma: float, n_modes: int) -> float:
    """|c_{n/2}| / max |c| of the sampled 1D profile spectrum.

    Near round-off the truncated spectrum represents the kernel; near 1 the
    spectrum has not decayed by the Nyquist mode and the coefficients are
    aliased.
    """
    _check_modes(n_modes)
    c1 = np.abs(_profile_coeffs_1d(sigma, n_modes))
    return float(c1[n_modes // 2] / np.max(c1))


def _mode_grid(n_modes: int):
    a = np.fft.fftfreq(n_modes, d=1.0 / n_modes)
    a1, a2 = np.meshgrid(a, a, indexing="ij")
    return a1, a2


def _op_mode_multiplier(op: str, a1, a2, side: str):
    """Per-mode symbol of an operator acting on exp(2 pi i a.(x - y))."""
    sgn = 1.0 if side == "left" else -1.0
    two_pi_i = 2.0j * np.pi
    if op == ID:
        return np.ones_like(a1, dtype=complex)
    if op == DX:
        return sgn * two_pi_i * a1
    if op == DY:
        return sgn * two_pi_i * a2
    if op == DXX:
        return -4.0 * np.pi**2 * a1**2 + 0.0j
    if op == LAP:
        return -4.0 * np.pi**2 * (a1**2 + a2**2) + 0.0j
    if op == J5:
        return 1.0 / (1.0 + 4.0 * np.pi**2 * (a1**2 + a2**2)) ** 2 + 0.0j
    raise UnsupportedOperator(f"operator {op!r} not supported in Fourier space")


def nonlocal_from_coeffs(coeffs, left: str, right: str, X, Y, n_modes: int):
    """Bi-operator cross matrix from explicit profile Fourier coefficients.

    Entry (i, j) is sum_a c_a mult_L(a) mult_R(a) exp(2 pi i a.(x_i - y_j)).
    """
    _check_modes(n_modes)
    a1, a2 = _mode_grid(n_modes)
    d = coeffs * _op_mode_multiplier(left, a1, a2, "left")
    d = d * _op_mode_multiplier(right, a1, a2, "right")
    modes = np.stack([a1.ravel(), a2.ravel()], axis=1)
    d = d.ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    ey = np.exp(2.0j * np.pi * (Y @ modes.T))  # (ny, n_modes^2)
    out = np.empty((X.shape[0], Y.shape[0]))
    chunk = max(1, int(2**24 // max(1, modes.shape[0])))
    for lo in range(0, X.shape[0], chunk):
        ex = np.exp(2.0j * np.pi * (X[lo : lo + chunk] @ modes.T))
        out[lo : lo + chunk] = np.real((ex * d[None, :]) @ ey.conj().T)
    return out


def nonlocal_cross_matrix(k: KernelSpec, left: str, right: str, X, Y, n_modes: int = 64):
    if k.family != PERIODIC_2D:
        raise UnsupportedOperator("nonlocal operator requires the 2D periodic kernel")
    if J5 not in (left, right):
        raise UnsupportedOperator("no nonlocal tag present; use the closed-form path")
    _check_modes(n_modes)
    coeffs = _profile_coeff_grid(k.lengthscales[0], n_modes)
    return nonlocal_from_coeffs(coeffs, left, right, _as_points(k, X), _as_points(k, Y), n_modes)


def eval_nonlocal(
    k: KernelSpec,
    left_j5: bool,
    right_j5: bool,
    x,
    y,
    n_modes: int = 64,
    left_op: str = ID,
    right_op: str = ID,
) -> float:
    """Kernel value with the smoothing operator applied on the flagged sides.

    ``left_op``/``right_op`` let a differential tag ride along on the side
    opposite to (or together with) the smoothing, as needed for gram rows.
    """
    if not (left_j5 or right_j5):
        raise UnsupportedOperator("at least one nonlocal flag must be set")
    _check_modes(n_modes)
    coeffs = _profile_coeff_grid(k.lengthscales[0], n_modes)
    a1, a2 = _mode_grid(n_modes)
    j5 = _op_mode_multiplier(J5, a1, a2, "left")
    if left_j5:
        coeffs = coeffs * j5
    if right_j5:
        coeffs = coeffs * j5
    return float(
        nonlocal_from_coeffs(coeffs, left_op, right_op, _as_points(k, x), _as_points(k, y), n_modes)[
            0, 0
        ]
    )


# ---------------------------------------------------------------------------
# torus fields as per-mode weights of the truncated kernel spectrum

def _axis_exponentials(X, n_modes: int):
    """exp(2 pi i x_d a) for each axis d, each (n_points, n_modes) in fftfreq order."""
    a = np.fft.fftfreq(n_modes, d=1.0 / n_modes)
    return [np.exp(2.0j * np.pi * np.outer(X[:, d], a)) for d in range(X.shape[1])]


def mode_weights(k: KernelSpec, funcs, coeffs, n_modes: int = 64) -> np.ndarray:
    """Per-mode weights of the field sum_i coeff_i (R_i K)(., y_i) on the 2D torus.

    W[a] = c_a sum_blocks sum_i coeff_i mult_R(tag, a) exp(-2 pi i a.y_i), with
    the c_a of ``nonlocal_cross_matrix``, so J5 is one more symbol.  ``funcs``
    is a FunctionalSet and ``coeffs`` follows its block layout.  Cost:
    n_functionals * n_modes^2.
    """
    if k.family != PERIODIC_2D:
        raise UnsupportedOperator("mode weights require the 2D periodic kernel")
    _check_modes(n_modes)
    a1, a2 = _mode_grid(n_modes)
    acc = np.zeros((n_modes, n_modes), dtype=complex)
    for (tag, pts, _), sl in zip(funcs.blocks, funcs.slices):
        if pts.shape[0] == 0:
            continue
        e1, e2 = _axis_exponentials(_as_points(k, pts), n_modes)
        # sum_i coeff_i exp(-2 pi i (a1 y_i1 + a2 y_i2)) as one n_modes x n_modes product
        acc += _op_mode_multiplier(tag, a1, a2, "right") * (
            e1.conj().T @ (coeffs[sl][:, None] * e2.conj())
        )
    return _profile_coeff_grid(k.lengthscales[0], n_modes) * acc


def eval_mode_weights(k: KernelSpec, weights: np.ndarray, op: str, X) -> np.ndarray:
    """(op f)(x) = Re sum_a mult_L(op, a) W[a] exp(2 pi i a.x) for W from ``mode_weights``.

    With per-axis exponentials E1, E2 this is rowsum((E1 @ W_op) * E2), at a
    cost of n_points * n_modes^2.
    """
    X = _as_points(k, X)
    a1, a2 = _mode_grid(weights.shape[0])
    e1, e2 = _axis_exponentials(X, weights.shape[0])
    w = _op_mode_multiplier(op, a1, a2, "left") * weights
    return np.real(np.sum((e1 @ w) * e2, axis=1))


# ---------------------------------------------------------------------------
# finite-difference oracle

def _fd_apply(f, terms, side, x, y, step):
    """Apply an expanded operator to f(x, y) by nested central differences."""

    def d_axis(g, axis, order, argno):
        if order == 0:
            return g

        def gd(xx, yy):
            e = np.zeros_like(xx) if argno == 0 else np.zeros_like(yy)
            e[axis] = step
            if argno == 0:
                return (g(xx + e, yy) - g(xx - e, yy)) / (2.0 * step)
            return (g(xx, yy + e) - g(xx, yy - e)) / (2.0 * step)

        return d_axis(gd, axis, order - 1, argno)

    argno = 0 if side == "left" else 1
    total = 0.0
    for coeff, orders in terms:
        g = f
        for axis, order in enumerate(orders):
            g = d_axis(g, axis, order, argno)
        total += coeff * g(x, y)
    return total


def finite_diff_check(k: KernelSpec, left: str, right: str, x, y, step: float) -> float:
    """Relative error of the closed form against central differences of eval.

    The nested central stencils have an error series in step^2, so one
    Richardson step (combining h and h/2) removes the leading term; this is
    what keeps high-order operator pairs accurate at moderate step sizes.
    """
    if not (0.0 < step <= 1e-2):
        raise ValueError("step must lie in (0, 1e-2]")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)

    def stencil(h):
        def fr(xx, yy):
            return _fd_apply(lambda a, b: eval(k, a, b), _op_terms(k, right), "right", xx, yy, h)

        return _fd_apply(fr, _op_terms(k, left), "left", x, y, h)

    coarse = stencil(step)
    fine = stencil(0.5 * step)
    approx = (4.0 * fine - coarse) / 3.0
    exact = eval_with_ops(k, left, right, x, y)
    scale = max(abs(exact), 1.0)
    return abs(approx - exact) / scale
