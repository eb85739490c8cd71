"""Positive-definite kernels and closed-form bi-operator evaluations.

Three families are supported: the 1D/2D periodic exponential-of-cosine
kernels and an anisotropic squared-exponential on a space-time strip.  All
of them are tensor products of one-dimensional profiles, so applying linear
differential operators to either argument reduces to products of profile
derivatives.  The smoothing operator (1-Laplacian)^{-2} has no closed form
on the periodic kernel; it is evaluated through the kernel's spectrum.

The periodic profile's Fourier coefficients are known exactly,
c_a = exp(-q) I_|a|(q) with q = 1/sigma^2 (``_profile_coeffs_1d``), so on
the torus K(x, y) = sum_a c_a exp(2 pi i a.(x - y)) up to a truncation that
``spectral_tail_ratio`` measures.  A periodic kernel keeps the modes its
sigma needs: ``KernelSpec.n_modes`` is the smallest even count whose weighted
tail is below ``SPECTRAL_TAIL_TOL`` (40, 46 and 60 modes per axis at sigma
0.6, 0.5 and 0.35).  Four things are built on the spectrum:

- a representer-form field on the 1D or 2D torus collapses once into one
  weight per mode (``mode_weights``, on the exponentials exp(2 pi i a x_d)
  of each axis's distinct coordinates, ``_axis_exponentials``), and every
  operator applied to it is one small spectral sum (``eval_mode_weights``).
  At scattered points the sum reads the points' exponential tables, built
  once (``mode_points``) and shared by every field, operator and call that
  is given them; in 2D it runs over half the first-axis modes, a_1 folded
  with -a_1 (``_fold_first_axis``).  On a tensor grid given by its nodes
  per axis the sum is one real GEMM per operator (``eval_mode_weights_grid``);
- real half-mode features F_a(X), one table per point set and per operator
  its symbols (``half_mode_features``): F_a(X) F_b(Y)^T is a J5 gram block
  on scattered points, and on a full torus lattice the gram is F F^T;
- the gram of a full torus lattice per lattice frequency, the spectrum
  under both symbols folded onto the lattice (``lattice_spectrum``);
- ``nonlocal_from_coeffs`` sums the series directly, 1D or 2D: the oracle.

All of them, and the Fourier-feature bases of ``features``, read what an
operator does to a Fourier mode from ``op_symbol``, which derives it from
``OP_ORDERS``.

``CrossTables`` holds what the blocks on one pair of scattered point sets
share: each axis indexed by its distinct coordinates, the
profile-derivative tables built on those and gathered to the block, and
the half-mode tables of J5.
``representer_grid`` builds the same per-axis tables between a tensor
grid's nodes and a point set, and evaluates a field of a product kernel
with one GEMM per operator term.
"""

from __future__ import annotations

import math
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

# largest Nyquist-to-peak ratio of the weighted spectrum (spectral_tail_ratio)
# that a periodic kernel's mode count leaves.  Every torus GP field and
# lattice gram is built on the truncated spectrum, so this also bounds a
# lattice gram's distance from the closed form (``CrossTables``): at most
# 1.5e-13 of a block's largest entry, on mfg1d_gp's dxx-dxx block
SPECTRAL_TAIL_TOL = 1e-12
# most modes per axis a periodic kernel takes: the count near sigma 5e-4, at
# which a 1D run's mode tables on its 2000 held-out points reach about 1 GiB
MAX_MODES = 2**15

PERIODIC_1D = "periodic1d"
PERIODIC_2D = "periodic2d"
ANISO_SE = "anisotropic_se"

# the axes of each family's points in coordinate order: (name, profile kind,
# index of its lengthscale)
FAMILY_AXES = {
    PERIODIC_1D: (("x", "periodic", 0),),
    PERIODIC_2D: (("x", "periodic", 0), ("y", "periodic", 0)),
    ANISO_SE: (("t", "gauss", 1), ("x", "gauss", 0)),
}

# each differential operator as a sum of terms, each the derivative orders
# along the axes it names.  On given axes a term naming an absent axis is
# dropped, so lap is dxx on ("x",) and on ("t", "x"); an operator with no
# term left is unsupported there.
OP_ORDERS = {
    ID: ({},), DX: ({"x": 1},), DY: ({"y": 1},), DT: ({"t": 1},),
    DXX: ({"x": 2},), LAP: ({"x": 2}, {"y": 2}),
}
# J5, the smoothing operator (1 - Lap)^{-2}, has no terms: it acts on a
# Fourier mode by a divisor alone (``op_symbol``)
ALL_OPS = frozenset(OP_ORDERS) | {J5}


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
        if self.family not in FAMILY_AXES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if any(s <= 0 for s in self.lengthscales):
            raise ValueError("lengthscales must be positive")

    @property
    def axes(self) -> tuple:
        return tuple(name for name, _, _ in FAMILY_AXES[self.family])

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def periodic(self) -> bool:
        """A kernel on the torus, whose spectrum is a Fourier series."""
        return self.family in (PERIODIC_1D, PERIODIC_2D)

    def axis_profiles(self):
        """Per-axis (profile kind, sigma) pairs."""
        return tuple((kind, self.lengthscales[i]) for _, kind, i in FAMILY_AXES[self.family])

    @property
    def n_modes(self) -> int:
        """Modes per axis of a periodic kernel's truncated spectrum (``_mode_count``)."""
        if not self.periodic:
            raise UnsupportedOperator("only a periodic kernel has a Fourier spectrum")
        return _mode_count(self.lengthscales[0])


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


_PROFILE_DERIVS = {"periodic": _periodic_profile_derivs, "gauss": _gauss_profile_derivs}


# ---------------------------------------------------------------------------
# operator expansion: op -> [per-axis derivative orders]

def op_terms(axes, op: str):
    """The terms of ``op`` on the named axes, each a tuple of per-axis orders."""
    if op not in ALL_OPS:
        raise UnsupportedOperator(f"unknown operator tag {op!r}")
    terms = [tuple(t.get(a, 0) for a in axes) for t in OP_ORDERS.get(op, ()) if set(t) <= set(axes)]
    if not terms:
        raise UnsupportedOperator(f"operator {op!r} unsupported on axes {axes}")
    return terms


def op_symbol(axes, op: str, omega, scale=1.0):
    """What ``op`` does to the Fourier mode exp(i w.x), w = scale * omega: (order, mult, div).

    ``op`` multiplies the mode by i^order mult / div.  A derivative has the
    total order of its ``OP_ORDERS`` terms (all of one operator share it),
    mult = sum_terms prod_a w_a^k_a and div 1; J5 has order 0, mult 1 and
    div (1 + |w|^2)^2.  ``omega`` is (..., len(axes)).  The monomials are
    raised on omega before the scale multiplies them, so integer torus
    modes with scale 2 pi give exact powers of the mode numbers.
    """
    omega = np.asarray(omega, dtype=float)
    if op == J5:
        return 0, 1.0, (1.0 + scale**2 * np.sum(omega**2, axis=-1)) ** 2
    terms = op_terms(axes, op)
    order = sum(terms[0])
    mult = sum(math.prod(omega[..., a] ** k for a, k in enumerate(t) if k) for t in terms)
    return order, scale**order * mult, 1.0


def _as_points(kernel: KernelSpec, x):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != kernel.dim:
        raise DimensionMismatch(
            f"points have dimension {x.shape[-1]}, kernel family expects {kernel.dim}"
        )
    return x


def _distinct_axes(X):
    """Per axis d: the distinct coordinates u of X[:, d] and the index with u[index] = X[:, d]."""
    out = []
    for d in range(X.shape[1]):
        u, index = np.unique(X[:, d], return_inverse=True)
        out.append((u, index.reshape(-1)))
    return out


def _top_orders(k: KernelSpec, ops):
    """The highest derivative order per axis among the terms of ``ops`` (J5 has none)."""
    orders = [o for op in ops if op != J5 for o in op_terms(k.axes, op)]
    return [max((o[a] for o in orders), default=0) for a in range(k.dim)]


def _profile_tables(k: KernelSpec, xs, ys, top_l, top_r):
    """Per axis a: the profile derivatives, orders 0..top_l[a] + top_r[a], on xs[a] - ys[a].

    ``xs`` and ``ys`` hold one array of coordinates per axis, such as the
    distinct ones of a point set.
    """
    return [
        _PROFILE_DERIVS[kind](ux[:, None] - uy[None, :], s, tl + tr)
        for (kind, s), ux, uy, tl, tr in zip(k.axis_profiles(), xs, ys, top_l, top_r)
    ]


def eval(k: KernelSpec, x, y) -> float:  # noqa: A001 - spec-level name
    """Kernel value K(x, y)."""
    return float(pairwise_matrix(k, _as_points(k, x), _as_points(k, y))[0, 0])


def pairwise_matrix(k: KernelSpec, X, Y) -> np.ndarray:
    return pairwise_op_matrix(k, ID, ID, X, Y)


def pairwise_op_matrix(k: KernelSpec, left: str, right: str, X, Y):
    """Matrix of (L_x (x) R_y) K(x, y) over all pairs of rows of X and Y.

    J5 on either side needs the 2D periodic kernel, whose blocks
    ``CrossTables`` builds from half-mode features; ``nonlocal_from_coeffs``
    is the direct sum they replace.
    """
    return CrossTables(k, X, Y, (left,), (right,)).op_matrix(left, right)


class CrossTables:
    """Tables shared by the bi-operator matrices of one pair of point sets.

    ``left_ops`` and ``right_ops`` list the operators that will be applied
    on each side.  Each axis of X and of Y is indexed by its distinct
    coordinates (``_distinct_axes``, once in all when X is Y), and every
    table is built on those and gathered to the block:

    - the profile derivatives of each axis, on first use, on the differences
      of its distinct coordinates, up to the highest order any pair of
      operators needs, each gathered to n_X x n_Y once; its entries are the
      floats the point-by-point differences give.  ``op_matrix`` then costs
      one product of tables per term;
    - the half-mode tables of X and of Y for the J5 blocks of the 2D
      periodic kernel: a block is one real GEMM of n_X x n_Y x n^2 over
      the two operators' features (``half_mode_features``).
    """

    def __init__(self, k: KernelSpec, X, Y, left_ops, right_ops):
        self.kernel = k
        self.same = X is Y
        self.X = _as_points(k, X)
        self.Y = self.X if self.same else _as_points(k, Y)
        self.left_ops = tuple(left_ops)
        self.right_ops = tuple(right_ops)
        self.axes_x = _distinct_axes(self.X)
        self.axes_y = self.axes_x if self.same else _distinct_axes(self.Y)
        self._derivs = None
        self._mode_tables = None

    def op_matrix(self, left: str, right: str) -> np.ndarray:
        if J5 in (left, right):
            return self._nonlocal(left, right)
        terms_l = op_terms(self.kernel.axes, left)
        terms_r = op_terms(self.kernel.axes, right)
        derivs = self._derivatives()
        out = np.zeros((self.X.shape[0], self.Y.shape[0]))
        for ol in terms_l:
            for orr in terms_r:
                sign = -1.0 if (sum(orr) % 2) else 1.0
                acc = sign * derivs[0][ol[0] + orr[0]]
                for a in range(1, self.kernel.dim):
                    acc *= derivs[a][ol[a] + orr[a]]
                out += acc
        return out

    def _derivatives(self):
        if self._derivs is None:
            k = self.kernel
            tables = _profile_tables(
                k,
                [u for u, _ in self.axes_x],
                [u for u, _ in self.axes_y],
                _top_orders(k, self.left_ops),
                _top_orders(k, self.right_ops),
            )
            self._derivs = [
                [t[ix][:, iy] for t in axis_tables]
                for axis_tables, (_, ix), (_, iy) in zip(tables, self.axes_x, self.axes_y)
            ]
        return self._derivs

    def _nonlocal(self, left: str, right: str) -> np.ndarray:
        k = self.kernel
        if k.family != PERIODIC_2D:
            raise UnsupportedOperator("nonlocal operator requires the 2D periodic kernel")
        if self._mode_tables is None:
            tx = half_mode_table(k, self.X)
            self._mode_tables = (tx, tx if self.same else half_mode_table(k, self.Y))
        tx, ty = self._mode_tables
        out = np.zeros((tx.shape[0], ty.shape[0]))
        for lo in range(0, tx.shape[1], _MODE_CHUNK):
            cx, cy = tx[:, lo : lo + _MODE_CHUNK], ty[:, lo : lo + _MODE_CHUNK]
            out += half_mode_features(k, left, cx, lo) @ half_mode_features(k, right, cy, lo).T
        return out


def representer_grid(k: KernelSpec, funcs, coeffs, ops, nodes) -> np.ndarray:
    """Each of ``ops`` on the field sum_i coeffs_i (R_i K)(., y_i) over a tensor grid of two axes.

    ``nodes`` holds one float array of nodes per axis, and rows follow
    ``np.meshgrid(*nodes, indexing="ij")`` raveled.  The kernel is the
    product of its axes' profiles, so a term of ``op`` with orders
    (o_1, o_2) and one of a block's operator with (i_1, i_2) add
    sign D_1 diag(c) D_2^T to the grid: D_a is the profile derivative of
    order o_a + i_a between axis a's nodes and the block's coordinates, and
    sign is (-1)^(i_1 + i_2), as in ``CrossTables.op_matrix``.  That is one
    GEMM per term.  A point set's tables are built once, over its distinct
    coordinates (``_profile_tables``), and every block on it gathers them.
    ``funcs`` is a FunctionalSet and ``coeffs`` follows its block layout.
    """
    if len(nodes) != 2 or k.dim != 2:
        raise DimensionMismatch(f"a grid of {len(nodes)} axes on a kernel of dimension {k.dim}")
    out = np.zeros((len(ops), nodes[0].size, nodes[1].size))
    for pts, blocks in funcs.point_sets:
        if pts.shape[0] == 0:
            continue
        axes = _distinct_axes(_as_points(k, pts))
        top_grid, top_pts = _top_orders(k, ops), _top_orders(k, [tag for tag, _ in blocks])
        d1, d2 = _profile_tables(k, nodes, [u for u, _ in axes], top_grid, top_pts)
        i1, i2 = (index for _, index in axes)
        for tag, sl in blocks:
            c = coeffs[sl]
            for j, op in enumerate(ops):
                for ol in op_terms(k.axes, op):
                    for orr in op_terms(k.axes, tag):
                        sign = -1.0 if (sum(orr) % 2) else 1.0
                        left = d1[ol[0] + orr[0]][:, i1] * (sign * c)
                        out[j] += left @ d2[ol[1] + orr[1]][:, i2].T
    return out.reshape(len(ops), -1).T


def eval_with_ops(k: KernelSpec, left: str, right: str, x, y) -> float:
    """Closed-form (L_x (x) R_y) K(x, y) for the supported derivative tags."""
    if J5 in (left, right):
        raise UnsupportedOperatorPair("nonlocal tag must go through pairwise_op_matrix")
    return float(pairwise_op_matrix(k, left, right, _as_points(k, x), _as_points(k, y))[0, 0])


# ---------------------------------------------------------------------------
# the exact Fourier spectrum of the periodic kernels

def _check_modes(n_modes: int):
    if n_modes < 16 or n_modes % 2 != 0:
        raise BadGrid(f"n_modes must be even and >= 16, got {n_modes}")


@lru_cache(maxsize=16)
def _profile_coeffs_1d(sigma: float, n_modes: int):
    """Exact Fourier coefficients of the 1D periodic profile, in fftfreq order.

    g(r) = exp(q (cos(2 pi r) - 1)), q = 1/sigma^2, has c_a = exp(-q) I_|a|(q).
    Miller's backward recurrence gives the ratios r_k = I_k(q) / I_{k-1}(q)
    from I_{k-1} = I_{k+1} + (2k/q) I_k, started at r = 0 far past the last
    mode kept, and sum_a c_a = g(0) = 1 fixes the scale.  Every c_a is then
    accurate relative to itself, down to the smallest; an FFT of the sampled
    profile levels off near 1e-17, which derivative symbols up to
    (pi n_modes)^4 amplify.
    """
    q = 1.0 / sigma**2
    half = n_modes // 2
    if q > half**2:
        raise BadGrid(f"sigma={sigma} is narrower than {n_modes} modes resolve")
    # the spectrum falls like exp(-k^2 / 2q) or faster, so starting 10 sqrt(q)
    # modes past the last one kept leaves no trace of the start in what is kept
    top = half + 20 + math.ceil(10.0 * math.sqrt(q))
    ratios = np.empty(top)
    r = 0.0
    for k in range(top, 0, -1):
        r = q / (2.0 * k + q * r)
        ratios[k - 1] = r
    rel = np.cumprod(ratios)  # I_k / I_0 for k = 1..top
    c = np.concatenate(([1.0], rel[:half])) / (1.0 + 2.0 * np.sum(rel))
    out = c[np.abs(_mode_axis(n_modes)).astype(int)]
    out.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def _profile_coeff_grid(sigma: float, n_modes: int):
    """Fourier coefficients of the 2D periodic kernel profile on an n x n mode grid."""
    c1 = _profile_coeffs_1d(sigma, n_modes)
    return np.outer(c1, c1)


def spectral_tail_ratio(sigma: float, n_modes: int) -> float:
    """How far the truncated spectrum is from resolving the kernel.

    The ratio of c_a (2 pi a)^4 at the Nyquist mode a = n_modes/2 to its peak
    over the modes: the 1D spectrum weighted by the largest operator-pair
    symbol a torus problem applies (DXX or LAP on both sides).  Near
    round-off the truncated spectrum represents the kernel and its fourth
    derivatives.  It is 1 when 1/sigma^2 > (n_modes/2)^2: the kernel is then
    narrower than the grid resolves, and c_{n/2} is above half of c_0.
    """
    _check_modes(n_modes)
    half = n_modes // 2
    if 1.0 / sigma**2 > half**2:
        return 1.0
    c = _profile_coeffs_1d(sigma, n_modes)[: half + 1]  # |a| = 0..n/2
    w = c * op_symbol(("x",), DXX, np.arange(half + 1)[:, None], 2.0 * np.pi)[1] ** 2
    peak = np.max(w)
    return float(w[half] / peak) if peak > 0 else 0.0


@lru_cache(maxsize=16)
def _mode_count(sigma: float) -> int:
    """The smallest even n >= 16 with spectral_tail_ratio(sigma, n) <= SPECTRAL_TAIL_TOL.

    The ratio is 1 below n = 2/sigma and falls as n grows past it, so the
    search doubles n from 2/sigma and then bisects.  A sigma that needs more
    than ``MAX_MODES`` is rejected before any ratio is computed past it.
    """
    top = MAX_MODES // 2

    def resolved(half):
        return spectral_tail_ratio(sigma, 2 * half) <= SPECTRAL_TAIL_TOL

    if not 1.0 / sigma <= top:
        raise BadGrid(f"sigma: {sigma} needs more than {MAX_MODES} modes")
    lo = hi = max(8, math.ceil(1.0 / sigma))  # in half counts
    while not resolved(hi):
        if hi == top:
            raise BadGrid(f"sigma: {sigma} needs more than {MAX_MODES} modes")
        lo, hi = hi + 1, min(2 * hi, top)
    while lo < hi:
        mid = (lo + hi) // 2
        if resolved(mid):
            hi = mid
        else:
            lo = mid + 1
    return 2 * hi


def _mode_axis(n_modes: int):
    return np.fft.fftfreq(n_modes, d=1.0 / n_modes)


def _mode_grid(n_modes: int, dim: int = 2):
    """The modes a of the n^dim grid, each axis in fftfreq order: shape (n,) * dim + (dim,)."""
    return np.stack(np.meshgrid(*[_mode_axis(n_modes)] * dim, indexing="ij"), axis=-1)


def _symbol(axes, op: str, modes, side: str):
    """Per-mode symbol of ``op`` acting on exp(2 pi i a.(x - y)), modes a of shape (..., len(axes)).

    ``op_symbol`` at w = 2 pi a: (+-i)^order mult / div, + acting on x
    (side "left") and - on y.
    """
    order, mult, div = op_symbol(axes, op, modes, 2.0 * np.pi)
    return (1j if side == "left" else -1j) ** order * (mult / div)


def nonlocal_from_coeffs(coeffs, left: str, right: str, X, Y, n_modes: int):
    """Bi-operator cross matrix from explicit profile Fourier coefficients.

    Entry (i, j) is Re sum_a c_a mult_L(a) mult_R(a) exp(2 pi i a.(x_i - y_j)),
    summed directly over the mode grid: n values in 1D, n x n in 2D, the
    dimension being that of ``coeffs``.  The oracle for J5 blocks and for
    every block of a lattice gram (``lattice_spectrum``).  Each point's
    exponentials are the products of its axes' (``_direct_exponentials``).
    """
    _check_modes(n_modes)
    dim = np.ndim(coeffs)
    modes = _mode_grid(n_modes, dim).reshape(-1, dim)
    axes = ("x", "y")[:dim]
    d = np.ravel(coeffs) * _symbol(axes, left, modes, "left") * _symbol(axes, right, modes, "right")
    X = np.asarray(X, dtype=float).reshape(-1, dim)
    Y = np.asarray(Y, dtype=float).reshape(-1, dim)
    ey = _direct_exponentials(Y, n_modes)  # (ny, n_modes^dim)
    out = np.empty((X.shape[0], Y.shape[0]))
    chunk = max(1, int(2**24 // max(1, modes.shape[0])))
    for lo in range(0, X.shape[0], chunk):
        ex = _direct_exponentials(X[lo : lo + chunk], n_modes)
        out[lo : lo + chunk] = np.real((ex * d[None, :]) @ ey.conj().T)
    return out


def _direct_exponentials(X, n_modes: int) -> np.ndarray:
    """exp(2 pi i a.x) over the points X (n, dim) and the flat mode grid: (n, n_modes^dim).

    Each axis's phase is taken in turns, a x mod 1: x mod 1 is split into
    its first 26 bits and the rest, and a mode |a| <= 2^14 (``MAX_MODES``)
    times the first is exact, so no rounding of size a x eps enters.  A
    6 x 6 lattice gram's (dx, lap) block is within 7e-15 of it, 1.6e-14
    with exp(2 pi i a.x) unreduced.
    """
    a = _mode_axis(n_modes)
    out = np.ones((X.shape[0], 1), dtype=complex)
    for x in X.T % 1.0:
        hi = np.floor(x * 2.0**26) / 2.0**26
        turns = np.multiply.outer(hi, a) % 1.0 + np.multiply.outer(x - hi, a) % 1.0
        e = np.exp(2.0j * np.pi * turns)
        out = (out[:, :, None] * e[:, None, :]).reshape(X.shape[0], -1)
    return out


@lru_cache(maxsize=8)
def _half_modes(n_modes: int, dim: int = 2):
    """One mode of each pair {a, -a} of the mode grid: (flat index, modes (h, dim), weight).

    The terms of a and -a in Re sum_a d_a exp(2 pi i a.(x - y)) are equal
    when d_{-a} = conj(d_a), which holds for c_a times any two symbols here,
    so a pair is one mode of weight 2, the one whose first nonzero component
    is positive.  The zero mode, first, and the modes with a component at
    -n/2 (whose partner is off the grid) have weight 1: n/2 + 1 half modes
    in 1D, n^2/2 + n in 2D.
    """
    modes = _mode_grid(n_modes, dim).reshape(-1, dim)
    unpaired = (modes == -(n_modes // 2)).any(axis=1) | ~modes.any(axis=1)
    first = modes[np.arange(modes.shape[0]), np.argmax(modes != 0, axis=1)]
    keep = np.flatnonzero(unpaired | (first > 0))
    weight = np.where(unpaired[keep], 1.0, 2.0)
    return keep, modes[keep], weight


def _coeff_grid(k: KernelSpec) -> np.ndarray:
    """A periodic kernel's c_a over its mode grid: n_modes values in 1D, n_modes x n_modes in 2D."""
    spectrum = _profile_coeffs_1d if k.dim == 1 else _profile_coeff_grid
    return spectrum(k.lengthscales[0], k.n_modes)


def half_mode_table(k: KernelSpec, X) -> np.ndarray:
    """sqrt(w c_h) exp(2 pi i h.x) at the points X over ``_half_modes``, of weight w: (n_points, h).

    exp(2 pi i h.x) is the product of the axis exponentials of h's
    components (``_axis_exponentials``), multiplied into the table in place,
    ``_MODE_CHUNK`` modes at a time, so no second table is allocated.
    """
    keep, _, weight = _half_modes(k.n_modes, k.dim)
    columns = np.unravel_index(keep, (k.n_modes,) * k.dim)
    axes = _axis_exponentials(k, X)
    table = np.empty((X.shape[0], keep.size), dtype=complex)
    table[:] = np.sqrt(weight * _coeff_grid(k).ravel()[keep])
    for lo in range(0, keep.size, _MODE_CHUNK):
        for (e, index), col in zip(axes, columns):
            table[:, lo : lo + _MODE_CHUNK] *= e[index[:, None], col[lo : lo + _MODE_CHUNK]]
    return table


def half_mode_feature_count(k: KernelSpec) -> int:
    """Columns of ``half_mode_features``: 2h - 1 for the h half modes of ``_half_modes``."""
    return 2 * _half_modes(k.n_modes, k.dim)[0].size - 1


def half_mode_block_bytes(k: KernelSpec, n_points: int) -> int:
    """Bytes ``CrossTables`` holds at once for a J5 block of n_points points with themselves.

    The points' ``half_mode_table`` (n_points x h complex, h half modes); per
    chunk of modes a product with symbols and two operators' features, each
    n_points x _MODE_CHUNK complex; three blocks (the sum, a chunk's term and
    the one ``linsys.assemble_gram`` keeps); under 64 bytes per grid mode.
    """
    h = _half_modes(k.n_modes, k.dim)[0].size
    return 16 * n_points * (h + 3 * _MODE_CHUNK) + 24 * n_points**2 + 64 * k.n_modes**k.dim


def half_mode_features(k: KernelSpec, op: str, table, first: int = 0) -> np.ndarray:
    """The real features of ``op`` at the points of a ``half_mode_table``: (n_points, 2h - 1).

    With z = table sigma(h), sigma the left symbol of ``op``, a row holds
    [Re z, Im z] less the zero mode's Im column, which is 0; ``table`` may
    be the table's columns from ``first`` on.  F_a(X) F_b(Y)^T = sum_h w c_h
    Re(sigma_a(h) conj(sigma_b(h)) exp(2 pi i h.(x - y))) = (L_a (x) R_b) K.
    """
    modes = _half_modes(k.n_modes, k.dim)[1][first : first + table.shape[1]]
    z = table * _symbol(k.axes, op, modes, "left")
    return np.hstack([z.real, z.imag[:, 1:] if first == 0 else z.imag])


# ---------------------------------------------------------------------------
# the gram of a full torus lattice from the truncated spectrum


def lattice_spectrum(k: KernelSpec, ops, shape) -> np.ndarray:
    """The gram of ``ops`` on the full lattice ``shape`` per lattice frequency: Lambda_0, (n, p, p).

    Block (a, b) of the gram on the n points x_j = j / side, flat in C order,
    is generated by theta_ab(x) = Re sum_m c_m sigma_a(m) conj(sigma_b(m))
    exp(2 pi i m.x), sigma the left symbol.  At x_j a term depends on m mod
    side alone: folded onto the lattice frequencies q (a 0/1 matrix per
    axis) the terms sum to D(q), and theta_ab is the inverse DFT of
    Lambda_0(q) = n (D(q) + conj(D(-q))) / 2, Hermitian positive
    semidefinite, q in ``np.fft.fftn``'s order.  Cost: p^2 side n_modes^dim.
    """
    c = _coeff_grid(k)
    sym = np.stack([np.broadcast_to(_mode_symbol(k, op, "left"), c.shape) for op in ops])
    d = c * sym[:, None] * sym[None, :].conj()
    side, n = shape[0], math.prod(shape)
    fold = (np.arange(side)[:, None] == _mode_axis(k.n_modes) % side).astype(float)
    d = d @ fold.T  # the last axis folded
    if k.dim == 2:
        d = fold @ d
    neg = -np.arange(side) % side
    mirrored = d[(..., *np.ix_(*(neg,) * k.dim))]
    spectrum = (0.5 * n) * (d + mirrored.conj())
    return np.moveaxis(spectrum.reshape(len(ops), len(ops), n), -1, 0)


# ---------------------------------------------------------------------------
# torus fields as per-mode weights of the truncated kernel spectrum

# modes per chunk of a half-mode table and of a J5 block, and points per
# chunk of ``eval_mode_weights`` on the 2D torus.  A chunk's
# rows of the two point tables and its product with one operator's folded
# weights take 2.5 x _MODE_CHUNK x n_modes complex, 0.7 MB at 64 modes, and
# stay in a core's L2 cache while every operator of the call passes.  On
# 2000 held-out points with the five nonlocal2d m operators at 46 modes
# (2-vCPU Xeon VM, one BLAS thread, tables built, median of 40) 64, 128,
# 256, 512, 1024 and 2000 took 4.9, 4.1, 3.7, 3.5, 3.6 and 3.8 ms
_MODE_CHUNK = 256


def _exponentials(n_modes: int, u, half: bool = False) -> np.ndarray:
    """exp(2 pi i u a) over one axis's coordinates u: (u.size, n_modes), modes in fftfreq order.

    ``np.exp`` builds the first n // 2 + 1 columns, the modes 0, 1, ...
    and, for an even n, the Nyquist mode -n/2; each later column, of a mode
    -a, is the conjugate of the column of a, which reproduces ``np.exp``'s
    bits at half its cost.  With ``half`` the table is those first columns
    alone.  The exponents are formed in the table itself, and the
    conjugate columns _MODE_CHUNK rows at a time, so beside the table only
    one chunk's copy and numpy's iterator buffers are allocated.
    """
    n = n_modes
    h = n // 2 + 1
    table = np.empty((u.size, h if half else n), dtype=complex)
    head = table[:, :h]
    np.multiply.outer(u, _mode_axis(n)[:h], out=head.real)
    head.imag = 0.0
    np.multiply(2.0j * np.pi, head, out=head)
    np.exp(head, out=head)
    # numpy copies an input that overlaps its output, here one chunk's
    for lo in range(0, 0 if half else u.size, _MODE_CHUNK):
        rows = table[lo : lo + _MODE_CHUNK]
        np.conjugate(rows[:, n - h : 0 : -1], out=rows[:, h:])
    return table


def _axis_exponentials(k: KernelSpec, X):
    """Per axis d: the exponentials of the distinct coordinates u of X[:, d], and the gather index.

    Each pair is (table, index), the table ``_exponentials(k.n_modes, u)``
    and table[index] the point-by-point table; a tensor grid of n x n
    points has n rows per axis, not n^2.
    """
    return [(_exponentials(k.n_modes, u), index) for u, index in _distinct_axes(X)]


def _mode_symbol(k: KernelSpec, op: str, side: str, n_modes: int | None = None):
    """Per-mode symbol of ``op`` on a periodic kernel's mode grid, or on one of ``n_modes``."""
    if op == J5 and k.family != PERIODIC_2D:
        raise UnsupportedOperator("nonlocal operator requires the 2D periodic kernel")
    return _symbol(k.axes, op, _mode_grid(n_modes or k.n_modes, k.dim), side)


def mode_weights(k: KernelSpec, funcs, coeffs) -> np.ndarray:
    """Per-mode weights of the field sum_i coeff_i (R_i K)(., y_i) on the torus.

    W[a] = c_a sum_blocks sum_i coeff_i mult_R(tag, a) exp(-2 pi i a.y_i) over
    the kernel's n_modes (1D) or n_modes x n_modes (2D) mode grid, with the
    exact c_a of ``_profile_coeffs_1d``, so J5 is one more symbol.  ``funcs``
    is a FunctionalSet and ``coeffs`` follows its block layout; the blocks on
    one point set share its exponential tables.  Cost: n_functionals *
    n_modes^dim.
    """
    if not k.periodic:
        raise UnsupportedOperator("mode weights require a periodic kernel")
    c = _coeff_grid(k)
    acc = np.zeros(c.shape, dtype=complex)
    for pts, blocks in funcs.point_sets:
        if pts.shape[0] == 0:
            continue
        # the conjugate point-by-point exponentials of the point set
        e = [t.conj()[index] for t, index in _axis_exponentials(k, _as_points(k, pts))]
        for tag, sl in blocks:
            if k.dim == 1:
                summed = e[0].T @ coeffs[sl]
            else:
                # sum_i coeff_i exp(-2 pi i (a1 y_i1 + a2 y_i2)) as one n_modes x n_modes product
                summed = e[0].T @ (coeffs[sl][:, None] * e[1])
            acc += _mode_symbol(k, tag, "right") * summed
    return c * acc


def mode_table_bytes(k: KernelSpec, n_points: int, n_ops: int) -> int:
    """Bytes of the largest array of ``mode_weights``, ``mode_points`` or ``eval_mode_weights``.

    For ``n_points`` points and ``n_ops`` operators that is, all complex128:
    an exponential table, at most n_points x n_modes, or on the 2D torus the
    second-axis table of ``ModePoints``, n_points x (n_modes + 1), which
    also bounds a chunk's product; in 1D the product of the operators'
    columns, n_ops x n_points; or the weights under the symbols of the
    operators, n_ops x n_modes^dim, which bounds their folded halves.
    """
    n, dim = k.n_modes, k.dim
    return 16 * max(n_points * (n + 1), n_points * n_ops, n_ops * n**dim)


def mode_points_bytes(k: KernelSpec, n_points: int, n_ops: int) -> int:
    """Bytes ``eval_mode_weights`` holds at once at the ``ModePoints`` of n_points points.

    The tables stay while every field and operator is evaluated; one call
    on n_ops operators adds its own arrays.  All are complex128 but the
    float output and index.  In 1D: a table of at most n_points distinct
    coordinates and its gather index, then the product, n_ops x n_points,
    and its real part gathered.  In 2D: the first- and second-axis tables,
    n_points x (n_modes/2 + 1) and n_points x (n_modes + 1), then the folded
    weights of every operator, n_ops x (n_modes/2 + 1) x (n_modes + 1), one
    operator's weights before folding, one chunk's product and the
    n_points x n_ops output.
    """
    n, h = k.n_modes, k.n_modes // 2 + 1
    if k.dim == 1:
        return 16 * n_points * n + 8 * n_points + 24 * n_ops * n_points
    tables = 16 * n_points * (n + 1 + h)
    products = 16 * (n_ops * h * (n + 1) + n * n + _MODE_CHUNK * (n + 1))
    return tables + products + 8 * n_points * n_ops


@dataclass(frozen=True, eq=False)
class ModePoints:
    """Scattered points of the torus with the exponential tables ``eval_mode_weights`` reads.

    Built once (``mode_points``) for a mode count, they serve every field
    and operator evaluated at those points: a run's u and m, at its start
    and at its end.  In 1D ``first`` holds the exponentials of the
    distinct coordinates and ``index`` gathers them to the points.  In 2D
    both tables are per point.  ``first`` holds the exponentials of the
    first-axis modes 0, 1, ..., n/2 - 1 and -n/2, the half that
    ``_fold_first_axis`` keeps.  ``second`` holds the second-axis ones and,
    as column n, the conjugate of the Nyquist one, all conjugated and as
    float pairs: for a row g of a product with folded weights, Re sum_c
    g_c T_c, T that table unconjugated, is the real dot product of g's
    float pairs with the point's row of ``second``.
    """

    n_modes: int
    first: np.ndarray
    index: np.ndarray | None = None
    second: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return 1 if self.second is None else 2

    @property
    def size(self) -> int:
        return self.first.shape[0] if self.index is None else self.index.size


def mode_points(X, n_modes: int) -> ModePoints:
    """The tables of ``ModePoints`` for the (n, dim) points X of the 1D or 2D torus."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] == 1:
        ((u, index),) = _distinct_axes(X)
        return ModePoints(n_modes, _exponentials(n_modes, u), index=index)
    if X.shape[1] != 2:
        raise DimensionMismatch(f"points have dimension {X.shape[1]}, the torus has 1 or 2")
    # second from the half table: the conjugate of a mode -a's column is a's
    # column, so no full table is held beside it
    n, h = n_modes, n_modes // 2 + 1
    e2 = _exponentials(n, X[:, 1], half=True)
    second = np.empty((X.shape[0], n + 1), dtype=complex)
    np.conjugate(e2, out=second[:, :h])
    second[:, h:n] = e2[:, n - h : 0 : -1]
    second[:, n] = e2[:, n // 2]
    del e2
    first = _exponentials(n, X[:, 0], half=True)
    return ModePoints(n_modes, first, second=second.view(float))


def _fold_first_axis(v: np.ndarray) -> np.ndarray:
    """Weights on the first-axis half n/2 + 1 of an n x n mode grid that give the field of ``v``.

    f(x) = Re sum_a v_a exp(2 pi i a.x), and Re z = Re conj(z), so the term
    of a mode a = (-a_1, a_2) equals that of conj(v_a) at -a: each row a_1
    of 1..n/2 - 1 takes v_(a_1, a_2) + conj(v_(-a_1, -a_2)) and stands for
    the row -a_1 as well.  That needs no symmetry of v; a field's weights
    have v_{-a} = conj(v_a) only up to round-off.  The Nyquist column
    a_2 = -n/2 has no partner -a_2 on the grid, so there each of those rows
    keeps its own term, and the term of -a_1, conjugated, goes into one more
    column: the column n, which ``ModePoints.second`` pairs with the
    conjugate Nyquist exponential.  The rows 0 and -n/2 are kept as they are.
    """
    n = v.shape[0]
    h = n // 2
    neg = v[n - 1 : h : -1]  # the rows -1, ..., -(h - 1)
    out = np.zeros((h + 1, n + 1), dtype=complex)
    out[:, :n] = v[: h + 1]
    out[1:h, :n] += np.conjugate(neg[:, -np.arange(n) % n])
    out[1:h, h] = v[1:h, h]
    out[1:h, n] = np.conjugate(neg[:, h])
    return out


def eval_mode_weights(k: KernelSpec, weights: np.ndarray, ops, X) -> np.ndarray:
    """(op f)(x) = Re sum_a mult_L(op, a) W[a] exp(2 pi i a.x) for W from ``mode_weights``.

    Returns one column per operator in ``ops``, at the points X or at
    those of a ``ModePoints`` built for the weights' mode count, which
    then serves as many calls as it is given to.  A column's bits do not
    depend on the other operators of the call, nor on which other points
    share it, except that a product of one row may round another way.  On
    the 1D torus a column is the product E1 @ (mult_L W) on the distinct
    coordinates, gathered to the points.  On the 2D torus the symbol-
    weighted W is folded onto half the first-axis modes
    (``_fold_first_axis``), and each chunk of ``_MODE_CHUNK`` points takes
    one product of its first-axis rows with it and a real dot product of
    each point's row of that with its second-axis table.  Cost: n_points *
    n_ops * n_modes^2 / 2 in 2D, n_distinct * n_ops * n_modes in 1D.
    """
    n = weights.shape[0]
    pts = X if isinstance(X, ModePoints) else mode_points(_as_points(k, X), n)
    if (pts.dim, pts.n_modes) != (k.dim, n):
        raise DimensionMismatch(
            f"tables of {pts.n_modes} modes in {pts.dim}D, weights of {n} modes in {k.dim}D"
        )
    if k.dim == 1:
        g = np.empty((len(ops), pts.first.shape[0]), dtype=complex)
        for j, op in enumerate(ops):
            np.matmul(pts.first, _mode_symbol(k, op, "left", n) * weights, out=g[j])
        return np.real(g).T[pts.index]
    folded = [_fold_first_axis(_mode_symbol(k, op, "left", n) * weights) for op in ops]
    out = np.empty((pts.size, len(ops)))
    # a last chunk of one point joins the one before: numpy sends a one-row
    # product to a matrix-vector kernel, whose sums may round another way
    bounds = [*range(0, max(pts.size - 1, 1), _MODE_CHUNK), pts.size]
    for lo, hi in zip(bounds, bounds[1:]):
        e1, right = pts.first[lo:hi], pts.second[lo:hi]
        for j, w in enumerate(folded):
            out[lo:hi, j] = np.einsum("ij,ij->i", (e1 @ w).view(float), right)
    return out


def eval_mode_weights_grid(k: KernelSpec, weights: np.ndarray, ops, nodes) -> np.ndarray:
    """``eval_mode_weights`` on the tensor grid of ``nodes``, one float array per axis.

    Rows follow ``np.meshgrid(*nodes, indexing="ij")`` raveled.  In 2D an
    operator's grid is Re(E_1 (mult_L W) E_2^T), E_d the exponentials of
    axis d's nodes (``_exponentials``): with G = E_1 (mult_L W), one real
    GEMM [Re G, Im G] [Re E_2, -Im E_2]^T.
    In 1D the grid is its nodes, evaluated as points.  Cost: n_1 * n_ops *
    n_modes^2 plus n_1 * n_2 * n_ops * 2 n_modes.
    """
    if len(nodes) != k.dim:
        raise DimensionMismatch(f"{len(nodes)} grid axes, kernel family expects {k.dim}")
    if k.dim == 1:
        return eval_mode_weights(k, weights, ops, nodes[0][:, None])
    e1, e2 = (_exponentials(k.n_modes, x) for x in nodes)
    right = np.concatenate([e2.real, -e2.imag], axis=1).T
    out = np.empty((len(ops), e1.shape[0], e2.shape[0]))
    for j, op in enumerate(ops):
        g = e1 @ (_mode_symbol(k, op, "left") * weights)
        np.matmul(np.concatenate([g.real, g.imag], axis=1), right, out=out[j])
    return out.reshape(len(ops), -1).T


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
    for orders in terms:
        g = f
        for axis, order in enumerate(orders):
            g = d_axis(g, axis, order, argno)
        total += g(x, y)
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
            terms = op_terms(k.axes, right)
            return _fd_apply(lambda a, b: eval(k, a, b), terms, "right", xx, yy, h)

        return _fd_apply(fr, op_terms(k.axes, left), "left", x, y, h)

    coarse = stencil(step)
    fine = stencil(0.5 * step)
    approx = (4.0 * fine - coarse) / 3.0
    exact = eval_with_ops(k, left, right, x, y)
    scale = max(abs(exact), 1.0)
    return abs(approx - exact) / scale
