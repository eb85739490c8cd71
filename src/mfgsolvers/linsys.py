"""Gram/feature matrix assembly and the cached factorizations.

The GP path regularizes the gram matrix with a block-diagonal nugget and
factors it; the FF path keeps a thin SVD of the feature matrix, so that
(A A^T + mu I)^{-1} is applied spectrally and no matrix the size of the
functional count is factored.  The thin SVD is taken as a Householder QR,
whose cost grows with the functional count, plus an SVD of the small
triangular factor, whose cost does not (``_qr_svd``); its quadratic form,
inverse and ridge coefficients share one projection onto the left singular
vectors (``FeatureFactor._project``).  Each factor applies its quadratic
form and, through ``apply_regularized``, the inverse of the quadratic-form
matrix to vectors: the regularized gram (per lattice frequency on a
lattice), or A A^T + mu I as A (A^T v) + mu v.  The residual-side inner
step of ``optimizer`` also reads that inverse as a matrix, ``regularized``,
for the block rows of its A Theta products (a feature factor forms it on
each access, only for systems with at least as many features as residual
rows, which hold it for their run); the feature side reads the split
P^{-1} = F F^T + D instead, D = diag(``ridge``) given per row on both: the
feature matrix with mu on every row, or a lattice gram's half-mode features
with its nugget (``LatticeFactor``).

A gram is factored by one of two routes, chosen from the points alone
(``lattice_shape``).  When the functional set lies wholly on one full torus
lattice under a periodic kernel, as every bundled torus GP config does,
each gram block depends on x_i - x_j alone and is circulant on the lattice
(Davis, *Circulant Matrices*, 1979).  The lattice DFT splits the gram into
one Hermitian block per frequency, of the order of the operator count: the
kernel's truncated spectrum folded onto the lattice
(``kernels.lattice_spectrum``), built once per factor.  With the nugget on
their diagonals numpy's batched Cholesky factors them (``LatticeFactor``):
no n x n factor exists, and a solve is an FFT, per-frequency triangular
solves and an inverse FFT.  Their inverse DFT gives the gram's columns.
The spectrum also gives the gram as F F^T, F the kernel's real half-mode
features, the weighted Fourier-feature model of a periodic GP.
Any other set, on random points or planning's space-time points, keeps
the dense Cholesky factor (``GramFactor``).

When the blocks of one functional set are the first blocks of the other's,
with the same operator tags on the same point arrays, its regularized gram
is the leading block of the other's, and the Cholesky factor of a leading
block is the leading block of the full factor.  ``build_gram_factors`` then
assembles, regularizes and factors the larger set alone, and the smaller
set's factor reads that factor: its ``regularized`` is a view of the
leading block.  On a lattice its factor is a copy of the leading operators'
block of each frequency's factor; on the dense route it is the whole
factor, solved at its full order.  On nonlocal2d phi's (id, dx, dy, lap)
lead psi's (id, dx, dy, lap, j5), and on mfg1d psi's (id, dx) lead phi's
(id, dx, dxx); planning's psi starts with its boundary blocks, so each of
its sets keeps a factor.

The feature-side inner step of ``optimizer`` solves (S + U U^T) y = c with
S block diagonal per point up to a few dense rows: ``ArrowCholesky`` factors
S = L L^T in time linear in its rows, and ``low_rank_update_solve`` applies
Woodbury's identity to the whitened r x k matrix V = L^{-1} U: it factors
the k x k capacitance matrix I + V^T V, whose eigenvalues are all >= 1, by
Cholesky, so nothing larger than r x k is formed and no orthogonal
factorization runs per step.  This module owns the one in-place Cholesky
solve of both inner steps, ``cholesky_solve``, for the capacitance matrix
and for the residual side's B in ``optimizer``.  It raises
``numpy.linalg.LinAlgError`` when ``dpotrf`` fails or the factor's diagonal
or the solution is not finite, as after an overflow; the optimizer reports
that as ``SingularNormalEquations`` (exit status 3), with no fallback route.

On the dense route, gram blocks that sit on the same pair of point sets
share their kernel tables (``kernels.CrossTables``), so a functional set
with many operators on one point set pays for its tables once.  Those
tables are built on the distinct coordinates of each axis and gathered to
each block.  A J5 block is one GEMM of the two operators' half-mode
features, from one table per point set.  The
nugget is added to the gram's diagonal in place, and LAPACK factors a
C-ordered copy of a dense gram in place through its Fortran-ordered
transpose, where f2py would make a slower transposing copy.

The dense factorizations call LAPACK through scipy's compiled wrappers
(``lapack``: dpotrf, dpotrs, dtrtrs, dgeqrf and dormqr), which this module
loads once, at its import, without importing ``scipy.linalg``: that import
loads some 300 modules the solver never uses (``numpy.f2py`` and
``numpy.testing`` among them) and would double a small run's start-up.
No other module calls ``lapack``.  Each call passes the arguments
``scipy.linalg``'s wrapper would and makes its checks on ``info``, so
results are bit-identical to it.  The load happens after the CLI caps the
thread count, so ``MFG_THREADS`` reaches scipy's OpenBLAS too.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import features as F
from . import kernels as K
from .collocation import FunctionalSet, sample_uniform_grid
from .errors import LengthMismatch, NonFiniteMatrix, NotPositiveDefinite, UnsupportedOperator

_FLAPACK = "scipy.linalg._flapack"


def _flapack_path():
    """File of scipy's f2py LAPACK module, or None when scipy ships none."""
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_lapack():
    """scipy's LAPACK wrappers: the loaded module, else its file, else ``scipy.linalg.lapack``."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    path = _flapack_path()
    if path is None:
        from scipy.linalg import lapack as public

        return public
    loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_FLAPACK, loader))
    loader.exec_module(module)
    return module


lapack = _load_lapack()


def lapack_info(routine: str, info: int) -> int:
    """Raise on LAPACK's illegal-argument report (info < 0); return info."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    return info


def cho_solve(chol: np.ndarray, b):
    """(L L^T)^{-1} b for the lower Cholesky factor L in chol's lower triangle."""
    x, info = lapack.dpotrs(chol, b, lower=1)
    lapack_info("dpotrs", info)
    return x


def cholesky_solve(B: np.ndarray, c, name: str):
    """B^{-1} c for a symmetric B, which is overwritten by its Cholesky factor.

    LAPACK factors the Fortran-ordered view B^T in place from its lower
    triangle, B's upper triangle, so a C-ordered B is not copied.  A
    non-finite entry there fails the factorization or leaves a non-finite
    factor diagonal, which is checked instead of B, as is the solution; each
    failure raises ``numpy.linalg.LinAlgError`` naming ``name``.
    """
    chol, info = lapack.dpotrf(B.T, lower=1, overwrite_a=1, clean=0)
    if lapack_info("dpotrf", info):
        raise np.linalg.LinAlgError(f"{name}: leading minor {info} is not positive definite")
    y = cho_solve(chol, c)
    if not (np.all(np.isfinite(np.diagonal(chol))) and np.all(np.isfinite(y))):
        raise np.linalg.LinAlgError(f"{name}: its Cholesky factor or solution is not finite")
    return y


def solve_triangular(a: np.ndarray, b, lower: int, trans: int = 0):
    """a^{-1} b (trans 0) or a^{-T} b (trans 1) for a triangular a.

    LAPACK reads Fortran order, so a C-ordered a is passed as a.T with
    ``lower`` and ``trans`` flipped, which solves the same system.  A zero
    on the diagonal raises ``numpy.linalg.LinAlgError``.
    """
    if a.flags.f_contiguous:
        x, info = lapack.dtrtrs(a, b, lower=lower, trans=trans)
    else:
        x, info = lapack.dtrtrs(a.T, b, lower=1 - lower, trans=1 - trans)
    if lapack_info("dtrtrs", info):
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def assemble_gram(kernel: K.KernelSpec, funcs: FunctionalSet, lattice=None, *, spectrum=None):
    """Symmetric bi-operator gram matrix over a functional set.

    Only the upper block triangle is evaluated; the rest is mirrored, so the
    result is exactly symmetric.  Blocks on the same pair of point sets
    (``FunctionalSet.point_sets``) share one ``kernels.CrossTables``: its
    tables are computed once per pair, not once per block.  On the 2D torus
    a J5 block is one real GEMM over about n_modes^2 half-mode features,
    n_modes being the kernel's own count.

    With ``lattice``, the shape ``lattice_shape`` gives for funcs, the gram
    is gathered from the inverse DFT of ``spectrum``, its frequency blocks
    (``kernels.lattice_spectrum``, computed when not given).
    """
    if lattice is not None:
        if spectrum is None:
            spectrum = K.lattice_spectrum(kernel, funcs.operator_tags, lattice)
        return _lattice_gram(spectrum, funcs, lattice)
    n = funcs.size
    out = np.empty((n, n))
    sets = funcs.point_sets
    tags = [[tag for tag, _ in blocks] for _, blocks in sets]
    for a, (X, blocks_x) in enumerate(sets):
        for b in range(a, len(sets)):
            Y, blocks_y = sets[b]
            tables = K.CrossTables(kernel, X, Y, tags[a], tags[b])
            for i, (op_i, sl_i) in enumerate(blocks_x):
                for op_j, sl_j in blocks_y[i if b == a else 0 :]:
                    B = tables.op_matrix(op_i, op_j)
                    if sl_j == sl_i:
                        out[sl_i, sl_i] = 0.5 * (B + B.T)
                    else:
                        out[sl_i, sl_j], out[sl_j, sl_i] = B, B.T
    return out


def lattice_shape(kernel: K.KernelSpec, funcs: FunctionalSet):
    """(side,) * dim when funcs lies wholly on one full torus lattice, else None.

    Every block's points must be those of ``collocation.sample_uniform_grid``
    for their count, in its order, and the kernel periodic.  Then each block
    of the gram is block-circulant: entry (i, j) depends on x_i - x_j alone,
    taken on the lattice.
    """
    if not kernel.periodic or not funcs.blocks:
        return None
    X = funcs.blocks[0][1]
    if any(pts is not X and not np.array_equal(pts, X) for _, pts in funcs.blocks):
        return None
    n, dim = X.shape
    side = n if dim == 1 else math.isqrt(n)
    if n == 0 or dim != kernel.dim or side**dim != n:
        return None
    if not np.array_equal(X, sample_uniform_grid(dim, n).interior):
        return None
    return (side,) * dim


def _circulant_index(shape):
    """index[i, j]: the flat lattice index of x_i - x_j, wrapped to the lattice.

    Points are flat in C order over ``shape``; index[0] maps each offset to
    that of its negative.
    """
    side = shape[0]
    j = np.arange(side)
    d = (j[:, None] - j[None, :]) % side
    if len(shape) == 1:
        return d
    n = side * side
    return (d[:, None, :, None] * side + d[None, :, None, :]).reshape(n, n)


def _lattice_gram(spectrum: np.ndarray, funcs: FunctionalSet, shape):
    """The gram of funcs on the lattice ``shape``, gathered from its generating columns.

    Block (a, a <= b) is theta_ab(x_i - x_0), the inverse DFT of ``spectrum``,
    gathered at the offsets x_i - x_j; block (b, a) reads theta_ba(d) :=
    theta_ab(-d) and a diagonal block the even part of its column, so the
    result is exactly symmetric.  The spectrum's truncation, which
    ``kernels.SPECTRAL_TAIL_TOL`` bounds, sets it apart from the closed form.
    """
    columns = np.fft.ifftn(spectrum.reshape(*shape, -1), axes=tuple(range(len(shape))))
    columns = columns.real.reshape(spectrum.shape)
    index = _circulant_index(shape)
    neg = index[0]
    sls = funcs.slices
    out = np.empty((funcs.size, funcs.size))
    for a, b in zip(*np.triu_indices(len(sls))):
        col = columns[:, a, b]
        if a == b:
            out[sls[a], sls[a]] = (0.5 * (col + col[neg]))[index]
        else:
            out[sls[a], sls[b]] = col[index]
            out[sls[b], sls[a]] = col[neg][index]
    return out


def build_nugget(gram: np.ndarray, funcs: FunctionalSet, eta: float, spectrum=None):
    """Diagonal of the block nugget R: each block scaled by its mean gram diagonal.

    With ``spectrum``, a lattice gram's frequency blocks Lambda_0, that is
    theta_aa(0) = (1/n) sum_q Lambda_0_aa(q) for block a.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    if spectrum is not None:
        return np.repeat(np.einsum("qaa->a", spectrum).real, len(spectrum)) / len(spectrum)
    d = np.diag(gram)
    r = np.empty(gram.shape[0])
    for sl in funcs.slices:
        r[sl] = float(np.mean(d[sl]))
    return r


@dataclass
class _Factored:
    """A factored nugget-regularized gram: the gram, its factor and their seconds."""

    qr_seconds = 0.0  # no orthogonal factorization, unlike FeatureFactor
    # P^{-1} is the gram (or its leading block), with no split F F^T + D; a LatticeFactor has one
    feature_count = None
    regularized: np.ndarray
    chol: np.ndarray
    assembly_seconds: float
    cholesky_seconds: float

    @property
    def size(self) -> int:
        return self.regularized.shape[0]

    def _check(self, v):
        if np.shape(v)[0] != self.size:
            raise LengthMismatch(f"vector length {np.shape(v)[0]} vs factor size {self.size}")


@dataclass
class GramFactor(_Factored):
    """Dense Cholesky factor of the nugget-regularized gram matrix, or of a larger one it leads.

    The route of a gram that is not on one full lattice (else
    ``LatticeFactor``).  ``chol`` is the lower Cholesky factor of a matrix
    whose leading ``size`` x ``size`` block is ``regularized``.  The factor
    of a leading principal block is the leading block of the full factor,
    so a functional set whose blocks lead another's reads the other's
    factor (``build_gram_factors``): its ``regularized`` is a view of the
    leading block, and its solves run on the whole factor with zeros below
    the vector, cut to its first ``size`` entries.
    """

    def leading(self, n: int) -> "GramFactor":
        """The factor of the leading n x n block, sharing this one's arrays; it reports no time."""
        return replace(
            self, regularized=self.regularized[:n, :n], assembly_seconds=0.0, cholesky_seconds=0.0
        )

    def _forward(self, v):
        """L^{-1} [v; 0] on the whole factor: its first ``size`` rows are the block's solve."""
        pad = self.chol.shape[0] - self.size
        if pad:
            v = np.concatenate([v, np.zeros((pad, *np.shape(v)[1:]))])
        return solve_triangular(self.chol, v, lower=1)

    def solve(self, v):
        """(Theta + eta R)^{-1} v."""
        self._check(v)
        if self.chol.shape[0] == self.size:
            # the factor was checked once, by cholesky_factor
            return cho_solve(self.chol, v)
        y = self._forward(v)
        y[self.size :] = 0.0
        return solve_triangular(self.chol, y, lower=1, trans=1)[: self.size]

    def quadratic_form(self, v) -> float:
        self._check(v)
        y = self._forward(v)[: self.size]
        return float(y @ y)

    def apply_regularized(self, v):
        """(Theta + eta R) v, the regularized gram applied to v."""
        self._check(v)
        return self.regularized @ v


@dataclass
class LatticeFactor(_Factored):
    """Per-frequency Cholesky factors of a block-circulant regularized gram.

    On a lattice of n points every block pair's gram block is circulant in
    the lattice offset, so the DFT over the lattice splits the regularized
    gram into one Hermitian block per frequency q, of the order p of the
    operator count: Lambda_0(q) of ``kernels.lattice_spectrum`` plus the
    nugget.  ``chol`` (n, p, p) holds their lower Cholesky factors; a lead
    factor holds a copy of the leading block of each.  ``solve`` and
    ``quadratic_form`` are an FFT over the lattice, per-frequency triangular
    solves and, for ``solve``, an inverse FFT; ``apply_regularized``
    multiplies each frequency by L(q) L(q)^H instead.  ``regularized`` is
    the gram itself, whose block rows the residual-side inner step reads.

    The spectrum that built the gram also splits it: P^{-1} = F F^T + D,
    F the half-mode features of ``ops`` at the lattice points, stacked
    operator-major (``kernels.half_mode_features``), formed on first use
    for a feature-side inner step (k < r), and D = diag(``nugget``).
    """

    shape: tuple  # the lattice: (side,) or (side, side), n points
    nugget: np.ndarray  # eta R: the nugget added to the gram's diagonal, one entry per row
    kernel: K.KernelSpec  # the periodic kernel of the gram
    ops: tuple  # the operator tag of each block

    def leading(self, n: int) -> "LatticeFactor":
        """The factor of the leading n x n block, n whole blocks of the lattice; it reports no time."""
        points = self.chol.shape[0]
        if n % points:
            raise LengthMismatch(f"{n} rows are not whole blocks of {points} points")
        p = n // points
        return replace(
            self,
            regularized=self.regularized[:n, :n],
            chol=self.chol[:, :p, :p].copy(),
            nugget=self.nugget[:n],
            ops=self.ops[:p],
            assembly_seconds=0.0,
            cholesky_seconds=0.0,
        )

    @property
    def feature_count(self) -> int:
        """k, the columns of F in P^{-1} = F F^T + D."""
        return K.half_mode_feature_count(self.kernel)

    @cached_property
    def features(self) -> np.ndarray:
        """F (size x k): the gram without its nugget is F F^T."""
        table = _lattice_table(self.kernel, self.shape)
        return np.vstack([K.half_mode_features(self.kernel, op, table) for op in self.ops])

    @property
    def ridge(self) -> np.ndarray:
        """D's diagonal in P^{-1} = F F^T + D: the nugget."""
        return self.nugget

    def _spectrum(self, v):
        """v^(q) per frequency q, (n, ops, columns): the lattice DFT of v's blocks."""
        self._check(v)
        n, p = self.chol.shape[:2]
        columns = np.shape(v)[1] if np.ndim(v) > 1 else 1
        x = np.asarray(v, dtype=float).reshape(p, *self.shape, columns)
        xh = np.fft.fftn(x, axes=_lattice_axes(self.shape))
        return xh.reshape(p, n, columns).transpose(1, 0, 2)

    def _from_spectrum(self, xh, v):
        """The real vector, of v's shape, whose lattice DFT is xh (n, ops, columns)."""
        x = xh.transpose(1, 0, 2).reshape(self.chol.shape[1], *self.shape, xh.shape[2])
        out = np.fft.ifftn(x, axes=_lattice_axes(self.shape)).real
        return np.ascontiguousarray(out).reshape(np.shape(v))

    def solve(self, v):
        """(Theta + eta R)^{-1} v, frequency by frequency."""
        y = _lower_solve(self.chol, self._spectrum(v))
        return self._from_spectrum(_lower_solve(self.chol, y, adjoint=True), v)

    def apply_regularized(self, v):
        """(Theta + eta R) v, frequency by frequency: Lambda(q) = L(q) L(q)^H."""
        xh = self._spectrum(v)
        return self._from_spectrum(self.chol @ (self.chol.conj().transpose(0, 2, 1) @ xh), v)

    def quadratic_form(self, v) -> float:
        """v^T (Theta + eta R)^{-1} v = sum_q |L(q)^{-1} v^(q)|^2 / n, by Parseval."""
        y = _lower_solve(self.chol, self._spectrum(v))
        return float(np.vdot(y, y).real) / self.chol.shape[0]


@lru_cache(maxsize=1)
def _lattice_table(kernel: K.KernelSpec, shape) -> np.ndarray:
    """``kernels.half_mode_table`` on the full lattice ``shape``: a factor and its lead share it."""
    return K.half_mode_table(kernel, sample_uniform_grid(len(shape), math.prod(shape)).interior)


def _lattice_axes(shape) -> tuple:
    """The lattice axes of an array (blocks, *shape, ...)."""
    return tuple(range(1, 1 + len(shape)))


def _lower_solve(chol, b, adjoint=False):
    """L(q)^{-1} b(q), or L(q)^{-H} b(q), for every frequency q, by substitution.

    ``chol`` is (n, p, p) lower triangular and b (n, p, columns); each step
    solves one row for every frequency at once.
    """
    x = np.empty_like(b)
    p = b.shape[1]
    for j in reversed(range(p)) if adjoint else range(p):
        if adjoint:
            acc = b[:, j] - np.einsum("fk,fkc->fc", chol[:, j + 1 :, j].conj(), x[:, j + 1 :])
        else:
            acc = b[:, j] - np.einsum("fk,fkc->fc", chol[:, j, :j], x[:, :j])
        x[:, j] = acc / chol[:, j, j, None]
    return x


def cholesky_factor(
    matrix: np.ndarray, assembly_seconds: float = 0.0, lattice=None, nugget=None, *, kernel=None,
    ops=None, spectrum=None,
):
    """Lower Cholesky factor of a finite symmetric matrix, its upper triangle zeroed.

    LAPACK factors a C-ordered copy in place, through its Fortran-ordered
    transpose, so the caller's matrix is left as it was; f2py would
    otherwise make a transposing copy.  A non-finite entry raises
    ``NonFiniteMatrix`` before LAPACK sees it; a matrix that is not positive
    definite raises ``NotPositiveDefinite`` naming the order of the first
    leading minor that is not.

    With ``lattice`` (``lattice_shape``), matrix is a block-circulant gram
    on that lattice, kept as ``regularized`` but not read: its blocks per
    lattice frequency, ``spectrum`` (n, p, p), are factored instead
    (``LatticeFactor``; the order counts in their frequency-major block
    diagonal), with the periodic ``kernel`` and blocks' ``ops``.  ``nugget``,
    one entry per row and constant on each block, is the diagonal D that
    F F^T leaves out of matrix; zero if not given.
    """
    t0 = time.perf_counter()
    if lattice is not None:
        if kernel is None or ops is None or spectrum is None:
            raise TypeError("a lattice factor needs its gram's kernel and ops, and its spectrum")
        chol = _frequency_cholesky(spectrum)
        return LatticeFactor(
            regularized=matrix,
            chol=chol,
            shape=tuple(lattice),
            nugget=np.zeros(matrix.shape[0]) if nugget is None else nugget,
            kernel=kernel,
            ops=tuple(ops),
            assembly_seconds=assembly_seconds,
            cholesky_seconds=time.perf_counter() - t0,
        )
    if not np.isfinite(matrix).all():
        raise NonFiniteMatrix("the regularized gram must not contain infs or NaNs")
    copy = np.array(matrix, order="C")
    L, info = lapack.dpotrf(copy.T, lower=1, overwrite_a=1, clean=1)
    if lapack_info("dpotrf", info):
        raise NotPositiveDefinite(info)
    dt = time.perf_counter() - t0
    return GramFactor(
        regularized=matrix, chol=L, assembly_seconds=assembly_seconds, cholesky_seconds=dt
    )


def _frequency_cholesky(spectrum: np.ndarray):
    """The lower Cholesky factors (n, p, p) of the Hermitian blocks (n, p, p) of ``spectrum``."""
    if not np.isfinite(spectrum).all():
        raise NonFiniteMatrix("the regularized gram must not contain infs or NaNs")
    try:
        return np.linalg.cholesky(spectrum)
    except np.linalg.LinAlgError:
        for q, block in enumerate(spectrum):
            info = lapack_info("zpotrf", lapack.zpotrf(block, lower=1)[1])
            if info:
                raise NotPositiveDefinite(q * block.shape[0] + info) from None
        raise


def build_gram_factor(kernel: K.KernelSpec, funcs: FunctionalSet, eta: float):
    """Assemble, nugget-regularize and factor in one step; on a full lattice, per frequency.

    ``lattice_shape`` picks the route from the points alone: a set on one
    full lattice under a periodic kernel gets a ``LatticeFactor``, any other
    a dense ``GramFactor``.  The nugget is constant along each block's
    diagonal, so it keeps a lattice gram block-circulant.
    """
    t0 = time.perf_counter()
    lattice = lattice_shape(kernel, funcs)
    spectrum = None if lattice is None else K.lattice_spectrum(kernel, funcs.operator_tags, lattice)
    gram = assemble_gram(kernel, funcs, lattice, spectrum=spectrum)
    r = build_nugget(gram, funcs, eta, spectrum)
    if lattice is not None:
        # the gather evicts numpy's batched complex Cholesky from the caches;
        # reloading it on one 2 x 2 block charges that to the assembly, so the
        # factorization's time follows the lattice size (as in ``_qr_svd``)
        _frequency_cholesky(np.eye(2, dtype=complex)[None])
    assembly = time.perf_counter() - t0
    # a nugget that overflows is reported once, by the factorization
    with np.errstate(over="ignore"):
        nugget = eta * r
        gram[np.diag_indices_from(gram)] += nugget
        if spectrum is not None:  # the regularized gram's frequency blocks
            spectrum += np.diag(nugget[:: spectrum.shape[0]])
    return cholesky_factor(
        gram, assembly_seconds=assembly, lattice=lattice, nugget=nugget, kernel=kernel,
        ops=funcs.operator_tags, spectrum=spectrum,
    )


def _leads(a: FunctionalSet, b: FunctionalSet) -> bool:
    """Whether a's blocks are b's first blocks: the same operator tags on the same point arrays."""
    return len(a.blocks) <= len(b.blocks) and all(
        op_a == op_b and pts_a is pts_b
        for (op_a, pts_a), (op_b, pts_b) in zip(a.blocks, b.blocks)
    )


def build_gram_factors(kernel: K.KernelSpec, funcs, eta: float) -> list:
    """Gram factors of a pair of functional sets on one kernel and one eta.

    When one set's blocks lead the other's (``_leads``), its regularized
    gram is, entry for entry, the leading block of the other's: the block
    nugget is each block's own mean diagonal.  Then only the larger set is
    assembled and factored, and the smaller one reads the leading block of
    that factor (``GramFactor.leading``, ``LatticeFactor.leading``).
    Otherwise each set is factored on its own.
    """
    for small, large in ((0, 1), (1, 0)):
        if _leads(funcs[small], funcs[large]):
            full = build_gram_factor(kernel, funcs[large], eta)
            lead = full.leading(funcs[small].size)
            return [lead, full] if small == 0 else [full, lead]
    return [build_gram_factor(kernel, f, eta) for f in funcs]


# ---------------------------------------------------------------------------
# feature matrices

def assemble_feature_matrix(funcs: FunctionalSet, basis: F.FeatureBasis):
    """A[i, j] = functional i applied to feature j."""
    rows = []
    for op, pts in funcs.blocks:
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
    orthogonal factorization of A.  The factorization is a thin SVD (a
    Householder QR and an SVD of its triangular factor) rather than QR plus
    a Cholesky of the squared core: the squared matrix can be conditioned
    like s_max^2/mu (past 1/eps when high-order derivative rows are
    present) while the singular values themselves carry only ~eps s_max
    absolute error, so every spectral direction is inverted accurately.
    Coefficient recovery (ridge_coefficients) works entirely inside the
    factored basis, where A^T annihilates the 1/mu complement term exactly.
    """

    A: np.ndarray
    mu: float
    q1: np.ndarray  # left singular vectors, (rows, k)
    sing: np.ndarray  # singular values, (k,)
    v1: np.ndarray  # right singular vectors, (cols, k)
    qr_seconds: float
    cholesky_seconds: float

    @property
    def features(self) -> np.ndarray:
        """The feature matrix A: P^{-1} = A A^T + mu I."""
        return self.A

    @property
    def feature_count(self) -> int:
        return self.A.shape[1]

    @property
    def ridge(self) -> np.ndarray:
        """D's diagonal in P^{-1} = A A^T + D: mu on every row."""
        return np.full(self.A.shape[0], self.mu)

    @property
    def regularized(self) -> np.ndarray:
        """P^{-1} = A A^T + mu I as a rows x rows matrix, formed anew on each access.

        Nothing keeps it: the optimizer's residual side holds it in its
        workspace for one Gauss-Newton run, and the feature side never forms it.
        """
        P = self.A @ self.A.T
        P[np.diag_indices_from(P)] += self.mu
        return P

    def solve(self, v):
        """(A A^T + mu I)^{-1} v, the quadratic-form matrix applied to v."""
        return apply_qr_inverse(self, v)

    def apply_regularized(self, v):
        """(A A^T + mu I) v, without forming the matrix."""
        v = self._checked(v)
        return self.A @ (self.A.T @ v) + self.mu * v

    def quadratic_form(self, v) -> float:
        w, perp = self._project(v)
        core = float(np.sum(w * w / (self.sing**2 + self.mu)))
        return core if perp is None else core + float(perp @ perp) / self.mu

    def _project(self, v, complement: bool = True):
        """(Q1^T v, (I - Q1 Q1^T) v) for v of the factor's row count.

        The complement is None unless asked for, and when Q1 is square
        orthogonal: the complement subspace is then empty, and forming it
        numerically would amplify roundoff by 1/mu.
        """
        v = self._checked(v)
        w = self.q1.T @ v
        if not complement or self.q1.shape[1] == v.shape[0]:
            return w, None
        return w, v - self.q1 @ w

    def _checked(self, v):
        """v as a float array, checked to have the factor's row count."""
        v, rows = np.asarray(v, dtype=float), self.A.shape[0]
        if v.shape[0] != rows:
            raise LengthMismatch(f"vector length {v.shape[0]} vs {rows} rows")
        return v


def qr_ridge_factor(A: np.ndarray, mu: float) -> FeatureFactor:
    if mu <= 0:
        raise ValueError("mu must be positive")
    A = np.asarray(A, dtype=float)
    (h, tau), q_r, sing, zt, (t_qr, t_svd) = _qr_svd(A)
    t0 = time.perf_counter()
    pad = np.zeros((A.shape[0] - q_r.shape[0], q_r.shape[1]))
    q1 = _reflect(h, tau, np.vstack([q_r, pad]))  # H [q_r; 0]
    t_qr += time.perf_counter() - t0
    return FeatureFactor(
        A=A, mu=mu, q1=q1, sing=sing, v1=zt.T, qr_seconds=t_qr, cholesky_seconds=t_svd
    )


def _qr_svd(V):
    """Thin SVD of V as a Householder QR V = H R plus an SVD R = q_r diag(s) z^T.

    H is kept as its reflectors (h, tau), applied by ``_reflect``.  Returns
    (h, tau), q_r, s, z^T and the seconds of the two stages; for a tall V
    only the QR grows with its rows.
    """
    t0 = time.perf_counter()
    # geqrf's blocking depends on lwork, so take the size its query returns
    lwork = int(lapack.dgeqrf(V, lwork=-1)[2][0])
    h, tau, _, info = lapack.dgeqrf(V, lwork=lwork)
    lapack_info("dgeqrf", info)
    R = np.triu(h if V.shape[0] < V.shape[1] else h[: V.shape[1]])
    # the QR of a tall V evicts LAPACK's SVD code from the caches; reloading it
    # on a 2 x 2 charges that to the QR, so the SVD's time follows R's size
    np.linalg.svd(np.eye(2))
    t1 = time.perf_counter()
    q_r, s, zt = np.linalg.svd(R, full_matrices=False)
    return (h, tau), q_r, s, zt, (t1 - t0, time.perf_counter() - t1)


def _reflect(h, tau, X):
    """H X for the reflectors (h, tau) of a raw QR and a matrix X."""
    h = h[:, : tau.size]  # a wide QR has fewer reflectors
    lwork = int(lapack.dormqr("L", "N", h, tau, X, lwork=-1)[1][0])
    out, _, info = lapack.dormqr("L", "N", h, tau, X, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(f"dormqr failed with info {info}")
    return out


def apply_qr_inverse(f: FeatureFactor, v):
    """(A A^T + mu I)^{-1} v."""
    w, perp = f._project(v)
    core = f.q1 @ (w / (f.sing**2 + f.mu))
    return core if perp is None else core + perp / f.mu


def ridge_coefficients(f: FeatureFactor, v):
    """A^T (A A^T + mu I)^{-1} v: A^T annihilates the complement, which is never formed."""
    w, _ = f._project(v, complement=False)
    return f.v1 @ (w * f.sing / (f.sing**2 + f.mu))


# ---------------------------------------------------------------------------
# point-local matrices plus a low-rank term: the feature-side inner solve


class ArrowCholesky:
    """Cholesky factor L of S = [[D, C], [C^T, E]], D block diagonal in point blocks.

    D is given as groups of (n, p, p) blocks, one p x p block per point, its
    rows point-major and the groups in order; C (rows of D x k_e) couples
    them to k_e trailing dense rows whose own block is E.  Factoring costs
    O(n p^3) for D plus O(rows k_e^2) for the arrow; a block that is not
    positive definite raises ``numpy.linalg.LinAlgError``.
    """

    def __init__(self, groups, C: np.ndarray, E: np.ndarray):
        # inverse lower Cholesky factor of each point block
        self.inv = [np.linalg.inv(np.linalg.cholesky(g)) for g in groups]
        self.n_d = sum(g.shape[0] * g.shape[1] for g in groups)
        self.G = self._block_apply(C, transpose=False)  # L_D^{-1} C
        self.L_e = np.linalg.cholesky(E - self.G.T @ self.G)

    def _block_apply(self, X, transpose: bool):
        """L_D^{-1} X, or L_D^{-T} X, for X with the rows of D."""
        out, lo = [], 0
        for inv in self.inv:
            n, p, _ = inv.shape
            Xg = X[lo : lo + n * p].reshape(n, p, -1)
            Og = (inv.transpose(0, 2, 1) if transpose else inv) @ Xg
            out.append(Og.reshape(n * p, *X.shape[1:]))
            lo += n * p
        return np.concatenate(out)

    def solve_l(self, X):
        """L^{-1} X for X with the rows of S (a vector or a matrix)."""
        top = self._block_apply(X[: self.n_d], transpose=False)
        bottom = X[self.n_d :] - self.G.T @ top
        if bottom.shape[0]:
            bottom = solve_triangular(self.L_e, bottom, lower=1)
        return np.concatenate([top, bottom])

    def solve_lt(self, X):
        """L^{-T} X for X with the rows of S (a vector or a matrix)."""
        bottom = X[self.n_d :]
        if bottom.shape[0]:
            bottom = solve_triangular(self.L_e, bottom, lower=1, trans=1)
        top = self._block_apply(X[: self.n_d] - self.G @ bottom, transpose=True)
        return np.concatenate([top, bottom])


def low_rank_update_solve(chol: ArrowCholesky, U: np.ndarray, c: np.ndarray):
    """y = (S + U U^T)^{-1} c and U^T y, with S = L L^T and U of size r x k, k < r.

    Woodbury's identity on the whitened rows V = L^{-1} U and x = L^{-1} c:
    with t = (I + V^T V)^{-1} V^T x, y = L^{-T} (x - V t) and U^T y = t
    exactly.  The k x k capacitance matrix I + V^T V has every eigenvalue
    >= 1, so it is factored by Cholesky (``cholesky_solve``); nothing of
    size r x k is formed beyond V.  Costs O(r k^2) for V^T V plus O(k^3).  A
    non-finite V, x or y raises ``FloatingPointError``; a capacitance
    Cholesky that fails in rounding (possible only when cond(I + V^T V)
    nears 1/eps) or whose factor or solution is not finite, as when V^T V
    overflows, raises ``numpy.linalg.LinAlgError``.  There is no fallback.
    """
    V = chol.solve_l(U)
    x = chol.solve_l(c)
    if not (np.all(np.isfinite(V)) and np.all(np.isfinite(x))):
        raise FloatingPointError("the whitened inner system is not finite")
    # an overflow (and the inf - inf it leads to) is reported by cholesky_solve's checks
    with np.errstate(over="ignore", invalid="ignore"):
        cap = V.T @ V
    cap.reshape(-1)[:: cap.shape[0] + 1] += 1.0
    t = cholesky_solve(cap, V.T @ x, "capacitance matrix I + V^T V")
    y = chol.solve_lt(x - V @ t)
    if not np.all(np.isfinite(y)):
        raise FloatingPointError("the inner solve is not finite")
    return y, t
