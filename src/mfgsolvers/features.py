"""Fourier feature bases and analytic operator action on features.

Two flavours: deterministic integer-frequency trigonometric bases on the
torus (``build_periodic``), and orthogonal random Fourier features for the
space-time strip.  Every feature is scale * trig(omega . x) with trig in
{sin, cos}, so linear differential operators act by cycling the trig
function and multiplying by frequency components, and the smoothing
operator (1 - Lap)^{-2} acts diagonally since the features are its
eigenfunctions.  Both come from ``kernels.op_symbol``, the one description
of what an operator does to a Fourier mode, which the GP spectrum reads too.

Both evaluators read one table, [sin | cos] of the points against the
distinct frequency rows (the sin and cos features of a pair share a row),
and one rule, ``_turned``: under an operator each feature is a signed
multiple of one column of that table.  The solve gathers those columns into
the feature matrices (``eval_feature_op``).  A field, a fixed combination
of the features, never needs them: each operator folds into one weight per
column (``_sum_weights``), and ``eval_feature_sum`` evaluates every operator
at scattered points as one product of a chunk's table with those weights
(the random-features identity).  On a tensor grid, ``eval_feature_grid``
takes the table per axis instead and joins the axes by angle addition, one
GEMM per operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .errors import UnsupportedOperator

SIN = 0
COS = 1


@dataclass(frozen=True)
class FeatureBasis:
    """A finite trigonometric dictionary.

    frequencies holds the angular frequency vector of each feature (rows,
    shape (count, dim)); the constant feature is cos at zero frequency.
    """

    axes: tuple  # axis names of the points, in coordinate order
    frequencies: np.ndarray
    phases: np.ndarray  # SIN or COS per feature
    scales: np.ndarray
    periodic: bool

    @property
    def count(self) -> int:
        return self.frequencies.shape[0]

    @property
    def dim(self) -> int:
        return self.frequencies.shape[1]


def build_periodic(N: int, dim: int) -> FeatureBasis:
    """Constant plus sin and cos of 2 pi a.x on the dim-torus, (2N+1)^dim features.

    The modes a are one of each pair +-a with every |a_d| <= N, those whose
    first nonzero entry is positive, in lexicographic order; all sin
    features come first, then all cos.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    grid = np.array(list(itertools.product(range(-N, N + 1), repeat=dim)), dtype=float)
    first = grid[np.arange(grid.shape[0]), np.argmax(grid != 0, axis=1)]
    modes = grid[first > 0]
    n = modes.shape[0]
    freqs = np.vstack([np.zeros((1, dim)), modes, modes]) * 2.0 * np.pi
    phases = np.concatenate([[COS], np.full(n, SIN), np.full(n, COS)]).astype(int)
    return FeatureBasis(
        axes=("x", "y")[:dim],
        frequencies=freqs,
        phases=phases,
        scales=np.ones(2 * n + 1),
        periodic=True,
    )


@dataclass(frozen=True)
class RandomFeatureSampler:
    """Deterministic source of orthogonal random frequencies W = S Q / varsigma."""

    dimension: int
    varsigma: float
    seed: int

    def sample_w(self, n_pairs: int) -> np.ndarray:
        """Frequency rows; stacks independent orthogonal blocks when n_pairs > d."""
        d = self.dimension
        rng = np.random.default_rng(self.seed)
        blocks = []
        for _ in range((n_pairs + d - 1) // d):
            G = rng.standard_normal((d, d))
            Q, R = np.linalg.qr(G)
            Q = Q * np.sign(np.diag(R))[None, :]  # Haar-fix the sign ambiguity
            s = np.sqrt(rng.chisquare(d, size=d))
            blocks.append((s[:, None] * Q) / self.varsigma)
        return np.vstack(blocks)[:n_pairs]


def sample_orthogonal_features(sampler: RandomFeatureSampler, n_pairs: int) -> FeatureBasis:
    """Paired sin/cos features sharing each frequency row, scaled sqrt(2/N)."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    W = sampler.sample_w(n_pairs)
    n = 2 * n_pairs
    freqs = np.repeat(W, 2, axis=0)
    phases = np.tile([SIN, COS], n_pairs).astype(int)
    return FeatureBasis(
        axes=("t", "x"),
        frequencies=freqs,
        phases=phases,
        scales=np.full(n, np.sqrt(2.0 / n)),
        periodic=False,
    )


# ---------------------------------------------------------------------------
# operator action

def _axis_index(basis: FeatureBasis, op: str) -> int:
    """The one axis a single-axis derivative ``op`` acts along."""
    terms = K.op_terms(basis.axes, op)
    axes = [a for orders in terms for a, k in enumerate(orders) if k]
    if len(axes) != 1:
        raise UnsupportedOperator(f"operator {op!r} does not act along one axis")
    return axes[0]


def _as_points(basis: FeatureBasis, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != basis.dim:
        raise UnsupportedOperator(
            f"points of dimension {X.shape[1]} on a basis of dimension {basis.dim}"
        )
    return X


def _op_action(basis: FeatureBasis, op: str):
    """``op`` on the features: (quarter turns, multiplier, divisor), per feature.

    ``kernels.op_symbol`` at each feature's frequency: the factor i^order
    of a derivative advances the trig pair order quarter turns
    (sin -> cos -> -sin -> -cos), and the smoothing operator, diagonal in
    the frequency, needs a periodic basis.
    """
    if op == K.J5 and not basis.periodic:
        raise UnsupportedOperator("smoothing operator requires a periodic basis")
    return K.op_symbol(basis.axes, op, basis.frequencies)


# points per chunk of ``eval_feature_sum``, which serves scattered points
# only (a tensor grid goes through ``eval_feature_grid``): its buffers are
# 3 x _SUM_CHUNK x (distinct frequencies) float64, 14.7 MB for planning's
# 1200 frequency rows.  On its 2000 held-out points with u's four operators
# (2-vCPU Xeon VM, one BLAS thread, best of 5) 128 to 1024 took 117 to 123
# ms, within noise, and 2048 took 138 ms.
_SUM_CHUNK = 512

# sin and cos parts of sin advanced by q quarter turns: sin, cos, -sin, -cos
_SIN_PART = np.array([1.0, 0.0, -1.0, 0.0])
_COS_PART = np.array([0.0, 1.0, 0.0, -1.0])


def _distinct_rows(basis: FeatureBasis):
    """The distinct frequency rows Omega of the basis and the row of each feature."""
    freqs, index = np.unique(basis.frequencies, axis=0, return_inverse=True)
    return freqs, index.reshape(-1)


def _turned(basis: FeatureBasis, op: str, index, k: int):
    """``op`` on each feature: (column, sign, mult, div).

    The sin or the cos part of each feature under ``op`` is zero, so it is
    sign mult / div scale times one column of [sin | cos](X Omega^T).
    """
    shift, mult, div = _op_action(basis, op)
    q = (basis.phases + shift) % 4
    column = np.where(_COS_PART[q] == 0.0, index, index + k)
    return column, _SIN_PART[q] + _COS_PART[q], mult, div


def _trig_table(X, freqs, theta, out):
    """[sin | cos](X Omega^T) into ``out``, through the scratch ``theta``."""
    np.sin(np.matmul(X, freqs.T, out=theta), out=out[:, : freqs.shape[0]])
    np.cos(theta, out=out[:, freqs.shape[0] :])
    return out


def eval_feature_op(basis: FeatureBasis, op: str, X) -> np.ndarray:
    """(n_points, count) matrix of ``op`` applied to each feature at each point of X.

    sin and cos are taken once per distinct frequency row, and each feature
    gathers its column of that table (``_turned``); the matrix is C-ordered.
    """
    X = _as_points(basis, X)
    freqs, index = _distinct_rows(basis)
    n, k = X.shape[0], freqs.shape[0]
    trig = _trig_table(X, freqs, np.empty((n, k)), np.empty((n, 2 * k)))
    column, sign, mult, div = _turned(basis, op, index, k)
    return np.take(trig, column, axis=1) * (sign * mult) / div * basis.scales


def _sum_weights(basis: FeatureBasis, coeffs, ops, index, k: int) -> np.ndarray:
    """(2k, len(ops)): each of ``ops`` on sum_j coeffs_j zeta_j, as [sin | cos] column weights.

    Each feature under an operator is a signed multiple of one column of
    the table (``_turned``), so the features folded onto a column add up to
    its weight.
    """
    weights = np.zeros((2 * k, len(ops)))
    for j, op in enumerate(ops):
        column, sign, mult, div = _turned(basis, op, index, k)
        np.add.at(weights[:, j], column, coeffs * basis.scales * mult / div * sign)
    return weights


def eval_feature_sum(basis: FeatureBasis, coeffs, ops, X) -> np.ndarray:
    """(n_points, len(ops)): each of ``ops`` applied to sum_j coeffs_j zeta_j at X.

    Every operator is one GEMM of the [sin | cos](X Omega^T) table with its
    column weights (``_sum_weights``) per chunk of ``_SUM_CHUNK`` points; no
    points x features matrix is formed.
    """
    X = _as_points(basis, X)
    freqs, index = _distinct_rows(basis)
    k = freqs.shape[0]
    weights = _sum_weights(basis, coeffs, ops, index, k)
    n = X.shape[0]
    out = np.empty((n, len(ops)))
    theta = np.empty((min(n, _SUM_CHUNK), k))
    trig = np.empty((theta.shape[0], 2 * k))
    for lo in range(0, n, _SUM_CHUNK):
        c = min(_SUM_CHUNK, n - lo)
        _trig_table(X[lo : lo + c], freqs, theta[:c], trig[:c])
        np.matmul(trig[:c], weights, out=out[lo : lo + c])
    return out


def eval_feature_grid(basis: FeatureBasis, coeffs, ops, nodes) -> np.ndarray:
    """``eval_feature_sum`` on the tensor grid of ``nodes``, one float array per axis.

    Rows follow ``np.meshgrid(*nodes, indexing="ij")`` raveled.  In 2D,
    sin and cos are taken per axis, S_d and C_d of the axis's nodes against
    each distinct frequency row's component d, and by angle addition the
    weights ws, wc of the sin and cos columns give the grid as one GEMM per
    operator: [S_1 C_1] [(ws C_2 - wc S_2)^T; (ws S_2 + wc C_2)^T].  In 1D
    the grid is its nodes, evaluated as points.
    """
    if len(nodes) != basis.dim:
        raise UnsupportedOperator(f"{len(nodes)} grid axes on a basis of dimension {basis.dim}")
    if basis.dim == 1:
        return eval_feature_sum(basis, coeffs, ops, nodes[0][:, None])
    freqs, index = _distinct_rows(basis)
    k = freqs.shape[0]
    weights = _sum_weights(basis, coeffs, ops, index, k)
    theta1, theta2 = (np.multiply.outer(x, w) for x, w in zip(nodes, freqs.T))
    s1, c1, s2, c2 = np.sin(theta1), np.cos(theta1), np.sin(theta2), np.cos(theta2)
    left = np.hstack([s1, c1])
    out = np.empty((len(ops), s1.shape[0], s2.shape[0]))
    for j in range(len(ops)):
        ws, wc = weights[:k, j], weights[k:, j]
        right = np.hstack([ws * c2 - wc * s2, ws * s2 + wc * c2])
        np.matmul(left, right.T, out=out[j])
    return out.reshape(len(ops), -1).T
