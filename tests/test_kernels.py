"""Kernel closed forms against finite-difference and spectral oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgsolvers import kernels as K
from mfgsolvers.errors import (
    BadGrid,
    DimensionMismatch,
    UnsupportedOperator,
    UnsupportedOperatorPair,
)

RNG = np.random.default_rng(42)

KERNELS = {
    "p1": K.periodic_kernel_1d(0.6),
    "p2": K.periodic_kernel_2d(0.5),
    "aniso": K.anisotropic_kernel(1.0 / np.sqrt(5.0), 1.0 / np.sqrt(2.0)),
}

OP_TABLE = {
    "p1": (K.ID, K.DX, K.DXX),
    "p2": (K.ID, K.DX, K.DY, K.DXX, K.LAP),
    "aniso": (K.ID, K.DT, K.DX, K.DXX),
}


def _rand_pts(kernel, n):
    return RNG.random((n, kernel.dim))


# -- basic algebraic properties ---------------------------------------------

unit = st.floats(0.0, 1.0, allow_nan=False)


@given(x=unit, y=unit, sigma=st.floats(0.2, 2.0))
@settings(max_examples=50, deadline=None)
def test_periodic_1d_symmetry_and_periodicity(x, y, sigma):
    k = K.periodic_kernel_1d(sigma)
    v = K.eval(k, [x], [y])
    assert np.isclose(v, K.eval(k, [y], [x]), rtol=0, atol=1e-14)
    assert np.isclose(v, K.eval(k, [x + 1.0], [y]), rtol=0, atol=1e-12)
    assert K.eval(k, [x], [x]) == pytest.approx(1.0)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_op_matrix_adjoint_symmetry(data):
    """(L x R) K(X, Y) equals the transpose of (R x L) K(Y, X)."""
    name = data.draw(st.sampled_from(sorted(KERNELS)))
    k = KERNELS[name]
    left = data.draw(st.sampled_from(OP_TABLE[name]))
    right = data.draw(st.sampled_from(OP_TABLE[name]))
    X = _rand_pts(k, 4)
    Y = _rand_pts(k, 3)
    A = K.pairwise_op_matrix(k, left, right, X, Y)
    B = K.pairwise_op_matrix(k, right, left, Y, X)
    np.testing.assert_allclose(A, B.T, rtol=0, atol=1e-9)


def test_plain_gram_is_symmetric_psd():
    for k in KERNELS.values():
        X = _rand_pts(k, 40)
        G = K.pairwise_matrix(k, X, X)
        np.testing.assert_allclose(G, G.T, atol=1e-14)
        w = np.linalg.eigvalsh(G)
        assert w.min() > -1e-10


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        K.eval(KERNELS["p1"], [0.1, 0.2], [0.3, 0.4])
    with pytest.raises(DimensionMismatch):
        K.pairwise_matrix(KERNELS["p2"], np.zeros((3, 1)), np.zeros((3, 1)))


def test_unknown_operator_raises():
    with pytest.raises(UnsupportedOperator):
        K.pairwise_op_matrix(KERNELS["p1"], "grad", K.ID, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(UnsupportedOperator):
        # time derivative makes no sense on the periodic 1D kernel
        K.pairwise_op_matrix(KERNELS["p1"], K.DT, K.ID, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(UnsupportedOperatorPair):
        K.eval_with_ops(KERNELS["p2"], K.J5, K.ID, [0.1, 0.2], [0.3, 0.4])


# -- derivative formulas against finite differences -------------------------

def test_derivative_closed_forms_match_finite_differences():
    """100 random kernel/operator/point configurations, relative error < 1e-4."""
    rng = np.random.default_rng(7)
    checked = 0
    worst = 0.0
    while checked < 100:
        name = rng.choice(sorted(KERNELS))
        k = KERNELS[name]
        ops = OP_TABLE[name]
        left = ops[rng.integers(len(ops))]
        right = ops[rng.integers(len(ops))]
        x = rng.random(k.dim)
        y = rng.random(k.dim)
        err = K.finite_diff_check(k, left, right, x, y, step=1e-3)
        worst = max(worst, err)
        checked += 1
    assert worst < 1e-4, f"worst relative derivative error {worst:.3e}"


def test_profile_derivatives_match_numeric():
    # high-order profile formulas against numpy gradient on a fine grid
    r = np.linspace(-0.5, 0.5, 20001)
    h = r[1] - r[0]
    for sigma in (0.3, 0.6):
        derivs = K._periodic_profile_derivs(r, sigma, 4)
        for order in range(1, 5):
            numeric = np.gradient(derivs[order - 1], h, edge_order=2)
            err = np.max(np.abs(numeric[100:-100] - derivs[order][100:-100]))
            scale = np.max(np.abs(derivs[order])) + 1.0
            assert err / scale < 1e-5, (sigma, order)
        gder = K._gauss_profile_derivs(r, sigma, 4)
        for order in range(1, 5):
            numeric = np.gradient(gder[order - 1], h, edge_order=2)
            err = np.max(np.abs(numeric[100:-100] - gder[order][100:-100]))
            scale = np.max(np.abs(gder[order])) + 1.0
            assert err / scale < 1e-5, (sigma, order)


# -- spectral nonlocal path --------------------------------------------------

def test_nonlocal_identity_matches_closed_form():
    """With no smoothing applied the spectral series reproduces the kernel."""
    k = KERNELS["p2"]
    X = _rand_pts(k, 5)
    Y = _rand_pts(k, 5)
    coeffs = K._profile_coeff_grid(k.lengthscales[0], k.n_modes)
    spectral = K.nonlocal_from_coeffs(coeffs, K.ID, K.ID, X, Y, k.n_modes)
    direct = K.pairwise_matrix(k, X, Y)
    np.testing.assert_allclose(spectral, direct, atol=1e-12)


@pytest.mark.parametrize("name", ["p1", "p2"])
def test_direct_sum_matches_every_closed_form_pair(name):
    """The direct sum takes its dimension from the coefficients, 1D or 2D, and
    on random points meets the closed form of every local operator pair
    within SPECTRAL_TAIL_TOL of the pair's largest entry."""
    k = KERNELS[name]
    X, Y = _rand_pts(k, 9), _rand_pts(k, 7)
    coeffs = K._coeff_grid(k)
    assert coeffs.ndim == k.dim
    for left in OP_TABLE[name]:
        for right in OP_TABLE[name]:
            spectral = K.nonlocal_from_coeffs(coeffs, left, right, X, Y, k.n_modes)
            closed = K.pairwise_op_matrix(k, left, right, X, Y)
            bound = K.SPECTRAL_TAIL_TOL * np.abs(closed).max()
            np.testing.assert_allclose(spectral, closed, rtol=0, atol=bound, err_msg=(left, right))


def test_nonlocal_brute_force_oracle():
    """J5 blocks of the run path against an explicit mode-by-mode double sum."""
    k = K.periodic_kernel_2d(0.5)
    n = k.n_modes
    x = np.array([0.37, 0.81])
    y = np.array([0.12, 0.55])
    a = np.fft.fftfreq(n, 1.0 / n)
    coeffs = K._profile_coeff_grid(0.5, n)
    total = 0.0
    for i in range(n):
        for j in range(n):
            mult = 1.0 / (1.0 + 4.0 * np.pi**2 * (a[i] ** 2 + a[j] ** 2)) ** 2
            phase = np.exp(2.0j * np.pi * (a[i] * (x[0] - y[0]) + a[j] * (x[1] - y[1])))
            total += np.real(coeffs[i, j] * mult * phase)
    mine = K.pairwise_op_matrix(k, K.ID, K.J5, x[None, :], y[None, :])[0, 0]
    assert mine == pytest.approx(total, abs=1e-12)


def test_nonlocal_smoothing_fixed_point_of_constant():
    """The smoothing operator leaves the constant mode untouched."""
    k = K.periodic_kernel_2d(0.5)
    X = _rand_pts(k, 3)
    # J5 twice on the profile: mean value over the torus is preserved
    v1 = K.pairwise_op_matrix(k, K.J5, K.ID, X[:1], X[1:2])[0, 0]
    v2 = K.pairwise_op_matrix(k, K.J5, K.J5, X[:1], X[1:2])[0, 0]
    coeffs = K._profile_coeff_grid(0.5, k.n_modes)
    mean = float(np.real(coeffs[0, 0]))
    # smoothing contracts everything except the mean toward it
    assert abs(v2 - mean) <= abs(v1 - mean) + 1e-12


def test_j5_requires_the_2d_kernel_and_valid_modes():
    with pytest.raises(UnsupportedOperator):
        K.pairwise_op_matrix(KERNELS["p1"], K.J5, K.ID, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(UnsupportedOperator):
        KERNELS["aniso"].n_modes
    coeffs = np.ones((10, 10))
    with pytest.raises(BadGrid):
        K.nonlocal_from_coeffs(coeffs, K.J5, K.ID, [0.1, 0.2], [0.3, 0.4], 10)


def test_nonlocal_cross_consistent_with_derivative_riding_along():
    """d/dx1 of the smoothed kernel via modes matches a central difference."""
    k = K.periodic_kernel_2d(0.5)
    x = np.array([[0.3, 0.7]])
    y = np.array([[0.6, 0.2]])
    h = 1e-5
    step = np.array([[h, 0.0]])
    smoothed = K.pairwise_op_matrix(k, K.ID, K.J5, np.vstack([x + step, x - step]), y)[:, 0]
    fd = (smoothed[0] - smoothed[1]) / (2.0 * h)
    exact = K.pairwise_op_matrix(k, K.DX, K.J5, x, y)[0, 0]
    assert exact == pytest.approx(fd, abs=1e-8)


# -- the mode count a periodic kernel derives from sigma ----------------------

@pytest.mark.parametrize("sigma, n", [(0.6, 40), (0.5, 46), (0.35, 60), (10.0, 16)])
def test_mode_count_is_the_smallest_that_passes_the_tail_bound(sigma, n):
    """The bundled sigmas derive 40, 46 and 60 modes: each passes the tail
    bound and n - 2 does not.  A wide kernel takes the least count, 16."""
    assert K.periodic_kernel_1d(sigma).n_modes == K.periodic_kernel_2d(sigma).n_modes == n
    assert K.spectral_tail_ratio(sigma, n) <= K.SPECTRAL_TAIL_TOL
    if n > 16:
        assert K.spectral_tail_ratio(sigma, n - 2) > K.SPECTRAL_TAIL_TOL


def test_mode_count_past_the_limit_is_rejected_naming_sigma():
    """A sigma whose count passes MAX_MODES is rejected: at once when 2/sigma
    does, after a bounded search when only the count does."""
    for sigma in (1e-5, 1e-150, 4e-4):
        with pytest.raises(BadGrid, match="^sigma: "):
            K.periodic_kernel_2d(sigma).n_modes
    assert K.spectral_tail_ratio(4e-4, K.MAX_MODES) > K.SPECTRAL_TAIL_TOL


# -- exact spectrum and the mode-feature J5 blocks ----------------------------

@pytest.mark.parametrize("sigma", [0.35, 0.5, 0.6, 1.0, 3.0])
def test_exact_profile_coefficients(sigma):
    """c_a = exp(-q) I_|a|(q): nonnegative, summing to g(0) = 1, equal to the
    FFT of the sampled profile at low modes and to scipy's ive everywhere."""
    from scipy.special import ive

    n = 64
    c = K._profile_coeffs_1d(sigma, n)
    a = np.fft.fftfreq(n, 1.0 / n)
    assert np.all(c >= 0.0)
    assert np.sum(c) == pytest.approx(1.0, abs=1e-15)
    g = np.arange(n) / n
    fft = np.fft.fft(np.exp((np.cos(2.0 * np.pi * g) - 1.0) / sigma**2)).real / n
    low = np.abs(a) <= 12
    np.testing.assert_allclose(c[low], fft[low], rtol=0, atol=1e-15)
    ref = ive(np.abs(a), 1.0 / sigma**2)
    np.testing.assert_allclose(c, ref, rtol=1e-13, atol=0)


def test_spectral_tail_ratio_weights_the_fourth_derivative_symbol():
    """The weighted tail passes the bundled lengthscales at 64 modes and
    rejects kernels the grid does not resolve."""
    from scipy.special import ive

    for sigma in (0.35, 0.5, 0.6):
        assert K.spectral_tail_ratio(sigma, 64) <= 1e-12
    assert K.spectral_tail_ratio(0.2, 64) > 1e-12
    assert K.spectral_tail_ratio(0.2, 128) < K.spectral_tail_ratio(0.2, 64)
    # past 1/sigma^2 = (n/2)^2 the ratio is 1 without a recurrence: c_{n/2} > c_0 / 2 there
    assert K.spectral_tail_ratio(0.05, 16) == 1.0
    assert K.spectral_tail_ratio(1e-150, 64) == 1.0
    for half in (8, 32):
        assert ive(half, float(half**2)) > 0.5 * ive(0, float(half**2))


def _lattice(t, x):
    a, b = np.meshgrid(t, x, indexing="ij")
    return np.stack([a.ravel(), b.ravel()], axis=1)


@pytest.mark.parametrize("points", ["lattice", "two_lattices", "random"])
def test_nonlocal_cross_matrix_matches_direct_sum(points):
    """J5 blocks against the direct DFT at the kernel's own mode count, every
    (op, J5) and (J5, op), all by the mode-feature GEMM: one lattice as both
    sets, two different lattices, and random points."""
    k = K.periodic_kernel_2d(0.5)
    if points == "lattice":
        X = Y = _lattice(np.arange(6) / 6.0, np.arange(6) / 6.0)
    elif points == "two_lattices":
        X = _lattice(np.arange(6) / 6.0, np.arange(6) / 6.0)
        Y = _lattice(0.05 + np.arange(4) / 4.0, 0.3 + np.arange(5) / 5.0)
    else:
        rng = np.random.default_rng(3)
        X, Y = rng.random((23, 2)), rng.random((17, 2))
    n = k.n_modes
    coeffs = K._profile_coeff_grid(0.5, n)
    for op in (K.ID, K.DX, K.DY, K.LAP, K.J5):
        for left, right in ((op, K.J5), (K.J5, op)):
            fast = K.pairwise_op_matrix(k, left, right, X, Y)
            direct = K.nonlocal_from_coeffs(coeffs, left, right, X, Y, n)
            np.testing.assert_allclose(
                fast, direct, rtol=0, atol=1e-12 * np.max(np.abs(direct)), err_msg=(left, right)
            )


# -- blocks gathered from tables over distinct coordinates --------------------

def _planning_pair():
    """Planning's lattice plus slices, and a chunk of its 64 x 512 export grid
    that straddles two time rows."""
    from mfgsolvers import collocation as C
    from mfgsolvers.pipeline import PROBLEMS

    pts = C.sample_planning_grid(24, 4, 4)
    grid = PROBLEMS["planning"].grid()
    return grid[500:524], np.vstack([pts.interior, pts.boundary])


@pytest.mark.parametrize("case", ["torus", "planning"])
def test_local_blocks_with_repeated_coordinates_equal_pointwise_values(case):
    """Each entry of every local operator pair's block, gathered from per-axis
    tables over distinct coordinates, is bit for bit the value of the pair
    evaluated at that single pair of points; both sets of each pair repeat
    coordinates on one side or both, so a wrong gather index shows."""
    if case == "torus":
        name = "p2"
        lattice = _lattice(np.arange(4) / 4.0, np.arange(4) / 4.0)
        pairs = ((lattice, RNG.random((7, 2))), (RNG.random((5, 2)), lattice))
    else:
        name = "aniso"
        pairs = (_planning_pair(),)
    k, ops = KERNELS[name], OP_TABLE[name]
    for X, Y in pairs:
        tables = K.CrossTables(k, X, Y, ops, ops)
        for left in ops:
            for right in ops:
                block = tables.op_matrix(left, right)
                pointwise = [[K.eval_with_ops(k, left, right, x, y) for y in Y] for x in X]
                np.testing.assert_array_equal(block, pointwise, err_msg=(left, right))


@pytest.mark.parametrize("sigma, n_modes", [(0.6, 40), (0.5, 46), (0.35, 60)])
@pytest.mark.parametrize("points", ["random", "lattice"])
def test_axis_exponentials_equal_numpy_exp(sigma, n_modes, points):
    """The columns of modes -a, conjugates of those of a, and the 0 and
    Nyquist columns give the table np.exp builds, bit for bit."""
    k = K.periodic_kernel_2d(sigma)
    assert k.n_modes == n_modes
    if points == "random":
        X = RNG.random((300, 2))
    else:
        X = _lattice(np.arange(20) / 20.0, np.arange(20) / 20.0)
    for d, (table, index) in enumerate(K._axis_exponentials(k, X)):
        u = np.unique(X[:, d])
        assert np.array_equal(table, np.exp(2j * np.pi * np.outer(u, K._mode_axis(n_modes))))
        assert np.array_equal(u[index], X[:, d])


# -- one symbol per operator: op_symbol against hand-written formulas --------

def _reference_symbol(op, a1, a2, side):
    """Per-mode symbol of each tag on exp(2 pi i a.(x - y)), written out by hand: the oracle."""
    sgn = 1.0 if side == "left" else -1.0
    two_pi_i = 2.0j * np.pi
    return {
        K.ID: np.ones_like(a1, dtype=complex),
        K.DX: sgn * two_pi_i * a1,
        K.DY: sgn * two_pi_i * a2,
        K.DXX: -4.0 * np.pi**2 * a1**2 + 0.0j,
        K.LAP: -4.0 * np.pi**2 * (a1**2 + a2**2) + 0.0j,
        K.J5: 1.0 / (1.0 + 4.0 * np.pi**2 * (a1**2 + a2**2)) ** 2 + 0.0j,
    }[op]


TORUS_OPS = (K.ID, K.DX, K.DY, K.DXX, K.LAP, K.J5)


@pytest.mark.parametrize("side", ["left", "right"])
def test_mode_symbols_equal_the_hand_written_formulas(side):
    """The derived symbol of every torus tag equals the reference bit for bit,
    on the 1D and 2D mode grids and on the half modes of the J5 GEMM."""
    k1, k2 = KERNELS["p1"], KERNELS["p2"]
    a = K._mode_axis(k1.n_modes)
    for op in (K.ID, K.DX, K.DXX, K.LAP):  # LAP is DXX on one axis
        want = _reference_symbol(op, a, np.zeros_like(a), side)
        got = np.broadcast_to(K._mode_symbol(k1, op, side), a.shape)
        np.testing.assert_array_equal(got, want, err_msg=op)
    a1, a2 = np.moveaxis(K._mode_grid(k2.n_modes), -1, 0)
    _, half_modes, _ = K._half_modes(k2.n_modes)
    h1, h2 = half_modes.T
    for op in TORUS_OPS:
        got = np.broadcast_to(K._mode_symbol(k2, op, side), a1.shape)
        np.testing.assert_array_equal(got, _reference_symbol(op, a1, a2, side), err_msg=op)
        half = np.broadcast_to(K._symbol(k2.axes, op, np.stack([h1, h2], axis=1), side), h1.shape)
        np.testing.assert_array_equal(half, _reference_symbol(op, h1, h2, side), err_msg=op)
    for k, op in ((k1, K.J5), (k1, K.DY), (k2, K.DT), (k2, "grad")):
        with pytest.raises(UnsupportedOperator):
            K._mode_symbol(k, op, side)


def _direct_mode_sum(W, op, X):
    """Re sum_a mult_op(a) W[a] exp(2 pi i a.x) over the full n x n grid, term by term."""
    a1, a2 = np.moveaxis(K._mode_grid(W.shape[0]), -1, 0)
    phase = np.exp(2j * np.pi * (X[:, 0, None, None] * a1 + X[:, 1, None, None] * a2))
    return np.real(np.sum(_reference_symbol(op, a1, a2, "left") * W * phase, axis=(1, 2)))


@pytest.mark.parametrize("n", [8, 46])
@pytest.mark.parametrize("support", ["nyquist", "full"])
def test_mode_weight_evaluation_folds_the_first_axis_exactly(n, support):
    """The half-spectrum evaluation equals the direct sum over the whole grid.

    "nyquist" weights live only on the row a_1 = -n/2 and the column
    a_2 = -n/2, whose modes have no partner on the grid; a bundled kernel's
    Nyquist coefficients are 1e-12 of its peak, so a field test cannot see
    how they are weighted.  "full" weights are random everywhere and not
    conjugate-symmetric, as a field's are only up to round-off.
    """
    rng = np.random.default_rng(n)
    W = np.zeros((n, n), dtype=complex)
    every = slice(None)
    parts = [(every, every)] if support == "full" else [(n // 2, every), (every, n // 2)]
    for sl in parts:
        W[sl] = rng.standard_normal(W[sl].shape) + 1j * rng.standard_normal(W[sl].shape)
    X = rng.random((300, 2))
    got = K.eval_mode_weights(KERNELS["p2"], W, TORUS_OPS, X)
    for j, op in enumerate(TORUS_OPS):
        want = _direct_mode_sum(W, op, X)
        np.testing.assert_allclose(
            got[:, j], want, rtol=0, atol=1e-13 * np.max(np.abs(want)), err_msg=op
        )


def test_mode_points_serve_every_call_at_their_mode_count():
    """Tables built once give the bits of tables built per call, and refuse
    weights of another mode count or dimension."""
    k = KERNELS["p2"]
    n = k.n_modes
    rng = np.random.default_rng(3)
    W = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = rng.random((600, 2))
    pts = K.mode_points(X, n)
    assert pts.size == 600 and pts.dim == 2
    np.testing.assert_array_equal(
        K.eval_mode_weights(k, W, TORUS_OPS, pts), K.eval_mode_weights(k, W, TORUS_OPS, X)
    )
    with pytest.raises(DimensionMismatch):
        K.eval_mode_weights(k, W[:-2, :-2], (K.ID,), pts)
    with pytest.raises(DimensionMismatch):
        K.eval_mode_weights(KERNELS["p1"], W[:, 0], (K.ID,), pts)


@pytest.mark.parametrize("dim", [1, 2])
def test_feature_action_is_the_gp_symbol(dim):
    """On a periodic basis, omega = 2 pi a: the feature action i^order mult / div
    equals the GP symbol at a, and advancing each trig function order quarter
    turns is multiplying exp(i omega.x) by i^order."""
    from mfgsolvers import features as F

    basis = F.build_periodic(4, dim)
    modes = np.rint(basis.frequencies / (2.0 * np.pi))
    X = RNG.random((6, dim))
    phase = np.exp(1j * (X @ basis.frequencies.T))
    sin = basis.phases == F.SIN
    for op in TORUS_OPS if dim == 2 else (K.ID, K.DX, K.DXX, K.LAP, K.J5):
        order, mult, div = F._op_action(basis, op)
        gp = K._symbol(basis.axes, op, modes, "left")
        np.testing.assert_allclose(1j**order * mult / div, gp, rtol=1e-14, atol=0, err_msg=op)
        wave = gp * phase  # op applied to exp(i omega.x)
        want = np.where(sin, wave.imag, wave.real)
        got = F.eval_feature_op(basis, op, X)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(), err_msg=op)
