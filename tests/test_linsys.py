"""Gram assembly, nugget regularization, and the two factorization paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgsolvers import collocation as C
from mfgsolvers import features as F
from mfgsolvers import kernels as K
from mfgsolvers import linsys as L
from mfgsolvers import problems as P
from mfgsolvers.errors import LengthMismatch, NotPositiveDefinite
from mfgsolvers.pipeline import default_drift, default_drift_dx, default_potential

SPEC_1D = P.make_1d_stationary(default_potential, default_drift, default_drift_dx)


def _small_factor(M=12, eta=1e-6):
    kernel = K.periodic_kernel_1d(0.6)
    pts = C.sample_uniform_grid(1, M)
    phi, _ = C.build_functionals(SPEC_1D, pts)
    return L.build_gram_factor(kernel, phi, eta), phi


def test_gram_is_exactly_symmetric():
    fac, _ = _small_factor()
    G = fac.regularized
    np.testing.assert_array_equal(G, G.T)


@pytest.mark.parametrize("problem", ["nonlocal2d", "planning"])
def test_gram_with_shared_tables_equals_per_block_assembly(problem):
    """Tables shared across blocks change no entry: each block equals its own
    pairwise_op_matrix (symmetrized on the diagonal), and the gram is exactly
    symmetric."""
    if problem == "nonlocal2d":
        spec, kernel = P.make_nonlocal_2d(1.0), K.periodic_kernel_2d(0.5)
        pts = C.sample_uniform_grid(2, 36)
    else:
        spec, kernel = P.make_planning(), K.anisotropic_kernel(0.45, 0.71)
        pts = C.sample_planning(3, 30, 8, 8)
    _, psi = C.build_functionals(spec, pts)
    G = L.assemble_gram(kernel, psi)
    np.testing.assert_array_equal(G, G.T)
    for i, (op_i, pts_i, _) in enumerate(psi.blocks):
        for j, (op_j, pts_j, _) in enumerate(psi.blocks):
            if j < i:
                continue
            B = K.pairwise_op_matrix(kernel, op_i, op_j, pts_i, pts_j)
            if i == j:
                B = 0.5 * (B + B.T)
            np.testing.assert_array_equal(G[psi.slices[i], psi.slices[j]], B, err_msg=(op_i, op_j))


def test_nugget_is_blockwise_constant_mean_diagonal():
    kernel = K.periodic_kernel_1d(0.6)
    pts = C.sample_uniform_grid(1, 9)
    phi, _ = C.build_functionals(SPEC_1D, pts)
    gram = L.assemble_gram(kernel, phi)
    r = L.build_nugget(gram, phi, eta=1.0)
    d = np.diag(gram)
    for sl in phi.slices:
        np.testing.assert_allclose(r[sl], np.mean(d[sl]))
    with pytest.raises(ValueError):
        L.build_nugget(gram, phi, eta=0.0)


def test_gram_factor_solve_is_the_inverse():
    fac, _ = _small_factor()
    rng = np.random.default_rng(0)
    v = rng.standard_normal(fac.size)
    np.testing.assert_allclose(fac.regularized @ fac.solve(v), v, atol=1e-6)


def test_quadratic_form_matches_dense_inverse():
    """v^T Q v against an explicit dense inverse, both factor kinds, <= 1e-9."""
    fac, _ = _small_factor(M=10, eta=1e-6)
    rng = np.random.default_rng(1)
    Qd = np.linalg.inv(fac.regularized)
    for _ in range(20):
        v = rng.standard_normal(fac.size)
        assert fac.quadratic_form(v) == pytest.approx(float(v @ Qd @ v), abs=1e-9, rel=1e-9)

    A = rng.standard_normal((30, 7))
    mu = 1e-3
    ff = L.qr_ridge_factor(A, mu)
    Qf = np.linalg.inv(A @ A.T + mu * np.eye(30))
    for _ in range(20):
        v = rng.standard_normal(30)
        assert ff.quadratic_form(v) == pytest.approx(float(v @ Qf @ v), abs=1e-9, rel=1e-9)


@given(st.integers(0, 10_000), st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_quadratic_form_scales_quadratically(seed, c):
    fac, _ = _small_factor(M=8)
    v = np.random.default_rng(seed).standard_normal(fac.size)
    assert fac.quadratic_form(c * v) == pytest.approx(c * c * fac.quadratic_form(v), rel=1e-9)


def test_not_positive_definite_reports_pivot():
    bad = np.diag([1.0, 1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefinite) as exc:
        L.cholesky_factor(bad)
    assert "3" in str(exc.value)


def test_length_mismatch_raises():
    fac, _ = _small_factor(M=8)
    with pytest.raises(LengthMismatch):
        fac.solve(np.zeros(5))
    ff = L.qr_ridge_factor(np.ones((4, 2)), 1.0)
    with pytest.raises(LengthMismatch):
        L.apply_qr_inverse(ff, np.zeros(5))
    with pytest.raises(ValueError):
        L.qr_ridge_factor(np.ones((4, 2)), 0.0)


# -- ridge identity ----------------------------------------------------------

def test_qr_ridge_identity_random_cases():
    """200 random shapes and ridges: QR path equals the dense solve, rel < 1e-8.

    The ridge range keeps the system condition number below ~1e6 so the
    dense reference itself is trustworthy at the tested tolerance.
    """
    rng = np.random.default_rng(123)
    worst = 0.0
    for trial in range(200):
        rows = int(rng.integers(2, 40))
        cols = int(rng.integers(1, 40))
        mu = float(10.0 ** rng.uniform(-4, 1))
        A = rng.standard_normal((rows, cols))
        fac = L.qr_ridge_factor(A, mu)
        v = rng.standard_normal(rows)
        got = L.apply_qr_inverse(fac, v)
        want = np.linalg.solve(A @ A.T + mu * np.eye(rows), v)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        worst = max(worst, rel)
    assert worst < 1e-8, f"worst relative error {worst:.3e}"


# -- feature matrices --------------------------------------------------------

def test_feature_matrix_blocks_stack_in_layout_order():
    pts = C.sample_uniform_grid(1, 6)
    phi, _ = C.build_functionals(SPEC_1D, pts)
    basis = F.build_periodic_1d(3)
    A = L.assemble_feature_matrix(phi, basis)
    assert A.shape == (18, basis.count)
    np.testing.assert_allclose(A[:6], F.eval_feature_op(basis, K.ID, pts.interior))
    np.testing.assert_allclose(A[6:12], F.eval_feature_op(basis, K.DX, pts.interior))
    np.testing.assert_allclose(A[12:], F.eval_feature_op(basis, K.DXX, pts.interior))


def test_gram_and_feature_quadratic_forms_agree_in_the_limit():
    """With many features the ridge form approximates an RKHS form; sanity only."""
    pts = C.sample_uniform_grid(1, 8)
    phi, _ = C.build_functionals(SPEC_1D, pts)
    basis = F.build_periodic_1d(20)
    A = L.assemble_feature_matrix(phi, basis)
    fac = L.qr_ridge_factor(A, 1e-10)
    v = np.random.default_rng(3).standard_normal(24)
    # both forms are positive definite on the same functional vector
    assert fac.quadratic_form(v) > 0.0


# -- point-local matrix plus a low-rank term ---------------------------------

def _arrow_system(seed, n_pairs=7, n_single=4, n_dense=2, k=5):
    """Random S = [[D, C], [C^T, E]] (2x2 and 1x1 point blocks), U and c."""
    rng = np.random.default_rng(seed)
    J2 = rng.standard_normal((n_pairs, 2, 3))
    J1 = rng.standard_normal((n_single, 1, 2))
    groups = [np.eye(2) * 0.1 + J2 @ J2.transpose(0, 2, 1), 0.1 + J1 @ J1.transpose(0, 2, 1)]
    n_d = 2 * n_pairs + n_single
    C = 0.3 * rng.standard_normal((n_d, n_dense))
    E = 2.0 * np.eye(n_dense) + C.T @ C  # keeps the Schur complement positive
    S = np.zeros((n_d + n_dense,) * 2)
    for i in range(n_pairs):
        S[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = groups[0][i]
    for j in range(n_single):
        S[2 * n_pairs + j, 2 * n_pairs + j] = groups[1][j, 0, 0]
    S[:n_d, n_d:], S[n_d:, :n_d], S[n_d:, n_d:] = C, C.T, E
    U = rng.standard_normal((n_d + n_dense, k))
    c = rng.standard_normal(n_d + n_dense)
    return groups, C, E, S, U, c


@pytest.mark.parametrize("n_dense", [0, 2])
def test_arrow_cholesky_factors_the_dense_matrix(n_dense):
    groups, C, E, S, _, _ = _arrow_system(0, n_dense=n_dense)
    chol = L.ArrowCholesky(groups, C, E)
    Linv = chol.solve_l(np.eye(S.shape[0]))
    np.testing.assert_allclose(Linv @ S @ Linv.T, np.eye(S.shape[0]), atol=1e-12)
    np.testing.assert_allclose(chol.solve_lt(np.eye(S.shape[0])), Linv.T, atol=1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        L.ArrowCholesky([-g for g in groups], C, E)


@pytest.mark.parametrize("seed", range(3))
def test_low_rank_update_solve_matches_dense_solve(seed):
    groups, C, E, S, U, c = _arrow_system(seed)
    y, uty = L.low_rank_update_solve(L.ArrowCholesky(groups, C, E), U, c)
    want = np.linalg.solve(S + U @ U.T, c)
    np.testing.assert_allclose(y, want, rtol=1e-11, atol=1e-11 * np.abs(want).max())
    np.testing.assert_allclose(uty, U.T @ want, rtol=1e-11, atol=1e-11 * np.abs(U.T @ want).max())


def test_low_rank_update_solve_rejects_a_non_finite_system():
    groups, C, E, _, U, c = _arrow_system(0)
    U[3, 1] = np.inf
    with pytest.raises(FloatingPointError):
        L.low_rank_update_solve(L.ArrowCholesky(groups, C, E), U, c)
