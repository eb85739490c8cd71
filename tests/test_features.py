"""Trigonometric bases: orthogonality, operator action, random sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgsolvers import features as F
from mfgsolvers import kernels as K
from mfgsolvers.errors import UnsupportedOperator


def test_periodic_1d_counts_and_layout():
    b = F.build_periodic(5, 1)
    assert b.count == 11
    assert b.dim == 1 and b.axes == ("x",)
    assert b.phases[0] == F.COS and b.frequencies[0, 0] == 0.0
    # [1, sin(2 pi x) .. sin(2 pi 5 x), cos(2 pi x) .. cos(2 pi 5 x)]
    np.testing.assert_array_equal(b.frequencies[:, 0] / (2 * np.pi), [0] + [1, 2, 3, 4, 5] * 2)
    np.testing.assert_array_equal(b.phases, [F.COS] + [F.SIN] * 5 + [F.COS] * 5)


def test_periodic_1d_l2_orthogonality():
    b = F.build_periodic(8, 1)
    grid = (np.arange(512) / 512.0)[:, None]
    Z = F.eval_feature_op(b, K.ID, grid)
    G = Z.T @ Z / grid.shape[0]
    expected = np.diag([1.0] + [0.5] * 16)
    np.testing.assert_allclose(G, expected, atol=1e-12)


@pytest.mark.parametrize("N, dim", [(1, 1), (3, 1), (1, 2), (3, 2)])
def test_periodic_counts(N, dim):
    b = F.build_periodic(N, dim)
    assert b.count == (2 * N + 1) ** dim
    assert b.dim == dim and b.periodic and np.all(b.scales == 1.0)


def test_periodic_2d_modes_are_one_of_each_pair_in_lexicographic_order():
    """Every a with |a_d| <= N and first nonzero entry positive, sin block then cos block."""
    b = F.build_periodic(2, 2)
    want = [(0, 1), (0, 2)] + [(i, j) for i in (1, 2) for j in range(-2, 3)]
    modes = b.frequencies / (2 * np.pi)
    np.testing.assert_array_equal(modes[0], [0, 0])
    np.testing.assert_array_equal(modes[1:13], want)
    np.testing.assert_array_equal(modes[13:], want)
    np.testing.assert_array_equal(b.phases, [F.COS] + [F.SIN] * 12 + [F.COS] * 12)
    # the pure-axis modes of nonlocal2d's potential are in the set
    for a in ((1, 0), (0, 1), (2, 0)):
        assert any(np.array_equal(m, a) for m in modes)


def test_periodic_2d_full_mode_set_is_nonredundant():
    b = F.build_periodic(4, 2)
    grid = np.stack(
        [g.ravel() for g in np.meshgrid(np.arange(32) / 32.0, np.arange(32) / 32.0)], axis=1
    )
    Z = F.eval_feature_op(b, K.ID, grid)
    G = Z.T @ Z / grid.shape[0]
    # orthogonal family: gram is diagonal and nonsingular
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) < 1e-12
    assert np.min(np.diag(G)) > 0.4


@given(st.sampled_from([K.DX, K.DXX]), st.integers(1, 6))
@settings(max_examples=20, deadline=None)
def test_1d_derivatives_match_finite_differences(op, N):
    b = F.build_periodic(N, 1)
    x = np.array([[0.123], [0.789]])
    h = 1e-5
    if op == K.DX:
        fd = (F.eval_feature_op(b, K.ID, x + h) - F.eval_feature_op(b, K.ID, x - h)) / (2 * h)
        atol = 1e-4
    else:
        fd = (
            F.eval_feature_op(b, K.ID, x + h)
            - 2 * F.eval_feature_op(b, K.ID, x)
            + F.eval_feature_op(b, K.ID, x - h)
        ) / h**2
        atol = 1e-2
    np.testing.assert_allclose(F.eval_feature_op(b, op, x), fd, atol=atol)


def test_2d_laplacian_is_sum_of_second_derivatives():
    b = F.build_periodic(3, 2)
    X = np.random.default_rng(1).random((5, 2))
    h = 1e-4
    e1, e2 = np.array([h, 0.0]), np.array([0.0, h])
    val = F.eval_feature_op(b, K.ID, X)
    lap_fd = (
        F.eval_feature_op(b, K.ID, X + e1)
        + F.eval_feature_op(b, K.ID, X - e1)
        + F.eval_feature_op(b, K.ID, X + e2)
        + F.eval_feature_op(b, K.ID, X - e2)
        - 4 * val
    ) / h**2
    np.testing.assert_allclose(F.eval_feature_op(b, K.LAP, X), lap_fd, atol=1e-2)


def test_smoothing_operator_is_diagonal_on_features():
    b = F.build_periodic(2, 2)
    X = np.random.default_rng(2).random((4, 2))
    vals = F.eval_feature_op(b, K.ID, X)
    smoothed = F.eval_feature_op(b, K.J5, X)
    w2 = np.sum(b.frequencies**2, axis=1)
    np.testing.assert_allclose(smoothed, vals / (1.0 + w2[None, :]) ** 2, atol=1e-12)


def test_smoothing_requires_periodic_basis():
    sampler = F.RandomFeatureSampler(dimension=2, varsigma=0.2, seed=0)
    b = F.sample_orthogonal_features(sampler, 4)
    with pytest.raises(UnsupportedOperator):
        F.eval_feature_op(b, K.J5, np.zeros((1, 2)))


def test_time_derivative_acts_on_first_axis():
    sampler = F.RandomFeatureSampler(dimension=2, varsigma=0.5, seed=3)
    b = F.sample_orthogonal_features(sampler, 6)
    X = np.random.default_rng(4).random((3, 2))
    h = 1e-6
    et = np.array([h, 0.0])
    fd = (F.eval_feature_op(b, K.ID, X + et) - F.eval_feature_op(b, K.ID, X - et)) / (2 * h)
    np.testing.assert_allclose(F.eval_feature_op(b, K.DT, X), fd, atol=1e-5)


# -- random feature sampling -------------------------------------------------

def test_sampler_is_deterministic_per_seed():
    s = F.RandomFeatureSampler(dimension=2, varsigma=0.2, seed=11)
    W1 = s.sample_w(9)
    W2 = F.RandomFeatureSampler(dimension=2, varsigma=0.2, seed=11).sample_w(9)
    np.testing.assert_array_equal(W1, W2)
    W3 = F.RandomFeatureSampler(dimension=2, varsigma=0.2, seed=12).sample_w(9)
    assert not np.array_equal(W1, W3)


def test_sampler_blocks_are_orthogonal():
    d = 2
    s = F.RandomFeatureSampler(dimension=d, varsigma=0.3, seed=5)
    W = s.sample_w(d)
    # rows of one block are orthogonal by construction
    inner = W @ W.T
    off = inner - np.diag(np.diag(inner))
    assert np.max(np.abs(off)) < 1e-10


def test_sampler_frequency_second_moment():
    """E |w|^2 = d / varsigma^2 for the Gaussian-equivalent distribution."""
    d, vs = 2, 0.4
    s = F.RandomFeatureSampler(dimension=d, varsigma=vs, seed=6)
    W = s.sample_w(4000)
    est = float(np.mean(np.sum(W**2, axis=1)))
    assert est == pytest.approx(d / vs**2, rel=0.05)


def test_orthogonal_features_pairing_and_scale():
    s = F.RandomFeatureSampler(dimension=2, varsigma=0.2, seed=7)
    b = F.sample_orthogonal_features(s, 5)
    assert b.count == 10
    np.testing.assert_array_equal(b.frequencies[0::2], b.frequencies[1::2])
    assert list(b.phases[:2]) == [F.SIN, F.COS]
    np.testing.assert_allclose(b.scales, np.sqrt(2.0 / 10.0))


def test_bad_arguments_raise():
    for N, dim in ((0, 1), (0, 2), (2, 0), (2, 3)):
        with pytest.raises(ValueError):
            F.build_periodic(N, dim)
    s = F.RandomFeatureSampler(dimension=2, varsigma=0.2, seed=0)
    with pytest.raises(ValueError):
        F.sample_orthogonal_features(s, 0)
    b = F.build_periodic(2, 1)
    with pytest.raises(UnsupportedOperator):
        F.eval_feature_op(b, K.DY, np.zeros((1, 1)))
    with pytest.raises(UnsupportedOperator):
        F.eval_feature_op(b, K.ID, np.zeros((1, 2)))
