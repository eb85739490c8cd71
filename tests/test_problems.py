"""Residual maps, Jacobians and the 1D closed-form solution oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgsolvers import problems as P
from mfgsolvers.errors import ArityMismatch, NonZeroMeanDrift, NotOnBoundary
from mfgsolvers.pipeline import default_drift, default_drift_dx, default_potential

SPEC_1D = P.make_1d_stationary(default_potential, default_drift, default_drift_dx)
SPEC_2D = P.make_nonlocal_2d(0.3)
SPEC_PL = P.make_planning()


def test_operator_lists():
    assert SPEC_1D.u_operators == ("id", "dx", "dxx")
    assert SPEC_1D.m_operators == ("id", "dx")
    assert SPEC_2D.m_operators[-1] == "j5"
    assert SPEC_PL.m_boundary_operators == ("id",)
    assert SPEC_PL.has_ergodic_constant is False
    assert SPEC_1D.has_ergodic_constant and SPEC_2D.has_ergodic_constant


# -- closed-form solution oracle ---------------------------------------------

def test_explicit_solution_satisfies_pde_pointwise():
    """Plugging (u*, m*, H-bar*) into the residual maps gives <= 1e-10."""
    exact = P.explicit_solution_1d(default_potential, default_drift)
    rng = np.random.default_rng(3)
    xs = rng.random(200)
    # closed-form operator values of the pair at xs; u'' = -b' and m' = (V' - b b') m
    m = exact.m_star(xs)
    mp = (np.pi * np.cos(np.pi * xs) - default_drift(xs) * default_drift_dx(xs)) * m
    U = np.stack([exact.u_star(xs), exact.u_x_star(xs), -default_drift_dx(xs)], axis=1)
    R, _, _, _ = P.interior_residual_batch(
        SPEC_1D, xs[:, None], U, np.stack([m, mp], axis=1), exact.h_bar_star
    )
    worst = float(np.max(np.abs(R)))
    assert worst < 1e-10, f"closed-form residual {worst:.3e}"


def test_explicit_solution_normalizations():
    exact = P.explicit_solution_1d(default_potential, default_drift)
    grid = np.arange(4096) / 4096.0
    assert float(np.mean(exact.m_star(grid))) == pytest.approx(1.0, abs=1e-12)
    assert float(np.mean(exact.u_star(grid))) == pytest.approx(0.0, abs=1e-12)
    assert float(np.mean(exact.u_x_star(grid))) == pytest.approx(0.0, abs=1e-12)


def _full_mode_u_star(b, x, quad_nodes=4096):
    """u* summed over every mode of the drift's sampled series, round-off modes included."""
    bh = np.fft.rfft(b(np.arange(quad_nodes) / quad_nodes)) / quad_nodes
    ks = np.arange(1, quad_nodes // 2)
    anti = bh[1 : quad_nodes // 2] / (2.0j * np.pi * ks)
    return -2.0 * np.real(np.exp(2.0j * np.pi * np.multiply.outer(x, ks)) @ anti)


def test_explicit_u_star_drops_only_round_off_modes():
    x = np.linspace(0.0, 1.0, 1000, endpoint=False)
    exact = P.explicit_solution_1d(default_potential, default_drift)
    np.testing.assert_allclose(
        exact.u_star(x), _full_mode_u_star(default_drift, x), rtol=0, atol=1e-15
    )

    def drift(s):  # three modes with mean zero, the last one far below the first
        s = np.asarray(s, dtype=float)
        return np.cos(2 * np.pi * s) + 0.5 * np.sin(6 * np.pi * s) + 1e-9 * np.cos(10 * np.pi * s)

    # -int_0^x drift, shifted to mean zero
    closed = (
        -np.sin(2 * np.pi * x) / (2 * np.pi)
        + 0.5 * np.cos(6 * np.pi * x) / (6 * np.pi)
        - 1e-9 * np.sin(10 * np.pi * x) / (10 * np.pi)
    )
    u = P.explicit_solution_1d(default_potential, drift).u_star(x)
    np.testing.assert_allclose(u, _full_mode_u_star(drift, x), rtol=0, atol=1e-15)
    np.testing.assert_allclose(u, closed, rtol=0, atol=1e-15)


def test_nonzero_mean_drift_rejected():
    with pytest.raises(NonZeroMeanDrift):
        P.explicit_solution_1d(default_potential, lambda x: np.cos(2 * np.pi * x) + 0.5)


# -- Jacobians against finite differences ------------------------------------

CASES = [
    (SPEC_1D, 1, 3, 2, True),
    (SPEC_2D, 2, 4, 5, True),
    (SPEC_PL, 2, 4, 3, False),
]


@given(st.integers(0, 2), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_interior_jacobians_match_finite_differences(case, seed):
    spec, dim, q, d, has_lam = CASES[case]
    rng = np.random.default_rng(seed)
    X = rng.random((3, dim))
    U = 0.5 * rng.standard_normal((3, q))
    M = 0.5 * rng.standard_normal((3, d)) + 1.0
    lam = float(rng.standard_normal()) if has_lam else 0.0
    R, dU, dM, dlam = P.interior_residual_batch(spec, X, U, M, lam)
    h = 1e-6

    def fd(bump_u=None, bump_m=None, bump_lam=0.0):
        def shifted(s):
            Up = U.copy()
            Mp = M.copy()
            if bump_u is not None:
                Up[:, bump_u] += s
            if bump_m is not None:
                Mp[:, bump_m] += s
            Rp, _, _, _ = P.interior_residual_batch(spec, X, Up, Mp, lam + bump_lam * s / h)
            return Rp

        return (shifted(h) - shifted(-h)) / (2.0 * h)

    for j in range(q):
        np.testing.assert_allclose(fd(bump_u=j), dU[:, :, j], atol=5e-5)
    for j in range(d):
        np.testing.assert_allclose(fd(bump_m=j), dM[:, :, j], atol=5e-5)
    if has_lam:
        np.testing.assert_allclose(fd(bump_lam=h), dlam, atol=5e-5)


def test_arity_mismatch_raises():
    with pytest.raises(ArityMismatch):
        P.interior_residual_batch(SPEC_1D, [[0.1]], [[0.0, 0.0]], [[1.0, 0.0]], 0.0)
    with pytest.raises(ArityMismatch):
        P.interior_residual_batch(SPEC_2D, np.zeros((1, 2)), np.zeros((1, 3)), np.ones((1, 5)), 0.0)


# -- boundary residuals ------------------------------------------------------

def test_boundary_targets_are_the_pinned_gaussians():
    xs = np.linspace(-2.0, 2.0, 7)
    X0 = np.stack([np.zeros_like(xs), xs], axis=1)
    X1 = np.stack([np.ones_like(xs), xs], axis=1)
    U, Mb = np.zeros((7, 0)), np.ones((7, 1))
    R0, dU, d0, dlam = P.boundary_residual_batch(SPEC_PL, X0, U, Mb, 0.0)
    R1, *_ = P.boundary_residual_batch(SPEC_PL, X1, U, Mb, 0.0)
    np.testing.assert_allclose(R0[:, 0], 1.0 - P.gaussian_density(xs, P.INITIAL_CENTER))
    np.testing.assert_allclose(R1[:, 0], 1.0 - P.gaussian_density(xs, P.TERMINAL_CENTER))
    np.testing.assert_array_equal(d0, np.ones((7, 1, 1)))
    assert dU.shape == (7, 1, 0)
    np.testing.assert_array_equal(dlam, np.zeros((7, 1)))


def test_boundary_rejects_interior_points():
    with pytest.raises(NotOnBoundary):
        P.boundary_residual_batch(SPEC_PL, np.array([[0.5, 0.0]]), np.zeros((1, 0)), np.ones((1, 1)), 0.0)


def test_boundary_arity_mismatch_raises():
    """The boundary batch checks its value shapes like the interior one."""
    X = np.array([[0.0, 0.1], [1.0, -0.3]])
    with pytest.raises(ArityMismatch):
        P.boundary_residual_batch(SPEC_PL, X, np.zeros((2, 0)), np.ones((2, 2)), 0.0)
    with pytest.raises(ArityMismatch):
        P.boundary_residual_batch(SPEC_PL, X, np.zeros((2, 1)), np.ones((2, 1)), 0.0)


def test_boundary_batch_on_a_torus_spec_names_the_problem():
    """A spec with no boundary function raises the package's error, naming its kind."""
    X = np.array([[0.1], [0.7]])
    with pytest.raises(NotOnBoundary, match="'mfg1d'"):
        P.boundary_residual_batch(SPEC_1D, X, np.zeros((2, 0)), np.zeros((2, 0)), 0.0)


def test_gaussian_density_normalization():
    x = np.linspace(-3.0, 4.0, 20001)
    mass = np.trapezoid(P.gaussian_density(x, 0.5), x)
    assert mass == pytest.approx(1.0, abs=1e-10)

