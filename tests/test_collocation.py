"""Point sampling and functional-vector layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgsolvers import collocation as C
from mfgsolvers import problems as P
from mfgsolvers.errors import BadCount
from mfgsolvers.pipeline import default_drift, default_drift_dx, default_potential

SPEC_1D = P.make_1d_stationary(default_potential, default_drift, default_drift_dx)
SPEC_2D = P.make_nonlocal_2d(0.1)
SPEC_PL = P.make_planning()


def test_grid_1d_layout():
    pts = C.sample_uniform_grid(1, 8)
    np.testing.assert_allclose(pts.interior[:, 0], np.arange(8) / 8.0)
    assert pts.boundary.shape == (0, 1)
    assert pts.m_total == 8


def test_grid_2d_is_square_lattice():
    pts = C.sample_uniform_grid(2, 16)
    assert pts.interior.shape == (16, 2)
    assert len(np.unique(pts.interior[:, 0])) == 4
    with pytest.raises(BadCount):
        C.sample_uniform_grid(2, 15)
    with pytest.raises(BadCount):
        C.sample_uniform_grid(3, 8)
    with pytest.raises(BadCount):
        C.sample_uniform_grid(1, 0)


@given(st.integers(0, 2**31), st.integers(1, 64))
@settings(max_examples=25, deadline=None)
def test_random_sampling_deterministic_and_in_range(seed, M):
    a = C.sample_uniform_random(2, M, seed)
    b = C.sample_uniform_random(2, M, seed)
    np.testing.assert_array_equal(a.interior, b.interior)
    assert np.all((a.interior >= 0.0) & (a.interior < 1.0))


def test_planning_sampler_counts_and_slices():
    pts = C.sample_planning(seed=5, n_interior=50, n_initial=7, n_terminal=9)
    assert pts.interior.shape == (50, 2)
    assert pts.boundary.shape == (16, 2)
    t = pts.interior[:, 0]
    assert np.all((t > 0.0) & (t < 1.0))
    assert np.all(np.abs(pts.interior[:, 1]) <= P.SPACE_HALF_WIDTH)
    np.testing.assert_array_equal(pts.boundary[:7, 0], 0.0)
    np.testing.assert_array_equal(pts.boundary[7:, 0], 1.0)
    with pytest.raises(BadCount):
        C.sample_planning(seed=0, n_interior=0)


# -- functional layout -------------------------------------------------------

def test_functionals_interior_only():
    pts = C.sample_uniform_grid(1, 10)
    phi, psi = C.build_functionals(SPEC_1D, pts)
    assert phi.operator_tags == SPEC_1D.u_operators
    assert psi.operator_tags == SPEC_1D.m_operators
    assert phi.size == 30 and psi.size == 20
    assert phi.slices == (slice(0, 10), slice(10, 20), slice(20, 30))


def test_functionals_boundary_blocks_come_first():
    pts = C.sample_planning(seed=2, n_interior=20, n_initial=4, n_terminal=4)
    phi, psi = C.build_functionals(SPEC_PL, pts)
    assert psi.operator_tags == ("id",) + SPEC_PL.m_operators
    assert psi.blocks[0][1] is pts.boundary
    assert all(points is pts.interior for _, points in psi.blocks[1:])
    assert psi.slices[0] == slice(0, 8)
    assert psi.size == 8 + 3 * 20
    assert all(points is pts.interior for _, points in phi.blocks)


def test_point_sets_group_the_blocks_of_each_points_array_in_order_of_first_use():
    pts = C.sample_planning(seed=2, n_interior=20, n_initial=4, n_terminal=4)
    phi, psi = C.build_functionals(SPEC_PL, pts)
    (b, on_b), (i, on_i) = psi.point_sets
    assert b is pts.boundary and i is pts.interior
    assert on_b == (("id", slice(0, 8)),)
    assert on_i == (("id", slice(8, 28)), ("dx", slice(28, 48)), ("dt", slice(48, 68)))
    assert [tag for tag, _ in on_b + on_i] == list(psi.operator_tags)
    ((x, on_x),) = phi.point_sets
    assert x is pts.interior and tuple(sl for _, sl in on_x) == phi.slices


def test_functionals_dimension_check():
    pts = C.sample_uniform_grid(1, 10)
    with pytest.raises(BadCount):
        C.build_functionals(SPEC_2D, pts)
