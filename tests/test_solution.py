"""Field reconstruction, error metrics, and report serialization."""

import json
import tracemalloc

import numpy as np
import pytest

from mfgsolvers import collocation as C
from mfgsolvers import features as F
from mfgsolvers import kernels as K
from mfgsolvers import linsys as L
from mfgsolvers import optimizer as O
from mfgsolvers import problems as P
from mfgsolvers import solution as S
from mfgsolvers.errors import EmptyGrid, UnsupportedOperator
from mfgsolvers.pipeline import default_drift, default_drift_dx, default_potential

SPEC_1D = P.make_1d_stationary(default_potential, default_drift, default_drift_dx)


def _gp_setup(M=16, eta=1e-5):
    kernel = K.periodic_kernel_1d(0.6)
    pts = C.sample_uniform_grid(1, M)
    phi, psi = C.build_functionals(SPEC_1D, pts)
    fu = L.build_gram_factor(kernel, phi, eta)
    fm = L.build_gram_factor(kernel, psi, eta)
    return kernel, pts, phi, psi, fu, fm


def test_gp_reconstruction_interpolates_up_to_the_nugget():
    """Field operator values at collocation equal z minus the nugget slack."""
    kernel, pts, phi, psi, fu, fm = _gp_setup()
    rng = np.random.default_rng(5)
    state = O.SolverState(
        z=rng.standard_normal(phi.size), rho=rng.standard_normal(psi.size), lam=0.3
    )
    u, m, lam = S.gp_reconstruct(state, fu, fm, kernel, phi, psi)
    assert lam == 0.3
    # exact identity: values = z - eta * R * coeffs
    vals = np.concatenate([u.eval_op(tag, pts.interior) for tag in phi.operator_tags])
    eta = 1e-5  # _gp_setup's nugget
    nugget = eta * L.build_nugget(L.assemble_gram(kernel, phi), phi, eta)
    scale = np.max(np.abs(state.z)) + np.max(np.abs(nugget * u.coeffs))
    np.testing.assert_allclose(vals, state.z - nugget * u.coeffs, atol=1e-7 * scale)


def test_ff_reconstruction_ridge_identity():
    """A alpha + mu (A A^T + mu I)^{-1} z = z, the exact ridge split."""
    _, pts, phi, psi, _, _ = _gp_setup(M=8)
    basis = F.build_periodic(6, 1)
    A = L.assemble_feature_matrix(phi, basis)
    fu = L.qr_ridge_factor(A, 1e-4)
    fm = L.qr_ridge_factor(L.assemble_feature_matrix(psi, basis), 1e-4)
    rng = np.random.default_rng(6)
    state = O.SolverState(
        z=rng.standard_normal(phi.size), rho=rng.standard_normal(psi.size), lam=None
    )
    u, m, lam = S.ff_reconstruct(state, fu, fm, basis, basis)
    assert lam is None
    slack = 1e-4 * L.apply_qr_inverse(fu, state.z)
    np.testing.assert_allclose(A @ u.coeffs + slack, state.z, atol=1e-4)


def test_field_operator_evaluation_matches_finite_differences():
    kernel, pts, phi, psi, fu, fm = _gp_setup(M=12)
    rng = np.random.default_rng(7)
    state = O.SolverState(
        z=rng.standard_normal(phi.size), rho=rng.standard_normal(psi.size), lam=0.0
    )
    u, _, _ = S.gp_reconstruct(state, fu, fm, kernel, phi, psi)
    x = np.array([[0.3217]])
    h = 1e-5
    fd = (u(x + h) - u(x - h)) / (2 * h)
    scale = max(1.0, abs(fd[0]))
    assert abs(u.eval_op(K.DX, x)[0] - fd[0]) / scale < 1e-5


def test_ff_field_is_a_plain_feature_sum():
    basis = F.build_periodic(3, 1)
    coeffs = np.zeros(basis.count)
    coeffs[1] = 2.0  # sin(2 pi x)
    f = S.FfField(coeffs, basis)
    x = np.array([[0.2], [0.7]])
    np.testing.assert_allclose(f(x), 2.0 * np.sin(2 * np.pi * x[:, 0]), atol=1e-14)
    np.testing.assert_allclose(
        f.eval_op(K.DX, x), 4.0 * np.pi * np.cos(2 * np.pi * x[:, 0]), atol=1e-12
    )


def test_linf_error_and_empty_grid():
    basis = F.build_periodic(2, 1)
    f = S.FfField(np.zeros(basis.count), basis)
    grid = np.linspace(0, 1, 50)[:, None]
    err = S.linf_error(f(grid), lambda X: np.sin(2 * np.pi * X[:, 0]), grid)
    assert err == pytest.approx(1.0, abs=1e-3)
    empty = np.zeros((0, 1))
    with pytest.raises(EmptyGrid):
        S.linf_error(f(empty), lambda X: X[:, 0], empty)


def test_held_out_points_deterministic_and_in_domain():
    a = S.held_out_points(SPEC_1D)
    b = S.held_out_points(SPEC_1D)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (2000, 1)
    assert np.all((a >= 0) & (a < 1))
    pl = S.held_out_points(P.make_planning(), n=500)
    assert pl.shape == (500, 2)
    assert np.all((pl[:, 0] >= 0) & (pl[:, 0] < 1))
    assert np.all(np.abs(pl[:, 1]) <= P.SPACE_HALF_WIDTH)


def test_residual_norm_of_flat_state_is_one_for_flat_potential():
    """u = 0, m = 1 on the quadratic-Hamiltonian torus game leaves r = (1, 0)."""
    spec = P.make_1d_stationary(lambda x: 0.0 * np.asarray(x), lambda x: 0.0 * np.asarray(x),
                                lambda x: 0.0 * np.asarray(x))

    class Const:
        def __init__(self, c):
            self.c = c

        def eval_op(self, op, X):
            X = np.atleast_2d(X)
            return np.full(X.shape[0], self.c if op == K.ID else 0.0)

        def eval_ops(self, ops, X):
            return np.stack([self.eval_op(op, X) for op in ops], axis=1)

        def __call__(self, X):
            return self.eval_op(K.ID, X)

    r = S.pde_residual_norm(Const(0.0), Const(0.0), 0.0, spec, S.held_out_points(spec))
    assert r == pytest.approx(1.0, abs=1e-12)
    r2 = S.pde_residual_norm(Const(0.0), Const(1.0), 0.0, spec, S.held_out_points(spec))
    assert r2 == pytest.approx(0.0, abs=1e-12)


def test_mass_trace_integrates_slicewise():
    class GaussianField:
        def __call__(self, grid):
            return P.gaussian_density(grid.points()[:, 1], 0.5)

    x = np.linspace(-2.0, 2.0, 2001)
    masses = S.mass_trace(GaussianField(), (0.1, 0.9), x)
    for v in masses:
        assert v == pytest.approx(1.0, abs=1e-6)


def test_error_report_json_shape():
    rep = S.ErrorReport(
        linf_u=None, linf_m=None, err_hbar=0.5, residual_l2=1.25, mass_error=0.0, grid="g"
    )
    text = rep.to_json()
    data = json.loads(text)
    assert data["linf_u"] is None
    assert data["err_hbar"] == 0.5
    assert list(data) == sorted(data)
    # stable serialization: same report, same bytes
    assert text == S.ErrorReport(None, None, 0.5, 1.25, 0.0, "g").to_json()


def _torus_eval_points(dim, rng):
    """Random points plus a tensor grid whose coordinates repeat, more points than a chunk."""
    nodes = np.arange(17) / 17.0
    if dim == 1:
        grid = np.tile(nodes, 16)[:, None]
    else:
        grid = np.stack([a.ravel() for a in np.meshgrid(nodes, nodes, indexing="ij")], axis=1)
    X = np.vstack([rng.random((25, dim)), grid])
    assert X.shape[0] > K._MODE_CHUNK
    return X


@pytest.mark.parametrize(
    "spec, kernel, pts, dim",
    [
        (P.make_nonlocal_2d(1.0), K.periodic_kernel_2d(0.5), C.sample_uniform_grid(2, 36), 2),
        (SPEC_1D, K.periodic_kernel_1d(0.6), C.sample_uniform_grid(1, 16), 1),
    ],
    ids=["nonlocal2d", "mfg1d"],
)
def test_torus_gp_field_matches_direct_representer_sum(spec, kernel, pts, dim):
    """Spectral-weight evaluation of a torus field equals the representer sum.

    The points repeat coordinates, so the 1D distinct-coordinate tables
    gather, and outnumber a 2D chunk.  Two parts of them evaluate to the
    same bits as the whole (a part whose product has one row would not:
    numpy sends it to a matrix-vector kernel; that is a part of one point in
    2D, of one distinct coordinate in 1D).
    """
    rng = np.random.default_rng(11)
    X = _torus_eval_points(dim, rng)
    for funcs, ops in zip(C.build_functionals(spec, pts), (spec.u_operators, spec.m_operators)):
        coeffs = rng.standard_normal(funcs.size)
        f = S.GpField(coeffs, funcs, kernel)
        assert f.weights is not None
        values = f.eval_ops(ops, X)
        for j, op in enumerate(ops):
            direct = sum(
                K.pairwise_op_matrix(kernel, op, tag, X, y) @ coeffs[sl]
                for (tag, y), sl in zip(funcs.blocks, funcs.slices)
            )
            np.testing.assert_allclose(
                values[:, j], direct, rtol=0, atol=1e-10 * np.max(np.abs(direct)), err_msg=op
            )
            np.testing.assert_array_equal(f.eval_op(op, X), values[:, j])
        for h in (150, X.shape[0] // 2):
            np.testing.assert_array_equal(
                np.vstack([f.eval_ops(ops, X[:h]), f.eval_ops(ops, X[h:])]), values
            )


@pytest.mark.parametrize(
    "spec, kernel, pts",
    [
        (P.make_nonlocal_2d(1.0), K.periodic_kernel_2d(0.5), C.sample_uniform_grid(2, 36)),
        (SPEC_1D, K.periodic_kernel_1d(0.6), C.sample_uniform_grid(1, 16)),
    ],
    ids=["nonlocal2d", "mfg1d"],
)
def test_point_set_keeps_its_tables_and_the_bits_of_plain_points(spec, kernel, pts):
    """u and m of a torus GP run read one set of tables from a PointSet and
    give the bits they give at the bare points; an FF field reads its points."""
    rng = np.random.default_rng(16)
    X = S.held_out_points(spec, n=700)
    held = S.PointSet(X)
    fields = []
    for funcs, ops in zip(C.build_functionals(spec, pts), (spec.u_operators, spec.m_operators)):
        f = S.GpField(1e-3 * rng.standard_normal(funcs.size), funcs, kernel)
        np.testing.assert_array_equal(f.eval_ops(ops, held), f.eval_ops(ops, X))
        fields.append(f)
    assert held.mode_points(kernel.n_modes) is held.mode_points(kernel.n_modes)
    residual = S.pde_residual_norm(*fields, 0.0, spec, held)
    assert residual == S.pde_residual_norm(*fields, 0.0, spec, X)
    basis = F.build_periodic(5, spec.dim)
    ff = S.FfField(rng.standard_normal(basis.count), basis)
    ops = spec.u_operators
    np.testing.assert_array_equal(ff.eval_ops(ops, held), ff.eval_ops(ops, X))


def _supported_ops(basis):
    out = []
    for op in sorted(K.ALL_OPS):
        try:
            F.eval_feature_op(basis, op, np.zeros((1, basis.dim)))
        except UnsupportedOperator:
            continue
        out.append(op)
    return out


@pytest.mark.parametrize(
    "basis",
    [
        F.build_periodic(10, 1),
        F.build_periodic(5, 2),
        F.sample_orthogonal_features(F.RandomFeatureSampler(2, 0.2, 3), 150),
    ],
    ids=["periodic1d", "periodic2d_full", "random_tx"],
)
def test_ff_field_evaluation_matches_the_feature_matrices(basis):
    """Each column of FfField.eval_ops is the explicit feature matrix times the coefficients."""
    ops = _supported_ops(basis)
    assert K.ID in ops and (K.J5 in ops) == basis.periodic
    rng = np.random.default_rng(12)
    X = rng.random((3 * F._SUM_CHUNK + 17, basis.dim)) * 4.0 - 2.0
    f = S.FfField(rng.standard_normal(basis.count), basis)
    values = f.eval_ops(ops, X)
    for j, op in enumerate(ops):
        A = F.eval_feature_op(basis, op, X)
        # relative to the size of the summed terms, which sets the round-off of either sum
        atol = 1e-13 * np.max(np.abs(A) @ np.abs(f.coeffs))
        for got in (values[:, j], f.eval_op(op, X)):
            np.testing.assert_allclose(got, A @ f.coeffs, rtol=0, atol=atol, err_msg=op)


def test_ff_field_evaluation_forms_no_points_by_features_matrix():
    """The evaluation's memory peak stays below one points x features float64 matrix."""
    basis = F.sample_orthogonal_features(F.RandomFeatureSampler(2, 0.2, 0), 200)
    f = S.FfField(np.random.default_rng(13).standard_normal(basis.count), basis)
    X = S.held_out_points(P.make_planning(), n=8 * F._SUM_CHUNK)
    ops = P.make_planning().u_operators
    tracemalloc.start()
    try:
        f.eval_ops(ops, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * X.shape[0] * basis.count


def test_anisotropic_gp_field_evaluates_in_chunks():
    """Off the torus a field sums the closed-form blocks in chunks of points.

    The chunks share one table per point set; the values match the sum of
    per-block matrices, and two parts of X evaluate to the same bits as the
    whole.  The parts split at multiples of 4 rows, as the chunks do: a BLAS
    matrix-vector kernel may sum a row of the last (n mod 4) another way.
    """
    spec = P.make_planning()
    kernel = K.anisotropic_kernel(0.3, 0.4)
    phi, psi = C.build_functionals(spec, C.sample_planning(5, 60, 10, 10))
    rng = np.random.default_rng(14)
    X = S.held_out_points(spec, n=S._CROSS_CHUNK + 304)
    for funcs, ops in ((phi, spec.u_operators), (psi, spec.m_operators)):
        f = S.GpField(rng.standard_normal(funcs.size), funcs, kernel)
        assert f.weights is None
        values = f.eval_ops(ops, X)
        for j, op in enumerate(ops):
            direct = sum(
                K.pairwise_op_matrix(kernel, op, tag, X, y) @ f.coeffs[sl]
                for (tag, y), sl in zip(funcs.blocks, funcs.slices)
            )
            np.testing.assert_allclose(
                values[:, j], direct, rtol=0, atol=1e-13 * np.max(np.abs(direct)), err_msg=op
            )
        for h in (S._CROSS_CHUNK, X.shape[0] // 2):
            np.testing.assert_array_equal(
                np.vstack([f.eval_ops(ops, X[:h]), f.eval_ops(ops, X[h:])]), values
            )


# -- tensor-grid evaluation ---------------------------------------------------

# grid nodes with distinct lengths per axis, so a transposed or misordered
# grid shows; the planning ones span its strip
TORUS_NODES = (np.arange(7) / 7.0, np.sort(np.random.default_rng(15).random(11)))
PLANNING_NODES = (np.linspace(0.0, 1.0, 9), np.linspace(-2.0, 2.0, 13))


def _assert_grid_equals_points(field, ops, nodes):
    """A field on the TensorGrid of ``nodes`` equals the field at its points, which
    follow meshgrid's 'ij' order: the first axis slowest."""
    tensor = S.TensorGrid(nodes)
    X = tensor.points()
    assert X.shape == (nodes[0].size * nodes[1].size, 2)
    np.testing.assert_array_equal(X[1], [nodes[0][0], nodes[1][1]])
    grid, points = field.eval_ops(ops, tensor), field.eval_ops(ops, X)
    assert grid.shape == points.shape == (X.shape[0], len(ops))
    np.testing.assert_array_equal(field(tensor), grid[:, list(ops).index(K.ID)])
    for j, op in enumerate(ops):
        atol = 1e-12 * np.max(np.abs(points[:, j]))
        np.testing.assert_allclose(grid[:, j], points[:, j], rtol=0, atol=atol, err_msg=op)


@pytest.mark.parametrize("sampler", ["lattice", "random"])
def test_torus_gp_grid_equals_point_evaluation(sampler):
    """A 2D torus GP field on a grid, Re(E_1 (mult W) E_2^T), for every operator of
    its functional sets, from a lattice factor or a dense one on random points."""
    spec, kernel = P.make_nonlocal_2d(1.0), K.periodic_kernel_2d(0.5)
    if sampler == "lattice":
        pts = C.sample_uniform_grid(2, 36)
    else:
        pts = C.sample_uniform_random(2, 36, 4)
    phi, psi = C.build_functionals(spec, pts)
    factors = L.build_gram_factors(kernel, (phi, psi), 1e-6)
    assert isinstance(factors[1], L.LatticeFactor) == (sampler == "lattice")
    rng = np.random.default_rng(16)
    state = O.SolverState(
        z=rng.standard_normal(phi.size), rho=rng.standard_normal(psi.size), lam=0.0
    )
    u, m, _ = S.gp_reconstruct(state, *factors, kernel, phi, psi)
    _assert_grid_equals_points(u, spec.u_operators, TORUS_NODES)
    _assert_grid_equals_points(m, spec.m_operators, TORUS_NODES)


@pytest.mark.parametrize(
    "basis, nodes",
    [
        (F.build_periodic(5, 2), TORUS_NODES),
        (F.sample_orthogonal_features(F.RandomFeatureSampler(2, 0.2, 3), 150), PLANNING_NODES),
    ],
    ids=["periodic2d", "random_tx"],
)
def test_ff_grid_equals_point_evaluation(basis, nodes):
    """Angle addition on a grid equals the feature sum at its points, for every operator."""
    f = S.FfField(np.random.default_rng(17).standard_normal(basis.count), basis)
    _assert_grid_equals_points(f, _supported_ops(basis), nodes)


def test_planning_gp_grid_equals_point_evaluation():
    """The separable kernel's grid, one D_t diag(c) D_x^T per term, for every left
    operator against every block of both functional sets: id, dt, dx and dxx on
    the interior and the id blocks on the initial and terminal slices."""
    spec, kernel = P.make_planning(), K.anisotropic_kernel(0.3, 0.4)
    for pts in (C.sample_planning_grid(24, 4, 4), C.sample_planning(5, 60, 10, 10)):
        phi, psi = C.build_functionals(spec, pts)
        assert {tag for tag, _ in phi.blocks + psi.blocks} == {K.ID, K.DT, K.DX, K.DXX}
        rng = np.random.default_rng(18)
        for funcs in (phi, psi):
            f = S.GpField(rng.standard_normal(funcs.size), funcs, kernel)
            _assert_grid_equals_points(f, spec.u_operators, PLANNING_NODES)


def test_planning_mass_trace_equals_point_evaluation():
    """The masses from the grid of slices equal the trapezoid of pointwise values."""
    spec, kernel = P.make_planning(), K.anisotropic_kernel(0.3, 0.4)
    _, psi = C.build_functionals(spec, C.sample_planning_grid(24, 4, 4))
    m = S.GpField(np.random.default_rng(19).standard_normal(psi.size), psi, kernel)
    x = np.linspace(-2.0, 2.0, 512)
    masses = S.mass_trace(m, (0.25, 0.5, 0.75), x)
    for t, mass in zip((0.25, 0.5, 0.75), masses):
        direct = float(np.trapezoid(m(np.stack([np.full_like(x, t), x], axis=1)), x))
        assert mass == pytest.approx(direct, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("method", ["gp", "ff"])
def test_1d_grid_is_the_point_evaluation_bit_for_bit(method):
    """A 1D grid is its nodes, evaluated as points: mfg1d's artifacts keep their bits."""
    kernel, pts, phi, psi, fu, fm = _gp_setup()
    coeffs = np.random.default_rng(20).standard_normal(phi.size)
    if method == "gp":
        f = S.GpField(coeffs, phi, kernel)
    else:
        basis = F.build_periodic(6, 1)
        f = S.FfField(coeffs[: basis.count], basis)
    x = np.linspace(0.0, 1.0, 1000, endpoint=False)
    ops = SPEC_1D.u_operators
    np.testing.assert_array_equal(f.eval_ops(ops, S.TensorGrid((x,))), f.eval_ops(ops, x[:, None]))
