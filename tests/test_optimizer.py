"""Gauss-Newton machinery: inner solve oracles, fixed points, loss descent."""

import csv
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfgsolvers import collocation as C
from mfgsolvers import kernels as K
from mfgsolvers import linsys as L
from mfgsolvers import optimizer as O
from mfgsolvers import pipeline as PL
from mfgsolvers import problems as P
from mfgsolvers.errors import NonFiniteObjective, SingularNormalEquations
from mfgsolvers.pipeline import default_drift, default_drift_dx, default_potential

SPEC_1D = P.make_1d_stationary(default_potential, default_drift, default_drift_dx)


def _gp_system(M=12, gamma=1.0, beta=10.0, eta=1e-6):
    kernel = K.periodic_kernel_1d(0.6)
    pts = C.sample_uniform_grid(1, M)
    phi, psi = C.build_functionals(SPEC_1D, pts)
    fu = L.build_gram_factor(kernel, phi, eta)
    fm = L.build_gram_factor(kernel, psi, eta)
    return O.MfgSystem(SPEC_1D, pts, phi, psi, fu, fm, gamma, beta), phi, psi


def _random_state(phi, psi, seed, scale=0.3):
    rng = np.random.default_rng(seed)
    return O.SolverState(
        z=scale * rng.standard_normal(phi.size),
        rho=scale * rng.standard_normal(psi.size) + 1.0,
        lam=float(rng.standard_normal()),
    )


def _zero_start(phi, psi, has_lam=True):
    """The default start: z = 0, unit density on every identity block of m."""
    return O.init_state(phi, psi, has_lam, O.INIT_ZEROS, 1.0, 0)


def test_init_state_unit_density_on_identity_blocks():
    _, phi, psi = _gp_system()
    s = _zero_start(phi, psi)
    np.testing.assert_array_equal(s.z, 0.0)
    assert s.lam == 0.0
    id_slice = psi.slices[0]
    np.testing.assert_array_equal(s.rho[id_slice], 1.0)
    np.testing.assert_array_equal(s.rho[id_slice.stop :], 0.0)


def test_gaussian_init_deterministic_per_seed():
    _, phi, psi = _gp_system()
    a, b, c = (O.init_state(phi, psi, True, O.INIT_GAUSSIAN, 1.0, seed) for seed in (4, 4, 5))
    np.testing.assert_array_equal(a.pack(), b.pack())
    assert not np.array_equal(a.pack(), c.pack())


# -- inner solve against the dense normal equations --------------------------

def _system(method, **overrides):
    """A tiny system built the way pipeline.run_experiment builds it."""
    cfg = PL.ExperimentConfig(method=method, **overrides)
    problem = PL.PROBLEMS[cfg.problem]
    spec = problem.spec(cfg)
    pts = problem.points(cfg, spec)
    phi, psi = C.build_functionals(spec, pts)
    fu, fm = PL.METHODS[cfg.method](cfg, problem).factor((phi, psi))
    return O.MfgSystem(spec, pts, phi, psi, fu, fm, cfg.gamma, cfg.beta), phi, psi


def _dense_rows(system, state):
    """Dense A = [A_z, A_rho, a_lam], targets c and weights w of the linearized rows.

    Built equation by equation from the residual batches and the functional
    slices only, independently of the inner step's point-major rows: HJB rows,
    FP rows, boundary rows, then the normalization rows; zero-weight rows are
    dropped.
    """
    spec, pts, phi, psi = system.spec, system.pts, system.phi, system.psi
    m, n_b = len(pts.interior), pts.boundary.shape[0]
    d_b = len(spec.m_boundary_operators) if n_b else 0
    lam = state.lam or 0.0
    U = np.stack([state.z[sl] for sl in phi.slices], axis=1)
    M = np.stack([state.rho[sl] for sl in psi.slices[d_b:]], axis=1)
    R, dU, dM, dlam = P.interior_residual_batch(spec, pts.interior, U, M, lam)
    A_list, r_list = [], []
    for c in range(2):
        A = np.zeros((m, phi.size + psi.size + 1))
        for q, sl in enumerate(phi.slices):
            A[np.arange(m), sl.start + np.arange(m)] = dU[:, c, q]
        for d, sl in enumerate(psi.slices[d_b:]):
            A[np.arange(m), phi.size + sl.start + np.arange(m)] = dM[:, c, d]
        A[:, -1] = dlam[:, c]
        A_list.append(A)
        r_list.append(R[:, c])
    if d_b:
        Mb = np.stack([state.rho[sl] for sl in psi.slices[:d_b]], axis=1)
        Rb, _, dMb, _ = P.boundary_residual_batch(spec, pts.boundary, np.zeros((n_b, 0)), Mb, lam)
        A = np.zeros((n_b, phi.size + psi.size + 1))
        for d, sl in enumerate(psi.slices[:d_b]):
            A[np.arange(n_b), phi.size + sl.start + np.arange(n_b)] = dMb[:, 0, d]
        A_list.append(A)
        r_list.append(Rb[:, 0])
    A = np.vstack(A_list)
    c_vec = A @ np.concatenate([state.z, state.rho, [lam]]) - np.concatenate(r_list)
    w = np.full(A.shape[0], system.gamma)
    for on, sl, offset, target in (
        (spec.normalize_u, phi.slices[0], 0, 0.0),
        (spec.normalize_m, psi.slices[d_b], phi.size, spec.density_mean),
    ):
        if on:
            row = np.zeros(A.shape[1])
            row[offset + sl.start : offset + sl.stop] = 1.0 / m
            A, c_vec, w = np.vstack([A, row]), np.append(c_vec, target), np.append(w, system.beta)
    keep = w > 0
    A, c_vec, w = A[keep], c_vec[keep], w[keep]
    if not system.has_lam:
        A = A[:, :-1]
    return A, c_vec, w


_TORUS_1D_GP = dict(problem="mfg1d", M=10, gamma=2.0, beta=5.0)
# a wide nugget keeps the dense oracle's normal equations well conditioned
# (cond ~1e6 rather than ~1e11 at eta = 1e-6), so 1e-10 measures the inner step
_TORUS_2D_GP = dict(problem="nonlocal2d", M=16, sigma=0.8, eta=0.1, nu=1.0, gamma=2.0, beta=5.0)
_PLANNING_GP = dict(problem="planning", n_interior=30, n_initial=6, n_terminal=6, gamma=2.0, beta=5.0)


@pytest.mark.parametrize(
    "case",
    [
        _TORUS_1D_GP,  # lambda, two normalization rows
        _TORUS_2D_GP,
        _PLANNING_GP,  # boundary rows, no lambda
        dict(_TORUS_1D_GP, beta=0.0),  # normalization rows dropped
        dict(_TORUS_2D_GP, gamma=0.0),  # residual rows dropped
    ],
    ids=["mfg1d", "nonlocal2d", "planning", "mfg1d-beta0", "nonlocal2d-gamma0"],
)
def test_inner_solve_matches_dense_normal_equations(case):
    """The residual-space solve equals (P + A^T W A)^{-1} A^T W c, rel <= 1e-10."""
    system, phi, psi = _system("gp", **case)
    state = _random_state(phi, psi, seed=8)
    if not system.has_lam:
        state.lam = None
    hat = system.inner_solve(state)

    A, c_vec, w = _dense_rows(system, state)
    n_z, n_rho = phi.size, psi.size
    P_dense = np.zeros((A.shape[1],) * 2)
    P_dense[:n_z, :n_z] = np.linalg.inv(system.quad_u.regularized)
    P_dense[n_z : n_z + n_rho, n_z : n_z + n_rho] = np.linalg.inv(system.quad_m.regularized)
    if system.has_lam:
        P_dense[-1, -1] = 1.0
    lhs = P_dense + A.T @ (w[:, None] * A)
    rhs = A.T @ (w * c_vec)
    theta = np.linalg.solve(lhs, rhs)
    got = hat.pack()
    rel = np.linalg.norm(got - theta) / np.linalg.norm(theta)
    assert rel < 1e-10, f"dense-vs-residual-space mismatch {rel:.3e}"


@pytest.mark.parametrize(
    "case", [_TORUS_1D_GP, _TORUS_2D_GP, _PLANNING_GP], ids=["mfg1d", "nonlocal2d", "planning"]
)
def test_inner_solve_across_point_chunks_matches_dense_normal_equations(case, monkeypatch):
    """With 7-point chunks the triangle of B that the residual side forms spans
    several chunks of each point group, and on planning the boundary group's
    rows before the interior's; the solve still meets the 1e-10 bound."""
    monkeypatch.setattr(O, "POINT_CHUNK", 7)
    system, _, _ = _system("gp", **case)
    assert not system.feature_side
    assert all(len(X) > O.POINT_CHUNK for X, *_ in system._groups)
    test_inner_solve_matches_dense_normal_equations(case)


def test_lattice_feature_side_inner_solve_matches_dense_normal_equations():
    """A 64-point 1D lattice splits its grams into k = 41 + 41 half-mode
    features plus lambda, fewer than its r = 130 rows: it takes the feature
    side, which meets the residual side's 1e-10 bound.  The nugget 1e-4
    keeps the dense oracle well conditioned: at 1e-6, cond(Theta) is 3.6e11
    and the oracle misses the residual side's own step by 2.1e-9."""
    case = dict(_TORUS_1D_GP, M=64, eta=1e-4)
    system, _, _ = _system("gp", **case)
    assert system.feature_side
    assert isinstance(system.quad_u, L.LatticeFactor)
    test_inner_solve_matches_dense_normal_equations(case)


def test_bundled_lattice_configs_take_the_side_of_their_feature_count(monkeypatch):
    """mfg1d_gp (k = 41 + 41 + 1 = 83 < r = 514) takes the feature side;
    nonlocal2d_gp_nu1 (k = 2 x 2207 + 1 >= r = 802) keeps the residual side
    and steps without forming its half-mode feature matrix.  Both take their
    gram and its features from the kernel's spectrum: with numpy's
    eigendecompositions and the scattered-point tables (CrossTables)
    unavailable, each builds its factors, counts k and takes one inner step."""

    def unavailable(*args, **kwargs):
        raise AssertionError("a lattice system took an eigendecomposition or CrossTables")

    def never(self):
        raise AssertionError("a residual-side system formed LatticeFactor.features")

    for owner, attr in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (K, "CrossTables")):
        monkeypatch.setattr(owner, attr, unavailable)
    for name, k, feature_side in (("mfg1d_gp", 83, True), ("nonlocal2d_gp_nu1", 4415, False)):
        if not feature_side:
            monkeypatch.setattr(L.LatticeFactor, "features", property(never))
        system, phi, psi = _system("gp", **_bundled_overrides(name))
        assert isinstance(system.quad_u, L.LatticeFactor)
        counts = system.quad_u.feature_count, system.quad_m.feature_count
        assert sum(counts) + system.has_lam == k and system.feature_side == feature_side
        hat = system.inner_solve(_zero_start(phi, psi, system.has_lam))
        assert np.all(np.isfinite(hat.pack()))


def test_inner_solve_satisfies_normal_equation_residual():
    system, phi, psi = _gp_system(M=14, gamma=1.0, beta=100.0)
    for seed in range(3):
        state = _random_state(phi, psi, seed)
        hat = system.inner_solve(state)
        assert system.normal_equation_residual(state, hat) < 1e-10


def test_linear_problem_one_step_fixed_point():
    """With only linear rows active, a full GN step is a fixed point to 1e-10."""
    # gamma = 0 drops the nonlinear residual rows; the normalization rows are
    # linear, so the inner minimizer is exact and iterating does not move it.
    system, phi, psi = _gp_system(M=10, gamma=0.0, beta=50.0)
    state = _random_state(phi, psi, seed=2)
    hat = system.inner_solve(state)
    again = system.inner_solve(hat)
    num = np.linalg.norm(again.pack() - hat.pack())
    den = np.linalg.norm(hat.pack()) + 1e-300
    assert num / den < 1e-10, f"fixed-point violation {num / den:.3e}"


def test_inner_solve_with_all_zero_weights_returns_zero_state():
    system, phi, psi = _gp_system(gamma=0.0, beta=0.0)
    state = _random_state(phi, psi, seed=1)
    hat = system.inner_solve(state)
    np.testing.assert_array_equal(hat.pack(), 0.0)


# -- loss bookkeeping --------------------------------------------------------

def test_loss_terms_are_consistent():
    """The loss split against the residual batches called on the functional slices:
    interior and boundary rows, and the mean normalization rows with their targets."""
    for case in (_TORUS_1D_GP, _PLANNING_GP):
        system, phi, psi = _system("gp", **dict(case, gamma=3.0, beta=7.0))
        spec, pts = system.spec, system.pts
        state = _random_state(phi, psi, seed=9)
        if not system.has_lam:
            state.lam = None
        total, quad, pde, norm = system.loss(state)
        assert total == pytest.approx(quad + pde + norm, rel=1e-12)
        n_b = pts.boundary.shape[0]
        d_b = len(spec.m_boundary_operators) if n_b else 0
        if spec.kind == P.MFG_1D:  # no boundary rows on the torus: HJB, FP and two means
            assert system.n_rows == 2 * len(pts.interior) + 2
        U = np.stack([state.z[sl] for sl in phi.slices], axis=1)
        M = np.stack([state.rho[sl] for sl in psi.slices[d_b:]], axis=1)
        R, _, _, _ = P.interior_residual_batch(spec, pts.interior, U, M, state.lam or 0.0)
        expected_pde = float(np.sum(R**2))
        if d_b:
            Mb = np.stack([state.rho[sl] for sl in psi.slices[:d_b]], axis=1)
            Rb, _, _, _ = P.boundary_residual_batch(spec, pts.boundary, np.zeros((n_b, 0)), Mb, 0.0)
            assert Rb.shape == (n_b, 1)
            expected_pde += float(np.sum(Rb**2))
        assert pde == pytest.approx(3.0 * expected_pde, rel=1e-12)
        # planning pins each time slice's mass to 1 on [-2, 2]: a mean density of 1/4
        assert spec.density_mean == (1.0 if spec.has_ergodic_constant else 0.25)
        expected_norm = (float(np.mean(M[:, 0])) - spec.density_mean) ** 2
        if spec.normalize_u:
            expected_norm += float(np.mean(U[:, 0])) ** 2
        assert norm == pytest.approx(7.0 * expected_norm, rel=1e-12)
        assert quad > 0.0


@pytest.mark.parametrize("case, n_norm", [(_TORUS_1D_GP, 2), (_PLANNING_GP, 1)], ids=["mfg1d", "planning"])
def test_loss_normalization_term_is_that_of_the_steps_rows(case, n_norm):
    """loss's beta term is beta ||N_z^T z + N_rho^T rho - c||^2 over the
    normalization rows the inner step linearizes: the columns N and the
    tail of its targets c."""
    system, phi, psi = _system("gp", **case)
    state = _random_state(phi, psi, seed=11)
    if not system.has_lam:
        state.lam = None
    c = system._targets(system._linearize_by_point(state), state)[-n_norm:]
    Nz, Nm = system._norm_t
    assert Nz.shape[1] == Nm.shape[1] == n_norm
    res = Nz.T @ state.z + Nm.T @ state.rho - c
    assert system.loss(state)[3] == pytest.approx(system.beta * float(res @ res), rel=1e-14, abs=0)


def test_gauss_newton_descends_on_the_1d_problem(monkeypatch):
    system, phi, psi = _gp_system(M=24, gamma=1.0, beta=1e4, eta=1e-6)
    # STEP_TOL 0: no stop before max_iters; the default stops this run after 6 steps
    monkeypatch.setattr(O, "STEP_TOL", 0.0)
    state, hist = O.gauss_newton_run(system, _zero_start(phi, psi), 0.4, 8)
    assert len(hist.total) == 9
    assert hist.total[-1] < hist.total[0]


def _relative_step(state, hat):
    theta, theta_hat = state.pack(), hat.pack()
    return np.linalg.norm(theta_hat - theta) / np.linalg.norm(theta_hat)


def _recording_inner_solve(system):
    """Wraps system.inner_solve; returns the list of (state, theta_hat) it is called with."""
    calls, solve = [], system.inner_solve

    def recorded(state):
        hat = solve(state)
        calls.append((O.SolverState(state.z.copy(), state.rho.copy(), state.lam), hat))
        return hat

    system.inner_solve = recorded
    return calls


def test_step_tol_stops_at_the_first_vanishing_step(monkeypatch):
    """The run stops at the first theta_hat within STEP_TOL of theta, solves no
    further inner problem, and its history ends at the last accepted state."""
    system, phi, psi = _gp_system(M=16, gamma=1.0, beta=1e4)
    monkeypatch.setattr(O, "STEP_TOL", 1e-6)
    calls = _recording_inner_solve(system)
    state, hist = O.gauss_newton_run(system, _zero_start(phi, psi), 0.4, 50)
    steps = [_relative_step(s, h) for s, h in calls]
    assert steps[-1] <= O.STEP_TOL
    assert all(v > O.STEP_TOL for v in steps[:-1])
    # one inner solve per accepted step, plus the one that stopped the run
    assert len(calls) == len(hist.total) < 50 + 1
    np.testing.assert_array_equal(state.pack(), calls[-1][0].pack())
    assert hist.total[-1] == system.loss(state)[0]
    np.testing.assert_allclose(hist.step_norm[1:], steps[:-1], rtol=1e-12)


# -- the step search ---------------------------------------------------------

def _counting_loss(system, replace_at=()):
    """Wraps system.loss; call i (0 is the starting state) returns all-inf parts
    when i is in replace_at.  Returns the list of totals it handed out."""
    totals, loss = [], system.loss

    def counted(state):
        parts = (np.inf,) * 4 if len(totals) in replace_at else loss(state)
        totals.append(parts[0])
        return parts

    system.loss = counted
    return totals


def _overshooting(system, factor):
    """Makes the inner step return theta + factor (theta_hat - theta)."""
    solve = system.inner_solve

    def overshoot(state):
        return O._moved(state, solve(state), factor)

    system.inner_solve = overshoot


def test_step_search_accepts_the_first_halving_that_lowers_the_loss():
    system, phi, psi = _gp_system(M=16, gamma=1.0, beta=1e4)
    alpha, state0 = 0.01, _zero_start(phi, psi)
    _overshooting(system, 16.0)
    hat = system.inner_solve(state0)
    loss0 = system.loss(state0)[0]
    want = next(t for t in O._step_lengths(alpha) if system.loss(O._moved(state0, hat, t))[0] < loss0)
    assert alpha < want < 1.0  # the full step raises the loss
    _, hist = O.gauss_newton_run(system, state0, alpha, 1)
    assert hist.step == [0.0, want]
    assert hist.total[1] < hist.total[0]


def test_step_search_takes_alpha_when_no_longer_step_lowers_the_loss(monkeypatch):
    """Along the reversed Gauss-Newton direction no step lowers the loss: the
    relaxed step alpha is taken anyway and the run goes on."""
    system, phi, psi = _gp_system(M=16, gamma=1.0, beta=1e4)
    monkeypatch.setattr(O, "STEP_TOL", 0.0)
    _overshooting(system, -1.0)
    totals = _counting_loss(system)
    _, hist = O.gauss_newton_run(system, _zero_start(phi, psi), 0.2, 2)
    trials = len(O._step_lengths(0.2))
    assert trials == 4  # 1, 1/2, 1/4, then alpha
    assert len(totals) == 1 + 2 * trials
    assert min(totals[1 : trials + 1]) >= totals[0]  # no trial lowered the loss
    assert hist.step == [0.0, 0.2, 0.2]
    assert hist.total[1:] == [totals[trials], totals[2 * trials]]


def test_full_steps_make_one_loss_call_per_iteration(monkeypatch):
    system, phi, psi = _gp_system(M=16, gamma=1.0, beta=1e4)
    monkeypatch.setattr(O, "STEP_TOL", 0.0)
    totals = _counting_loss(system)
    _, hist = O.gauss_newton_run(system, _zero_start(phi, psi), 1.0, 4)
    assert len(hist.total) == 5
    assert totals == hist.total
    assert hist.step == [0.0] + [1.0] * 4


def test_non_finite_trial_loss_backtracks():
    """An infinite objective at the full step is no decrease: the step halves."""
    system, phi, psi = _gp_system(M=16, gamma=1.0, beta=1e4)
    state0 = _zero_start(phi, psi)
    half = O._moved(state0, system.inner_solve(state0), 0.5)
    assert system.loss(half)[0] < system.loss(state0)[0]
    totals = _counting_loss(system, replace_at={1})
    _, hist = O.gauss_newton_run(system, state0, 0.4, 1)
    assert totals[1] == np.inf
    assert hist.step == [0.0, 0.5]
    assert hist.total[1] == system.loss(half)[0]


def test_non_finite_relaxed_step_raises_with_its_iteration(monkeypatch):
    system, phi, psi = _gp_system(M=16, gamma=1.0, beta=1e4)
    monkeypatch.setattr(O, "STEP_TOL", 0.0)
    # iteration 1 makes one trial (the full step lowers the loss); iteration 2 has
    # every trial infinite, so its relaxed step is non-finite
    _counting_loss(system, replace_at={2, 3, 4})
    with pytest.raises(NonFiniteObjective) as err:
        O.gauss_newton_run(system, _zero_start(phi, psi), 0.4, 3)
    assert err.value.iteration == 2


def test_non_finite_objective_reports_iteration():
    system, phi, psi = _gp_system(M=8)
    # a huge gradient value overflows the exponential in the 1D residual
    bad = O.SolverState(
        z=np.full(phi.size, 1e4), rho=np.ones(psi.size), lam=0.0
    )
    with pytest.raises(NonFiniteObjective):
        O.gauss_newton_run(system, bad, 1.0, 50)


def test_loss_history_csv(tmp_path):
    h = O.LossHistory()
    h.append(3.0, 1.0, 1.5, 0.5)
    h.append(2.0, 1.0, 0.75, 0.25, 0.5, 0.125)
    path = tmp_path / "loss.csv"
    h.export_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "iteration", "total", "quadratic", "pde_penalty", "norm_penalty", "step", "step_norm"
    ]
    assert [float(v) for v in rows[1]] == [0, 3.0, 1.0, 1.5, 0.5, 0.0, 0.0]
    assert [float(v) for v in rows[2]] == [1, 2.0, 1.0, 0.75, 0.25, 0.5, 0.125]


def test_run_history_csv_cells_are_finite(tmp_path):
    """Every cell of a real run's loss_history.csv parses as a finite float."""
    system, phi, psi = _gp_system(M=16, gamma=1.0, beta=1e4)
    _, hist = O.gauss_newton_run(system, _zero_start(phi, psi), 0.4, 10)
    hist.export_csv(tmp_path / "loss.csv")
    with open(tmp_path / "loss.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(hist.total) > 2
    assert all(np.isfinite(float(v)) for row in rows for v in row)
    assert [float(v) for v in rows[0][5:]] == [0.0, 0.0]
    assert all(0.0 < float(row[6]) for row in rows[1:])


# -- the feature side: B = S + U U^T factored through the feature rows -------

def _dense_inner_solve(system, state):
    """theta_hat from np.linalg.solve of the dense r x r matrix B."""
    A, c_vec, w = _dense_rows(system, state)
    n_z, n_rho = system.n_z, system.n_rho
    A_z, A_rho, a_lam = A[:, :n_z], A[:, n_z : n_z + n_rho], A[:, n_z + n_rho :]
    fu, fm = system.quad_u, system.quad_m
    P_u = fu.A @ fu.A.T + fu.mu * np.eye(n_z)
    P_m = fm.A @ fm.A.T + fm.mu * np.eye(n_rho)
    B = A_z @ P_u @ A_z.T + A_rho @ P_m @ A_rho.T + a_lam @ a_lam.T + np.diag(1.0 / w)
    y = np.linalg.solve(B, c_vec)
    lam = float(a_lam[:, 0] @ y) if system.has_lam else None
    return P_u @ (A_z.T @ y), P_m @ (A_rho.T @ y), lam


_TORUS_1D = dict(problem="mfg1d", M=32, N=6, mu=1e-3)
_TORUS_2D = dict(problem="nonlocal2d", M=64, N=2, nu=1.0, mu=1e-3)
_PLANNING = dict(problem="planning", n_interior=60, n_initial=10, n_terminal=10, N=8, mu=1e-3)


@pytest.mark.parametrize(
    "case, feature_side",
    [
        (dict(_TORUS_1D, gamma=1.0, beta=100.0), True),  # lambda, two normalization rows
        (dict(_TORUS_2D, gamma=1.0, beta=100.0), True),
        (dict(_PLANNING, gamma=1.0, beta=100.0), True),  # boundary rows, no lambda
        (dict(_TORUS_1D, gamma=1.0, beta=0.0), True),  # normalization rows dropped
        (dict(_PLANNING, gamma=1.0, beta=0.0), True),
        (dict(_TORUS_2D, gamma=0.0, beta=100.0), False),  # residual rows dropped: r = 2 < k
        (dict(_TORUS_1D, M=8), False),  # k = 27 > r = 18
        (dict(_TORUS_1D, M=8, gamma=1.0, beta=100.0), False),  # S couples the point rows
    ],
    ids=["mfg1d", "nonlocal2d", "planning", "mfg1d-beta0", "planning-beta0",
         "nonlocal2d-gamma0", "mfg1d-dense", "mfg1d-dense-coupled"],
)
def test_ff_inner_solve_matches_dense_solve_of_B(case, feature_side):
    """z, rho and lambda agree with a dense solve of B to 1e-8 relative."""
    system, phi, psi = _system("ff", **case)
    assert system.feature_side is feature_side
    for seed in range(2):
        state = _random_state(phi, psi, seed)
        if not system.has_lam:
            state.lam = None
        hat = system.inner_solve(state)
        z, rho, lam = _dense_inner_solve(system, state)
        for got, want in ((hat.z, z), (hat.rho, rho)):
            if np.linalg.norm(want):
                assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
            else:
                np.testing.assert_allclose(got, 0.0, atol=1e-12)
        if lam is None:
            assert hat.lam is None
        else:
            assert abs(hat.lam - lam) <= 1e-8 * max(abs(lam), 1e-12)


def _bundled_overrides(name):
    """The bundled config's fields but its method, as keyword overrides for _system."""
    path = Path(PL.__file__).parent / "configs" / f"{name}.json"
    cfg = PL.ExperimentConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
    return {k: v for k, v in cfg.to_dict().items() if k not in ("method", "output_dir")}


def test_ff_residual_side_across_point_chunks_matches_dense_solve_of_B(monkeypatch):
    """The k >= r feature system with coupled normalization rows, in 7-point
    chunks, agrees with a dense solve of B to 1e-8."""
    monkeypatch.setattr(O, "POINT_CHUNK", 7)
    case = dict(_TORUS_1D, M=8, gamma=1.0, beta=100.0)
    system, _, _ = _system("ff", **case)
    assert all(len(X) > O.POINT_CHUNK for X, *_ in system._groups)
    test_ff_inner_solve_matches_dense_solve_of_B(case, feature_side=False)


@pytest.mark.parametrize(
    "case", [_bundled_overrides("mfg1d_ff"), dict(_TORUS_2D, gamma=1.0, beta=100.0)],
    ids=["mfg1d_ff", "nonlocal2d"],
)
def test_feature_side_never_forms_the_regularized_matrix(case, monkeypatch):
    """A feature-side system builds, steps and evaluates its loss without F F^T + mu I."""

    def never(self):
        raise AssertionError("the feature side read FeatureFactor.regularized")

    monkeypatch.setattr(L.FeatureFactor, "regularized", property(never))
    system, phi, psi = _system("ff", **case)
    assert system.feature_side
    state = _random_state(phi, psi, seed=3)
    assert np.isfinite(system.loss(system.inner_solve(state))[0])
    # the residual side (k >= r) does read it, at its first step, so the patch is live
    dense, phi, psi = _system("ff", **dict(_TORUS_1D, M=8))
    assert not dense.feature_side
    with pytest.raises(AssertionError, match="read FeatureFactor.regularized"):
        dense.inner_solve(_random_state(phi, psi, seed=3))


@pytest.mark.parametrize("entry", [(2, 2, np.inf), (1, 4, np.inf), (4, 1, -np.inf), (3, 3, np.nan)])
def test_non_finite_inner_matrix_raises_singular_normal_equations(entry, monkeypatch):
    """A non-finite entry of the symmetric B fails the in-place Cholesky solve
    cleanly, as the residual side's SingularNormalEquations."""
    system, phi, psi = _system("gp", **_TORUS_1D_GP)
    assert not system.feature_side
    solve, (i, j, value) = L.cholesky_solve, entry

    def poisoned(B, c, name):
        B[i, j] = B[j, i] = value
        return solve(B, c, name)

    monkeypatch.setattr(L, "cholesky_solve", poisoned)
    with pytest.raises(SingularNormalEquations, match="^residual-side inner solve failed: inner matrix B"):
        system.inner_solve(_random_state(phi, psi, seed=0))


def _bundled_normal_equation_residuals(name):
    """Run the bundled config; check that it stops by the step rule before
    max_iters and return the normal-equation residual of every inner solve."""
    path = Path(PL.__file__).parent / "configs" / f"{name}.json"
    cfg = PL.ExperimentConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
    overrides = {k: v for k, v in cfg.to_dict().items() if k not in ("method", "output_dir")}
    system, phi, psi = _system(cfg.method, **overrides)
    # a split P^{-1} = F F^T + D (features, or a lattice gram's spectrum)
    # with fewer columns k than rows r takes the feature side
    counts = system.quad_u.feature_count, system.quad_m.feature_count
    k = None if None in counts else sum(counts) + system.has_lam
    assert system.feature_side is (k is not None and k < system.n_rows)
    calls = _recording_inner_solve(system)
    _, hist = O.gauss_newton_run(system, _zero_start(phi, psi), cfg.alpha, cfg.max_iters)
    # the last inner solve found a vanishing step and took none
    assert len(calls) == len(hist.total) < cfg.max_iters + 1
    assert _relative_step(*calls[-1]) <= O.STEP_TOL
    return [system.normal_equation_residual(state, hat) for state, hat in calls]


@pytest.mark.parametrize("name", ["nonlocal2d_ff_nu1", "mfg1d_ff", "nonlocal2d_gp_nu1", "mfg1d_gp"])
def test_debug_gauss_newton_on_bundled_configs(name):
    """A run of the bundled config stops by the step rule before max_iters;
    every inner solve satisfies its normal equations to 1e-10 (ff) or 1e-8 (gp)."""
    bound = 1e-10 if name.split("_")[1] == "ff" else 1e-8
    assert max(_bundled_normal_equation_residuals(name)) <= bound


def test_debug_gauss_newton_on_nonlocal2d_ff_nu01():
    """The feature side's largest system (r = 5002 rows, k = 883 columns, 10
    iterations): every inner solve satisfies its normal equations to 5e-10.
    The capacitance Cholesky measures 2.6e-10 here, the SVD route it
    replaced 2.7e-10; cond(I + V^T V) reaches about 3e14."""
    assert max(_bundled_normal_equation_residuals("nonlocal2d_ff_nu01")) <= 5e-10


def test_feature_side_step_runs_no_orthogonal_factorization(monkeypatch):
    """Once the factors are set up, a feature-side run takes no QR and no SVD."""
    system, phi, psi = _system("ff", **dict(_TORUS_2D, gamma=1.0, beta=100.0))
    assert system.feature_side

    def never(*args, **kwargs):
        raise AssertionError("an orthogonal factorization ran in the Gauss-Newton loop")

    for name in ("_qr_svd", "_reflect"):
        monkeypatch.setattr(L, name, never)
    monkeypatch.setattr(np.linalg, "svd", never)
    monkeypatch.setattr(np.linalg, "qr", never)
    _, hist = O.gauss_newton_run(system, _zero_start(phi, psi), 1.0, 3)
    assert np.isfinite(hist.total[-1])


def test_failed_capacitance_cholesky_raises_singular_normal_equations(monkeypatch):
    """dpotrf reporting info > 0 on the feature side's k x k capacitance matrix
    fails the inner step as SingularNormalEquations (exit status 3)."""
    system, phi, psi = _system("ff", **dict(_TORUS_2D, gamma=1.0, beta=100.0))
    assert system.feature_side
    monkeypatch.setattr(L.lapack, "dpotrf", lambda a, **kw: (a, 5))
    with pytest.raises(SingularNormalEquations, match="capacitance.*leading minor 5"):
        system.inner_solve(_random_state(phi, psi, seed=0))


@pytest.mark.parametrize(
    "case, feature_side",
    [(dict(_TORUS_2D, gamma=1.0, beta=100.0), True), (dict(_TORUS_2D, M=16), False)],
)
def test_infinite_jacobian_raises_singular_normal_equations(case, feature_side, monkeypatch):
    """An infinite Jacobian entry with finite residuals fails the inner solve cleanly."""
    system, phi, psi = _system("ff", **case)
    assert system.feature_side is feature_side
    interior = system.spec.interior

    def inf_jacobian(spec, X, U, M, lam, out):
        interior(spec, X, U, M, lam, out)
        out[1][0, 0, 1] = np.inf

    monkeypatch.setattr(system, "spec", replace(system.spec, interior=inf_jacobian))
    with pytest.raises(SingularNormalEquations):
        system.inner_solve(_random_state(phi, psi, seed=0))


# -- the residual side's workspace -------------------------------------------

@pytest.mark.parametrize(
    "method, case",
    [
        # r = 514; on random points, as a lattice would take the feature side
        ("gp", dict(_bundled_overrides("mfg1d_gp"), grid_sampling=False)),
        ("gp", dict(_TORUS_2D_GP, M=144)),  # r = 290
        ("ff", dict(_TORUS_1D, M=64, N=40)),  # k = 163 >= r = 130
    ],
    ids=["mfg1d_gp", "nonlocal2d-gp", "mfg1d-ff-dense"],
)
def test_residual_side_step_allocates_less_than_one_r_by_r_matrix(method, case):
    """After a warm-up step, a step's tracemalloc peak is below one r x r float64 matrix."""
    system, phi, psi = _system(method, **case)
    assert not system.feature_side
    state = _random_state(phi, psi, seed=6)
    system.inner_solve(state)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system.inner_solve(state)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    r_by_r = 8 * system.n_rows**2
    assert peak < r_by_r, f"step peak {peak} B, r x r is {r_by_r} B"


@pytest.mark.parametrize(
    "case", [dict(_TORUS_2D_GP, M=144), _PLANNING_GP], ids=["nonlocal2d-gp", "planning-gp"]
)
def test_first_residual_side_step_holds_no_n_by_r_product(case, monkeypatch):
    """The first step, which allocates the workspace, peaks below r x r plus
    half of an n x r float64 matrix (n = n_u + n_m): B is built by column
    slabs, so no Theta A^T of either side is held whole.  7-point chunks keep
    the slab buffers far narrower than r."""
    monkeypatch.setattr(O, "POINT_CHUNK", 7)
    system, phi, psi = _system("gp", **case)
    assert not system.feature_side
    state = _random_state(phi, psi, seed=6)
    if not system.has_lam:
        state.lam = None
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system.inner_solve(state)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    r, n = system.n_rows, phi.size + psi.size
    bound = 8 * (r * r + n * r // 2)
    assert peak < bound, f"first step peak {peak} B, bound {bound} B (r = {r}, n = {n})"


@pytest.mark.parametrize(
    "method, case",
    [("gp", _TORUS_1D_GP), ("gp", _PLANNING_GP), ("ff", dict(_TORUS_1D, M=8, gamma=1.0, beta=100.0))],
    ids=["mfg1d-gp", "planning-gp", "mfg1d-ff-dense"],
)
def test_residual_workspace_reuse_is_exact_and_released(method, case):
    """Steps on one system equal steps on fresh systems bit for bit and leave
    earlier results alone; gauss_newton_run releases the workspace."""
    system, phi, psi = _system(method, **case)
    assert not system.feature_side
    states = [_random_state(phi, psi, seed) for seed in (4, 5)]
    if not system.has_lam:
        for state in states:
            state.lam = None
    first = system.inner_solve(states[0])
    kept = first.pack().copy()
    second = system.inner_solve(states[1])
    np.testing.assert_array_equal(first.pack(), kept)
    for state, got in zip(states, (first, second)):
        fresh, _, _ = _system(method, **case)
        np.testing.assert_array_equal(got.pack(), fresh.inner_solve(state).pack())
    assert system._workspace is not None
    O.gauss_newton_run(system, _zero_start(phi, psi, system.has_lam), 0.4, 2)
    assert system._workspace is None
