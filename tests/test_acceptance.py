"""Acceptance gate: one test per release criterion, one [PASS]/[FAIL] line each.

These are the end-to-end checks the package must satisfy before a release:
solution accuracy on the problem with a closed form, cross-method agreement
where no closed form exists, constraint satisfaction for the planning runs,
precompute scaling shape, and the numerical identities the solver relies on.
Runs use the bundled default configs; tolerances are stated inline and are
never loosened to make a failing run pass.
"""

import json
import sys
import time
from importlib import resources

import numpy as np

import conftest
from mfgsolvers import collocation as C
from mfgsolvers import features as F
from mfgsolvers import kernels as K
from mfgsolvers import linsys as L
from mfgsolvers import optimizer as O
from mfgsolvers import problems as P
from mfgsolvers import solution as S
from mfgsolvers.pipeline import (
    ExperimentConfig,
    bench_precompute,
    default_drift,
    default_drift_dx,
    default_potential,
    run_experiment,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    conftest.VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _load_config(name: str) -> ExperimentConfig:
    path = resources.files("mfgsolvers").joinpath("configs", name)
    return ExperimentConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))


# -- 1. closed-form accuracy of the 1D stationary runs ------------------------

def test_criterion_1_explicit_solution_accuracy():
    """Default 1D runs vs the closed form: GP u 1e-4 / m 1e-1 / H 1e-2;
    FF u 1e-3 / m 1e-1 / H 1e-2; under 5 minutes."""
    t0 = time.perf_counter()
    bands = {"gp": (1e-4, 1e-1, 1e-2), "ff": (1e-3, 1e-1, 1e-2)}
    parts, ok = [], True
    for method, (bu, bm, bh) in bands.items():
        r = run_experiment(_load_config(f"mfg1d_{method}.json")).report
        good = r.linf_u <= bu and r.linf_m <= bm and r.err_hbar <= bh
        ok = ok and good
        parts.append(f"{method} u={r.linf_u:.2e} m={r.linf_m:.2e} hbar={r.err_hbar:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _verdict(1, ok, "; ".join(parts) + f"; {elapsed:.0f}s (limit 300s)")


# -- 2. ridge inverse identity ------------------------------------------------

def test_criterion_2_ridge_inverse_identity():
    """200 random (A, mu in [1e-8, 1], v): factored inverse vs dense solve,
    relative discrepancy < 1e-8, under 10 seconds.

    A is drawn wide (rows < columns) so A A^T stays well conditioned
    independently of mu and the dense reference itself is trustworthy; the
    tall case at moderate mu is covered by the unit tests.
    """
    rng = np.random.default_rng(20240515)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        rows = int(rng.integers(5, 40))
        cols = rows + int(rng.integers(20, 80))
        A = rng.standard_normal((rows, cols))
        mu = 10.0 ** rng.uniform(-8, 0)
        v = rng.standard_normal(rows)
        f = L.qr_ridge_factor(A, mu)
        ours = L.apply_qr_inverse(f, v)
        dense = np.linalg.solve(A @ A.T + mu * np.eye(rows), v)
        worst = max(worst, float(np.linalg.norm(ours - dense) / np.linalg.norm(dense)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _verdict(2, ok, f"worst rel discrepancy {worst:.2e} (limit 1e-8); {elapsed:.1f}s (limit 10s)")


# -- 3. precompute scaling shape ----------------------------------------------

def test_criterion_3_precompute_scaling():
    """1D problem, basis size fixed: GP factor time grows >= 4x from M=256 to
    M=2048, FF core-factor time grows <= 2x (it is feature-count sized).
    Median of 5 repeats."""
    gp = {m: ch for _, m, _, ch in bench_precompute("mfg1d", "gp", [256, 2048], repeats=5)}
    ff = {m: ch for _, m, _, ch in bench_precompute("mfg1d", "ff", [256, 2048], repeats=5)}
    gp_ratio = gp[2048] / gp[256]
    ff_ratio = ff[2048] / ff[256]
    ok = gp_ratio >= 4.0 and ff_ratio <= 2.0
    _verdict(3, ok, f"gp chol ratio {gp_ratio:.1f} (>= 4 required), "
                    f"ff core ratio {ff_ratio:.2f} (<= 2 required)")


# -- 4. 2D nonlocal cross-method agreement ------------------------------------

def test_criterion_4_nonlocal_2d_cross_agreement():
    """Default 2D runs: |H_gp - H_ff| <= 0.16 at nu=0.1 and <= 0.02 at nu=1;
    each method's held-out RMS residual drops >= 10x; under 15 minutes."""
    t0 = time.perf_counter()
    runs = {}
    drops_ok = True
    parts = []
    for tag in ("gp_nu1", "ff_nu1", "gp_nu01", "ff_nu01"):
        r = run_experiment(_load_config(f"nonlocal2d_{tag}.json"))
        runs[tag] = r
        drop = r.initial_residual / max(r.final_residual, 1e-300)
        drops_ok = drops_ok and drop >= 10.0
        parts.append(f"{tag} res {r.initial_residual:.3f}->{r.final_residual:.4f}")
    gap1 = abs(runs["gp_nu1"].lam - runs["ff_nu1"].lam)
    gap01 = abs(runs["gp_nu01"].lam - runs["ff_nu01"].lam)
    elapsed = time.perf_counter() - t0
    ok = gap1 <= 0.02 and gap01 <= 0.16 and drops_ok and elapsed < 900.0
    _verdict(4, ok, f"hbar gap nu=1 {gap1:.4f} (<=0.02), nu=0.1 {gap01:.4f} (<=0.16); "
                    + "; ".join(parts) + f"; {elapsed:.0f}s (limit 900s)")


# -- 5. planning constraints --------------------------------------------------

def test_criterion_5_planning_constraints():
    """Default planning runs: mass in [0.95, 1.05] at t in {0.25, 0.5, 0.75},
    boundary density mismatch <= 0.25 in sup norm, final loss <= initial/10."""
    x = np.linspace(-P.SPACE_HALF_WIDTH, P.SPACE_HALF_WIDTH, 512)
    g0 = P.gaussian_density(x, P.INITIAL_CENTER)
    g1 = P.gaussian_density(x, P.TERMINAL_CENTER)
    ok = True
    parts = []
    for method in ("gp", "ff"):
        r = run_experiment(_load_config(f"planning_{method}.json"))
        masses = S.mass_trace(r.m_field, (0.25, 0.5, 0.75), x)
        m0 = r.m_field(np.stack([np.zeros_like(x), x], axis=1))
        m1 = r.m_field(np.stack([np.ones_like(x), x], axis=1))
        bdry = max(float(np.max(np.abs(m0 - g0))), float(np.max(np.abs(m1 - g1))))
        loss_ratio = r.history.total[-1] / r.history.total[0]
        good = (
            all(0.95 <= v <= 1.05 for v in masses)
            and bdry <= 0.25
            and loss_ratio <= 0.1
        )
        ok = ok and good
        parts.append(
            f"{method} masses {','.join(f'{v:.3f}' for v in masses)} "
            f"bdry {bdry:.3f} (<=0.25) loss x{loss_ratio:.3f} (<=0.1)"
        )
    _verdict(5, ok, "; ".join(parts))


# -- 6. derivative consistency ------------------------------------------------

def _feature_fd(basis, op, X, h):
    """Richardson-extrapolated central differences of the identity evaluation."""
    def central(step):
        if op == K.ID:
            return F.eval_feature_op(basis, K.ID, X)
        if op in (K.DX, K.DY, K.DT):
            axis = F._axis_index(basis, op)
            hi, lo = X.copy(), X.copy()
            hi[:, axis] += step
            lo[:, axis] -= step
            a = F.eval_feature_op(basis, K.ID, hi)
            b = F.eval_feature_op(basis, K.ID, lo)
            return (a - b) / (2.0 * step)
        # second-order operators: dxx along its basis axis, lap over all axes
        axes = range(basis.dim) if op == K.LAP else (F._axis_index(basis, op),)
        mid = F.eval_feature_op(basis, K.ID, X)
        out = np.zeros_like(mid)
        for ax in axes:
            hi, lo = X.copy(), X.copy()
            hi[:, ax] += step
            lo[:, ax] -= step
            a = F.eval_feature_op(basis, K.ID, hi)
            b = F.eval_feature_op(basis, K.ID, lo)
            out += (a - 2.0 * mid + b) / step**2
        return out

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def test_criterion_6_derivative_consistency():
    """100 random kernel/feature operator configurations vs central finite
    differences, relative error < 1e-4, under 30 seconds."""
    rng = np.random.default_rng(11)
    kernels = {
        "p1": (K.periodic_kernel_1d(0.6), (K.ID, K.DX, K.DXX)),
        "p2": (K.periodic_kernel_2d(0.5), (K.ID, K.DX, K.DY, K.DXX, K.LAP)),
        "aniso": (K.anisotropic_kernel(0.45, 0.71), (K.ID, K.DT, K.DX, K.DXX)),
    }
    bases = {
        "per1d": (F.build_periodic(8, 1), (K.DX, K.DXX)),
        "per2d": (F.build_periodic(3, 2), (K.DX, K.DY, K.LAP)),
        "random": (
            F.sample_orthogonal_features(
                F.RandomFeatureSampler(dimension=2, varsigma=0.2, seed=5), 40
            ),
            (K.DT, K.DX, K.DXX),
        ),
    }
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(60):
        name = sorted(kernels)[int(rng.integers(3))]
        k, ops = kernels[name]
        left = ops[rng.integers(len(ops))]
        right = ops[rng.integers(len(ops))]
        err = K.finite_diff_check(k, left, right, rng.random(k.dim), rng.random(k.dim), 1e-3)
        worst = max(worst, err)
    for i in range(40):
        name = sorted(bases)[int(rng.integers(3))]
        basis, ops = bases[name]
        op = ops[rng.integers(len(ops))]
        X = rng.random((3, basis.dim))
        exact = F.eval_feature_op(basis, op, X)
        approx = _feature_fd(basis, op, X, 1e-3)
        scale = max(float(np.max(np.abs(exact))), 1.0)
        worst = max(worst, float(np.max(np.abs(approx - exact))) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(6, ok, f"worst rel error {worst:.2e} (limit 1e-4); {elapsed:.1f}s (limit 30s)")


# -- 7. solver oracles --------------------------------------------------------

def test_criterion_7_oracle_suite():
    """Closed-form residual <= 1e-10 at 1000 points; quadratic forms vs dense
    inverses <= 1e-9; one Gauss-Newton step is a fixed point of the linear
    problem to 1e-10."""
    spec = P.make_1d_stationary(default_potential, default_drift, default_drift_dx)
    exact = P.explicit_solution_1d(default_potential, default_drift)
    xs = np.random.default_rng(77).random(1000)
    b, bx = default_drift(xs), default_drift_dx(xs)
    m = exact.m_star(xs)
    vp = np.pi * np.cos(np.pi * xs)
    U = np.stack([exact.u_star(xs), exact.u_x_star(xs), -bx], axis=1)
    M = np.stack([m, (vp - b * bx) * m], axis=1)
    R, _, _, _ = P.interior_residual_batch(spec, xs[:, None], U, M, exact.h_bar_star)
    res_worst = float(np.max(np.abs(R)))

    rng = np.random.default_rng(5)
    kernel = K.periodic_kernel_1d(0.6)
    pts = C.sample_uniform_grid(1, 16)
    phi, _ = C.build_functionals(spec, pts)
    gf = L.build_gram_factor(kernel, phi, eta=1e-5)
    qf_worst = 0.0
    inv_dense_gram = np.linalg.inv(gf.regularized)
    A = rng.standard_normal((30, 60))
    ff = L.qr_ridge_factor(A, mu=1e-3)
    inv_dense_ridge = np.linalg.inv(A @ A.T + 1e-3 * np.eye(30))
    for seed in range(10):
        v = np.random.default_rng(seed).standard_normal(gf.size)
        ref = float(v @ inv_dense_gram @ v)
        qf_worst = max(qf_worst, abs(gf.quadratic_form(v) - ref) / abs(ref))
        w = np.random.default_rng(seed + 50).standard_normal(30)
        ref = float(w @ inv_dense_ridge @ w)
        qf_worst = max(qf_worst, abs(ff.quadratic_form(w) - ref) / abs(ref))

    fu = L.build_gram_factor(kernel, phi, eta=1e-6)
    _, psi = C.build_functionals(spec, pts)
    fm = L.build_gram_factor(kernel, psi, eta=1e-6)
    system = O.MfgSystem(spec, pts, phi, psi, fu, fm, gamma=0.0, beta=50.0)
    state = O.SolverState(
        z=0.3 * rng.standard_normal(phi.size),
        rho=0.3 * rng.standard_normal(psi.size) + 1.0,
        lam=float(rng.standard_normal()),
    )
    hat = system.inner_solve(state)
    again = system.inner_solve(hat)
    fp = float(np.linalg.norm(again.pack() - hat.pack()) / np.linalg.norm(hat.pack()))

    ok = res_worst < 1e-10 and qf_worst < 1e-9 and fp < 1e-10
    _verdict(7, ok, f"closed-form residual {res_worst:.2e} (<=1e-10); "
                    f"quad-form error {qf_worst:.2e} (<=1e-9); "
                    f"linear fixed point {fp:.2e} (<=1e-10)")
