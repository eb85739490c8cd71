"""Gram assembly, nugget regularization, and the two factorization paths."""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as SL
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgsolvers import collocation as C
from mfgsolvers import features as F
from mfgsolvers import kernels as K
from mfgsolvers import linsys as L
from mfgsolvers import pipeline as PL
from mfgsolvers import problems as P
from mfgsolvers.errors import LengthMismatch, NonFiniteMatrix, NotPositiveDefinite
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
    for i, (op_i, pts_i) in enumerate(psi.blocks):
        for j, (op_j, pts_j) in enumerate(psi.blocks):
            if j < i:
                continue
            B = K.pairwise_op_matrix(kernel, op_i, op_j, pts_i, pts_j)
            if i == j:
                B = 0.5 * (B + B.T)
            np.testing.assert_array_equal(G[psi.slices[i], psi.slices[j]], B, err_msg=(op_i, op_j))


# -- one factor for a pair of functional sets, one leading the other ---------

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "mfgsolvers" / "configs"


def _gp_pair(name, **overrides):
    """(kernel, (phi, psi), eta) of a bundled GP config, built as the pipeline builds them."""
    data = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg = PL.ExperimentConfig.from_dict({**data, **overrides})
    problem = PL.PROBLEMS[cfg.problem]
    spec = problem.spec(cfg)
    return problem.kernel(cfg), C.build_functionals(spec, problem.points(cfg, spec)), cfg.eta


@pytest.mark.parametrize(
    "name, overrides, builds",
    [
        ("mfg1d_gp", {}, 1),
        ("nonlocal2d_gp_nu1", {}, 1),
        ("planning_gp", {"n_interior": 60, "n_initial": 10, "n_terminal": 10}, 2),
    ],
)
def test_nested_pair_assembles_and_factors_once(monkeypatch, name, overrides, builds):
    """phi leads psi on nonlocal2d and psi leads phi on mfg1d, so one gram is
    built and factored; planning's psi starts with boundary blocks, so each
    set keeps its own."""
    kernel, funcs, eta = _gp_pair(name, **overrides)
    calls = {"assemble_gram": 0, "cholesky_factor": 0}
    for fn in calls:
        original = getattr(L, fn)

        def counted(*args, _fn=fn, _original=original, **kwargs):
            calls[_fn] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(L, fn, counted)
    factors = L.build_gram_factors(kernel, funcs, eta)
    assert calls == {"assemble_gram": builds, "cholesky_factor": builds}
    assert [f.size for f in factors] == [f.size for f in funcs]
    # timing.csv counts the one factorization once
    assert sum(f.cholesky_seconds > 0.0 for f in factors) == builds


@pytest.mark.parametrize("name", ["mfg1d_gp", "nonlocal2d_gp_nu1"])
def test_lead_factor_equals_a_standalone_factor(name):
    """The lead set's regularized gram is its standalone one bit for bit, a
    view of the full factor's, and its frequency blocks are the leading
    blocks of the full factor's; its solves (vector and matrix right-hand
    sides) and quadratic form agree to 1e-8 relative."""
    kernel, funcs, eta = _gp_pair(name)
    factors = L.build_gram_factors(kernel, funcs, eta)
    i = int(np.argmin([f.size for f in factors]))
    lead, full = factors[i], factors[1 - i]
    alone = L.build_gram_factor(kernel, funcs[i], eta)
    assert np.array_equal(lead.regularized, alone.regularized)
    assert np.shares_memory(lead.regularized, full.regularized)
    p = len(funcs[i].blocks)
    assert lead.chol.shape == (full.chol.shape[0], p, p)
    assert np.array_equal(lead.chol, full.chol[:, :p, :p]) and lead.cholesky_seconds == 0.0
    rng = np.random.default_rng(8)
    v, V = rng.standard_normal(lead.size), rng.standard_normal((lead.size, 3))
    for b in (v, V):
        got, want = lead.solve(b), alone.solve(b)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * np.abs(want).max())
    assert lead.quadratic_form(v) == pytest.approx(alone.quadratic_form(v), rel=1e-8)
    for bad in (np.zeros(lead.size - 1), np.zeros(full.size)):
        with pytest.raises(LengthMismatch):
            lead.solve(bad)
        with pytest.raises(LengthMismatch):
            lead.quadratic_form(bad)


# -- a functional set on one full lattice: the gram factored per frequency ----

LATTICE_SETS = ["mfg1d_gp", "nonlocal2d_gp_nu1", "small2d"]


def _lattice_set(name):
    """(kernel, funcs, eta): the larger set of a bundled GP config, or nonlocal2d's
    psi, whose five operators include J5, on a 6 x 6 lattice."""
    if name == "small2d":
        _, psi = C.build_functionals(P.make_nonlocal_2d(1.0), C.sample_uniform_grid(2, 36))
        return K.periodic_kernel_2d(0.5), psi, 1e-6
    kernel, funcs, eta = _gp_pair(name)
    return kernel, max(funcs, key=lambda f: f.size), eta


@pytest.mark.parametrize("name", LATTICE_SETS)
def test_lattice_gram_is_symmetric_and_the_per_block_assembly(name):
    """The lattice route's regularized gram is exactly symmetric, and less its
    nugget it is the gram of the kernel's truncated spectrum: every block,
    local and J5, is within 1e-14 of its largest entry of the direct sum
    nonlocal_from_coeffs (measured at most 6.9e-15, on small2d's (dx, lap)).

    It differs from assemble_gram's closed-form per-block assembly by the
    modes the spectrum leaves out.  By Cauchy-Schwarz an entry of block
    (a, b) is off by at most sqrt(T_a T_b), T_a the weight sum c |sigma_a|^2
    of those modes; at the highest symbol, dxx or lap on both sides, T_a
    is about the weight of the Nyquist mode, which SPECTRAL_TAIL_TOL bounds
    relative to the peak weight, and the lower symbols weigh the tail
    less.  So the bound is SPECTRAL_TAIL_TOL sqrt(theta_aa(0) theta_bb(0)),
    the two blocks' diagonals: measured at most 1.45e-13 of it on
    mfg1d_gp (dxx, dxx), 3.6e-14 on nonlocal2d_gp_nu1 and small2d."""
    kernel, funcs, eta = _lattice_set(name)
    fac = L.build_gram_factor(kernel, funcs, eta)
    assert isinstance(fac, L.LatticeFactor)
    G = fac.regularized
    assert np.array_equal(G, G.T)
    G = G - np.diag(fac.nugget)
    closed = L.assemble_gram(kernel, funcs)
    coeffs = K._coeff_grid(kernel)
    sls = funcs.slices
    diagonal = [np.diagonal(closed[sl, sl]).max() for sl in sls]
    for i, (op_i, X) in enumerate(funcs.blocks):
        for j in range(i, len(sls)):
            op_j, Y = funcs.blocks[j]
            block = G[sls[i], sls[j]]
            direct = K.nonlocal_from_coeffs(coeffs, op_i, op_j, X, Y, kernel.n_modes)
            assert np.abs(block - direct).max() <= 1e-14 * np.abs(direct).max(), (op_i, op_j)
            bound = K.SPECTRAL_TAIL_TOL * np.sqrt(diagonal[i] * diagonal[j])
            assert np.abs(block - closed[sls[i], sls[j]]).max() <= bound, (op_i, op_j)


@pytest.mark.parametrize("name", LATTICE_SETS)
def test_lattice_spectrum_is_the_dft_of_the_gathered_columns(name):
    """The frequency blocks Lambda_0(q) of kernels.lattice_spectrum are, per
    operator pair, within 16 eps of the pair's largest entry of the lattice
    DFT of the gathered gram's generating columns, which that gram reads
    from their inverse DFT (measured at most 2.4 eps, on
    nonlocal2d_gp_nu1); and the block nugget read from them is the mean
    diagonal of the gram, within 8 eps relative (measured 2.2 eps)."""
    kernel, funcs, eta = _lattice_set(name)
    shape = L.lattice_shape(kernel, funcs)
    spectrum = K.lattice_spectrum(kernel, funcs.operator_tags, shape)
    n, p = spectrum.shape[:2]
    assert spectrum.shape == (n, p, p) and n == np.prod(shape) and p == len(funcs.blocks)
    gram = L.assemble_gram(kernel, funcs, shape, spectrum=spectrum)
    columns = gram[:, ::n].reshape(p, *shape, p)
    dft = np.fft.fftn(columns, axes=tuple(range(1, 1 + len(shape))))
    dft = dft.reshape(p, n, p).transpose(1, 0, 2)
    eps = np.finfo(float).eps
    for a in range(p):
        for b in range(p):
            scale = np.abs(spectrum[:, a, b]).max()
            assert np.abs(spectrum[:, a, b] - dft[:, a, b]).max() <= 16 * eps * scale, (a, b)
    want = L.build_nugget(gram, funcs, eta)
    np.testing.assert_allclose(L.build_nugget(gram, funcs, eta, spectrum), want, rtol=8 * eps)


@pytest.mark.parametrize("name", ["mfg1d_gp", "nonlocal2d_gp_nu1"])
def test_a_lattice_factor_build_takes_one_spectrum_and_no_forward_dft(monkeypatch, name):
    """One kernels.lattice_spectrum call serves the gather, the nugget and
    the per-frequency Cholesky of the pair's one factor build, and no
    forward DFT runs: the gram's columns are not read back."""
    kernel, funcs, eta = _gp_pair(name)
    calls, spectrum = [], K.lattice_spectrum

    def counted(*args):
        calls.append(args)
        return spectrum(*args)

    def never(*args, **kwargs):
        raise AssertionError("a lattice factor build took a forward DFT")

    monkeypatch.setattr(K, "lattice_spectrum", counted)
    monkeypatch.setattr(np.fft, "fftn", never)
    factors = L.build_gram_factors(kernel, funcs, eta)
    assert all(isinstance(f, L.LatticeFactor) for f in factors) and len(calls) == 1


@pytest.mark.parametrize("name", LATTICE_SETS)
def test_lattice_factor_agrees_with_a_dense_cholesky_of_its_gram(name):
    """solve (vector and matrix right-hand sides) and quadratic_form against
    the dense route on the factor's own regularized gram Theta, to 1e-8.

    For v = Theta w, the functional values of a field in the gram's span,
    the solves agree in Theta's norm and the quadratic forms relatively.  A
    random v agrees entry by entry, except on nonlocal2d_gp_nu1: there
    cond(Theta) is about 2e15 (nugget 1e-8), and any two backward-stable
    solves of a random v differ by up to cond(Theta) eps, 1.5e-6 as measured,
    so there the lattice solve is held to its backward error alone."""
    kernel, funcs, eta = _lattice_set(name)
    fac = L.build_gram_factor(kernel, funcs, eta)
    theta = fac.regularized
    dense = L.cholesky_factor(theta)
    assert isinstance(dense, L.GramFactor)
    rng = np.random.default_rng(9)
    W = rng.standard_normal((fac.size, 3))
    for b in (theta @ W[:, 0], theta @ W):
        got, want = fac.solve(b), dense.solve(b)
        assert got.shape == want.shape
        e, w = (x.reshape(fac.size, -1) for x in (got - want, want))
        err, norm = (np.einsum("ic,ij,jc->c", x, theta, x) for x in (e, w))
        assert np.all(err <= 1e-16 * norm)  # 1e-8 in the norm, squared
    v = theta @ W[:, 0]
    assert fac.quadratic_form(v) == pytest.approx(dense.quadratic_form(v), rel=1e-8)

    v, V = W[:, 1], W[:, 1:]
    x = fac.solve(v)
    backward = np.linalg.norm(theta @ x - v) / (
        np.linalg.norm(theta, 1) * np.linalg.norm(x) + np.linalg.norm(v)
    )
    assert backward <= 1e-15  # measured at most 2e-20
    if name != "nonlocal2d_gp_nu1":
        for b in (v, V):
            got, want = fac.solve(b), dense.solve(b)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-8 * np.abs(want).max())
        assert fac.quadratic_form(v) == pytest.approx(dense.quadratic_form(v), rel=1e-8)


@pytest.mark.parametrize("name", ["mfg1d_gp", "small2d", "feature"])
def test_lattice_spectral_split_reproduces_the_regularized_gram(name):
    """F F^T + diag(ridge) of both factors of a lattice pair, the full one
    and the lead whose F has the leading rows, is within 16 eps of the
    regularized gram, relative in the Frobenius norm: measured at most
    4.0 eps on small2d (2207 half-mode columns) and 4.6 eps on mfg1d_gp
    (41 columns).  A feature factor's split, A A^T + mu I, meets the same
    bound."""
    if name == "feature":
        A = np.random.default_rng(4).standard_normal((30, 12))
        factors = [L.qr_ridge_factor(A, 1e-3)]
    elif name == "small2d":
        funcs = C.build_functionals(P.make_nonlocal_2d(1.0), C.sample_uniform_grid(2, 36))
        factors = L.build_gram_factors(K.periodic_kernel_2d(0.5), funcs, 1e-6)
    else:
        factors = L.build_gram_factors(*_gp_pair(name))
    for fac in factors:
        assert isinstance(fac, L.FeatureFactor if name == "feature" else L.LatticeFactor)
        F = fac.features
        G = fac.regularized
        assert F.shape == (G.shape[0], fac.feature_count) and F.dtype == np.float64
        assert fac.ridge.shape == (G.shape[0],)
        err = F @ F.T + np.diag(fac.ridge) - G
        assert np.linalg.norm(err) <= 16 * np.finfo(float).eps * np.linalg.norm(G)


def test_a_frequency_block_that_is_not_positive_definite_raises():
    """A nugget of eta R - c on a 16-point lattice moves every frequency
    block's eigenvalues down by c: with c the median of their smallest
    eigenvalues, the first frequency below it fails, and the pivot counts in
    the frequency-major block diagonal.  The lattice factor reads the blocks
    from the spectrum, not from the matrix, so the shift goes through the
    nugget; the dense route fails on the shifted matrix too."""
    _, psi = C.build_functionals(SPEC_1D, C.sample_uniform_grid(1, 16))
    kernel = K.periodic_kernel_1d(0.6)
    fac = L.build_gram_factor(kernel, psi, 1e-6)
    blocks = fac.chol @ fac.chol.conj().transpose(0, 2, 1)
    smallest = np.linalg.eigvalsh(blocks)[:, 0]
    c = float(np.median(smallest))
    spectrum = K.lattice_spectrum(kernel, psi.operator_tags, fac.shape)
    split = {"lattice": fac.shape, "kernel": kernel, "ops": psi.operator_tags}

    def shifted(nugget):
        return {"nugget": nugget, "spectrum": spectrum + np.diag(nugget[:: fac.chol.shape[0]])}

    with pytest.raises(NotPositiveDefinite) as exc:
        L.cholesky_factor(fac.regularized, **split, **shifted(fac.nugget - c))
    first = int(np.flatnonzero(smallest < c)[0])
    assert (exc.value.pivot - 1) // fac.chol.shape[1] == first
    with pytest.raises(NotPositiveDefinite):
        L.cholesky_factor(fac.regularized - c * np.eye(fac.size))
    with pytest.raises(ValueError, match="infs or NaNs"):
        L.cholesky_factor(fac.regularized, **split, **shifted(fac.nugget * np.nan))
    with pytest.raises(TypeError, match="kernel and ops"):
        L.cholesky_factor(fac.regularized, lattice=fac.shape)
    with pytest.raises(TypeError, match="spectrum"):
        L.cholesky_factor(fac.regularized, lattice=fac.shape, kernel=kernel, ops=split["ops"])


def _off_lattice(case):
    """(kernel, funcs) on points that are not one full torus lattice in the sampler's order."""
    spec, kernel = P.make_nonlocal_2d(1.0), K.periodic_kernel_2d(0.5)
    lattice = C.sample_uniform_grid(2, 36).interior
    if case == "planning":
        _, psi = C.build_functionals(P.make_planning(), C.sample_planning_grid(24, 4, 4))
        return K.anisotropic_kernel(0.45, 0.71), psi
    pts = {
        "random": C.sample_uniform_random(2, 36, 0).interior,
        "shuffled": lattice[np.random.default_rng(1).permutation(36)],
        "partial": lattice[:25],  # a square count, but not the 5 x 5 lattice
    }[case]
    _, psi = C.build_functionals(spec, C.CollocationSet(interior=pts, boundary=np.zeros((0, 2))))
    return kernel, psi


@pytest.mark.parametrize("case", ["random", "shuffled", "partial", "planning"])
def test_sets_off_one_full_lattice_take_the_dense_route(case):
    kernel, funcs = _off_lattice(case)
    assert L.lattice_shape(kernel, funcs) is None
    assert isinstance(L.build_gram_factor(kernel, funcs, 1e-6), L.GramFactor)


def _apply_factors(case):
    """(label, factor) pairs for the P^{-1} apply checks."""
    if case == "feature":
        A = np.random.default_rng(3).standard_normal((30, 12))
        return [("feature", L.qr_ridge_factor(A, 1e-3))]
    if case == "dense":  # nonlocal2d on random torus points: phi leads psi, off any lattice
        pts = C.sample_uniform_random(2, 30, 0)
        funcs = C.build_functionals(P.make_nonlocal_2d(1.0), pts)
        kernel, eta = K.periodic_kernel_2d(0.5), 1e-6
    elif case == "lattice1d":  # psi leads phi
        funcs = C.build_functionals(SPEC_1D, C.sample_uniform_grid(1, 16))
        kernel, eta = K.periodic_kernel_1d(0.6), 1e-6
    else:  # phi leads psi, whose five operators include J5
        funcs = C.build_functionals(P.make_nonlocal_2d(1.0), C.sample_uniform_grid(2, 36))
        kernel, eta = K.periodic_kernel_2d(0.5), 1e-6
    factors = L.build_gram_factors(kernel, funcs, eta)
    i = int(np.argmin([f.size for f in factors]))
    return [("lead", factors[i]), ("full", factors[1 - i])]


@pytest.mark.parametrize("case", ["dense", "lattice1d", "lattice2d", "feature"])
def test_apply_regularized_is_the_regularized_matrix_product(case):
    """P^{-1} v through each factor equals regularized @ v to 1e-12 relative,
    for vector, matrix and zero-column right-hand sides, standalone and lead."""
    rng = np.random.default_rng(11)
    kind = {"dense": L.GramFactor, "feature": L.FeatureFactor}.get(case, L.LatticeFactor)
    for label, fac in _apply_factors(case):
        assert isinstance(fac, kind), label
        n = fac.regularized.shape[0]
        if label == "lead":  # a view of the full factor's gram, the factor's leading block
            assert fac.regularized.base is not None and not fac.regularized.flags.c_contiguous
        for v in (rng.standard_normal(n), rng.standard_normal((n, 3)), np.zeros((n, 0))):
            got, want = fac.apply_regularized(v), fac.regularized @ v
            assert got.shape == want.shape, label
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), label
        with pytest.raises(LengthMismatch):
            fac.apply_regularized(np.zeros(n + 1))


def test_nugget_is_blockwise_constant_mean_diagonal():
    """The nugget is each block's mean gram diagonal, added to the diagonal
    alone of the gram of the set's route, here its lattice."""
    kernel = K.periodic_kernel_1d(0.6)
    pts = C.sample_uniform_grid(1, 9)
    phi, _ = C.build_functionals(SPEC_1D, pts)
    gram = L.assemble_gram(kernel, phi, L.lattice_shape(kernel, phi))
    r = L.build_nugget(gram, phi, eta=1.0)
    d = np.diag(gram)
    for sl in phi.slices:
        np.testing.assert_allclose(r[sl], np.mean(d[sl]))
    fac = L.build_gram_factor(kernel, phi, eta=1e-3)
    np.testing.assert_array_equal(fac.regularized, gram + np.diag(fac.nugget))
    # the factor's nugget comes from its spectrum's mean diagonal, r from the
    # gathered gram's: they agree to rounding, 4.9e-16 at worst on nonlocal2d_gp_nu1
    np.testing.assert_allclose(fac.nugget, 1e-3 * r, rtol=1e-14, atol=0)
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


def test_not_positive_definite_reports_pivot(monkeypatch):
    bad = np.diag([1.0, 1.0, -1.0, 1.0])
    with pytest.raises(NotPositiveDefinite) as exc:
        L.cholesky_factor(bad)
    assert "3" in str(exc.value)
    assert exc.value.pivot == 3
    # a non-finite matrix is rejected before LAPACK sees it
    monkeypatch.setattr(L, "lapack", None)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="infs or NaNs"):
            L.cholesky_factor(np.diag([1.0, value, 1.0]))


@pytest.mark.parametrize("route", ["lattice", "dense"])
def test_overflowing_nugget_raises_non_finite_matrix_without_a_warning(route):
    """eta * (mean gram diagonal) = inf on the diagonal is reported once, by the factorization."""
    spec, kernel = P.make_nonlocal_2d(1.0), K.periodic_kernel_2d(0.5)
    pts = C.sample_uniform_grid(2, 16) if route == "lattice" else C.sample_uniform_random(2, 16, 1)
    phi, _ = C.build_functionals(spec, pts)
    assert (L.lattice_shape(kernel, phi) is not None) == (route == "lattice")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteMatrix, match="infs or NaNs"):
            L.build_gram_factor(kernel, phi, 1e308)


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
    basis = F.build_periodic(3, 1)
    A = L.assemble_feature_matrix(phi, basis)
    assert A.shape == (18, basis.count)
    np.testing.assert_allclose(A[:6], F.eval_feature_op(basis, K.ID, pts.interior))
    np.testing.assert_allclose(A[6:12], F.eval_feature_op(basis, K.DX, pts.interior))
    np.testing.assert_allclose(A[12:], F.eval_feature_op(basis, K.DXX, pts.interior))


@pytest.mark.parametrize("case", ["periodic1d", "periodic2d", "random_tx"])
def test_feature_matrices_are_c_ordered(case):
    """assemble_feature_matrix returns C-ordered matrices, which the
    feature-side solve's products run faster on than Fortran-ordered ones."""
    if case == "periodic1d":
        spec, pts, basis = SPEC_1D, C.sample_uniform_grid(1, 8), F.build_periodic(3, 1)
    elif case == "periodic2d":
        spec, pts = P.make_nonlocal_2d(1.0), C.sample_uniform_grid(2, 16)
        basis = F.build_periodic(2, 2)
    else:
        spec, pts = P.make_planning(), C.sample_planning(3, 30, 8, 8)
        basis = F.sample_orthogonal_features(F.RandomFeatureSampler(2, 0.2, 0), 20)
    for funcs in C.build_functionals(spec, pts):
        assert L.assemble_feature_matrix(funcs, basis).flags.c_contiguous


def test_gram_and_feature_quadratic_forms_agree_in_the_limit():
    """With many features the ridge form approximates an RKHS form; sanity only."""
    pts = C.sample_uniform_grid(1, 8)
    phi, _ = C.build_functionals(SPEC_1D, pts)
    basis = F.build_periodic(20, 1)
    A = L.assemble_feature_matrix(phi, basis)
    fac = L.qr_ridge_factor(A, 1e-10)
    v = np.random.default_rng(3).standard_normal(24)
    # both forms are positive definite on the same functional vector
    assert fac.quadratic_form(v) > 0.0


# -- point-local matrix plus a low-rank term ---------------------------------

def _arrow_system(seed, n_pairs=7, n_single=4, n_dense=2, k=5):
    """Random S = [[D, C], [C^T, E]] (2x2 and 1x1 point blocks), U and c.

    E = 2 I + C^T D^{-1} C, so the Schur complement E - C^T D^{-1} C is 2 I
    and S is positive definite for every seed.
    """
    rng = np.random.default_rng(seed)
    J2 = rng.standard_normal((n_pairs, 2, 3))
    J1 = rng.standard_normal((n_single, 1, 2))
    groups = [np.eye(2) * 0.1 + J2 @ J2.transpose(0, 2, 1), 0.1 + J1 @ J1.transpose(0, 2, 1)]
    n_d = 2 * n_pairs + n_single
    C = 0.3 * rng.standard_normal((n_d, n_dense))
    S = np.zeros((n_d + n_dense,) * 2)
    for i in range(n_pairs):
        S[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = groups[0][i]
    for j in range(n_single):
        S[2 * n_pairs + j, 2 * n_pairs + j] = groups[1][j, 0, 0]
    E = 2.0 * np.eye(n_dense) + C.T @ np.linalg.solve(S[:n_d, :n_d], C)
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


def test_arrow_cholesky_solves_match_dense_triangular_solves_for_every_seed():
    """Each of seeds 0-49 factors, and L^{-1} and L^{-T} match triangular
    solves with the dense Cholesky factor of S."""
    for seed in range(50):
        _, _, _, S, U, c = system = _arrow_system(seed)
        chol = L.ArrowCholesky(*system[:3])
        Ld = np.linalg.cholesky(S)
        for X in (U, c):
            for got, trans in ((chol.solve_l(X), 0), (chol.solve_lt(X), 1)):
                want = SL.solve_triangular(Ld, X, lower=True, trans=trans)
                np.testing.assert_allclose(
                    got, want, rtol=0, atol=1e-10 * np.abs(want).max(), err_msg=(seed, trans)
                )


@pytest.mark.parametrize("seed", range(3))
def test_low_rank_update_solve_matches_dense_solve(seed):
    groups, C, E, S, U, c = _arrow_system(seed)
    y, uty = L.low_rank_update_solve(L.ArrowCholesky(groups, C, E), U, c)
    want = np.linalg.solve(S + U @ U.T, c)
    np.testing.assert_allclose(y, want, rtol=1e-11, atol=1e-11 * np.abs(want).max())
    np.testing.assert_allclose(uty, U.T @ want, rtol=1e-11, atol=1e-11 * np.abs(U.T @ want).max())


def _svd_route(chol, U, c):
    """The oracle: y and U^T y through a thin SVD of the whitened rows V = L^{-1} U."""
    x, V = chol.solve_l(c), chol.solve_l(U)
    q, s, zt = np.linalg.svd(V, full_matrices=False)
    w = q.T @ x
    return chol.solve_lt(x - q @ (w * s**2 / (1.0 + s**2))), zt.T @ (w * s / (1.0 + s**2))


@pytest.mark.parametrize("seed", range(3))
def test_low_rank_update_solve_with_an_ill_conditioned_capacitance(seed):
    """||V|| = 1e6 and cond(I + V^T V) ~ 1e12: the capacitance Cholesky still
    succeeds, y has a small backward error and both outputs are within the
    forward-error bound cond * eps of the SVD route."""
    groups, C, E, S, U, c = _arrow_system(seed)
    r, k = U.shape
    rng = np.random.default_rng(10 + seed)
    q = np.linalg.qr(rng.standard_normal((r, k)))[0]
    z = np.linalg.qr(rng.standard_normal((k, k)))[0]
    s = np.logspace(6, -1, k)
    U = np.linalg.cholesky(S) @ (q * s) @ z.T  # V = L^{-1} U has singular values s
    assert 9e11 < (1 + s[0] ** 2) / (1 + s[-1] ** 2) < 1.1e12
    chol = L.ArrowCholesky(groups, C, E)
    y, uty = L.low_rank_update_solve(chol, U, c)
    B = S + U @ U.T
    backward = np.linalg.norm(B @ y - c) / (np.linalg.norm(B, 2) * np.linalg.norm(y) + np.linalg.norm(c))
    assert backward <= 1e-10  # measured at most 1e-12
    y_ref, uty_ref = _svd_route(chol, U, c)
    # measured at most 4.4e-7 and 6.5e-5 relative to the largest entry
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-5 * np.abs(y_ref).max())
    np.testing.assert_allclose(uty, uty_ref, rtol=0, atol=1e-3 * np.abs(uty_ref).max())


def test_failed_capacitance_cholesky_raises_linalg_error(monkeypatch):
    """dpotrf's info > 0 on I + V^T V raises; there is no fallback route."""
    groups, C, E, _, U, c = _arrow_system(0)
    monkeypatch.setattr(L.lapack, "dpotrf", lambda a, **kw: (a, 2))
    with pytest.raises(np.linalg.LinAlgError, match="capacitance.*leading minor 2"):
        L.low_rank_update_solve(L.ArrowCholesky(groups, C, E), U, c)


def test_low_rank_update_solve_rejects_an_overflowing_capacitance():
    """A finite V whose V^T V overflows fails the capacitance Cholesky solve,
    without a RuntimeWarning, instead of returning a finite y."""
    groups, C, E, _, U, c = _arrow_system(0)
    chol = L.ArrowCholesky(groups, C, E)
    U = U * (1e160 / np.abs(chol.solve_l(U)).max())
    assert np.all(np.isfinite(chol.solve_l(U)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^capacitance matrix I \\+ V\\^T V: "):
            L.low_rank_update_solve(chol, U, c)


def test_low_rank_update_solve_rejects_a_non_finite_system():
    groups, C, E, _, U, c = _arrow_system(0)
    U[3, 1] = np.inf
    with pytest.raises(FloatingPointError):
        L.low_rank_update_solve(L.ArrowCholesky(groups, C, E), U, c)


# -- LAPACK calls against scipy.linalg ---------------------------------------
# scipy.linalg is the reference: each direct call passes the arguments its
# wrapper passes, so the results are bit-identical, whichever way the loader
# found the LAPACK module.


@pytest.fixture(params=["loaded", "file", "fallback"])
def lapack_source(request, monkeypatch):
    """``linsys.lapack`` as each branch of its loader gives it."""
    if request.param != "loaded":
        monkeypatch.delitem(sys.modules, L._FLAPACK)
        if request.param == "fallback":
            monkeypatch.setattr(L, "_flapack_path", lambda: None)
        monkeypatch.setattr(L, "lapack", L._load_lapack())
    if request.param == "loaded":
        assert L.lapack is sys.modules[L._FLAPACK]
    elif request.param == "file":
        assert L.lapack.__file__ == L._flapack_path()
    else:
        assert L.lapack is SL.lapack
    return request.param


def _spd(n, seed, order):
    G = np.random.default_rng(seed).standard_normal((n, n))
    return np.asarray(G @ G.T + n * np.eye(n), order=order)


@pytest.mark.parametrize("order", ["C", "F"])
def test_cholesky_factor_equals_scipy(lapack_source, order):
    A = _spd(9, 0, order)
    ref = A.copy(order="K")
    assert np.array_equal(L.cholesky_factor(A).chol, SL.cholesky(A, lower=True))
    assert np.array_equal(A, ref)  # factored in a copy


@pytest.mark.parametrize("order", ["C", "F"])
def test_inner_cholesky_solve_equals_cho_factor_and_cho_solve(lapack_source, order):
    B = _spd(11, 1, order)
    c = np.random.default_rng(2).standard_normal(11)
    ref = B.copy(order="K")
    cf = SL.cho_factor(ref.T, lower=True, overwrite_a=True, check_finite=False)
    want = SL.cho_solve(cf, c, check_finite=False)
    assert np.array_equal(L.cholesky_solve(B, c, "B"), want)
    assert np.array_equal(B, ref)  # overwritten (or not) alike


@pytest.mark.parametrize("order", ["C", "F"])
def test_gram_factor_solve_and_quadratic_form_equal_scipy(lapack_source, order):
    fac = L.cholesky_factor(_spd(8, 3, order))
    rng = np.random.default_rng(4)
    v = rng.standard_normal(8)
    V = np.asarray(rng.standard_normal((8, 3)), order=order)
    for b in (v, V):
        assert np.array_equal(fac.solve(b), SL.cho_solve((fac.chol, True), b, check_finite=False))
    y = SL.solve_triangular(fac.chol, v, lower=True, check_finite=False)
    assert fac.quadratic_form(v) == float(y @ y)


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_triangular_equals_scipy(lapack_source, order):
    rng = np.random.default_rng(5)
    T = np.asarray(np.tril(rng.standard_normal((7, 7))) + 4.0 * np.eye(7), order=order)
    b = np.asarray(rng.standard_normal((7, 2)), order=order)
    for lower, a in ((1, T), (0, T.T)):
        for trans in (0, 1):
            want = SL.solve_triangular(a, b, lower=bool(lower), trans=trans, check_finite=False)
            assert np.array_equal(L.solve_triangular(a, b, lower=lower, trans=trans), want)
    # a zero on the diagonal (dtrtrs info > 0) raises as scipy does
    T[3, 3] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 3"):
        SL.solve_triangular(T, b, lower=True, check_finite=False)
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 3"):
        L.solve_triangular(T, b, lower=1)


def test_arrow_cholesky_solves_equal_scipy(lapack_source, monkeypatch):
    groups, C, E, S, U, c = _arrow_system(6)
    chol = L.ArrowCholesky(groups, C, E)
    assert chol.L_e.flags.c_contiguous and not chol.L_e.flags.f_contiguous
    got = [f(X) for f in (chol.solve_l, chol.solve_lt) for X in (U, c)]

    def scipy_solve(a, b, lower, trans=0):
        return SL.solve_triangular(a, b, lower=bool(lower), trans=trans, check_finite=False)

    monkeypatch.setattr(L, "solve_triangular", scipy_solve)
    want = [f(X) for f in (chol.solve_l, chol.solve_lt) for X in (U, c)]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(40, 6), (5, 9)])
def test_raw_qr_equals_scipy(lapack_source, shape, order):
    V = np.asarray(np.random.default_rng(7).standard_normal(shape), order=order)
    (h, tau), q_r, s, zt, _ = L._qr_svd(V)
    (h0, tau0), R0 = SL.qr(V, mode="raw", check_finite=False)
    assert np.array_equal(h, h0) and np.array_equal(tau, tau0)
    for got, want in zip((q_r, s, zt), np.linalg.svd(R0, full_matrices=False)):
        assert np.array_equal(got, want)
