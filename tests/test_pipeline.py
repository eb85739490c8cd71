"""Experiment configs, the end-to-end driver, and the benchmark helper."""

import csv
import dataclasses
import json
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from mfgsolvers import cli
from mfgsolvers import collocation as C
from mfgsolvers import kernels as K
from mfgsolvers import pipeline as PL
from mfgsolvers import problems as P
from mfgsolvers import solution as S
from mfgsolvers.errors import ConfigError, GridMismatch


def test_config_defaults_validate():
    PL.ExperimentConfig().validate()


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError) as exc:
        PL.ExperimentConfig.from_dict({"problem": "mfg1d", "spam": 1})
    assert "spam" in str(exc.value)


_SMALL_PLANNING = {"problem": "planning", "n_interior": 30, "n_initial": 5, "n_terminal": 5, "max_iters": 1}


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"problem": "mfg3d"}, "problem"),
        ({"method": "fd"}, "method"),
        ({"M": 0}, "M"),
        ({"sigma": -1.0}, "sigma"),
        ({"gamma": -2.0}, "gamma"),
        ({"alpha": 0.0}, "alpha"),
        # the mode count is derived from sigma; a config that still names it is rejected
        ({"nonlocal_modes": 64}, "nonlocal_modes"),
        ({"init_mode": "warm"}, "init_mode"),
        ({"max_iters": 0}, "max_iters"),
        ({"M": 64.5}, "M"),
        ({"M": True}, "M"),
        ({"max_iters": 3.5}, "max_iters"),
        ({"seed": "0"}, "seed"),
        ({"problem": "nonlocal2d", "method": "ff", "N": 4, "nonlocal_modes": 64}, "nonlocal_modes"),
        ({"sigma": float("nan")}, "sigma"),
        ({"beta": float("inf")}, "beta"),
        ({"nu": float("-inf")}, "nu"),
        ({"eta": "1e-6"}, "eta"),
        ({"grid_sampling": 1}, "grid_sampling"),
        ({"problem": "nonlocal2d", "M": 401}, "M"),
        (
            {"problem": "nonlocal2d", "method": "gp", "sigma": 0.5, "nonlocal_modes": 46},
            "nonlocal_modes",
        ),
        # lengthscales whose inverse square overflows
        ({"sigma": 1e-200}, "sigma"),
        ({"problem": "planning", "sigma_space": 1e-200}, "sigma_space"),
        ({"problem": "planning", "sigma_time": 1e-160}, "sigma_time"),
        ({"problem": "planning", "method": "ff", "varsigma": 1e-200}, "varsigma"),
        ({"problem": "nonlocal2d", "method": "gp", "sigma": 1e-200}, "sigma"),
        ({"sigma": 1e200}, "sigma"),
        (
            {"problem": "nonlocal2d", "method": "gp", "M": 16, "nonlocal_modes": 100000},
            "nonlocal_modes",
        ),
        ({"problem": "planning", "nonlocal_modes": 64}, "nonlocal_modes"),
        ({"method": "gp", "sigma": 0.2, "nonlocal_modes": 15}, "nonlocal_modes"),
        # sigmas whose derived mode tables pass the byte cap; never run, they would allocate
        ({"problem": "nonlocal2d", "method": "gp", "sigma": 0.02}, "sigma"),
        ({"method": "gp", "sigma": 1e-5}, "sigma"),
        ({"beta": -1.0}, "beta"),
        # retired with the restricted 2D mode set and the shared random bases
        ({"problem": "nonlocal2d", "method": "ff", "N": 4, "full_basis_2d": True}, "full_basis_2d"),
        ({"full_basis_2d": False}, "full_basis_2d"),
        ({"problem": "planning", "method": "ff", "shared_features": True}, "shared_features"),
        ({"shared_features": False}, "shared_features"),
        ({"problem": "nonlocal2d", "method": "gp", "M": 16, "nu": 0.0}, "nu"),
        ({"problem": "nonlocal2d", "method": "gp", "M": 16, "nu": -5}, "nu"),
        ({"alpha": 1.5}, "alpha"),
        # lengthscales whose fourth inverse power overflows: the GP gram's fourth
        # derivative (a traceback) and the feature products (a wrong answer)
        ({**_SMALL_PLANNING, "method": "gp", "sigma_space": 1e-150}, "sigma_space"),
        ({**_SMALL_PLANNING, "method": "ff", "N": 3, "varsigma": 1e-100}, "varsigma"),
    ],
)
def test_config_validation_names_the_field(patch, field):
    with pytest.raises(ConfigError) as exc:
        PL.ExperimentConfig.from_dict(patch)
    assert str(exc.value).startswith(f"{field}:")


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PL.ExperimentConfig)])
def test_config_type_check_covers_every_field(name):
    """A value of the wrong kind is rejected, naming its field, whatever the field."""
    with pytest.raises(ConfigError) as exc:
        PL.ExperimentConfig.from_dict({name: []})
    assert str(exc.value).startswith(f"{name}:")


def _accepts(patch) -> bool:
    try:
        PL.ExperimentConfig.from_dict(patch)
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize(
    "method, field", [("gp", "sigma_space"), ("gp", "sigma_time"), ("ff", "varsigma")]
)
def test_smallest_accepted_lengthscale_runs_without_a_traceback(method, field, tmp_path, capsys):
    """The smallest lengthscale the config check accepts (found by bisection)
    finishes a small planning run or fails it as a numerical failure, never
    with a traceback (exit status 1)."""
    patch = {**_SMALL_PLANNING, "method": method, "N": 3, "max_iters": 2}
    lo, hi = 1e-300, 1e-50
    assert not _accepts({**patch, field: lo}) and _accepts({**patch, field: hi})
    while 0.5 * (lo + hi) not in (lo, hi):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _accepts({**patch, field: mid}) else (mid, hi)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**patch, field: hi}), encoding="utf-8")
    code = cli.main(["run", str(path), "--output-dir", str(tmp_path / "out")])
    assert code in (cli.EXIT_OK, cli.EXIT_NUMERICAL), capsys.readouterr().err


def test_mode_table_cap_admits_more_modes_than_bundled():
    """The cap admits the counts derived down to sigma 0.05 on the 2D torus
    at M=900 (340 modes) and down to sigma 0.001 on the 1D torus."""
    cases = (({"problem": "nonlocal2d", "M": 900, "sigma": 0.05}, 340), ({"sigma": 0.001}, 16824))
    for patch, n in cases:
        cfg = PL.ExperimentConfig.from_dict({"method": "gp", **patch})
        assert PL.PROBLEMS[cfg.problem].kernel(cfg).n_modes == n


@pytest.mark.parametrize("patch", [{"problem": "nonlocal2d", "sigma": 0.02}, {"sigma": 1e-5}])
def test_small_sigma_is_rejected_before_any_mode_table_is_allocated(patch):
    """The mode tables of these sigmas pass 1 GiB; validation derives the
    count and rejects the config with small arrays only."""
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="^sigma: "):
            PL.ExperimentConfig.from_dict({"method": "gp", **patch})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_held_out_tables_are_built_once_per_run(monkeypatch, tmp_path):
    """The start-state and final residuals, u's and m's alike, share one set of
    exponentials of the held-out points: one table per axis per run."""
    calls = []
    exponentials = K._exponentials

    def counted(n_modes, u, half=False):
        calls.append(np.size(u))
        return exponentials(n_modes, u, half)

    monkeypatch.setattr(K, "_exponentials", counted)
    cfg = PL.ExperimentConfig.from_dict(
        {"problem": "nonlocal2d", "method": "gp", "M": 16, "max_iters": 1,
         "output_dir": str(tmp_path)}
    )
    n_held = S.HELD_OUT_COUNT
    result = PL.run_experiment(cfg)
    assert result.initial_residual > 0 and result.final_residual > 0
    assert calls.count(n_held) == 2


def _held_out_peak(cfg):
    """The tracemalloc peak of both fields' held-out residual on a fresh PointSet, tables included."""
    problem = PL.PROBLEMS[cfg.problem]
    spec, kernel = problem.spec(cfg), problem.kernel(cfg)
    phi, psi = C.build_functionals(spec, problem.points(cfg, spec))
    rng = np.random.default_rng(5)
    u = S.GpField(rng.standard_normal(phi.size), phi, kernel)
    m = S.GpField(rng.standard_normal(psi.size), psi, kernel)
    held = S.held_out_points(spec)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        S.pde_residual_norm(u, m, 0.0, spec, S.PointSet(held))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_held_out_evaluation_peaks_below_the_mode_table_estimate():
    """Both fields' held-out residual, tables included, allocates less at once
    than the size the mode-table cap checks for the bundled nonlocal2d_gp_nu1."""
    import importlib.resources as res

    data = json.loads(
        res.files("mfgsolvers").joinpath("configs", "nonlocal2d_gp_nu1.json").read_text(
            encoding="utf-8"
        )
    )
    cfg = PL.ExperimentConfig.from_dict(data)
    assert _held_out_peak(cfg) < PL._largest_mode_table_bytes(cfg, PL.PROBLEMS[cfg.problem])


@pytest.mark.parametrize("sigma", [0.5, 0.2])
def test_held_out_evaluation_at_small_M_peaks_below_the_mode_table_estimate(sigma):
    """At M=16 the J5 features no longer dominate the estimate: it must count
    the held-out points' two 2D tables, kept at once, and what the residual
    holds beside them (46 and 92 modes)."""
    cfg = PL.ExperimentConfig(problem="nonlocal2d", method="gp", M=16, sigma=sigma, nu=1.0)
    problem, peak = PL.PROBLEMS[cfg.problem], _held_out_peak(cfg)
    assert K.half_mode_block_bytes(problem.kernel(cfg), cfg.M) < peak
    assert peak < PL._largest_mode_table_bytes(cfg, problem)


@pytest.mark.parametrize("M", [400, 100])
def test_random_point_j5_blocks_peak_below_the_mode_table_estimate(M):
    """The J5 blocks of nonlocal2d psi on M random points, built as
    assemble_gram builds them (one CrossTables, each block kept until the
    next replaces it), allocate less at once than the size the mode-table
    cap checks; at these M that is their own term."""
    data = json.loads(
        (Path(PL.__file__).parent / "configs" / "nonlocal2d_gp_nu1.json").read_text()
    )
    cfg = PL.ExperimentConfig.from_dict({**data, "grid_sampling": False, "M": M})
    problem = PL.PROBLEMS[cfg.problem]
    spec, kernel = problem.spec(cfg), problem.kernel(cfg)
    _, psi = C.build_functionals(spec, problem.points(cfg, spec))
    ((X, blocks),) = psi.point_sets
    tags = [tag for tag, _ in blocks]
    assert K.J5 in tags
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tables = K.CrossTables(kernel, X, X, tags, tags)
        for tag in tags:
            block = tables.op_matrix(tag, K.J5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert block.shape == (M, M)
    guard = PL._largest_mode_table_bytes(cfg, problem)
    assert guard == K.half_mode_block_bytes(kernel, M)
    assert peak < guard


def test_config_round_trips_through_dict():
    cfg = PL.ExperimentConfig(problem="nonlocal2d", method="ff", N=4, nu=1.0)
    again = PL.ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_bundled_configs_all_parse():
    import importlib.resources as res

    names = [
        p.name
        for p in res.files("mfgsolvers").joinpath("configs").iterdir()
        if p.name.endswith(".json")
    ]
    assert len(names) >= 8
    for name in names:
        data = json.loads(
            res.files("mfgsolvers").joinpath("configs", name).read_text(encoding="utf-8")
        )
        PL.ExperimentConfig.from_dict(data)


def test_build_helpers_dispatch_by_problem():
    c1 = PL.ExperimentConfig(problem="mfg1d")
    c2 = PL.ExperimentConfig(problem="nonlocal2d", nu=0.7)
    c3 = PL.ExperimentConfig(problem="planning")
    s1, s2, s3 = (PL.PROBLEMS[c.problem].spec(c) for c in (c1, c2, c3))
    assert (s1.kind, s2.kind, s3.kind) == ("mfg1d", "nonlocal2d", "planning")
    assert s2.nu == 0.7
    assert PL.PROBLEMS["mfg1d"].kernel(c1).family == "periodic1d"
    assert PL.PROBLEMS["nonlocal2d"].kernel(c2).family == "periodic2d"
    assert PL.PROBLEMS["planning"].kernel(c3).family == "anisotropic_se"


def test_build_points_respects_sampling_mode():
    cfg_grid = PL.ExperimentConfig(M=16)
    cfg_rand = PL.ExperimentConfig(M=16, grid_sampling=False, seed=3)
    problem = PL.PROBLEMS[cfg_grid.problem]
    spec = problem.spec(cfg_grid)
    g = problem.points(cfg_grid, spec)
    r = problem.points(cfg_rand, spec)
    np.testing.assert_allclose(g.interior[:, 0], np.arange(16) / 16.0)
    assert not np.allclose(g.interior, r.interior)


def test_build_bases_random_pair_independent():
    cfg = PL.ExperimentConfig(problem="planning", N=6, seed=9)
    problem = PL.PROBLEMS["planning"]
    bu, bm = problem.bases(cfg)
    assert bu.count == 12 and bm.count == 12
    assert not np.array_equal(bu.frequencies, bm.frequencies)


def _tiny_1d(method):
    return PL.ExperimentConfig(
        problem="mfg1d",
        method=method,
        M=32,
        N=6,
        gamma=1.0,
        beta=1e6,
        eta=1e-6,
        mu=1e-6,
        alpha=0.4,
        max_iters=4,
    )


@pytest.mark.parametrize("method", ["gp", "ff"])
def test_small_end_to_end_run(method, tmp_path):
    res = PL.run_experiment(_tiny_1d(method))
    assert np.isfinite(res.report.residual_l2)
    assert res.report.linf_u is not None and res.report.linf_u < 1.0
    assert len(res.history.total) == 5
    assert res.lam is not None
    # artifacts
    PL.export_solution_grid(res, tmp_path / "solution_grid.csv")
    PL.export_timing(res.timing_rows, tmp_path / "timing.csv")
    with open(tmp_path / "solution_grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "u", "m"]
    assert len(rows) == 1 + res.grid.shape[0]
    with open(tmp_path / "timing.csv", newline="") as fh:
        trows = list(csv.reader(fh))
    assert trows[0] == ["method", "M", "qr_seconds", "cholesky_seconds"]
    assert trows[1][0] == method


def _grid_result(axes, u, m):
    """What ``export_solution_grid`` reads of a run: the grid's axes and u and m on it."""
    return types.SimpleNamespace(grid_axes=tuple(axes), u_grid=np.asarray(u), m_grid=np.asarray(m))


def _csv_writer_reference(path, axes, u, m):
    """csv.writer's rows of the reprs of each grid point's coordinates, u and m."""
    mesh = np.meshgrid(*axes, indexing="ij")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([f"x{i}" for i in range(len(axes))] + ["u", "m"])
        for i, point in enumerate(zip(*(a.ravel().tolist() for a in mesh))):
            w.writerow([repr(float(v)) for v in (*point, u[i], m[i])])
    return path.read_bytes()


def test_solution_grid_is_written_with_the_repr_of_each_value(tmp_path):
    axes = (np.array([-0.0, 1.0, 0.1]), np.array([1e-17, 2.0, -3.5e300]))
    u = np.array([0.0, -0.0, 5.0, 1e-300, -7.5, 2.0, 3.0, 1e22, -0.0])
    m = np.array([1e-17, 1 / 3, 2.0**60, 0.0, 1.0, -1.0, 5e-324, 0.5, 9.0])
    PL.export_solution_grid(_grid_result(axes, u, m), tmp_path / "grid.csv")
    expected = _csv_writer_reference(tmp_path / "expected.csv", axes, u, m)
    assert (tmp_path / "grid.csv").read_bytes() == expected
    assert b"-0.0,1e-17," in expected


@pytest.mark.parametrize("n_points", [0, 1, 500])
def test_solution_grid_bytes_equal_csv_writer_output(n_points, tmp_path):
    """The rows joined from per-axis strings are, byte for byte, csv.writer's rows of reprs."""
    rng = np.random.default_rng(n_points)
    shape = {0: (0, 3), 1: (1, 1), 500: (20, 25)}[n_points]
    special = [-0.0, 0.0, -3.0, 7.0, 2.0**53, 5e-324, -1e-300, 1e-17, -2.5e-8, 1e22]

    def awkward(n):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        mask = rng.random(n) < 0.3
        values[mask] = rng.choice(special, mask.sum())
        return values

    axes, u, m = [awkward(n) for n in shape], awkward(n_points), awkward(n_points)
    PL.export_solution_grid(_grid_result(axes, u, m), tmp_path / "grid.csv")
    expected = _csv_writer_reference(tmp_path / "expected.csv", axes, u, m)
    assert (tmp_path / "grid.csv").read_bytes() == expected


def test_solution_grid_of_a_planning_sized_grid_equals_csv_writer_output(tmp_path):
    """A 5 x 512 grid whose first axis holds -0.0, 1e-05, 1e16 and 5e-324, and u and m
    with the same awkward values among random ones, written as csv.writer would."""
    axes = (np.array([-0.0, 1e-05, 1e16, 5e-324, 0.25]), np.linspace(-2.0, 2.0, 512))
    rng = np.random.default_rng(21)
    u, m = rng.standard_normal((2, 5 * 512)) * 10.0 ** rng.integers(-8, 8, (2, 5 * 512))
    u[:4], m[-4:] = [-0.0, 1e-05, 1e16, 5e-324], [5e-324, 1e16, 1e-05, -0.0]
    PL.export_solution_grid(_grid_result(axes, u, m), tmp_path / "grid.csv")
    expected = _csv_writer_reference(tmp_path / "expected.csv", axes, u, m)
    assert (tmp_path / "grid.csv").read_bytes() == expected
    assert b"\r\n1e+16,-2.0," in expected and b"\r\n5e-324,2.0," in expected


def test_run_result_carries_the_problem_grid_axes():
    """The export reads the grid's axes from the run; the grid is their tensor product."""
    res = PL.run_experiment(_tiny_1d("ff"))
    assert res.grid_axes is PL.PROBLEMS["mfg1d"].grid_axes
    np.testing.assert_array_equal(res.grid, PL.PROBLEMS["mfg1d"].grid())


def test_runs_are_deterministic():
    r1 = PL.run_experiment(_tiny_1d("ff"))
    r2 = PL.run_experiment(_tiny_1d("ff"))
    assert r1.report.to_json() == r2.report.to_json()
    np.testing.assert_array_equal(r1.state.pack(), r2.state.pack())


def test_compare_runs_and_grid_mismatch():
    r1 = PL.run_experiment(_tiny_1d("gp"))
    r2 = PL.run_experiment(_tiny_1d("ff"))
    gaps = PL.compare_runs(r1, r2)
    assert set(gaps) == {"linf_u_gap", "linf_m_gap", "hbar_gap"}
    assert all(np.isfinite(v) for v in gaps.values())

    r3 = PL.run_experiment(
        PL.ExperimentConfig(
            problem="nonlocal2d", method="ff", M=64, N=2, max_iters=1, beta=1e4, gamma=10.0
        )
    )
    with pytest.raises(GridMismatch):
        PL.compare_runs(r1, r3)


def test_bench_precompute_rows_and_ordering():
    rows = PL.bench_precompute("mfg1d", "ff", [32, 64], repeats=1)
    assert [r[1] for r in rows] == [32, 64]
    assert all(r[0] == "ff" and r[2] >= 0.0 and r[3] >= 0.0 for r in rows)
    with pytest.raises(ConfigError, match="^m_values: M values must be ascending"):
        PL.bench_precompute("mfg1d", "ff", [64, 32], repeats=1)
    with pytest.raises(ConfigError, match="^m_values: M must be positive"):
        PL.bench_precompute("mfg1d", "ff", [0, 32], repeats=1)
    with pytest.raises(ConfigError, match="^repeats: expected at least 1, got 0"):
        PL.bench_precompute("mfg1d", "ff", [32], repeats=0)


def test_bench_precompute_rejects_problems_not_sized_by_m(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("factored before checking the problem")

    monkeypatch.setattr(PL.FfMethod, "factor", never)
    with pytest.raises(ConfigError, match="^problem: planning"):
        PL.bench_precompute("planning", "ff", [16, 32], repeats=1)
    with pytest.raises(ConfigError, match="^problem: unknown"):
        PL.bench_precompute("nowhere", "ff", [16], repeats=1)


def test_initial_residual_reflects_the_unit_density_start():
    res = PL.run_experiment(_tiny_1d("ff"))
    assert res.initial_residual > 0.0
    assert np.isfinite(res.initial_residual)
