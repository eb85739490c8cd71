"""The benchmark's layer wrappers (perfbench/tracing.py) still bind.

``install_layer_wrappers`` patches package functions process-wide, so each
run happens in a fresh subprocess: it installs the wrappers, calls
``cli.main(["run", ...])`` on a tiny config and prints the span names it
recorded.  A renamed or bypassed entry point shows up as a missing span.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[3])
from tracing import Tracer, install_layer_wrappers
from mfgsolvers import cli
tracer = Tracer("hooks")
install_layer_wrappers(tracer)
code = cli.main(["run", sys.argv[1], "--output-dir", sys.argv[2]])
print(json.dumps({"code": code, "names": sorted({s["name"] for s in tracer.spans})}))
"""

SPANS = {
    "problems.residual", "linsys.assemble", "linsys.factor", "optimizer.gauss_newton",
    "optimizer.inner_solve", "optimizer.loss", "solution.reconstruct",
    "solution.heldout_residual", "solution.eval", "pipeline.export_grid",
    "collocation.build_functionals",
}

# mfg1d_ff's inner step takes the feature side (k = 13 + 13 + 1 = 27 feature
# columns < r = 66 rows); mfg1d_ff_dense has k = 27 > r = 18 and takes the
# residual-side Cholesky step on F F^T + mu I.  The torus GP runs on a
# lattice (mfg1d_gp, mfg1d_gp_feature_side, nonlocal2d_gp) factor their gram
# per Fourier frequency and split it into k half-mode features: at M = 64,
# k = 41 + 41 + 1 < r = 130 takes the feature side, while M = 32 (k = 83 >
# r = 66) and nonlocal2d_gp take the residual side.  mfg1d_gp_random, on
# random points, factors its gram by a dense Cholesky and has no split, so
# it takes the residual side, as planning_gp does
CONFIGS = {
    "mfg1d_gp": {"problem": "mfg1d", "method": "gp", "M": 32, "beta": 1e6, "max_iters": 2},
    "mfg1d_gp_feature_side": {
        "problem": "mfg1d", "method": "gp", "M": 64, "beta": 1e6, "max_iters": 2,
    },
    "mfg1d_gp_random": {
        "problem": "mfg1d", "method": "gp", "M": 32, "beta": 1e6, "max_iters": 2,
        "grid_sampling": False,
    },
    "nonlocal2d_gp": {"problem": "nonlocal2d", "method": "gp", "M": 16, "max_iters": 1},
    "mfg1d_ff": {"problem": "mfg1d", "method": "ff", "M": 32, "N": 6, "beta": 1e6, "max_iters": 2},
    "mfg1d_ff_dense": {
        "problem": "mfg1d", "method": "ff", "M": 8, "N": 6, "beta": 1e6, "max_iters": 2,
    },
    "planning_gp": {
        "problem": "planning", "method": "gp", "n_interior": 60, "n_initial": 10,
        "n_terminal": 10, "gamma": 1e4, "beta": 1e6, "alpha": 0.2, "max_iters": 1,
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_layer_wrappers_record_every_span(name, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg), str(tmp_path / "out"), str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    want = SPANS | ({"features.eval"} if CONFIGS[name]["method"] == "ff" else set())
    # lapack.inner_cho wraps scipy.linalg.cho_factor, which no run calls: the
    # residual-side step calls LAPACK's dpotrf directly, the feature side none
    assert "lapack.inner_cho" not in result["names"]
    assert not want - set(result["names"]), f"missing spans: {sorted(want - set(result['names']))}"
