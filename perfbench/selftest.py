"""Self-test of the benchmark harness on two small configs.

    python3 perfbench/selftest.py

1. The 3-iteration ``mfg1d_ff`` config of the CLI tests, untraced and
   traced: every metric of BENCHMARK.json is printed by name with its unit,
   and the run passes.
2. A GP config whose gram matrix is not positive definite, so ``mfgsolvers
   run`` exits 3: the sample is counted in ``failed`` and the run fails.
3. A directory holding only BENCHMARK.json and perfbench/: the harness
   exits with a non-zero code and prints no result.

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

TINY_FF = {
    "problem": "mfg1d", "method": "ff", "M": 32, "N": 6, "gamma": 1.0,
    "beta": 1e6, "alpha": 0.4, "max_iters": 3,
}
EXITS_3 = {"problem": "mfg1d", "method": "gp", "M": 64, "sigma": 50.0, "eta": 1e-300, "max_iters": 2}


def _run(root: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_selftest_") as tmp:
        tmp = Path(tmp)
        for name, cfg in (("tiny_ff", TINY_FF), ("exits_3", EXITS_3)):
            (tmp / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")

        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = _run(ROOT, "--config", str(tmp / "tiny_ff.json"), "--seed", "0",
                               "--seconds", "1", "--trace", trace)
            result = json.loads(lines[-1])
            expect(code == 0 and result["correct"] and result["failed"] == 0,
                   f"tiny mfg1d_ff, trace {trace}: exit 0 and every sample correct")
            missing = []
            for m in bench[group]:
                got = result["metrics"].get(m["name"])
                line = re.compile(rf"^metric {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}( |$)")
                if not (got is not None and got["unit"] == m["unit"]
                        and isinstance(got["value"], (int, float)) and any(map(line.match, lines))):
                    missing.append(m["name"])
            expect(not missing, f"tiny mfg1d_ff, trace {trace}: all {len(bench[group])} {group} "
                                f"metrics printed with their units (missing: {missing})")

        code, lines = _run(ROOT, "--config", str(tmp / "exits_3.json"), "--seed", "0",
                           "--seconds", "1", "--trace", "0")
        result = json.loads(lines[-1])
        expect(code != 0 and not result["correct"]
               and result["failed"] == result["attempted"] >= 1
               and any(ln.startswith(f"failed_runs = {result['failed']} of") for ln in lines)
               and any("exit code 3" in ln for ln in lines),
               "config exiting 3: counted in failed_runs, run not correct")

        bare = tmp / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = _run(bare, "--workload", bench["workloads"][0]["name"], "--seed", "0",
                           "--seconds", "1", "--trace", "0")
        expect(code != 0 and not any(ln.startswith("{") for ln in lines),
               "checkout without the package: non-zero exit, no result")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
