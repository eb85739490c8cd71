"""Benchmark of ``mfgsolvers run`` on bundled configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --config PATH ...   # any config, generic checks only

Run from the root of a checkout. Each sample is a fresh process
(``sample.py``) that calls ``mfgsolvers.cli.main(["run", CONFIG,
"--output-dir", DIR])`` with the BLAS threads pinned; samples run strictly
one after another. With ``--trace 0`` samples repeat until S seconds, less
half a sample, have passed (at least one), and the end-to-end metrics are
medians over them. The stage times are scaled to a reference host speed by
a fixed probe (``calibrate.py``) timed between samples and while a sample
is paused.
With ``--trace 1`` one sample runs with every layer wrapped and the
per-layer metrics come from its spans. ``--seed`` goes into the config's
``seed``. Every sample's outputs are checked; a sample that fails a check
counts as failed, never as dropped.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, each sample's record and the machine.
Exit code 0 when every sample passed, 1 when one failed, 2 when the
checkout holds no package to run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sample import THREAD_VARS

HERE = Path(__file__).resolve().parent
# The host-speed probe runs in this process; pin its threads as the samples'
# are, before numpy is first imported.
THREADS = min(int(json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["threads"]),
              len(os.sched_getaffinity(0)))
os.environ.update({v: str(THREADS) for v in THREAD_VARS})

from calibrate import REFERENCE_S, probe  # noqa: E402
from tracing import SPAN_NAMES, iteration_metrics, layer_metrics  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
ARTIFACTS = ("loss_history.csv", "solution_grid.csv", "error_report.json", "timing.csv")
RUN_LIMIT_S = 170.0  # no sample starts that would carry a run past this
STATE = ROOT / ".perfbench_state" / "report_sha256.json"
SCRATCH = ROOT / ".perfbench_tmp"
SCALED_TIMES = ("run_s", "setup_s", "solve_s", "report_s")
PROBE_EVERY_S = 1.5  # untraced samples are stopped this often for a probe


# ---------------------------------------------------------------------------
# machine


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    info["platform"] = platform.platform()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        info["cpu"] = None
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def settle_cpu(seconds: float = 1.5) -> None:
    """Keep the cores busy for a moment before the first sample.

    On an idle virtual machine the first second of work after a pause runs
    markedly slower (about 0.8 s more on a 3.5 s sample); without this the
    first sample of every run would carry that penalty.
    """
    import numpy as np

    a = np.random.default_rng(0).random((400, 400))
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        a = a @ a
        a /= np.abs(a).max()
    probe()  # the first probe in a process runs slow


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "mfgsolvers").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one sample


def run_sample(config: Path, work: Path, threads: int, traced: bool, timeout: float,
               probes: list) -> dict:
    work.mkdir(parents=True)
    out, result, spans = work / "out", work / "result.json", work / "spans.json"
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update({v: str(threads) for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "sample.py"), str(config), str(out), str(result)]
    # the sample asks for a probe on `req` and waits for the answer on `ack`
    req_r, req_w = os.pipe()
    ack_r, ack_w = os.pipe()
    if traced:
        cmd += ["--spans", str(spans)]
    else:
        cmd += ["--pause-fds", f"{ack_r},{req_w}"]
    rec = {"loadavg_start": loadavg(), "probes": list(probes), "stops": []}
    t0 = time.perf_counter()
    with open(work / "stdout.txt", "wb") as so, open(work / "stderr.txt", "wb") as se:
        proc = subprocess.Popen(cmd, env=env, stdout=so, stderr=se, pass_fds=(ack_r, req_w))
    os.close(ack_r)
    os.close(req_w)
    next_stop = t0 + PROBE_EVERY_S
    try:
        while True:
            now = time.perf_counter()
            if now >= t0 + timeout:
                raise subprocess.TimeoutExpired(cmd, timeout)
            wait = t0 + timeout - now if traced else max(0.0, min(next_stop, t0 + timeout) - now)
            if select.select([req_r], [], [], wait)[0]:
                if not os.read(req_r, 1):  # end of file: the sample has exited
                    break
                rec["probes"].append(timed_probe())
                try:
                    os.write(ack_w, b"g")
                except BrokenPipeError:  # the sample died while it waited; end of file follows
                    pass
                next_stop = time.perf_counter() + PROBE_EVERY_S
            elif not traced and time.perf_counter() >= next_stop:
                stop_and_probe(proc.pid, rec)
                next_stop = time.perf_counter() + PROBE_EVERY_S
        rec["exit_code"] = proc.wait(timeout=max(1.0, t0 + timeout - time.perf_counter()))
        lines = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace").splitlines()
        rec["stderr_tail"] = [ln for ln in lines if ln.strip()][-3:]
    except subprocess.TimeoutExpired:
        rec["exit_code"] = None
        rec["stderr_tail"] = [f"timed out after {timeout:.0f} s"]
    finally:
        if proc.poll() is None:  # timed out, or on the way out through SIGTERM
            proc.kill()
            proc.wait()
        os.close(req_r)
        os.close(ack_w)
    rec["wall_s"] = time.perf_counter() - t0
    if result.is_file():
        rec.update(json.loads(result.read_text(encoding="utf-8")))
    if traced and spans.is_file():
        rec["trace"] = json.loads(spans.read_text(encoding="utf-8"))
    rec["out"] = out
    return rec


def timed_probe() -> list:
    """``[when, probe time]``."""
    return [time.perf_counter(), probe()]


def stop_and_probe(pid: int, rec: dict) -> None:
    """Stops the sample, times a probe while it is stopped, lets it go on."""
    os.kill(pid, signal.SIGSTOP)
    try:
        for _ in range(2000):
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
            if state in "tT":
                break
            if state in "ZX":  # exited meanwhile
                return
            time.sleep(0.0005)
        else:
            return
        t_stop = time.perf_counter()
        rec["probes"].append(timed_probe())
        rec["stops"].append([t_stop, time.perf_counter()])
    except OSError:
        return
    finally:
        os.kill(pid, signal.SIGCONT)


def stage_times(rec: dict) -> None:
    """The sample's stage times from its clock marks, less the time it was stopped.

    A stage runs from one mark to the next; the sample's pauses at the
    solve's entry and exit lie between stages, so no stage holds them.
    """
    marks = rec.get("marks")
    if not marks:
        return

    def net(a, b):
        return (b - a) - sum(max(0.0, min(b, t1) - max(a, t0)) for t0, t1 in rec["stops"])

    stages = {"setup_s": ("t0", "setup_end"), "solve_s": ("solve_start", "solve_end"),
              "report_s": ("report_start", "t_end")}
    for key, (a, b) in stages.items():
        if a in marks and b in marks:
            rec[key] = net(marks[a], marks[b])
            rec[f"{key}_span"] = [marks[a], marks[b]]
    if all(key in rec for key in stages):
        rec["run_s"] = sum(rec[key] for key in stages)
    else:
        rec["run_s"] = net(marks["t0"], marks["t_end"])
        rec["run_s_span"] = [marks["t0"], marks["t_end"]]


def scale_times(rec: dict) -> None:
    """Scales the sample's stage times to the probe's reference host speed.

    A stage is scaled by the mean of the probes timed during it and the
    nearest one on each side. The probes are the one before the sample,
    those every PROBE_EVERY_S while it was stopped, the two at the solve's
    entry and exit, and the one after the sample. ``run_s`` becomes the sum
    of the scaled stages. The measured times stay in the record as
    ``raw_<name>``.
    """
    probes = sorted(rec["probes"])
    for key in SCALED_TIMES:
        span = rec.get(f"{key}_span")
        if span is None or not isinstance(rec.get(key), (int, float)):
            continue
        a, b = span
        inside = [v for t, v in probes if a <= t <= b]
        before = [v for t, v in probes if t < a][-1:]
        after = [v for t, v in probes if t > b][:1]
        used = before + inside + after
        rec[f"raw_{key}"] = rec[key]
        rec[key] *= REFERENCE_S / (sum(used) / len(used))
    if all(f"raw_{key}" in rec for key in ("setup_s", "solve_s", "report_s")):
        rec["raw_run_s"] = rec["run_s"]
        rec["run_s"] = rec["setup_s"] + rec["solve_s"] + rec["report_s"]


def _floats(rows):
    return [float(v) for row in rows for v in row]


def check_sample(rec: dict, wl: dict) -> list:
    """Reads the artifacts into ``rec`` and returns the failed checks."""
    if rec.get("exit_code") != 0:
        return [f"exit code {rec.get('exit_code')}: {' | '.join(rec.get('stderr_tail', []))}"]
    out = rec["out"]
    missing = [a for a in ARTIFACTS if not (out / a).is_file()]
    if missing:
        return [f"missing artifact {a}" for a in missing]
    problems = []
    raw = (out / "error_report.json").read_bytes()
    rec["report_sha256"] = hashlib.sha256(raw).hexdigest()
    report = json.loads(raw)
    with open(out / "loss_history.csv", encoding="utf-8") as fh:
        hist = list(csv.reader(fh))[1:]
    totals = [float(r[1]) for r in hist]
    with open(out / "solution_grid.csv", encoding="utf-8") as fh:
        grid = _floats(list(csv.reader(fh))[1:])
    with open(out / "timing.csv", encoding="utf-8") as fh:
        timing = _floats(r[1:] for r in list(csv.reader(fh))[1:])
    rec["loss_totals"] = totals
    rec["final_loss"] = totals[-1] if totals else None
    for key in ("residual_l2", "mass_error", "linf_u", "linf_m", "err_hbar"):
        rec[key] = report.get(key)
    lam_ref = wl.get("lam_ref")
    lam = rec.get("lam")
    rec["hbar_gap"] = abs(lam - lam_ref) if lam_ref is not None and lam is not None else rec["err_hbar"]

    reported = [v for v in report.values() if isinstance(v, (int, float))]
    reported += [rec.get(k) for k in ("lam", "initial_residual", "final_residual") if rec.get(k) is not None]
    if not totals:
        problems.append("loss_history.csv has no rows")
    if not all(math.isfinite(v) for v in reported + _floats(hist) + grid + timing):
        problems.append("a reported value is not finite")

    c = wl.get("checks", {})
    for key in ("linf_u", "linf_m", "err_hbar", "hbar_gap"):
        bound = c.get(f"{key}_max")
        if bound is not None and not (rec.get(key) is not None and rec[key] <= bound):
            problems.append(f"{key} {rec.get(key)} above {bound}")
    drop_min = c.get("residual_drop_min")
    if drop_min is not None:
        ini, fin = rec.get("initial_residual"), rec.get("final_residual")
        drop = ini / max(fin, 1e-300) if ini is not None and fin is not None else None
        rec["residual_drop"] = drop
        if drop is None or not drop >= drop_min:
            problems.append(f"held-out residual drop {drop} below {drop_min}x")
    return problems


def check_reports_identical(samples, key: str) -> list:
    """error_report.json must be byte-identical across every sample of one commit.

    Compares the samples of this run with each other and with the first
    sample ever recorded in this checkout for the same source tree, config
    (seed aside) and thread count.
    """
    shas = {s["report_sha256"] for s in samples if "report_sha256" in s}
    problems = []
    if len(shas) > 1:
        problems.append(f"error_report.json differs between samples of this run: {sorted(shas)}")
    if not shas:
        return problems
    try:
        known = json.loads(STATE.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    first = known.setdefault(key, sorted(shas)[0])
    if shas != {first}:
        problems.append(f"error_report.json differs from an earlier run of this commit ({first[:12]})")
    STATE.parent.mkdir(exist_ok=True)
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, STATE)
    return problems


# ---------------------------------------------------------------------------
# metrics


def trace_metrics(rec: dict) -> dict:
    m = layer_metrics(rec["trace"]["spans"]) if "trace" in rec else {}
    if rec.get("loss_totals"):
        m.update(iteration_metrics(rec["loss_totals"]))
    m["trace.run_s"] = rec.get("run_s")
    m["trace.overhead_s"] = rec["trace"]["overhead_s"] if "trace" in rec else None
    return m


def median_of(samples, key):
    vals = [s[key] for s in samples if isinstance(s.get(key), (int, float))]
    return (statistics.median(vals), min(vals), max(vals), len(vals)) if vals else (None, None, None, 0)


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark of mfgsolvers run on bundled configs")
    what = ap.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="a workload of perfbench/workloads.json")
    what.add_argument("--config", help="any config file, checked for finite outputs only")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # leave through the `finally` clauses, which stop and wait for the sample
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "mfgsolvers" / "cli.py").is_file():
        print(f"perfbench: no package at {SRC / 'mfgsolvers'}; run from a checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload:
        if args.workload not in spec["workloads"]:
            print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        wl, name = spec["workloads"][args.workload], args.workload
        config_path = ROOT / wl["config"]
    else:
        wl, name = {}, Path(args.config).stem
        config_path = Path(args.config)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["seed"] = args.seed
    threads = THREADS
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    print(f"perfbench: workload {name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} threads {threads}")
    work = SCRATCH / f"{name}-s{args.seed}-{os.getpid()}"
    samples = []
    try:
        work.mkdir(parents=True)
        cfg_file = work / "config.json"
        cfg_file.write_text(json.dumps(config, indent=2), encoding="utf-8")
        settle_cpu()
        t_start = time.perf_counter()
        last_probe = timed_probe()
        while True:
            elapsed = time.perf_counter() - t_start
            rec = run_sample(cfg_file, work / f"{name}-s{args.seed}-{len(samples)}", threads,
                             bool(args.trace), max(5.0, RUN_LIMIT_S - elapsed), [last_probe])
            last_probe = timed_probe()
            rec["probes"].append(last_probe)
            stage_times(rec)
            scale_times(rec)
            rec["problems"] = check_sample(rec, wl)
            samples.append(rec)
            elapsed = time.perf_counter() - t_start
            # stop once another sample would end well past --seconds
            if (args.trace or elapsed + rec["wall_s"] / 2 >= args.seconds
                    or elapsed + rec["wall_s"] > RUN_LIMIT_S - 20):
                break
        digest_key = hashlib.sha256(json.dumps(
            [{k: v for k, v in config.items() if k != "seed"}, source_digest(), threads],
            sort_keys=True).encode()).hexdigest()
        shared = check_reports_identical(samples, digest_key)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    if shared:
        for s in samples:
            s["problems"] += shared
    print("env " + json.dumps({"machine": machine(), "software": samples[0].get("software")}))
    for i, s in enumerate(samples):
        keys = ("exit_code", "wall_s", "run_s", "setup_s", "solve_s", "report_s", "raw_run_s",
                "raw_setup_s", "raw_solve_s", "raw_report_s", "peak_rss_mb", "cpu_s",
                "loadavg_start", "final_loss", "residual_l2", "mass_error", "linf_u", "linf_m",
                "err_hbar", "lam", "hbar_gap", "residual_drop", "report_sha256", "problems")
        print("sample " + json.dumps({"i": i, "traced": bool(args.trace),
                                      **{k: s.get(k) for k in keys if k in s}}))
    failed = sum(1 for s in samples if s["problems"])

    metrics = {}
    if args.trace:
        got = trace_metrics(samples[0])
        own = {name: got.get(f"{name}.self_s") or 0.0 for name in SPAN_NAMES}
        print("self time by span: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in sorted(own.items(), key=lambda kv: -kv[1])))
        for m in wanted:
            metrics[m["name"]] = {"value": got.get(m["name"]), "unit": m["unit"]}
            print(f"metric {m['name']} = {_fmt(got.get(m['name']))} {m['unit']}")
    else:
        for m in wanted:
            med, lo, hi, n = median_of(samples, m["name"])
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
            print(f"metric {m['name']} = {_fmt(med)} {m['unit']} "
                  f"(median of {n}, min {_fmt(lo)}, max {_fmt(hi)})")
        for key in SCALED_TIMES:
            med, lo, hi, n = median_of(samples, f"raw_{key}")
            if n:
                print(f"measured {key} = {_fmt(med)} s before scaling (median of {n}, "
                      f"min {_fmt(lo)}, max {_fmt(hi)})")
        probes = {t: v for s in samples for t, v in s["probes"]}
        med, lo, hi, n = median_of([{"p": v} for v in probes.values()], "p")
        print(f"probe = {_fmt(med)} s (median of {n}, min {_fmt(lo)}, max {_fmt(hi)}; "
              f"reference {REFERENCE_S} s)")
        for key in ("linf_u", "linf_m", "err_hbar", "residual_drop"):
            med, lo, hi, n = median_of(samples, key)
            if n:
                print(f"check {key} = {_fmt(med)} (median of {n})")
    print(f"failed_runs = {failed} of {len(samples)} samples")
    for i, s in enumerate(samples):
        for p in s["problems"]:
            print(f"sample {i} FAILED: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
