"""Host-speed probe: a fixed numeric kernel, timed, with no package code in it.

On a shared virtual machine the speed of the cores moves by a third or more
within minutes, for every kind of work alike (user and system time, dense
algebra, elementwise maths and memory faults all slow together). ``run.py``
times this probe (about 0.16 s) in the process that launches the samples,
with the same thread pin: before and after each sample, and while the sample
is paused at the solve's entry and exit and every few seconds. It scales each
stage time by ``REFERENCE_S / probe time``, the probe time being the mean
over the stage. The scaled times read as seconds on a host whose probe
takes ``REFERENCE_S``; a change to the package moves them, a change in host
speed mostly does not.

The probe mixes what the package spends its time on: dense products and a
Cholesky factorization, complex exponentials over a large array, fresh
arrays big enough to be mapped and faulted in, and many small array
operations driven from Python.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.16  # a probe's time at the reference host speed


def _probe_once(rng) -> None:
    a = rng.random((800, 800))
    np.linalg.cholesky(a @ a.T + 800.0 * np.eye(800))
    x = rng.random((1024, 2))
    modes = rng.integers(-32, 32, (2, 1024)).astype(float)
    np.exp(2.0j * np.pi * (x @ modes))
    for _ in range(32):
        buf = np.empty(2**21)  # 16 MiB, mapped and faulted in afresh each time
        buf[:] = 1.0
        del buf
    v = rng.random(64)
    for _ in range(20000):
        v = np.sin(v) + 0.5 * v


def probe() -> float:
    """Time of one probe, in seconds."""
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    _probe_once(rng)
    return time.perf_counter() - t0
