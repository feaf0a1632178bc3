"""Machine-speed reference: a fixed kernel timed between blocks of ops.

The shared hosts this benchmark runs on change speed by up to 40 % in
phases that last from seconds to minutes, so two runs of the same code a
few minutes apart can differ by more than any bound worth setting.  The
kernel below is timed before every block of a run.  It uses nothing from
qhermite, so a change to the library cannot move it, but it does the kinds
of work the workloads do: it builds argparse parsers, runs a scalar
three-term recurrence in Python floats and applies numpy to small arrays.
Its run median divided by REFERENCE_S is the run's slowness, and the
end-to-end times of the run are divided by it (rates multiplied).

Garbage collection is off while the kernel runs, so a larger heap left by
the program under test does not slow the kernel and hide its own cost.
"""

from __future__ import annotations

import argparse
import gc
import math
import time

import numpy as np

#: median kernel time on a 2-vCPU shared x86-64 VM (Python 3.11, numpy with
#: OpenBLAS, one BLAS thread); only fixes the scale of the reported times
REFERENCE_S = 0.0135

_A = np.random.default_rng(0).random((24, 24))
_X = np.random.default_rng(1).random(64)


def _parsers() -> None:
    for _ in range(3):
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command")
        for c in range(8):
            cmd = sub.add_parser(f"c{c}")
            for o in range(10):
                cmd.add_argument(f"--opt{o}", type=float, default=None)
        parser.parse_args(["c3", "--opt1=0.5", "--opt4=2"])


def _recurrence() -> float:
    acc = 0.0
    for _ in range(8):
        p0, p1 = 1.0, 0.3
        for n in range(1, 1500):
            b = math.sqrt((1.0 - 0.5**n) / 2.0)
            p0, p1 = p1, (0.3 * p1 - b * p0) / (b + 1e-3)
            acc += abs(p1) % 1.0
    return acc


def _small_arrays() -> float:
    acc = 0.0
    for i in range(100):
        acc += float((_A @ _A[:, :1]).sum()) + float(np.cos(_X * i).sum()) + float(np.max(np.abs(_X - 0.5)))
    return acc


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _parsers()
        _recurrence()
        _small_arrays()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
