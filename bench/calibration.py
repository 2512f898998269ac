"""Machine-speed calibration of the end-to-end times.

The 2-CPU VM this benchmark was written on drifts in speed: a fixed numpy
kernel timed for 150 s ran 35% faster in its last minute than in its
first, and raw times of the same deck spread by 15-30% (quartile distance
over median) across runs a few minutes apart. Each run therefore samples a
fixed reference kernel, which does not touch coherray, about every
CAL_INTERVAL_S while the deck runs, and reports its times scaled to the
kernel's reference duration:

    reported = measured * REFERENCE_S[kernel] / median(kernel samples of the run)

A coherray change cannot move the kernel, so it moves a scaled metric as
much as the raw one, while drift that slows kernel and jobs alike cancels.
In ten runs per workload (seeds 301-310) the scaled spread of each time
metric was 3-11%, against 3-21% raw. The kernel matches the workload's bottleneck: building and
using a standard-library argparse parser for small_jobs and for set-up,
whose time is interpreter work on many small objects; an integer loop
plus a 400x400 BLAS matrix product (which uses every BLAS thread) for the
numpy-heavy workloads. Among the kernels tried, these gave the smallest
scaled spread. Raw values stay in the run's info line.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

CAL_INTERVAL_S = 0.1

KERNEL = {
    "farfield": "mixed",
    "operators": "mixed",
    "crosscheck": "mixed",
    "small_jobs": "interpreter",
}
SETUP_KERNEL = "interpreter"

# median kernel durations on the reference VM (2 vCPU x86-64 at 2.0 GHz)
REFERENCE_S = {"interpreter": 4.0e-3, "mixed": 5.7e-3}

_MATRIX = np.linspace(0.0, 1.0, 400 * 400).reshape(400, 400)


def _interpreter():
    parser = argparse.ArgumentParser(prog="calibration")
    commands = parser.add_subparsers(dest="command")
    for i in range(8):
        command = commands.add_parser(f"command{i}")
        for j in range(12):
            command.add_argument(f"--option-{j}", default=None, help="calibration option")
    return parser.parse_args(["command3", "--option-1", "5", "--option-7", "x"])


def _mixed():
    total = 0
    for i in range(30000):
        total += i * i
    return _MATRIX @ _MATRIX


_KERNELS = {"interpreter": _interpreter, "mixed": _mixed}


class Calibrator:
    """Samples one reference kernel and turns the samples into a slowdown."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.samples = []
        self._last = -float("inf")

    def sample(self, count: int = 1):
        run = _KERNELS[self.kernel]
        for _ in range(count):
            start = time.perf_counter()
            run()
            self.samples.append(time.perf_counter() - start)
        self._last = time.perf_counter()

    def sample_if_due(self):
        if time.perf_counter() - self._last >= CAL_INTERVAL_S:
            self.sample()

    def slowdown(self) -> float:
        """Median kernel time over its reference; above 1 is a slow machine."""
        return statistics.median(self.samples) / REFERENCE_S[self.kernel]
