"""Machine-speed reference for the benchmark's timings.

On a shared cloud host, such as the 2-vCPU reference machine described in
README.md, speed drifts by up to 2x over tens of seconds as other tenants
load the host. That is longer than a run, so no statistic taken inside a
run removes it. The benchmark therefore times a fixed reference kernel
next to every experiment and reports each time scaled to a machine on
which that kernel takes ``REF_NOMINAL_S``:

    seconds at reference speed = measured seconds * REF_NOMINAL_S / kernel seconds

The kernel runs before and after every experiment and, once an experiment
has run ``PROBE_DELAY_S``, every ``PROBE_PERIOD_S`` from a timer signal
(``Probe``), so that a long experiment is scaled by the speed during it, not
only at its ends. Shorter experiments are never interrupted. Over ten runs
of cap_n7_oracle's 15 s ``nqubit`` experiment, the standard deviation
of its time was 7.3% of the mean as measured, 6.3% scaled by kernel runs at
its ends and 3.5% scaled by the probe's kernel runs during it.

The kernel does in small what opvec's hot paths do: building tiny gate
matrices (NumPy call overhead), contracting a gate into a state vector,
and pure-Python glue. It calls no opvec code, so no change to opvec can
move it. Over ten doubled_n7 runs (30 s each, seeds 101-110), throughput
spread by 25% of its median with times as measured (best of repeats) and
by 3% at reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_NOMINAL_S = 1e-3
# The probe's kernel runs take about 0.4% of a long experiment's wall time;
# they are subtracted from its measured time.
PROBE_DELAY_S = 1.0
PROBE_PERIOD_S = 0.25

_RNG = np.random.default_rng(0)
_STATE = _RNG.standard_normal(1 << 12) + 0j
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel (about 1 ms)."""
    start = time.perf_counter()
    amps = _STATE
    for k in range(20):
        gate = np.cos(0.1 * k) * np.eye(4) - 1j * np.sin(0.1 * k) * np.kron(_X, _X)
        amps = (gate @ amps.reshape(4, -1)).reshape(-1)
    acc = 0
    for i in range(2000):
        acc += i * i
    return time.perf_counter() - start


def at_reference_speed(seconds: float, kernel_samples: list[float]) -> float:
    """``seconds`` scaled by the median kernel time measured around it."""
    return seconds * REF_NOMINAL_S / statistics.median(kernel_samples)


class Probe:
    """While active, runs the reference kernel after ``PROBE_DELAY_S`` and
    then every ``PROBE_PERIOD_S`` of wall time from a SIGALRM handler. The
    handler runs in the main thread between bytecodes, so the kernel samples
    the speed of the core the experiment runs on. ``samples`` holds the
    kernel times of the last activation."""

    def __init__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, _signum, _frame) -> None:
        self.samples.append(reference_seconds())

    def __enter__(self) -> "Probe":
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_DELAY_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
