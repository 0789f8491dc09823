"""Machine-speed calibration for the benchmark's timings.

On the shared 2-core Intel Xeon virtual machine where the baseline was
taken, speed changes by up to 2x within seconds (co-tenants; process CPU
time drifts with wall time too), far beyond any useful regression bound.
So a fixed kernel runs between consecutive timed intervals, and a
reported time is the raw time scaled by CAL_REF_S over the kernel's time
around it: seconds at the speed at which the kernel takes CAL_REF_S,
about its typical time on that machine.  Raw times stay in result.json.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

CAL_REF_S = 0.016
# Import time is partly file reads and unmarshalling, which slow down less
# than the kernel when the host does: over 150 imports on that machine
# the kernel took 0.012-0.026 s and log(import time * (CAL_REF_S /
# kernel) ** e) varied least for e = 0.5 (sd 0.11, against 0.19 for e = 1
# and 0.17 for no scaling).
SETUP_EXPONENT = 0.5
CAL_STEPS = 400
CAL_MATRIX = ((0.0, 1.0, 0.0, 0.0), (-1.0, -0.1, 0.0, 0.0),
              (0.0, 0.0, 0.0, 1.0), (0.0, 0.0, -4.0, -0.2))
_GEN = np.random.default_rng(0)
CAL_BASIS = _GEN.normal(size=(8, 4, 4))
CAL_BASIS = CAL_BASIS + CAL_BASIS.transpose(0, 2, 1)
CAL_POINTS = _GEN.normal(size=(2000, 8))


def calibration_s():
    """Time of the calibration kernel, which mixes the two kinds of work
    the ops do: RK4 steps of a 4x4 linear field in small numpy operations
    with one CSV-formatted row per step (interpreter-bound), then batched
    einsum and eigvalsh over 2000 4x4 matrices with 300 formatted rows
    (LAPACK-bound), as in the gkls diagnostics."""
    a = np.array(CAL_MATRIX)
    y = np.ones(4)
    h = 1e-3
    start = time.perf_counter()
    for _ in range(CAL_STEPS):
        k1 = a @ y
        k2 = a @ (y + 0.5 * h * k1)
        k3 = a @ (y + 0.5 * h * k2)
        k4 = a @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ",".join(format(float(v), ".17g") for v in y)
    mats = np.einsum("tj,jab->tab", CAL_POINTS, CAL_BASIS)
    rows = np.column_stack([CAL_POINTS, np.linalg.eigvalsh(mats)])[:300]
    for row in rows:
        ",".join(format(float(v), ".17g") for v in row)
    return time.perf_counter() - start


class SpeedLog:
    """Kernel times taken between consecutive timed intervals.

    Interval i runs between kernels i and i + 1, and its factor is
    CAL_REF_S over their mean.  (Medians over wider windows of kernels
    gave wider run-to-run spreads on that machine.)
    """

    def __init__(self):
        self.kernels = [calibration_s()]

    def mark(self):
        """Call right after each timed interval."""
        self.kernels.append(calibration_s())

    def factors(self):
        ks = self.kernels
        return [CAL_REF_S / (0.5 * (ks[i] + ks[i + 1]))
                for i in range(len(ks) - 1)]


_CHILD = """\
import sys, time
start = time.perf_counter()
import dissipgeo.cli
elapsed = time.perf_counter() - start
sys.path.append(sys.argv[1])
from calibrate import calibration_s
kernel = sorted(calibration_s() for _ in range(3))[1]
print(elapsed, kernel)
"""


def setup_factor(kernel):
    """Factor that scales an import time to the reference speed, given
    the kernel time taken in the same interpreter."""
    return (CAL_REF_S / kernel) ** SETUP_EXPONENT


def child_setup_s(env, cwd, bench_dir):
    """(import time of dissipgeo.cli, kernel time) in a fresh interpreter;
    the kernel runs in the same process right after the import."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(bench_dir)],
                          env=env, cwd=cwd, check=True, timeout=120,
                          capture_output=True, text=True)
    elapsed, kernel = map(float, proc.stdout.split())
    return elapsed, kernel
