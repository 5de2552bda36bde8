"""Host-speed calibration for the benchmark's timings (stdlib only).

The shared host this benchmark was written on changes speed by up to a half
for seconds to minutes at a time, and CPU time drifts with wall time.  So
the benchmark times a fixed reference task, an exact rational elimination of
a 9x9 matrix of fractions (the kind of work quatrev does, and no quatrev
code, so no change to the package moves it), next to the work it measures,
and scales each timing by REF_S over the task's median time nearby.  Timings
then read as on the host of bench/README.md, where the task's median is
REF_S.

Run as a script, it imports the named module in this fresh interpreter, then
times the task, and prints the import time as measured and as scaled to the
reference host.  The script imports nothing else before the module, so the
import is as cold as in any other fresh interpreter.
"""
import sys
import time

if __name__ == "__main__":
    _start = time.perf_counter()
    __import__(sys.argv[1])
    _import_s = time.perf_counter() - _start

import random  # noqa: E402  (after the timed import on purpose)
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

REF_S = 1.5e-3
_RNG = random.Random(0)
MATRIX = [[Fraction(_RNG.randint(-9, 9), _RNG.randint(1, 9))
           for _ in range(9)] for _ in range(9)]


def task_seconds():
    """Time one Gaussian elimination of MATRIX."""
    start = time.perf_counter()
    m = [row[:] for row in MATRIX]
    n = len(m)
    for k in range(n):
        p = next(i for i in range(k, n) if m[i][k])
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return time.perf_counter() - start


def scale(samples):
    """The factor that brings timings taken next to `samples` (times of the
    task) to the reference host."""
    return REF_S / statistics.median(samples)


if __name__ == "__main__":
    task_seconds()    # the first run in a fresh interpreter is slower
    samples = [task_seconds() for _ in range(int(sys.argv[2]))]
    print(_import_s, _import_s * scale(samples))
