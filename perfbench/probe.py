"""A fixed reference workload that reads how fast the machine runs right now.

On a shared machine the same code can run 1.5 to 2 times slower for seconds
to minutes at a time, and process CPU time slows as much as wall time, so
neither clock alone gives figures that repeat from run to run.  The worker
runs this probe just before and just after every timed stage.  `speed()`
returns the probe's time over its fixed reference time: about 1 when the
machine is in its fast phase, more when it is slowed.  A stage's time divided
by the mean of its two readings is the time it would have taken at the
reference speed.  The probe is the benchmark's own code, so no change to the
package moves it.

The probe has two parts: a pure-Python loop, and numpy calls on 200-element
arrays, which cost mostly call overhead, as in `coverage`.  Timed around
every stage of the three workloads on a 2 vCPU Xeon, their mean tracked the
stages' slow-down better overall than either part alone, or than adding a
pass over an array larger than the cache.  `python_speed()` uses the first
part alone, for set-up, which runs before numpy is imported.
"""

from __future__ import annotations

import time

# Reference times in seconds of the two parts, read in the fast phase of a
# 2 vCPU Xeon (Python 3.11.7, numpy 2.4.6).  Only their ratios to the
# readings matter; the same constants serve both sides of a comparison.
REF_PYTHON = 0.0060
REF_SMALL = 0.0050

_arrays: dict = {}


def _python() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += (i * i) % 7
    return time.perf_counter() - start


def _small() -> float:
    import numpy as np

    a = _arrays.setdefault("small", np.linspace(-1.0, 1.0, 200))
    start = time.perf_counter()
    for _ in range(1200):
        float(((a * 1.5 + 0.25) > 0.5).sum())
    return time.perf_counter() - start


def python_speed() -> float:
    """Slow-down of the pure-Python part against its reference."""
    return _python() / REF_PYTHON


def speed() -> float:
    """Mean slow-down of the two parts against their references."""
    return (_python() / REF_PYTHON + _small() / REF_SMALL) / 2.0
