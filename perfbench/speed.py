"""Machine-speed probe.

The reference machine is a shared 2-core VM.  Each core flips, up to many
times a second, between a fast state and one about 1.7x slower, and the share
of time spent slow drifts from minute to minute (from about half to nearly
all of it), independently per core.  CPU time tracks wall time there, so the
same instructions simply run slower; raw wall times of identical runs moved
by 20-40%.

The benchmark therefore times a small fixed probe (numpy and Python work that
does not touch fracform) around the timed calls and scales their times by
REFERENCE_PROBE_S over the probe's time: the figures are seconds at the speed
of a quiet core of the reference machine.  Measured there, calls slow by
1.45x-1.7x in the slow state and the probe by about 1.7x, so the scaled
figures still lean by up to about 15% with the state.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Probe time on a quiet core of the reference machine (2-core Xeon VM,
#: Python 3.11.7, numpy 2.4.6): the fast-state minimum of many probes.
REFERENCE_PROBE_S = 1.8e-4

_X = np.linspace(0.0, 1.0, 4096)


def probe() -> float:
    """Seconds taken by one run of the fixed probe."""
    t0 = perf_counter()
    v = np.sin(_X)
    np.sort(np.convolve(v, v[:32]))
    acc = 0
    for i in range(1500):
        acc += i * i
    return perf_counter() - t0
