"""A fixed reference kernel that measures the host's current speed.

The benchmark's host is a shared virtual machine whose speed drifts by tens
of percent over seconds to minutes, and a run can only average over a drift
that lasts longer than itself.  The worker therefore times this kernel next
to the solves and scales every reported time by REF_NOMINAL_S over the
kernel's mean time: a reported time is the seconds the measured code would
take on a host that runs the kernel in REF_NOMINAL_S.  The kernel calls no
library code, so a change to the library cannot move it.  Like the solver it
mixes interpreter overhead with numpy arithmetic on small arrays.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the kernel's time on a 2-vCPU Intel Xeon virtual machine (16 to 19 ms
# there, drifting with the host).  It only sets the scale, and cancels out of
# any comparison between two runs.
REF_NOMINAL_S = 0.016
# Time spent in the kernel after each solve, as a share of the solve's time.
REF_SHARE = 0.10
_ITERATIONS = 600
_ARRAY = np.random.default_rng(0).random((64, 201))


def kernel():
    total = 0.0
    b = _ARRAY.copy()
    for i in range(_ITERATIONS):
        b = b * 0.999 + _ARRAY[:, ::-1] * 1e-3
        total += float(b[0, 0]) * (i % 7)
        table = {}
        for j in range(20):
            table[j] = j * total
    return total


class Reference:
    """Accumulates timed runs of the kernel."""

    def __init__(self):
        self.seconds = 0.0
        self.runs = 0

    def sample(self, budget_s=0.0):
        """Run the kernel once, and again until budget_s is spent."""
        spent = 0.0
        while True:
            start = perf_counter()
            kernel()
            spent += perf_counter() - start
            self.runs += 1
            if spent >= budget_s:
                break
        self.seconds += spent

    def scale(self):
        """Factor that turns a time measured now into nominal seconds."""
        return REF_NOMINAL_S / (self.seconds / self.runs)
