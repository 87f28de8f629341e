"""Host-speed calibration: a fixed job, timed next to measured requests.

The shared host this benchmark runs on alternates, at millisecond to
minute scales, between a normal and a slower state (up to ~2x; CPU time
slows with it).  Over stretches of tens of seconds even the fastest of
several passes over a request pool was slow, which moved closed-loop
figures by more than any bound a later change could be held to.

A :class:`Calibrator` times a fixed job that uses no program code right
before a request, so it sees the host in the state the request will run
in.  The closed loops report each request's latency times
``REF_S / job time`` (the median over passes of it per request):
milliseconds at the host's normal speed; set-up times are scaled the same
way by jobs run around each set-up.  The job
runs twice back to back and only the second run is timed, so the first
reloads whatever a request pushed out of the caches, and the garbage
collector is off while it runs.  Work a program left running in other
threads after a request returned would slow the job, so every workload
waits for its requests to finish before the next job.
"""

from __future__ import annotations

import gc
import time

import numpy as np
import scipy.sparse as sp

#: Time of the job on a 2-core x86-64 host in its normal state (the
#: tenth percentile of a 20 s stretch of back-to-back jobs).
REF_S = 0.0030


class Calibrator:
    """Times the fixed job on demand.

    The job mixes what the workloads spend their time on: four products
    of a 4.8k x 4.8k CSR matrix (about the BibNet-2200 operator's size)
    with a 16-column dense block, and interpreter-bound dict updates.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = sp.random(4800, 4800, density=0.0026, format="csr", random_state=rng)
        self._x = rng.random((4800, 16))

    def _job(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            self._a @ self._x
        table: dict = {}
        for i in range(10000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Run the job twice; ``REF_S`` over the second run's time.

        Multiply a timing taken right after this by the factor to get
        it at the host's normal speed.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._job()
            return REF_S / self._job()
        finally:
            if enabled:
                gc.enable()
