"""Fixed reference kernel that measures how fast the machine runs right now.

The benchmark was tuned on a shared 2-vCPU VM (Intel Xeon, 2.1 GHz) whose
throughput drops by up to 1.8x for minutes at a time when other tenants are
busy.  Such a phase slows this kernel and a solve alike, so timings are
reported at reference speed: ``t * REFERENCE_S / kernel_time``, with the
kernel timed on either side of the solves it scales.  A pass is short and
lands in either a quiet or a busy stretch (about 0.08 s or 0.15 s there),
while a solve of a second or more nearly always overlaps a busy one; so a
solve is scaled by the slower of the passes on either side.  The kernel
mixes what the workloads do: a three-operand ``einsum`` like the
P-sandwich, a 32x32 complex matmul, small-array dispatch and plain Python
arithmetic.  It does not use heisenbath, so a change to the package moves
only the solves.
"""

import statistics
import time

import numpy as np

# Fastest time of `run` on the tuning machine while it was quiet; it only
# sets the scale of the reported times.
REFERENCE_S = 0.075
LAPS = 150

_rng = np.random.default_rng(0)
_FAMILY = _rng.normal(size=(8, 8, 4, 4)) + 1j * _rng.normal(size=(8, 8, 4, 4))
_SMALL = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_FULL = _rng.normal(size=(32, 32)) + 1j * _rng.normal(size=(32, 32))


def run() -> float:
    """Time one pass of the reference kernel, in seconds: its lap count times
    the median lap.  The first pass after other work has a few laps that
    take 5x longer, by an amount that changes from one period to the next;
    the median lap leaves them out."""
    laps = []
    acc = 0.0
    for _ in range(LAPS):
        start = time.perf_counter()
        x = np.einsum("agij,jk,bgmk->abim", _FAMILY, _SMALL, _FAMILY.conj())
        y = _FULL @ _FULL
        acc += float(abs(x[0, 0, 0, 0])) + float(y[0, 0].real)
        for j in range(200):
            acc += j * 1e-9
        laps.append(time.perf_counter() - start)
    if not np.isfinite(acc):
        raise FloatingPointError("reference kernel produced a non-finite value")
    return LAPS * statistics.median(laps)
