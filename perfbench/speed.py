"""Machine-speed probe: a fixed piece of work whose time tracks the host.

A shared 2-core Intel Xeon VM runs the same code up to 1.5 times slower in
some minutes than in others (neighbours on the host, not anything of this
process: user time rises with wall time, and no time is stolen).  A
35-second run can fall wholly in a slow or a fast spell, so a median over
the run cannot remove it.  ``probe`` times a fixed mix of the work gbmlab
does (a small monotone sweep, Philox normals, interpolation, float
formatting) and runs between invocations; ``run.py`` scales each
invocation's wall time by ``(REFERENCE_S / probe time) ** e`` to the host's
reference speed, with the workload's exponent ``e`` from
``workloads.SPEED_EXPONENT``.  The probe is the benchmark's own code, so a
change to gbmlab never moves it.
"""

import time

import numpy as np

# probe seconds at which a time counts as unscaled; about the probe's time
# on the reference host (2-core Intel Xeon VM) in its fast spells
REFERENCE_S = 0.03

_X = np.linspace(-3.0, 3.0, 401)
_Q = np.linspace(-3.0, 3.0, 18_000)


def _work() -> int:
    u = np.abs(_X)
    for _ in range(1200):
        d2 = u[2:] - 2.0 * u[1:-1] + u[:-2]
        u[1:-1] += 0.2 * np.where(d2 > 0.0, 1.0, 0.25) * d2
    z = np.empty((480, 256))
    for i in range(480):
        key = np.array([7, i], dtype=np.uint64)
        z[i] = np.random.Generator(np.random.Philox(key=key)).standard_normal(256)
    v = np.interp(_Q + z.ravel()[:_Q.size], _X, u)
    return len("\n".join("%.17g" % x for x in v))


def probe() -> float:
    """Seconds for one run of the fixed work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
