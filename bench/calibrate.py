"""Fixed kernels that measure how fast the shared machine runs right now.

The benchmark's host is shared with other machines' work.  The same
repetition runs up to twice as slow for tens of seconds at a time,
which a median over one run cannot remove.  So every repetition also
times three fixed kernels, once just before the workload and once just
after it.  Their slowdown against an idle machine tracks those slow
phases: a pure-Python loop (the element loops), small numpy products
(the per-element linear algebra) and a sum over a 16 MB array (the
memory traffic of sparse products).

The benchmark divides its end-to-end times by that slowdown, so they read
as seconds on the idle machine.  The kernels use only Python and numpy,
never helmfosls, so a change to the library cannot move them.
"""

import time

import numpy as np

# seconds each kernel takes on an idle 2.1 GHz Xeon vCPU, BLAS on one thread
NOMINAL_S = {"python": 0.100, "numpy": 0.100, "memory": 0.090}

_SMALL = np.random.default_rng(0).standard_normal((10, 10))


def _python():
    table = {}
    acc = 0.0
    for i in range(720_000):
        key = i % 97
        acc += (i * 0.5) % 7.0
        table[key] = table.get(key, 0) + 1
    return acc


def _numpy():
    acc = 0.0
    for i in range(48_000):
        acc += float((_SMALL[i % 10] @ _SMALL).sum())
    return acc


def _memory(big):
    acc = 0.0
    for _ in range(80):
        acc += big.sum() + big[::7].sum()
    return acc


def time_kernels():
    """Seconds each kernel takes now."""
    # allocated per call, so that it never adds to the workload's peak memory
    big = np.ones(2_000_000)
    kernels = {"python": _python, "numpy": _numpy, "memory": lambda: _memory(big)}
    out = {}
    for name, kernel in kernels.items():
        t0 = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - t0
    return out


def slowdown(timings):
    """Mean over kernels of their time, over all ``timings``, against nominal."""
    return sum(
        sum(t[name] for t in timings) / (len(timings) * nominal)
        for name, nominal in NOMINAL_S.items()
    ) / len(NOMINAL_S)
