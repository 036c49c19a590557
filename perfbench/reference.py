"""A fixed interpreter-bound loop that calibrates the machine's speed.

Other tenants of a shared machine slow all Python code alike, by up to
about 2x, for seconds to minutes at a time.  The benchmark times this
loop before and after every call and scales the call's time by
REFERENCE_S over the loop's mean time.  REFERENCE_S is about the loop's
time on an unloaded 2-vCPU machine of the kind that set the baseline.
On that machine, over 20 s windows of a 110 s run, the median ratio of
a `verify` call to this loop moved by 0.3% (IQR over median).  The raw
median moved by 27%.
"""

import time

REFERENCE_S = 0.0035

_DATA = [((i * 7919) % 48, (i * 104729) % 48, (i * 31) % 48, (i * 17) % 48) for i in range(2500)]


def reference() -> float:
    """Seconds one pass of the loop takes now: rotations of short tuples,
    dict updates and a sort, like the program's own hot paths."""
    began = time.perf_counter()
    seen: dict = {}
    for t in _DATA:
        r = min(t[i:] + t[:i] for i in range(4))
        seen[r] = seen.get(r, 0) + 1
    sorted(seen)
    return time.perf_counter() - began
