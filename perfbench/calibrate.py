"""Host-speed probe.

A shared host changes speed by a fifth and more over seconds to minutes
(other tenants share its cores), and a run of under a minute cannot
average that out.  So the worker times a fixed pure-Python kernel between
jobs, at most every tenth of a second, and the parent scales every job time
by how long the kernel took around that job: a job time of ``t`` next to a
mean kernel time of ``k`` is reported as ``t * REFERENCE_S / k``, the time
the job would take on a host where the kernel takes ``REFERENCE_S``.  The
kernel imports nothing from finsite, so no change to the program changes
it.
"""

import itertools
import time

REFERENCE_S = 0.005         # the kernel's time at the reference host speed
KERNEL_RESULT = 12505       # what the kernel returns; checked on every probe
FIXED_MAP = (1, 2, 3, 4, 4)
WEIGHTS = {x: (3 * x + 1) % 5 for x in range(5)}


def kernel() -> int:
    """Fixed interpreter work of the kind the library does: enumerate the
    maps of a 5-element set into itself and count those that commute with a
    fixed map, with tuple indexing, generator expressions and dict lookups.
    Nothing it allocates outlives an iteration, so it never sets off the
    garbage collector and its time does not depend on the size of the heap
    around it."""
    f = FIXED_MAP
    kept = 0
    for g in itertools.product(range(5), repeat=5):
        if all(g[f[x]] == f[g[x]] for x in range(5)):
            kept += 1
        kept += WEIGHTS[g[0]] * WEIGHTS[g[4]]
    return kept


def probe() -> float:
    """The kernel's time now."""
    start = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - start
    if result != KERNEL_RESULT:
        raise AssertionError(f"reference kernel returned {result}, not {KERNEL_RESULT}")
    return elapsed
