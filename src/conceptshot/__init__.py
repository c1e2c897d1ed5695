"""conceptshot: few-shot classification driven by a concept hierarchy.

A graph over classes (leaf entities plus coarser concept levels) is embedded
with neighborhood propagation; task classifiers are emitted from the graph,
refined per episode, adapted by a few gradient steps on the support set, and
meta-trained end to end with weakly-labeled episodes at every concept level.
"""

import ctypes

__version__ = "0.1.0"

# glibc's malloc thresholds, fixed for the whole process.  A training step on
# a large hierarchy allocates and frees about 10 MB of arrays; under glibc's
# dynamic thresholds the heap top is trimmed after each step and faulted back
# in on the next, or not, depending on what the process allocated before.
# 32 MiB is the ceiling of glibc's dynamic mmap threshold, and the trim
# threshold is twice it, as glibc's own rule sets it.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3      # glibc's <malloc.h>


def pin_malloc_thresholds(libc=None) -> bool:
    """Set glibc's mmap and trim thresholds to the constants above; True when
    both were set.  Does nothing, and returns False, when ``libc`` (default:
    the C library this process runs on) is not glibc or has no ``mallopt``."""
    if libc is None:
        try:
            libc = ctypes.CDLL(None)
        except (OSError, TypeError):       # no handle on this process's symbols
            return False
    if not (hasattr(libc, "gnu_get_libc_version") and hasattr(libc, "mallopt")):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1,
                mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1])


pin_malloc_thresholds()
