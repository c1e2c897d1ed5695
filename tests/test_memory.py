"""The allocator thresholds pinned when the package is imported."""

import os
import platform
import subprocess
import sys
import types
from pathlib import Path

import pytest

import conceptshot
from conceptshot import MMAP_THRESHOLD, TRIM_THRESHOLD, pin_malloc_thresholds


GLIBC = platform.libc_ver()[0] == "glibc"


# Fifty cycles of the transient arrays a large training step makes: a few
# arrays of 1-12 MB, written through, then freed.  Prints the minor page
# faults taken after one warm-up cycle.
_CHURN = """
import resource
import numpy as np
import conceptshot

def cycle():
    arrays = [np.ones(mb * (1 << 20) // 8) for mb in (12, 8, 6, 4, 3, 2, 1)]
    del arrays

cycle()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    cycle()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc's")
def test_freed_arrays_stay_mapped_between_cycles():
    src = str(Path(conceptshot.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _CHURN], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": src})
    # under glibc's dynamic thresholds every cycle faults its 36 MB in again:
    # about 3,000 faults per cycle on x86-64 Linux
    assert int(out.stdout) < 100


@pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc's")
def test_pinning_succeeds_under_glibc():
    assert pin_malloc_thresholds() is True


def test_pinning_passes_the_constants_to_mallopt():
    calls = []
    libc = types.SimpleNamespace(gnu_get_libc_version=lambda: b"2.36",
                                 mallopt=lambda param, value: calls.append((param, value)) or 1)
    assert pin_malloc_thresholds(libc) is True
    assert calls == [(-3, MMAP_THRESHOLD), (-1, TRIM_THRESHOLD)]
    assert (MMAP_THRESHOLD, TRIM_THRESHOLD) == (32 << 20, 64 << 20)


@pytest.mark.parametrize("libc", [
    types.SimpleNamespace(),                                     # no mallopt
    types.SimpleNamespace(mallopt=lambda *a: pytest.fail("not glibc: no call")),
    types.SimpleNamespace(gnu_get_libc_version=lambda: b"2.36"),  # glibc, no mallopt
])
def test_pinning_is_a_no_op_without_glibc_mallopt(libc):
    assert pin_malloc_thresholds(libc) is False
