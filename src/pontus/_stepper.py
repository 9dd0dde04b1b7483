"""Build, cache and load the kernel library of ``_stepper.c``: the compiled ramp
stepper and its dense output, a ramp run's samples and threshold analysis, the
non-Markov measure and the CSV writer's rows.

On first use the kernel is compiled with the system C compiler, ``cc``, and
cached beside this file in ``__pycache__``, as CPython caches bytecode.  The
file name is keyed by the source, the compile command, the interpreter and
the machine, through a 64-bit zlib checksum, which loads no OpenSSL.  A
library is compiled under a temporary name and moved into place only once it
passes the known-answer check, so processes that race on a cold cache each
load a checked kernel and leave one file; a build then removes the libraries
of other keys, which no run of this source loads again.  A process loads the
kernel once, under a lock, whichever of its threads asks first.  A cached
library is checked again on every load.  Where no compiler runs, the
directory cannot be written or is world-writable, or no library passes,
``kernel`` returns None and the Python stepper, analysis, measure and writer
run; the route is logged once, at INFO.
"""

from __future__ import annotations

import ctypes
import logging
import os
import platform
import stat
import subprocess
import sys
import tempfile
import threading
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

SOURCE = Path(__file__).with_name("_stepper.c")
#: No fused multiply-add and no -ffast-math: the kernel must round as Python does.
COMMAND = ("cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off")

_log = logging.getLogger(__name__)
_D, _P = ctypes.c_double, ctypes.c_void_p
_L = ctypes.c_long
_STEPS_ARGTYPES = (_P, _D, _D, _D, _P, ctypes.c_int, _P, _D, _D, _D, _D, _D, _D, _P, _L,
                   ctypes.POINTER(_L))
_CELL_ARGTYPES = (_P, _P, ctypes.POINTER(_L), _D, ctypes.c_int, _P, _D, _D, _D, _D, _D, _P, _P,
                  _L)
_DENSE_ARGTYPES = (_P, _L, _D, _P, _L, _P)
_NM_TOTAL_ARGTYPES = (_P, _P, _L, _D, _D, ctypes.POINTER(_D))
_UNTRIED = object()
_kernel = _UNTRIED
_loading = threading.Lock()


class Kernel(NamedTuple):
    """The library's five functions: ``steps``, pontus_dormand_prince, which
    also finds the stop rule's root; ``dense``, pontus_dense_output, the
    states at given times from a run's step records; ``cell``, pontus_cell, a
    run's samples on its stride grid, their states and distances, and the
    threshold analysis of a stopped run, from its step records chunk by
    chunk; ``nm_total``, pontus_nm_total; and ``csv_rows``, pontus_csv_rows,
    a block of CSV rows.  Each writes only to the buffers it is given and
    releases the GIL while it runs (``ctypes.CDLL``)."""

    steps: Callable
    dense: Callable
    cell: Callable
    nm_total: Callable
    csv_rows: Callable


def kernel(check):
    """The ``Kernel``, or None for the Python route; loaded on the first call
    of a process, and only if ``check(kernel)`` is true.  Threads that call
    it at once wait for one load and get its result."""
    global _kernel
    if _kernel is _UNTRIED:
        with _loading:
            if _kernel is _UNTRIED:
                _kernel = _load(check)
    return _kernel


def cache_path() -> Path:
    """Where this source's library is cached, for this interpreter and machine;
    the key is its parts' CRC-32 and Adler-32."""
    key = b"\0".join((SOURCE.read_bytes(), " ".join(COMMAND).encode(),
                      sys.implementation.cache_tag.encode(), platform.machine().encode()))
    name = f"_stepper.{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    return SOURCE.parent / "__pycache__" / name


def _open(path, check):
    library = ctypes.CDLL(str(path))
    found = Kernel(library.pontus_dormand_prince, library.pontus_dense_output, library.pontus_cell,
                   library.pontus_nm_total, library.pontus_csv_rows)
    found.steps.restype, found.steps.argtypes = ctypes.c_int, _STEPS_ARGTYPES
    found.dense.restype, found.dense.argtypes = None, _DENSE_ARGTYPES
    found.cell.restype, found.cell.argtypes = ctypes.c_int, _CELL_ARGTYPES
    found.nm_total.restype, found.nm_total.argtypes = ctypes.c_int, _NM_TOTAL_ARGTYPES
    found.csv_rows.restype, found.csv_rows.argtypes = _L, (_P, ctypes.c_int, _L, _L, _P, _P, _P)
    return found if check(found) else None


def _build(path, check):
    """Compile to a temporary file, check it and move it into place, then
    remove the cached libraries of other keys."""
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*COMMAND, "-o", tmp, str(SOURCE), "-lm"],
                       capture_output=True, check=True, timeout=300)
        found = _open(tmp, check)
        if found is not None:
            os.replace(tmp, path)
            for stale in path.parent.glob("_stepper.*.so"):
                if stale != path:
                    stale.unlink(missing_ok=True)  # another process may have removed it
        return found
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _load(check):
    found = None
    try:
        path = cache_path()
        path.parent.mkdir(exist_ok=True)
        if path.parent.stat().st_mode & stat.S_IWOTH:
            raise PermissionError(f"{path.parent} is world-writable")
        if path.exists():
            try:
                found, route = _open(path, check), "cached"
            except (OSError, AttributeError):  # not this kernel's library: rebuilt below
                pass
        if found is None:
            found, route = _build(path, check), "built"
    except (OSError, subprocess.SubprocessError) as exc:
        reason = exc
    else:
        if found is not None:
            _log.info("kernel: compiled, %s %s", route, path)
            return found
        reason = "the compiled kernel failed its known-answer check"
    _log.info("kernel: Python (%s)", reason)
    return None
