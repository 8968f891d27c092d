"""numpy's bundled OpenBLAS, seen from the tests: which kernel it runs,
how many threads it uses, and one child process per kernel.

OpenBLAS picks its kernel at load from the CPU, or from
`OPENBLAS_CORETYPE`; `scipy_openblas_get_corename64_` names the one it
picked.  Kernels round some GEMM columns differently, so a bit contract
that should hold on every kernel is checked by rerunning it in a child
per kernel (`run_per_core`).
"""

import ctypes
import glob
import os
import subprocess
import sys
import textwrap
from contextlib import contextmanager

import numpy as np

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# the x86-64 kernels of numpy's bundled dynamic-arch OpenBLAS
CORES = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott")
# the build aliases Katmai to its Prescott kernel, and the name lookup
# returns the first alias
_REPORTED = {"Prescott": "Katmai"}


def _openblas():
    """ctypes handle on numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def openblas_core():
    """The OpenBLAS kernel numpy's bundled library picked at load, or "unknown"."""
    lib = _openblas()
    corename = getattr(lib, "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def set_blas_threads(n):
    """Put numpy's bundled OpenBLAS on n threads, whatever imported numpy
    first, and return the previous count; None when there is no such
    library."""
    lib = _openblas()
    if lib is None:
        return None
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    prev = get()
    set_(n)
    return prev


@contextmanager
def blas_threads(n):
    """Run the body with numpy's bundled OpenBLAS on n threads.  A
    threaded GEMV splits its columns where the thread count says, so a
    whole-array lstsq rounds a few columns differently on 1 and on 2
    threads."""
    prev = set_blas_threads(n)
    try:
        yield
    finally:
        if prev is not None:
            set_blas_threads(prev)


def run_per_core(snippet):
    """Run a Python snippet in one child process per OPENBLAS_CORETYPE in
    CORES and return {core: the child's stdout}.

    The child can import karina and this module.  A core is skipped when
    its child dies by a signal (an instruction this CPU lacks) or when
    OpenBLAS reports another kernel (one this CPU or build cannot run);
    any other failing child raises AssertionError with its stderr.
    """
    code = "from blas_helpers import openblas_core\nprint(openblas_core())\n" + textwrap.dedent(snippet)
    path = os.pathsep.join(p for p in (SRC, TESTS, os.environ.get("PYTHONPATH")) if p)
    out = {}
    for core in CORES:
        env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=600)
        if proc.returncode < 0:
            continue
        assert proc.returncode == 0, f"OPENBLAS_CORETYPE={core}:\n{proc.stderr}"
        reported, _, stdout = proc.stdout.partition("\n")
        if reported == _REPORTED.get(core, core):
            out[core] = stdout
    return out
