"""numpy's bundled OpenBLAS and its SIMD loops, seen from the tests:
which kernel OpenBLAS runs, how many threads it uses, one child process
per kernel, and a child at numpy's baseline SIMD level.

OpenBLAS picks its kernel at load from the CPU, or from
`OPENBLAS_CORETYPE`; `scipy_openblas_get_corename64_` names the one it
picked.  Kernels round some GEMM columns differently, so a bit contract
that should hold on every kernel is checked by rerunning it in a child
per kernel (`run_per_core`).  numpy picks its ufunc loops at import from
the CPU, less the targets `NPY_DISABLE_CPU_FEATURES` names; a contract
that should not depend on them is rerun in a child without them
(`run_at_x86_v2`).
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
# numpy's runtime-dispatched SIMD targets above its X86_V2 baseline on
# x86-64; disabling them leaves every ufunc on its baseline loop
DISPATCH_TARGETS = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"


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


def _run_child(code, **env):
    """Run code in a child Python that can import karina and this module,
    with env added to its environment; the finished process."""
    path = os.pathsep.join(p for p in (SRC, TESTS, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=600)


def run_per_core(snippet):
    """Run a Python snippet in one child process per OPENBLAS_CORETYPE in
    CORES and return {core: the child's stdout}.

    The child can import karina and this module.  A core is skipped when
    its child dies by a signal (an instruction this CPU lacks) or when
    OpenBLAS reports another kernel (one this CPU or build cannot run);
    any other failing child raises AssertionError with its stderr.
    """
    code = "from blas_helpers import openblas_core\nprint(openblas_core())\n" + textwrap.dedent(snippet)
    out = {}
    for core in CORES:
        proc = _run_child(code, OPENBLAS_CORETYPE=core)
        if proc.returncode < 0:
            continue
        assert proc.returncode == 0, f"OPENBLAS_CORETYPE={core}:\n{proc.stderr}"
        reported, _, stdout = proc.stdout.partition("\n")
        if reported == _REPORTED.get(core, core):
            out[core] = stdout
    return out


def run_at_x86_v2(snippet):
    """Run a Python snippet in a child process with numpy's SIMD dispatch
    targets above X86_V2 disabled, and return the child's stdout.

    The child can import karina and this module.  It returns None when
    the child reports a dispatch target still active (a numpy build or
    CPU that this setting does not bring down to X86_V2); a failing child
    raises AssertionError with its stderr.
    """
    code = ("from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__\n"
            "print(*(f for f in __cpu_dispatch__ if __cpu_features__.get(f)))\n"
            + textwrap.dedent(snippet))
    proc = _run_child(code, NPY_DISABLE_CPU_FEATURES=DISPATCH_TARGETS)
    assert proc.returncode == 0, f"NPY_DISABLE_CPU_FEATURES={DISPATCH_TARGETS}:\n{proc.stderr}"
    active, _, stdout = proc.stdout.partition("\n")
    return None if active else stdout
