"""The test run pins numpy's bundled OpenBLAS to one thread.

The model's GEMMs are small: on a 2-vCPU Xeon a batch-4, 16x32 training
step took 34-37 ms on one thread and 43-47 ms on two.  No test result
depends on the count.  A test that compares thread counts sets them
itself with `blas_threads`, and `run_per_core` children load their own
library.
"""

from blas_helpers import set_blas_threads


def pytest_configure(config):
    set_blas_threads(1)
