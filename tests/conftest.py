"""Set-up of the test process, which pytest loads before any test module.

BLAS runs on one thread, as under `bench`: the variables must be set before
numpy loads BLAS, and test modules import numpy before `hrbench.cli` sets
them. A pool test forks this process, and with BLAS threads running that is
the fork of a multi-threaded process.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
