"""Pin BLAS to one thread for the test run, before anything imports numpy.

Solver values then do not depend on the thread count of the machine running
the tests, and threaded LAPACK calls on small matrices cannot stall the
solver. A variable already set in the environment wins.
"""

import os
import sys

assert "numpy" not in sys.modules, "numpy was imported before BLAS threads were pinned"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
