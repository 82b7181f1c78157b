"""Run the suite with one BLAS thread, as perfbench does.

Set before numpy is first imported, which reads the thread count once.  A
second OpenBLAS thread doubles the CPU time of a smoke step and leaves its
wall time as it is, so under pytest it only competes with the tests' own
wall-clock budgets.  A value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
