"""Pin BLAS to one thread for the test session, before NumPy loads.

With one BLAS thread, `ufolab.tensor`'s kernels split their per-clip work
across the free CPUs, which runs the acceptance grids' sampling faster than
BLAS's own threads do.  Bytes do not depend on either thread count.  A
variable already set in the environment wins, as in
`scripts/run_experiments.py`.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("NumPy was loaded before tests/conftest.py could pin its BLAS threads")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
