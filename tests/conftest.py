"""Pin BLAS to one thread before numpy loads, so timed tests measure the code.

The dense eigensolves behind criterion 1's wall-clock bound otherwise run on
as many BLAS threads as there are cores, and slow sharply when another
process holds one of them.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
