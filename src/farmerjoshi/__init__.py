"""Simulation and moment-matching calibration workbench for the standard
and adaptive Farmer-Joshi market models.

Import each name from its module, e.g. ``from farmerjoshi.market import
simulate``; the package itself only sets up BLAS.
"""

import os

# One BLAS thread unless the user chose a count: a second OpenBLAS thread
# makes the statistics 2-3x slower on small hosts. OpenBLAS reads these
# variables when it is loaded, so this takes effect only if numpy and scipy
# are first imported after this package.
if not any(os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
