"""Averaging transforms on power series, tail criteria for measures on
[0, 1), and growth-space seminorm estimators, with a scenario harness
that checks the structural claims tying them together.

Import from the layers (``cesaro.measure``, ``cesaro.spaces``, ...): each
one's ``__all__`` lists its public names, and the package loads none of them.
"""

import os

# idle OpenBLAS threads cost each call CPU; set before numpy loads, a caller's value wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
