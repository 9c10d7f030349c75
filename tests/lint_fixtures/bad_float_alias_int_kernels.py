"""Known-bad fixture: float dtypes that reach int kernels by name.

The basename ends with ``int_kernels.py`` so the QL044 integer-flow
checker takes it in scope.  None of the three escapes below names a
float dtype where an array is built, so a checker that only inspects
``astype``/``dtype=`` call sites misses them all: a dtype bound to a
name, a float dtype as a default argument, and true division.
"""

import numpy as np

CARRIER = np.float32


def widen(codes, dtype=np.float64):
    return codes.astype(dtype)


def halve(codes):
    return codes.astype(CARRIER) + codes / 2
