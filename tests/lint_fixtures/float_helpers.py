"""Helper module of ``bad_float_via_import_int_kernels.py``.

Out of QL044 scope by its own name: only the functions an integer
backend file imports are checked.  ``mean_code`` is never imported, so
its float routine is not reported.
"""

import numpy as np


def capsule_norm(codes):
    squares = (codes * codes).sum(axis=-1)
    return np.sqrt(squares).astype(np.int64)


def mean_code(codes):
    return np.mean(codes)
