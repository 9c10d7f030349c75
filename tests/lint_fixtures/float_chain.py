"""Helper module of ``bad_float_two_calls_int_kernels.py``.

Out of QL044 scope by its own name.  ``capsule_lengths`` is clean; the
float routine sits in ``_root``, one more call away, which the checker
reaches by following the helper it names.  ``mean_length`` is never
reached, so its float routine is not reported.
"""

import numpy as np


def capsule_lengths(codes):
    return _root((codes * codes).sum(axis=-1))


def _root(squares):
    return np.sqrt(squares).astype(np.int64)


def mean_length(codes):
    return np.mean(capsule_lengths(codes))
