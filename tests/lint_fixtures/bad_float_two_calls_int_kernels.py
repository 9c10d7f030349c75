"""Known-bad fixture: a float routine two calls away.

The basename ends with ``int_kernels.py`` so the QL044 integer-flow
checker takes it in scope.  This file is clean, and so is the function
it imports, ``float_chain.capsule_lengths``; that function calls
``_root``, whose ``np.sqrt`` line is the lone violation.
"""

import numpy as np
from float_chain import capsule_lengths


def int_lengths(codes):
    return capsule_lengths(np.asarray(codes, np.int64))
