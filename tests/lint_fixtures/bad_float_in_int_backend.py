"""Known-bad fixture: float contamination inside the int-backend walk.

The basename ends with ``int_backend.py`` so the QL044 integer-flow
checker takes it in scope; the lone violation is the dequantizing
``astype`` below.
"""

import numpy as np


def leaky_hook(codes, exp):
    values = codes.astype(np.float64) * 2.0 ** exp
    return np.rint(values).astype(np.int64)
