"""Known-bad fixture: a float routine reached through an import.

The basename ends with ``int_kernels.py`` so the QL044 integer-flow
checker takes it in scope.  This file is clean itself; it imports
``capsule_norm`` from the helper module next to it, and the checker
follows the import into that function.  The lone violation is the
``np.sqrt`` line of ``float_helpers.capsule_norm``.
"""

import numpy as np
from float_helpers import capsule_norm


def int_lengths(codes):
    return capsule_norm(np.asarray(codes, np.int64))
