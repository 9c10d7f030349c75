"""qlint: quantization-aware static analysis + runtime sanitizers.

Four analyzers, one CLI (``qcapsnets lint``), one CI gate:

* :mod:`repro.lint.determinism` — QL010/QL011/QL012 determinism lint;
* :mod:`repro.lint.concurrency` — QL020/QL022 serve concurrency
  audit;
* :mod:`repro.lint.intflow` — QL044 integer-flow checker of the int
  backend;
* :mod:`repro.lint.sanitizer` — QL030/QL031 runtime fixed-point
  sanitizer (``QuantSpec(sanitize=True)`` / ``--sanitize``).

The sanitizer half is imported eagerly — the quant kernels call
:func:`active_sanitizer` on their hot path, so it must be a dependency
leaf.  The analyzers and the CLI runner are loaded lazily via
``__getattr__``, so the kernels' import of the sanitizer does not load
them.
"""

from repro.lint.findings import RULES, Finding
from repro.lint.sanitizer import (
    UNATTRIBUTED,
    FixedPointSanitizer,
    SanitizerError,
    active_sanitizer,
)

__all__ = [
    "RULES",
    "Finding",
    "UNATTRIBUTED",
    "FixedPointSanitizer",
    "SanitizerError",
    "active_sanitizer",
    "concurrency",
    "determinism",
    "run_lint",
    "list_rules",
]

_LAZY_MODULES = {"concurrency", "determinism"}
_LAZY_CLI = {"run_lint", "list_rules"}


def __getattr__(name):
    if name in _LAZY_MODULES:
        import importlib

        return importlib.import_module(f"repro.lint.{name}")
    if name in _LAZY_CLI:
        from repro.lint import cli

        return getattr(cli, name)
    raise AttributeError(f"module 'repro.lint' has no attribute {name!r}")
