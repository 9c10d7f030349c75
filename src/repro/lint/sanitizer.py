"""Runtime fixed-point sanitizer: per-layer overflow/saturation/NaN counters.

The Q-CapsNets search deliberately sits wordlengths at the accuracy
cliff, which makes silent fixed-point overflow the most dangerous
runtime failure mode.  This module instruments the two quantization
funnels — :meth:`repro.quant.rounding.RoundingScheme.apply` (the float
"fake quantization" hot path) and :func:`repro.hw.fixed_ref.saturate`
(the integer datapath) — to count, per quantization layer:

* **overflow** — values whose rounded integer code fell outside the
  format's representable range *before* clipping (the events a
  hardware datapath would saturate);
* **saturated** — integer codes clamped by the datapath reference ops;
* **nan** — NaN values reaching a quantization hook (always a bug).

Design constraints (enforced by tests):

* **Zero overhead when disabled.**  The instrumented call sites do one
  thread-local lookup (:func:`active_sanitizer`) and branch; no
  sanitizer object exists unless one is installed.
* **Bit-identical outputs when enabled.**  Counting only *reads* the
  pre-clip code buffer; the arithmetic pipeline is untouched.

A sanitizer activates for the current thread as a context manager::

    san = FixedPointSanitizer()
    with san:
        served.predict(images)
    san.report()   # {"layers": {...}, "totals": {...}}

This module is a dependency leaf (NumPy + stdlib only) so the quant
kernels can import it without cycles.
"""

from __future__ import annotations

import threading
import traceback
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.lint.findings import Finding

#: Per-thread sanitizer stack and quantization-layer label stack.
_STATE = threading.local()

#: Label used when no layer context is active (direct kernel calls).
UNATTRIBUTED = "<unattributed>"

#: Path fragments of the instrumented modules, skipped when walking the
#: stack for an event's origin (the first frame outside these is the
#: caller responsible for the values).
_INSTRUMENTED_FRAGMENTS = ("repro/quant", "repro/hw", "repro/lint")


class SanitizerError(RuntimeError):
    """A strict-mode sanitizer check failed (NaN or unrepresentable code)."""


def active_sanitizer() -> Optional["FixedPointSanitizer"]:
    """The sanitizer installed for the current thread, if any."""
    stack = getattr(_STATE, "stack", None)
    if not stack:
        return None
    return stack[-1]


def _current_label() -> str:
    labels = getattr(_STATE, "labels", None)
    if not labels:
        return UNATTRIBUTED
    return labels[-1]


def _new_counters() -> Dict[str, int]:
    return {"calls": 0, "elements": 0, "overflow": 0, "saturated": 0, "nan": 0}


class FixedPointSanitizer:
    """Counts fixed-point hazard events, attributed to quantization layers.

    Parameters
    ----------
    strict:
        Raise :class:`SanitizerError` as soon as a NaN reaches a
        quantization hook (overflow is *not* an error in strict mode:
        saturation is defined hardware behaviour, only counted).
    capture_origin:
        Record, once per ``(layer, kind)``, the first stack frame
        outside the instrumented quant/hw modules that triggered the
        event — this is what lets ``qcapsnets lint --runtime`` point a
        finding at the offending file and line.
    """

    def __init__(self, strict: bool = False, capture_origin: bool = False):
        self.strict = strict
        self.capture_origin = capture_origin
        #: Per-layer counters (mutated under ``_lock``; the dict itself
        #: is bound once, so readers always see a live mapping).
        self.counters: Dict[str, Dict[str, int]] = {}
        #: ``(layer, kind) -> (path, line)`` of the first event.
        self.origins: Dict[Tuple[str, str], Tuple[str, int]] = {}
        #: Per-layer observed *pre-clip* code extrema ``[lo, hi]``
        #: (NaN-free).  This is the runtime trace the qprove static
        #: certificate must over-approximate — the cross-validation
        #: oracle of ``tests/test_qprove.py``.
        self.ranges: Dict[str, List[float]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Activation (thread-local)
    # ------------------------------------------------------------------
    def __enter__(self) -> "FixedPointSanitizer":
        stack = getattr(_STATE, "stack", None)
        if stack is None:
            stack = []
            _STATE.stack = stack
        stack.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _STATE.stack.pop()

    @contextmanager
    def layer(self, label: str) -> Iterator[None]:
        """Attribute events raised inside the block to ``label``."""
        labels = getattr(_STATE, "labels", None)
        if labels is None:
            labels = []
            _STATE.labels = labels
        labels.append(label)
        try:
            yield
        finally:
            labels.pop()

    # ------------------------------------------------------------------
    # Recording (called from the instrumented kernels)
    # ------------------------------------------------------------------
    def record_rounding(
        self,
        codes: np.ndarray,
        int_min: int,
        int_max: int,
        label: Optional[str] = None,
    ) -> None:
        """Inspect a pre-clip integer-code buffer from a rounding kernel.

        ``codes`` is the scratch buffer (float32 or float64 carrier, see
        :mod:`repro.quant.rounding`, or the int backend's integer hook
        codes) holding rounded (but not yet saturated) integer codes;
        out-of-range entries are the values a hardware datapath would
        clip (overflow), NaNs are poison.  NaN comparisons are false,
        so the two counts never overlap.  ``label`` attributes the call
        to a layer directly; by default the active :meth:`layer` label
        does.
        """
        nan = int(np.isnan(codes).sum())
        overflow = int((codes < int_min).sum() + (codes > int_max).sum())
        if label is None:
            label = _current_label()
        lo = hi = None
        if codes.size and nan < codes.size:
            # NaN-safe pre-clip extrema (ignores poison values, which
            # are counted separately and fail strict mode anyway).
            lo = float(np.nanmin(codes))
            hi = float(np.nanmax(codes))
        with self._lock:
            counters = self.counters.setdefault(label, _new_counters())
            counters["calls"] += 1
            counters["elements"] += int(codes.size)
            counters["overflow"] += overflow
            counters["nan"] += nan
            if lo is not None:
                observed = self.ranges.get(label)
                if observed is None:
                    self.ranges[label] = [lo, hi]
                else:
                    observed[0] = min(observed[0], lo)
                    observed[1] = max(observed[1], hi)
        if overflow and self.capture_origin:
            self._capture_origin(label, "overflow")
        if nan:
            if self.capture_origin:
                self._capture_origin(label, "nan")
            if self.strict:
                raise SanitizerError(
                    f"{nan} NaN value(s) reached the quantization hook of "
                    f"layer {label!r}"
                )

    def record_saturation(
        self, codes: np.ndarray, int_min: int, int_max: int
    ) -> None:
        """Count codes clamped by the integer datapath's saturate()."""
        saturated = int((codes < int_min).sum() + (codes > int_max).sum())
        if saturated == 0:
            return
        label = _current_label()
        with self._lock:
            counters = self.counters.setdefault(label, _new_counters())
            counters["saturated"] += saturated
        if self.capture_origin:
            self._capture_origin(label, "saturated")

    def check_codes_fit(
        self, codes: np.ndarray, int_min: int, int_max: int, where: str
    ) -> None:
        """Assert stored integer codes are representable in their format.

        Frozen artifact codes outside their declared wordlength are data
        corruption, not hardware saturation — always an error.
        """
        codes = np.asarray(codes)
        low = int(codes.min(initial=0))
        high = int(codes.max(initial=0))
        if low < int_min or high > int_max:
            raise SanitizerError(
                f"{where}: stored codes [{low}, {high}] do not fit the "
                f"declared range [{int_min}, {int_max}]"
            )

    def _capture_origin(self, label: str, kind: str) -> None:
        key = (label, kind)
        with self._lock:
            if key in self.origins:
                return
        for frame in reversed(traceback.extract_stack()):
            normalized = frame.filename.replace("\\", "/")
            if any(f in normalized for f in _INSTRUMENTED_FRAGMENTS):
                continue
            with self._lock:
                self.origins.setdefault(key, (frame.filename, frame.lineno))
            return

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """JSON-safe counter snapshot: per-layer plus totals."""
        with self._lock:
            layers = {
                label: dict(counters)
                for label, counters in sorted(self.counters.items())
            }
            origins = {
                f"{label}:{kind}": [path, line]
                for (label, kind), (path, line) in sorted(self.origins.items())
            }
            ranges = {
                label: list(bounds)
                for label, bounds in sorted(self.ranges.items())
            }
        totals = _new_counters()
        for counters in layers.values():
            for key in totals:
                totals[key] += counters[key]
        result: Dict[str, object] = {"layers": layers, "totals": totals}
        if ranges:
            result["ranges"] = ranges
        if origins:
            result["origins"] = origins
        return result

    def event_count(self) -> int:
        """Total hazard events (overflow + saturated + nan)."""
        with self._lock:
            return sum(
                c["overflow"] + c["saturated"] + c["nan"]
                for c in self.counters.values()
            )

    def findings(self, default_path: str = "<runtime>") -> List[Finding]:
        """Hazard events as lint findings (``lint --runtime`` output).

        Overflow/saturation map to ``QL030``, NaNs to ``QL031``; the
        location is the captured origin frame when available.
        """
        findings: List[Finding] = []
        report = self.report()
        origins = report.get("origins", {})
        for label, counters in report["layers"].items():
            for kind, rule in (
                ("overflow", "QL030"),
                ("saturated", "QL030"),
                ("nan", "QL031"),
            ):
                count = counters[kind]
                if count == 0:
                    continue
                path, line = origins.get(
                    f"{label}:{kind}", (default_path, 0)
                )
                findings.append(Finding(
                    rule, str(path), int(line),
                    f"layer {label!r}: {count} {kind} event(s) out of "
                    f"{counters['elements']} quantized elements",
                ))
        return findings
