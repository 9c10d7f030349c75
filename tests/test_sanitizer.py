"""Tests for the runtime fixed-point sanitizer (repro.lint.sanitizer).

The sanitizer acceptance criteria:

* outputs are bit-identical with the sanitizer on vs off, for all four
  rounding schemes — at the kernel level and through a full served
  predict;
* overflow / saturation / NaN counts are exact on known inputs and are
  attributed to the active quantization layer;
* strict mode raises on NaN (never on overflow — saturation is defined
  hardware behaviour), and ``check_codes_fit`` rejects unrepresentable
  stored codes;
* the serving surface exposes the counters: ``QuantSpec(sanitize=True)``
  flows through ``Session.serve`` and ``ModelRegistry`` into
  ``/healthz``.
"""

import threading

import numpy as np
import pytest

from repro.api import ModelArtifact, QuantSpec, Session
from repro.api.spec import SpecError
from repro.hw.fixed_ref import saturate
from repro.lint.sanitizer import (
    UNATTRIBUTED,
    FixedPointSanitizer,
    SanitizerError,
    active_sanitizer,
)
from repro.quant import (
    QuantizationConfig,
    QuantizedCapsNet,
    calibrate_scales,
    get_rounding_scheme,
)
from repro.quant.fixed_point import FixedPointFormat
from repro.quant.quantize import quantize, quantize_to_int
from repro.quant.rounding import carrier_dtype
from repro.serve import ModelRegistry, ServingDaemon

SCHEMES = ("TRN", "RTN", "RTNE", "SR")


def _artifact(trained_tiny, tiny_data, scheme_name="RTN", sanitize=False):
    _, test = tiny_data
    config = QuantizationConfig.uniform(
        list(trained_tiny.quant_layers), qw=4, qa=5
    )
    scales = calibrate_scales(trained_tiny, test.images[:64])
    quantized = QuantizedCapsNet(
        trained_tiny, config, get_rounding_scheme(scheme_name, seed=3),
        act_scales=scales, seed=3,
    )
    spec = QuantSpec(model="shallow-tiny", dataset="digits", seed=1,
                     sanitize=sanitize)
    return ModelArtifact.from_quantized(
        quantized, report={"label": scheme_name}, spec=spec.to_dict(),
    )


# ----------------------------------------------------------------------
# Bit-identity: the sanitizer never perturbs outputs
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("name", SCHEMES)
    def test_kernel_outputs_identical(self, name, rng):
        values = rng.normal(scale=3.0, size=(64, 7)).astype(np.float32)
        fmt = FixedPointFormat(3, 4)
        plain = get_rounding_scheme(name, seed=9).apply(values, fmt)
        with FixedPointSanitizer():
            sanitized = get_rounding_scheme(name, seed=9).apply(values, fmt)
        np.testing.assert_array_equal(plain, sanitized)

    @pytest.mark.parametrize("name", SCHEMES)
    def test_integer_codes_identical(self, name, rng):
        values = rng.normal(scale=3.0, size=257)
        fmt = FixedPointFormat(3, 4)
        plain = quantize_to_int(values, fmt, get_rounding_scheme(name, seed=9))
        with FixedPointSanitizer():
            sanitized = quantize_to_int(
                values, fmt, get_rounding_scheme(name, seed=9)
            )
        np.testing.assert_array_equal(plain, sanitized)

    @pytest.mark.parametrize("name", SCHEMES)
    def test_served_predictions_identical(
        self, name, trained_tiny, tiny_data
    ):
        _, test = tiny_data
        images = test.images[:48]
        spec = QuantSpec(model="shallow-tiny", dataset="digits", seed=1,
                         batch_size=16)
        session = Session(spec, model=trained_tiny,
                          test_data=(images, test.labels[:48]))
        artifact = _artifact(trained_tiny, tiny_data, name)
        plain = session.serve(artifact).predict(images)

        spec_on = spec.with_overrides(sanitize=True)
        session_on = Session(spec_on, model=trained_tiny,
                             test_data=(images, test.labels[:48]))
        served = session_on.serve(artifact)
        assert served.sanitizing
        np.testing.assert_array_equal(plain, served.predict(images))
        # The run actually recorded quantization traffic.
        assert served.sanitizer_report()["totals"]["calls"] > 0


class TestCarrierParity:
    """The float32 rounding carrier reports what the float64 one does.

    Feeding the same float32 values as float64 runs the identical
    rounding on the float64 carrier, so the two sanitizer reports can be
    compared directly.
    """

    @staticmethod
    def _reports(values32, fmt, name):
        assert carrier_dtype(values32.dtype, fmt) is np.float32
        reports = []
        for values in (values32, values32.astype(np.float64)):
            with np.errstate(invalid="ignore", over="ignore"):
                with FixedPointSanitizer() as sanitizer:
                    with sanitizer.layer("L"):
                        get_rounding_scheme(name, seed=4).apply(values, fmt)
            reports.append(sanitizer.report())
        return reports

    @pytest.mark.parametrize("name", SCHEMES)
    @pytest.mark.parametrize("wordlength", [8, 23])
    def test_counters_and_ranges_identical(self, name, wordlength, rng):
        fmt = FixedPointFormat(2, wordlength - 2)
        # Codes overflow beyond |x| = 2, and |x · 2^QF| < 2^23 keeps the
        # pre-clip extrema exact on both carriers.
        values = np.clip(rng.normal(scale=2.0, size=(32, 9)), -3.99, 3.99)
        values = values.astype(np.float32)
        values[0, :3] = [0.0, -0.0, np.finfo(np.float32).smallest_subnormal]
        on_f32, on_f64 = self._reports(values, fmt, name)
        assert on_f32["layers"] == on_f64["layers"]
        assert on_f32["ranges"] == on_f64["ranges"]
        assert on_f32["totals"]["overflow"] > 0

    @pytest.mark.parametrize("name", SCHEMES)
    def test_counters_identical_beyond_float32_range(self, name):
        fmt = FixedPointFormat(1, 22)
        values = np.array(
            [np.nan, np.inf, -np.inf, 3e38, -3e38, 1e30, 0.25, -0.75],
            dtype=np.float32,
        )
        on_f32, on_f64 = self._reports(values, fmt, name)
        assert on_f32["layers"] == on_f64["layers"]
        totals = on_f32["totals"]
        assert (totals["calls"], totals["elements"]) == (1, 8)
        assert (totals["nan"], totals["overflow"]) == (1, 5)


# ----------------------------------------------------------------------
# Exact counting
# ----------------------------------------------------------------------
class TestCounters:
    def test_overflow_count_is_exact(self):
        fmt = FixedPointFormat(2, 2)  # values representable in [-2, 1.75]
        values = np.array([100.0, -100.0, 0.25, 1.0])
        with FixedPointSanitizer() as sanitizer:
            quantize(values, fmt)
        totals = sanitizer.report()["totals"]
        assert totals["overflow"] == 2
        assert totals["nan"] == 0
        assert totals["elements"] == 4
        assert totals["calls"] == 1

    def test_nan_count_is_exact_and_disjoint_from_overflow(self):
        fmt = FixedPointFormat(2, 2)
        values = np.array([np.nan, 100.0, 0.5])
        with FixedPointSanitizer() as sanitizer:
            quantize(values, fmt)
        totals = sanitizer.report()["totals"]
        assert totals["nan"] == 1
        assert totals["overflow"] == 1

    def test_saturation_counted_from_integer_datapath(self):
        fmt = FixedPointFormat(3, 2)
        codes = np.array([500, -500, 3], dtype=np.int64)
        with FixedPointSanitizer() as sanitizer:
            clamped = saturate(codes, fmt)
        assert clamped.max() <= fmt.int_max
        assert sanitizer.report()["totals"]["saturated"] == 2

    def test_events_attributed_to_active_layer(self):
        fmt = FixedPointFormat(2, 2)
        with FixedPointSanitizer() as sanitizer:
            with sanitizer.layer("conv1"):
                quantize(np.array([100.0]), fmt)
            quantize(np.array([100.0]), fmt)
        layers = sanitizer.report()["layers"]
        assert layers["conv1"]["overflow"] == 1
        assert layers[UNATTRIBUTED]["overflow"] == 1

    def test_event_count_totals(self):
        fmt = FixedPointFormat(2, 2)
        with FixedPointSanitizer() as sanitizer:
            quantize(np.array([100.0, -100.0]), fmt)
        assert sanitizer.event_count() == 2

    def test_no_sanitizer_is_active_by_default(self):
        assert active_sanitizer() is None
        with FixedPointSanitizer() as sanitizer:
            assert active_sanitizer() is sanitizer
        assert active_sanitizer() is None

    def test_activation_is_thread_local(self):
        seen = {}

        def probe():
            seen["other"] = active_sanitizer()

        with FixedPointSanitizer():
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen["other"] is None

    def test_findings_map_overflow_and_nan_to_rules(self):
        fmt = FixedPointFormat(2, 2)
        with FixedPointSanitizer() as sanitizer:
            with sanitizer.layer("L1"):
                quantize(np.array([np.nan, 100.0]), fmt)
        rules = sorted(f.rule for f in sanitizer.findings())
        assert rules == ["QL030", "QL031"]

    def test_origin_capture_names_the_caller(self):
        fmt = FixedPointFormat(2, 2)
        with FixedPointSanitizer(capture_origin=True) as sanitizer:
            quantize(np.array([100.0]), fmt)  # the origin line
        findings = sanitizer.findings()
        assert len(findings) == 1
        assert findings[0].path.endswith("test_sanitizer.py")
        assert findings[0].line > 0


# ----------------------------------------------------------------------
# Strict mode / stored-code validation
# ----------------------------------------------------------------------
class TestStrict:
    def test_strict_raises_on_nan(self):
        fmt = FixedPointFormat(2, 2)
        with FixedPointSanitizer(strict=True):
            with pytest.raises(SanitizerError, match="NaN"):
                quantize(np.array([np.nan]), fmt)

    def test_strict_tolerates_overflow(self):
        fmt = FixedPointFormat(2, 2)
        with FixedPointSanitizer(strict=True) as sanitizer:
            quantize(np.array([100.0]), fmt)
        assert sanitizer.report()["totals"]["overflow"] == 1

    def test_check_codes_fit(self):
        sanitizer = FixedPointSanitizer()
        sanitizer.check_codes_fit(np.array([3, -4]), -4, 3, "L1.w")
        with pytest.raises(SanitizerError, match="L1.w"):
            sanitizer.check_codes_fit(np.array([9]), -4, 3, "L1.w")


# ----------------------------------------------------------------------
# Spec / serving-surface plumbing
# ----------------------------------------------------------------------
class TestServingSurface:
    def test_spec_sanitize_round_trips(self):
        spec = QuantSpec(sanitize=True)
        assert QuantSpec.from_dict(spec.to_dict()).sanitize is True
        assert QuantSpec.from_dict(QuantSpec().to_dict()).sanitize is False

    def test_spec_sanitize_must_be_bool(self):
        with pytest.raises(SpecError, match="sanitize"):
            QuantSpec(sanitize="yes")

    def test_legacy_spec_dicts_default_off(self):
        data = QuantSpec().to_dict()
        del data["sanitize"]  # pre-sanitizer artifact provenance
        assert QuantSpec.from_dict(data).sanitize is False

    def test_registry_override_forces_sanitizer(
        self, trained_tiny, tiny_data
    ):
        registry = ModelRegistry(max_warm=2, batch_size=32, sanitize=True)
        registry.register(
            "m", artifact=_artifact(trained_tiny, tiny_data),
            model=trained_tiny,
        )
        assert registry.get("m").sanitizing

    def test_registry_defaults_to_artifact_spec(
        self, trained_tiny, tiny_data
    ):
        registry = ModelRegistry(max_warm=2, batch_size=32)
        registry.register(
            "off", artifact=_artifact(trained_tiny, tiny_data),
            model=trained_tiny,
        )
        registry.register(
            "on",
            artifact=_artifact(trained_tiny, tiny_data, sanitize=True),
            model=trained_tiny,
        )
        assert not registry.get("off").sanitizing
        assert registry.get("on").sanitizing
        assert list(registry.sanitizer_reports()) == ["on"]

    def test_healthz_exposes_sanitizer_counters(
        self, trained_tiny, tiny_data
    ):
        import json
        import urllib.request

        _, test = tiny_data
        registry = ModelRegistry(max_warm=2, batch_size=32, sanitize=True)
        registry.register(
            "m", artifact=_artifact(trained_tiny, tiny_data),
            model=trained_tiny,
        )
        daemon = ServingDaemon(registry, port=0, max_wait_ms=1.0)
        with daemon:
            from repro.serve import Client

            with Client(daemon.url, timeout=120.0) as client:
                client.predict("m", test.images[:8])
            with urllib.request.urlopen(f"{daemon.url}/healthz") as response:
                health = json.loads(response.read())
        assert "sanitizers" in health
        report = health["sanitizers"]["m"]
        assert report["totals"]["calls"] > 0
        assert set(report["totals"]) == {
            "calls", "elements", "overflow", "saturated", "nan",
        }

    def test_batcher_stats_consistent_under_concurrent_readers(
        self, trained_tiny, tiny_data
    ):
        """Regression for the /healthz-vs-worker counter race."""
        from repro.serve import MicroBatcher

        _, test = tiny_data
        registry = ModelRegistry(max_warm=2, batch_size=32)
        registry.register(
            "m", artifact=_artifact(trained_tiny, tiny_data),
            model=trained_tiny,
        )
        batcher = MicroBatcher(registry, max_batch=16, max_wait_ms=1.0)
        stop = threading.Event()
        snapshots = []

        def reader():
            while not stop.is_set():
                snapshots.append(batcher.stats())

        worker = threading.Thread(target=reader)
        worker.start()
        try:
            tickets = [
                batcher.submit("m", test.images[i:i + 2])
                for i in range(0, 32, 2)
            ]
            for ticket in tickets:
                ticket.future.result(timeout=120.0)
        finally:
            stop.set()
            worker.join()
            batcher.close()
        final = batcher.stats()
        assert final["requests"] == 16
        assert final["batched_samples"] == 32
        assert snapshots  # the reader actually raced the worker
