"""Tests for the deployable quantized artifact and the CapsAcc timing model."""

import numpy as np
import pytest

from repro.analysis import deepcaps_stats, shallowcaps_stats
from repro.autograd.tensor import Tensor, no_grad
from repro.baselines import LeNet5
from repro.capsnet import DeepCaps, ShallowCaps, presets
from repro.capsnet.walk import FloatContext
from repro.framework import Evaluator
from repro.hw import CapsAccConfig, CapsAccModel
from repro.nn.module import Module
from repro.nn.trainer import default_predictions
from repro.quant import (
    FixedPointQuant,
    QuantizationConfig,
    QuantizedCapsNet,
    RecordingContext,
    calibrate_scales,
    get_rounding_scheme,
)
from repro.quant.qmodel import _FrozenWeightContext
from repro.quant.quantize import dequantize_from_int


@pytest.fixture(scope="module")
def quantized_artifact(trained_tiny, tiny_data):
    _, test = tiny_data
    config = QuantizationConfig.uniform(
        trained_tiny.quant_layers, qw=6, qa=6, qdr=4
    )
    scales = calibrate_scales(trained_tiny, test.images)
    artifact = QuantizedCapsNet(
        trained_tiny, config, get_rounding_scheme("RTN"), act_scales=scales
    )
    return artifact, config, scales, test


class TestQuantizedCapsNet:
    def test_matches_search_time_evaluation(self, quantized_artifact, trained_tiny):
        artifact, config, scales, test = quantized_artifact
        evaluator = Evaluator(
            trained_tiny, test.images, test.labels,
            get_rounding_scheme("RTN"),
        )
        evaluator.scales = scales
        search_acc = evaluator.accuracy(config)
        deploy_acc = artifact.accuracy(test.images, test.labels)
        assert deploy_acc == pytest.approx(search_acc, abs=1e-9)

    def test_weight_storage_accounting(self, quantized_artifact, trained_tiny):
        artifact, config, _, _ = quantized_artifact
        # <1.6> everywhere -> 7 bits per parameter.
        expected = trained_tiny.num_parameters() * 7
        assert artifact.weight_storage_bits() == expected

    def test_unquantized_layers_not_frozen(self, trained_tiny, tiny_data):
        _, test = tiny_data
        config = QuantizationConfig(list(trained_tiny.quant_layers))
        config.set_qw("L2", 6)  # only L2 quantized
        artifact = QuantizedCapsNet(
            trained_tiny, config, get_rounding_scheme("RTN")
        )
        frozen_layers = {key.split(":")[0] for key in artifact.weight_codes}
        assert frozen_layers == {"L2"}

    def test_save_load_roundtrip_bit_exact(self, quantized_artifact, tmp_path):
        artifact, _, _, test = quantized_artifact
        path = tmp_path / "artifact.npz"
        artifact.save(path)
        # Load onto a *differently initialized* model: the frozen codes
        # carry all quantized weights.
        fresh = ShallowCaps(presets.shallowcaps_tiny(seed=99))
        loaded = QuantizedCapsNet.load(path, fresh)
        a = artifact.predict(test.images[:32])
        b = loaded.predict(test.images[:32])
        assert np.array_equal(a, b)
        assert loaded.config.qw_vector() == artifact.config.qw_vector()
        assert loaded.act_scales == artifact.act_scales

    def test_codes_fit_declared_format(self, quantized_artifact):
        artifact, _, _, _ = quantized_artifact
        for codes, fmt, scale in artifact.weight_codes.values():
            assert codes.dtype == np.int64
            assert codes.min() >= fmt.int_min
            assert codes.max() <= fmt.int_max
            assert scale >= 1.0

    def test_sr_freezing_deterministic(self, trained_tiny, tiny_data):
        _, test = tiny_data
        config = QuantizationConfig.uniform(
            trained_tiny.quant_layers, qw=4, qa=6
        )
        first = QuantizedCapsNet(
            trained_tiny, config, get_rounding_scheme("SR", seed=3), seed=3
        )
        second = QuantizedCapsNet(
            trained_tiny, config, get_rounding_scheme("SR", seed=3), seed=3
        )
        for key in first.weight_codes:
            assert np.array_equal(
                first.weight_codes[key][0], second.weight_codes[key][0]
            )


def reference_labels(quantized, images):
    """Float labels of ``quantized`` from weights dequantized afresh and
    a runtime on a fresh rounding scheme."""
    frozen = {
        key: Tensor((dequantize_from_int(codes, fmt) * scale).astype(np.float32))
        for key, (codes, fmt, scale) in quantized.weight_codes.items()
    }
    runtime = FixedPointQuant(
        quantized.config,
        get_rounding_scheme(quantized.scheme.name, seed=quantized.seed),
        seed=quantized.seed, scales=quantized.act_scales,
    )
    runtime.reset()
    with no_grad():
        logits = quantized.model(
            Tensor(images), q=_FrozenWeightContext(frozen, runtime)
        )
    return default_predictions(logits)


class TestFrozenWeights:
    """The dequantized float32 weights are built once per bound model
    and shared, read-only, by every runtime context."""

    def test_contexts_share_read_only_weights(self, quantized_artifact):
        artifact, _, _, _ = quantized_artifact
        first, second = artifact.context(), artifact.context()
        assert first._runtime is not second._runtime  # fresh SR stream
        for key in artifact.weight_codes:
            layer, name = key.split(":", 1)
            weight = first.weight(layer, name, None)
            assert weight is second.weight(layer, name, None)
            assert not weight.data.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                weight.data[...] = 0.0

    @pytest.mark.parametrize("scheme", ["RTN", "SR"])
    def test_labels_equal_fresh_dequantization(
        self, scheme, trained_tiny, tiny_data, tmp_path
    ):
        _, test = tiny_data
        images = test.images[:48]
        config = QuantizationConfig.uniform(
            trained_tiny.quant_layers, qw=5, qa=5, qdr=4
        )
        quantized = QuantizedCapsNet(
            trained_tiny, config, get_rounding_scheme(scheme, seed=5),
            act_scales=calibrate_scales(trained_tiny, images), seed=5,
        )
        path = tmp_path / f"{scheme}.npz"
        quantized.save(path)
        bound = {
            "constructed": quantized,
            "from_codes": QuantizedCapsNet.from_codes(
                ShallowCaps(presets.shallowcaps_tiny(seed=99)),
                quantized.config, get_rounding_scheme(scheme, seed=5),
                quantized.weight_codes, act_scales=quantized.act_scales,
                seed=5,
            ),
            "loaded": QuantizedCapsNet.load(
                path, ShallowCaps(presets.shallowcaps_tiny(seed=99))
            ),
        }
        for how, frozen in bound.items():
            labels = frozen.predict(images)
            np.testing.assert_array_equal(
                labels, reference_labels(frozen, images), err_msg=how
            )
            np.testing.assert_array_equal(
                frozen.predict(images), labels, err_msg=how
            )


def probe_forward_params(model):
    """``(layer, name, id(param))`` of every weight hook one zero-image
    forward calls: the reference for the walk-derived list."""

    class Capture(RecordingContext):
        def __init__(self):
            super().__init__(batch_size=1)
            self.params = []

        def weight(self, layer, name, tensor):
            self.params.append((layer, name, id(tensor)))
            return super().weight(layer, name, tensor)

    capture = Capture()
    with no_grad():
        model(Tensor(np.zeros((1, *model.input_shape), np.float32)), q=capture)
    return capture.params


class _StagelessModel(Module):
    quant_layers = ["L1"]

    def forward(self, x, q=None):  # pragma: no cover - never reached
        return x


class TestHookedParams:
    """Freezing lists the hooked weights from the model walk, with no
    forward pass."""

    @pytest.mark.parametrize("build", [
        lambda: ShallowCaps(presets.shallowcaps_tiny()),
        lambda: DeepCaps(presets.deepcaps_small()),
        lambda: LeNet5(seed=0),
    ], ids=["shallow", "deep", "lenet"])
    def test_walk_lists_the_probe_forward_params(self, build):
        model = build()
        model.eval()
        quantized = QuantizedCapsNet.from_codes(
            model, QuantizationConfig(list(model.quant_layers)),
            get_rounding_scheme("RTN"), {},
        )
        walked = [
            (layer, name, id(param))
            for layer, name, param in quantized._iter_hooked_params()
        ]
        assert walked == probe_forward_params(model)

    def test_freezing_runs_no_array_work(self, trained_tiny, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("freezing ran a forward op")

        monkeypatch.setattr(FloatContext, "conv", refuse)
        config = QuantizationConfig.uniform(trained_tiny.quant_layers, qw=6)
        quantized = QuantizedCapsNet(
            trained_tiny, config, get_rounding_scheme("RTN")
        )
        assert len(quantized.weight_codes) == len(trained_tiny.parameters())

    def test_stageless_model_is_refused(self):
        model = _StagelessModel()
        with pytest.raises(TypeError, match="steps"):
            QuantizedCapsNet(
                model, QuantizationConfig(["L1"]), get_rounding_scheme("RTN")
            )


class TestCapsAccModel:
    def test_digitcaps_memory_bound_at_fp32(self):
        timing = CapsAccModel(shallowcaps_stats()).estimate(None)
        assert timing.layers["L3"].memory_bound
        assert not timing.layers["L1"].memory_bound

    def test_quantization_speeds_up_memory_bound_layers(self):
        stats = shallowcaps_stats()
        model = CapsAccModel(stats)
        layers = [layer.name for layer in stats.layers]
        config = QuantizationConfig.uniform(layers, qw=7, qa=7)
        fp32 = model.estimate(None)
        quant = model.estimate(config)
        assert (
            quant.layers["L3"].total_cycles < fp32.layers["L3"].total_cycles
        )
        assert model.speedup(config) > 1.0

    def test_compute_cycles_independent_of_bits(self):
        stats = shallowcaps_stats()
        model = CapsAccModel(stats)
        layers = [layer.name for layer in stats.layers]
        config = QuantizationConfig.uniform(layers, qw=3, qa=3)
        assert (
            model.estimate(None).layers["L1"].compute_cycles
            == model.estimate(config).layers["L1"].compute_cycles
        )

    def test_totals_and_describe(self):
        timing = CapsAccModel(deepcaps_stats()).estimate(None)
        assert timing.total_cycles == sum(
            layer.total_cycles for layer in timing.layers.values()
        )
        assert timing.latency_ms > 0
        assert timing.throughput_fps == pytest.approx(1000 / timing.latency_ms)
        text = timing.describe()
        assert "cycles" in text and "fps" in text

    def test_bigger_array_is_faster(self):
        stats = shallowcaps_stats()
        small = CapsAccModel(stats, CapsAccConfig(pe_rows=8, pe_cols=8))
        large = CapsAccModel(stats, CapsAccConfig(pe_rows=32, pe_cols=32))
        assert (
            large.estimate(None).total_cycles < small.estimate(None).total_cycles
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CapsAccConfig(pe_rows=0)
        with pytest.raises(ValueError):
            CapsAccConfig(clock_mhz=0)
        with pytest.raises(ValueError):
            CapsAccConfig(memory_bits_per_cycle=0)
