"""Tests for capsule layers and the ShallowCaps / DeepCaps models."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.gradcheck import gradcheck
from repro.capsnet import (
    CapsFC,
    ConvCaps2d,
    ConvCaps3d,
    DeepCaps,
    PrimaryCaps,
    ShallowCaps,
    presets,
)
from repro.capsnet.routing import dynamic_routing
from repro.nn import margin_loss
from repro.quant import RecordingContext


class TestPrimaryCaps:
    def test_output_shape(self, rng):
        layer = PrimaryCaps(8, caps_types=4, caps_dim=4, kernel_size=5, stride=2,
                            rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((2, 8, 12, 12)).astype(np.float32))
        out = layer(x)
        # (12-5)//2+1 = 4 -> 4 types * 16 locations = 64 capsules
        assert out.shape == (2, 64, 4)
        assert layer.output_caps(12, 12) == (64, 4)

    def test_capsule_lengths_bounded(self, rng):
        layer = PrimaryCaps(4, 2, 4, kernel_size=3, stride=1,
                            rng=np.random.default_rng(0))
        out = layer(Tensor(rng.standard_normal((1, 4, 6, 6)).astype(np.float32)))
        assert (np.linalg.norm(out.data, axis=-1) < 1.0).all()


class TestCapsFC:
    def test_output_shape(self, rng):
        layer = CapsFC(12, 4, 5, 6, rng=np.random.default_rng(0))
        out = layer(Tensor(rng.standard_normal((3, 12, 4)).astype(np.float32)))
        assert out.shape == (3, 5, 6)

    def test_input_validation(self, rng):
        layer = CapsFC(12, 4, 5, 6, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer(Tensor(rng.standard_normal((3, 9, 4)).astype(np.float32)))

    @staticmethod
    def _broadcast_votes(u, weight):
        """The former vote kernel: B·I·J matrix-vector products via
        ``(1, I, J, D_out, D_in) @ (B, I, 1, D_in, 1)``."""
        batch, in_caps, in_dim = u.shape
        u_col = u.reshape(batch, in_caps, 1, in_dim, 1)
        return np.matmul(weight[None], u_col)[..., 0]

    @pytest.mark.parametrize("bits", [4, 8, 12])
    def test_gemm_votes_bit_identical_on_grid(self, bits, rng):
        """On fixed-point grid inputs every product and partial sum is
        exact in float32, so the one-GEMM votes equal the broadcast form
        bit for bit whatever the summation order."""
        layer = CapsFC(36, 8, 10, 16, rng=np.random.default_rng(1))
        eps = 2.0 ** -(bits - 1)
        weight = np.clip(np.round(layer.weight.data / eps) * eps, -1.0, 1.0 - eps)
        # Capsule-like activations: Σ|u| < 4 keeps partial sums in 24 bits.
        u = np.round(rng.uniform(-0.45, 0.45, size=(16, 36, 8)) / eps) * eps
        weight, u = weight.astype(np.float32), u.astype(np.float32)
        votes = layer.votes(Tensor(u), Tensor(weight)).data
        assert votes.shape == (16, 36, 10, 16)
        assert votes.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(
            votes.view(np.uint32), self._broadcast_votes(u, weight).view(np.uint32)
        )

    def test_gemm_votes_match_fp32_to_roundoff(self, rng):
        layer = CapsFC(36, 8, 10, 16, rng=np.random.default_rng(2))
        u = rng.standard_normal((16, 36, 8)).astype(np.float32)
        weight = layer.weight.data
        votes = layer.votes(Tensor(u), layer.weight).data
        assert votes.dtype == np.float32
        np.testing.assert_allclose(
            votes, self._broadcast_votes(u, weight), rtol=1e-5, atol=1e-6
        )

    def test_gradcheck_through_layer(self, rng):
        """Float64 gradients of votes + routing w.r.t. input and weight."""
        layer = CapsFC(3, 4, 2, 3, routing_iterations=2,
                       rng=np.random.default_rng(3))
        u = rng.standard_normal((2, 3, 4)) * 0.5
        weight = layer.weight.data.astype(np.float64)

        def forward(u_t, w_t):
            votes = layer.votes(u_t, w_t)
            return dynamic_routing(votes, iterations=layer.routing_iterations)

        assert gradcheck(forward, [u, weight])

    def test_mac_counters(self):
        layer = CapsFC(12, 4, 5, 6, routing_iterations=3,
                       rng=np.random.default_rng(0))
        assert layer.vote_macs() == 12 * 5 * 6 * 4
        assert layer.routing_macs() == 3 * 2 * 12 * 5 * 6


class TestConvCaps:
    def test_conv2d_caps_shape(self, rng):
        layer = ConvCaps2d(4, 4, 6, 8, stride=2, rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((2, 4, 4, 8, 8)).astype(np.float32))
        out = layer(x)
        assert out.shape == (2, 6, 8, 4, 4)
        assert layer.output_shape(8, 8) == (6, 8, 4, 4)

    def test_conv2d_caps_squashes(self, rng):
        layer = ConvCaps2d(2, 4, 2, 4, rng=np.random.default_rng(0))
        x = Tensor((rng.standard_normal((1, 2, 4, 5, 5)) * 10).astype(np.float32))
        out = layer(x)
        assert (np.linalg.norm(out.data, axis=2) < 1.0).all()

    def test_conv2d_caps_validates_input(self, rng):
        layer = ConvCaps2d(4, 4, 6, 8, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer(Tensor(rng.standard_normal((2, 3, 4, 8, 8)).astype(np.float32)))

    def test_conv3d_caps_shape(self, rng):
        layer = ConvCaps3d(4, 8, 4, 8, rng=np.random.default_rng(0))
        x = Tensor(rng.standard_normal((2, 4, 8, 6, 6)).astype(np.float32))
        out = layer(x)
        assert out.shape == (2, 4, 8, 6, 6)

    def test_conv3d_routing_arrays_recorded(self, rng):
        layer = ConvCaps3d(2, 4, 3, 4, name="BX", rng=np.random.default_rng(0))
        recorder = RecordingContext(batch_size=1)
        x = Tensor(rng.standard_normal((1, 2, 4, 4, 4)).astype(np.float32))
        layer(x, q=recorder)
        assert ("BX", "coupling") in recorder.routing_elements


class TestShallowCaps:
    def test_forward_shape(self, rng):
        model = ShallowCaps(presets.shallowcaps_tiny())
        x = Tensor(rng.random((4, 1, 14, 14)).astype(np.float32))
        out = model(x)
        assert out.shape == (4, 10, 8)

    def test_param_counts_match_parameters(self):
        model = ShallowCaps(presets.shallowcaps_tiny())
        assert sum(model.layer_param_counts().values()) == model.num_parameters()

    def test_layer_names(self):
        model = ShallowCaps(presets.shallowcaps_tiny())
        assert model.quant_layers == ["L1", "L2", "L3"]
        assert model.routing_layers == ["L3"]

    def test_record_sizes_covers_all_layers(self):
        model = ShallowCaps(presets.shallowcaps_tiny())
        recorder = model.record_sizes()
        assert set(recorder.act_elements) == {"L1", "L2", "L3"}
        assert set(recorder.weight_elements) == {"L1", "L2", "L3"}

    def test_training_step_backprop(self, rng):
        model = ShallowCaps(presets.shallowcaps_tiny())
        x = Tensor(rng.random((4, 1, 14, 14)).astype(np.float32))
        loss = margin_loss(model(x), np.array([0, 1, 2, 3]))
        loss.backward()
        for name, param in model.named_parameters():
            assert param.grad is not None, name
            assert np.isfinite(param.grad).all(), name


class TestDeepCaps:
    @pytest.fixture(scope="class")
    def model(self):
        return DeepCaps(presets.deepcaps_small(input_size=28))

    def test_forward_shape(self, model, rng):
        x = Tensor(rng.random((2, 1, 28, 28)).astype(np.float32))
        assert model(x).shape == (2, 10, 8)

    def test_layer_names(self, model):
        assert model.quant_layers == ["L1", "B2", "B3", "B4", "B5", "L6"]
        assert model.routing_layers == ["B5", "L6"]

    def test_param_counts_match_parameters(self, model):
        # BN gamma/beta are outside the quantization accounting.
        counted = sum(model.layer_param_counts().values())
        total = model.num_parameters()
        bn_params = model.bn1.gamma.size + model.bn1.beta.size
        assert counted == total - bn_params

    def test_routed_skip_only_in_last_cell(self, model):
        from repro.capsnet.conv_caps import ConvCaps2d as C2, ConvCaps3d as C3

        assert isinstance(model.cell2.skip, C2)
        assert isinstance(model.cell5.skip, C3)

    def test_conv1_channels_divisibility_validated(self):
        from repro.capsnet.deep import DeepCapsConfig

        with pytest.raises(ValueError):
            DeepCaps(DeepCapsConfig(conv1_channels=10, cell_dims=(4, 8, 8, 8)))

    def test_backprop_through_whole_model(self, model, rng):
        x = Tensor(rng.random((2, 1, 28, 28)).astype(np.float32))
        loss = margin_loss(model(x), np.array([0, 1]))
        loss.backward()
        grads = [p.grad for _, p in model.named_parameters()]
        assert all(g is not None for g in grads)


class TestPresets:
    def test_paper_presets_match_paper_dims(self):
        cfg = presets.shallowcaps_paper()
        assert cfg.conv1_channels == 256
        assert cfg.primary_types == 32 and cfg.primary_dim == 8
        assert cfg.class_dim == 16
        deep = presets.deepcaps_paper()
        assert deep.conv1_channels == 128
        assert deep.cell_types == (32, 32, 32, 32)
        assert deep.class_dim == 32

    def test_small_presets_instantiate_quickly(self):
        ShallowCaps(presets.shallowcaps_small())
        DeepCaps(presets.deepcaps_small())


class TestRecordedDependencies:
    """Every zoo model's stage table ``(layer, tag, fields)``.

    ``fields`` are the config fields a stage consumes, which the prefix
    cache fingerprints; a missing one would let the cache serve a stale
    boundary.  The tables below are a literal copy of the dependencies
    the models declared by hand before the fields were recorded from the
    hooks each step calls.
    """

    SHALLOW = [
        ("L1", "", ("qw",)),
        ("L1", "act", ("qa",)),
        ("L2", "", ("qw",)),
        ("L2", "act", ("qa",)),
        ("L3", "", ("qw", "qa", "qdr")),
    ]
    DEEP = [
        ("L1", "", ("qw",)),
        ("L1", "act", ("qa",)),
        ("B2", "", ("qw",)),
        ("B2", "act", ("qa",)),
        ("B3", "", ("qw",)),
        ("B3", "act", ("qa",)),
        ("B4", "", ("qw",)),
        ("B4", "act", ("qa",)),
        ("B5", "", ("qw", "qa", "qdr")),
        ("B5", "act", ("qa",)),
        ("L6", "", ("qw", "qa", "qdr")),
    ]
    LENET = [
        ("L1", "", ("qw",)),
        ("L1", "act", ("qa",)),
        ("L2", "", ("qw",)),
        ("L2", "act", ("qa",)),
        ("L3", "", ("qw",)),
        ("L3", "act", ("qa",)),
        ("L4", "", ("qw",)),
        ("L4", "act", ("qa",)),
        ("L5", "", ("qw",)),
        ("L5", "act", ("qa",)),
    ]

    @pytest.mark.parametrize("name, dataset, table", [
        ("lenet5", "digits", "LENET"),
        ("shallow-small", "digits", "SHALLOW"),
        ("shallow-tiny", "digits", "SHALLOW"),
        ("shallow-paper", "digits", "SHALLOW"),
        ("deep-small", "digits", "DEEP"),
        ("deep-paper", "cifar", "DEEP"),
    ])
    def test_zoo_stage_table(self, name, dataset, table):
        from repro.api.session import build_model
        from repro.baselines import LeNet5

        model = LeNet5() if name == "lenet5" else build_model(name, dataset)
        stages = [
            (stage.layer, stage.tag, tuple(stage.fields))
            for stage in model.stages()
        ]
        assert stages == getattr(self, table)
