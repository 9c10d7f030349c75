"""Integer inference backend vs the float fixed-point path.

The contract of :mod:`repro.backend`:

* backend selection is plumbed through every entry point (``bind``,
  ``Session.serve``/``predict``, the registry, the CLI tenant syntax)
  and unknown selectors fail loudly;
* the int backend executes the certified lowering plan with every op
  result on integer storage between input quantization and the final
  argmax — floats exist only inside the audited carrier GEMMs, exact by
  the bound the plan records — checked by the dtype tracer over every
  sealed plan op of every model family; plans saved without carriers
  run on int64 and give the same labels;
* inputs outside the plan's certified input domain (or non-finite) are
  refused, never silently quantized;
* the int backend runs the models' shared walk (``steps()``) against
  the plan op by op: a plan missing an op or carrying an extra one is
  refused, and a model type without a walk is named at certify, lower
  and bind;
* correctness: LeNet-5 plans contain only exact ops, so int-backend
  labels are bit-identical to the float path for every sample and
  every rounding scheme.  Capsule plans contain certified
  *approximation* ops (LUT softmax, iterated squash) whose outputs are
  proven close to — not identical to — the float path's true
  squash/softmax, so labels can legitimately differ on near-tie
  samples; the tests assert exact agreement on every sample whose
  float-path capsule margin exceeds the compounded approximation
  bounds, plus an overall agreement floor;
* the int backend is hard-gated on certified PASS + lowerable at all
  three entry points (bind / registry / CLI), naming the missing gate;
* softmax LUT ROMs are built once at bind time and reused across
  predicts (the per-forward-rebuild regression).
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.qlower import LoweringError, lower_model
from repro.analysis.qprove import CertificationError, certify_model
from repro.api import QuantSpec
from repro.api.artifact import ArtifactError, ModelArtifact
from repro.api.session import ServingModel, Session
from repro.autograd import Tensor, no_grad
from repro.backend import (
    BACKENDS,
    FloatBackend,
    IntBackend,
    resolve_backend,
)
from repro.baselines import LeNet5
from repro.capsnet import DeepCaps, ShallowCaps, presets
from repro.cli import main, parse_tenant_spec
from repro.data import synth_digits
from repro.nn import Adam, Trainer
from repro.quant import (
    QuantizationConfig,
    QuantizedCapsNet,
    get_rounding_scheme,
)
from repro.serve.registry import ModelRegistry

SCHEMES = ("TRN", "RTN", "RTNE", "SR")

#: Margin gates: a sample counts as "decided" when the float path's
#: top1-top2 capsule-norm gap exceeds the compounded certified
#: approximation error (measured worst flip margins: shallow 0.093,
#: deep 0.041 — gates sit comfortably above both).
SHALLOW_MARGIN = 0.125
DEEP_MARGIN = 0.09


def snap(images):
    """Pre-snap inputs to the 2^-8 input grid so the float path's grid
    rounding and the int path's quantize-input agree exactly."""
    scaled = np.rint(np.asarray(images, np.float64) * 256.0) / 256.0
    return scaled.astype(np.float32)


def make_raw(model, scheme, seed=0):
    """Artifact with neither certificate nor lowering plan."""
    config = QuantizationConfig.uniform(
        model.quant_layers, qw=6, qa=6, qdr=8
    )
    quantized = QuantizedCapsNet(
        model, config, get_rounding_scheme(scheme, seed=seed), seed=seed
    )
    return ModelArtifact.from_quantized(quantized)


def make_ready(model, scheme, seed=0):
    """Certified PASS + lowerable artifact (int-backend eligible)."""
    artifact = make_raw(model, scheme, seed=seed)
    artifact.certify(model=model)
    artifact.lower(model=model)
    return artifact


def float_margins(artifact, model, images):
    """Float-path top1-top2 capsule-norm margins per sample."""
    bound = artifact.bind(model)
    model.eval()
    with no_grad():
        caps = model.forward(Tensor(images), q=bound.context()).data
    norms = np.sqrt((caps * caps).sum(axis=-1))
    ordered = np.sort(norms, axis=-1)
    return ordered[:, -1] - ordered[:, -2]


# ----------------------------------------------------------------------
# Model / artifact fixtures (artifacts cached per module: certify +
# lower once per scheme, reused by every test below)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shallow_images(tiny_data):
    _, test = tiny_data
    return snap(test.images[:48])


@pytest.fixture(scope="module")
def shallow_ready(trained_tiny):
    return {s: make_ready(trained_tiny, s) for s in SCHEMES}


@pytest.fixture(scope="module")
def lenet_model():
    return LeNet5(seed=0)


@pytest.fixture(scope="module")
def lenet_ready(lenet_model):
    return {s: make_ready(lenet_model, s) for s in SCHEMES}


@pytest.fixture(scope="module")
def lenet_images():
    gen = np.random.default_rng(2024)
    return snap(gen.random((16, 1, 28, 28), dtype=np.float32))


@pytest.fixture(scope="module")
def deep_rtn(deep_setup):
    return make_ready(deep_setup[0], "RTN")


def zoo(request, family):
    """(model, RTN int-ready artifact, images) of one model family."""
    fixture = request.getfixturevalue
    if family == "lenet":
        return (
            fixture("lenet_model"), fixture("lenet_ready")["RTN"],
            fixture("lenet_images"),
        )
    if family == "shallow":
        return (
            fixture("trained_tiny"), fixture("shallow_ready")["RTN"],
            fixture("shallow_images"),
        )
    model, images = fixture("deep_setup")
    return model, fixture("deep_rtn"), images


def copy_plan(artifact):
    """A copy of ``artifact`` with its own copy of the lowering plan."""
    doctored = copy.copy(artifact)
    doctored.lowering_plan = copy.deepcopy(artifact.lowering_plan)
    return doctored


def strip_carriers(artifact):
    """A copy of ``artifact`` whose plan predates carriers."""
    legacy = copy_plan(artifact)
    for layer in legacy.lowering_plan["layers"]:
        for op in layer["ops"]:
            op.pop("carrier", None)
    return legacy


@pytest.fixture(scope="module")
def deep_setup():
    train, test = synth_digits(
        train_size=600, test_size=64, image_size=28, seed=5
    )
    model = DeepCaps(presets.deepcaps_small(input_size=28))
    Trainer(model, Adam(model.parameters(), lr=0.003)).fit(
        train.images, train.labels, epochs=3, batch_size=64
    )
    return model, snap(test.images[:32])


# ----------------------------------------------------------------------
# Correctness: int backend vs the float fixed-point path, zoo x schemes
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lenet_is_bit_identical(
        self, scheme, lenet_model, lenet_ready, lenet_images
    ):
        """A plain CNN plan has no approximation ops: every op is an
        exact shift schedule, so int labels match bit for bit."""
        artifact = lenet_ready[scheme]
        float_labels = artifact.bind(lenet_model).predict(lenet_images)
        int_labels = artifact.bind(
            lenet_model, backend="int"
        ).predict(lenet_images)
        assert np.array_equal(int_labels, float_labels)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_shallowcaps_matches_above_approximation_margin(
        self, scheme, trained_tiny, shallow_ready, shallow_images
    ):
        artifact = shallow_ready[scheme]
        float_labels = artifact.bind(trained_tiny).predict(shallow_images)
        int_labels = artifact.bind(
            trained_tiny, backend="int"
        ).predict(shallow_images)
        margins = float_margins(artifact, trained_tiny, shallow_images)
        decided = margins > SHALLOW_MARGIN
        assert decided.any()  # the gate must not silently void the test
        assert np.array_equal(
            int_labels[decided], float_labels[decided]
        ), f"disagreement on decided samples (margins {margins[decided]})"
        agreement = float((int_labels == float_labels).mean())
        assert agreement >= 0.9, agreement

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_deepcaps_matches_above_approximation_margin(
        self, scheme, deep_setup
    ):
        model, images = deep_setup
        artifact = make_ready(model, scheme)
        float_labels = artifact.bind(model).predict(images)
        int_labels = artifact.bind(model, backend="int").predict(images)
        margins = float_margins(artifact, model, images)
        decided = margins > DEEP_MARGIN
        assert decided.any()
        assert np.array_equal(
            int_labels[decided], float_labels[decided]
        ), f"disagreement on decided samples (margins {margins[decided]})"
        agreement = float((int_labels == float_labels).mean())
        assert agreement >= 0.6, agreement

    def test_predict_is_deterministic_across_calls(
        self, trained_tiny, shallow_ready, shallow_images
    ):
        backend = shallow_ready["SR"].bind(trained_tiny, backend="int")
        first = backend.predict(shallow_images)
        second = backend.predict(shallow_images)
        assert np.array_equal(first, second)

    def test_batching_is_invisible(
        self, trained_tiny, shallow_ready, shallow_images
    ):
        backend = shallow_ready["RTN"].bind(trained_tiny, backend="int")
        whole = backend.predict(shallow_images)
        batched = backend.predict(shallow_images, batch_size=7)
        assert np.array_equal(whole, batched)

    def test_coarse_routing_config_executes(
        self, trained_tiny, shallow_images
    ):
        """Search outcomes quantize routing down to qdr=3, which turns
        coupling rescales into *left* shifts and gives each unrolled
        routing iteration its own rescale parameters — the walker must
        execute that plan too (labels there are only bound-accurate,
        so this asserts execution, determinism and integer purity)."""
        config = QuantizationConfig.uniform(
            trained_tiny.quant_layers, qw=7, qa=4, qdr=3
        )
        quantized = QuantizedCapsNet(
            trained_tiny, config, get_rounding_scheme("RTN", seed=0),
            seed=0,
        )
        artifact = ModelArtifact.from_quantized(quantized)
        artifact.certify(model=trained_tiny)
        artifact.lower(model=trained_tiny)
        assert artifact.lowerable, artifact.summary()
        backend = artifact.bind(trained_tiny, backend="int")
        trace = []
        labels = backend.predict(shallow_images, trace=trace)
        assert len(labels) == len(shallow_images)
        assert all(
            r["dtype"].startswith(("int", "uint")) for r in trace
        )
        assert np.array_equal(labels, backend.predict(shallow_images))


# ----------------------------------------------------------------------
# The dtype tracer: no float between quantize-input and the argmax
# ----------------------------------------------------------------------
class TestIntegerPathTracer:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_sealed_op_is_integer(
        self, scheme, trained_tiny, shallow_ready, shallow_images
    ):
        backend = shallow_ready[scheme].bind(trained_tiny, backend="int")
        trace = []
        backend.predict(shallow_images[:8], trace=trace)
        assert trace
        # The walk starts at the single float->int boundary...
        assert trace[0]["op"] == "quantize-input"
        # ...and every op after it stays on integer storage.
        bad = [
            r for r in trace
            if not r["dtype"].startswith(("int", "uint"))
        ]
        assert bad == [], bad
        assert {"L1", "L2", "L3"} <= {r["layer"] for r in trace}

    @pytest.mark.parametrize("family", ["lenet", "shallow", "deep"])
    def test_trace_covers_the_whole_plan(self, family, request):
        model, artifact, images = zoo(request, family)
        backend = artifact.bind(model, backend="int")
        trace = []
        backend.predict(images[:4], trace=trace)
        assert all(
            r["dtype"].startswith(("int", "uint")) for r in trace
        )
        traced = {(r["layer"], r["op"]) for r in trace}
        planned = {
            (lp.layer, op.op)
            for lp in backend.plan.layers
            for op in lp.ops
        }
        assert traced == planned
        # Routing products are computed inside their sums, and every
        # contraction of these qw6/qa6/qdr8 plans runs on a float GEMM.
        fused = [r for r in trace if r.get("fused")]
        assert [r["op"] for r in fused] == [
            r["op"] for r in trace if r["op"] == "mul"
        ]
        assert bool(fused) == (family != "lenet")
        carriers = {r["carrier"] for r in trace if "carrier" in r}
        assert carriers and carriers <= {"float32", "float64"}

    @pytest.mark.parametrize("family", ["lenet", "shallow", "deep"])
    def test_plan_without_carriers_gives_same_labels(self, family, request):
        """An artifact lowered before carriers existed runs every
        contraction on int64 — and must agree label for label."""
        model, artifact, images = zoo(request, family)
        legacy = strip_carriers(artifact).bind(model, backend="int")
        trace = []
        labels = legacy.predict(images, trace=trace)
        assert {r["carrier"] for r in trace if "carrier" in r} == {"int64"}
        assert np.array_equal(
            labels, artifact.bind(model, backend="int").predict(images)
        )

    @pytest.mark.parametrize("pixel, match", [
        (np.nan, "non-finite"),
        (np.inf, "non-finite"),
        (1.5, "outside the certified input domain"),
        (-0.25, "outside the certified input domain"),
    ])
    def test_inputs_outside_the_certified_domain_are_refused(
        self, pixel, match, trained_tiny, shallow_ready, shallow_images
    ):
        backend = shallow_ready["RTN"].bind(trained_tiny, backend="int")
        images = shallow_images[:4].copy()
        images[2, 0, 5, 5] = pixel
        with pytest.raises(ValueError, match=match):
            backend.predict(images)
        # The domain's own edges are inside it.
        images[2, 0, 5, 5] = 1.0
        images[1, 0, 5, 5] = 0.0
        assert len(backend.predict(images)) == 4


# ----------------------------------------------------------------------
# Walk/plan consistency: the int backend runs the models' shared walk,
# consuming the plan op by op; any drift is a hard error
# ----------------------------------------------------------------------
class TestWalkConsistency:
    @pytest.mark.parametrize("family", ["lenet", "shallow", "deep"])
    def test_plan_missing_an_op_diverges(self, family, request):
        model, artifact, images = zoo(request, family)
        doctored = copy_plan(artifact)
        layer = doctored.lowering_plan["layers"][1]
        dropped = layer["ops"].pop(0)["op"]
        backend = doctored.bind(model, backend="int")
        with pytest.raises(
            ArtifactError, match="diverged from the lowering plan"
        ) as info:
            backend.predict(images[:2])
        assert f"layer {layer['layer']!r}: expected op {dropped!r}" in str(
            info.value
        )

    @pytest.mark.parametrize("family", ["lenet", "shallow", "deep"])
    def test_plan_with_an_extra_op_is_left_unexecuted(self, family, request):
        model, artifact, images = zoo(request, family)
        doctored = copy_plan(artifact)
        layer = doctored.lowering_plan["layers"][-1]
        layer["ops"].append(copy.deepcopy(layer["ops"][-1]))
        backend = doctored.bind(model, backend="int")
        with pytest.raises(ArtifactError, match="unexecuted plan ops") as info:
            backend.predict(images[:2])
        assert f"1 unexecuted plan ops in layer {layer['layer']!r}" in str(
            info.value
        )

    def test_model_without_a_walker_is_named_everywhere(
        self, lenet_model, lenet_ready
    ):
        class Mystery:
            quant_layers = lenet_model.quant_layers

        message = (
            "no model walker for model type Mystery; "
            "supported: ShallowCaps, DeepCaps, LeNet5"
        )
        artifact = lenet_ready["RTN"]
        with pytest.raises(CertificationError, match=message):
            certify_model(Mystery(), artifact.config, "RTN")
        with pytest.raises(LoweringError, match=message):
            lower_model(Mystery(), artifact.config, "RTN")
        quantized = artifact.bind(lenet_model).quantized
        with pytest.raises(ArtifactError, match=message):
            IntBackend(artifact, Mystery(), quantized)
        with pytest.raises(ArtifactError, match=message):
            artifact.bind(Mystery(), backend="int")

    def test_zero_routing_iterations_are_refused_by_every_interpreter(self):
        """The iteration check lives in the one routing walk, so the
        stage recorder, the float forward, the certifier and the
        lowering analyzer all raise the same error."""
        match = "routing needs at least 1 iteration, got 0"
        with pytest.raises(ValueError, match=match):
            ShallowCaps(replace(
                presets.shallowcaps_tiny(), routing_iterations=0
            ))
        model = ShallowCaps(presets.shallowcaps_tiny())
        model.digit.routing_iterations = 0
        config = QuantizationConfig.uniform(
            model.quant_layers, qw=6, qa=6, qdr=8
        )
        images = np.zeros((1, 1, 14, 14), dtype=np.float32)
        with pytest.raises(ValueError, match=match):
            model(Tensor(images))
        with pytest.raises(ValueError, match=match):
            certify_model(model, config, "RTN")
        with pytest.raises(ValueError, match=match):
            lower_model(model, config, "RTN")


# ----------------------------------------------------------------------
# LUT caching: softmax ROMs built at bind, reused across predicts
# ----------------------------------------------------------------------
class TestLutCache:
    def test_tables_are_built_once_and_reused(
        self, trained_tiny, shallow_ready, shallow_images
    ):
        backend = shallow_ready["RTN"].bind(trained_tiny, backend="int")
        assert backend.lut_tables  # routing softmax needs at least one
        cached_ids = {id(t) for t in backend.lut_tables.values()}
        first, second = [], []
        backend.predict(shallow_images[:4], trace=first)
        backend.predict(shallow_images[:4], trace=second)
        used_first = {r["table_id"] for r in first if "table_id" in r}
        used_second = {r["table_id"] for r in second if "table_id" in r}
        assert used_first  # softmax executed and reported its table
        # Both predicts dispatched on the very table objects built at
        # bind time — nothing was rebuilt per forward.
        assert used_first == used_second
        assert used_first <= cached_ids


# ----------------------------------------------------------------------
# Gates: certified PASS + lowerable, enforced at bind / registry / CLI
# ----------------------------------------------------------------------
class TestIntGates:
    def test_bind_refuses_uncertified(self, trained_tiny):
        artifact = make_raw(trained_tiny, "RTN")
        with pytest.raises(ArtifactError, match="no certificate"):
            artifact.bind(trained_tiny, backend="int")

    def test_bind_refuses_failed_certificate(self, trained_tiny):
        artifact = make_raw(trained_tiny, "RTN")
        artifact.certify(model=trained_tiny, accumulator_bits=8)
        assert not artifact.certified
        with pytest.raises(ArtifactError, match="FAILED certificate"):
            artifact.bind(trained_tiny, backend="int")

    def test_bind_refuses_unlowered(self, trained_tiny):
        artifact = make_raw(trained_tiny, "RTN")
        artifact.certify(model=trained_tiny)
        with pytest.raises(ArtifactError, match="no lowering plan"):
            artifact.bind(trained_tiny, backend="int")

    def test_bind_names_the_blocking_rule(self, trained_tiny):
        artifact = make_raw(trained_tiny, "RTN")
        artifact.certify(model=trained_tiny)
        layer = trained_tiny.quant_layers[0]
        artifact.act_scales[f"a:{layer}"] = 1.5  # not a power of two
        artifact.lower(model=trained_tiny)
        assert not artifact.lowerable
        with pytest.raises(ArtifactError, match="QL041"):
            artifact.bind(trained_tiny, backend="int")

    def test_registry_gates_int_tenants_at_register(self, trained_tiny):
        registry = ModelRegistry()
        artifact = make_raw(trained_tiny, "RTN")
        with pytest.raises(ArtifactError, match="certified artifact"):
            registry.register(
                "t", artifact=artifact, model=trained_tiny, backend="int"
            )
        assert "t" not in registry  # nothing half-registered

    def test_cli_serve_gates_int_tenants(self, trained_tiny, tmp_path):
        path = tmp_path / "uncertified.qcn.npz"
        artifact = make_raw(trained_tiny, "RTN")
        # Spec provenance so the tenant is servable in principle — the
        # int gate must be what refuses it.
        artifact.spec = QuantSpec(
            model="shallow-tiny", dataset="digits", schemes=("RTN",),
            test_size=48, seed=1, batch_size=48,
        ).to_dict()
        artifact.save(path)
        with pytest.raises(SystemExit, match="certified artifact"):
            main(["serve", "--artifact", f"t={path}@int", "--port", "0"])

    def test_float_backend_stays_ungated(self, trained_tiny, shallow_images):
        artifact = make_raw(trained_tiny, "RTN")
        labels = artifact.bind(trained_tiny).predict(shallow_images[:4])
        assert len(labels) == 4

    def test_summary_reports_eligibility(self, trained_tiny, shallow_ready):
        ready = shallow_ready["RTN"].summary()
        assert "int-backend ready: certified PASS + lowerable" in ready
        blocked = make_raw(trained_tiny, "RTN").summary()
        assert "int-backend blocked" in blocked
        assert "no certificate" in blocked


# ----------------------------------------------------------------------
# Selection plumbing: bind / Session / ServingModel / registry / CLI
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_resolve_backend(self):
        assert resolve_backend(None) == "float"
        assert resolve_backend("float") == "float"
        assert resolve_backend("int") == "int"
        with pytest.raises(ValueError, match="unknown backend 'tpu'"):
            resolve_backend("tpu")
        assert BACKENDS == ("float", "int")

    def test_bind_returns_the_selected_backend(
        self, trained_tiny, shallow_ready
    ):
        artifact = shallow_ready["RTN"]
        assert isinstance(artifact.bind(trained_tiny), FloatBackend)
        assert isinstance(
            artifact.bind(trained_tiny, backend="int"), IntBackend
        )
        # Legacy callers still reach the quantized model's surface.
        assert artifact.bind(trained_tiny).context() is not None

    def test_serving_model_wraps_either(self, trained_tiny, shallow_ready):
        artifact = shallow_ready["RTN"]
        float_serving = ServingModel(artifact.bind(trained_tiny))
        int_serving = ServingModel(
            artifact.bind(trained_tiny, backend="int")
        )
        assert float_serving.backend_name == "float"
        assert int_serving.backend_name == "int"
        # A bare QuantizedCapsNet still wraps (pre-backend callers).
        quantized = QuantizedCapsNet(
            trained_tiny,
            QuantizationConfig.uniform(
                trained_tiny.quant_layers, qw=6, qa=6, qdr=8
            ),
            get_rounding_scheme("RTN", seed=0),
            seed=0,
        )
        legacy = ServingModel(quantized)
        assert legacy.backend_name == "float"
        assert legacy.quantized is quantized

    def test_session_serve_and_predict_take_backend(
        self, trained_tiny, tiny_data, shallow_ready, shallow_images
    ):
        _, test = tiny_data
        session = Session(
            QuantSpec(
                model="shallow-tiny", dataset="digits",
                schemes=("RTN",), test_size=48, seed=1, batch_size=48,
            ),
            model=trained_tiny,
            test_data=(shallow_images, test.labels[:48]),
        )
        artifact = shallow_ready["RTN"]
        served = session.serve(artifact, backend="int")
        assert served.backend_name == "int"
        expected = artifact.bind(
            trained_tiny, backend="int"
        ).predict(shallow_images)
        assert np.array_equal(served.predict(shallow_images), expected)
        assert np.array_equal(
            session.predict(artifact, images=shallow_images,
                            backend="int"),
            expected,
        )

    def test_registry_tracks_per_tenant_backends(
        self, trained_tiny, shallow_ready, shallow_images
    ):
        artifact = shallow_ready["RTN"]
        registry = ModelRegistry()
        registry.register("f", artifact=artifact, model=trained_tiny)
        registry.register(
            "i", artifact=artifact, model=trained_tiny, backend="int"
        )
        rows = {row["name"]: row for row in registry.describe()}
        assert rows["f"]["backend"] == "float"
        assert rows["i"]["backend"] == "int"
        assert registry.stats()["backends"] == {"f": "float", "i": "int"}
        assert registry.get("i").backend_name == "int"
        expected = artifact.bind(
            trained_tiny, backend="int"
        ).predict(shallow_images)
        assert np.array_equal(
            registry.get("i").predict(shallow_images), expected
        )

    def test_registry_default_backend(self, trained_tiny, shallow_ready):
        registry = ModelRegistry(backend="int")
        entry = registry.register(
            "t", artifact=shallow_ready["RTN"], model=trained_tiny
        )
        assert entry.backend == "int"

    def test_parse_tenant_spec(self):
        assert parse_tenant_spec("m=path.npz@int") == (
            "m", "path.npz", "int"
        )
        assert parse_tenant_spec("m=path.npz@float") == (
            "m", "path.npz", "float"
        )
        assert parse_tenant_spec("m=path.npz") == ("m", "path.npz", None)
        assert parse_tenant_spec("dir/model.qcn.npz") == (
            "model", "dir/model.qcn.npz", None
        )
        with pytest.raises(SystemExit, match="unknown backend 'tpu'"):
            parse_tenant_spec("m=path.npz@tpu")
