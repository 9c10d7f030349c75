"""qlower integer-lowering plans vs the float fixed-point oracle.

The central soundness property: for every artifact the analyzer calls
LOWERABLE, replaying the certified shift schedules with pure integer
shift-and-round must match the float fixed-point path **bit for bit**,
and every LUT/iterative approximation's empirical error must stay
within its proven bound — across the model zoo and all four rounding
schemes.  The satellites: non-power-of-two scales block with QL041
naming the op and the offending ratio, float-tainted parameters block
with QL040, failed certificates block with QL043, plans survive
dict/save-load round-trips, and the ``lower`` CLI verb gates on the
verdict.
"""

import json

import pytest

from repro.analysis import (
    LoweringError,
    LoweringPlan,
    lower_artifact,
    lower_model,
    replay_plan,
)
from repro.api import QuantSpec
from repro.api.artifact import ModelArtifact
from repro.api.session import Session, build_model
from repro.baselines import LeNet5
from repro.quant import (
    QuantizationConfig,
    QuantizedCapsNet,
    get_rounding_scheme,
)

SCHEMES = ("TRN", "RTN", "RTNE", "SR")


@pytest.fixture(scope="module")
def deep_model():
    return build_model("deep-small", "digits", seed=0)


@pytest.fixture(scope="module")
def lenet_model():
    return LeNet5(seed=0)


def make_artifact(model, scheme_name, seed=0, qw=6, qa=6, qdr=8):
    config = QuantizationConfig.uniform(
        model.quant_layers, qw=qw, qa=qa, qdr=qdr
    )
    quantized = QuantizedCapsNet(
        model, config, get_rounding_scheme(scheme_name, seed=seed), seed=seed
    )
    return ModelArtifact.from_quantized(quantized)


# ----------------------------------------------------------------------
# The soundness property: zoo × schemes lower, and the replay oracle
# confirms bit-identity / bounded approximation error
# ----------------------------------------------------------------------
class TestLowerAndReplay:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("model_key", ["shallow", "deep", "lenet"])
    def test_zoo_lowers_and_replays_bit_identically(
        self, model_key, scheme, trained_tiny, deep_model, lenet_model
    ):
        model = {
            "shallow": trained_tiny,
            "deep": deep_model,
            "lenet": lenet_model,
        }[model_key]
        artifact = make_artifact(model, scheme, seed=7)
        plan = lower_artifact(artifact, model=model)
        assert plan.lowerable, plan.report()
        assert plan.scheme == scheme

        violations, stats = replay_plan(plan, seed=11, samples=96)
        assert violations == [], violations
        assert stats["rescale_ops"] > 0
        if model_key != "lenet":  # the plain CNN has no special functions
            assert stats["approx_ops"]  # squash/softmax were planned
        for entry in stats["approx_ops"]:
            assert entry["max_err"] <= entry["bound"]

    @pytest.mark.parametrize("model_key", ["shallow", "deep", "lenet"])
    def test_zoo_contractions_get_float_carriers(
        self, model_key, trained_tiny, deep_model, lenet_model
    ):
        """At qw6/qa6/qdr8 every conv/linear MAC and every routing sum
        records a float GEMM carrier, so the int backend runs its BLAS
        path; plans saved before carriers existed read back as int64."""
        model = {
            "shallow": trained_tiny,
            "deep": deep_model,
            "lenet": lenet_model,
        }[model_key]
        plan = lower_artifact(make_artifact(model, "RTN"), model=model)
        contractions = [
            op for layer in plan.layers for op in layer.ops
            if op.op in ("conv", "linear", "sum")
        ]
        assert contractions
        assert {op.carrier for op in contractions} <= {"float32", "float64"}
        assert "carriers: " in plan.report()
        doc = json.loads(json.dumps(plan.to_dict()))
        assert LoweringPlan.from_dict(doc) == plan
        for layer in doc["layers"]:
            for op in layer["ops"]:
                op.pop("carrier", None)
        legacy = LoweringPlan.from_dict(doc)
        assert all(
            op.carrier is None for layer in legacy.layers for op in layer.ops
        )
        assert " int64" in legacy.report()

    def test_every_config_layer_is_planned(self, trained_tiny):
        artifact = make_artifact(trained_tiny, "RTN")
        plan = lower_artifact(artifact, model=trained_tiny)
        planned = {layer.layer for layer in plan.layers}
        assert set(trained_tiny.quant_layers) <= planned
        assert "<input>" in planned  # the grid-rounding pseudo-layer

    def test_certified_widths_are_imported(self, trained_tiny):
        artifact = make_artifact(trained_tiny, "RTN")
        artifact.certify(model=trained_tiny)
        from repro.analysis import Certificate

        certificate = Certificate.from_dict(artifact.certificate)
        plan = lower_artifact(artifact, model=trained_tiny)
        for cert_layer in certificate.layers:
            assert (
                plan.layer(cert_layer.layer).min_safe_bits
                == cert_layer.min_safe_bits
            )


# ----------------------------------------------------------------------
# Blocking verdicts: QL040 taint, QL041 ratios, QL043 certificates
# ----------------------------------------------------------------------
class TestBlocking:
    def test_non_pow2_scale_blocks_naming_op_and_ratio(self, trained_tiny):
        artifact = make_artifact(trained_tiny, "RTN")
        layer = trained_tiny.quant_layers[0]
        # Calibrated activation scale that is deliberately not a power
        # of two: no exact shift rescale can exist for this hook.
        artifact.act_scales[f"a:{layer}"] = 1.5
        plan = lower_artifact(artifact, model=trained_tiny)
        assert not plan.lowerable
        ql041 = [f for f in plan.findings if f.rule == "QL041"]
        assert ql041, plan.report()
        hit = next(f for f in ql041 if f.path.startswith(layer))
        assert "1.5" in hit.message
        assert "not a power of two" in hit.message
        assert "BLOCKED" in plan.report()

    def test_missing_weight_codes_taint_with_ql040(self, trained_tiny):
        config = QuantizationConfig.uniform(
            trained_tiny.quant_layers, qw=6, qa=6, qdr=8
        )
        plan = lower_model(
            trained_tiny, config, "RTN", weight_values=None,
            weight_formats={},
        )
        assert not plan.lowerable
        assert any(f.rule == "QL040" for f in plan.findings)
        assert "float" in plan.kind_counts()

    def test_failed_certificate_blocks_with_ql043(self, deep_model):
        artifact = make_artifact(deep_model, "RTN")
        plan = lower_artifact(
            artifact, model=deep_model, accumulator_bits=12
        )
        assert not plan.lowerable
        ql043 = [f for f in plan.findings if f.rule == "QL043"]
        assert ql043
        assert any("certificate" in f.path for f in ql043)

    def test_artifact_without_spec_or_model_is_an_error(self, trained_tiny):
        artifact = make_artifact(trained_tiny, "RTN")
        artifact.spec = None
        with pytest.raises(LoweringError, match="spec provenance"):
            lower_artifact(artifact)


# ----------------------------------------------------------------------
# Persistence: dict round-trips, artifact embedding, export(lower=True)
# ----------------------------------------------------------------------
class TestPersistence:
    def test_plan_dict_roundtrip_is_lossless(self, trained_tiny):
        artifact = make_artifact(trained_tiny, "SR", seed=3)
        plan = lower_artifact(artifact, model=trained_tiny)
        clone = LoweringPlan.from_dict(
            json.loads(json.dumps(plan.to_dict()))
        )
        assert clone.lowerable == plan.lowerable
        assert clone.report() == plan.report()
        assert clone.to_dict() == plan.to_dict()

    def test_replay_accepts_a_deserialized_plan(self, trained_tiny):
        artifact = make_artifact(trained_tiny, "TRN")
        plan = LoweringPlan.from_dict(
            lower_artifact(artifact, model=trained_tiny).to_dict()
        )
        violations, _ = replay_plan(plan, samples=64)
        assert violations == []

    def test_artifact_embeds_and_persists_plan(self, trained_tiny, tmp_path):
        artifact = make_artifact(trained_tiny, "RTN")
        assert artifact.lowering_plan is None and not artifact.lowerable
        artifact.lower(model=trained_tiny)
        assert artifact.lowerable
        assert "lowering plan: LOWERABLE" in artifact.summary()

        path = tmp_path / "m.qcn.npz"
        artifact.save(path)
        loaded = ModelArtifact.load(path)
        assert loaded.lowerable
        assert loaded.lowering_plan == artifact.lowering_plan

    def test_blocked_summary_names_the_rule(self, trained_tiny):
        artifact = make_artifact(trained_tiny, "RTN")
        artifact.act_scales[f"a:{trained_tiny.quant_layers[0]}"] = 1.5
        artifact.lower(model=trained_tiny)
        assert not artifact.lowerable
        summary = artifact.summary()
        assert "lowering plan: BLOCKED" in summary
        assert "QL041" in summary

    def test_export_lower_embeds_a_plan(self, trained_tiny, tiny_data):
        _, test = tiny_data
        session = Session(
            QuantSpec(
                model="shallow-tiny", dataset="digits",
                schemes=("RTN",), test_size=64, seed=1, batch_size=64,
            ),
            model=trained_tiny,
            test_data=(test.images[:64], test.labels[:64]),
        )
        result = session.quantize()
        artifact = session.export(result, lower=True)
        assert artifact.certified
        assert artifact.lowering_plan is not None
        assert artifact.lowerable, artifact.summary()


# ----------------------------------------------------------------------
# CLI verb
# ----------------------------------------------------------------------
class TestLowerCli:
    @pytest.fixture()
    def artifact_path(self, trained_tiny, tmp_path):
        artifact = make_artifact(trained_tiny, "RTN")
        artifact.spec = QuantSpec(
            model="shallow-tiny", dataset="digits"
        ).to_dict()
        path = tmp_path / "artifact.npz"
        artifact.save(path)
        return path

    def test_lower_exit_zero_writes_and_embeds(
        self, artifact_path, capsys, tmp_path
    ):
        from repro.cli import main

        out_json = tmp_path / "plan.json"
        assert main([
            "lower", "--artifact", str(artifact_path),
            "--out", str(out_json), "--update",
        ]) == 0
        out = capsys.readouterr().out
        assert "qlower plan: LOWERABLE" in out
        payload = json.loads(out_json.read_text())
        assert payload["lowerable"] is True
        assert ModelArtifact.load(artifact_path).lowerable

    def test_lower_blocked_exit_one_names_op_and_ratio(
        self, trained_tiny, tmp_path, capsys
    ):
        from repro.cli import main

        artifact = make_artifact(trained_tiny, "RTN")
        artifact.spec = QuantSpec(
            model="shallow-tiny", dataset="digits"
        ).to_dict()
        layer = trained_tiny.quant_layers[0]
        artifact.act_scales[f"a:{layer}"] = 1.5
        path = tmp_path / "blocked.npz"
        artifact.save(path)

        assert main(["lower", "--artifact", str(path)]) == 1
        out = capsys.readouterr().out
        assert "qlower plan: BLOCKED" in out
        assert "QL041" in out and layer in out
        assert "1.5" in out

    def test_lower_json_output(self, artifact_path, capsys):
        from repro.cli import main

        assert main([
            "lower", "--artifact", str(artifact_path), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lowerable"] is True
        assert payload["scheme"] == "RTN"
