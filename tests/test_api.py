"""Tests for the unified session API (repro.api).

Covers the acceptance criteria of the api_redesign issue:

* ``QuantSpec``/``ModelArtifact`` JSON round-trips are lossless;
* save → load → ``predict`` is bit-identical to the in-memory quantized
  model for all four rounding schemes, and unknown format versions fail
  with a clear error;
* one ``Session`` reuses one ``StagedExecutor`` across ``quantize()`` +
  ``select()`` + ``sweep()`` (cross-call cache hits asserted);
* the low-level ``QCapsNets.build(...)`` surface returns exactly what
  the session does.
"""

import json
import warnings

import numpy as np
import pytest

from repro.api import (
    ARTIFACT_VERSION,
    ArtifactError,
    ModelArtifact,
    QuantSpec,
    ServingModel,
    Session,
    SpecError,
)
from repro.engine import ForkPool
from repro.framework import QCapsNets, QCapsNetsResult
from repro.quant import (
    QuantizationConfig,
    QuantizedCapsNet,
    calibrate_scales,
    get_rounding_scheme,
)

ALL_SCHEMES = ("TRN", "RTN", "RTNE", "SR")


@pytest.fixture()
def tiny_spec():
    return QuantSpec(
        model="shallow-tiny",
        dataset="digits",
        schemes=("RTN", "TRN"),
        tolerance=0.1,
        budget_divisor=4.0,
        test_size=128,
        seed=1,
        batch_size=64,
    )


@pytest.fixture()
def session(tiny_spec, trained_tiny, tiny_data):
    _, test = tiny_data
    return Session(
        tiny_spec,
        model=trained_tiny,
        test_data=(test.images[:128], test.labels[:128]),
    )


class TestQuantSpec:
    def test_json_round_trip_is_lossless(self):
        spec = QuantSpec(
            model="deep-small", dataset="cifar", weights="w.npz",
            schemes=("SR", "TRN"), tolerance=0.002, budget_mbit=0.75,
            budgets_mbit=(0.5, 1.0), workers=3, cache_bytes=1 << 20,
            seed=7, batch_size=32, test_size=64, train_size=128,
            q_init=16, min_bits=1,
        )
        assert QuantSpec.from_json(spec.to_json()) == spec
        assert QuantSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_file_round_trip(self, tmp_path):
        spec = QuantSpec(model="shallow-tiny", seed=3)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert QuantSpec.load(path) == spec

    @pytest.mark.parametrize("overrides, match", [
        (dict(model="resnet"), "unknown model"),
        (dict(dataset="imagenet"), "unknown dataset"),
        (dict(schemes=("RTN", "RTN")), "duplicate"),
        (dict(schemes=("FOO",)), "unknown rounding scheme"),
        (dict(schemes=()), "must not be empty"),
        (dict(tolerance=-0.1), "tolerance"),
        (dict(budget_mbit=0.0), "budget_mbit"),
        (dict(budget_divisor=0.0), "budget_divisor"),
        (dict(workers=0), "workers"),
        (dict(cache_bytes=0), "cache_bytes"),
        (dict(batch_size=0), "batch_size"),
        (dict(model="shallow-tiny", dataset="cifar"), "grayscale"),
        (dict(workers=2.5), "workers must be an integer"),
        (dict(workers=True), "workers must be an integer"),
        (dict(cache_bytes=1024.0), "cache_bytes must be an integer"),
        (dict(seed=1.5), "seed must be an integer"),
        (dict(batch_size=32.0), "batch_size must be an integer"),
        (dict(test_size=False), "test_size must be an integer"),
        (dict(train_size=100.0), "train_size must be an integer"),
        (dict(q_init=8.0), "q_init must be an integer"),
        (dict(min_bits=True), "min_bits must be an integer"),
    ])
    def test_validation_messages(self, overrides, match):
        with pytest.raises(SpecError, match=match):
            QuantSpec(**overrides)

    def test_from_dict_rejects_float_integer_fields(self):
        with pytest.raises(SpecError, match="batch_size must be an integer"):
            QuantSpec.from_dict({"model": "shallow-tiny", "batch_size": 32.0})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            QuantSpec.from_dict({"tollerance": 0.1})

    def test_with_overrides_validates(self):
        spec = QuantSpec()
        assert spec.with_overrides(seed=5).seed == 5
        with pytest.raises(SpecError, match="unknown spec field"):
            spec.with_overrides(sedd=5)

    def test_first_scheme_is_the_default(self):
        assert QuantSpec(schemes=("TRN", "SR")).scheme == "TRN"


class TestModelArtifact:
    @pytest.fixture()
    def uniform_config(self, trained_tiny):
        return QuantizationConfig.uniform(
            list(trained_tiny.quant_layers), qw=6, qa=4
        )

    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_save_load_predict_bit_identical(
        self, tmp_path, trained_tiny, tiny_data, uniform_config, scheme_name
    ):
        """save → load → predict equals the in-memory quantized model."""
        _, test = tiny_data
        images = test.images[:96]
        scales = calibrate_scales(trained_tiny, images)
        quantized = QuantizedCapsNet(
            trained_tiny, uniform_config,
            get_rounding_scheme(scheme_name, seed=3),
            act_scales=scales, seed=3,
        )
        artifact = ModelArtifact.from_quantized(
            quantized, report={"label": "uniform", "accuracy": 0.0}
        )
        path = tmp_path / f"{scheme_name}.npz"
        artifact.save(path)
        loaded = ModelArtifact.load(path)

        reference = ServingModel(quantized, batch_size=40).predict(images)
        served = ServingModel(
            loaded.bind(trained_tiny), batch_size=40
        ).predict(images)
        assert np.array_equal(reference, served)

    def test_meta_round_trip_is_lossless(
        self, tmp_path, trained_tiny, tiny_data, uniform_config
    ):
        _, test = tiny_data
        scales = calibrate_scales(trained_tiny, test.images[:64])
        quantized = QuantizedCapsNet(
            trained_tiny, uniform_config,
            get_rounding_scheme("RTN"), act_scales=scales,
        )
        spec = QuantSpec(model="shallow-tiny", seed=1)
        artifact = ModelArtifact.from_quantized(
            quantized,
            report={"label": "uniform", "accuracy": 81.25},
            spec=spec.to_dict(),
        )
        path = tmp_path / "artifact.npz"
        artifact.save(path)
        loaded = ModelArtifact.load(path)

        assert loaded.meta_dict() == artifact.meta_dict()
        assert QuantSpec.from_dict(loaded.spec) == spec
        assert loaded.config.to_dict() == uniform_config.to_dict()
        assert loaded.weight_codes.keys() == artifact.weight_codes.keys()
        for key, (codes, fmt, scale) in artifact.weight_codes.items():
            loaded_codes, loaded_fmt, loaded_scale = loaded.weight_codes[key]
            assert np.array_equal(codes, loaded_codes)
            assert (fmt.integer_bits, fmt.fractional_bits) == (
                loaded_fmt.integer_bits, loaded_fmt.fractional_bits
            )
            assert scale == loaded_scale

    def test_unknown_format_version_fails_clearly(
        self, tmp_path, trained_tiny, tiny_data, uniform_config
    ):
        _, test = tiny_data
        quantized = QuantizedCapsNet(
            trained_tiny, uniform_config, get_rounding_scheme("TRN"),
            act_scales=calibrate_scales(trained_tiny, test.images[:64]),
        )
        path = tmp_path / "artifact.npz"
        ModelArtifact.from_quantized(quantized).save(path)

        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            arrays = {
                key: archive[key] for key in archive.files if key != "meta"
            }
        meta["version"] = ARTIFACT_VERSION + 1
        np.savez(path, meta=json.dumps(meta), **arrays)
        with pytest.raises(ArtifactError, match="format version"):
            ModelArtifact.load(path)

    def test_foreign_npz_fails_clearly(self, tmp_path, trained_tiny):
        path = tmp_path / "weights.npz"
        trained_tiny.save(path)  # a bare weights archive, not an artifact
        with pytest.raises(ArtifactError, match="not a Q-CapsNets model"):
            ModelArtifact.load(path)

    def test_missing_path_fails_clearly(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read artifact"):
            ModelArtifact.load(tmp_path / "nope.npz")

    def test_bind_rejects_mismatched_model(
        self, trained_tiny, tiny_data, uniform_config
    ):
        from repro.baselines.lenet import LeNet5

        _, test = tiny_data
        quantized = QuantizedCapsNet(
            trained_tiny, uniform_config, get_rounding_scheme("TRN"),
            act_scales=calibrate_scales(trained_tiny, test.images[:64]),
        )
        artifact = ModelArtifact.from_quantized(quantized)
        with pytest.raises(ArtifactError, match="do not match"):
            artifact.bind(LeNet5())


class TestSession:
    def test_one_executor_across_quantize_select_sweep(self, session):
        """The tentpole guarantee: one warm StagedExecutor for every verb.

        ``select()`` and ``sweep()`` must *resume* boundary activations
        cached by the earlier ``quantize()`` call instead of rebuilding
        them — asserted through the shared cache's hit counters.
        """
        result = session.quantize()
        executor = session.executor
        assert executor is not None
        hits_after_quantize = executor.cache.hits
        assert result.models()  # the search actually produced models

        outcome = session.select()
        assert session.executor is executor  # same object, not rebuilt
        hits_after_select = executor.cache.hits
        assert hits_after_select > hits_after_quantize
        # The TRN branch resumes RTN-era scheme-free (FP32) prefixes:
        # only cross-scheme reuse can explain these hits.
        assert executor.cache.cross_scheme_hits > 0
        assert outcome.per_scheme.keys() == {"RTN", "TRN"}

        points = session.sweep(budgets_mbit=[session.budget_mbit()])
        assert session.executor is executor
        assert executor.cache.hits > hits_after_select
        assert points

        stats = session.executor_stats()
        assert stats["resumes"] > 0
        assert stats["stages_skipped"] > 0

    def test_quantize_matches_deprecated_surface(self, session, trained_tiny):
        """The session path returns exactly what direct ``build`` does."""
        result = session.quantize()
        images, labels = session.test_data
        direct = QCapsNets.build(
            trained_tiny, images, labels,
            accuracy_tolerance=session.spec.tolerance,
            memory_budget_mbit=session.budget_mbit(),
            scheme="RTN",
            batch_size=session.spec.batch_size,
            seed=session.spec.seed,
        ).run()
        assert direct.path == result.path
        for name, model in result.models().items():
            assert direct.models()[name].accuracy == model.accuracy
            assert (
                direct.models()[name].config.to_dict()
                == model.config.to_dict()
            )

    def test_export_evaluate_predict(self, session, tmp_path):
        result = session.quantize()
        path = tmp_path / "artifact.npz"
        artifact = session.export(result, path=path)
        assert artifact.report["label"] == result.best_model().label
        assert artifact.accuracy == result.best_model().accuracy
        assert QuantSpec.from_dict(artifact.spec) == session.spec

        loaded = ModelArtifact.load(path)
        images, labels = session.test_data
        assert np.array_equal(
            session.serve(loaded).predict(images),
            session.predict(target=artifact),
        )
        accuracy = session.evaluate(path)
        assert accuracy == session.serve(loaded).accuracy(images, labels)
        # Exact-config evaluation through the warm evaluator agrees with
        # the search-time number.
        assert session.evaluate(result) == result.best_model().accuracy

    def test_spec_document_constructor(self, tmp_path, tiny_spec):
        path = tmp_path / "spec.json"
        tiny_spec.save(path)
        assert Session(path).spec == tiny_spec
        assert Session(tiny_spec.to_dict()).spec == tiny_spec
        with pytest.raises(SpecError, match="QuantSpec"):
            Session(42)

    def test_parallel_select_matches_sequential(
        self, tiny_spec, trained_tiny, tiny_data
    ):
        """Branch-parallel select with multi-batch evaluators.

        Regression: the session passed ``spec.workers`` into every
        branch evaluator, so a forked (daemonic) branch tried to spawn
        its own batch workers and crashed once the split spanned more
        than one batch.  Branch-level parallelism must own the pool,
        bit-identically to the sequential run.
        """
        _, test = tiny_data
        data = (test.images[:128], test.labels[:128])
        # batch_size < split size: each branch evaluates several batches.
        sequential = Session(
            tiny_spec.with_overrides(batch_size=32, workers=1),
            model=trained_tiny, test_data=data,
        ).select()
        parallel = Session(
            tiny_spec.with_overrides(batch_size=32, workers=2),
            model=trained_tiny, test_data=data,
        ).select()
        assert parallel.path == sequential.path
        assert parallel.best.accuracy == sequential.best.accuracy
        assert (
            parallel.best.config.to_dict() == sequential.best.config.to_dict()
        )
        for name, result in sequential.per_scheme.items():
            other = parallel.per_scheme[name]
            for label, model in result.models().items():
                assert other.models()[label].accuracy == model.accuracy

    def test_parallel_select_calibrates_once(
        self, monkeypatch, tmp_path, tiny_spec, trained_tiny, tiny_data
    ):
        """Forked scheme branches inherit the session's calibration
        scales and FP32 baseline instead of each measuring them; one
        line per ``calibrate_scales`` call, in whichever process."""
        from repro.api import session as session_module

        _, test = tiny_data
        data = (test.images[:128], test.labels[:128])
        calls = tmp_path / "calibrate_calls"
        calibrate = session_module.calibrate_scales

        def counted(*args, **kwargs):
            with open(calls, "a") as log:
                log.write("call\n")
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(session_module, "calibrate_scales", counted)

        def select(workers):
            calls.write_text("")
            spec = tiny_spec.with_overrides(
                schemes=("TRN", "RTN", "SR"), batch_size=32, workers=workers
            )
            outcome = Session(spec, model=trained_tiny, test_data=data).select()
            return outcome, calls.read_text().count("call")

        (sequential, one), (parallel, three) = select(1), select(3)
        assert one == 1
        assert three == 1
        assert parallel.path == sequential.path
        assert parallel.best.config.to_dict() == (
            sequential.best.config.to_dict()
        )
        for name, result in sequential.per_scheme.items():
            other = parallel.per_scheme[name]
            assert other.accuracy_fp32 == result.accuracy_fp32
            assert other.summary() == result.summary()
            for label, model in result.models().items():
                assert other.models()[label].accuracy == model.accuracy
                assert other.models()[label].config.to_dict() == (
                    model.config.to_dict()
                )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_select_counts_batches_as_quantize_does(
        self, workers, tiny_spec, trained_tiny, tiny_data
    ):
        """A scheme's search costs the same batches whether it runs
        alone (``quantize``) or as a ``select`` branch: the baseline
        pass ``select`` measures up front is still counted by every
        branch, with or without forked workers."""
        _, test = tiny_data
        data = (test.images[:128], test.labels[:128])
        spec = tiny_spec.with_overrides(batch_size=32, workers=workers)
        outcome = Session(spec, model=trained_tiny, test_data=data).select()
        for name, branch in outcome.per_scheme.items():
            alone = Session(spec, model=trained_tiny, test_data=data).quantize(
                name
            )
            assert branch.batches_evaluated == alone.batches_evaluated > 0
            assert {
                step: counts["batches"]
                for step, counts in branch.phase_stats.items()
            } == {
                step: counts["batches"]
                for step, counts in alone.phase_stats.items()
            }

    def test_quantize_never_forks(
        self, monkeypatch, tiny_spec, trained_tiny, tiny_data
    ):
        """One search runs its batches in-process, in dataset order,
        whatever ``spec.workers`` says: only ``select``/``sweep``
        branches fan out across processes."""
        _, test = tiny_data
        data = (test.images[:128], test.labels[:128])

        def refuse_fork(pool, fn, num_items):
            raise AssertionError("a single search forked workers")

        monkeypatch.setattr(ForkPool, "map", refuse_fork)

        def run(workers):
            spec = tiny_spec.with_overrides(
                schemes=("RTN",), batch_size=32, workers=workers
            )
            return Session(spec, model=trained_tiny, test_data=data).quantize()

        # batch_size < split size: the search evaluates several batches.
        reference, result = run(1), run(3)
        assert result.summary() == reference.summary()
        assert result.batches_evaluated == reference.batches_evaluated > 4
        assert result.phase_stats == reference.phase_stats
        for label, model in reference.models().items():
            other = result.models()[label]
            assert other.accuracy == model.accuracy
            assert other.config.to_dict() == model.config.to_dict()

    def test_sweep_requires_a_grid(self, session):
        with pytest.raises(SpecError, match="budget grid"):
            session.sweep()

    def test_missing_weights_is_clear(self, tmp_path):
        spec = QuantSpec(
            model="shallow-tiny", weights=str(tmp_path / "missing.npz")
        )
        with pytest.raises(SpecError, match="cannot load weights"):
            Session(spec).model

    def test_train_records_weights_path_in_spec(self, tmp_path):
        """Artifacts exported after train() must carry provenance that
        names the weights file actually written."""
        spec = QuantSpec(
            model="shallow-tiny", train_size=120, test_size=32, seed=1
        )
        session = Session(spec)
        path = tmp_path / "weights.npz"
        session.train(epochs=1, batch_size=32, out=path)
        assert path.exists()
        assert session.spec.weights == str(path)

    def test_evaluators_share_one_calibration(self, session):
        first = session._evaluator("RTN")
        second = session._evaluator("TRN")
        assert second.scales is first.scales

    def test_finetune_between_evaluates_matches_cold_session(
        self, tiny_spec, trained_tiny, tiny_data
    ):
        """Stale-cache regression: a weight mutation between two
        ``evaluate`` calls must invalidate every warm cache — the warm
        session's post-mutation answer has to equal a cold session's
        (difference of exactly 0), not the memoized pre-mutation one.
        """
        from repro.capsnet import ShallowCaps, presets
        from repro.framework import quantization_aware_finetune
        from repro.quant import get_rounding_scheme

        train, test = tiny_data
        data = (test.images[:96], test.labels[:96])
        model = ShallowCaps(presets.shallowcaps_tiny())
        model.load_state_dict(trained_tiny.state_dict())

        session = Session(tiny_spec, model=model, test_data=data)
        config = QuantizationConfig.uniform(model.quant_layers, qw=3, qa=5)
        warm_before = session.evaluate(config)
        executor_before = session.executor

        quantization_aware_finetune(
            model, config, get_rounding_scheme("RTN"),
            train.images[:192], train.labels[:192],
            test.images[:32], test.labels[:32],
            epochs=1, lr=0.002, seed=1,
        )

        warm_after = session.evaluate(config)
        cold = Session(
            tiny_spec, model=model, test_data=data
        ).evaluate(config)
        assert warm_after == cold
        assert session.executor is not executor_before  # rebuilt
        # The memo would have replayed the pre-mutation number; the
        # fine-tuned weights genuinely move the accuracy of this config.
        assert warm_after != warm_before


class TestDeprecationShims:
    def test_build_does_not_warn(self, trained_tiny, tiny_data):
        _, test = tiny_data
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            QCapsNets.build(
                trained_tiny, test.images[:64], test.labels[:64],
                accuracy_tolerance=0.5, memory_budget_mbit=1.0,
            )


class TestResultSerialization:
    def test_result_round_trip(self, session):
        result = session.quantize()
        rebuilt = QCapsNetsResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.path == result.path
        for name, model in result.models().items():
            other = rebuilt.models()[name]
            assert other.accuracy == model.accuracy
            assert other.memory.weight_bits == model.memory.weight_bits
            assert other.weight_reduction == model.weight_reduction
