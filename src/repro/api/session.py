"""Shared-resource session: one spec in, every operation warm.

A :class:`Session` owns everything the Q-CapsNets workflow shares —
the model, the synthetic splits, one
:class:`~repro.engine.StagedExecutor` (the cross-config prefix cache),
the per-scheme evaluators with their memoized accuracies, and the
fork-pool width — and exposes the workflow verbs on top of it:

``train`` → ``quantize`` / ``select`` / ``sweep`` → ``export`` →
``serve`` / ``predict`` / ``evaluate``.

Every operation in one session reuses the same warm caches: the FP32
baseline pass of ``quantize()`` is resumed by every branch of a later
``select()`` (scheme-free prefixes are shared across schemes), a
``sweep()`` resumes both, and repeated queries hit the evaluators'
exact memo.  Ad-hoc CLI invocations used to rebuild all of this from
scratch per command; the CLI is now a thin shell over this class.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.artifact import ArtifactError, ModelArtifact
from repro.api.spec import MODEL_CHOICES, QuantSpec, SpecError
from repro.capsnet import DeepCaps, ShallowCaps, presets
from repro.data import Dataset, synth_cifar, synth_digits, synth_fashion
from repro.engine import StagedExecutor
from repro.framework.evaluate import Evaluator
from repro.framework.pareto import TradeOffPoint, sweep_memory_budgets
from repro.framework.qcapsnets import QCapsNets
from repro.framework.results import QCapsNetsResult, QuantizedModelResult
from repro.framework.selection import SelectionOutcome, scheme_search
from repro.lint.sanitizer import FixedPointSanitizer
from repro.nn import Adam, Trainer
from repro.nn.module import Module
from repro.nn.trainer import TrainingHistory, predict_in_batches
from repro.quant.calibrate import calibrate_scales
from repro.quant.config import QuantizationConfig
from repro.quant.qmodel import QuantizedCapsNet
from repro.quant.rounding import get_rounding_scheme

#: Canvas side override for presets that need one (shallow-tiny is 14²).
_IMAGE_SIZE_OVERRIDES = {"shallow-tiny": 14}

_DATASET_FACTORIES = {
    "digits": synth_digits,
    "fashion": synth_fashion,
    "cifar": synth_cifar,
}


def dataset_channels(dataset: str) -> tuple:
    """(channels, image size) of a dataset family."""
    return (3, 32) if dataset == "cifar" else (1, 28)


def spec_input_shape(spec: "QuantSpec") -> tuple:
    """Per-sample input shape ``(channels, size, size)`` of a spec.

    Derivable without instantiating the model: the dataset family fixes
    channels and canvas, and presets with a bespoke canvas (see
    :data:`_IMAGE_SIZE_OVERRIDES`) override the side length.  The
    serving daemon validates request payloads against this.
    """
    channels, size = dataset_channels(spec.dataset)
    size = _IMAGE_SIZE_OVERRIDES.get(spec.model, size)
    return (channels, size, size)


def build_model(name: str, dataset: str, seed: int = 0) -> Module:
    """Instantiate a model preset matched to a dataset's shape."""
    channels, size = dataset_channels(dataset)
    if name == "shallow-small":
        return ShallowCaps(presets.shallowcaps_small(
            input_channels=channels, input_size=size, seed=seed))
    if name == "shallow-tiny":
        if dataset == "cifar":
            raise SpecError(
                "model 'shallow-tiny' supports grayscale datasets only"
            )
        return ShallowCaps(presets.shallowcaps_tiny(seed=seed))
    if name == "shallow-paper":
        return ShallowCaps(presets.shallowcaps_paper(input_channels=channels))
    if name == "deep-small":
        return DeepCaps(presets.deepcaps_small(
            input_channels=channels, input_size=size, seed=seed))
    if name == "deep-paper":
        return DeepCaps(presets.deepcaps_paper(input_channels=channels))
    raise SpecError(
        f"unknown model '{name}'; choose one of {list(MODEL_CHOICES)}"
    )


def build_dataset(name: str, train_size: int, test_size: int, seed: int,
                  image_size: Optional[int] = None) -> Tuple[Dataset, Dataset]:
    """Generate a (train, test) synthetic split pair."""
    factory = _DATASET_FACTORIES.get(name)
    if factory is None:
        raise SpecError(
            f"unknown dataset '{name}'; choose one of "
            f"{sorted(_DATASET_FACTORIES)}"
        )
    kwargs = dict(train_size=train_size, test_size=test_size, seed=seed)
    if image_size is not None:
        kwargs["image_size"] = image_size
    return factory(**kwargs)


class ServingModel:
    """Batched quantized inference over frozen codes — no search, ever.

    Thin runtime wrapper a :meth:`Session.serve` call returns: the
    bound :class:`~repro.backend.base.InferenceBackend` plus a batch
    size.  On the float backend one quantization context is built per
    query (weights are reconstructed from the integer codes once,
    activations quantize on the fly); on the int backend every batch
    executes the certified lowering plan on integer codes.  Batches
    stream through in order — deterministic for every rounding scheme.

    With ``sanitize=True`` every predict runs under a persistent
    :class:`~repro.lint.sanitizer.FixedPointSanitizer`: per-layer
    overflow/saturation/NaN counters accumulate across requests and are
    surfaced via :meth:`sanitizer_report` (and the serving daemon's
    ``/healthz``).  Outputs are bit-identical with the sanitizer on.
    """

    def __init__(
        self,
        quantized,
        batch_size: int = 128,
        sanitize: bool = False,
    ) -> None:
        from repro.backend import FloatBackend, InferenceBackend

        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if isinstance(quantized, InferenceBackend):
            self.backend = quantized
        else:
            # Pre-backend callers hand us a bare QuantizedCapsNet.
            self.backend = FloatBackend(quantized)
        self.quantized = self.backend.quantized
        self.batch_size = batch_size
        self._sanitizer = FixedPointSanitizer() if sanitize else None

    @property
    def backend_name(self) -> str:
        return self.backend.name

    @property
    def config(self) -> QuantizationConfig:
        return self.quantized.config

    @property
    def sanitizing(self) -> bool:
        return self._sanitizer is not None

    def sanitizer_report(self) -> Dict[str, object]:
        """Accumulated sanitizer counters (empty report when disabled)."""
        if self._sanitizer is None:
            return {"layers": {}, "totals": {}}
        return self._sanitizer.report()

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Predicted labels for ``images``, evaluated in batches."""
        if self._sanitizer is None:
            return self.backend.predict(images, batch_size=self.batch_size)
        with self._sanitizer:
            return self.backend.predict(images, batch_size=self.batch_size)

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Accuracy (%) of :meth:`predict` against ``labels``."""
        predictions = self.predict(images)
        return 100.0 * float((predictions == labels).mean())


class Session:
    """All workflow verbs over one shared set of warm resources.

    Parameters
    ----------
    spec:
        The declarative :class:`~repro.api.spec.QuantSpec` (or a dict /
        JSON-file path accepted by ``QuantSpec.from_dict`` / ``load``).
    model:
        Optional pre-built (typically pre-trained) model instance; when
        given, ``spec.model``'s preset is not instantiated and
        ``spec.weights`` is not loaded.
    test_data:
        Optional ``(images, labels)`` override for the evaluation split;
        defaults to the spec's synthetic test split (generated exactly
        like the CLI's: ``train_size=1`` for test-only operations).
    """

    def __init__(
        self,
        spec: Union[QuantSpec, dict, str, os.PathLike],
        model: Optional[Module] = None,
        test_data: Optional[tuple] = None,
    ) -> None:
        if isinstance(spec, (str, os.PathLike)):
            spec = QuantSpec.load(spec)
        elif isinstance(spec, dict):
            spec = QuantSpec.from_dict(spec)
        elif not isinstance(spec, QuantSpec):
            raise SpecError(
                f"spec must be a QuantSpec, dict or path, got "
                f"{type(spec).__name__}"
            )
        self.spec = spec
        self._model = model
        self._weights_loaded = model is not None
        self._test = test_data
        self._executor: Optional[StagedExecutor] = None
        self._evaluators: Dict[str, Evaluator] = {}
        self._scales: Optional[Dict[str, float]] = None
        #: Model weight version the caches were built under (None until
        #: the first weight-derived resource is materialized).
        self._cached_weight_version: Optional[int] = None

    # ------------------------------------------------------------------
    # Shared resources (lazy; built once per session)
    # ------------------------------------------------------------------
    def _image_size(self) -> Optional[int]:
        return _IMAGE_SIZE_OVERRIDES.get(self.spec.model)

    def _build_model(self) -> Module:
        if self._model is None:
            self._model = build_model(
                self.spec.model, self.spec.dataset, seed=self.spec.seed
            )
        return self._model

    @property
    def model(self) -> Module:
        """The session's model, with ``spec.weights`` loaded (once)."""
        model = self._build_model()
        if not self._weights_loaded and self.spec.weights is not None:
            try:
                model.load(self.spec.weights)
            except OSError as error:
                raise SpecError(
                    f"cannot load weights {self.spec.weights!r}: {error} "
                    "(train first, or point spec.weights at an existing "
                    ".npz)"
                ) from error
            self._weights_loaded = True
        return model

    @property
    def test_data(self) -> tuple:
        """``(images, labels)`` of the evaluation split."""
        if self._test is None:
            _, test = build_dataset(
                self.spec.dataset, 1, self.spec.test_size, self.spec.seed,
                self._image_size(),
            )
            self._test = (test.images, test.labels)
        return self._test

    def _check_weight_freshness(self) -> None:
        """Invalidate weight-derived caches if the model mutated.

        ``quantization_aware_finetune`` (or any ``load_state_dict`` /
        training loop) mutates the session's model in place and bumps
        its ``weight_version``; every weight-derived resource accessor
        funnels through here first, so a warm session can never serve
        evaluator memos, calibration scales or prefix-cache activations
        measured on the pre-mutation weights.
        """
        if self._model is None:
            return
        # Read through the property so spec.weights are applied before
        # the version is sampled (loading bumps the version itself).
        version = getattr(self.model, "weight_version", 0)
        if self._cached_weight_version is None:
            self._cached_weight_version = version
        elif version != self._cached_weight_version:
            self._invalidate()
            self._cached_weight_version = version

    @property
    def executor(self) -> Optional[StagedExecutor]:
        """The session-wide prefix-reuse executor (one per session;
        ``None`` for models without a ``stages()`` decomposition)."""
        self._check_weight_freshness()
        if self._executor is None:
            model = self.model
            if callable(getattr(model, "stages", None)):
                self._executor = StagedExecutor(
                    model, max_bytes=self.spec.cache_bytes
                )
        return self._executor

    def _calibration_scales(self) -> Dict[str, float]:
        """Calibrated activation/routing scales, measured once per
        set of model weights (calibration is scheme-independent but
        weight-dependent — a mutation re-measures)."""
        self._check_weight_freshness()
        if self._scales is None:
            images, _ = self.test_data
            self._scales = calibrate_scales(
                self.model, images, batch_size=self.spec.batch_size
            )
        return self._scales

    def _evaluator(self, scheme: Optional[str] = None) -> Evaluator:
        """Per-scheme evaluator, memoized — repeated operations share
        the exact-accuracy memo, the calibration scales and the session
        executor."""
        self._check_weight_freshness()
        name = scheme if scheme is not None else self.spec.scheme
        evaluator = self._evaluators.get(name)
        if evaluator is None:
            images, labels = self.test_data
            evaluator = Evaluator.from_spec(
                self.spec, self.model, images, labels,
                scheme=name, staged_executor=self.executor,
                scales=self._calibration_scales(),
            )
            self._evaluators[name] = evaluator
        return evaluator

    def _invalidate(self) -> None:
        """Drop every cache derived from the model's weights (called
        when a weight mutation is observed — training, fine-tuning or a
        state-dict load)."""
        self._executor = None
        self._evaluators.clear()
        self._scales = None
        self._cached_weight_version = None

    def budget_mbit(self) -> float:
        """The effective weight-memory budget (absolute, in Mbit)."""
        if self.spec.budget_mbit is not None:
            return self.spec.budget_mbit
        fp32_mbit = sum(self.model.layer_param_counts().values()) * 32 / 1e6
        return fp32_mbit / self.spec.budget_divisor

    def accuracy_fp32(self) -> float:
        """The FP32 baseline accuracy (memoized; prefix-cached)."""
        return self._evaluator().accuracy_fp32()

    def executor_stats(self) -> Dict[str, object]:
        """Counter snapshot of the shared prefix-reuse executor."""
        executor = self.executor
        return executor.stats() if executor is not None else {}

    # ------------------------------------------------------------------
    # Workflow verbs
    # ------------------------------------------------------------------
    def train(
        self,
        epochs: int = 6,
        batch_size: int = 64,
        lr: float = 0.005,
        out: Optional[str] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train the model on the spec's synthetic train split.

        Saves to ``out`` (or ``spec.weights``) when given — and records
        that path back into ``spec.weights``, so artifacts exported from
        this session carry provenance pointing at the weights actually
        used.  Invalidates every weight-derived cache.  Returns the
        training history.
        """
        model = self._build_model()
        train, test = build_dataset(
            self.spec.dataset, self.spec.train_size, self.spec.test_size,
            self.spec.seed, self._image_size(),
        )
        trainer = Trainer(
            model, Adam(model.parameters(), lr=lr), seed=self.spec.seed
        )
        history = trainer.fit(
            train.images, train.labels, test.images, test.labels,
            epochs=epochs, batch_size=batch_size, verbose=verbose,
        )
        self._weights_loaded = True  # in-memory weights are authoritative
        destination = out if out is not None else self.spec.weights
        if destination is not None:
            model.save(destination)
            self.spec = self.spec.with_overrides(
                weights=os.fspath(destination)
            )
        self._invalidate()
        return history

    def quantize(
        self,
        scheme: Optional[str] = None,
        budget_mbit: Optional[float] = None,
    ) -> QCapsNetsResult:
        """Run Algorithm 1 once (default: the spec's first scheme)."""
        images, labels = self.test_data
        framework = QCapsNets.from_spec(
            self.spec, self.model, images, labels,
            memory_budget_mbit=(
                budget_mbit if budget_mbit is not None else self.budget_mbit()
            ),
            evaluator=self._evaluator(scheme),
        )
        return framework.run()

    def select(
        self, schemes: Optional[Sequence[str]] = None
    ) -> SelectionOutcome:
        """Sec. III-B library search across the spec's schemes.

        Every branch shares the session executor, so scheme-free (FP32)
        prefixes are computed once across the library, including work
        already cached by earlier ``quantize()`` / ``sweep()`` calls in
        this session.  The calibration scales and the FP32 baseline pass
        are measured before the branches run, so forked branches
        (``spec.workers``) inherit them instead of redoing them.  Each
        branch still runs its own baseline pass (resumed from the
        executor), so its ``batches_evaluated`` counts what
        ``quantize()`` of that scheme counts.
        """
        names = tuple(schemes) if schemes is not None else self.spec.schemes
        images, labels = self.test_data
        budget = self.budget_mbit()
        scales = self._calibration_scales()  # once, before any fork
        if self.executor is not None:
            # Warm the scheme-free FP32 prefixes on a throwaway
            # evaluator: the branches' evaluators stay unmeasured, so
            # each resumes (and counts) its baseline pass as quantize()
            # would.
            Evaluator.from_spec(
                self.spec, self.model, images, labels, scheme=names[0],
                staged_executor=self.executor, scales=scales,
            ).accuracy_fp32()

        def make(name: str) -> QCapsNets:
            return QCapsNets.from_spec(
                self.spec, self.model, images, labels,
                memory_budget_mbit=budget,
                evaluator=self._evaluator(name),
            )

        return scheme_search(make, schemes=names, workers=self.spec.workers)

    def sweep(
        self,
        budgets_mbit: Optional[Sequence[float]] = None,
        scheme: Optional[str] = None,
    ) -> List[TradeOffPoint]:
        """Memory/accuracy trade-off sweep over a budget grid."""
        budgets = (
            tuple(budgets_mbit)
            if budgets_mbit is not None
            else self.spec.budgets_mbit
        )
        if not budgets:
            raise SpecError(
                "no budget grid: pass budgets_mbit or set spec.budgets_mbit"
            )
        images, labels = self.test_data
        return sweep_memory_budgets(
            self.model, images, labels, list(budgets),
            accuracy_tolerance=self.spec.tolerance,
            scheme=scheme if scheme is not None else self.spec.scheme,
            batch_size=self.spec.batch_size,
            seed=self.spec.seed,
            workers=self.spec.workers,
            staged_executor=self.executor,
        )

    # ------------------------------------------------------------------
    # Artifacts and serving
    # ------------------------------------------------------------------
    def export(
        self,
        result: Union[QCapsNetsResult, QuantizedModelResult],
        path: Optional[str] = None,
        chosen: Optional[QuantizedModelResult] = None,
        lower: bool = False,
    ) -> ModelArtifact:
        """Freeze a search result into a versioned artifact.

        Accepts a full :class:`QCapsNetsResult` (packages its deployment
        pick, or ``chosen``) or a single :class:`QuantizedModelResult`.
        The artifact embeds this session's spec as provenance and a
        qprove range certificate when the model family is supported;
        ``lower=True`` additionally embeds a qlower integer execution
        plan, and ``path`` saves the artifact.
        """
        if isinstance(result, QuantizedModelResult):
            quantized = QuantizedCapsNet(
                self.model, result.config,
                get_rounding_scheme(result.scheme_name, seed=self.spec.seed),
                act_scales=self._calibration_scales(),
                seed=self.spec.seed,
            )
            artifact = ModelArtifact.from_quantized(
                quantized,
                report={
                    "label": result.label,
                    "accuracy": result.accuracy,
                    "weight_bits": result.memory.weight_bits,
                    "act_bits": result.memory.act_bits,
                    "weight_reduction": result.weight_reduction,
                    "act_reduction": result.act_reduction,
                },
                spec=self.spec.to_dict(),
            )
        elif isinstance(result, QCapsNetsResult):
            artifact = ModelArtifact.from_result(
                self.model, result,
                get_rounding_scheme(result.scheme_name, seed=self.spec.seed),
                act_scales=self._calibration_scales(),
                seed=self.spec.seed,
                spec=self.spec.to_dict(),
                chosen=chosen,
            )
        else:
            raise TypeError(
                f"cannot export a {type(result).__name__}; expected "
                "QCapsNetsResult or QuantizedModelResult"
            )
        from repro.analysis.qprove import CertificationError

        try:
            artifact.certify(model=self.model)
        except CertificationError:
            # Model families without an abstract walker ship without a
            # certificate; serve(require_certified=True) rejects them.
            pass
        if lower:
            from repro.analysis.qlower import LoweringError

            try:
                artifact.lower(model=self.model)
            except LoweringError:
                # Same policy as certification: unsupported families
                # ship without a plan instead of failing the export.
                pass
        if path is not None:
            artifact.save(path)
        return artifact

    def serve(
        self,
        artifact: Union[ModelArtifact, str, os.PathLike],
        require_certified: bool = False,
        backend: Optional[str] = None,
    ) -> ServingModel:
        """Bind an artifact (or artifact path) for batched inference.

        No search work runs — the frozen codes are attached to the
        session's model and every query streams through in
        ``spec.batch_size`` batches.  ``require_certified`` refuses
        artifacts that do not carry a *passing* qprove range
        certificate.  ``backend`` selects the execution path
        (``"float"`` default / ``"int"``; the int backend additionally
        requires the artifact to be certified PASS and lowerable).
        """
        if isinstance(artifact, (str, os.PathLike)):
            artifact = ModelArtifact.load(artifact)
        if not isinstance(artifact, ModelArtifact):
            raise TypeError(
                f"cannot serve a {type(artifact).__name__}; expected a "
                "ModelArtifact or a path to one"
            )
        if require_certified and not artifact.certified:
            verdict = (
                "a FAILED certificate"
                if artifact.certificate
                else "no certificate"
            )
            raise ArtifactError(
                f"require_certified: artifact carries {verdict}; run "
                "ModelArtifact.certify() (or 'qcapsnets certify "
                "--artifact PATH --update') first"
            )
        return ServingModel(
            artifact.bind(self.model, backend=backend),
            batch_size=self.spec.batch_size,
            sanitize=self.spec.sanitize,
        )

    def predict(
        self,
        target: Union[ModelArtifact, str, os.PathLike, None] = None,
        images: Optional[np.ndarray] = None,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Predicted labels (quantized when ``target`` is an artifact,
        FP32 otherwise) for ``images`` (default: the test split)."""
        if images is None:
            images = self.test_data[0]
        if target is not None:
            return self.serve(target, backend=backend).predict(images)
        return predict_in_batches(self.model, images, self.spec.batch_size)

    def evaluate(
        self,
        target: Union[
            ModelArtifact, QCapsNetsResult, QuantizedModelResult,
            QuantizationConfig, str, os.PathLike,
        ],
    ) -> float:
        """Accuracy (%) of ``target`` on the session's test split.

        Configurations and results are measured through the session's
        warm evaluators (sharing the prefix cache and the exact memo);
        artifacts are served through their frozen codes.
        """
        if isinstance(target, (str, os.PathLike)):
            target = ModelArtifact.load(target)
        if isinstance(target, ModelArtifact):
            images, labels = self.test_data
            return self.serve(target).accuracy(images, labels)
        if isinstance(target, QCapsNetsResult):
            target = target.best_model()
        if isinstance(target, QuantizedModelResult):
            return self._evaluator(target.scheme_name).accuracy(target.config)
        if isinstance(target, QuantizationConfig):
            return self._evaluator().accuracy(target)
        raise TypeError(
            f"cannot evaluate a {type(target).__name__}; expected an "
            "artifact (or path), result, or QuantizationConfig"
        )
