"""Algorithm 1 — the Q-CapsNets framework orchestrator (paper Fig. 8).

Flow::

    trained CapsNet
        │
    (1) layer-uniform quantization of weights + activations
        │            (binary search; consumes 5% of the tolerance)
    (2) memory-requirements fulfillment (Eq. 6, weights only)
        │
        ├── acc(model_memory) > acc_target ───────────── Path A
        │       (3A) layer-wise quantization of activations
        │       (4A) dynamic-routing quantization
        │       → model_satisfied
        │
        └── otherwise ────────────────────────────────── Path B
                (3B) layer-uniform + layer-wise weight quantization
                → model_memory + model_accuracy
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.framework.dr_quant import routing_quantization
from repro.framework.evaluate import Evaluator
from repro.framework.layerwise import layerwise_quantization
from repro.framework.results import QCapsNetsResult, QuantizedModelResult
from repro.framework.search import binary_search_wordlength
from repro.framework.steps import memory_fulfillment_bits
from repro.nn.module import Module
from repro.quant.config import QuantizationConfig
from repro.quant.memory import MemoryReport
from repro.quant.rounding import RoundingScheme, get_rounding_scheme

#: Fraction of the accuracy tolerance consumed by Step 1 (paper: "only
#: 5% of the accTOL is consumed").
STEP1_TOLERANCE_FRACTION = 0.05


class _PhaseRecorder:
    """Tracks per-step search cost (batches / stage executions).

    Snapshots the evaluator's counters and records the delta at each
    step boundary into ``QCapsNetsResult.phase_stats`` — the raw data
    behind ``benchmarks/bench_prefix_cache.py``'s per-phase comparison
    of the prefix-reuse engine against the cache-off baseline.
    """

    def __init__(self, evaluator: Evaluator):
        self.evaluator = evaluator
        self.stats: dict = {}
        self._mark = self._snapshot()

    def _snapshot(self):
        executor = self.evaluator.executor
        return (
            self.evaluator.batches_evaluated,
            executor.stage_executions,
            executor.stages_skipped,
        )

    def record(self, step: str) -> None:
        current = self._snapshot()
        self.stats[step] = {
            "batches": current[0] - self._mark[0],
            "stage_executions": current[1] - self._mark[1],
            "stages_skipped": current[2] - self._mark[2],
        }
        self._mark = current


class QCapsNets:
    """Quantization-framework driver for one rounding scheme.

    Parameters
    ----------
    model:
        Trained CapsNet exposing ``quant_layers``, ``routing_layers``,
        ``layer_param_counts()`` and ``layer_activation_counts()`` (both
        :class:`~repro.capsnet.shallow.ShallowCaps` and
        :class:`~repro.capsnet.deep.DeepCaps` do).
    test_images, test_labels:
        Test split for every accuracy measurement.
    accuracy_tolerance:
        ``accTOL`` — relative tolerated accuracy loss (e.g. 0.002 for
        the paper's 0.2%).
    memory_budget_mbit:
        Weight-memory budget in Mbit (10^6 bits, the paper's unit).
    scheme:
        Rounding scheme name or instance (default RTN).
    q_init:
        Starting fractional wordlength for Step 1 (paper: 32).
    min_bits:
        Floor for every searched wordlength (0 = sign-only formats
        allowed, matching the paper's Path-B collapse cases).
    accuracy_fp32:
        Pass a precomputed FP32 accuracy to skip one full evaluation.
    evaluator:
        Pass a prebuilt :class:`~repro.framework.evaluate.Evaluator` to
        share its memoized accuracy cache across several framework runs
        (e.g. a sweep over memory budgets with a fixed scheme); when
        given, ``scheme``/``batch_size``/``seed`` are taken from it.
    staged_executor:
        Prebuilt :class:`~repro.engine.StagedExecutor` to share across
        framework instances over the same model (e.g. the per-scheme
        branches of :func:`~repro.framework.selection.scheme_search` or a
        budget grid) — see :mod:`repro.engine.staged` for the
        sharing semantics.  Ignored when ``evaluator`` is given.

    One run evaluates its batches in-process, in dataset order; only
    independent runs (the scheme branches of ``scheme_search``, a budget
    grid) fan out across processes — see :mod:`repro.engine.parallel`.
    """

    @classmethod
    def build(cls, *args, **kwargs) -> "QCapsNets":
        """Construct from explicit arguments (see the class docstring);
        :meth:`from_spec` fills them from a :class:`repro.api.QuantSpec`."""
        self = cls.__new__(cls)
        self._setup(*args, **kwargs)
        return self

    @classmethod
    def from_spec(
        cls,
        spec,
        model: Module,
        test_images: np.ndarray,
        test_labels: np.ndarray,
        scheme: Union[str, RoundingScheme, None] = None,
        memory_budget_mbit: Optional[float] = None,
        accuracy_fp32: Optional[float] = None,
        evaluator: Optional[Evaluator] = None,
        staged_executor=None,
    ) -> "QCapsNets":
        """Construct from a declarative :class:`repro.api.QuantSpec`.

        ``spec`` may be any object carrying the spec's search fields
        (``tolerance``, ``schemes``, ``budget_mbit``, ``batch_size``,
        ``seed``, ``q_init``, ``min_bits``); per-branch
        overrides (``scheme``, ``memory_budget_mbit``) and shared
        resources (``evaluator``, ``staged_executor``) are passed
        explicitly by the caller — typically
        :meth:`repro.api.Session.quantize`.
        """
        if memory_budget_mbit is None:
            memory_budget_mbit = spec.budget_mbit
        if memory_budget_mbit is None:
            raise ValueError(
                "no memory budget: spec.budget_mbit is unset and no "
                "memory_budget_mbit override was given (a Session derives "
                "it from spec.budget_divisor and the model's FP32 size)"
            )
        self = cls.__new__(cls)
        self._setup(
            model,
            test_images,
            test_labels,
            accuracy_tolerance=spec.tolerance,
            memory_budget_mbit=memory_budget_mbit,
            scheme=spec.schemes[0] if scheme is None else scheme,
            batch_size=spec.batch_size,
            seed=spec.seed,
            q_init=spec.q_init,
            min_bits=spec.min_bits,
            accuracy_fp32=accuracy_fp32,
            evaluator=evaluator,
            staged_executor=staged_executor,
        )
        return self

    def _setup(
        self,
        model: Module,
        test_images: np.ndarray,
        test_labels: np.ndarray,
        accuracy_tolerance: float,
        memory_budget_mbit: float,
        scheme: Union[str, RoundingScheme] = "RTN",
        batch_size: int = 128,
        seed: int = 0,
        q_init: int = 32,
        min_bits: int = 0,
        step1_tolerance_fraction: float = STEP1_TOLERANCE_FRACTION,
        accuracy_fp32: Optional[float] = None,
        evaluator: Optional[Evaluator] = None,
        staged_executor=None,
    ):
        if accuracy_tolerance < 0:
            raise ValueError(
                f"accuracy_tolerance must be >= 0, got {accuracy_tolerance}"
            )
        if memory_budget_mbit <= 0:
            raise ValueError(
                f"memory_budget_mbit must be positive, got {memory_budget_mbit}"
            )
        self.model = model
        self.layers: List[str] = list(model.quant_layers)
        self.routing_layers: List[str] = list(model.routing_layers)
        self.accuracy_tolerance = accuracy_tolerance
        self.memory_budget_bits = int(round(memory_budget_mbit * 1e6))
        self.q_init = q_init
        self.min_bits = min_bits
        self.step1_tolerance_fraction = step1_tolerance_fraction
        self._accuracy_fp32 = accuracy_fp32

        if evaluator is not None:
            self.evaluator = evaluator
            self.scheme = evaluator.scheme
        else:
            if isinstance(scheme, str):
                scheme = get_rounding_scheme(scheme, seed=seed)
            self.scheme = scheme
            self.evaluator = Evaluator(
                model, test_images, test_labels, scheme,
                batch_size=batch_size, seed=seed,
                staged_executor=staged_executor,
            )
        self.param_counts = model.layer_param_counts()
        self.act_counts = model.layer_activation_counts()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _package(self, label: str, config: QuantizationConfig, accuracy: float) -> QuantizedModelResult:
        return QuantizedModelResult(
            label=label,
            config=config.clone(),
            accuracy=accuracy,
            memory=MemoryReport(self.param_counts, self.act_counts, config),
            scheme_name=self.scheme.name,
        )

    def _uniform_config(self, qw: int, qa: int) -> QuantizationConfig:
        return QuantizationConfig.uniform(self.layers, qw=qw, qa=qa)

    # ------------------------------------------------------------------
    # Main flow (Algorithm 1)
    # ------------------------------------------------------------------
    def run(self) -> QCapsNetsResult:
        log: List[str] = []
        # Deltas, not lifetime totals: a shared evaluator accumulates
        # counts across framework runs (e.g. budget sweeps), and the
        # result should report this run's search cost.
        batches_before = self.evaluator.batches_evaluated
        evals_before = self.evaluator.eval_count
        phases = _PhaseRecorder(self.evaluator)

        acc_fp32 = (
            self._accuracy_fp32
            if self._accuracy_fp32 is not None
            else self.evaluator.accuracy_fp32()
        )
        acc_target = acc_fp32 * (1.0 - self.accuracy_tolerance)
        log.append(f"accFP32={acc_fp32:.2f}% acc_target={acc_target:.2f}%")

        # Step 1 — layer-uniform quantization of weights + activations.
        # Probes only need the floor verdict (early-exit eligible); the
        # exact accuracy is measured once, for the chosen wordlength.
        acc_step1 = acc_fp32 * (
            1.0 - self.accuracy_tolerance * self.step1_tolerance_fraction
        )
        q_s1, acc_s1 = binary_search_wordlength(
            lambda bits: self.evaluator.accuracy(self._uniform_config(bits, bits)),
            acc_min=acc_step1,
            q_init=self.q_init,
            q_min=max(self.min_bits, 1),
            meets=lambda bits: self.evaluator.meets_floor(
                self._uniform_config(bits, bits), acc_step1
            ),
        )
        config_s1 = self._uniform_config(q_s1, q_s1)
        log.append(f"step1: uniform Qw=Qa={q_s1} (acc {acc_s1:.2f}%)")
        phases.record("step1_uniform")

        # Step 2 — memory-requirements fulfillment (Eq. 6, weights only).
        qw_by_layer = memory_fulfillment_bits(
            self.param_counts,
            self.layers,
            self.memory_budget_bits,
            integer_bits=config_s1.integer_bits,
        )
        config_mm = config_s1.clone()
        for layer, bits in qw_by_layer.items():
            config_mm.set_qw(layer, bits)
        acc_mm = self.evaluator.accuracy(config_mm)
        log.append(
            f"step2: Eq.6 Qw={[qw_by_layer[n] for n in self.layers]} "
            f"(acc {acc_mm:.2f}%)"
        )
        phases.record("step2_memory")

        result = QCapsNetsResult(
            scheme_name=self.scheme.name,
            accuracy_fp32=acc_fp32,
            accuracy_target=acc_target,
            memory_budget_bits=self.memory_budget_bits,
            path="A" if acc_mm > acc_target else "B",
            log=log,
        )
        result.model_uniform = self._package("model_uniform", config_s1, acc_s1)

        if acc_mm > acc_target:
            self._run_path_a(result, config_mm, acc_mm, acc_target, phases)
        else:
            self._run_path_b(
                result, config_s1, config_mm, acc_mm, acc_target, q_s1, phases,
            )

        result.eval_count = self.evaluator.eval_count - evals_before
        result.batches_evaluated = (
            self.evaluator.batches_evaluated - batches_before
        )
        result.phase_stats = phases.stats
        return result

    def _run_path_a(
        self,
        result: QCapsNetsResult,
        config_mm: QuantizationConfig,
        acc_mm: float,
        acc_target: float,
        phases: _PhaseRecorder,
    ) -> None:
        """Steps 3A and 4A → ``model_satisfied``."""
        # Step 3A — layer-wise activations, keeping half the remaining
        # margin in reserve for the routing quantization of Step 4A.
        acc_min_3a = acc_target + 0.5 * (acc_mm - acc_target)
        config = layerwise_quantization(
            self.evaluator, config_mm, "activations", acc_min_3a,
            min_bits=self.min_bits,
        )
        result.log.append(
            f"step3A: Qa={config.qa_vector()} "
            f"(floor {acc_min_3a:.2f}%)"
        )
        phases.record("step3A_layerwise")

        # Step 4A — dynamic-routing quantization, one routing layer at a
        # time (Algorithm 1, lines 16-18).
        for layer in self.routing_layers:
            config = routing_quantization(
                self.evaluator, config, layer, acc_target,
                min_bits=self.min_bits,
            )
            result.log.append(
                f"step4A[{layer}]: QDR={config[layer].effective_qdr()}"
            )
        phases.record("step4A_routing")

        accuracy = self.evaluator.accuracy(config)
        result.model_satisfied = self._package("model_satisfied", config, accuracy)
        phases.record("final_accuracy")

    def _run_path_b(
        self,
        result: QCapsNetsResult,
        config_s1: QuantizationConfig,
        config_mm: QuantizationConfig,
        acc_mm: float,
        acc_target: float,
        q_s1: int,
        phases: _PhaseRecorder,
    ) -> None:
        """Step 3B → ``model_memory`` + ``model_accuracy``."""
        result.model_memory = self._package("model_memory", config_mm, acc_mm)

        # Layer-uniform weight reduction from the step-1 wordlength...
        def uniform_qw(bits: int) -> QuantizationConfig:
            candidate = config_s1.clone()
            for layer in self.layers:
                candidate.set_qw(layer, bits)
            return candidate

        # The accuracy at the chosen wordlength is not reported anywhere
        # (layerwise refinement re-measures the final config), so skip
        # completing the early-exited success verdict into a full pass.
        qw_uniform, _ = binary_search_wordlength(
            measure=None,
            acc_min=acc_target, q_init=q_s1,
            q_min=max(self.min_bits, 1),
            meets=lambda bits: self.evaluator.meets_floor(
                uniform_qw(bits), acc_target
            ),
            need_accuracy=False,
        )
        config = config_s1.clone()
        for layer in self.layers:
            config.set_qw(layer, qw_uniform)
        result.log.append(f"step3B: uniform Qw={qw_uniform}")
        phases.record("step3B_uniform")

        # ...then layer-wise weight refinement (Algorithm 2 on weights).
        config = layerwise_quantization(
            self.evaluator, config, "weights", acc_target,
            min_bits=self.min_bits,
        )
        result.log.append(f"step3B: layer-wise Qw={config.qw_vector()}")
        phases.record("step3B_layerwise")
        accuracy = self.evaluator.accuracy(config)
        result.model_accuracy = self._package("model_accuracy", config, accuracy)
        phases.record("final_accuracy")
