"""Result containers for the Q-CapsNets search.

The framework returns up to three quantized models, named as in the
paper:

* ``model_satisfied`` — meets both the accuracy target and the memory
  budget (Path A output);
* ``model_memory`` — meets the memory budget with the best achievable
  accuracy (Step 2 output, returned on Path B);
* ``model_accuracy`` — meets the accuracy target with the smallest
  achievable memory (Step 3B output, returned on Path B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.quant.config import QuantizationConfig
from repro.quant.memory import MemoryReport


@dataclass
class QuantizedModelResult:
    """One quantized model produced by the framework."""

    label: str
    config: QuantizationConfig
    accuracy: float
    memory: MemoryReport
    scheme_name: str

    @property
    def weight_reduction(self) -> float:
        """W-mem reduction vs FP32 (Table I column)."""
        return self.memory.weight_reduction

    @property
    def act_reduction(self) -> float:
        """A-mem reduction vs FP32 (Table I column)."""
        return self.memory.act_reduction

    # ------------------------------------------------------------------
    # Serialization (JSON-safe; consumed by repro.api.ModelArtifact)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        return {
            "label": self.label,
            "config": self.config.to_dict(),
            "accuracy": self.accuracy,
            "scheme_name": self.scheme_name,
            "param_counts": dict(self.memory.param_counts),
            "act_counts": dict(self.memory.act_counts),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QuantizedModelResult":
        """Rebuild a result from :meth:`to_dict` output.

        The :class:`~repro.quant.memory.MemoryReport` is reconstructed
        from the stored per-layer counts and config, so every derived
        number (weight/act bits and reductions) round-trips exactly.
        """
        config = QuantizationConfig.from_dict(data["config"])
        return cls(
            label=str(data["label"]),
            config=config,
            accuracy=float(data["accuracy"]),
            memory=MemoryReport(
                dict(data["param_counts"]), dict(data["act_counts"]), config
            ),
            scheme_name=str(data["scheme_name"]),
        )

    def summary(self) -> str:
        return (
            f"{self.label} [{self.scheme_name}]: acc={self.accuracy:.2f}%, "
            f"W mem reduction={self.weight_reduction:.2f}x, "
            f"A mem reduction={self.act_reduction:.2f}x\n"
            f"{self.config.describe()}"
        )


@dataclass
class QCapsNetsResult:
    """Full outcome of one Algorithm-1 run (one rounding scheme)."""

    scheme_name: str
    accuracy_fp32: float
    accuracy_target: float
    memory_budget_bits: int
    path: str  # "A" or "B"
    model_satisfied: Optional[QuantizedModelResult] = None
    model_memory: Optional[QuantizedModelResult] = None
    model_accuracy: Optional[QuantizedModelResult] = None
    #: Step-1 layer-uniform model (not a paper output, but plotted as the
    #: intermediate row of Fig. 11 and useful for ablations).
    model_uniform: Optional[QuantizedModelResult] = None
    eval_count: int = 0
    #: Evaluation batches run by this search.
    batches_evaluated: int = 0
    #: Per-step search cost: ``{step: {"batches", "stage_executions",
    #: "stages_skipped"}}`` deltas recorded by the orchestrator.
    #: ``stage_executions`` counts model stages actually run; with the
    #: prefix cache off (``prefix_cache_bytes=0``) it equals
    #: ``batches * num_stages``.
    phase_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    log: List[str] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        """True when Path A produced a model meeting both constraints."""
        return self.model_satisfied is not None

    def models(self) -> Dict[str, QuantizedModelResult]:
        """All produced models keyed by their paper name."""
        out: Dict[str, QuantizedModelResult] = {}
        if self.model_satisfied is not None:
            out["model_satisfied"] = self.model_satisfied
        if self.model_memory is not None:
            out["model_memory"] = self.model_memory
        if self.model_accuracy is not None:
            out["model_accuracy"] = self.model_accuracy
        return out

    def best_model(self) -> QuantizedModelResult:
        """The deployment pick: ``model_satisfied`` on Path A, else the
        accuracy-constrained Path-B model (``model_accuracy``)."""
        chosen = self.model_satisfied or self.model_accuracy
        if chosen is None:
            raise ValueError(
                "result holds no deployable model (neither model_satisfied "
                "nor model_accuracy was produced)"
            )
        return chosen

    # ------------------------------------------------------------------
    # Serialization (JSON-safe; consumed by repro.api.ModelArtifact)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation; inverse of :meth:`from_dict`."""
        out: Dict[str, object] = {
            "scheme_name": self.scheme_name,
            "accuracy_fp32": self.accuracy_fp32,
            "accuracy_target": self.accuracy_target,
            "memory_budget_bits": self.memory_budget_bits,
            "path": self.path,
            "eval_count": self.eval_count,
            "batches_evaluated": self.batches_evaluated,
            "phase_stats": {
                step: dict(counts) for step, counts in self.phase_stats.items()
            },
            "log": list(self.log),
        }
        for name in ("model_satisfied", "model_memory", "model_accuracy",
                     "model_uniform"):
            model = getattr(self, name)
            out[name] = model.to_dict() if model is not None else None
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QCapsNetsResult":
        """Rebuild a result from :meth:`to_dict` output (lossless)."""
        result = cls(
            scheme_name=str(data["scheme_name"]),
            accuracy_fp32=float(data["accuracy_fp32"]),
            accuracy_target=float(data["accuracy_target"]),
            memory_budget_bits=int(data["memory_budget_bits"]),
            path=str(data["path"]),
            eval_count=int(data.get("eval_count", 0)),
            batches_evaluated=int(data.get("batches_evaluated", 0)),
            phase_stats={
                step: dict(counts)
                for step, counts in dict(data.get("phase_stats", {})).items()
            },
            log=list(data.get("log", [])),
        )
        for name in ("model_satisfied", "model_memory", "model_accuracy",
                     "model_uniform"):
            model = data.get(name)
            if model is not None:
                setattr(result, name, QuantizedModelResult.from_dict(model))
        return result

    def summary(self) -> str:
        batches = (
            f", {self.batches_evaluated} batches" if self.batches_evaluated else ""
        )
        lines = [
            f"Q-CapsNets result (scheme={self.scheme_name}, path {self.path}, "
            f"{self.eval_count} quantized evaluations{batches})",
            f"  accFP32={self.accuracy_fp32:.2f}%  "
            f"acc_target={self.accuracy_target:.2f}%  "
            f"budget={self.memory_budget_bits / 1e6:.3f} Mbit",
        ]
        for name, model in self.models().items():
            lines.append(
                f"  {name}: acc={model.accuracy:.2f}%, "
                f"W x{model.weight_reduction:.2f}, A x{model.act_reduction:.2f}, "
                f"Qw={model.config.qw_vector()}, Qa={model.config.qa_vector()}, "
                f"QDR={model.config.qdr_vector()}"
            )
        return "\n".join(lines)
