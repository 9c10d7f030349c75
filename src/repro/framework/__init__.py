"""The Q-CapsNets framework (paper Sec. III).

Given a trained FP32 CapsNet, a test set, an accuracy tolerance and a
weight-memory budget, :class:`~repro.framework.qcapsnets.QCapsNets`
searches per-layer fixed-point wordlengths following Algorithm 1:

1. layer-uniform quantization via binary search (Step 1),
2. memory-requirements fulfillment via Eq. 6 (Step 2),
3. Path A: layer-wise activation quantization (Step 3A / Algorithm 2)
   and dynamic-routing quantization (Step 4A / Algorithm 3), or
4. Path B: layer-uniform + layer-wise weight quantization (Step 3B),

returning ``model_satisfied`` or the pair
(``model_memory``, ``model_accuracy``).

:func:`~repro.framework.selection.scheme_search` executes
the whole flow once per rounding scheme and applies the selection
criteria of Sec. III-B.
"""

from repro.framework.evaluate import Evaluator
from repro.framework.search import binary_search_wordlength
from repro.framework.layerwise import layerwise_quantization
from repro.framework.dr_quant import routing_quantization
from repro.framework.steps import memory_fulfillment_bits, solve_eq6
from repro.framework.results import QCapsNetsResult, QuantizedModelResult
from repro.framework.qcapsnets import QCapsNets
from repro.framework.selection import (
    SelectionOutcome,
    scheme_search,
    select_best,
)
from repro.framework.finetune import (
    StraightThroughQuant,
    quantization_aware_finetune,
)
from repro.framework.pareto import (
    TradeOffPoint,
    pareto_frontier,
    sweep_memory_budgets,
)

__all__ = [
    "Evaluator",
    "binary_search_wordlength",
    "layerwise_quantization",
    "routing_quantization",
    "solve_eq6",
    "memory_fulfillment_bits",
    "QCapsNets",
    "QCapsNetsResult",
    "QuantizedModelResult",
    "SelectionOutcome",
    "scheme_search",
    "select_best",
    "StraightThroughQuant",
    "quantization_aware_finetune",
    "TradeOffPoint",
    "pareto_frontier",
    "sweep_memory_budgets",
]
