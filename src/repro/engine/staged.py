"""Staged forward execution with cross-config activation prefix reuse.

Algorithm 1 probes dozens of configurations that differ from their
predecessor in only one layer, yet a naive probe re-runs the forward
pass from the pixels up.  Both reference CapsNets (and the CNN
baselines) are feed-forward chains, so every activation *before* the
first layer whose quantization changed is bit-identical across such
probes.  This module recomputes only from the change down:

* models expose ``stages()`` — an ordered decomposition of their
  forward pass into :class:`~repro.nn.module.ForwardStage` steps; the
  fold over stages **is** the forward, so the decomposition cannot
  drift from the model.  Layers are split at their compute/quantize
  boundary, each step recording which config fields (``qw``/``qa``/
  ``qdr``) its hooks consume — an activation-bits-only probe therefore reuses
  the expensive compute outputs and re-runs only the quantization hook;
* :func:`stage_fingerprints` captures everything a stage boundary
  activation depends on besides the input batch: the consumed config
  fields of every prefix step, the rounding scheme, the calibrated
  scales and (for stochastic rounding) the seed and draw-consumption
  pattern of the whole configuration;
* :class:`PrefixCache` is a bytes-capped cache of per-(split, batch,
  stage) boundary activations keyed by prefix fingerprint, evicting by
  bytes-per-expected-hit;
* :class:`StagedExecutor` resumes each batch's forward pass from the
  deepest cached boundary whose fingerprint matches.

One executor can serve *several* evaluators — the per-scheme frameworks
of :func:`~repro.framework.selection.scheme_search`, the budget grid of
:func:`~repro.framework.pareto.sweep_memory_budgets`, even evaluators
over different test splits.  Three key refinements make
that sharing safe and profitable:

* cache keys carry a **split token** (content hash of the split plus
  the batch size), so boundary activations from different eval splits
  or batch shapes can never collide;
* fingerprints are **scheme-aware**: the scheme token only attaches
  from the first stage whose prefix actually quantizes something, so a
  fully-FP32 prefix (e.g. the ``accFP32`` baseline pass) is shared
  *across* schemes; deterministic schemes (TRN/RTN/RTNE) omit the seed
  — their output cannot depend on it, so equal configs share compute
  boundaries across seeds — while stochastic rounding keeps the seed
  and its draw-consumption pattern, isolating every SR stream;
* eviction is by **bytes-per-expected-hit** rather than pure LRU: the
  victim is the entry with the most bytes per recorded hit (ties break
  least-recently-used), so a large cold boundary is dropped before a
  small hot one that many configurations keep resuming from.

Exactness
---------

For the deterministic schemes (TRN/RTN/RTNE) every boundary activation
is a pure function of (batch, prefix wordlengths, scheme, scales) — all
fingerprinted — so a cache hit substitutes a bit-identical tensor.

Stochastic rounding threads one RNG stream through the evaluation, and
three properties keep prefix reuse exact (asserted by
``tests/test_staged_prefix.py``):

1. the stream *position* at any point depends only on how many draws
   each quantization site consumed — array shapes are fixed per batch,
   so the position depends on which sites are active, never on the
   wordlength values.  The fingerprint therefore includes the
   None-or-not pattern of **all** layers, and two matching plans
   traverse identical stream positions everywhere;
2. each cache entry stores the producer's RNG state at the boundary;
   restoring it on resume places the consumer at exactly the position
   an uninterrupted evaluation would have reached, so every downstream
   draw — and therefore every prediction — is unchanged;
3. each entry also carries the quantized prefix *weights*: weights are
   drawn lazily at first use, so a consumer that later computes a batch
   the cache no longer covers must reuse the producer's tensors instead
   of re-drawing them at the wrong stream position (the fingerprint
   match guarantees they are bit-identical to what the consumer's own
   uncached run would have produced).

A fourth property covers the scheme-free (fully-FP32) prefixes that
cross-scheme sharing introduces: such a prefix consumes **zero** draws,
so its boundary entries store no RNG state and no weights — an SR
consumer resuming there keeps its own stream untouched, exactly where
an uninterrupted evaluation would be, whatever scheme or seed produced
the entry.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.module import ForwardStage
from repro.quant.qcontext import (
    FixedPointQuant,
    act_scale_key,
    routing_scale_key,
)
from repro.quant.rounding import StochasticRounding

#: Default byte budget for boundary activations (enough for every batch
#: boundary of the laptop-scale models times a handful of live prefixes).
DEFAULT_PREFIX_CACHE_BYTES = 256 * 1024 * 1024


def _stage_token(
    stage: ForwardStage, context: FixedPointQuant
) -> Tuple:
    """What one stage's output depends on: the consumed config fields
    plus the calibration scales its hooks read."""
    spec = context.config[stage.layer]
    token: List[object] = [stage.name]
    for field in stage.fields:
        if field == "qw":
            token.append(("qw", spec.qw))
        elif field == "qa":
            token.append(
                ("qa", spec.qa, context.scales.get(act_scale_key(stage.layer)))
            )
        elif field == "qdr":
            prefix = routing_scale_key(stage.layer, "")
            routing_scales = tuple(
                (key, context.scales[key])
                for key in sorted(context.scales)
                if key.startswith(prefix)
            )
            token.append(("qdr", spec.effective_qdr(), routing_scales))
        else:  # pragma: no cover - guards stage definitions
            raise ValueError(f"unknown stage field '{field}'")
    return tuple(token)


def _stage_active(stage: ForwardStage, context: FixedPointQuant) -> bool:
    """Whether the stage quantizes anything under ``context``'s config
    (i.e. any consumed field carries an actual wordlength)."""
    spec = context.config[stage.layer]
    for field in stage.fields:
        value = spec.effective_qdr() if field == "qdr" else getattr(spec, field)
        if value is not None:
            return True
    return False


def prefix_activity(
    stages: Sequence[ForwardStage], context: FixedPointQuant
) -> Tuple[bool, ...]:
    """Entry ``k``: True iff any of stages ``0..k`` quantizes anything.

    An *inactive* prefix produces a pure-FP32 boundary activation: no
    rounding ran, no weights were quantized and (under stochastic
    rounding) no draws were consumed — which is what lets its cache
    entries be shared across schemes, seeds and SR streams.
    """
    flags: List[bool] = []
    active = False
    for stage in stages:
        active = active or _stage_active(stage, context)
        flags.append(active)
    return tuple(flags)


def _scheme_token(context: FixedPointQuant) -> Tuple:
    """Scheme identity as far as boundary activations depend on it.

    Deterministic schemes are stateless: their output is a pure
    function of (values, format, scheme), so the seed is omitted and
    equal configurations share compute boundaries across seeds.
    Stochastic rounding additionally fingerprints its seed and the
    active-site pattern of the whole configuration — the stream
    *position* at any point depends on the draw counts of every
    quantization site up-stream in evaluation order (including suffix
    sites of earlier batches), and sites are active iff their
    wordlength is set, so the pattern must match for two plans to
    share any prefix.  Two SR streams with different seeds or patterns
    can therefore never exchange entries.
    """
    scheme = context.scheme
    if not isinstance(scheme, StochasticRounding):
        return (type(scheme).__name__, scheme.name)
    config = context.config
    pattern = tuple(
        (spec.qw is None, spec.qa is None, spec.effective_qdr() is None)
        for spec in (config[name] for name in config.layer_names)
    )
    return (type(scheme).__name__, scheme.name, context.seed, pattern)


def stage_fingerprints(
    stages: Sequence[ForwardStage], context: FixedPointQuant
) -> Tuple[Tuple, ...]:
    """Per-stage prefix fingerprints for a quantization context.

    Entry ``k`` identifies everything the activation *after* stage ``k``
    depends on besides the input batch: two contexts with equal
    fingerprints at ``k`` produce bit-identical boundary activations
    there (see the module docstring for the stochastic-rounding
    argument).  Changing any consumed prefix field or a calibration
    scale changes the fingerprint and invalidates the prefix.

    The scheme token attaches from the first stage whose prefix
    actually quantizes something: fully-FP32 prefixes are scheme-free
    (shared across schemes and seeds), deterministic schemes omit the
    seed, and stochastic rounding carries seed + draw pattern — see
    :func:`prefix_activity` and the module docstring.
    """
    scheme_token = _scheme_token(context)
    activity = prefix_activity(stages, context)

    fingerprints = []
    prefix: List[Tuple] = []
    for stage, active in zip(stages, activity):
        prefix.append(_stage_token(stage, context))
        base = (
            (context.config.integer_bits, scheme_token)
            if active
            else (context.config.integer_bits,)
        )
        fingerprints.append((base, tuple(prefix)))
    return tuple(fingerprints)


class CacheEntry:
    """One cached stage boundary: activation + resume state.

    ``nbytes`` covers the activation array only; the carried weight
    tensors are shared across entries and accounted (deduplicated by
    identity) at the :class:`PrefixCache` level.  ``hits`` counts how
    often the entry was served — the signal behind the
    bytes-per-expected-hit eviction — and ``scheme`` records the
    producer's rounding scheme for cross-scheme hit attribution.
    """

    __slots__ = ("activation", "rng_state", "weights", "nbytes", "hits",
                 "scheme")

    def __init__(
        self,
        activation: np.ndarray,
        rng_state: Optional[dict],
        weights: Dict[Tuple[str, str, int], Tensor],
        scheme: str = "",
    ):
        self.activation = activation
        self.rng_state = rng_state
        self.weights = weights
        self.nbytes = int(activation.nbytes)
        self.hits = 0
        self.scheme = scheme


class PrefixCache:
    """Bytes-capped cache of stage-boundary activations.

    Keys are ``((split, batch_index), stage_index, prefix_fingerprint)``
    — the split component keeps one cache correct across evaluators
    with different test splits or batch sizes.  The byte accounting
    covers the activation arrays plus the carried quantized-weight
    tensors, the latter deduplicated by identity — every boundary of
    one configuration references the same weight tensors, and once the
    owning plan completes (or is evicted) the cache entries become
    their sole owners, so they must count against the cap exactly once.

    Eviction is by **bytes-per-expected-hit**: the victim maximizes
    ``nbytes / (1 + hits)``, ties breaking least-recently-used (lookup
    refreshes recency, as in an LRU).  A boundary many configurations
    resume from earns a low score and survives; a large entry nothing
    ever resumed from is the first to go.  With no recorded hits the
    policy degrades exactly to size-weighted LRU.

    Counters: ``hits`` / ``misses`` per lookup (:meth:`peek` is
    counter-neutral), ``cross_scheme_hits`` for hits whose entry was
    produced under a different rounding scheme than the consumer's
    (only scheme-free FP32 prefixes can match cross-scheme),
    ``evictions``, ``rejected`` and the live ``current_bytes``.

    ``max_bytes=0`` turns the cache off: it stores nothing, so every
    stage runs on every batch.
    """

    def __init__(self, max_bytes: int = DEFAULT_PREFIX_CACHE_BYTES):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        #: id(tensor) -> [reference count, nbytes] for carried weights.
        self._weight_refs: Dict[int, List[int]] = {}
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        #: Hits served to a consumer whose scheme differs from the
        #: producer's (scheme-free FP32 prefixes shared across branches).
        self.cross_scheme_hits = 0
        self.evictions = 0
        #: Entries refused because a single activation exceeds the cap.
        self.rejected = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _retain_weights(self, entry: CacheEntry) -> None:
        for tensor in entry.weights.values():
            ref = self._weight_refs.get(id(tensor))
            if ref is None:
                nbytes = int(tensor.data.nbytes)
                self._weight_refs[id(tensor)] = [1, nbytes]
                self.current_bytes += nbytes
            else:
                ref[0] += 1

    def _release_weights(self, entry: CacheEntry) -> None:
        for tensor in entry.weights.values():
            ref = self._weight_refs[id(tensor)]
            ref[0] -= 1
            if ref[0] == 0:
                del self._weight_refs[id(tensor)]
                self.current_bytes -= ref[1]

    def peek(self, key: Tuple) -> Optional[CacheEntry]:
        """Lookup without touching the counters or the LRU order.

        The executor probes several depths per batch run and records one
        hit or one miss for the run as a whole; per-probe counting would
        overstate misses by up to ``num_stages - 1``.
        """
        return self._entries.get(key)

    def get(self, key: Tuple, scheme: Optional[str] = None) -> Optional[CacheEntry]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        entry.hits += 1
        if scheme is not None and entry.scheme and entry.scheme != scheme:
            self.cross_scheme_hits += 1
        return entry

    def count_miss(self) -> None:
        """Record one miss for a probe sequence that found nothing."""
        self.misses += 1

    def put(self, key: Tuple, entry: CacheEntry) -> None:
        if entry.nbytes > self.max_bytes:
            self.rejected += 1
            return
        previous = self._entries.pop(key, None)
        if previous is not None:
            self.current_bytes -= previous.nbytes
            self._release_weights(previous)
        self._entries[key] = entry
        self.current_bytes += entry.nbytes
        self._retain_weights(entry)
        while self.current_bytes > self.max_bytes and len(self._entries) > 1:
            self._evict_worst(exclude=key)
        # Degenerate cap: the new entry alone may overflow with weights.
        if self.current_bytes > self.max_bytes and len(self._entries) == 1:
            self._evict_worst(exclude=None)

    #: Entries examined per eviction.  Scanning least-recent-first, a
    #: bounded window keeps eviction O(1) amortized on the store path
    #: (the full cache can hold thousands of boundaries) while still
    #: preferring big cold entries over small hot ones within the
    #: window — outside it, behaviour degrades gracefully toward LRU.
    EVICTION_SCAN = 32

    def _evict_worst(self, exclude: Optional[Tuple]) -> None:
        """Drop the entry with the most bytes per expected hit.

        The scan walks the first :data:`EVICTION_SCAN` entries in
        recency order (least recent first) with a strict comparison, so
        ties fall to the least-recently-used entry — with an all-cold
        cache this is plain size-weighted LRU.  The just-inserted key
        is excluded while alternatives exist.
        """
        victim_key = None
        victim_score = -1.0
        for key, entry in islice(self._entries.items(), self.EVICTION_SCAN):
            if key == exclude:
                continue
            score = entry.nbytes / (1.0 + entry.hits)
            if score > victim_score:
                victim_key, victim_score = key, score
        if victim_key is None:  # only the excluded entry remains
            victim_key = exclude
        victim = self._entries.pop(victim_key)
        self.current_bytes -= victim.nbytes
        self._release_weights(victim)
        self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._weight_refs.clear()
        self.current_bytes = 0


class StagedExecutor:
    """Runs a staged model, resuming from cached prefix activations.

    Parameters
    ----------
    model:
        Model exposing a ``stages()`` decomposition (ShallowCaps,
        DeepCaps, LeNet5).
    max_bytes:
        Byte cap of the boundary-activation LRU (``0``: cache off).

    The executor serves *all* plans of one
    :class:`~repro.framework.evaluate.Evaluator`: the cache is
    shared across configurations, which is where the savings come from —
    a probe differing from an already-evaluated config only in layer
    ``k`` resumes every batch from the cached boundary ``k-1`` and only
    recomputes stages ``k..L``.

    One executor may further be shared by *several* evaluators over the
    same model — the per-scheme frameworks of the Sec. III-B selection
    sweep, the budget grid of a memory sweep, or evaluators over
    different test splits.  Each evaluator passes its ``split`` token to
    :meth:`run`, keeping batches of different splits apart, while the
    scheme-aware fingerprints decide what may be shared across the
    evaluators (see :func:`stage_fingerprints`).

    Fingerprints cover the quantization state, not the parameter
    values; parameter mutation is tracked through the model's
    ``weight_version`` token instead (bumped by ``load_state_dict`` and
    the training loops — see :meth:`repro.nn.module.Module.
    bump_weight_version`).  Every :meth:`run` compares the model's
    current version against the one the cache was filled under and
    clears stale boundaries automatically, so a fine-tuning pass (or a
    ``load``) between evaluations can never serve pre-mutation
    activations.  Note this covers the executor only: evaluators keep
    their own weight-derived memos, which the session layer invalidates
    on the same token.
    """

    def __init__(
        self,
        model,
        max_bytes: int = DEFAULT_PREFIX_CACHE_BYTES,
    ):
        stages = getattr(model, "stages", None)
        if not callable(stages):
            raise TypeError(
                f"{type(model).__name__} has no stages() decomposition"
            )
        self.model = model
        self.stage_list: List[ForwardStage] = list(stages())
        if not self.stage_list:
            raise ValueError("stages() returned an empty decomposition")
        self.stage_names = [stage.name for stage in self.stage_list]
        #: Quantization layers touched by stages 0..k (weight-snapshot
        #: scope of the boundary after stage k).
        self._prefix_layers: List[frozenset] = []
        seen: set = set()
        for stage in self.stage_list:
            seen.add(stage.layer)
            self._prefix_layers.append(frozenset(seen))
        self.cache = PrefixCache(max_bytes)
        #: Model weight version the cache contents were produced under.
        self._weight_version = getattr(model, "weight_version", 0)
        #: Cache clears forced by an observed parameter mutation.
        self.weight_invalidations = 0
        #: Stage callables actually run (the bench's headline metric).
        self.stage_executions = 0
        #: Stage callables skipped by resuming from a cached boundary.
        self.stages_skipped = 0
        #: Batch runs served at least partially from the cache.
        self.resumes = 0
        #: Total batch runs.
        self.runs = 0
        self.executed_by_stage: Dict[str, int] = {
            name: 0 for name in self.stage_names
        }
        self.skipped_by_stage: Dict[str, int] = {
            name: 0 for name in self.stage_names
        }

    @property
    def num_stages(self) -> int:
        return len(self.stage_list)

    def fingerprints(self, context: FixedPointQuant) -> Tuple[Tuple, ...]:
        """Per-stage fingerprints for ``context`` (memoized on it —
        plan contexts snapshot their config, so the result is stable)."""
        cached = getattr(context, "_stage_fingerprints", None)
        if cached is None:
            cached = stage_fingerprints(self.stage_list, context)
            context._stage_fingerprints = cached
        return cached

    def activity(self, context: FixedPointQuant) -> Tuple[bool, ...]:
        """Per-stage prefix-activity flags for ``context`` (memoized)."""
        cached = getattr(context, "_stage_prefix_active", None)
        if cached is None:
            cached = prefix_activity(self.stage_list, context)
            context._stage_prefix_active = cached
        return cached

    def run(
        self,
        batch_index: int,
        x: Tensor,
        context: FixedPointQuant,
        split: Optional[Tuple] = None,
    ) -> Tensor:
        """Forward ``x`` (batch ``batch_index`` of the calling
        evaluator's ``split``) through the stages, resuming from the
        deepest cached boundary whose prefix fingerprint matches
        ``context``.  ``split`` namespaces the batch index when several
        evaluators share this executor; a lone evaluator may omit it.
        """
        self._check_weight_version()
        fps = self.fingerprints(context)
        batch_key = (split, batch_index)
        self.runs += 1
        start = 0
        current = x
        for k in range(self.num_stages - 1, -1, -1):
            # peek() keeps the probe loop counter-neutral; the get()
            # below records the single hit (and refreshes recency).
            if self.cache.peek((batch_key, k, fps[k])) is None:
                continue
            entry = self.cache.get(
                (batch_key, k, fps[k]), scheme=context.scheme.name
            )
            if entry is not None:
                current = Tensor(entry.activation)
                context.merge_weight_cache(entry.weights)
                if entry.rng_state is not None and isinstance(
                    context.scheme, StochasticRounding
                ):
                    context.scheme.set_state(entry.rng_state)
                start = k + 1
                self.resumes += 1
                self.stages_skipped += start
                for name in self.stage_names[:start]:
                    self.skipped_by_stage[name] += 1
                break
        else:
            self.cache.count_miss()
        for k in range(start, self.num_stages):
            stage = self.stage_list[k]
            current = stage.fn(current, context)
            self.stage_executions += 1
            self.executed_by_stage[stage.name] += 1
            self._store(batch_key, k, fps[k], current, context)
        return current

    def _check_weight_version(self) -> None:
        """Drop every cached boundary if the model's weights mutated.

        Boundary activations (and the carried quantized-weight tensors)
        are functions of the parameter values, which the fingerprints
        deliberately do not hash; the model's ``weight_version`` token
        stands in for them.  Clearing — rather than keying — keeps
        pre-mutation entries from wasting the byte budget: they could
        never be served again.
        """
        version = getattr(self.model, "weight_version", 0)
        if version != self._weight_version:
            self._weight_version = version
            self.cache.clear()
            self.weight_invalidations += 1

    def _store(
        self,
        batch_key: Tuple,
        stage_index: int,
        fingerprint: Tuple,
        activation: Tensor,
        context: FixedPointQuant,
    ) -> None:
        if self.cache.max_bytes == 0:
            return  # cache off: skip building an entry put() would refuse
        # A scheme-free (fully-FP32) prefix consumed no draws and
        # quantized no weights: store no RNG state so a consumer from a
        # *different* SR stream resuming here keeps its own position.
        prefix_active = self.activity(context)[stage_index]
        rng_state = (
            context.scheme.get_state()
            if prefix_active and isinstance(context.scheme, StochasticRounding)
            else None
        )
        weights = (
            context.weight_cache_snapshot(self._prefix_layers[stage_index])
            if prefix_active
            else {}
        )
        # The producer scheme is attribution metadata only — matching is
        # entirely decided by the fingerprint in the key, so recording
        # it on scheme-free entries is what lets cross-scheme hits be
        # counted (they are the only entries that *can* match another
        # scheme's consumer).
        self.cache.put(
            (batch_key, stage_index, fingerprint),
            CacheEntry(
                activation.data, rng_state, weights,
                scheme=context.scheme.name,
            ),
        )

    def stats(self) -> Dict[str, object]:
        """Counter snapshot for logs, benchmarks and result objects."""
        return {
            "runs": self.runs,
            "resumes": self.resumes,
            "stage_executions": self.stage_executions,
            "stages_skipped": self.stages_skipped,
            "executed_by_stage": dict(self.executed_by_stage),
            "skipped_by_stage": dict(self.skipped_by_stage),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_cross_scheme_hits": self.cache.cross_scheme_hits,
            "cache_entries": len(self.cache),
            "cache_bytes": self.cache.current_bytes,
            "cache_evictions": self.cache.evictions,
            "weight_invalidations": self.weight_invalidations,
        }
