"""Tests for the staged forward engine and prefix-reuse cache.

The contract is *exactness*: with the prefix cache on, every accuracy
and floor verdict must be bit-identical to both the cache-off evaluator
(``prefix_cache_bytes=0``) and a whole-model full-split reference
evaluation — for all four rounding schemes,
including stochastic rounding resumed across cached prefixes — while
strictly fewer stage callables execute.  The cache itself must bound
its bytes (LRU eviction) and invalidate prefixes when bits, scheme,
seed or calibration scales change.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, no_grad
from repro.baselines.lenet import LeNet5
from repro.capsnet import DeepCaps, ShallowCaps, presets
from repro.engine import (
    DEFAULT_PREFIX_CACHE_BYTES,
    PrefixCache,
    StagedExecutor,
    config_signature,
    stage_fingerprints,
)
from repro.engine.staged import CacheEntry
from repro.framework import Evaluator, QCapsNets
from repro.nn.module import ForwardStage
from repro.nn.trainer import evaluate_accuracy
from repro.quant import QuantizationConfig, get_rounding_scheme
from repro.quant.qcontext import NULL_CONTEXT, FixedPointQuant

LAYERS = ["L1", "L2", "L3"]
SCHEMES = ("TRN", "RTN", "RTNE", "SR")


def _uniform(qw, qa=None, qdr=None):
    return QuantizationConfig.uniform(
        LAYERS, qw=qw, qa=qa if qa is not None else qw, qdr=qdr
    )


def _evaluator(model, test, scheme, **kwargs):
    return Evaluator(
        model, test.images, test.labels,
        get_rounding_scheme(scheme, seed=0), batch_size=32, **kwargs,
    )


def _reference(evaluator, config):
    """Whole-model full-split accuracy of ``config`` (no executor)."""
    return evaluate_accuracy(
        evaluator.model, evaluator.images, evaluator.labels,
        batch_size=evaluator.batch_size, q=evaluator.quant_context(config),
    )


def _probe_configs():
    """A step of configs that share progressively shorter prefixes."""
    base = _uniform(8)
    tail_qdr = _uniform(8)
    tail_qdr.set_qdr("L3", 3)          # prefix L1, L2 shared with base
    tail_qa = _uniform(8)
    tail_qa.set_qa("L3", 4)            # prefix L1, L2 shared with base
    mid = _uniform(8)
    mid.set_qa("L2", 4)
    mid.set_qa("L3", 4)                # prefix L1 shared with base
    head = _uniform(4)                 # nothing shared
    return [base, tail_qdr, tail_qa, mid, head]


# ----------------------------------------------------------------------
# stages() decomposition
# ----------------------------------------------------------------------
class TestStagesDecomposition:
    @pytest.mark.parametrize(
        "model, input_shape",
        [
            (ShallowCaps(presets.shallowcaps_tiny()), (2, 1, 14, 14)),
            (
                DeepCaps(presets.deepcaps_small(input_channels=1, input_size=28)),
                (2, 1, 28, 28),
            ),
            (LeNet5(), (2, 1, 28, 28)),
        ],
        ids=["shallow", "deep", "lenet"],
    )
    def test_fold_matches_forward(self, model, input_shape):
        """Manually folding the stages reproduces forward() exactly."""
        model.eval()
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal(input_shape).astype(np.float32))
        stages = model.stages()
        # Stage layers cover the quantization layers, in order.
        layers = [s.layer for s in stages]
        assert sorted(set(layers), key=layers.index) == list(model.quant_layers)
        names = [s.name for s in stages]
        assert len(set(names)) == len(names)  # unique stage identifiers
        with no_grad():
            expected = model(x)
            current = x
            for stage in stages:
                current = stage.fn(current, NULL_CONTEXT)
        np.testing.assert_array_equal(current.data, expected.data)

    def test_stage_gradients_flow(self):
        """forward-as-fold keeps the model trainable end to end."""
        model = ShallowCaps(presets.shallowcaps_tiny())
        x = Tensor(np.random.default_rng(0).standard_normal(
            (2, 1, 14, 14)).astype(np.float32))
        out = model(x)
        out.sum().backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).sum() > 0 for g in grads)


# ----------------------------------------------------------------------
# Bit-identical accuracy, cache on / off / naive, all schemes
# ----------------------------------------------------------------------
class TestBitIdenticalAcrossSchemes:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cache_on_off_naive_identical(self, trained_tiny, tiny_data, scheme):
        _, test = tiny_data
        on = _evaluator(trained_tiny, test, scheme)
        off = _evaluator(trained_tiny, test, scheme, prefix_cache_bytes=0)
        for config in _probe_configs():
            assert (
                on.accuracy(config)
                == off.accuracy(config)
                == _reference(on, config)
            ), scheme
        executor = on.executor
        # The step of configs shares prefixes, so reuse must happen...
        assert executor.stages_skipped > 0
        # ...and the cached run must do strictly less stage work.
        assert executor.stage_executions < off.executor.stage_executions

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_floor_verdicts_identical(self, trained_tiny, tiny_data, scheme):
        _, test = tiny_data
        on = _evaluator(trained_tiny, test, scheme)
        floors = [5.0, 40.0, 75.0, 99.0]
        for config in _probe_configs():
            exact = _reference(on, config)
            for floor in floors:
                assert on.meets_floor(config, floor) == (exact >= floor)


class TestStochasticRoundingResume:
    def test_sr_deterministic_across_resumed_prefixes(
        self, trained_tiny, tiny_data
    ):
        """A partial SR evaluation resumed over cached prefixes — with
        other configs interleaved in between — must equal a monolithic
        uncached run bit for bit."""
        _, test = tiny_data
        on = _evaluator(trained_tiny, test, "SR")
        base, tail = _uniform(8), _uniform(8)
        tail.set_qa("L3", 4)
        on.accuracy(base)                  # populate prefix boundaries
        assert on.meets_floor(tail, 5.0)   # partial run, resumes prefixes
        on.accuracy(_uniform(3))           # interleave an unrelated config
        resumed = on.accuracy(tail)        # finish the partial plan
        assert on.executor.stages_skipped > 0
        assert resumed == _reference(on, tail)

    def test_sr_prefix_weights_survive_cache_misses(
        self, trained_tiny, tiny_data
    ):
        """With a cache too small to hold every boundary, a consumer that
        resumed some batches from the cache but must recompute others
        still matches the uncached run (the entry-carried prefix weights
        prevent re-drawing at a wrong stream position)."""
        _, test = tiny_data
        on = _evaluator(
            trained_tiny, test, "SR", prefix_cache_bytes=64 * 1024,
        )
        for config in _probe_configs():
            assert on.accuracy(config) == _reference(on, config)
        assert on.executor.cache.evictions > 0


# ----------------------------------------------------------------------
# LRU byte-cap behaviour
# ----------------------------------------------------------------------
class TestPrefixCacheLRU:
    def _entry(self, kbytes):
        data = np.zeros(kbytes * 256, dtype=np.float32)  # kbytes KiB
        return CacheEntry(data, None, {})

    def test_eviction_under_byte_cap(self):
        cache = PrefixCache(max_bytes=10 * 1024)
        for index in range(4):
            cache.put((0, 0, index), self._entry(4))  # 4 KiB each
        # 10 KiB cap holds two 4-KiB entries; the two oldest were evicted.
        assert len(cache) == 2
        assert cache.evictions == 2
        assert cache.current_bytes == 2 * 4 * 1024
        assert cache.get((0, 0, 0)) is None
        assert cache.get((0, 0, 1)) is None
        assert cache.get((0, 0, 2)) is not None
        assert cache.get((0, 0, 3)) is not None
        assert cache.hits == 2 and cache.misses == 2

    def test_lru_order_refreshed_by_hits(self):
        cache = PrefixCache(max_bytes=10 * 1024)
        cache.put((0, 0, "a"), self._entry(4))
        cache.put((0, 0, "b"), self._entry(4))
        assert cache.get((0, 0, "a")) is not None  # refresh "a"
        cache.put((0, 0, "c"), self._entry(4))     # evicts "b", not "a"
        assert cache.get((0, 0, "a")) is not None
        assert cache.get((0, 0, "b")) is None

    def test_oversized_entry_rejected(self):
        cache = PrefixCache(max_bytes=1024)
        cache.put((0, 0, "big"), self._entry(4))
        assert len(cache) == 0
        assert cache.rejected == 1
        assert cache.current_bytes == 0

    def test_replacement_updates_bytes(self):
        cache = PrefixCache(max_bytes=64 * 1024)
        cache.put((0, 0, "k"), self._entry(4))
        cache.put((0, 0, "k"), self._entry(8))
        assert len(cache) == 1
        assert cache.current_bytes == 8 * 1024

    def test_weight_bytes_counted_once_and_released(self):
        """Carried weight tensors count against the cap exactly once
        (every boundary of one config shares them) and are released
        when the last referencing entry is evicted."""
        cache = PrefixCache(max_bytes=64 * 1024)
        shared = Tensor(np.zeros(1024, dtype=np.float32))  # 4 KiB
        entry_a = CacheEntry(
            np.zeros(256, dtype=np.float32), None, {("L1", "w", 8): shared}
        )
        entry_b = CacheEntry(
            np.zeros(256, dtype=np.float32), None, {("L1", "w", 8): shared}
        )
        cache.put((0, 0, "fp"), entry_a)
        cache.put((1, 0, "fp"), entry_b)
        # 2 activations (1 KiB each) + one shared weight tensor (4 KiB).
        assert cache.current_bytes == 2 * 1024 + 4 * 1024
        cache.put((0, 0, "fp"), self._entry(1))  # replace entry_a
        assert cache.current_bytes == 2 * 1024 + 4 * 1024
        cache.put((1, 0, "fp"), self._entry(1))  # last reference dropped
        assert cache.current_bytes == 2 * 1024

    def test_weight_bytes_drive_eviction(self):
        cache = PrefixCache(max_bytes=10 * 1024)
        for index in range(3):
            own = Tensor(np.zeros(1024, dtype=np.float32))  # 4 KiB each
            entry = CacheEntry(
                np.zeros(64, dtype=np.float32), None, {("L", "w", index): own}
            )
            cache.put((index, 0, "fp"), entry)
        assert cache.evictions > 0
        assert cache.current_bytes <= cache.max_bytes

    def test_bytes_per_expected_hit_prefers_big_cold_entries(self):
        """A large never-hit entry is evicted before a smaller entry
        that configurations keep resuming from — even though the hot
        entry is older (pure LRU would evict it first)."""
        cache = PrefixCache(max_bytes=13 * 1024)
        cache.put((0, 0, "hot"), self._entry(4))
        for _ in range(3):
            assert cache.get((0, 0, "hot")) is not None
        cache.put((0, 0, "cold"), self._entry(8))   # larger, never hit,
        # and more *recent* than hot's last touch — LRU would evict hot.
        cache.put((0, 0, "new"), self._entry(4))    # forces one eviction
        assert cache.get((0, 0, "cold")) is None    # big & cold: evicted
        assert cache.get((0, 0, "hot")) is not None
        assert cache.get((0, 0, "new")) is not None
        assert cache.evictions == 1

    def test_hit_counts_break_size_ties(self):
        """Equal sizes: the entry with fewer recorded hits goes first;
        with equal hits the policy degrades to LRU (see
        test_lru_order_refreshed_by_hits)."""
        cache = PrefixCache(max_bytes=10 * 1024)
        cache.put((0, 0, "a"), self._entry(4))
        cache.put((0, 0, "b"), self._entry(4))
        assert cache.get((0, 0, "b")) is not None   # "b" newer AND hotter
        assert cache.get((0, 0, "a")) is not None
        assert cache.get((0, 0, "b")) is not None
        cache.put((0, 0, "c"), self._entry(4))
        assert cache.get((0, 0, "a")) is None       # fewest hits: evicted
        assert cache.get((0, 0, "b")) is not None

    def test_cross_scheme_hits_attributed(self):
        entry = CacheEntry(np.zeros(16, dtype=np.float32), None, {},
                           scheme="TRN")
        cache = PrefixCache(max_bytes=1024)
        cache.put((0, 0, "fp"), entry)
        assert cache.get((0, 0, "fp"), scheme="TRN") is not None
        assert cache.cross_scheme_hits == 0
        assert cache.get((0, 0, "fp"), scheme="RTN") is not None
        assert cache.cross_scheme_hits == 1
        assert entry.hits == 2

    def test_single_miss_per_probe_sequence(self, trained_tiny, tiny_data):
        """The executor's deepest-first probing records one hit or one
        miss per batch run, not one per probed depth."""
        _, test = tiny_data
        on = _evaluator(trained_tiny, test, "RTN")
        on.accuracy(_uniform(8))          # all misses: nothing cached yet
        cache = on.executor.cache
        num_batches = on.num_batches
        assert cache.misses == num_batches
        assert cache.hits == 0
        tail = _uniform(8)
        tail.set_qa("L3", 4)
        on.accuracy(tail)                 # every batch resumes once
        assert cache.hits == num_batches
        assert cache.misses == num_batches

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            PrefixCache(max_bytes=-1)

    def test_zero_cap_stores_nothing(self):
        cache = PrefixCache(max_bytes=0)
        cache.put((0, 0, "a"), self._entry(1))
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.get((0, 0, "a")) is None

    def test_cache_off_runs_every_stage(self, trained_tiny, tiny_data):
        """``prefix_cache_bytes=0``: every batch runs every stage, with
        the accuracies of the default cap."""
        _, test = tiny_data
        on = _evaluator(trained_tiny, test, "RTN")
        off = _evaluator(trained_tiny, test, "RTN", prefix_cache_bytes=0)
        for config in _probe_configs():
            assert off.accuracy(config) == on.accuracy(config)
        assert off.executor.stage_executions == (
            off.batches_evaluated * len(trained_tiny.stages())
        )
        assert off.executor.stages_skipped == 0
        assert len(off.executor.cache) == 0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_cache_off_builds_no_entries(
        self, trained_tiny, tiny_data, scheme, monkeypatch
    ):
        """At ``prefix_cache_bytes=0`` no entry is built for the cache
        to refuse: the prefix weight snapshot is never taken, and the
        accuracies are those of the default cap."""
        _, test = tiny_data
        on = _evaluator(trained_tiny, test, scheme)
        expected = [on.accuracy(config) for config in _probe_configs()]

        def refuse(self, layers):
            raise AssertionError("weight snapshot taken with the cache off")

        monkeypatch.setattr(FixedPointQuant, "weight_cache_snapshot", refuse)
        off = _evaluator(trained_tiny, test, scheme, prefix_cache_bytes=0)
        assert [off.accuracy(config) for config in _probe_configs()] == (
            expected
        )
        assert off.executor.stage_executions == (
            off.batches_evaluated * len(trained_tiny.stages())
        )


# ----------------------------------------------------------------------
# Fingerprint semantics
# ----------------------------------------------------------------------
#: Synthetic ShallowCaps-shaped stage list (fn unused by fingerprints):
#: compute + activation-quantization step per layer, routed L3 fused.
STAGES = [
    ForwardStage("L1", ("qw",), None),
    ForwardStage("L1", ("qa",), None, tag="act"),
    ForwardStage("L2", ("qw",), None),
    ForwardStage("L2", ("qa",), None, tag="act"),
    ForwardStage("L3", ("qw", "qa", "qdr"), None),
]
#: Stage indices of notable boundaries.
L1_ACT, L2_COMPUTE, L2_ACT, L3 = 1, 2, 3, 4


class TestFingerprints:
    def _context(self, config, scheme="RTN", seed=0, scales=None):
        context = FixedPointQuant(
            config, get_rounding_scheme(scheme, seed=seed),
            seed=seed, scales=scales,
        )
        context.reset()
        return context

    def test_suffix_change_keeps_prefix(self):
        a = self._context(_uniform(8))
        mutated = _uniform(8)
        mutated.set_qa("L3", 4)
        b = self._context(mutated)
        fa = stage_fingerprints(STAGES, a)
        fb = stage_fingerprints(STAGES, b)
        assert fa[:L3] == fb[:L3]  # everything before L3 shared
        assert fa[L3] != fb[L3]    # routed L3 boundary invalidated

    def test_qa_change_keeps_compute_boundary(self):
        """An activation-bits-only change reuses the layer's own
        compute output and invalidates only the quantize step on."""
        mutated = _uniform(8)
        mutated.set_qa("L2", 4)
        fa = stage_fingerprints(STAGES, self._context(_uniform(8)))
        fb = stage_fingerprints(STAGES, self._context(mutated))
        assert fa[L2_COMPUTE] == fb[L2_COMPUTE]
        assert fa[L2_ACT] != fb[L2_ACT]

    def test_qdr_change_invalidates_its_layer(self):
        mutated = _uniform(8)
        mutated.set_qdr("L3", 2)
        fa = stage_fingerprints(STAGES, self._context(_uniform(8)))
        fb = stage_fingerprints(STAGES, self._context(mutated))
        assert fa[L2_ACT] == fb[L2_ACT] and fa[L3] != fb[L3]

    def test_scheme_invalidates_quantized_prefixes(self):
        base = stage_fingerprints(STAGES, self._context(_uniform(8)))
        other_scheme = stage_fingerprints(
            STAGES, self._context(_uniform(8), scheme="TRN")
        )
        for k in range(len(STAGES)):
            assert base[k] != other_scheme[k]

    def test_deterministic_schemes_share_across_seeds(self):
        """TRN/RTN/RTNE output cannot depend on the seed, so equal
        configs share compute boundaries across seeds; SR streams with
        different seeds must never share."""
        base = stage_fingerprints(STAGES, self._context(_uniform(8)))
        other_seed = stage_fingerprints(
            STAGES, self._context(_uniform(8), seed=7)
        )
        assert base == other_seed
        sr_base = stage_fingerprints(
            STAGES, self._context(_uniform(8), scheme="SR")
        )
        sr_other = stage_fingerprints(
            STAGES, self._context(_uniform(8), scheme="SR", seed=7)
        )
        for k in range(len(STAGES)):
            assert sr_base[k] != sr_other[k]

    def test_fp32_prefixes_are_scheme_free(self):
        """Stages before the first active quantization site produce
        FP32 activations — shareable across schemes and seeds; from the
        first active stage on, the scheme token attaches."""
        config = QuantizationConfig.uniform(LAYERS)  # all-FP32
        config.set_qa("L2", 4)  # first active site: L2's act step
        rtn = stage_fingerprints(STAGES, self._context(config.clone()))
        trn = stage_fingerprints(
            STAGES, self._context(config.clone(), scheme="TRN")
        )
        sr = stage_fingerprints(
            STAGES, self._context(config.clone(), scheme="SR", seed=3)
        )
        for k in (0, L2_COMPUTE):  # inactive prefix: shared by everyone
            assert rtn[k] == trn[k] == sr[k]
        for k in (L2_ACT, L3):     # active prefix: per-scheme
            assert rtn[k] != trn[k]
            assert rtn[k] != sr[k]

    def test_scales_invalidate_their_consumer_only(self):
        base = stage_fingerprints(
            STAGES, self._context(_uniform(8), scales={"a:L2": 2.0})
        )
        changed = stage_fingerprints(
            STAGES, self._context(_uniform(8), scales={"a:L2": 4.0})
        )
        assert base[L2_COMPUTE] == changed[L2_COMPUTE]  # compute untouched
        assert base[L2_ACT] != changed[L2_ACT]          # its consumer on
        assert base[L3] != changed[L3]

    def test_routing_scales_invalidate_routed_stage(self):
        base = stage_fingerprints(
            STAGES, self._context(_uniform(8), scales={"r:L3:logits": 2.0})
        )
        changed = stage_fingerprints(
            STAGES, self._context(_uniform(8), scales={"r:L3:logits": 4.0})
        )
        assert base[L2_ACT] == changed[L2_ACT]
        assert base[L3] != changed[L3]

    def test_sr_active_site_pattern_guards_sharing(self):
        """SR prefixes must not be shared across configs whose active
        quantization sites differ — stream positions would diverge."""
        qa_none = QuantizationConfig.uniform(LAYERS, qw=8, qa=None)
        qa_none_b = QuantizationConfig.uniform(LAYERS, qw=8, qa=None)
        qa_set = _uniform(8)
        qa_set.set_qa("L3", None)
        fa = stage_fingerprints(STAGES, self._context(qa_none, scheme="SR"))
        fb = stage_fingerprints(STAGES, self._context(qa_set, scheme="SR"))
        fc = stage_fingerprints(STAGES, self._context(qa_none_b, scheme="SR"))
        assert fa[0] != fb[0]  # suffix pattern differs → no prefix sharing
        assert fa[0] == fc[0]  # identical configs still share


# ----------------------------------------------------------------------
# Executor plumbing
# ----------------------------------------------------------------------
class TestStagedExecutor:
    def test_requires_stages(self):
        class NoStages:
            pass

        with pytest.raises(TypeError):
            StagedExecutor(NoStages())

    def test_counters_and_stats(self, trained_tiny, tiny_data):
        _, test = tiny_data
        on = _evaluator(trained_tiny, test, "RTN")
        on.accuracy(_uniform(8))
        tail = _uniform(8)
        tail.set_qa("L3", 4)
        on.accuracy(tail)
        stats = on.executor.stats()
        num_batches = on.num_batches
        num_stages = len(trained_tiny.stages())
        assert stats["runs"] == 2 * num_batches
        assert stats["resumes"] == num_batches  # every batch of config #2
        assert stats["stage_executions"] + stats["stages_skipped"] == (
            2 * num_batches * num_stages
        )
        # Config #2 only changed L3's qa: everything before the routed
        # L3 step is resumed from the cache.
        for name in ("L1", "L1:act", "L2", "L2:act"):
            assert stats["skipped_by_stage"][name] == num_batches
        assert stats["skipped_by_stage"]["L3"] == 0
        assert stats["cache_bytes"] > 0


class TestWeightMutationInvalidation:
    """Regression: the executor assumed a frozen model, so an in-place
    parameter mutation (fine-tuning, ``load_state_dict``) between runs
    served stale boundary activations.  The model's ``weight_version``
    token now clears the cache automatically."""

    def _run(self, executor, images, config, scheme="RTN"):
        context = FixedPointQuant(config, get_rounding_scheme(scheme, seed=0))
        context.reset()
        with no_grad():
            return executor.run(0, Tensor(images), context)

    def test_mutation_invalidates_warm_cache(self, trained_tiny, tiny_data):
        _, test = tiny_data
        model = ShallowCaps(presets.shallowcaps_tiny())
        model.load_state_dict(trained_tiny.state_dict())
        model.eval()
        images = test.images[:16]
        config = _uniform(6)

        executor = StagedExecutor(model)
        before = self._run(executor, images, config)
        assert len(executor.cache) > 0

        # In-place mutation, exactly like a fine-tuning pass would do.
        state = {
            key: value * np.float32(0.5)
            for key, value in model.state_dict().items()
        }
        model.load_state_dict(state)

        warm = self._run(executor, images, config)
        cold = self._run(StagedExecutor(model), images, config)
        assert executor.weight_invalidations == 1
        assert executor.stats()["weight_invalidations"] == 1
        assert np.array_equal(warm.data, cold.data)
        assert not np.array_equal(warm.data, before.data)

    def test_repeat_runs_without_mutation_stay_cached(
        self, trained_tiny, tiny_data
    ):
        _, test = tiny_data
        trained_tiny.eval()
        executor = StagedExecutor(trained_tiny)
        config = _uniform(6)
        self._run(executor, test.images[:16], config)
        self._run(executor, test.images[:16], config)
        trained_tiny.train()
        assert executor.weight_invalidations == 0
        assert executor.resumes == 1  # second run fully resumed

    def test_bump_weight_version_is_recursive(self, trained_tiny):
        before = trained_tiny.conv1.weight_version
        root = trained_tiny.bump_weight_version()
        assert trained_tiny.weight_version == root
        assert trained_tiny.conv1.weight_version == before + 1


# ----------------------------------------------------------------------
# Full search equivalence
# ----------------------------------------------------------------------
class TestSearchEquivalenceWithPrefixCache:
    @pytest.mark.parametrize(
        "budget_mbit, scheme", [(0.12, "RTN"), (0.02, "RTN"), (0.12, "SR")]
    )
    def test_identical_results_fewer_stages(
        self, trained_tiny, tiny_data, budget_mbit, scheme
    ):
        _, test = tiny_data

        def run(prefix_cache_bytes):
            return QCapsNets.build(
                trained_tiny, test.images, test.labels,
                accuracy_tolerance=0.03, memory_budget_mbit=budget_mbit,
                scheme=scheme, batch_size=32,
                staged_executor=StagedExecutor(
                    trained_tiny, max_bytes=prefix_cache_bytes
                ),
            ).run()

        cached = run(DEFAULT_PREFIX_CACHE_BYTES)
        plain = run(0)
        assert cached.path == plain.path
        assert set(cached.models()) == set(plain.models())
        for name, model in plain.models().items():
            other = cached.models()[name]
            assert config_signature(other.config) == config_signature(
                model.config
            ), name
            assert other.accuracy == model.accuracy, name
        # Same probes, same batches — only the per-batch stage work drops.
        assert cached.batches_evaluated == plain.batches_evaluated
        total = lambda result, key: sum(  # noqa: E731
            phase[key] for phase in result.phase_stats.values()
        )
        assert total(cached, "stages_skipped") > 0
        assert total(cached, "stage_executions") < total(
            plain, "stage_executions"
        )
