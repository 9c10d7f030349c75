"""Tests for the multi-tenant serving daemon (repro.serve).

The serving acceptance criteria:

* the daemon serves two artifacts concurrently, and every response is
  bit-identical to an offline ``Session.predict`` on the same images;
* concurrent requests for one tenant coalesce into shared forwards
  (micro-batching) and the responses are split back per request;
* invalid payloads (empty batches, non-float32 data, wrong shapes,
  non-finite pixels, pixels outside an int tenant's certified input
  range, unknown tenants, malformed JSON) return 4xx responses, never a
  crash, and never fail the other requests of a coalesced batch;
* cold tenants beyond ``max_warm`` are evicted and transparently
  re-bound on their next request.
"""

import base64
import http.client
import json
import sys
import threading
import time
import urllib.request
from concurrent.futures import wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ModelArtifact, QuantSpec, Session
from repro.quant import (
    QuantizationConfig,
    QuantizedCapsNet,
    calibrate_scales,
    get_rounding_scheme,
)
from repro.serve import (
    Client,
    MicroBatcher,
    ModelRegistry,
    RegistryError,
    RequestError,
    ServeError,
    ServingDaemon,
    validate_images,
)


_pixels = st.one_of(
    st.floats(width=32), st.floats(), st.integers(), st.booleans(),
    st.none(), st.text(max_size=2),
)
_dims = st.one_of(
    st.integers(-2, 3), st.booleans(), st.floats(0, 3), st.just(2**62),
)


@st.composite
def _b64_batches(draw):
    """An ``images_b64``/``shape`` pair whose byte count matches."""
    shape = draw(st.lists(st.integers(1, 2), min_size=3, max_size=4))
    count = int(np.prod(shape))
    pixels = draw(st.lists(
        st.floats(width=32), min_size=count, max_size=count,
    ))
    raw = np.asarray(pixels, dtype="<f4").tobytes()
    return {"images_b64": base64.b64encode(raw).decode(), "shape": shape}


def _predict_bodies():
    """Predict bodies: either form, both, neither, or broken."""
    loose = st.fixed_dictionaries({}, optional={
        "images": st.recursive(
            _pixels, lambda inner: st.lists(inner, max_size=3),
            max_leaves=24,
        ),
        "images_b64": st.one_of(
            st.binary(max_size=48).map(
                lambda raw: base64.b64encode(raw).decode()
            ),
            st.text(max_size=12),
            st.integers(),
        ),
        "shape": st.one_of(
            st.lists(_dims, max_size=5), st.none(), st.text(max_size=4),
        ),
        "dtype": st.sampled_from(["float32", "float64", None]),
    })
    return st.one_of(loose, _b64_batches())


def _count_connects(monkeypatch):
    """Record every TCP connect an ``http.client`` connection makes."""
    connects = []
    connect = http.client.HTTPConnection.connect

    def counting(self):
        connects.append(self.host)
        connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return connects


def _artifact(trained_tiny, tiny_data, scheme_name="RTN", qw=4, qa=5):
    _, test = tiny_data
    config = QuantizationConfig.uniform(
        list(trained_tiny.quant_layers), qw=qw, qa=qa
    )
    scales = calibrate_scales(trained_tiny, test.images[:64])
    quantized = QuantizedCapsNet(
        trained_tiny, config, get_rounding_scheme(scheme_name, seed=3),
        act_scales=scales, seed=3,
    )
    spec = QuantSpec(model="shallow-tiny", dataset="digits", seed=1)
    return ModelArtifact.from_quantized(
        quantized,
        report={"label": f"uniform-{scheme_name}", "accuracy": 80.0},
        spec=spec.to_dict(),
    )


@pytest.fixture(scope="module")
def two_tenant_registry(trained_tiny, tiny_data):
    """Registry with an RTN and a TRN tenant over the shared model."""
    registry = ModelRegistry(max_warm=4, batch_size=32)
    registry.register(
        "rtn", artifact=_artifact(trained_tiny, tiny_data, "RTN"),
        model=trained_tiny,
    )
    registry.register(
        "trn", artifact=_artifact(trained_tiny, tiny_data, "TRN", qw=3),
        model=trained_tiny,
    )
    return registry


@pytest.fixture(scope="module")
def daemon(two_tenant_registry):
    daemon = ServingDaemon(
        two_tenant_registry, port=0, max_batch=48, max_wait_ms=25.0
    )
    with daemon:
        yield daemon


@pytest.fixture(scope="module")
def client(daemon):
    with Client(daemon.url, timeout=120.0) as client:
        yield client


@pytest.fixture(scope="module")
def offline(trained_tiny, tiny_data):
    """Offline predictions to compare every served response against."""
    _, test = tiny_data
    images = test.images[:64]
    spec = QuantSpec(model="shallow-tiny", dataset="digits", seed=1,
                     batch_size=32)
    session = Session(spec, model=trained_tiny,
                      test_data=(images, test.labels[:64]))
    return {
        "images": images,
        "rtn": session.serve(_artifact(trained_tiny, tiny_data, "RTN"))
        .predict(images),
        "trn": session.serve(
            _artifact(trained_tiny, tiny_data, "TRN", qw=3)
        ).predict(images),
    }


class TestRegistry:
    def test_register_validates(self, trained_tiny, tiny_data):
        registry = ModelRegistry()
        with pytest.raises(RegistryError, match="exactly one"):
            registry.register("x")
        artifact = _artifact(trained_tiny, tiny_data)
        registry.register("x", artifact=artifact, model=trained_tiny)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("x", artifact=artifact, model=trained_tiny)
        with pytest.raises(RegistryError, match="unknown model"):
            registry.get("nope")

    def test_artifact_without_provenance_needs_model(
        self, trained_tiny, tiny_data
    ):
        from repro.api import ArtifactError

        artifact = _artifact(trained_tiny, tiny_data)
        artifact.spec = None
        registry = ModelRegistry()
        with pytest.raises(ArtifactError, match="provenance"):
            registry.register("bare", artifact=artifact)

    def test_lru_eviction_of_cold_sessions(self, trained_tiny, tiny_data):
        registry = ModelRegistry(max_warm=1, batch_size=32)
        for name in ("a", "b"):
            registry.register(
                name, artifact=_artifact(trained_tiny, tiny_data),
                model=trained_tiny,
            )
        registry.get("a")
        assert registry.warm_names() == ["a"]
        registry.get("b")  # evicts a (LRU beyond max_warm=1)
        assert registry.warm_names() == ["b"]
        assert registry.evictions == 1
        registry.get("a")  # transparent re-bind
        assert registry.warm_names() == ["a"]
        assert registry.entry("a").binds == 2
        assert registry.entry("b").binds == 1

    def test_hot_tenant_survives_accesses(self, trained_tiny, tiny_data):
        registry = ModelRegistry(max_warm=2, batch_size=32)
        for name in ("a", "b", "c"):
            registry.register(
                name, artifact=_artifact(trained_tiny, tiny_data),
                model=trained_tiny,
            )
        registry.get("a")
        registry.get("b")
        registry.get("a")  # refresh a's recency
        registry.get("c")  # must evict b, the least recently used
        assert sorted(registry.warm_names()) == ["a", "c"]

    def test_sr_tenants_marked_non_coalescable(
        self, trained_tiny, tiny_data
    ):
        registry = ModelRegistry()
        registry.register(
            "sr", artifact=_artifact(trained_tiny, tiny_data, "SR"),
            model=trained_tiny,
        )
        registry.register(
            "rtn", artifact=_artifact(trained_tiny, tiny_data, "RTN"),
            model=trained_tiny,
        )
        assert not registry.entry("sr").coalescable
        assert registry.entry("rtn").coalescable


class TestMicroBatcher:
    def test_coalesces_and_splits_responses(
        self, two_tenant_registry, offline
    ):
        batcher = MicroBatcher(
            two_tenant_registry, max_batch=64, max_wait_ms=50.0
        )
        images = offline["images"]
        chunks = [images[0:8], images[8:24], images[24:40]]
        tickets = [batcher.submit("rtn", chunk) for chunk in chunks]
        results = [t.future.result(timeout=60) for t in tickets]
        batcher.close()

        stitched = np.concatenate(results)
        assert np.array_equal(stitched, offline["rtn"][:40])
        for ticket, chunk in zip(tickets, chunks):
            assert len(ticket.future.result()) == len(chunk)
        # The lonely head waits for its first companion, so at least two
        # of the three requests share a forward.
        assert batcher.batches < batcher.requests
        assert batcher.coalesced_requests >= 2
        assert batcher.largest_batch >= max(len(c) for c in chunks)

    def test_max_batch_bounds_coalescing(self, two_tenant_registry, offline):
        batcher = MicroBatcher(
            two_tenant_registry, max_batch=16, max_wait_ms=50.0
        )
        images = offline["images"]
        tickets = [
            batcher.submit("rtn", images[i * 12:(i + 1) * 12])
            for i in range(3)
        ]
        results = [t.future.result(timeout=60) for t in tickets]
        batcher.close()
        assert np.array_equal(np.concatenate(results), offline["rtn"][:36])
        assert batcher.largest_batch <= 16

    def test_different_tenants_never_share_a_forward(
        self, two_tenant_registry, offline
    ):
        batcher = MicroBatcher(
            two_tenant_registry, max_batch=64, max_wait_ms=50.0
        )
        images = offline["images"]
        t1 = batcher.submit("rtn", images[:16])
        t2 = batcher.submit("trn", images[:16])
        r1 = t1.future.result(timeout=60)
        r2 = t2.future.result(timeout=60)
        batcher.close()
        assert np.array_equal(r1, offline["rtn"][:16])
        assert np.array_equal(r2, offline["trn"][:16])
        assert t1.batched_with == 16
        assert t2.batched_with == 16

    def test_sr_requests_run_one_per_forward(
        self, trained_tiny, tiny_data, offline
    ):
        registry = ModelRegistry(batch_size=32)
        registry.register(
            "sr", artifact=_artifact(trained_tiny, tiny_data, "SR"),
            model=trained_tiny,
        )
        batcher = MicroBatcher(registry, max_batch=64, max_wait_ms=50.0)
        images = offline["images"]
        tickets = [batcher.submit("sr", images[:8]) for _ in range(3)]
        results = [t.future.result(timeout=60) for t in tickets]
        batcher.close()
        # Identical inputs through identical frozen codes + reseeded
        # streams: every request must see the very same labels.
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])
        assert batcher.coalesced_requests == 0
        assert batcher.batches == 3

    def test_tenant_request_telemetry_counts_submissions(
        self, two_tenant_registry, offline
    ):
        """A coalesced forward must advance the tenant's request counter
        by its group size, not by 1."""
        entry = two_tenant_registry.entry("rtn")
        before = entry.requests
        batcher = MicroBatcher(
            two_tenant_registry, max_batch=64, max_wait_ms=50.0
        )
        tickets = [
            batcher.submit("rtn", offline["images"][:4]) for _ in range(3)
        ]
        for ticket in tickets:
            ticket.future.result(timeout=60)
        batcher.close()
        assert entry.requests == before + 3

    def test_unknown_tenant_surfaces_as_exception(self, two_tenant_registry):
        batcher = MicroBatcher(two_tenant_registry)
        ticket = batcher.submit("ghost", np.zeros((1, 1, 14, 14), np.float32))
        with pytest.raises(RegistryError, match="unknown model"):
            ticket.future.result(timeout=60)
        batcher.close()

    def test_parameter_validation(self, two_tenant_registry):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(two_tenant_registry, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            MicroBatcher(two_tenant_registry, max_wait_ms=-1)

    def test_concurrent_submitters_lose_no_ticket(self):
        """Regression for lost tickets: 8 paced threads submit to one
        coalescable and one non-coalescable tenant.  Every future
        resolves, each with its own request's labels, and the
        non-coalescable tenant's requests each run alone.  (With a
        second dispatcher thread, one dispatcher could drop a tenant's
        queue after a handler had refilled it; paced arrivals keep
        queues running dry, which lost tickets in every round.)"""

        class Entry:
            def __init__(self, coalescable):
                self.coalescable = coalescable

        class Serving:
            def predict(self, images):
                return images[:, 0, 0, 0].astype(np.int64)

        class StubRegistry:
            entries = {"det": Entry(True), "sr": Entry(False)}

            def entry(self, name):
                return self.entries[name]

            def get(self, name, requests=1):
                return Serving()

        def submit_round(batcher, index, out):
            for request in range(200):
                tag = index * 1000 + request
                images = np.full((1 + request % 3, 1, 1, 1), tag, np.float32)
                tenant = "sr" if request % 10 == 0 else "det"
                out.append((tag, batcher.submit(tenant, images)))
                time.sleep(0.0002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                self._lost_ticket_round(StubRegistry(), submit_round)
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _lost_ticket_round(registry, submit_round):
        batcher = MicroBatcher(registry, max_batch=16, max_wait_ms=1.0)
        submitted = [[] for _ in range(8)]
        threads = [
            threading.Thread(target=submit_round, args=(batcher, index, rows))
            for index, rows in enumerate(submitted)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            tickets = [item for rows in submitted for item in rows]
            assert len(tickets) == 1600
            futures = [ticket.future for _, ticket in tickets]
            _, pending = wait(futures, timeout=10)
            assert not pending, f"{len(pending)} tickets never resolved"
            for tag, ticket in tickets:
                labels = ticket.future.result()
                assert len(labels) == len(ticket.images)
                assert (labels == tag).all(), (tag, labels)
                if ticket.name == "sr":
                    assert ticket.batched_with == len(ticket.images)
        finally:
            batcher.close()
        stats = batcher.stats()
        assert stats["requests"] == 1600
        assert stats["coalesced_requests"] > 0
        assert stats["largest_batch"] <= 16


class TestValidation:
    EXPECTED = (1, 14, 14)

    def _check(self, payload, match, status=400):
        from repro.serve import RequestError

        with pytest.raises(RequestError, match=match) as excinfo:
            validate_images(payload, self.EXPECTED)
        assert excinfo.value.status == status

    def test_missing_images(self):
        self._check({}, "missing 'images'")

    def test_empty_batch(self):
        self._check({"images": []}, "empty image batch")

    def test_non_numeric(self):
        self._check({"images": [["a", "b"]]}, "numeric")

    def test_ragged(self):
        self._check({"images": [[1.0], [1.0, 2.0]]}, "malformed|numeric")

    def test_non_float32_dtype_claim(self):
        self._check(
            {"images": [[[[0.0]]]], "dtype": "float64"}, "float32"
        )

    def test_wrong_rank(self):
        self._check({"images": [[0.0, 1.0]]}, "4-D")

    def test_wrong_sample_shape(self):
        self._check(
            {"images": np.zeros((2, 1, 7, 7)).tolist()},
            "does not match",
        )

    def test_single_sample_promoted(self):
        batch = validate_images(
            {"images": np.zeros(self.EXPECTED).tolist()}, self.EXPECTED
        )
        assert batch.shape == (1,) + self.EXPECTED
        assert batch.dtype == np.float32

    def test_single_sample_promoted_without_expected_shape(self):
        """Tenants without spec provenance (injected model, no derived
        input shape) must still accept an un-batched sample."""
        batch = validate_images(
            {"images": np.zeros(self.EXPECTED).tolist()}, None
        )
        assert batch.shape == (1,) + self.EXPECTED

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels(self, bad):
        images = np.zeros((2,) + self.EXPECTED)
        images[1, 0, 3, 4] = bad
        self._check({"images": images.tolist()}, "non-finite")

    def test_pixel_range_is_checked_only_when_given(self):
        images = np.full((1,) + self.EXPECTED, 0.5)
        images[0, 0, 0, 0] = 1.5
        payload = {"images": images.tolist()}
        with pytest.raises(RequestError, match="certified input range"):
            validate_images(payload, self.EXPECTED, (0.0, 1.0))
        assert validate_images(payload, self.EXPECTED).shape == (1,) + (
            self.EXPECTED
        )
        images[0, 0, 0, 0] = 1.0  # the domain is closed
        assert validate_images(
            {"images": images.tolist()}, self.EXPECTED, (0.0, 1.0)
        ).shape == (1,) + self.EXPECTED

    def test_integers_accepted_as_float32(self):
        batch = validate_images(
            {"images": np.zeros((2,) + self.EXPECTED, dtype=int).tolist()},
            self.EXPECTED,
        )
        assert batch.dtype == np.float32


    # -- the images_b64 form ------------------------------------------
    @staticmethod
    def _b64(images):
        images = np.ascontiguousarray(images, dtype="<f4")
        return {
            "images_b64": base64.b64encode(images).decode("ascii"),
            "shape": list(images.shape),
        }

    def test_b64_decodes_to_a_writeable_float32_batch(self):
        images = np.random.default_rng(0).random((3,) + self.EXPECTED)
        batch = validate_images(self._b64(images), self.EXPECTED)
        assert batch.dtype == np.float32
        assert batch.flags.c_contiguous and batch.flags.writeable
        assert np.array_equal(batch, images.astype(np.float32))
        sample = validate_images(self._b64(images[0]), self.EXPECTED)
        assert np.array_equal(sample, images[:1].astype(np.float32))

    @pytest.mark.parametrize("body, match", [
        ({"images_b64": "AAAA!!!!", "shape": [1, 1, 1, 2]}, "base64"),
        ({"images_b64": "AAAAAA==", "shape": [1, 1, 1, 2]}, "bytes"),
        ({"images_b64": "", "shape": [2**62, 2**62, 2, 2]}, "bytes"),
        ({"images_b64": 7, "shape": [1, 1, 14, 14]}, "base64 string"),
        ({"images_b64": "", "shape": [1, 1, 14.0, 14]}, "shape"),
        ({"images_b64": "", "shape": [1, True, 14, 14]}, "shape"),
        ({"images_b64": "", "shape": [-1, -1, 14, 14]}, "shape"),
        ({"images_b64": "", "shape": [196]}, "shape"),
        ({"images_b64": "", "shape": [1, 1, 1, 14, 14]}, "shape"),
        ({"images_b64": "", "shape": "1,1,14,14"}, "shape"),
        ({"images_b64": ""}, "shape"),
        ({"images_b64": "", "shape": [1, 1, 1, 1], "images": [[[[0.0]]]]},
         "exactly one"),
        ({"images_b64": "", "shape": [1, 1, 1, 1], "dtype": "float64"},
         "float32"),
        ({"images_b64": "", "shape": [0, 2**62, 2**62]}, "shape"),
    ])
    def test_hostile_b64_bodies(self, body, match):
        self._check(body, match)

    def test_empty_b64_batch(self):
        self._check(self._b64(np.zeros((0,) + self.EXPECTED)), "empty")

    def test_b64_shape_checks_are_shared(self):
        self._check(self._b64(np.zeros((2, 1, 7, 7))), "does not match")
        self._check(self._b64(np.zeros((1, 2, 7, 7))[0]), "4-D")

    @pytest.mark.parametrize("pixel, input_range", [
        (np.nan, None), (np.inf, None), (-np.inf, None), (1.5, (0.0, 1.0)),
    ])
    def test_both_forms_refuse_pixels_alike(self, pixel, input_range):
        images = np.full((2,) + self.EXPECTED, 0.25)
        images[1, 0, 3, 4] = pixel
        messages = []
        for payload in ({"images": images.tolist()}, self._b64(images)):
            with pytest.raises(RequestError) as excinfo:
                validate_images(payload, self.EXPECTED, input_range)
            assert excinfo.value.status == 400
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    @settings(max_examples=150, deadline=None)
    @given(
        payload=_predict_bodies(),
        expected=st.sampled_from([None, (1, 2, 2), (2, 1, 2)]),
        input_range=st.sampled_from([None, (0.0, 1.0)]),
    )
    def test_fuzzed_bodies_are_a_batch_or_a_400(
        self, payload, expected, input_range
    ):
        """Whatever the body, the validator returns a C-contiguous 4-D
        float32 batch or refuses it with a 400 — never another error
        (so a hostile body never becomes a 5xx)."""
        try:
            batch = validate_images(payload, expected, input_range)
        except RequestError as error:
            assert error.status == 400
            return
        assert isinstance(batch, np.ndarray)
        assert batch.dtype == np.float32 and batch.ndim == 4
        assert batch.flags.c_contiguous
        assert np.isfinite(batch).all()


class TestDaemonEndToEnd:
    def test_healthz_and_models(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert sorted(health["models"]) == ["rtn", "trn"]
        rows = {row["name"]: row for row in client.models()}
        assert rows["rtn"]["scheme"] == "RTN"
        assert rows["rtn"]["format_version"] == 2
        assert rows["rtn"]["input_shape"] == [1, 14, 14]
        assert rows["trn"]["weight_storage_bits"] > 0

    def test_predict_matches_offline_session(self, client, offline):
        served = client.predict("rtn", offline["images"])
        assert np.array_equal(served, offline["rtn"])

    def test_concurrent_two_tenant_predicts_match_offline(
        self, client, offline
    ):
        """Many clients, two tenants, in flight together: every response
        must match the offline prediction for its slice."""
        images = offline["images"]
        jobs = []
        for index in range(8):
            tenant = "rtn" if index % 2 == 0 else "trn"
            lo = (index // 2) * 16
            jobs.append((tenant, lo, lo + 16))
        results = [None] * len(jobs)
        errors = []

        def worker(slot, tenant, lo, hi):
            try:
                results[slot] = client.predict(tenant, images[lo:hi])
            except Exception as error:  # pragma: no cover - test plumbing
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,) + job)
            for i, job in enumerate(jobs)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        for (tenant, lo, hi), result in zip(jobs, results):
            assert np.array_equal(result, offline[tenant][lo:hi]), (
                tenant, lo, hi
            )

    def test_predict_reports_batching_telemetry(self, client, offline):
        response = client.predict(
            "rtn", offline["images"][:4], full_response=True
        )
        assert response["count"] == 4
        assert response["batched_with"] >= 4

    def test_unknown_model_is_404(self, client, offline):
        with pytest.raises(ServeError, match="unknown model") as excinfo:
            client.predict("ghost", offline["images"][:2])
        assert excinfo.value.status == 404

    def test_empty_batch_is_400(self, client):
        with pytest.raises(ServeError, match="empty") as excinfo:
            client.predict("rtn", np.zeros((0, 1, 14, 14), np.float32))
        assert excinfo.value.status == 400

    def test_wrong_shape_is_400(self, client):
        with pytest.raises(ServeError, match="does not match") as excinfo:
            client.predict("rtn", np.zeros((2, 1, 7, 7), np.float32))
        assert excinfo.value.status == 400

    def test_non_float32_is_400(self, daemon):
        body = json.dumps({
            "model": "rtn",
            "images": np.zeros((1, 1, 14, 14)).tolist(),
            "dtype": "float64",
        }).encode()
        request = urllib.request.Request(
            f"{daemon.url}/v1/predict", data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_malformed_json_is_400(self, daemon):
        request = urllib.request.Request(
            f"{daemon.url}/v1/predict", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_unroutable_paths_are_404(self, daemon):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{daemon.url}/nope", timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 404

    def test_sequential_predicts_share_one_connection(
        self, daemon, offline, monkeypatch
    ):
        connects = _count_connects(monkeypatch)
        with Client(daemon.url, timeout=120.0) as client:
            for lo in range(0, 32, 8):
                served = client.predict("rtn", offline["images"][lo:lo + 8])
                assert np.array_equal(served, offline["rtn"][lo:lo + 8])
            assert client.health()["status"] == "ok"
        assert len(connects) == 1

    def test_idle_connection_is_closed_and_the_client_reconnects(
        self, daemon, offline, monkeypatch
    ):
        """The daemon closes a keep-alive connection idle for longer
        than its handler timeout; the client's next call on it fails
        before any status line and is sent once more on a new one."""
        from repro.serve import server

        monkeypatch.setattr(server._Handler, "timeout", 0.2)
        connects = _count_connects(monkeypatch)
        images = offline["images"][:8]
        with Client(daemon.url, timeout=120.0) as client:
            assert np.array_equal(client.predict("rtn", images),
                                  offline["rtn"][:8])
            time.sleep(1.0)
            assert np.array_equal(client.predict("rtn", images),
                                  offline["rtn"][:8])
        assert len(connects) == 2

    def test_daemon_survives_validation_storm(self, client, offline):
        """A burst of bad requests must not poison later good ones."""
        for _ in range(3):
            with pytest.raises(ServeError):
                client.predict("rtn", np.zeros((1, 1, 3, 3), np.float32))
        served = client.predict("rtn", offline["images"][:8])
        assert np.array_equal(served, offline["rtn"][:8])


class TestInputDomain:
    """One request with pixels the int backend is not certified for is
    refused on its own (400) and cannot fail the batch it would join."""

    @pytest.fixture(scope="class")
    def domain_daemon(self, trained_tiny):
        config = QuantizationConfig.uniform(
            list(trained_tiny.quant_layers), qw=6, qa=6, qdr=8
        )
        quantized = QuantizedCapsNet(
            trained_tiny, config, get_rounding_scheme("RTN", seed=3),
            seed=3,
        )
        artifact = ModelArtifact.from_quantized(
            quantized,
            spec=QuantSpec(
                model="shallow-tiny", dataset="digits", seed=1
            ).to_dict(),
        )
        artifact.certify(model=trained_tiny)
        artifact.lower(model=trained_tiny)
        registry = ModelRegistry(max_warm=2, batch_size=32)
        registry.register("f", artifact=artifact, model=trained_tiny)
        registry.register(
            "i", artifact=artifact, model=trained_tiny, backend="int"
        )
        # A long coalescing window so concurrent requests share a batch.
        daemon = ServingDaemon(
            registry, port=0, max_batch=48, max_wait_ms=200.0
        )
        with daemon:
            yield daemon, registry

    def test_int_tenants_carry_the_certified_range(self, domain_daemon):
        _, registry = domain_daemon
        assert registry.entry("i").input_range == (0.0, 1.0)
        assert registry.entry("f").input_range is None

    def test_bad_request_does_not_fail_its_batch(
        self, domain_daemon, tiny_data
    ):
        daemon, registry = domain_daemon
        good = tiny_data[1].images[:8]
        expected = registry.get("i").predict(good)
        bad = good[:2].copy()
        bad[0, 0, 0, 0] = 1.5
        results = {}

        def send(key, images):
            try:
                results[key] = client.predict("i", images)
            except ServeError as error:
                results[key] = error

        threads = [
            threading.Thread(target=send, args=("good", good)),
            threading.Thread(target=send, args=("bad", bad)),
        ]
        with Client(daemon.url, timeout=120.0) as client:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert np.array_equal(results["good"], expected)
        assert isinstance(results["bad"], ServeError)
        assert results["bad"].status == 400
        assert "certified input range" in str(results["bad"])

    def test_json_list_body_matches_the_client(
        self, domain_daemon, tiny_data
    ):
        """The documented nested-list form and the client's base64 form
        give the same labels, on a float and an int tenant."""
        daemon, registry = domain_daemon
        images = tiny_data[1].images[:8]
        body = {"images": images.tolist(), "dtype": "float32"}
        with Client(daemon.url, timeout=120.0) as client:
            for name in ("f", "i"):
                request = urllib.request.Request(
                    f"{daemon.url}/v1/predict",
                    data=json.dumps(dict(body, model=name)).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=120) as reply:
                    listed = json.loads(reply.read())["predictions"]
                served = client.predict(name, images)
                assert np.array_equal(listed, served), name
                assert np.array_equal(
                    served, registry.get(name).predict(images)
                ), name

    def test_float_tenants_refuse_only_non_finite(
        self, domain_daemon, tiny_data
    ):
        daemon, _ = domain_daemon
        images = tiny_data[1].images[:2].copy()
        images[0, 0, 0, 0] = 1.5
        with Client(daemon.url, timeout=120.0) as client:
            assert len(client.predict("f", images)) == 2
            images[1, 0, 0, 0] = np.nan
            with pytest.raises(ServeError, match="non-finite") as excinfo:
                client.predict("f", images)
        assert excinfo.value.status == 400


class TestClientErrors:
    def test_unreachable_daemon(self):
        with Client("http://127.0.0.1:9", timeout=2.0) as client:
            with pytest.raises(ServeError, match="cannot reach") as excinfo:
                client.health()
        assert excinfo.value.status is None

    @pytest.mark.parametrize(
        "url", ["https://127.0.0.1:8080", "127.0.0.1:8080", "http://"]
    )
    def test_only_http_urls(self, url):
        with pytest.raises(ValueError, match="http://"):
            Client(url)


def _stop_within(daemon, seconds):
    """Run ``daemon.shutdown()`` on a helper thread that must finish in
    ``seconds``, so a hang fails the test instead of the run."""
    thread = threading.Thread(target=daemon.shutdown, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), "shutdown() hung"


class TestDaemonLifecycle:
    def test_shutdown_of_a_daemon_never_started(self):
        _stop_within(ServingDaemon(ModelRegistry(), port=0), 5.0)

    def test_shutdown_ends_idle_keepalive_connections(self):
        """An open idle connection must not hold shutdown() for the
        handler's idle timeout; the client then reports the daemon as
        unreachable."""
        daemon = ServingDaemon(ModelRegistry(), port=0).start()
        with Client(daemon.url, timeout=5.0) as client:
            assert client.health()["status"] == "ok"
            started = time.monotonic()
            _stop_within(daemon, 10.0)
            assert time.monotonic() - started < 5.0
            with pytest.raises(ServeError, match="cannot reach") as excinfo:
                client.health()
        assert excinfo.value.status is None


# ----------------------------------------------------------------------
# Four-scheme daemon (SR included) under concurrency
# ----------------------------------------------------------------------
MULTI_TENANTS = (
    ("rtn", "RTN", 4),
    ("trn", "TRN", 3),
    ("rtne", "RTNE", 4),
    ("sr", "SR", 4),
)


@pytest.fixture(scope="module")
def four_tenant_registry(trained_tiny, tiny_data):
    """All four rounding schemes, including non-coalescable SR."""
    registry = ModelRegistry(max_warm=4, batch_size=32)
    for name, scheme, qw in MULTI_TENANTS:
        registry.register(
            name,
            artifact=_artifact(trained_tiny, tiny_data, scheme, qw=qw),
            model=trained_tiny,
        )
    return registry


@pytest.fixture(scope="module")
def multi_daemon(four_tenant_registry):
    daemon = ServingDaemon(
        four_tenant_registry, port=0, max_batch=48, max_wait_ms=5.0
    )
    with daemon:
        yield daemon


@pytest.fixture(scope="module")
def multi_client(multi_daemon):
    with Client(multi_daemon.url, timeout=300.0) as client:
        yield client


@pytest.fixture(scope="module")
def multi_offline(trained_tiny, tiny_data):
    """Offline references for the four tenants.

    Deterministic tenants are referenced by slicing one full-batch
    prediction (per-sample independence).  The SR tenant's serving
    model is returned instead: its draw stream restarts per predict
    call, so the reference for a request must be computed on exactly
    that request's slice.
    """
    _, test = tiny_data
    images = test.images[:64]
    spec = QuantSpec(model="shallow-tiny", dataset="digits", seed=1,
                     batch_size=32)
    session = Session(spec, model=trained_tiny,
                      test_data=(images, test.labels[:64]))
    refs = {"images": images}
    for name, scheme, qw in MULTI_TENANTS:
        serving = session.serve(
            _artifact(trained_tiny, tiny_data, scheme, qw=qw)
        )
        refs[name] = serving if name == "sr" else serving.predict(images)
    return refs


def _multi_reference(multi_offline, name, lo, hi):
    if name == "sr":
        return multi_offline["sr"].predict(multi_offline["images"][lo:hi])
    return multi_offline[name][lo:hi]


class TestFourSchemeDaemon:
    def test_concurrent_four_tenants_bit_identical(
        self, multi_client, multi_offline
    ):
        """24 concurrent clients across all four schemes: every served
        response must match the offline prediction bit-for-bit."""
        images = multi_offline["images"]
        results, errors = {}, []

        def worker(index):
            name = MULTI_TENANTS[index % 4][0]
            lo = (index * 4) % 48
            hi = lo + 8
            try:
                results[index] = (
                    name, lo, hi, multi_client.predict(name, images[lo:hi])
                )
            except Exception as error:  # pragma: no cover - fails below
                errors.append((index, error))

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(24)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors
        assert len(results) == 24
        for name, lo, hi, served in results.values():
            assert np.array_equal(
                served, _multi_reference(multi_offline, name, lo, hi)
            ), (name, lo, hi)

    def test_validates_workers(self, four_tenant_registry):
        """Only the one-dispatcher daemon exists: workers=1 is accepted
        for callers that pass it, anything else is refused."""
        for workers in (0, 2):
            with pytest.raises(ValueError, match="workers"):
                ServingDaemon(four_tenant_registry, port=0, workers=workers)
        with ServingDaemon(four_tenant_registry, port=0, workers=1) as daemon:
            with Client(daemon.url) as client:
                assert client.health()["status"] == "ok"


# ----------------------------------------------------------------------
# Batcher shutdown edges
# ----------------------------------------------------------------------
class TestBatcherShutdown:
    def test_close_releases_inflight_lonely_head(
        self, two_tenant_registry, offline
    ):
        """close() must cut a lonely head's companion wait short — the
        ticket resolves and close returns well before max_wait_ms."""
        batcher = MicroBatcher(
            two_tenant_registry, max_batch=48, max_wait_ms=10_000.0
        )
        ticket = batcher.submit("rtn", offline["images"][:4])
        time.sleep(0.3)  # dispatcher is now in the lonely-head wait
        started = time.monotonic()
        batcher.close(timeout=30.0)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        result = ticket.future.result(timeout=1.0)
        assert np.array_equal(result, offline["rtn"][:4])

    def test_submit_and_start_after_close_raise(self, two_tenant_registry):
        batcher = MicroBatcher(two_tenant_registry).start()
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(
                "rtn", np.zeros((1, 1, 14, 14), np.float32)
            )
        with pytest.raises(RuntimeError, match="closed"):
            batcher.start()


# ----------------------------------------------------------------------
# Cross-tenant FIFO (arrival-order heaps)
# ----------------------------------------------------------------------
class TestBatcherFairness:
    def test_fifo_across_many_tenants(self):
        """Regression for the O(tenants) oldest-tenant scan: with many
        tenants queued, batches must come out in arrival order of each
        queue head — no tenant is skipped or starved."""
        registry = ModelRegistry()  # unknown tenants: non-coalescable
        batcher = MicroBatcher(registry, max_batch=4, max_wait_ms=0.0)
        batcher.start = lambda: batcher  # drive _take_batch directly
        images = np.zeros((1, 1, 2, 2), np.float32)
        names = [f"t{index}" for index in range(8)]
        submitted = []
        for _ in range(2):
            for name in names:
                submitted.append(batcher.submit(name, images))
        order = []
        for _ in submitted:
            group = batcher._take_batch()
            assert len(group) == 1
            order.append(group[0].seq)
        assert order == [ticket.seq for ticket in submitted]

    def test_head_order_with_coalescing(self, two_tenant_registry, offline):
        """The oldest head wins across tenants, and serving a tenant
        drains its whole queue into one forward."""
        batcher = MicroBatcher(
            two_tenant_registry, max_batch=64, max_wait_ms=0.0
        )
        batcher.start = lambda: batcher
        images = offline["images"]
        first = batcher.submit("rtn", images[:2])
        second = batcher.submit("trn", images[2:4])
        third = batcher.submit("rtn", images[4:6])
        group = batcher._take_batch()
        assert [ticket.seq for ticket in group] == [first.seq, third.seq]
        group = batcher._take_batch()
        assert [ticket.seq for ticket in group] == [second.seq]
