"""Tests for the persistent executor pool (:mod:`repro.engine.pool`).

N long-lived forked executors behind shared-memory payload lanes: a
worker exception surfaces as :class:`WorkerError` (worker survives), a
worker *death* as :class:`WorkerCrash` (slot respawnable), and payloads
that outgrow the lanes fall back to inline pipe transfer.
"""

import os

import numpy as np
import pytest

from repro.engine import ExecutorPool, WorkerCrash, WorkerError, fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)


# ----------------------------------------------------------------------
# ExecutorPool
# ----------------------------------------------------------------------
@needs_fork
class TestExecutorPool:
    @staticmethod
    def _double(tenant, images):
        return images * np.float32(2.0)

    def test_validates_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutorPool(self._double, workers=0)

    def test_requires_fork(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.pool.fork_available", lambda: False
        )
        with pytest.raises(RuntimeError, match="fork"):
            ExecutorPool(self._double, workers=2)

    def test_shm_roundtrip_across_workers(self):
        images = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        with ExecutorPool(self._double, workers=2) as pool:
            assert len(pool) == 2
            for index in range(2):
                out = pool.call(index, "t", images)
                np.testing.assert_array_equal(out, images * 2.0)
            pids = {pool.ping(index) for index in range(2)}
            assert len(pids) == 2
            assert os.getpid() not in pids
            stats = pool.stats()
            assert stats["shm_transfers"] == 2
            assert stats["inline_transfers"] == 0
            for row in stats["rows"]:
                assert row["alive"]
                assert row["calls"] == 1
                assert row["restarts"] == 0

    def test_inline_mode(self):
        images = np.ones((2, 2), dtype=np.float32)
        with ExecutorPool(self._double, workers=1, use_shm=False) as pool:
            out = pool.call(0, "t", images)
            np.testing.assert_array_equal(out, images * 2.0)
            assert pool.stats()["inline_transfers"] == 1

    def test_oversized_payload_falls_back_inline(self):
        images = np.ones((64, 64), dtype=np.float32)  # 16 KiB > lane
        with ExecutorPool(self._double, workers=1, buffer_bytes=128) as pool:
            out = pool.call(0, "t", images)
            np.testing.assert_array_equal(out, images * 2.0)
            stats = pool.stats()
            assert stats["inline_transfers"] == 1
            assert stats["shm_transfers"] == 0

    def test_worker_error_keeps_worker_alive(self):
        def fn(tenant, images):
            if tenant == "boom":
                raise ValueError("kaboom")
            return images

        images = np.ones((2, 2), dtype=np.float32)
        with ExecutorPool(fn, workers=1) as pool:
            with pytest.raises(WorkerError, match="kaboom") as excinfo:
                pool.call(0, "boom", images)
            assert "ValueError" in excinfo.value.child_traceback
            # The worker survived its exception and keeps serving.
            np.testing.assert_array_equal(
                pool.call(0, "fine", images), images
            )
            assert pool.stats()["rows"][0]["alive"]

    def test_crash_surfaces_and_respawns(self):
        def fn(tenant, images):
            if tenant == "die":
                os._exit(3)
            return images

        images = np.ones((2, 2), dtype=np.float32)
        with ExecutorPool(fn, workers=1) as pool:
            with pytest.raises(WorkerCrash) as excinfo:
                pool.call(0, "die", images)
            assert excinfo.value.index == 0
            # The dead slot refuses calls until respawned.
            with pytest.raises(WorkerCrash):
                pool.call(0, "fine", images)
            pool.respawn(0)
            np.testing.assert_array_equal(
                pool.call(0, "fine", images), images
            )
            row = pool.stats()["rows"][0]
            assert row["alive"]
            assert row["restarts"] == 1

    def test_child_init_and_child_stats_run_in_worker(self):
        def child_init():
            os.environ["QCAPS_POOL_CHILD"] = "1"

        def child_stats():
            return {"tagged": os.environ.get("QCAPS_POOL_CHILD")}

        def fn(tenant, images):
            assert os.environ.get("QCAPS_POOL_CHILD") == "1"
            return images

        images = np.ones((2, 2), dtype=np.float32)
        with ExecutorPool(
            fn, workers=1, child_init=child_init, child_stats=child_stats
        ) as pool:
            np.testing.assert_array_equal(pool.call(0, "t", images), images)
            row = pool.stats()["rows"][0]
            assert row["tagged"] == "1"
        assert "QCAPS_POOL_CHILD" not in os.environ  # ran in child only
