"""Tests for the executor: one class, three kinds."""

import asyncio
import os
import threading
import time

import pytest

from repro.api.executors import EXECUTOR_KINDS, Executor, run_async

# The per-kind ids keep the names these tests had when each kind was a
# class of its own, so test results line up across the history.
KINDS = [
    pytest.param(kind, id=f"{kind.title()}Executor") for kind in EXECUTOR_KINDS
]


def _square(value):  # module-level: picklable for the process pool
    return value * value


def _explode_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value + 10


def _offload(executor, fn, item):
    """Drive one :meth:`Executor.offload` call from synchronous code."""
    return asyncio.run(executor.offload(fn, item))


class TestMapContract:
    @pytest.mark.parametrize("kind", KINDS)
    def test_results_in_input_order(self, kind):
        executor = Executor(kind, workers=2)
        outcomes = executor.map(_square, [3, 1, 4, 1, 5])
        assert [o.value for o in outcomes] == [9, 1, 16, 1, 25]
        assert [o.index for o in outcomes] == [0, 1, 2, 3, 4]
        assert all(o.ok for o in outcomes)

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_input(self, kind):
        assert Executor(kind, workers=2).map(_square, []) == []

    @pytest.mark.parametrize("kind", KINDS)
    def test_per_item_error_capture(self, kind):
        """One failing item must not poison the rest of the batch."""
        executor = Executor(kind, workers=2)
        outcomes = executor.map(_explode_on_three, [1, 3, 5])
        assert [o.ok for o in outcomes] == [True, False, True]
        assert [o.value for o in outcomes] == [11, None, 15]
        assert "three is right out" in outcomes[1].error
        assert outcomes[1].error.startswith("ValueError")

    def test_generator_input_accepted(self):
        for kind in EXECUTOR_KINDS:
            outcomes = Executor(kind, 2).map(_square, (v for v in range(3)))
            assert [o.value for o in outcomes] == [0, 1, 4], kind


class TestThreadKind:
    """What the thread kind does for I/O-bound batches (fan-out
    ingest, replica puts)."""

    def test_runs_inside_a_running_loop(self):
        """A caller already inside asyncio must not hit nested-run errors."""

        async def driver():
            return Executor("thread", workers=2).map(_square, [2, 3])

        outcomes = asyncio.run(driver())
        assert [o.value for o in outcomes] == [4, 9]
        assert all(o.ok for o in outcomes)

    def test_overlaps_waiting_tasks(self):
        """N sleepers on N workers take ~one sleep, not N sleeps."""
        start = time.perf_counter()
        outcomes = Executor("thread", workers=4).map(
            lambda _: time.sleep(0.05), range(4)
        )
        elapsed = time.perf_counter() - start
        assert all(o.ok for o in outcomes)
        assert elapsed < 0.15  # serial would be >= 0.2s


class TestRunAsync:
    """The loop-ownership seam behind the async gateway's sync entry
    points."""

    def test_runs_without_a_loop(self):
        async def answer():
            return 42

        assert run_async(answer()) == 42

    def test_nested_inside_a_running_loop(self):
        """run_async from coroutine-called sync code must not trip
        'asyncio.run() cannot be called from a running event loop'."""

        def sync_bridge():
            # Sync code (deep inside a library) re-entering async land
            # while the outer loop is live on this very thread.
            async def inner():
                await asyncio.sleep(0)
                return "nested"

            return run_async(inner())

        async def outer():
            return sync_bridge()

        assert asyncio.run(outer()) == "nested"

    def test_exceptions_propagate(self):
        async def boom():
            raise RuntimeError("kaput")

        with pytest.raises(RuntimeError, match="kaput"):
            run_async(boom())

    def test_exceptions_propagate_nested(self):
        async def boom():
            raise RuntimeError("kaput")

        async def outer():
            with pytest.raises(RuntimeError, match="kaput"):
                run_async(boom())
            return True

        assert asyncio.run(outer())


class TestAsyncOffloadSeam:
    """The shared pool the async gateway parks blocking serves on."""

    def test_persistent_pool_lazy_reuse_and_shutdown(self):
        executor = Executor("thread", workers=2)
        assert executor._pool is None
        assert _offload(executor, _square, 7) == 49
        pool = executor._pool
        assert pool is not None
        assert _offload(executor, _square, 3) == 9
        assert executor._pool is pool  # every offload call shares it
        executor.shutdown()
        assert executor._pool is None

    def test_offload_awaitable(self):
        executor = Executor("thread", workers=2)

        async def driver():
            values = await asyncio.gather(
                executor.offload(_square, 3), executor.offload(_square, 4)
            )
            return values

        try:
            assert asyncio.run(driver()) == [9, 16]
        finally:
            executor.shutdown()

    def test_offload_propagates_exceptions(self):
        executor = Executor("thread", workers=1)

        async def driver():
            await executor.offload(_explode_on_three, 3)

        try:
            with pytest.raises(ValueError, match="three"):
                asyncio.run(driver())
        finally:
            executor.shutdown()


class TestConstruction:
    def test_serial_is_always_one_worker(self):
        assert Executor("serial", workers=8).workers == 1

    def test_serial_ignores_workers_everywhere(self):
        """The default is serial, and workers= is accepted but ignored."""
        assert Executor().kind == "serial"
        assert Executor().workers == 1
        assert Executor("serial", 0).workers == 1

    def test_pool_workers_default_to_cpu_count(self):
        cpus = os.cpu_count() or 1
        assert Executor("thread").workers == cpus
        assert Executor("process", None).workers == cpus
        assert Executor("thread", 0).workers == cpus
        assert Executor("process", workers=3).workers == 3

    @pytest.mark.parametrize("kind", KINDS)
    def test_kind_is_kept(self, kind):
        assert Executor(kind, workers=2).kind == kind

    def test_rejects_unknown_kinds(self):
        for kind in ("async", "gpu"):
            with pytest.raises(ValueError, match="unknown executor") as raised:
                Executor(kind)
            assert all(name in str(raised.value) for name in EXECUTOR_KINDS)

    def test_serial_kind_never_starts_a_pool(self):
        """map and offload both run on the calling thread."""
        executor = Executor("serial")
        caller = threading.get_ident()

        def where(_):
            return threading.get_ident()

        assert [o.value for o in executor.map(where, [0, 1])] == [caller] * 2

        async def driver():
            return await executor.offload(where, 0)

        assert asyncio.run(driver()) == caller
        assert executor._pool is None


class TestPersistentPools:
    """The serving tier's shared pool: lazy start, reuse across
    offload calls, shutdown, restart on the next call."""

    def test_offload_propagates_errors(self):
        # Unlike map(), offload must raise — a failed serve propagates
        # to its requester rather than being captured per item.
        for kind in EXECUTOR_KINDS:
            executor = Executor(kind, 1)
            try:
                with pytest.raises(ValueError, match="three"):
                    _offload(executor, _explode_on_three, 3)
            finally:
                executor.shutdown()

    def test_persistent_pool_created_lazily_and_reused(self):
        executor = Executor("thread", 2)
        outcomes = executor.map(_square, [1, 2, 3])
        assert [outcome.value for outcome in outcomes] == [1, 4, 9]
        assert executor._pool is None  # map brings its own pool
        assert _offload(executor, _square, 7) == 49
        pool = executor._pool
        assert pool is not None
        assert _offload(executor, _square, 8) == 64
        assert executor._pool is pool  # same pool, not one per call
        executor.map(_square, [4])
        assert executor._pool is pool  # map leaves the shared pool be
        executor.shutdown()
        assert executor._pool is None

    def test_shutdown_is_idempotent_and_pool_rebuilds(self):
        executor = Executor("thread", 2)
        _offload(executor, _square, 3)
        executor.shutdown()
        executor.shutdown()  # second shutdown is a no-op
        assert _offload(executor, _square, 4) == 16  # a new pool starts
        assert executor._pool is not None
        executor.shutdown()

    def test_persistent_process_pool_round_trips(self):
        executor = Executor("process", 1)
        try:
            assert _offload(executor, _square, 6) == 36
            pool = executor._pool
            assert _offload(executor, _square, 7) == 49
            assert executor._pool is pool
        finally:
            executor.shutdown()
