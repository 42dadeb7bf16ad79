"""Tests for single-flight request coalescing."""

import threading
import time

import pytest

from repro.serve.singleflight import SingleFlight


class TestSerial:
    def test_sequential_calls_each_execute(self):
        flights = SingleFlight()
        calls = []
        for index in range(3):
            value, leader = flights.do("k", lambda i=index: calls.append(i) or i)
            assert leader
            assert value == index
        assert calls == [0, 1, 2]

    def test_leader_error_propagates_and_is_not_cached(self):
        flights = SingleFlight()
        with pytest.raises(RuntimeError, match="boom"):
            flights.do("k", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        # The failed flight is gone; the next call executes fresh.
        value, leader = flights.do("k", lambda: 42)
        assert (value, leader) == (42, True)
        assert flights.waiters("k") == 0


class TestConcurrent:
    def _run_coalesced(self, flights, n_threads, fn, key="k"):
        """Start one leader that blocks until all waiters joined."""
        release = threading.Event()
        results = []
        errors = []

        def guarded():
            # Leader: wait until every other thread is queued behind us.
            deadline = time.monotonic() + 5.0
            while flights.waiters(key) < n_threads - 1:
                if time.monotonic() > deadline:  # pragma: no cover
                    raise TimeoutError("waiters never arrived")
                time.sleep(0.001)
            return fn()

        def call():
            try:
                results.append(flights.do(key, guarded))
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=call) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        return results, errors

    def test_n_concurrent_callers_one_execution(self):
        flights = SingleFlight()
        calls = []

        def build():
            calls.append(1)
            return "pixels"

        results, errors = self._run_coalesced(flights, 6, build)
        assert not errors
        assert len(calls) == 1  # exactly one reconstruction
        assert len(results) == 6
        assert all(value == "pixels" for value, _ in results)
        assert sum(1 for _, leader in results if leader) == 1
        assert [leader for _, leader in results].count(False) == 5
        assert flights.waiters("k") == 0  # the flight has landed

    def test_waiters_share_the_leaders_exception(self):
        flights = SingleFlight()

        def explode():
            raise ValueError("reconstruction failed")

        results, errors = self._run_coalesced(flights, 4, explode)
        assert not results
        assert len(errors) == 4
        assert all(isinstance(error, ValueError) for error in errors)

    def test_distinct_keys_do_not_coalesce(self):
        flights = SingleFlight()
        calls = []
        leaders = []
        barrier = threading.Barrier(3)

        def build(tag):
            barrier.wait(timeout=5)
            calls.append(tag)
            return tag

        def call(tag):
            leaders.append(flights.do(tag, lambda: build(tag))[1])

        threads = [
            threading.Thread(target=call, args=(tag,)) for tag in "abc"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert sorted(calls) == ["a", "b", "c"]
        assert leaders == [True, True, True]
