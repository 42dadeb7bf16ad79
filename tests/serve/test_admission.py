"""Isolated tests for the overload-protection building blocks:
token-bucket refill math under a fake clock, deadline-queue shedding
order, the admission controller's slot accounting, and the front
end's part of ``/stats``."""

import threading

import pytest

from repro.serve.admission import (
    AdmissionController,
    DeadlineQueue,
    QUEUE_CAPACITY_FACTOR,
    TenantRateLimiter,
    Ticket,
    TokenBucket,
)
from repro.serve.async_gateway import AsyncGateway
from repro.serve.trace import percentile
from repro.system.gateway import P3Gateway
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        assert bucket.peek() == 4.0
        for _ in range(4):
            assert bucket.try_take()
        assert not bucket.try_take()  # empty, no time has passed

    def test_refill_math_is_rate_times_elapsed(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        for _ in range(4):
            bucket.try_take()
        clock.advance(0.5)  # 0.5s * 2/s = 1 token
        assert bucket.try_take()
        assert not bucket.try_take()
        clock.advance(0.25)  # half a token is not a whole token
        assert not bucket.try_take()
        clock.advance(0.25)
        assert bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.advance(100.0)  # 1000 tokens accrued, capped at 3
        assert bucket.peek() == 3.0

    def test_zero_rate_means_unlimited(self):
        bucket = TokenBucket(rate=0.0, clock=FakeClock())
        assert all(bucket.try_take() for _ in range(1000))

    def test_default_burst_is_two_seconds_of_budget(self):
        assert TokenBucket(rate=5.0, clock=FakeClock()).burst == 10.0
        # ...but never below one whole request.
        assert TokenBucket(rate=0.1, clock=FakeClock()).burst == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=-1.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0.0)

    def test_concurrent_takes_never_oversell(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0001, burst=50.0, clock=clock)
        taken = []

        def worker():
            grabbed = sum(1 for _ in range(100) if bucket.try_take())
            taken.append(grabbed)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(taken) == 50  # exactly the burst, never more


class TestTenantRateLimiter:
    def test_tenants_have_independent_budgets(self):
        clock = FakeClock()
        limiter = TenantRateLimiter(rate=1.0, burst=2.0, clock=clock)
        assert limiter.allow("alice")
        assert limiter.allow("alice")
        assert not limiter.allow("alice")
        assert limiter.allow("bob")  # untouched budget
        assert len(limiter) == 2

    def test_zero_rate_tracks_no_buckets(self):
        limiter = TenantRateLimiter(rate=0.0, clock=FakeClock())
        assert all(limiter.allow("anyone") for _ in range(100))
        assert len(limiter) == 0


class TestDeadlineQueue:
    def test_fifo_pop_order(self):
        clock = FakeClock()
        queue = DeadlineQueue(capacity=4, deadline_s=1.0, clock=clock)
        for name in ("a", "b", "c"):
            assert queue.offer(name) is not None
        assert queue.pop_ready() == "a"
        assert queue.pop_ready() == "b"
        assert queue.pop_ready() == "c"
        assert queue.pop_ready() is None

    def test_expired_entries_shed_oldest_first(self):
        clock = FakeClock()
        queue = DeadlineQueue(capacity=8, deadline_s=1.0, clock=clock)
        queue.offer("old1")
        queue.offer("old2")
        clock.advance(0.6)
        queue.offer("young")
        clock.advance(0.6)  # old1/old2 are now past deadline
        assert queue.prune() == ["old1", "old2"]
        assert queue.pop_ready() == "young"

    def test_pop_ready_skips_expired(self):
        clock = FakeClock()
        queue = DeadlineQueue(capacity=8, deadline_s=1.0, clock=clock)
        queue.offer("stale")
        clock.advance(0.5)
        queue.offer("fresh")
        clock.advance(0.75)
        # No prune() call: pop_ready itself must walk past the corpse.
        assert queue.pop_ready() == "fresh"
        assert len(queue) == 0

    def test_full_queue_refuses(self):
        clock = FakeClock()
        queue = DeadlineQueue(capacity=2, deadline_s=1.0, clock=clock)
        assert queue.offer("a") is not None
        assert queue.offer("b") is not None
        assert queue.offer("c") is None

    def test_offer_prunes_expired_before_refusing(self):
        """A queue full of corpses still accepts fresh arrivals — the
        bound counts live waiters only."""
        clock = FakeClock()
        queue = DeadlineQueue(capacity=2, deadline_s=1.0, clock=clock)
        queue.offer("a")
        queue.offer("b")
        clock.advance(2.0)
        assert queue.offer("c") is not None
        assert queue.pop_ready() == "c"

    def test_deadline_is_offer_time_plus_window(self):
        clock = FakeClock(10.0)
        queue = DeadlineQueue(capacity=2, deadline_s=0.25, clock=clock)
        assert queue.offer("x") == 10.25


class TestAdmissionController:
    def make(self, clock, **kwargs):
        defaults = dict(
            max_inflight=2, queue_deadline_s=1.0, clock=clock
        )
        defaults.update(kwargs)
        return AdmissionController(**defaults)

    def test_admits_up_to_max_inflight(self):
        controller = self.make(FakeClock())
        assert controller.try_admit("a") == ("admitted", None)
        assert controller.try_admit("b") == ("admitted", None)
        verdict, ticket = controller.try_admit("c")
        assert verdict == "queued"
        assert isinstance(ticket, Ticket)
        assert controller.inflight == 2
        assert controller.queue_depth() == 1

    def test_release_grants_oldest_waiter_and_transfers_slot(self):
        controller = self.make(FakeClock())
        controller.try_admit("a")
        controller.try_admit("b")
        _, first = controller.try_admit("c")
        _, second = controller.try_admit("d")
        granted = controller.release()
        assert granted is first
        assert first.state == Ticket.GRANTED
        assert second.state == Ticket.WAITING
        # The slot transferred: still two in flight, one still queued.
        assert controller.inflight == 2
        assert controller.queue_depth() == 1

    def test_release_with_empty_queue_frees_the_slot(self):
        controller = self.make(FakeClock())
        controller.try_admit("a")
        assert controller.release() is None
        assert controller.inflight == 0

    def test_release_skips_expired_waiters(self):
        clock = FakeClock()
        controller = self.make(clock)
        controller.try_admit("a")
        controller.try_admit("b")
        _, stale = controller.try_admit("c")
        clock.advance(0.5)
        _, fresh = controller.try_admit("d")
        clock.advance(0.75)  # stale expired, fresh still live
        granted = controller.release()
        assert granted is fresh
        assert stale.state == Ticket.WAITING  # dropped, never granted

    def test_release_skips_abandoned_waiters(self):
        controller = self.make(FakeClock())
        controller.try_admit("a")
        controller.try_admit("b")
        _, quitter = controller.try_admit("c")
        _, patient = controller.try_admit("d")
        assert controller.abandon(quitter)  # timed out first
        assert quitter.state == Ticket.ABANDONED
        assert controller.release() is patient

    def test_abandon_after_grant_passes_slot_on(self):
        """The timeout/grant race: the ticket was granted but its
        waiter's deadline fired first — the slot must flow to the next
        waiter, not leak."""
        controller = self.make(FakeClock())
        controller.try_admit("a")
        controller.try_admit("b")
        _, racer = controller.try_admit("c")
        _, next_up = controller.try_admit("d")
        assert controller.release() is racer  # granted...
        assert not controller.abandon(racer)  # ...but gave up anyway
        assert next_up.state == Ticket.GRANTED
        assert controller.inflight == 2

    def test_queue_full_sheds(self):
        controller = self.make(FakeClock(), max_inflight=1, max_queue=1)
        controller.try_admit("a")
        controller.try_admit("b")
        verdict, ticket = controller.try_admit("c")
        assert verdict == "shed-queue-full"
        assert ticket is None

    def test_rate_limit_sheds_before_queueing(self):
        clock = FakeClock()
        controller = self.make(
            clock, tenant_rps=1.0, tenant_burst=1.0
        )
        assert controller.try_admit("a")[0] == "admitted"
        assert controller.try_admit("a")[0] == "shed-rate"
        # Another tenant is unaffected, and time restores the budget.
        assert controller.try_admit("b")[0] == "admitted"
        clock.advance(1.0)
        assert controller.try_admit("a")[0] == "queued"  # slots busy now

    def test_default_queue_capacity_is_bounded_by_factor(self):
        controller = self.make(FakeClock(), max_inflight=3)
        assert controller.queue_capacity == 3 * QUEUE_CAPACITY_FACTOR

    def test_snapshot_shape(self):
        controller = self.make(FakeClock())
        controller.try_admit("a")
        snap = controller.snapshot()
        assert snap["inflight"] == 1
        assert snap["queue_depth"] == 0
        assert snap["max_inflight"] == 2
        assert snap["queue_deadline_ms"] == 1000.0


@pytest.fixture()
def front():
    """An async front end whose recorder the tests drive directly."""
    front = AsyncGateway(P3Gateway(FacebookPSP(), CloudStorage()))
    yield front
    front.close()


class TestFrontendStats:
    """The front end's events, as :class:`AsyncGateway` records them,
    and the ``frontend`` part of ``/stats`` it builds from them."""

    def test_counters_and_percentiles(self, front):
        stats = front.frontend
        for ms in (1, 2, 3, 4, 100):
            stats.record("admitted", window="admitted", sample=ms / 1000.0)
        stats.record("admitted", "loop_hits", window="admitted", sample=0.001)
        stats.record(("shed", "rate"), "degraded")
        stats.record(("shed", "rate"), "degraded")
        stats.record(("shed", "deadline"), "rejected")
        stats.record(window="degraded", sample=0.005)
        stats.high_water("queue_depth_max", 3)
        stats.high_water("queue_depth_max", 1)
        snap = front.stats_payload()["frontend"]
        assert snap["admitted"] == 6
        assert snap["loop_hits"] == 1
        assert snap["shed"] == {"rate": 2, "deadline": 1}
        assert snap["shed_total"] == 3
        assert snap["degraded"] == 2
        assert snap["rejected"] == 1
        assert snap["queue_depth_max"] == 3
        assert snap["p99_ms"] == 100.0
        assert snap["degraded_p99_ms"] == 5.0

    def test_empty_windows_report_zero(self, front):
        snap = front.stats_payload()["frontend"]
        assert snap["p50_ms"] == 0.0
        assert snap["p999_ms"] == 0.0
        assert snap["p99_ms"] == 0.0
        assert snap["degraded_p99_ms"] == 0.0

    def test_percentile_ms_matches_snapshot(self, front):
        """The snapshot's latencies are the shared nearest-rank
        percentile of the window, in milliseconds."""
        latencies = [value / 1000.0 for value in range(1, 101)]
        for latency in latencies:
            front.frontend.record("admitted", window="admitted", sample=latency)
        snap = front.stats_payload()["frontend"]
        for key, p in (("p50_ms", 50), ("p99_ms", 99), ("p999_ms", 99.9)):
            assert snap[key] == round(percentile(latencies, p) * 1000, 3)
