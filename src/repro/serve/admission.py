"""Admission control for the serving front end.

Overload protection is a pipeline — *rate-limit, admit, queue, shed,
degrade* — and each stage here is a small synchronous object with an
injectable clock, so the refill math, the shedding order and the
accounting are testable without an event loop or a sleep:

* :class:`TokenBucket` / :class:`TenantRateLimiter` — per-tenant
  request budgets.  A tenant whose bucket is empty is *shed at the
  door*: no queue slot, no reconstruction work, just the degraded
  fallback (or a 503).
* :class:`DeadlineQueue` — the bounded waiting room between "admitted
  by the rate limiter" and "holds one of the ``max_inflight``
  reconstruction slots".  Every entry carries a deadline; entries that
  wait past it are shed, oldest first, and the queue can never grow
  past its capacity — bounded queueing is what keeps tail latency
  finite under a flash crowd (RAID-style request storms turn into
  bounded sheds, not collapse).
* :class:`AdmissionController` — glues the two together around an
  in-flight counter: a freed slot is handed to the oldest still-live
  waiter, expired or abandoned waiters are skipped, and the whole
  decision runs under one small lock so it can be driven from any
  thread (the async gateway drives it from its event loop; tests
  drive it directly).

What the front end admitted, shed and degraded is counted by the async
gateway itself (:class:`~repro.serve.async_gateway.AsyncGateway`, in a
:class:`~repro.serve.stats.StatsRecorder`), next to the calls it
makes here.

Nothing here knows about asyncio: the controller hands back
:class:`Ticket` objects and the async layer decides how to wait on
them.  That split keeps the policy deterministic under test while the
event loop supplies the concurrency.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

#: Queue capacity as a multiple of ``max_inflight``: the waiting room
#: is bounded at four times the number of reconstruction slots, so
#: even a misbehaving client cannot make the queue (or its memory)
#: grow without bound.
QUEUE_CAPACITY_FACTOR = 4

#: How many seconds of budget a tenant may burst through at once.
BURST_SECONDS = 2.0

#: The shed/degrade reasons the front end distinguishes.
SHED_RATE = "rate"
SHED_QUEUE = "queue-full"
SHED_DEADLINE = "deadline"


class TokenBucket:
    """The classic token-bucket rate limiter, fake-clock friendly.

    ``rate`` tokens accrue per second up to ``burst``; :meth:`try_take`
    spends one.  ``rate=0`` disables limiting (every take succeeds).
    Refill happens lazily at take time from the injected ``clock``, so
    tests can step time explicitly.
    """

    _GUARDED_BY = {"_tokens": "_lock", "_last": "_lock"}

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.rate = rate
        self.burst = (
            burst
            if burst is not None
            else max(1.0, rate * BURST_SECONDS)
        )
        if self.burst <= 0:
            raise ValueError(f"burst must be > 0, got {self.burst}")
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._last = clock()

    def _refill(self) -> None:  # guarded-by: _lock
        now = self._clock()
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last = now

    def try_take(self, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if the budget allows; never blocks."""
        if self.rate == 0:
            return True
        with self._lock:
            self._refill()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def peek(self) -> float:
        """Current token balance (after refill); for tests and stats."""
        with self._lock:
            self._refill()
            return self._tokens

    def __repr__(self) -> str:
        return f"TokenBucket(rate={self.rate}, burst={self.burst})"


class TenantRateLimiter:
    """One :class:`TokenBucket` per tenant, created lazily.

    ``rate=0`` admits everything without creating buckets.  The bucket
    map is the only shared structure; each bucket synchronizes itself,
    so the limiter's lock is held only for the dictionary lookup —
    never across the refill math.
    """

    _GUARDED_BY = {"_buckets": "_lock"}

    def __init__(
        self,
        rate: float,
        burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}

    def bucket_for(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, self._clock)
                self._buckets[tenant] = bucket
            return bucket

    def allow(self, tenant: str) -> bool:
        """Spend one request from ``tenant``'s budget."""
        if self.rate == 0:
            return True
        return self.bucket_for(tenant).try_take()

    def __len__(self) -> int:
        with self._lock:
            return len(self._buckets)


class Ticket:
    """One queued admission: the handle a waiter and the controller
    share.

    ``state`` moves ``waiting -> granted`` (the controller handed this
    ticket a freed slot) or ``waiting -> abandoned`` (the waiter gave
    up at its deadline); transitions happen under the controller's
    lock.  ``waiter`` is an opaque slot for whatever the caller waits
    on (the async gateway stores an ``asyncio.Future``); the
    controller never touches it.
    """

    __slots__ = ("tenant", "deadline", "state", "waiter")

    WAITING = "waiting"
    GRANTED = "granted"
    ABANDONED = "abandoned"

    def __init__(self, tenant: str, deadline: float) -> None:
        self.tenant = tenant
        self.deadline = deadline
        self.state = Ticket.WAITING
        self.waiter: Any = None

    def __repr__(self) -> str:
        return (
            f"Ticket(tenant={self.tenant!r}, state={self.state!r}, "
            f"deadline={self.deadline:.3f})"
        )


class DeadlineQueue:
    """A bounded FIFO whose entries expire; externally synchronized.

    The admission waiting room: :meth:`offer` appends with a deadline
    ``deadline_s`` from now (pruning expired entries first, so corpses
    never count against the bound), :meth:`pop_ready` removes and
    returns the *oldest unexpired* entry, dropping any expired ones it
    walks past — shedding order is strictly oldest-first.  A full
    queue of live entries refuses new offers.

    The queue itself takes no lock: the controller already serializes
    every access under its own (callers using it standalone, like the
    tests, are single-threaded).
    """

    def __init__(
        self,
        capacity: int,
        deadline_s: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.capacity = capacity
        self.deadline_s = deadline_s
        self._clock = clock
        self._entries: deque[tuple[float, Any]] = deque()

    def __len__(self) -> int:
        return len(self._entries)

    def prune(self) -> list[Any]:
        """Drop and return every expired entry (deadlines are
        monotone in arrival order, so they form a prefix)."""
        now = self._clock()
        expired: list[Any] = []
        while self._entries and self._entries[0][0] <= now:
            expired.append(self._entries.popleft()[1])
        return expired

    def offer(self, item: Any) -> float | None:
        """Enqueue ``item``; returns its deadline, or None when full."""
        self.prune()
        if len(self._entries) >= self.capacity:
            return None
        deadline = self._clock() + self.deadline_s
        self._entries.append((deadline, item))
        return deadline

    def pop_ready(self) -> Any | None:
        """Remove and return the oldest unexpired entry (None if the
        queue is empty or holds only expired entries)."""
        now = self._clock()
        while self._entries:
            deadline, item = self._entries.popleft()
            if deadline > now:
                return item
        return None


class AdmissionController:
    """Rate limit + in-flight cap + bounded deadline queue, as one
    decision.

    :meth:`try_admit` is the front door — its verdict is one of

    * ``"admitted"`` — the request holds one of ``max_inflight``
      slots; it must :meth:`release` when done;
    * ``("queued", ticket)`` — all slots are busy; the caller waits on
      the ticket until a release grants it the freed slot (the slot
      then transfers without touching the in-flight count) or its
      deadline passes, in which case it calls :meth:`abandon`;
    * ``"shed-rate"`` / ``"shed-queue"`` — refused outright: the
      tenant is over its budget, or the waiting room is full.

    Deadline shedding is cooperative: expired tickets are skipped (and
    dropped) whenever a slot frees, and a waiter whose own timer fires
    abandons its ticket — whichever happens first, the ticket sheds
    exactly once because every state transition happens under the
    controller lock.
    """

    _GUARDED_BY = {
        # The in-flight gauge mutates under the lock; stats endpoints
        # read the atomically-replaced int plain.
        "inflight": "_lock:writes",
        "_queue": "_lock",
    }

    def __init__(
        self,
        *,
        max_inflight: int,
        tenant_rps: float = 0.0,
        queue_deadline_s: float = 0.25,
        max_queue: int | None = None,
        tenant_burst: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        self.max_inflight = max_inflight
        self.clock = clock
        self.limiter = TenantRateLimiter(tenant_rps, tenant_burst, clock)
        self._queue = DeadlineQueue(
            max_queue or QUEUE_CAPACITY_FACTOR * max_inflight,
            queue_deadline_s,
            clock,
        )
        self.inflight = 0
        self._lock = threading.Lock()

    @property
    def queue_capacity(self) -> int:
        with self._lock:
            return self._queue.capacity

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def try_admit(self, tenant: str) -> tuple[str, Ticket | None]:
        """Decide one arrival; see the class docstring for verdicts."""
        # The bucket synchronizes itself — deliberately taken before
        # the controller lock so the two never nest.
        if not self.limiter.allow(tenant):
            return f"shed-{SHED_RATE}", None
        with self._lock:
            if self.inflight < self.max_inflight:
                self.inflight += 1
                return "admitted", None
            ticket = Ticket(tenant, 0.0)
            deadline = self._queue.offer(ticket)
            if deadline is None:
                return f"shed-{SHED_QUEUE}", None
            ticket.deadline = deadline
            return "queued", ticket

    def release(self) -> Ticket | None:
        """Give one slot back; returns the waiter it was granted to.

        The freed slot goes to the oldest live ticket — expired ones
        were already dropped by the queue, abandoned ones are skipped
        here — and transfers directly (the in-flight count only drops
        when no waiter takes over).  The caller wakes the returned
        ticket's waiter; the controller does not know how to.
        """
        with self._lock:
            while True:
                ticket = self._queue.pop_ready()
                if ticket is None:
                    self.inflight -= 1
                    return None
                if ticket.state != Ticket.WAITING:
                    continue  # abandoned while queued; keep looking
                ticket.state = Ticket.GRANTED
                return ticket

    def abandon(self, ticket: Ticket) -> bool:
        """A queued waiter gives up (its deadline timer fired).

        Returns True when the ticket never received a slot — the
        caller sheds.  False means a release granted the slot in the
        meantime (the classic timeout/grant race); the slot is handed
        straight back to the next waiter here, and the caller still
        sheds — its deadline passed first.
        """
        with self._lock:
            if ticket.state == Ticket.WAITING:
                ticket.state = Ticket.ABANDONED
                return True
        # Granted concurrently: pass the slot on rather than serve a
        # request that already timed out.
        granted = self.release()
        if granted is not None and granted.waiter is not None:
            # Wake the next waiter on the abandoning caller's behalf —
            # it is holding a live slot it does not know about yet.
            wake = getattr(granted.waiter, "set_result", None)
            if wake is not None and not granted.waiter.done():
                wake(True)
        return False

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            depth = len(self._queue)
            capacity = self._queue.capacity
            deadline_s = self._queue.deadline_s
        return {
            "max_inflight": self.max_inflight,
            "inflight": self.inflight,
            "queue_depth": depth,
            "queue_capacity": capacity,
            "queue_deadline_ms": round(deadline_s * 1000, 3),
            "tenant_rps": self.limiter.rate,
            "tenants_tracked": len(self.limiter),
        }

    def __repr__(self) -> str:
        return (
            f"AdmissionController(max_inflight={self.max_inflight}, "
            f"inflight={self.inflight}, queued={self.queue_depth()})"
        )
