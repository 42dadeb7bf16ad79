"""Single-flight request coalescing.

When N concurrent viewers ask for the same photo variant, exactly one
of them (the *leader*) should pay for the reconstruction; the others
wait on the leader's result and share it.  This is the classic
``singleflight`` discipline from serving systems: without it, a cache
miss under concurrent load turns into a thundering herd of identical
reconstructions that each miss again.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable


class _Flight:
    __slots__ = ("done", "result", "error", "waiters")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.waiters = 0


class SingleFlight:
    """Deduplicate concurrent calls that share a key.

    :meth:`do` returns ``(result, leader)``: the first caller for a
    key runs ``fn`` and is the leader; callers arriving while that
    call is in flight block until it finishes and receive the same
    result object (``leader=False``).  Calls that arrive *after* the
    flight lands start a fresh one — coalescing dedupes concurrency,
    not time (that is the cache's job).

    If the leader raises, every waiter of that flight raises the same
    exception object; the failure is not cached, so the next caller
    retries.
    """

    _GUARDED_BY = {"_flights": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: dict[Hashable, _Flight] = {}

    def waiters(self, key: Hashable) -> int:
        """How many callers are currently waiting on ``key``'s flight."""
        with self._lock:
            flight = self._flights.get(key)
            return flight.waiters if flight is not None else 0

    def do(
        self, key: Hashable, fn: Callable[[], Any]
    ) -> tuple[Any, bool]:
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = _Flight()
                self._flights[key] = flight
                leader = True
            else:
                flight.waiters += 1
                leader = False
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result, False
        try:
            flight.result = fn()
        except BaseException as error:
            flight.error = error
            raise
        finally:
            with self._lock:
                self._flights.pop(key, None)
            flight.done.set()
        return flight.result, True
