"""The serving tier's one stats store and its one percentile.

:class:`StatsRecorder` keeps named counters and bounded latency
windows behind one lock.  The engine, the async front end and each
cache tier own one, record every event's counters and latency sample
in a single lock acquisition, and build their part of ``/stats`` from
one consistent :meth:`StatsRecorder.snapshot`.  Every latency figure
the tier reports goes through :func:`percentile`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Hashable, Iterable


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile in the input's own units (0 if empty).

    The single percentile definition for the serving tier: the
    engine's and the async front end's ``/stats`` windows and the
    benchmark/CLI trace replays all report through this, so their
    figures are directly comparable.
    """
    values = list(values)
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(p / 100 * (len(ordered) - 1))))
    return ordered[index]


def percentile_ms(seconds: Iterable[float], p: float) -> float:
    """:func:`percentile` of a window of seconds, as ``/stats`` shows
    it: milliseconds, rounded to the microsecond."""
    return round(percentile(seconds, p) * 1000, 3)


class StatsRecorder:
    """Named counters and bounded latency windows behind one lock.

    A counter name is any hashable (a cache counts per partition under
    ``(partition, "hits")``); a counter never recorded reads 0.  Each
    keyword names a latency window and its size: ``serve=4096`` keeps
    the newest 4096 samples of window ``"serve"``.

    :meth:`record` counts one event and appends its latency sample in
    one lock acquisition, and :meth:`snapshot` copies everything in
    another, so a snapshot's percentiles come from exactly the events
    its counters describe.  A cache passes its own ``lock`` and counts
    with :meth:`bump` inside its critical section, so a lookup and its
    counting share one acquisition.
    """

    _GUARDED_BY = {"_counts": "_lock", "_windows": "_lock"}

    def __init__(
        self, *, lock: threading.Lock | None = None, **windows: int
    ) -> None:
        self._lock = lock or threading.Lock()
        self._counts: dict[Hashable, int] = {}
        self._windows: dict[str, deque[float]] = {
            name: deque(maxlen=size) for name, size in windows.items()
        }

    def record(
        self,
        *counters: Hashable,
        window: str | None = None,
        sample: float = 0.0,
    ) -> None:
        """Count one event under each of ``counters`` and append
        ``sample`` to ``window`` (when given), under one lock."""
        with self._lock:
            self.bump(*counters)
            if window is not None:
                self._windows[window].append(sample)

    def bump(self, *counters: Hashable) -> None:  # guarded-by: _lock
        """Count one event under each name; the caller holds the lock."""
        counts = self._counts
        for name in counters:
            counts[name] = counts.get(name, 0) + 1

    def high_water(self, counter: Hashable, value: int) -> None:
        """Raise ``counter`` to ``value`` if it is lower."""
        with self._lock:
            if value > self._counts.get(counter, 0):
                self._counts[counter] = value

    def count(self, counter: Hashable) -> int:
        with self._lock:
            return self._counts.get(counter, 0)

    def snapshot(
        self,
    ) -> tuple[dict[Hashable, int], dict[str, list[float]]]:
        """Copies of every counter and every window, taken under one
        lock acquisition."""
        with self._lock:
            return dict(self._counts), {
                name: list(window) for name, window in self._windows.items()
            }
