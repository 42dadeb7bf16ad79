"""Where the P3 proxy's CPU-heavy work runs.

One :class:`Executor` class covers the three kinds in
:data:`EXECUTOR_KINDS`:

* ``"serial"`` — the calling thread, one item at a time: the reference
  behaviour and the default;
* ``"thread"`` — a ``concurrent.futures`` thread pool, for work that
  releases the GIL or waits on I/O (fan-out ingest, replica puts, the
  async gateway's offloaded serves);
* ``"process"`` — a process pool for the CPU-bound encode/split/decode
  hot path.  Task functions and items must be picklable (the
  :mod:`repro.api.pipeline` tasks are built for this).

Every kind keeps the same contracts.  :meth:`Executor.map` applies a
function to a batch and returns one :class:`TaskOutcome` per item, in
input order, with each item's exception captured instead of aborting
the batch.  :meth:`Executor.offload` awaits a single call and lets its
exception propagate.

The pool's lifetime follows the call.  ``map`` builds a pool for its
batch and tears it down before returning: batches are corpus-sized, so
pool startup is amortized, and a batch executor holds nothing between
calls.  ``offload`` serves the opposite workload, many single calls
from concurrent coroutines (the async gateway's offloaded serves), so
its calls share one pool that starts on first use and lives until
:meth:`Executor.shutdown`.  Shutting down is safe to repeat, and the
next call starts a new pool.  The serial kind runs every call inline
and never has a pool.
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent import futures
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Coroutine, Iterable, Sequence

EXECUTOR_KINDS = ("serial", "thread", "process")

_POOL_CLASSES: dict[str, Callable[..., futures.Executor]] = {
    "thread": futures.ThreadPoolExecutor,
    "process": futures.ProcessPoolExecutor,
}


def run_async(coro: Coroutine[Any, Any, Any]) -> Any:
    """Run a coroutine to completion from synchronous code.

    The loop-ownership seam for every sync->async crossing in the
    codebase: if no event loop is running on this thread the coroutine
    gets its own via :func:`asyncio.run`; if one *is* running (a
    notebook, a test driving an async server, a callback inside the
    async gateway's loop) nesting ``asyncio.run`` would raise, so the
    coroutine is driven by a fresh loop on a helper thread and this
    caller blocks on the result.  Either way exceptions propagate
    unchanged.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    with futures.ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(asyncio.run, coro).result()


@dataclass
class TaskOutcome:
    """Result of one batch item: a value or a captured error, never both."""

    index: int
    value: Any = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def describe_error(error: BaseException) -> str:
    """The one-line failure format every batch stage reports with."""
    return f"{type(error).__name__}: {error}"


def _call(thunk: Callable[[], Any]) -> Any:
    return thunk()


def _outcomes(thunks: Iterable[Callable[[], Any]]) -> list[TaskOutcome]:
    """Call each thunk in order, capturing its value or its error."""
    outcomes: list[TaskOutcome] = []
    for index, thunk in enumerate(thunks):
        try:
            outcomes.append(TaskOutcome(index, value=thunk()))
        except Exception as error:
            outcomes.append(TaskOutcome(index, error=describe_error(error)))
    return outcomes


def run_calls(
    executor: "Executor", thunks: Sequence[Callable[[], Any]]
) -> list[TaskOutcome]:
    """Run zero-argument callables under an executor's map contract.

    The fan-out write path (multi-provider ingest, replica puts) is a
    list of *heterogeneous* calls rather than one function over many
    items; this adapter keeps those call sites on the same ordered,
    per-item-error-capturing :class:`TaskOutcome` contract.  Closures
    do not pickle, so pair it with the serial or thread kind — which
    is what ingest wants anyway: backend mutations must happen in this
    process.
    """
    return executor.map(_call, thunks)


class Executor:
    """Runs task functions inline (``"serial"``) or on a pool.

    ``workers=None`` (or 0) means one worker per CPU for the pooled
    kinds; the serial kind always has exactly one, whatever was asked.
    """

    _GUARDED_BY = {"_pool": "_pool_lock"}

    def __init__(self, kind: str = "serial", workers: int | None = None) -> None:
        if kind not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor kind {kind!r}; expected one of "
                f"{EXECUTOR_KINDS}"
            )
        self.kind = kind
        self.workers = (
            1 if kind == "serial" else max(1, workers or os.cpu_count() or 1)
        )
        self._pool: futures.Executor | None = None
        self._pool_lock = threading.Lock()

    def map(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> list[TaskOutcome]:
        """Apply ``fn`` to every item, capturing per-item failures.

        The pooled kinds run the batch on a pool of their own, started
        and shut down inside this call.
        """
        items = list(items)
        if self.kind == "serial" or not items:
            return _outcomes(partial(fn, item) for item in items)
        with _POOL_CLASSES[self.kind](max_workers=self.workers) as pool:
            return _outcomes([pool.submit(fn, item).result for item in items])

    async def offload(self, fn: Callable[[Any], Any], item: Any) -> Any:
        """Await one blocking call on the shared pool.

        An async caller (the gateway's event loop) ships ``fn(item)`` to
        the pool and yields until it lands, without blocking the loop.
        Concurrent callers share the pool.  Unlike :meth:`map`, errors
        are *not* captured: exceptions propagate unchanged.
        """
        if self.kind == "serial":
            return fn(item)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._shared_pool(), fn, item)

    def shutdown(self) -> None:
        """Stop the shared pool, if one is running (safe to repeat)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _shared_pool(self) -> futures.Executor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = _POOL_CLASSES[self.kind](max_workers=self.workers)
            return self._pool

    def __repr__(self) -> str:
        return f"Executor({self.kind!r}, workers={self.workers})"
