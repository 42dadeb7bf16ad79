"""`AsyncGateway`: the event-loop front end over a :class:`P3Gateway`.

The synchronous gateway serves one request per thread; this front end
multiplexes thousands of in-flight requests on one :mod:`asyncio`
event loop over the *same* shared :class:`~repro.serve.engine.
ServingEngine`:

* **cache hits stay on the loop** — a decoded-variant hit costs an
  access check plus the response body's one pixel copy
  (:meth:`~repro.serve.engine.ServingEngine.serve_cached`, then
  :func:`~repro.system.gateway.pixel_response`), so it is answered
  inline, no thread handoff;
* **cold serves are offloaded** — reconstructions run on a shared
  thread pool (:meth:`~repro.api.executors.Executor.offload`);
  because they execute in real threads, the engine's single-flight
  coalescing works across coroutines exactly as it does across
  request threads;
* **overload protection** — per-tenant token buckets, an in-flight
  cap, and a bounded deadline queue
  (:class:`~repro.serve.admission.AdmissionController`) decide every
  request's fate *before* it can touch a reconstruction slot.  Shed
  viewers degrade gracefully: ``degrade_mode="preview"`` answers with
  the public-part-only pixels (the paper's Figure-4 fallback — what a
  key-less viewer sees) instead of a 503, marked with an
  ``x-p3-degraded`` header.

Every knob comes from :class:`~repro.core.config.P3Config`
(``max_inflight``, ``tenant_rps``, ``queue_deadline_ms``,
``degrade_mode``) and every outcome is visible through ``/stats``
(admitted/shed/degraded counters, queue depth high-water mark,
p99/p999 latency), counted in the front end's
:class:`~repro.serve.stats.StatsRecorder`.

Parity with the sync gateway is by construction, not by convention:
authentication, view parsing and error mapping are *shared code*
(:meth:`~repro.system.gateway.P3Gateway.authenticate`,
:meth:`~repro.system.gateway.P3Gateway.view_request`,
:func:`~repro.system.gateway.map_exception`), and uploads are the
sync gateway's own handler run on the offload pool — so the two front
ends return byte-identical pixels and identical status codes for the
same request.

Rate limiting deliberately gates *reconstruction work*, not loop
hits: a tenant replaying a cached photo costs microseconds and is
served; the token bucket spends only when the request would consume
a slot, a queue position, or offload capacity.  Degraded previews
likewise bypass admission — a viral photo's flood of shed viewers
coalesces (single-flight + variant cache) into one public-part
decode, which is the cheap answer the degrade path exists to give.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace
from functools import partial
from typing import Any, Callable

from repro.api.executors import Executor, run_async
from repro.core.config import P3Config
from repro.serve.admission import SHED_DEADLINE, AdmissionController, Ticket
from repro.serve.engine import ServeRequest, ServeResult
from repro.serve.stats import StatsRecorder, percentile_ms
from repro.system.gateway import (
    USER_HEADER,
    P3Gateway,
    map_exception,
    pixel_response,
)
from repro.system.http import HttpRequest, HttpResponse

#: Response header naming the shed reason on a degraded preview.
DEGRADED_HEADER = "x-p3-degraded"

#: Offload threads beyond ``max_inflight``: headroom so degraded
#: previews (which bypass admission) never deadlock behind a full
#: complement of admitted serves.
OFFLOAD_HEADROOM = 4

#: Latency samples kept per front-end window, deep enough that a p999
#: has mass behind it.
FRONTEND_WINDOW = 16384


def _unavailable(reason: str) -> HttpResponse:
    return HttpResponse(
        status=503,
        headers={"content-type": "text/plain", "retry-after": "1"},
        body=f"overloaded: shed ({reason})".encode(),
    )


class AsyncGateway:
    """Asyncio front end + admission control over a sync gateway.

    Construct it around an existing :class:`~repro.system.gateway.
    P3Gateway` (tenancy, engine and upload path are shared — the two
    front ends can serve the same deployment side by side) and drive
    it with :meth:`handle` from a coroutine, or :meth:`handle_sync`
    from blocking code.  All admission decisions happen on the event
    loop; only blocking work (reconstructions, uploads) runs on the
    offload pool.  Call :meth:`close` when done.
    """

    # Admission state and counters synchronize inside the
    # AdmissionController and the StatsRecorder; everything here is
    # set once in __init__.
    _GUARDED_BY: dict[str, str] = {}

    def __init__(
        self,
        gateway: P3Gateway,
        *,
        controller: AdmissionController | None = None,
    ) -> None:
        self.gateway = gateway
        self.engine = gateway.engine
        self.config: P3Config = gateway.config
        self.controller = controller or AdmissionController(
            max_inflight=self.config.max_inflight,
            tenant_rps=self.config.tenant_rps,
            queue_deadline_s=self.config.queue_deadline_ms / 1000.0,
        )
        # Admitted serves and degraded previews keep separate latency
        # windows: mixing them would let cheap previews mask an
        # admitted-path tail.
        self.frontend = StatsRecorder(
            admitted=FRONTEND_WINDOW, degraded=FRONTEND_WINDOW
        )
        self.offload = Executor(
            "thread", self.controller.max_inflight + OFFLOAD_HEADROOM
        )

    def close(self) -> None:
        """Release the offload pool and close the gateway."""
        self.offload.shutdown()
        self.gateway.close()

    # -- the HTTP surface -----------------------------------------------------

    async def handle(self, request: HttpRequest) -> HttpResponse:
        """Serve one request; errors become status codes, never raises."""
        try:
            return await self._dispatch(request)
        except Exception as error:  # noqa: BLE001 - same contract,
            # same mapping as the sync gateway's handle().
            return map_exception(error)

    def handle_sync(self, request: HttpRequest) -> HttpResponse:
        """Blocking convenience over :meth:`handle` (tests, probes)."""
        return run_async(self.handle(request))

    async def _dispatch(self, request: HttpRequest) -> HttpResponse:
        path = request.path
        if request.method == "GET" and path == "/stats":
            return HttpResponse(
                status=200,
                headers={"content-type": "application/json"},
                body=json.dumps(self.stats_payload()).encode(),
            )
        if request.method == "POST" and path == "/photos/upload":
            return await self._handle_upload(request)
        if request.method == "GET" and path.startswith("/photos/"):
            return await self._handle_view(
                request, path[len("/photos/") :]
            )
        return HttpResponse(
            status=404,
            headers={"content-type": "text/plain"},
            body=f"no route for {request.method} {path}".encode(),
        )

    # -- views ----------------------------------------------------------------

    async def _handle_view(
        self, request: HttpRequest, photo_id: str
    ) -> HttpResponse:
        arrival = time.perf_counter()
        # Shared parsing: 401/400/404 verdicts are decided on the loop,
        # before any admission budget is spent.
        serve_request = self.gateway.view_request(request, photo_id)
        # The view's one access check: serves after a miss skip theirs.
        cached = self.engine.serve_cached(serve_request)
        if cached is not None:
            self.frontend.record(
                "admitted",
                "loop_hits",
                window="admitted",
                sample=time.perf_counter() - arrival,
            )
            return pixel_response(cached)
        reason = await self._admit(request)
        if reason is not None:
            return await self._shed(serve_request, reason, arrival)
        result: ServeResult = await self._run_admitted(
            partial(self.engine.serve, preauthorized=True),
            serve_request,
            arrival,
        )
        return pixel_response(result)

    async def _admit(self, request: HttpRequest) -> str | None:
        """Win a reconstruction slot for this request's tenant.

        Returns ``None`` once the request holds a slot (the caller
        must hand it back through :meth:`_run_admitted`), or the shed
        reason when the rate limit, a full queue or the queue deadline
        turned it away.
        """
        tenant = request.headers.get(USER_HEADER, "")
        verdict, ticket = self.controller.try_admit(tenant)
        if verdict == "admitted":
            return None
        if verdict != "queued":
            return verdict[len("shed-") :]
        assert ticket is not None
        self.frontend.high_water(
            "queue_depth_max", self.controller.queue_depth()
        )
        return None if await self._await_grant(ticket) else SHED_DEADLINE

    async def _run_admitted(
        self, fn: Callable[[Any], Any], item: Any, arrival: float
    ) -> Any:
        """Run an admitted request's blocking call on the offload pool,
        free its slot, and record its latency if it succeeded."""
        try:
            result = await self.offload.offload(fn, item)
        finally:
            self._release()
        self.frontend.record(
            "admitted", window="admitted", sample=time.perf_counter() - arrival
        )
        return result

    async def _await_grant(self, ticket: Ticket) -> bool:
        """Wait for a freed slot until the ticket's deadline.

        The waiter future lives on this loop; grants resolve it from
        :meth:`_release` (also on this loop — only blocking work
        leaves it, so controller calls never race across threads).
        Returns False when the deadline fired: the ticket is
        abandoned, and if a grant slipped in between the timeout and
        the abandon, the controller hands that slot straight to the
        next waiter — either way this request sheds exactly once.
        """
        future: asyncio.Future[bool] = (
            asyncio.get_running_loop().create_future()
        )
        ticket.waiter = future
        if ticket.state == Ticket.GRANTED:
            return True
        timeout = max(0.001, ticket.deadline - self.controller.clock())
        try:
            await asyncio.wait_for(future, timeout)
            return True
        except asyncio.TimeoutError:
            # True = never granted; False = the grant raced the timer
            # and the controller already passed the slot on.  Both
            # mean this request sheds.
            self.controller.abandon(ticket)
            return False

    def _release(self) -> None:
        """Return a slot; wake the waiter it transfers to, if any."""
        granted = self.controller.release()
        if granted is not None and granted.waiter is not None:
            waiter: asyncio.Future[bool] = granted.waiter
            if not waiter.done():
                waiter.set_result(True)

    async def _shed(
        self, serve_request: ServeRequest, reason: str, arrival: float
    ) -> HttpResponse:
        """A view lost admission: degrade to a preview, or 503.

        ``degrade_mode="preview"`` serves the public-part-only pixels
        — exactly what ``download_public_only`` yields for this photo
        — bypassing admission: the preview coalesces in the variant
        cache/single-flight layer, so a flash crowd's worth of shed
        viewers costs one public decode, not thousands.
        """
        if self.config.degrade_mode != "preview":
            self.frontend.record(("shed", reason), "rejected")
            return _unavailable(reason)
        self.frontend.record(("shed", reason), "degraded")
        # Same photo, same requester: the view's access check holds.
        preview = replace(serve_request, album=None, key=None)
        result = self.engine.serve_cached(preview, preauthorized=True)
        if result is None:
            result = await self.offload.offload(
                partial(self.engine.serve, preauthorized=True), preview
            )
        self.frontend.record(
            window="degraded", sample=time.perf_counter() - arrival
        )
        response = pixel_response(result)
        response.headers[DEGRADED_HEADER] = reason
        return response

    # -- uploads --------------------------------------------------------------

    async def _handle_upload(self, request: HttpRequest) -> HttpResponse:
        """Uploads ride the same admission pipeline, minus degrade.

        There is no cheaper version of an upload to fall back to, so a
        shed upload is always a 503 whatever ``degrade_mode`` says.
        The admitted path runs the sync gateway's whole handler on the
        offload pool — encryption, publish, rollback and error
        mapping included — so the two front ends accept and refuse
        identically.
        """
        arrival = time.perf_counter()
        self.gateway.authenticate(request)  # 401 before spending budget
        reason = await self._admit(request)
        if reason is not None:
            self.frontend.record(("shed", reason), "rejected")
            return _unavailable(reason)
        response: HttpResponse = await self._run_admitted(
            self.gateway.handle, request, arrival
        )
        return response

    # -- observability --------------------------------------------------------

    def stats_payload(self) -> dict[str, Any]:
        """The engine's snapshot plus the front end's own counters.

        ``frontend`` comes from one recorder read, so its percentiles
        describe exactly the requests its counters count.
        """
        counts, windows = self.frontend.snapshot()
        shed = {
            name[1]: value
            for name, value in counts.items()
            if isinstance(name, tuple)
        }
        admitted = windows["admitted"]
        payload = self.engine.snapshot()
        payload["frontend"] = {
            "admitted": counts.get("admitted", 0),
            "loop_hits": counts.get("loop_hits", 0),
            "shed": shed,
            "shed_total": sum(shed.values()),
            "degraded": counts.get("degraded", 0),
            "rejected": counts.get("rejected", 0),
            "queue_depth_max": counts.get("queue_depth_max", 0),
            "p50_ms": percentile_ms(admitted, 50),
            "p99_ms": percentile_ms(admitted, 99),
            "p999_ms": percentile_ms(admitted, 99.9),
            "degraded_p99_ms": percentile_ms(windows["degraded"], 99),
        }
        payload["admission"] = self.controller.snapshot()
        return payload

    def __repr__(self) -> str:
        return (
            f"AsyncGateway(max_inflight={self.controller.max_inflight}, "
            f"inflight={self.controller.inflight}, "
            f"degrade_mode={self.config.degrade_mode!r})"
        )
