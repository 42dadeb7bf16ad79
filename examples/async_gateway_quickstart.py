"""Async front-end quickstart: one event loop, a thousand viewers.

The multi-user gateway demo (``gateway_quickstart.py``) serves one
request per thread; this one puts the asyncio front end
(:class:`~repro.serve.async_gateway.AsyncGateway`) over the same
deployment and drives it into overload on purpose:

    python examples/async_gateway_quickstart.py

A herd of concurrent viewers hits one cold photo through real async
round trips.  The admission layer (``P3Config.max_inflight``,
``queue_deadline_ms``) lets a handful reconstruct — coalesced onto a
*single* reconstruction by the engine's single-flight layer — queues
a bounded backlog, and sheds the rest.  Shed viewers are not turned
away with a 503: ``degrade_mode="preview"`` answers them with the
public-part-only pixels (what a key-less viewer would see anyway),
marked with an ``x-p3-degraded`` header.  Warm traffic afterwards is
answered directly on the event loop, no thread handoff at all, and
``/stats`` shows exactly what happened to whom.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.core import P3Config
from repro.datasets import render_scene
from repro.jpeg.codec import encode_rgb
from repro.serve.async_gateway import DEGRADED_HEADER, AsyncGateway
from repro.system.client import PhotoSharingClient
from repro.system.gateway import USER_HEADER, P3Gateway
from repro.system.http import HttpRequest, build_url
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage


class SlowPSP:
    """The real PSP behind a simulated 80 ms network round trip."""

    def __init__(self, inner, rtt_s: float = 0.08) -> None:
        self.inner = inner
        self.rtt_s = rtt_s

    def download(self, photo_id, requester, resolution=None, crop_box=None):
        time.sleep(self.rtt_s)
        return self.inner.download(
            photo_id, requester, resolution=resolution, crop_box=crop_box
        )

    def __getattr__(self, name):
        return getattr(self.inner, name)


def view(user: str, photo_id: str) -> HttpRequest:
    return HttpRequest(
        method="GET",
        url=build_url(
            "http://gw.local", f"/photos/{photo_id}", {"album": "family"}
        ),
        headers={USER_HEADER: user},
    )


async def main() -> None:
    # Tight knobs so the overload machinery is visible at demo scale:
    # 2 reconstruction slots, an 8-deep queue, 120 ms of patience.
    config = P3Config(
        threshold=15,
        quality=85,
        max_inflight=2,
        queue_deadline_ms=120.0,
        degrade_mode="preview",
    )
    gateway = P3Gateway(FacebookPSP(), CloudStorage(), config)

    alice = PhotoSharingClient.for_gateway(gateway, "alice")
    herd = [f"viewer{i}" for i in range(40)]
    jpeg = encode_rgb(render_scene(seed=0, height=256, width=256), quality=85)
    receipt = alice.upload_photo(jpeg, "family", viewers=set(herd))
    for user in herd:
        gateway.add_user(user)
    gateway.share_album("alice", "family", *herd)

    # The serving path now pays a real network RTT per cold fetch —
    # reconstruction capacity is scarce, which is the whole point.
    gateway.engine.psp = SlowPSP(gateway.engine.psp)
    front = AsyncGateway(gateway)

    # -- 40 viewers, one cold photo, one instant ---------------------------
    start = time.perf_counter()
    responses = await asyncio.gather(
        *[front.handle(view(user, receipt.photo_id)) for user in herd]
    )
    wall = time.perf_counter() - start
    full = [r for r in responses if r.ok and DEGRADED_HEADER not in r.headers]
    degraded = [r for r in responses if DEGRADED_HEADER in r.headers]
    reconstructions = gateway.engine.stats.count("reconstructions")
    print(
        f"herd of {len(herd)}: {len(full)} full serves + "
        f"{len(degraded)} degraded previews in {wall * 1000:.0f} ms "
        f"(one at a time would be ~{len(herd) * 80} ms)"
    )
    print(
        f"  engine did {reconstructions} reconstruction(s) total — "
        f"single-flight coalesced the admitted herd, the previews "
        f"coalesced too"
    )
    assert len({r.body for r in full}) == 1, "full serves must be identical"
    assert len({r.body for r in degraded}) <= 1
    print(
        f"  every shed viewer got pixels, not a 503 "
        f"(header {DEGRADED_HEADER}: "
        f"{degraded[0].headers[DEGRADED_HEADER] if degraded else 'n/a'})"
    )

    # -- warm traffic never leaves the event loop --------------------------
    warm_start = time.perf_counter()
    await asyncio.gather(
        *[front.handle(view(user, receipt.photo_id)) for user in herd[:10]]
    )
    print(
        f"10 warm views: {(time.perf_counter() - warm_start) * 1000:.1f} ms "
        f"— answered on the loop, no offload, no admission spend"
    )

    # -- /stats tells the whole story --------------------------------------
    response = await front.handle(
        HttpRequest(method="GET", url="http://gw.local/stats",
                    headers={USER_HEADER: "alice"})
    )
    payload = json.loads(response.body)
    frontend = payload["frontend"]
    print(
        f"/stats: admitted={frontend['admitted']} "
        f"(loop hits {frontend['loop_hits']}), shed={frontend['shed']}, "
        f"queue max {frontend['queue_depth_max']}"
        f"/{payload['admission']['queue_capacity']}, "
        f"admitted p99 {frontend['p99_ms']} ms, "
        f"degraded p99 {frontend['degraded_p99_ms']} ms"
    )
    front.close()


if __name__ == "__main__":
    asyncio.run(main())
