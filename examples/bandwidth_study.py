"""Scenario: the mobile-bandwidth story (paper Section 5.3, Figure 10).

A mobile user on a metered plan browses an album.  This example
measures what P3 costs them: for each photo resolution the PSP serves,
compare the bytes downloaded with P3 (resized public part + whole
secret part, cached across resolutions) against plain sharing (resized
original only), across thresholds.

    python examples/bandwidth_study.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import Table, format_table
from repro.api.session import P3Session
from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.datasets import inria_like
from repro.jpeg.codec import encode_rgb
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage

THRESHOLDS = (1, 10, 20)
RESOLUTIONS = (720, 130, 75)


def measure_session(threshold: int, photos: list[np.ndarray]) -> dict:
    """One album-browsing session at a given threshold."""
    storage = CloudStorage()

    # With P3.
    psp = FacebookPSP()
    session = P3Session(
        Keyring("user"),
        psp,
        storage,
        P3Config(threshold=threshold, quality=88),
    )
    records = [
        session.upload(encode_rgb(photo, quality=88), album="album")
        for photo in photos
    ]
    psp.bytes_served = 0
    before = storage.get_count
    for record in records:
        for resolution in RESOLUTIONS:
            session.download(record.photo_id, "album", resolution=resolution)
    secret_fetches = storage.get_count - before
    secret_bytes = sum(r.secret_bytes for r in records)
    with_p3 = psp.bytes_served + secret_bytes

    # Without P3: same browsing pattern on plain uploads.
    plain_psp = FacebookPSP()
    plain_ids = [
        plain_psp.upload(encode_rgb(photo, quality=88), owner="user")
        for photo in photos
    ]
    plain_psp.bytes_served = 0
    for photo_id in plain_ids:
        for resolution in RESOLUTIONS:
            plain_psp.download(photo_id, "user", resolution=resolution)
    without_p3 = plain_psp.bytes_served

    return {
        "with_p3": with_p3,
        "without_p3": without_p3,
        "overhead_kb": (with_p3 - without_p3) / 1024.0,
        "secret_fetches": secret_fetches,
    }


def main() -> None:
    photos = inria_like(count=3)
    print(
        f"browsing {len(photos)} photos at resolutions {RESOLUTIONS} "
        "(each photo viewed at all three sizes)"
    )
    table = Table(title="bandwidth per browsing session", x_label="T")
    rows = [measure_session(threshold, photos) for threshold in THRESHOLDS]
    table.add("with_P3_kB", list(THRESHOLDS), [r["with_p3"] / 1024 for r in rows])
    table.add(
        "plain_kB", list(THRESHOLDS), [r["without_p3"] / 1024 for r in rows]
    )
    table.add("overhead_kB", list(THRESHOLDS), [r["overhead_kb"] for r in rows])
    print()
    print(format_table(table))
    print(
        f"\nsecret parts fetched once per photo ({rows[0]['secret_fetches']} "
        "fetches) thanks to the proxy cache; higher thresholds shrink the "
        "secret part and with it the bandwidth cost — the Figure 10 trade-off."
    )


if __name__ == "__main__":
    main()
