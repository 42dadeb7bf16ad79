"""The proxy process loads only what serving needs.

Every upload and view passes through the trusted proxy, so whatever its
doors import is paid at every restart and held for the process's life.
The doors (``P3Gateway``, ``AsyncGateway``, ``P3Session``) and the
backends they are wired with must not load scipy, the attack suite
(``repro.vision``) or the synthetic corpora (``repro.datasets``), nor
anything under ``tests`` (the scalar codec and AES oracles live there,
and production reaches them through no option).

The check runs in a fresh interpreter, and it drives an upload, a cold
view and a repeat view through each door, so a ``from scipy import ...``
inside a function on a request path fails it as surely as one at module
level.  It runs from the repository root, where ``tests`` is
importable, so an import of an oracle would succeed and be seen.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Module-name prefixes the doors must never load.
FORBIDDEN = ("scipy", "repro.vision", "repro.datasets")

DOORS_SCRIPT = r"""
import sys

import numpy as np

from repro.api import P3Session
from repro.api.fanout import FanoutPSP
from repro.core.config import P3Config
from repro.crypto.keyring import Keyring
from repro.jpeg.codec import encode_rgb
from repro.serve.async_gateway import AsyncGateway
from repro.system.gateway import USER_HEADER, P3Gateway
from repro.system.http import HttpRequest, build_url
from repro.system.psp import FacebookPSP, FlickrPSP
from repro.system.storage import CloudStorage

rows, columns = np.mgrid[0:96, 0:80]
photo = np.stack([rows * 2, columns * 3, (rows + columns) % 256], axis=-1)
jpeg = encode_rgb(photo.astype(np.uint8), quality=85)
config = P3Config(threshold=15, quality=85)


def exchange(handle, method, path, params, body=b""):
    request = HttpRequest(
        method=method,
        url=build_url("https://gw.example", path, params),
        headers={USER_HEADER: "alice", "content-type": "image/jpeg"},
        body=body,
    )
    response = handle(request)
    assert response.ok, (method, path, response.status, response.body[:200])
    return response


def drive(handle):
    upload = exchange(handle, "POST", "/photos/upload", {"album": "trip"}, jpeg)
    view = f"/photos/{upload.headers['x-photo-id']}"
    params = {"album": "trip", "size": "64"}
    cold = exchange(handle, "GET", view, params)
    repeat = exchange(handle, "GET", view, params)
    assert cold.headers["x-cache"] == "reconstructed"
    assert repeat.headers["x-cache"] != "reconstructed"
    assert repeat.body == cold.body


sync = P3Gateway(FacebookPSP(), CloudStorage(), config)
sync.add_user("alice")
drive(sync.handle)
sync.close()

front = AsyncGateway(
    P3Gateway(FanoutPSP([FacebookPSP(), FlickrPSP()]), CloudStorage(), config)
)
front.gateway.add_user("alice")
drive(front.handle_sync)
front.close()

session = P3Session(Keyring("alice"), FacebookPSP(), CloudStorage(), config)
record = session.upload(jpeg, album="trip")
cold = session.download(record.photo_id, album="trip", resolution=64)
repeat = session.download(record.photo_id, album="trip", resolution=64)
assert np.array_equal(cold, repeat)

print("\n".join(sorted(sys.modules)))
"""


def test_doors_load_no_scipy_vision_or_datasets():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", DOORS_SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    loaded = completed.stdout.split()
    assert "repro.serve.async_gateway" in loaded  # the doors really ran
    assert [name for name in loaded if name.startswith(FORBIDDEN)] == []
    assert [
        name for name in loaded if name == "tests" or name.startswith("tests.")
    ] == []
