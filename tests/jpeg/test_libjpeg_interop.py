"""libjpeg as an outside oracle for the codec and its scalar oracle.

Decode direction: two progressive 4:2:0 streams written by libjpeg
(``fixtures/libjpeg_coefficients.c write`` regenerates them) must
decode, in the codec and in the scalar T.81 oracle
(:mod:`tests.jpeg.scalar_codec`), to the coefficients libjpeg's own
``jpeg_read_coefficients`` returns, pinned here by SHA-256, and must
upload through the gateway.  One splits every DC scan into one scan per
component, the other has a restart interval of one MCU.

Encode direction: where a C compiler, ``jpeglib.h`` and ``-ljpeg`` are
present, the same C file is compiled into a temporary directory and
libjpeg reads back what the encoders write, for every script at 4:4:4,
4:2:2 and 4:2:0 from both, without a corrupt-data warning.
Otherwise those tests skip and say why.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.api.pipeline import DecryptTask, run_decrypt_task
from repro.jpeg.codec import rgb_to_coefficients
from repro.jpeg.markers import JpegFormatError
from repro.jpeg.scans import (
    ScanSpec,
    default_sa_script,
    spectral_selection_script,
)
from repro.serve.keys import secret_blob_key
from repro.system.gateway import USER_HEADER, P3Gateway, pixels_from_response
from repro.system.http import HttpRequest, build_url
from repro.system.psp import FacebookPSP
from repro.system.storage import CloudStorage
from tests.jpeg.scalar_codec import CODECS

FIXTURES = Path(__file__).parent / "fixtures"
READER_SOURCE = FIXTURES / "libjpeg_coefficients.c"
STREAMS = ("progressive_dc_per_component", "progressive_restart_1")

#: SHA-256 of ``libjpeg_coefficients read`` on either fixture (both
#: code the same image, so libjpeg reads the same coefficients).
LIBJPEG_COEFFICIENTS = (
    "0b76f9ccec29c25f8316b58954b61b9f108c995fd00d6bd3de0bd8dd0a124404"
)


def _fixture(name: str) -> bytes:
    return (FIXTURES / f"{name}.jpg").read_bytes()


def _coefficient_bytes(image) -> bytes:
    """The reader's output layout: components in frame order, blocks in
    raster order, each block in natural order, little-endian int16."""
    return b"".join(
        component.coefficients.astype("<i2").tobytes()
        for component in image.components
    )


@pytest.mark.parametrize("engine", CODECS)
@pytest.mark.parametrize("name", STREAMS)
def test_fixture_decodes_to_libjpeg_coefficients(name, engine):
    image = CODECS[engine].decode_to_coefficients(_fixture(name))
    assert [(c.h_sampling, c.v_sampling) for c in image.components] == [
        (2, 2),
        (1, 1),
        (1, 1),
    ]
    digest = hashlib.sha256(_coefficient_bytes(image)).hexdigest()
    assert digest == LIBJPEG_COEFFICIENTS


@pytest.mark.parametrize("name", STREAMS)
def test_fixture_corruptions_agree_between_engines(name):
    # Every scan kind crosses restart segments in the restart fixture:
    # on each corruption the codec and the oracle fail or decode the
    # same values.
    data = _fixture(name)
    rng = np.random.default_rng(8)
    for _ in range(150):
        mutated = bytearray(data)
        position = int(rng.integers(2, len(mutated)))
        mutated[position] ^= int(rng.integers(1, 256))
        outcomes = []
        for codec in CODECS.values():
            try:
                decoded = codec.decode_to_coefficients(bytes(mutated))
                outcomes.append(_coefficient_bytes(decoded))
            except (JpegFormatError, ValueError, OverflowError):
                outcomes.append(None)
        assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", STREAMS)
def test_fixture_uploads_and_serves_the_reference(name):
    psp, storage = FacebookPSP(), CloudStorage()
    gateway = P3Gateway(psp, storage)
    keys = gateway.add_user("alice")
    upload = gateway.handle(
        HttpRequest(
            method="POST",
            url=build_url(
                "https://gw.example", "/photos/upload", {"album": "trip"}
            ),
            headers={USER_HEADER: "alice"},
            body=_fixture(name),
        )
    )
    assert upload.status == 201, upload.body
    photo_id = upload.headers["x-photo-id"]
    view = gateway.handle(
        HttpRequest(
            method="GET",
            url=build_url(
                "https://gw.example", f"/photos/{photo_id}", {"album": "trip"}
            ),
            headers={USER_HEADER: "alice"},
        )
    )
    assert view.status == 200, view.body
    reference = run_decrypt_task(
        DecryptTask(
            key=keys.key_for("trip"),
            public_jpeg=psp.download(photo_id, requester="alice"),
            secret_envelope=storage.get(secret_blob_key("trip", photo_id)),
        )
    )
    assert np.array_equal(pixels_from_response(view), reference)


# -- encode direction ---------------------------------------------------------


@pytest.fixture(scope="module")
def libjpeg_reader(tmp_path_factory) -> Path:
    compiler = os.environ.get("CC") or "cc"
    if shutil.which(compiler) is None:
        pytest.skip(f"no C compiler ({compiler}) for the libjpeg reader")
    binary = tmp_path_factory.mktemp("libjpeg") / "libjpeg_coefficients"
    build = subprocess.run(
        [compiler, "-O2", "-std=c99", str(READER_SOURCE), "-o", str(binary),
         "-ljpeg"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if build.returncode:
        first_line = (build.stderr.strip().splitlines() or ["?"])[0]
        pytest.skip(
            "cannot build the libjpeg reader (needs jpeglib.h and "
            f"-ljpeg): {first_line}"
        )
    return binary


def _dc_per_component_script(num_components, sa):
    """One DC scan per component, at full precision or as SA."""
    passes = ((0, 1), (1, 0)) if sa else ((0, 0),)
    return [
        ScanSpec((index,), ss, se, ah, al)
        for ah, al in passes
        for ss, se in ((0, 0), (1, 63))
        for index in range(num_components)
    ]


SCRIPTS = {
    "spectral_selection": spectral_selection_script,
    "sa": default_sa_script,
    "dc_per_component": lambda n: _dc_per_component_script(n, sa=False),
    "sa_dc_per_component": lambda n: _dc_per_component_script(n, sa=True),
}


@pytest.fixture(scope="module")
def rgb():
    # 45x37: every sampling leaves a grid smaller than its MCU grid.
    rng = np.random.default_rng(21)
    y, x = np.mgrid[0:37, 0:45]
    base = np.stack([5 * x, 6 * y, 3 * (x + y)], axis=-1)
    return np.clip(base + rng.integers(-30, 31, base.shape), 0, 255).astype(
        np.uint8
    )


def _libjpeg_reads_back(reader: Path, data: bytes, expected: bytes, tmp_path):
    path = tmp_path / "stream.jpg"
    path.write_bytes(data)
    result = subprocess.run(
        [str(reader), "read", str(path)], capture_output=True, timeout=60
    )
    assert b"Corrupt JPEG data" not in result.stderr, result.stderr
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected


@pytest.mark.parametrize("engine", CODECS)
@pytest.mark.parametrize("subsampling", ["4:4:4", "4:2:2", "4:2:0"])
@pytest.mark.parametrize("script", list(SCRIPTS))
def test_libjpeg_reads_progressive_encodes(
    libjpeg_reader, rgb, tmp_path, script, subsampling, engine
):
    image = rgb_to_coefficients(rgb, quality=75, subsampling=subsampling)
    data = CODECS[engine].encode_progressive(
        image, SCRIPTS[script](len(image.components))
    )
    _libjpeg_reads_back(
        libjpeg_reader, data, _coefficient_bytes(image), tmp_path
    )


@pytest.mark.parametrize("engine", CODECS)
@pytest.mark.parametrize("subsampling", ["4:4:4", "4:2:2", "4:2:0"])
def test_libjpeg_reads_baseline_encodes_with_restarts(
    libjpeg_reader, rgb, tmp_path, subsampling, engine
):
    image = rgb_to_coefficients(rgb, quality=75, subsampling=subsampling)
    data = CODECS[engine].encode_baseline(image, restart_interval=2)
    _libjpeg_reads_back(
        libjpeg_reader, data, _coefficient_bytes(image), tmp_path
    )
