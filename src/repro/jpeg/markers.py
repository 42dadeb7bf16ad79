"""JPEG marker constants and segment-level parsing/serialization.

A JPEG file is a sequence of marker segments (``FF xx`` followed, for most
markers, by a 2-byte big-endian length and a payload) interleaved with
entropy-coded data after each SOS.  PSPs inspect and rewrite this layer:
the paper observes that Facebook strips all application-specific markers
and converts baseline files to progressive.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

# Start/end of image.
SOI = 0xD8
EOI = 0xD9

# Frame headers.
SOF0 = 0xC0  # baseline sequential DCT
SOF1 = 0xC1  # extended sequential
SOF2 = 0xC2  # progressive DCT

# Huffman / quantization / scan / restart.
DHT = 0xC4
DQT = 0xDB
SOS = 0xDA
DRI = 0xDD
RST0 = 0xD0
RST7 = 0xD7

# Application and comment markers.
APP0 = 0xE0  # JFIF
APP1 = 0xE1  # Exif
APP15 = 0xEF
COM = 0xFE

#: Markers that have no length/payload.
_STANDALONE = frozenset({SOI, EOI, *range(RST0, RST7 + 1), 0x01})


@dataclass
class Segment:
    """One marker segment: the marker code and its payload bytes.

    For SOS segments, ``entropy_data`` holds the byte-stuffed scan data
    that follows the header, up to (not including) the next marker.
    """

    marker: int
    payload: bytes = b""
    entropy_data: bytes = b""

    @property
    def name(self) -> str:
        return marker_name(self.marker)


def marker_name(marker: int) -> str:
    """Human-readable name of a marker code."""
    names = {
        SOI: "SOI", EOI: "EOI", SOF0: "SOF0", SOF1: "SOF1", SOF2: "SOF2",
        DHT: "DHT", DQT: "DQT", SOS: "SOS", DRI: "DRI", COM: "COM",
    }
    if marker in names:
        return names[marker]
    if APP0 <= marker <= APP15:
        return f"APP{marker - APP0}"
    if RST0 <= marker <= RST7:
        return f"RST{marker - RST0}"
    return f"0x{marker:02X}"


class JpegFormatError(ValueError):
    """Raised when a byte stream is not a well-formed JPEG file."""


def parse_segments(data: bytes) -> list[Segment]:
    """Parse a JPEG byte stream into a flat list of :class:`Segment`.

    Entropy-coded data following each SOS is attached to that segment.
    Restart markers inside scan data are treated as part of the scan.
    """
    if len(data) < 4 or data[0] != 0xFF or data[1] != SOI:
        raise JpegFormatError("missing SOI marker")
    segments: list[Segment] = [Segment(marker=SOI)]
    position = 2
    while position < len(data):
        if data[position] != 0xFF:
            raise JpegFormatError(
                f"expected marker at offset {position}, got "
                f"0x{data[position]:02X}"
            )
        # Skip fill bytes (repeated 0xFF).
        while position < len(data) and data[position] == 0xFF:
            position += 1
        if position >= len(data):
            break
        marker = data[position]
        position += 1
        if marker == EOI:
            segments.append(Segment(marker=EOI))
            break
        if marker in _STANDALONE:
            segments.append(Segment(marker=marker))
            continue
        if position + 2 > len(data):
            raise JpegFormatError("truncated segment length")
        (length,) = struct.unpack(">H", data[position : position + 2])
        if length < 2:
            raise JpegFormatError(f"invalid segment length {length}")
        payload = data[position + 2 : position + length]
        if len(payload) != length - 2:
            raise JpegFormatError("truncated segment payload")
        position += length
        if marker == SOS:
            scan_start = position
            position = _find_scan_end(data, position)
            segments.append(
                Segment(
                    marker=SOS,
                    payload=payload,
                    entropy_data=data[scan_start:position],
                )
            )
        else:
            segments.append(Segment(marker=marker, payload=payload))
    return segments


def _find_scan_end(data: bytes, position: int) -> int:
    """Advance past entropy-coded data to the next true marker.

    Jumps from one ``0xFF`` to the next; stuffed ``FF 00`` bytes and
    restart markers belong to the scan.  A ``0xFF`` in the last byte
    starts no marker, so the scan then runs to the end of ``data``.
    """
    last = len(data) - 1
    while position < last:
        position = data.find(b"\xff", position, last)
        if position < 0:
            break
        next_byte = data[position + 1]
        if next_byte != 0x00 and not RST0 <= next_byte <= RST7:
            return position
        position += 2
    return len(data)


def serialize_segments(segments: list[Segment]) -> bytes:
    """Serialize :class:`Segment` objects back into a JPEG byte stream."""
    out = bytearray()
    for segment in segments:
        out.append(0xFF)
        out.append(segment.marker)
        if segment.marker in _STANDALONE:
            continue
        out.extend(struct.pack(">H", len(segment.payload) + 2))
        out.extend(segment.payload)
        if segment.marker == SOS:
            out.extend(segment.entropy_data)
    return bytes(out)


def jfif_app0_payload(density: tuple[int, int] = (72, 72)) -> bytes:
    """Build a standard JFIF 1.01 APP0 payload (dpi density, no thumb)."""
    return (
        b"JFIF\x00"
        + bytes([1, 1])  # version 1.01
        + bytes([1])  # density units: dots per inch
        + struct.pack(">HH", *density)
        + bytes([0, 0])  # no thumbnail
    )


def strip_application_markers(segments: list[Segment]) -> list[Segment]:
    """Drop all APPn and COM segments (what Facebook/Flickr do).

    The paper relies on this behaviour: embedding the secret part in an
    application marker fails because PSPs strip them (Section 4.1).
    """
    return [
        segment
        for segment in segments
        if not (APP0 <= segment.marker <= APP15 or segment.marker == COM)
    ]
