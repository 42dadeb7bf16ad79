"""Progressive scan scripts and the two-pass scan driver (T.81 G.1.2).

A progressive JPEG is a *script* of scans.  Each :class:`ScanSpec`
names a coefficient band ``Ss..Se``, the components it codes (several
interleaved for DC, exactly one for AC) and a point transform: ``Ah``
and ``Al`` select which bits of each coefficient the scan sends.  Two
scripts ship:

* :func:`spectral_selection_script` — every scan at full precision
  (``Al = 0``): one DC scan, then AC bands 1-5 and 6-63.  This is the
  layout Facebook transcodes uploads into, and the default of
  :func:`repro.jpeg.encoder.encode_progressive`;
* :func:`default_sa_script` — successive approximation (SA), libjpeg's
  default progressive script: DC and AC bits are sent
  most-significant first across two passes.

:func:`run_scan` codes one scan, baseline or progressive, in two
passes: it counts symbols, builds optimal tables and writes.  The scan
itself is a :class:`Scan`, which the C kernel's
:class:`~repro.jpeg.native.encode.NativeScan` implements.  The four
progressive scan kinds, as libjpeg's jcphuff.c codes them, are:

* DC first scan (Ah=0): difference-code ``dc >> Al``;
* DC refinement (Ah>0): one raw bit per block — bit ``Al`` of the DC;
* AC first scan (Ah=0): run/size symbols on ``sign(y) * (|y| >> Al)``
  with EOB-run coding;
* AC refinement (Ah>0): newly significant coefficients emit
  ``(run << 4) | 1`` plus a sign bit; already-significant ones ride
  along as buffered correction bits (G.1.2.3 figure G.7).

An AC value that needs more than 15 magnitude bits does not fit its
symbol's size field; the encoder raises
:class:`~repro.jpeg.markers.JpegFormatError` for it, as libjpeg does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.jpeg.huffman import (
    HuffmanTable,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_LUMINANCE,
    build_optimized_table,
)

#: A Huffman table's place in the stream, as a DHT segment names it:
#: ``(table class, table id)`` with class 0 for DC and 1 for AC.
TableKey = tuple[int, int]


@dataclass(frozen=True)
class ScanSpec:
    """One scan of a progressive script.

    ``component_indices`` index into the image's component list; DC
    scans (``ss == 0``) may interleave several components, AC scans
    must name exactly one.
    """

    component_indices: tuple[int, ...]
    ss: int
    se: int
    ah: int
    al: int

    def __post_init__(self) -> None:
        if not 0 <= self.ss <= self.se <= 63:
            raise ValueError(f"bad spectral band ({self.ss}, {self.se})")
        if self.ss == 0 and self.se != 0:
            raise ValueError("DC and AC cannot share a progressive scan")
        if self.ss > 0 and len(self.component_indices) != 1:
            raise ValueError("AC scans must be non-interleaved")
        if not (0 <= self.ah <= 13 and 0 <= self.al <= 13):
            # T.81 Table B.3; the SOS byte holds each in 4 bits.
            raise ValueError(
                f"point transform out of 0-13 (Ah={self.ah}, Al={self.al})"
            )
        if self.ah and self.ah != self.al + 1:
            raise ValueError(
                f"refinement must shift one bit (Ah={self.ah}, Al={self.al})"
            )

    @property
    def is_dc(self) -> bool:
        return self.ss == 0

    @property
    def is_refinement(self) -> bool:
        return self.ah != 0


def spectral_selection_script(num_components: int) -> list[ScanSpec]:
    """Full-precision spectral selection: one DC scan over every
    component, then AC bands 1-5 and 6-63, band by band and, within a
    band, component by component."""
    everyone = tuple(range(num_components))
    return [ScanSpec(everyone, 0, 0, 0, 0)] + [
        ScanSpec((index,), ss, se, 0, 0)
        for ss, se in ((1, 5), (6, 63))
        for index in range(num_components)
    ]


def default_sa_script(num_components: int) -> list[ScanSpec]:
    """A libjpeg-style successive-approximation script."""
    everyone = tuple(range(num_components))
    script = [ScanSpec(everyone, 0, 0, 0, 1)]
    for index in range(num_components):
        script.append(ScanSpec((index,), 1, 5, 0, 1))
        script.append(ScanSpec((index,), 6, 63, 0, 1))
    script.append(ScanSpec(everyone, 0, 0, 1, 0))
    for index in range(num_components):
        script.append(ScanSpec((index,), 1, 5, 1, 0))
        script.append(ScanSpec((index,), 6, 63, 1, 0))
    return script


class Scan(Protocol):
    """One scan, coded in two passes: :meth:`count` the symbols of each
    table, then :meth:`write` the entropy bytes with the chosen tables."""

    def count(self) -> dict[TableKey, dict[int, int]]: ...

    def write(self, tables: dict[TableKey, HuffmanTable]) -> bytes: ...


def run_scan(
    scan: Scan, tables: dict[TableKey, HuffmanTable] | None = None
) -> tuple[dict[TableKey, HuffmanTable], bytes]:
    """Code one scan; returns ``(tables, entropy_bytes)``.

    Without ``tables`` this is libjpeg's two-pass ``optimize_coding``:
    the counting pass's histograms build one optimal table per key (the
    standard luminance table of its class for a key without symbols),
    and the writing pass codes with them.
    """
    if tables is None:
        fallback = {0: STANDARD_DC_LUMINANCE, 1: STANDARD_AC_LUMINANCE}
        tables = {
            key: build_optimized_table(counts) if counts else fallback[key[0]]
            for key, counts in scan.count().items()
        }
    return tables, scan.write(tables)
