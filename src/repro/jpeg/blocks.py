"""Plane <-> 8x8 block tiling with edge padding.

JPEG divides each component plane into an array of 8x8 blocks (paper
Section 2.1, "DCT Transformation").  Planes whose dimensions are not a
multiple of 8 are padded by edge replication, which avoids introducing
artificial high-frequency energy at the borders; the encoder tiles a
plane in one kernel pass (:func:`repro.jpeg.native.pixels.tile_blocks`).
The order in which a scan visits those blocks (T.81 A.2),
:func:`scan_visit_plan`, is decided here once for the codec and its
scalar test oracle, encode and decode.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def blocks_to_plane(
    blocks: np.ndarray, height: int | None = None, width: int | None = None
) -> np.ndarray:
    """Reassemble ``(by, bx, 8, 8)`` blocks into a plane, cropping padding.

    ``height``/``width`` give the true (unpadded) plane size; if omitted
    the full padded plane is returned.
    """
    if blocks.ndim != 4 or blocks.shape[2:] != (8, 8):
        raise ValueError(f"expected (by, bx, 8, 8) blocks, got {blocks.shape}")
    by, bx = blocks.shape[:2]
    plane = blocks.swapaxes(1, 2).reshape(by * 8, bx * 8)
    if height is not None:
        plane = plane[:height]
    if width is not None:
        plane = plane[:, :width]
    return plane


def block_grid_shape(height: int, width: int) -> tuple[int, int]:
    """Number of 8x8 blocks needed to cover a ``height`` x ``width`` plane."""
    return ((height + 7) // 8, (width + 7) // 8)


def _mcu_grid(
    samplings: Sequence[tuple[int, int]], grids: Sequence[tuple[int, int]]
) -> tuple[int, int]:
    """MCU rows and columns of an interleaved scan (T.81 A.2.3).

    Component ``slot`` has sampling ``(h, v)`` and block grid ``(rows,
    cols)``; the MCU grid is the largest ``ceil(rows / v)`` by
    ``ceil(cols / h)`` among them.
    """
    mcus_y = max(-(-rows // v) for (_, v), (rows, _) in zip(samplings, grids))
    mcus_x = max(-(-cols // h) for (h, _), (_, cols) in zip(samplings, grids))
    return mcus_y, mcus_x


def scan_block_count(
    samplings: Sequence[tuple[int, int]], grids: Sequence[tuple[int, int]]
) -> int:
    """How many blocks one scan codes, MCU padding blocks included."""
    if len(grids) == 1:
        rows, cols = grids[0]
        return rows * cols
    mcus_y, mcus_x = _mcu_grid(samplings, grids)
    return mcus_y * mcus_x * sum(h * v for h, v in samplings)


def scan_visit_plan(
    samplings: Sequence[tuple[int, int]],
    grids: Sequence[tuple[int, int]],
    spill: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Block visit order of one scan (T.81 A.2).

    Component ``slot`` of the scan has sampling factors ``samplings[slot]
    = (h, v)`` and a block grid of ``grids[slot] = (rows, cols)``.
    Returns ``(slots, flats)``, two arrays with one row per MCU: the
    scan's i-th block is block ``flats.flat[i]`` (row-major in its grid)
    of component ``slots.flat[i]``.

    A one-component scan walks its component's grid in raster order,
    one block per MCU (A.2.2).  A scan of several components walks the
    frame's MCUs in raster order, each holding ``v`` rows of ``h`` blocks
    of every component in turn (A.2.3).  Where an MCU reaches past a
    component's grid, the padding block is the edge block it clamps to,
    which is what an encoder codes, or with ``spill`` block ``rows *
    cols``, one past the grid, which a decoder writes and drops.  Every
    component of a frame gives the same MCU grid, ``ceil(rows / v)`` by
    ``ceil(cols / h)`` (A.1.1).
    """
    if len(grids) == 1:
        rows, cols = grids[0]
        flats = np.arange(rows * cols, dtype=np.int64)[:, None]
        return np.zeros(flats.shape, dtype=np.uint8), flats
    mcus_y, mcus_x = _mcu_grid(samplings, grids)
    slots = []
    flats = []
    for slot, ((h, v), (rows, cols)) in enumerate(zip(samplings, grids)):
        y = (np.arange(mcus_y)[:, None] * v + np.arange(v))[:, None, :, None]
        x = (np.arange(mcus_x)[:, None] * h + np.arange(h))[None, :, None, :]
        if spill:
            flat = np.where((y < rows) & (x < cols), y * cols + x, rows * cols)
        else:
            flat = np.minimum(y, rows - 1) * cols + np.minimum(x, cols - 1)
        flats.append(flat.reshape(mcus_y * mcus_x, v * h))
        slots.append(np.full(flats[-1].shape, slot, dtype=np.uint8))
    return (
        np.concatenate(slots, axis=1),
        np.concatenate(flats, axis=1).astype(np.int64),
    )
