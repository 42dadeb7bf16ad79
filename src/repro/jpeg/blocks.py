"""Plane <-> 8x8 block tiling with edge padding.

JPEG divides each component plane into an array of 8x8 blocks (paper
Section 2.1, "DCT Transformation").  Planes whose dimensions are not a
multiple of 8 are padded by edge replication, which avoids introducing
artificial high-frequency energy at the borders.
"""

from __future__ import annotations

import numpy as np


def pad_to_multiple_of_8(plane: np.ndarray) -> np.ndarray:
    """Edge-pad a 2-D plane so both dimensions are multiples of 8."""
    height, width = plane.shape
    pad_y = (-height) % 8
    pad_x = (-width) % 8
    if pad_y == 0 and pad_x == 0:
        return plane
    return np.pad(plane, ((0, pad_y), (0, pad_x)), mode="edge")


def plane_to_blocks(plane: np.ndarray) -> np.ndarray:
    """Tile a 2-D plane into blocks of shape ``(by, bx, 8, 8)``.

    The plane is edge-padded to a multiple of 8 first.
    """
    plane = pad_to_multiple_of_8(plane)
    height, width = plane.shape
    by = height // 8
    bx = width // 8
    return (
        plane.reshape(by, 8, bx, 8).swapaxes(1, 2).copy()
    )


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


def mcu_visit_plan(
    samplings: list[tuple[int, int]],
    mcus: tuple[int, int],
    grids: list[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Block visit order of an interleaved scan (T.81 A.2.3).

    Component ``slot`` has sampling factors ``samplings[slot] = (h, v)``
    and a block grid of ``grids[slot] = (rows, cols)``.  Each of the
    ``mcus = (mcus_y, mcus_x)`` MCUs, in raster order, holds ``v`` rows
    of ``h`` blocks of every component in turn.  Returns ``(slots,
    flats)``: the i-th visited block is block ``flats[i]`` (row-major)
    of component ``slots[i]``.  A grid smaller than its MCU-padded size
    is clamped at its last row and column, which replicates edge blocks
    into the padding as an encoder must.
    """
    mcus_y, mcus_x = mcus
    slots = []
    flats = []
    for slot, ((h, v), (rows, cols)) in enumerate(zip(samplings, grids)):
        y = np.minimum(np.arange(mcus_y)[:, None] * v + np.arange(v), rows - 1)
        x = np.minimum(np.arange(mcus_x)[:, None] * h + np.arange(h), cols - 1)
        flat = y[:, None, :, None] * cols + x[None, :, None, :]
        flats.append(flat.reshape(mcus_y, mcus_x, v * h))
        slots.append(np.full(flats[-1].shape, slot, dtype=np.uint8))
    return (
        np.concatenate(slots, axis=2).ravel(),
        np.concatenate(flats, axis=2).ravel().astype(np.int64),
    )
