"""Reference implementations the fast codec layers are checked against.

Each is the straightforward form a production function replaced: the
three-operand einsum forward DCT, libjpeg's O(257 n) least-count scan
for optimal Huffman tables, the byte-at-a-time scan-end search, the
textbook colour formulas with one float64 temporary per operation, and
the numpy forms of the kernel's other pixel passes (level shift and
tiling, quantization, the provider's float-to-uint8 packing).  They
live here, not in ``src/``, so there is one production path per
primitive and one oracle to diff it against.  The blur's oracle is
``scipy.ndimage.gaussian_filter``.
"""

from __future__ import annotations

import numpy as np

from repro.jpeg.color import _KB, _KG, _KR
from repro.jpeg.dct import DCT_BASIS
from repro.jpeg.huffman import HuffmanTable
from repro.jpeg.markers import RST0, RST7


def einsum_forward_dct(blocks: np.ndarray) -> np.ndarray:
    """``C X C^T`` over a stack of 8x8 blocks as one three-operand einsum."""
    c = DCT_BASIS
    return np.einsum("ij,...jk,lk->...il", c, blocks.astype(np.float64), c)


def scan_optimized_table(frequencies: dict[int, int]) -> HuffmanTable:
    """T.81 K.2 table building with libjpeg's linear least-count scans."""
    freq = [0] * 257
    for symbol, count in frequencies.items():
        if not 0 <= symbol <= 255:
            raise ValueError(f"symbol out of range: {symbol}")
        freq[symbol] = count
    freq[256] = 1

    code_size = [0] * 257
    others = [-1] * 257

    while True:
        v1 = -1
        least = None
        for i in range(257):
            if freq[i] > 0 and (least is None or freq[i] <= least):
                least = freq[i]
                v1 = i
        v2 = -1
        least = None
        for i in range(257):
            if freq[i] > 0 and i != v1 and (least is None or freq[i] <= least):
                least = freq[i]
                v2 = i
        if v2 < 0:
            break
        freq[v1] += freq[v2]
        freq[v2] = 0
        code_size[v1] += 1
        while others[v1] >= 0:
            v1 = others[v1]
            code_size[v1] += 1
        others[v1] = v2
        code_size[v2] += 1
        while others[v2] >= 0:
            v2 = others[v2]
            code_size[v2] += 1

    bits = [0] * 33
    for i in range(257):
        if code_size[i]:
            bits[code_size[i]] += 1

    for length in range(32, 16, -1):
        while bits[length] > 0:
            shorter = length - 2
            while bits[shorter] == 0:
                shorter -= 1
            bits[length] -= 2
            bits[length - 1] += 1
            bits[shorter + 1] += 2
            bits[shorter] -= 1

    for length in range(16, 0, -1):
        if bits[length] > 0:
            bits[length] -= 1
            break

    pairs = sorted(
        (code_size[symbol], symbol)
        for symbol in range(256)
        if code_size[symbol] > 0
    )
    values = tuple(symbol for _, symbol in pairs)
    return HuffmanTable(bits=tuple(bits[1:17]), values=values)


def bytewise_find_scan_end(data: bytes, position: int) -> int:
    """Step one byte at a time to the first marker that ends a scan."""
    while position < len(data) - 1:
        if data[position] == 0xFF:
            next_byte = data[position + 1]
            if next_byte == 0x00:
                position += 2
                continue
            if RST0 <= next_byte <= RST7:
                position += 2
                continue
            return position
        position += 1
    return len(data)


def textbook_rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """JFIF RGB -> YCbCr, one float64 temporary per operation."""
    rgb = rgb.astype(np.float64)
    r = rgb[..., 0]
    g = rgb[..., 1]
    b = rgb[..., 2]
    y = _KR * r + _KG * g + _KB * b
    cb = 128.0 + (b - y) / (2.0 * (1.0 - _KB))
    cr = 128.0 + (r - y) / (2.0 * (1.0 - _KR))
    return np.stack([y, cb, cr], axis=-1)


def textbook_ycbcr_to_rgb(ycbcr: np.ndarray) -> np.ndarray:
    """JFIF YCbCr -> uint8 RGB, one float64 temporary per operation."""
    y = ycbcr[..., 0].astype(np.float64)
    cb = ycbcr[..., 1].astype(np.float64) - 128.0
    cr = ycbcr[..., 2].astype(np.float64) - 128.0
    r = y + 2.0 * (1.0 - _KR) * cr
    b = y + 2.0 * (1.0 - _KB) * cb
    g = (y - _KR * r - _KB * b) / _KG
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def pad_to_multiple_of_8(plane: np.ndarray) -> np.ndarray:
    """Edge-pad a 2-D plane so both dimensions are multiples of 8."""
    height, width = plane.shape
    pad_y = (-height) % 8
    pad_x = (-width) % 8
    if pad_y == 0 and pad_x == 0:
        return plane
    return np.pad(plane, ((0, pad_y), (0, pad_x)), mode="edge")


def plane_to_blocks(plane: np.ndarray) -> np.ndarray:
    """Tile a 2-D plane into ``(by, bx, 8, 8)`` blocks, edge-padded to a
    multiple of 8 first."""
    plane = pad_to_multiple_of_8(plane)
    height, width = plane.shape
    return plane.reshape(height // 8, 8, width // 8, 8).swapaxes(1, 2).copy()


def numpy_level_shift_blocks(plane: np.ndarray) -> np.ndarray:
    """The encoder's level shift and tiling as whole-plane numpy passes."""
    return plane_to_blocks(plane.astype(np.float64) - 128.0)


def numpy_quantize(coefficients: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Round half away from zero as numpy passes: divide, abs, add,
    floor, copysign, cast."""
    table = table.astype(np.float64)
    scaled = coefficients / table
    return np.copysign(np.floor(np.abs(scaled) + 0.5), scaled).astype(
        np.int32
    )


def numpy_pack_rgb8(planes: list[np.ndarray]) -> np.ndarray:
    """The provider's float planes -> uint8 pixels: clip, stack, round
    half to even, cast."""
    clipped = [np.clip(plane, 0, 255) for plane in planes]
    return np.stack(clipped, axis=-1).round().astype(np.uint8)
