"""Whole-scan encode drivers over the C kernel.

Each of the five scan kinds (baseline, DC first, DC refinement, AC
first, AC refinement) has one C loop.  A :class:`NativeScan` binds a
loop to its inputs and runs it twice, like libjpeg's two-pass
``optimize_coding``: :meth:`~NativeScan.count` fills the per-table
symbol histograms :func:`~repro.jpeg.huffman.build_optimized_table`
takes, and :meth:`~NativeScan.write` codes the scan with the chosen
tables into a buffer sized for the worst case.  The loops read int32
raster blocks through the ``(slots, flats)`` visit plan the decode
drivers use (:func:`~repro.jpeg.blocks.mcu_visit_plan`), so MCU edge
padding is a clamped block index and zigzag order a table in the
kernel.

Both passes raise what the scalar encoder raises on the same image:
:class:`~repro.jpeg.markers.JpegFormatError` for an AC value that needs
more than 15 magnitude bits, and ``ValueError`` for a symbol missing
from a given table.  Building a scan raises
:class:`~repro.jpeg.native.kernel.NativeUnavailableError` when the
kernel cannot build.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.jpeg.blocks import mcu_visit_plan
from repro.jpeg.huffman import HuffmanTable, encoder_code_arrays
from repro.jpeg.markers import JpegFormatError
from repro.jpeg.native.kernel import ERR_COEF_RANGE, require_kernel
from repro.jpeg.scans import ScanSpec, TableKey
from repro.jpeg.structures import CoefficientImage, ComponentInfo

#: Output bytes one block can need.  A baseline block codes at most a DC
#: symbol with 32 payload bits, 63 AC values of 16 + 15 bits and an EOB:
#: 2017 bits, 253 bytes, and stuffing can double each byte.  The
#: progressive scans code less per block.
_BLOCK_BYTES = 512

_CTYPES = {
    np.dtype(np.int32): "int32_t *",
    np.dtype(np.int64): "int64_t *",
    np.dtype(np.uint8): "uint8_t *",
}


def _raster_view(component: ComponentInfo) -> np.ndarray:
    """A component's blocks as a contiguous ``(blocks, 64)`` int32
    raster array: no copy for the int32 arrays components hold."""
    coefficients = component.coefficients
    if coefficients.dtype != np.int32 and coefficients.size and (
        coefficients.min() < -(1 << 31) or coefficients.max() >= 1 << 31
    ):
        raise JpegFormatError("DCT coefficient out of range")
    return np.ascontiguousarray(coefficients, dtype=np.int32).reshape(-1, 64)


def _plan(
    components: list[ComponentInfo], mcus: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved visit plan over the components' own block grids,
    clamped into the MCU padding."""
    for component in components:
        if (
            component.blocks_y > mcus[0] * component.v_sampling
            or component.blocks_x > mcus[1] * component.h_sampling
        ):
            raise ValueError("block array larger than MCU grid")
    return mcu_visit_plan(
        [(c.h_sampling, c.v_sampling) for c in components],
        mcus,
        [(c.blocks_y, c.blocks_x) for c in components],
    )


class NativeScan:
    """One scan bound to its C loop: :meth:`count`, then :meth:`write`.

    ``arguments`` are the loop's inputs after the writer (an array
    passes as a pointer, a list of arrays as a pointer array);
    ``table_slots`` names, for each table-pointer array that follows
    them, the table key of every slot.
    """

    def __init__(
        self,
        function: str,
        arguments: tuple[Any, ...],
        table_slots: list[list[TableKey]],
        nblocks: int,
        restarts: int = 0,
    ) -> None:
        self._handle = require_kernel()
        self._function = getattr(self._handle.lib, function)
        self._inputs = arguments  # keeps the arrays behind the pointers
        self._arguments = [self._c_argument(a) for a in arguments]
        self._table_slots = table_slots
        self._capacity = nblocks * _BLOCK_BYTES + 4 * restarts + 16
        self.keys = sorted({key for slots in table_slots for key in slots})

    def _c_argument(self, value: Any) -> Any:
        ffi = self._handle.ffi
        if isinstance(value, np.ndarray):
            return ffi.cast(_CTYPES[value.dtype], value.ctypes.data)
        if isinstance(value, list):
            return ffi.new("int32_t *[]", [self._c_argument(v) for v in value])
        return value

    def _run(self, writer: Any, tables: dict[TableKey, Any]) -> None:
        ffi = self._handle.ffi
        pointers = [
            ffi.new("P3Table *[]", [tables[key] for key in slots])
            for slots in self._table_slots
        ]
        code = self._function(writer, *self._arguments, *pointers)
        if writer.missing >= 0:
            raise ValueError(f"symbol {writer.missing:#x} not in Huffman table")
        if code == ERR_COEF_RANGE:
            raise JpegFormatError("DCT coefficient out of range")

    def count(self) -> dict[TableKey, dict[int, int]]:
        """The counting pass: each table's symbol histogram."""
        if not self.keys:
            return {}
        ffi = self._handle.ffi
        counts = np.zeros((len(self.keys), 256), dtype=np.int64)
        tables = {
            key: ffi.new(
                "P3Table *", {"freq": ffi.cast("int64_t *", row.ctypes.data)}
            )
            for key, row in zip(self.keys, counts)
        }
        self._run(ffi.new("P3Writer *", {"missing": -1}), tables)
        return {
            key: {int(symbol): int(row[symbol]) for symbol in np.flatnonzero(row)}
            for key, row in zip(self.keys, counts)
        }

    def write(self, tables: dict[TableKey, HuffmanTable]) -> bytes:
        """The writing pass: the stuffed, 1-padded entropy segment."""
        ffi = self._handle.ffi
        arrays = {key: encoder_code_arrays(tables[key]) for key in self.keys}
        structs = {
            key: ffi.new(
                "P3Table *",
                {
                    "code": ffi.cast("uint64_t *", codes.ctypes.data),
                    "length": ffi.cast("int64_t *", lengths.ctypes.data),
                },
            )
            for key, (codes, lengths) in arrays.items()
        }
        out = np.empty(self._capacity, dtype=np.uint8)
        writer = ffi.new(
            "P3Writer *",
            {"out": ffi.cast("uint8_t *", out.ctypes.data), "missing": -1},
        )
        self._run(writer, structs)
        return out[: writer.size].tobytes()


def baseline_scan(
    image: CoefficientImage,
    table_ids: list[int],
    restart_interval: int,
    mcus: tuple[int, int],
) -> NativeScan:
    """The one scan of a baseline image, every component interleaved.

    A one-component scan is never interleaved: it visits the
    component's own block grid, one block per MCU (T.81 A.2.2).
    """
    views = [_raster_view(component) for component in image.components]
    if len(views) == 1:
        total_mcus = views[0].shape[0]
        slots = np.zeros(total_mcus, dtype=np.uint8)
        flats = np.arange(total_mcus, dtype=np.int64)
    else:
        slots, flats = _plan(image.components, mcus)
        total_mcus = mcus[0] * mcus[1]
    restarts = total_mcus // restart_interval if restart_interval else 0
    return NativeScan(
        "p3_encode_baseline",
        (views, slots, flats, total_mcus, slots.size // total_mcus,
         restart_interval),
        [[(0, t) for t in table_ids], [(1, t) for t in table_ids]],
        slots.size,
        restarts,
    )


def progressive_scans(
    image: CoefficientImage, table_ids: list[int], mcus: tuple[int, int]
) -> Callable[[ScanSpec], NativeScan]:
    """The scans of a progressive script, one :class:`NativeScan` per
    :class:`~repro.jpeg.scans.ScanSpec`.

    DC scans walk the MCU-padded grid of their components, AC scans the
    one component's own grid in raster order.
    """
    views = [_raster_view(component) for component in image.components]

    def scan(spec: ScanSpec) -> NativeScan:
        indices = spec.component_indices
        if spec.is_dc:
            slots, flats = _plan([image.components[i] for i in indices], mcus)
            arguments = (
                [views[i] for i in indices], slots, flats, slots.size, spec.al
            )
            if spec.is_refinement:
                return NativeScan("p3_encode_dc_refine", arguments, [], slots.size)
            tables = [[(0, table_ids[i]) for i in indices]]
            return NativeScan("p3_encode_dc_first", arguments, tables, slots.size)
        view = views[indices[0]]
        return NativeScan(
            "p3_encode_ac_refine" if spec.is_refinement else "p3_encode_ac_first",
            (view, view.shape[0], spec.ss, spec.se, spec.al),
            [[(1, 0)]],
            view.shape[0],
        )

    return scan
