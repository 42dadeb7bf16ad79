"""Tests for block tiling and the scan visit plan."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.jpeg.blocks import block_grid_shape, blocks_to_plane, scan_visit_plan
from tests.jpeg.oracles import pad_to_multiple_of_8, plane_to_blocks


class TestPadding:
    def test_already_aligned_untouched(self):
        plane = np.ones((16, 24))
        assert pad_to_multiple_of_8(plane) is plane

    def test_pads_with_edge_values(self):
        plane = np.arange(10.0).reshape(2, 5)
        padded = pad_to_multiple_of_8(plane)
        assert padded.shape == (8, 8)
        assert padded[7, 7] == plane[1, 4]
        assert padded[0, 7] == plane[0, 4]


class TestTiling:
    def test_shapes(self):
        blocks = plane_to_blocks(np.zeros((17, 33)))
        assert blocks.shape == (3, 5, 8, 8)

    def test_block_content_matches_plane(self):
        plane = np.arange(256.0).reshape(16, 16)
        blocks = plane_to_blocks(plane)
        assert np.array_equal(blocks[0, 0], plane[:8, :8])
        assert np.array_equal(blocks[1, 1], plane[8:, 8:])

    def test_roundtrip_aligned(self):
        rng = np.random.default_rng(0)
        plane = rng.normal(size=(24, 40))
        blocks = plane_to_blocks(plane)
        assert np.array_equal(blocks_to_plane(blocks, 24, 40), plane)

    def test_roundtrip_unaligned_crops_padding(self):
        rng = np.random.default_rng(1)
        plane = rng.normal(size=(13, 21))
        blocks = plane_to_blocks(plane)
        assert np.array_equal(blocks_to_plane(blocks, 13, 21), plane)

    def test_blocks_to_plane_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            blocks_to_plane(np.zeros((2, 2, 8, 7)))


class TestGridShape:
    @pytest.mark.parametrize(
        "height,width,expected",
        [(8, 8, (1, 1)), (9, 8, (2, 1)), (1, 1, (1, 1)), (64, 17, (8, 3))],
    )
    def test_examples(self, height, width, expected):
        assert block_grid_shape(height, width) == expected


def _ceil(a, b):
    return -(-a // b)


def _frame_grids(width, height, samplings):
    """Each component's block grid as T.81 A.1.1 sizes it."""
    max_h = max(h for h, _ in samplings)
    max_v = max(v for _, v in samplings)
    return [
        (
            _ceil(_ceil(height * v, max_v), 8),
            _ceil(_ceil(width * h, max_h), 8),
        )
        for h, v in samplings
    ]


def _reference_walk(width, height, samplings, scan, spill):
    """T.81 A.2.2 and A.2.3 as nested loops: one list of (slot, flat)
    per MCU of a scan over the frame components ``scan``."""
    grids = _frame_grids(width, height, samplings)
    mcus = []
    if len(scan) == 1:
        rows, cols = grids[scan[0]]
        for y in range(rows):
            for x in range(cols):
                mcus.append([(0, y * cols + x)])
        return mcus
    max_h = max(h for h, _ in samplings)
    max_v = max(v for _, v in samplings)
    for mcu_y in range(_ceil(height, 8 * max_v)):
        for mcu_x in range(_ceil(width, 8 * max_h)):
            mcu = []
            for slot, index in enumerate(scan):
                h, v = samplings[index]
                rows, cols = grids[index]
                for dy in range(v):
                    for dx in range(h):
                        y = mcu_y * v + dy
                        x = mcu_x * h + dx
                        if y < rows and x < cols:
                            flat = y * cols + x
                        elif spill:
                            flat = rows * cols
                        else:
                            flat = min(y, rows - 1) * cols + min(x, cols - 1)
                        mcu.append((slot, flat))
            mcus.append(mcu)
    return mcus


@st.composite
def _frames_and_scans(draw):
    """A frame of 1-4 components sampled 1-4 x 1-4, and one scan of it:
    one component, or several within the 10-block MCU limit."""
    samplings = draw(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(1, 4)),
            min_size=1,
            max_size=4,
        )
    )
    width = draw(st.integers(1, 90))
    height = draw(st.integers(1, 90))
    scan = draw(
        st.lists(
            st.integers(0, len(samplings) - 1),
            min_size=1,
            max_size=len(samplings),
            unique=True,
        ).filter(
            lambda scan: len(scan) == 1
            or sum(samplings[i][0] * samplings[i][1] for i in scan) <= 10
        )
    )
    return width, height, samplings, sorted(scan)


class TestScanVisitPlan:
    @given(_frames_and_scans(), st.booleans())
    # 4:2:0 at 45x37: a 5x6 luma grid in a 6x6 MCU-padded one, alone
    # (raster order, no padding) and interleaved in both padding modes.
    @example((45, 37, [(2, 2), (1, 1), (1, 1)], [0]), False)
    @example((45, 37, [(2, 2), (1, 1), (1, 1)], [0, 1, 2]), False)
    @example((45, 37, [(2, 2), (1, 1), (1, 1)], [0, 1, 2]), True)
    @example((17, 9, [(4, 2), (1, 1)], [0]), True)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_walk(self, frame, spill):
        width, height, samplings, scan = frame
        grids = _frame_grids(width, height, samplings)
        slots, flats = scan_visit_plan(
            [samplings[i] for i in scan], [grids[i] for i in scan], spill
        )
        walk = [
            list(zip(mcu_slots, mcu_flats))
            for mcu_slots, mcu_flats in zip(slots.tolist(), flats.tolist())
        ]
        assert walk == _reference_walk(width, height, samplings, scan, spill)
