"""Differential tests: native entropy engine vs scalar T.81 reference.

The native engine (the default) and the retained scalar implementation
must be interchangeable at the byte level: the encoders produce
identical streams, the decoders identical coefficient arrays, across
baseline, progressive spectral-selection and successive-approximation
modes, restart markers, and 0xFF byte-stuffing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.jpeg.bitstream import (
    BitReader,
    BitWriter,
    split_restart_segments,
)
from repro.jpeg.codec import (
    encode_coefficients,
    gray_to_coefficients,
    rgb_to_coefficients,
)
from repro.jpeg.decoder import decode_to_coefficients
from repro.jpeg.encoder import encode_baseline, encode_progressive
from repro.jpeg.huffman import (
    HuffmanEncoder,
    STANDARD_AC_CHROMINANCE,
    STANDARD_AC_LUMINANCE,
    STANDARD_DC_CHROMINANCE,
    STANDARD_DC_LUMINANCE,
    build_optimized_table,
    encoder_code_arrays,
    lookup_table,
)
from repro.jpeg.markers import JpegFormatError
from repro.jpeg.native.decode import decode_dc_refine
from repro.jpeg.scans import ScanSpec
from repro.jpeg.structures import CoefficientImage, ComponentInfo
from repro.jpeg.zigzag import from_zigzag


# -- bit-level primitives -----------------------------------------------------


token_lists = st.lists(
    st.integers(1, 16).flatmap(
        lambda length: st.tuples(
            st.integers(0, (1 << length) - 1), st.just(length)
        )
    ),
    max_size=200,
)


def _native_read_bits(stuffed: bytes, count: int) -> list[int]:
    """Read ``count`` bits through the C kernel's destuffing reader.

    A DC refinement scan is one raw bit per block, so decoding it over
    ``count`` single-block slots yields the bit sequence the kernel read.
    """
    view = np.zeros((count, 64), dtype=np.int32)
    decode_dc_refine(
        stuffed,
        slots=np.zeros(count, dtype=np.uint8),
        flats=np.arange(count, dtype=np.int64),
        views=[view],
        bit_value=1,
    )
    return view[:, 0].tolist()


class TestBitPacking:
    @given(token_lists)
    @settings(max_examples=60, deadline=None)
    def test_fast_reader_round_trip(self, tokens):
        writer = BitWriter()
        for value, length in tokens:
            writer.write(value, length)
        writer.flush()
        bits = _native_read_bits(
            writer.getvalue(), sum(length for _, length in tokens)
        )
        position = 0
        for value, length in tokens:
            word = bits[position : position + length]
            assert int("".join(map(str, word)), 2) == value
            position += length

    @given(st.binary(min_size=0, max_size=120), st.data())
    @settings(max_examples=80, deadline=None)
    def test_fast_reader_matches_scalar_reader(self, payload, data):
        # Stuff the payload the way a writer would, so every 0xFF data
        # byte reaches both readers as FF 00.
        writer = BitWriter()
        for byte in payload:
            writer.write(byte, 8)
        stuffed = writer.getvalue()
        scalar = BitReader(stuffed)
        bits = _native_read_bits(stuffed, 8 * len(payload))
        position = 0
        while position < len(bits):
            width = min(data.draw(st.integers(1, 24)), len(bits) - position)
            word = bits[position : position + width]
            assert int("".join(map(str, word)), 2) == scalar.read(width)
            position += width

    def test_fast_reader_raises_at_end(self):
        assert _native_read_bits(b"\xab", 8) == [1, 0, 1, 0, 1, 0, 1, 1]
        with pytest.raises(JpegFormatError, match="entropy data ended"):
            _native_read_bits(b"\xab", 9)

    def test_split_restart_segments_round_trip(self):
        writer = BitWriter()
        writer.write(0xFF, 8)  # stuffed data byte, not a marker
        writer.write_restart_marker(0)
        writer.write(0xD7, 8)
        writer.write_restart_marker(1)
        writer.write(0x1, 2)
        writer.flush()
        segments, indices = split_restart_segments(writer.getvalue())
        assert indices == [0, 1]
        # Segments stay stuffed: the kernel destuffs each one.
        assert segments[:2] == [b"\xff\x00", b"\xd7"]


# -- Huffman table machinery --------------------------------------------------


class TestLookupTables:
    @pytest.mark.parametrize(
        "table",
        [
            STANDARD_DC_LUMINANCE,
            STANDARD_DC_CHROMINANCE,
            STANDARD_AC_LUMINANCE,
            STANDARD_AC_CHROMINANCE,
        ],
    )
    def test_lut_agrees_with_tree_decoder(self, table):
        encoder = HuffmanEncoder(table)
        entries = lookup_table(table).entries
        codes, lengths = encoder_code_arrays(table)
        for symbol in table.values:
            code, length = encoder.code_for(symbol)
            assert codes[symbol] == code and lengths[symbol] == length
            probe = code << (16 - length)
            entry = entries[probe]
            assert entry == (length << 8) | symbol
            # Every lookahead sharing the prefix decodes identically.
            entry = entries[probe | ((1 << (16 - length)) - 1)]
            assert entry == (length << 8) | symbol

    def test_lut_on_optimized_table(self):
        rng = np.random.default_rng(5)
        frequencies = {
            int(s): int(c)
            for s, c in zip(
                rng.choice(256, size=40, replace=False),
                rng.integers(1, 1000, size=40),
            )
        }
        table = build_optimized_table(frequencies)
        encoder = HuffmanEncoder(table)
        entries = lookup_table(table).entries
        for symbol in table.values:
            code, length = encoder.code_for(symbol)
            assert entries[code << (16 - length)] == (length << 8) | symbol


# -- whole-codec equivalence --------------------------------------------------


def _coefficient_images(gray_image, rgb_image, odd_gray_image):
    # Heavy noise at high quality maximizes nonzero coefficients and
    # makes 0xFF output bytes (hence byte stuffing) likely.
    rng = np.random.default_rng(11)
    noisy = np.clip(rng.normal(128, 64, (48, 40)), 0, 255)
    return [
        gray_to_coefficients(gray_image, quality=75),
        gray_to_coefficients(odd_gray_image, quality=50),
        gray_to_coefficients(noisy, quality=95),
        rgb_to_coefficients(rgb_image, quality=75),
        rgb_to_coefficients(rgb_image, quality=40, subsampling="4:2:0"),
        rgb_to_coefficients(rgb_image, quality=85, subsampling="4:2:2"),
    ]


def _spectral_script(num_components, bands):
    everyone = tuple(range(num_components))
    return [ScanSpec(everyone, 0, 0, 0, 0)] + [
        ScanSpec((index,), ss, se, 0, 0)
        for ss, se in bands
        for index in everyone
    ]


def _per_component_sa_script(num_components):
    """SA with one DC scan per component: on a subsampled image each
    DC scan walks one component's MCU-padded grid alone, and a chroma
    DC scan codes with the chroma table id."""
    script = []
    for approx_high, approx_low in ((0, 1), (1, 0)):
        for index in range(num_components):
            script.append(ScanSpec((index,), 0, 0, approx_high, approx_low))
        for index in range(num_components):
            script.append(ScanSpec((index,), 1, 63, approx_high, approx_low))
    return script


def _custom_scripts(num_components):
    """Scripts beyond the two defaults, for the encoder equivalence."""
    return [
        _spectral_script(num_components, ((1, 1), (2, 63))),
        _spectral_script(num_components, ((1, 63),)),
        _per_component_sa_script(num_components),
    ]


def _assert_same_coefficients(first, second):
    assert first.width == second.width
    assert first.height == second.height
    assert first.progressive == second.progressive
    assert len(first.components) == len(second.components)
    for a, b in zip(first.components, second.components):
        assert np.array_equal(a.quant_table, b.quant_table)
        assert np.array_equal(a.coefficients, b.coefficients)


def _one_component_image(zigzag_blocks, columns=1):
    """A one-component image whose blocks, in raster order, are the rows
    of ``zigzag_blocks`` (an (N, 64) zigzag stack), ``columns`` wide."""
    rows = zigzag_blocks.shape[0] // columns
    assert rows * columns == zigzag_blocks.shape[0]
    coefficients = from_zigzag(zigzag_blocks).reshape(rows, columns, 8, 8)
    component = ComponentInfo(
        identifier=1,
        h_sampling=1,
        v_sampling=1,
        quant_table=np.ones((8, 8), dtype=np.int32),
        coefficients=coefficients.astype(np.int32),
    )
    return CoefficientImage(
        width=8 * columns, height=8 * rows, components=[component]
    )


class TestEncoderEquivalence:
    def test_baseline_byte_identical(
        self, gray_image, rgb_image, odd_gray_image
    ):
        for image in _coefficient_images(
            gray_image, rgb_image, odd_gray_image
        ):
            for optimize in (True, False):
                for interval in (0, 1, 5):
                    fast = encode_baseline(
                        image,
                        optimize_huffman=optimize,
                        restart_interval=interval,
                        engine=None,
                    )
                    scalar = encode_baseline(
                        image,
                        optimize_huffman=optimize,
                        restart_interval=interval,
                        engine="scalar",
                    )
                    assert fast == scalar

    def test_progressive_byte_identical(
        self, gray_image, rgb_image, odd_gray_image
    ):
        for image in _coefficient_images(
            gray_image, rgb_image, odd_gray_image
        ):
            for script in [None] + _custom_scripts(len(image.components)):
                fast = encode_progressive(image, script, engine=None)
                scalar = encode_progressive(image, script, engine="scalar")
                assert fast == scalar

    def test_progressive_sa_byte_identical(
        self, gray_image, rgb_image, odd_gray_image
    ):
        for image in _coefficient_images(
            gray_image, rgb_image, odd_gray_image
        ):
            fast = encode_coefficients(image, progressive="sa", engine=None)
            scalar = encode_coefficients(
                image, progressive="sa", engine="scalar"
            )
            assert fast == scalar

    def test_stuffed_ff_bytes_present(self):
        # The equivalence above is vacuous for stuffing unless some
        # stream actually contains stuffed bytes; pin that down.
        rng = np.random.default_rng(11)
        noisy = np.clip(rng.normal(128, 64, (48, 40)), 0, 255)
        image = gray_to_coefficients(noisy, quality=95)
        data = encode_baseline(image, engine=None)
        assert b"\xff\x00" in data


#: Sampling factors per layout, luma first.
LAYOUTS = {
    "gray": [(1, 1)],
    "4:4:4": [(1, 1), (1, 1), (1, 1)],
    "4:2:0": [(2, 2), (1, 1), (1, 1)],
    "4:2:2": [(2, 1), (1, 1), (1, 1)],
}


def _raw_image(layout, width, height, seed, density, ac_limit, dc_limit):
    """A coefficient image straight from a seed: no FDCT, no
    quantization, so magnitudes reach what a hostile or synthetic
    source can put in a component."""
    rng = np.random.default_rng(seed)
    samplings = LAYOUTS[layout]
    max_h = max(h for h, _ in samplings)
    max_v = max(v for _, v in samplings)
    components = []
    for index, (h, v) in enumerate(samplings):
        plane_h = -(-height * v // max_v)
        plane_w = -(-width * h // max_h)
        shape = (-(-plane_h // 8), -(-plane_w // 8), 8, 8)
        coefficients = rng.integers(-ac_limit, ac_limit + 1, size=shape)
        coefficients[rng.random(shape) >= density] = 0
        coefficients[:, :, 0, 0] = rng.integers(
            -dc_limit, dc_limit + 1, size=shape[:2]
        )
        components.append(
            ComponentInfo(
                identifier=index + 1,
                h_sampling=h,
                v_sampling=v,
                quant_table=np.ones((8, 8), dtype=np.int32),
                coefficients=coefficients.astype(np.int32),
            )
        )
    return CoefficientImage(width=width, height=height, components=components)


class TestRawCoefficientFuzz:
    """Raw coefficient blocks through all five scan kinds on both
    engines: AC up to +-32767 (the widest a symbol's 4-bit size field
    codes), DC up to the decoder's +-2^20 predictor range, sparse and
    dense blocks, odd block grids, gray and 4:4:4/4:2:0/4:2:2."""

    @given(
        layout=st.sampled_from(sorted(LAYOUTS)),
        width=st.integers(1, 40),
        height=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.02, 0.2, 0.7, 1.0]),
        ac_limit=st.sampled_from([1, 15, 1023, 32767]),
        dc_limit=st.sampled_from([0, 2047, 1 << 20]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_scan_kind_byte_identical(
        self, layout, width, height, seed, density, ac_limit, dc_limit
    ):
        image = _raw_image(
            layout, width, height, seed, density, ac_limit, dc_limit
        )
        for options in (
            {"progressive": False},
            {"progressive": False, "restart_interval": 2},
            {"progressive": True},
            {"progressive": "sa"},
        ):
            fast = encode_coefficients(image, engine=None, **options)
            scalar = encode_coefficients(image, engine="scalar", **options)
            assert fast == scalar, options
            decoded = decode_to_coefficients(fast, engine=None)
            for ours, theirs in zip(decoded.components, image.components):
                np.testing.assert_array_equal(
                    ours.coefficients, theirs.coefficients
                )


class TestDecoderEquivalence:
    def test_baseline_decodes_identical(
        self, gray_image, rgb_image, odd_gray_image
    ):
        for image in _coefficient_images(
            gray_image, rgb_image, odd_gray_image
        ):
            for interval in (0, 3):
                data = encode_baseline(image, restart_interval=interval)
                _assert_same_coefficients(
                    decode_to_coefficients(data, engine=None),
                    decode_to_coefficients(data, engine="scalar"),
                )

    def test_progressive_decodes_identical(
        self, gray_image, rgb_image, odd_gray_image
    ):
        for image in _coefficient_images(
            gray_image, rgb_image, odd_gray_image
        ):
            data = encode_progressive(image)
            _assert_same_coefficients(
                decode_to_coefficients(data, engine=None),
                decode_to_coefficients(data, engine="scalar"),
            )

    def test_progressive_sa_decodes_identical(
        self, gray_image, rgb_image, odd_gray_image
    ):
        for image in _coefficient_images(
            gray_image, rgb_image, odd_gray_image
        ):
            data = encode_coefficients(image, progressive="sa")
            _assert_same_coefficients(
                decode_to_coefficients(data, engine=None),
                decode_to_coefficients(data, engine="scalar"),
            )

    def test_single_component_dc_scans_decode_identical(self, rgb_image):
        # A custom SA script with non-interleaved DC scans: on a
        # subsampled image the luma padded grid differs from its true
        # grid, so the fast decoder must walk the MCU-padded grid for
        # DC scans exactly like the scalar engine (regression test).
        image = rgb_to_coefficients(
            rgb_image[:24, :24], quality=75, subsampling="4:2:0"
        )
        data = encode_progressive(image, _per_component_sa_script(3))
        decoded_fast = decode_to_coefficients(data, engine=None)
        decoded_scalar = decode_to_coefficients(data, engine="scalar")
        _assert_same_coefficients(decoded_fast, decoded_scalar)
        for a, b in zip(decoded_fast.components, image.components):
            assert np.array_equal(a.coefficients, b.coefficients)

    def test_round_trip_through_fast_engine(self, gray_image):
        image = gray_to_coefficients(gray_image, quality=75)
        decoded = decode_to_coefficients(encode_baseline(image, engine=None))
        _assert_same_coefficients(image, decoded)

    def test_corrupt_streams_fail_cleanly_in_both_engines(self, gray_image):
        data = bytearray(
            encode_baseline(gray_to_coefficients(gray_image[:32, :32]))
        )
        rng = np.random.default_rng(2)
        for _ in range(80):
            position = int(rng.integers(2, len(data)))
            original = data[position]
            data[position] ^= int(rng.integers(1, 256))
            for engine in (None, "scalar"):
                try:
                    decode_to_coefficients(bytes(data), engine=engine)
                except (JpegFormatError, ValueError):
                    pass
            data[position] = original

    def test_truncations_fail_cleanly_in_fast_engine(self, gray_image):
        data = encode_baseline(gray_to_coefficients(gray_image[:32, :32]))
        for cut in range(2, len(data), max(1, len(data) // 40)):
            try:
                decode_to_coefficients(data[:cut], engine=None)
            except (JpegFormatError, ValueError):
                pass

    def test_ac_refinement_edge_cases_byte_identical(self):
        # The refinement encoder's nastiest interleavings, each coded as
        # a one-scan progressive stream (tables and entropy bytes): ZRL
        # emission triggered at an already-significant coefficient,
        # correction bits buffered across ZRLs, corr-only/all-zero
        # blocks joining EOB runs, the EOB run's forced flushes (>900
        # buffered bits, 0x7FFF-run split), and random stacks for good
        # measure.
        def assert_identical(blocks64, ss, se, al, columns=1):
            image = _one_component_image(blocks64, columns)
            script = [ScanSpec((0,), ss, se, al + 1, al)]
            fast = encode_progressive(image, script, engine=None)
            scalar = encode_progressive(image, script, engine="scalar")
            assert fast == scalar

        engineered = np.zeros((4, 64), dtype=np.int64)
        engineered[0, 5] = 4  # already significant at al=1
        engineered[0, 40] = 2  # newly significant behind a >16 zero run
        engineered[0, 45] = -2  # negative newly significant (sign bit 0)
        engineered[1, 3] = 7
        engineered[1, 60] = 3
        # engineered[2] all-zero: joins the EOB run with no bits
        engineered[3, 10] = 5  # corr-only block: EOB run carries its bit
        assert_identical(engineered, 1, 63, 1)

        zrl_at_corr = np.zeros((2, 64), dtype=np.int64)
        zrl_at_corr[0, 20] = 6  # arrival with run 19: ZRL fires *here*
        zrl_at_corr[0, 25] = 2
        zrl_at_corr[0, 60] = 2
        zrl_at_corr[1, 1] = 2
        assert_identical(zrl_at_corr, 1, 63, 1)

        forced_bits = np.zeros((1200, 64), dtype=np.int64)
        forced_bits[:, 7] = 4  # 1200 buffered correction bits: >900 flushes
        assert_identical(forced_bits, 1, 63, 1, columns=30)

        eob_split = np.zeros((70000, 64), dtype=np.int64)
        eob_split[0, 1] = 2  # 69999-block EOB run: splits at 0x7FFF
        assert_identical(eob_split, 1, 63, 1, columns=250)

        rng = np.random.default_rng(23)
        for _ in range(8):
            blocks = np.zeros((int(rng.integers(1, 50)), 64), dtype=np.int64)
            mask = rng.random(blocks.shape) < rng.uniform(0.02, 0.5)
            values = rng.integers(-9, 10, size=blocks.shape)
            blocks[mask] = values[mask]
            assert_identical(blocks, 1, 63, int(rng.integers(0, 3)))
            assert_identical(blocks, 6, 63, 1)

    def test_corrupt_restart_streams_agree_between_engines(self, gray_image):
        # A desynced restart segment must not decode silently in the
        # fast engine while the scalar engine rejects it (or vice
        # versa): on every corruption both engines either error or
        # produce the same coefficients.
        image = gray_to_coefficients(gray_image[:48, :48], quality=75)
        data = encode_baseline(image, restart_interval=3)
        rng = np.random.default_rng(4)
        for _ in range(300):
            mutated = bytearray(data)
            position = int(rng.integers(2, len(mutated)))
            mutated[position] ^= int(rng.integers(1, 256))
            outcomes = []
            for engine in (None, "scalar"):
                try:
                    decoded = decode_to_coefficients(
                        bytes(mutated), engine=engine
                    )
                    outcomes.append(
                        tuple(
                            c.coefficients.tobytes()
                            for c in decoded.components
                        )
                    )
                except (JpegFormatError, ValueError):
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1]
