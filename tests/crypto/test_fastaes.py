"""Differential tests: vectorized AES vs the scalar reference oracle.

NIST vectors (FIPS-197 Appendix C block vectors, the SP 800-38A
ECB-encrypt and CTR multi-block vectors) pin production and the scalar
oracle (:mod:`tests.crypto.oracles`) to the standard for all three key
sizes; Hypothesis property tests then assert fast-vs-scalar byte
equality on random keys, nonces and lengths —
including non-block-aligned CTR payloads — and the counter-carry/wrap
boundaries are regression-tested explicitly (the full 16-byte block is
the counter, mod 2**128; see the modes module docstring).  There is no
inverse cipher to test: CTR, P3's one mode, runs the forward cipher.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.fastaes import FastAES, counter_blocks
from repro.crypto.modes import ctr_transform
from tests.crypto import oracles
from tests.crypto.oracles import AES, _increment_counter

#: SP 800-38A Appendix F keys, one per AES key size.
KEYS = {
    16: bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"),
    24: bytes.fromhex("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b"),
    32: bytes.fromhex(
        "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"
    ),
}

#: SP 800-38A four-block test plaintext (shared by every mode).
PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)

ECB_CIPHERTEXTS = {
    16: bytes.fromhex(
        "3ad77bb40d7a3660a89ecaf32466ef97"
        "f5d3d58503b9699de785895a96fdbaaf"
        "43b1cd7f598ece23881b00e3ed030688"
        "7b0c785e27e8ad3f8223207104725dd4"
    ),
    24: bytes.fromhex(
        "bd334f1d6e45f25ff712a214571fa5cc"
        "974104846d0ad3ad7734ecb3ecee4eef"
        "ef7afd2270e2e60adce0ba2face6444e"
        "9a4b41ba738d6c72fb16691603c18e0e"
    ),
    32: bytes.fromhex(
        "f3eed1bdb5d2a03c064b5a7e3db181f8"
        "591ccb10d410ed26dc5ba74a31362870"
        "b6ed21b99ca6f4f9f153e7b1beafed1d"
        "23304b7a39f9f3ff067d8d8f9e24ecc7"
    ),
}

CTR_COUNTER = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
CTR_CIPHERTEXTS = {
    16: bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce"
        "9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab"
        "1e031dda2fbe03d1792170a0f3009cee"
    ),
    24: bytes.fromhex(
        "1abc932417521ca24f2b0459fe7e6e0b"
        "090339ec0aa6faefd5ccc2c6f4ce8e94"
        "1e36b26bd1ebc670d1bd1d665620abf7"
        "4f78a7f6d29809585a97daec58c6b050"
    ),
    32: bytes.fromhex(
        "601ec313775789a5b7a7f504bbf3d228"
        "f443e3ca4d62b59aca84e990cacaf5c5"
        "2b0930daa23de94ce87017ba2d84988d"
        "dfc9c58db67aada613c2dd08457941a6"
    ),
}


def _stack(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8).reshape(-1, 16)


class TestFips197Blocks:
    """The FIPS-197 Appendix C developer vectors, on the batch engine."""

    VECTORS = {
        16: "69c4e0d86a7b0430d8cdb78070b4c55a",
        24: "dda97ca4864cdfe06eaf70a0ec0d7191",
        32: "8ea2b7ca516745bfeafc49904b496089",
    }

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    def test_single_block(self, key_size):
        key = bytes(range(key_size))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex(self.VECTORS[key_size])
        assert FastAES(key).encrypt_blocks(_stack(plaintext)).tobytes() == expected

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    def test_stack_matches_scalar(self, key_size):
        rng = np.random.default_rng(key_size)
        key = bytes(rng.integers(0, 256, key_size, dtype=np.uint8))
        blocks = rng.integers(0, 256, (37, 16), dtype=np.uint8)
        scalar = AES(key)
        engine = FastAES(key)
        encrypted = engine.encrypt_blocks(blocks)
        for row, fast_row in zip(blocks, encrypted):
            assert scalar.encrypt_block(row.tobytes()) == fast_row.tobytes()

    def test_bad_key_and_shape(self):
        with pytest.raises(ValueError):
            FastAES(b"short")
        with pytest.raises(ValueError):
            FastAES(b"k" * 16).encrypt_blocks(np.zeros((2, 15), np.uint8))

    def test_non_uint8_stack_rejected(self):
        # int input out of byte range must not silently wrap.
        with pytest.raises(ValueError):
            FastAES(b"k" * 16).encrypt_blocks(np.full((1, 16), 300))


def _encrypt_each_block(key: bytes, data: bytes, fast: bool) -> bytes:
    """The block cipher on every 16-byte block: production's ECB, or
    the scalar oracle's."""
    if fast:
        return FastAES(key).encrypt_blocks(_stack(data)).tobytes()
    cipher = AES(key)
    return b"".join(
        cipher.encrypt_block(data[offset : offset + 16])
        for offset in range(0, len(data), 16)
    )


def _ctr(fast: bool):
    """Production's CTR, or the scalar oracle's."""
    return ctr_transform if fast else oracles.ctr_transform


class TestNistSp800_38a:
    """ECB-encrypt/CTR multi-block vectors, production and oracle, every
    key size."""

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    @pytest.mark.parametrize("fast", [True, False])
    def test_ecb(self, key_size, fast):
        """F.1's ECB-encrypt blocks, straight through the block cipher."""
        key = KEYS[key_size]
        expected = ECB_CIPHERTEXTS[key_size]
        assert _encrypt_each_block(key, PLAINTEXT, fast) == expected

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    @pytest.mark.parametrize("fast", [True, False])
    def test_ctr(self, key_size, fast):
        key = KEYS[key_size]
        expected = CTR_CIPHERTEXTS[key_size]
        assert _ctr(fast)(key, CTR_COUNTER, PLAINTEXT) == expected
        assert _ctr(fast)(key, CTR_COUNTER, expected) == PLAINTEXT


class TestCounterWrap:
    """The counter is the whole block, big-endian, mod 2**128."""

    def test_counter_blocks_match_scalar_increment(self):
        for initial in (
            b"\x00" * 16,
            b"\x00" * 8 + b"\xff" * 8,  # carry crosses the 64-bit halves
            b"\xff" * 15 + b"\xf0",  # wraps past 2**128 within the run
            b"\xff" * 16,  # wraps on the very first increment
            bytes(range(16)),
        ):
            expected = []
            counter = bytearray(initial)
            for _ in range(40):
                expected.append(bytes(counter))
                _increment_counter(counter)
            produced = counter_blocks(initial, 40)
            assert produced.tobytes() == b"".join(expected)

    @pytest.mark.parametrize(
        "nonce",
        [
            b"\x00" * 8 + b"\xff" * 8,  # low half all-ones: carry at block 1
            b"\xff" * 16,  # full wrap to zero at block 1
            b"\xff" * 15 + b"\xfe",  # wrap mid-message
            b"\xab" * 12,  # 12-byte nonce: increment lives in the pad
            b"\xab" * 11 + b"\xff\xff\xff\xff\xff",  # carry INTO the nonce
        ],
    )
    def test_ctr_wrap_boundaries_agree(self, nonce):
        key = KEYS[16]
        data = bytes(range(256)) * 3 + b"tail"  # non-aligned, multi-block
        fast = ctr_transform(key, nonce, data)
        scalar = oracles.ctr_transform(key, nonce, data)
        assert fast == scalar
        assert ctr_transform(key, nonce, fast) == data

    def test_counter_blocks_validates_length(self):
        with pytest.raises(ValueError):
            counter_blocks(b"\x00" * 12, 4)


class TestFastScalarEquality:
    """Property tests: production and the oracle are
    byte-interchangeable."""

    @given(
        key=st.sampled_from([16, 24, 32]).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)
        ),
        nonce=st.binary(max_size=16),
        data=st.binary(max_size=700),
    )
    @settings(max_examples=60, deadline=None)
    def test_ctr_any_key_nonce_length(self, key, nonce, data):
        assert ctr_transform(key, nonce, data) == oracles.ctr_transform(
            key, nonce, data
        )

    @given(
        key=st.binary(min_size=24, max_size=24),
        blocks=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_ecb_matches_scalar(self, key, blocks):
        """Fast ``encrypt_blocks`` equals scalar ``encrypt_block`` per block."""
        rng = np.random.default_rng(blocks)
        data = rng.integers(0, 256, blocks * 16, dtype=np.uint8).tobytes()
        assert _encrypt_each_block(key, data, fast=True) == _encrypt_each_block(
            key, data, fast=False
        )

    def test_envelope_byte_identical_across_engines(self):
        from repro.crypto.envelope import open_envelope, seal_envelope

        key = b"album-key-0123456789abcdef000000"
        nonce = b"\x07" * 12
        payload = bytes(range(256)) * 41 + b"!"  # ~10 KiB, non-aligned
        fast = seal_envelope(key, payload, nonce=nonce)
        scalar = oracles.seal_envelope(key, payload, nonce)
        assert fast == scalar
        assert open_envelope(key, fast) == payload
        assert oracles.open_envelope(key, scalar) == payload
