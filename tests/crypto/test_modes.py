"""AES-CTR against NIST SP 800-38A vectors, plus properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.modes import ctr_transform

_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
_PLAINTEXT_BLOCKS = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
)


class TestCtrNistVectors:
    def test_sp800_38a_f51(self):
        counter = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
        expected = bytes.fromhex(
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
        )
        assert ctr_transform(_KEY, counter, _PLAINTEXT_BLOCKS) == expected

    def test_ctr_is_involution(self):
        nonce = b"n" * 12
        data = b"The quick brown fox jumps over the lazy dog"
        once = ctr_transform(_KEY, nonce, data)
        assert ctr_transform(_KEY, nonce, once) == data

    def test_partial_block(self):
        nonce = b"x" * 12
        data = b"abc"
        assert len(ctr_transform(_KEY, nonce, data)) == 3

    def test_nonce_too_long(self):
        with pytest.raises(ValueError):
            ctr_transform(_KEY, b"z" * 17, b"data")


class TestProperties:
    @given(st.binary(max_size=200), st.binary(min_size=16, max_size=16))
    @settings(max_examples=25, deadline=None)
    def test_ctr_roundtrip_any_data(self, data, key):
        nonce = b"p3nonce-0001"
        assert ctr_transform(
            key, nonce, ctr_transform(key, nonce, data)
        ) == data

    @given(st.binary(min_size=17, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_ctr_keystream_spans_blocks(self, data):
        # Different positions must be XORed with different keystream.
        nonce = b"k" * 12
        ciphertext = ctr_transform(_KEY, nonce, data)
        assert ciphertext != data  # overwhelming probability
