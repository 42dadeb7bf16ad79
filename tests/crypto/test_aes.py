"""AES tables, and the scalar oracle against FIPS-197 test vectors."""

import pytest

from repro.crypto.aes import SBOX, _gf_multiply
from tests.crypto.oracles import AES


class TestSbox:
    def test_known_entries(self):
        # FIPS-197 Figure 7 anchors.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))


class TestGaloisField:
    def test_known_products(self):
        # FIPS-197 Section 4.2.1: {57} x {83} = {c1}.
        assert _gf_multiply(0x57, 0x83) == 0xC1
        assert _gf_multiply(0x57, 0x13) == 0xFE

    def test_identity(self):
        for value in (0x01, 0x35, 0xFF):
            assert _gf_multiply(value, 1) == value


class TestFips197Vectors:
    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_aes192(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f1011121314151617"
        )
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(plaintext) == expected

    def test_appendix_b_vector(self):
        # FIPS-197 Appendix B.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES(key).encrypt_block(plaintext) == expected


class TestKeys:
    def test_different_keys_differ(self):
        block = b"\x00" * 16
        a = AES(b"A" * 16).encrypt_block(block)
        b = AES(b"B" * 16).encrypt_block(block)
        assert a != b


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            AES(b"short")

    def test_bad_block_length(self):
        cipher = AES(b"k" * 16)
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"x" * 15)
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"x" * 17)
