"""Tests for the out-of-band keyring."""

import pytest

from repro.crypto.keyring import Keyring, derive_key, generate_key


class TestKeyGeneration:
    @pytest.mark.parametrize("size", [16, 24, 32])
    def test_sizes(self, size):
        assert len(generate_key(size)) == size

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            generate_key(20)

    def test_keys_are_random(self):
        assert generate_key() != generate_key()


class TestDeriveKey:
    def test_deterministic(self):
        assert derive_key("hunter2") == derive_key("hunter2")

    def test_salt_matters(self):
        assert derive_key("pw", salt=b"a") != derive_key("pw", salt=b"b")

    def test_size(self):
        assert len(derive_key("pw", size=32)) == 32

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            derive_key("pw", size=17)


class TestKeyring:
    def test_create_and_lookup(self):
        ring = Keyring("alice")
        key = ring.create_album("trip")
        assert ring.key_for("trip") == key
        assert "trip" in ring

    def test_ensure_album_creates_the_key_once(self):
        ring = Keyring("alice")
        key = ring.ensure_album("trip")
        assert ring.ensure_album("trip") == key == ring.key_for("trip")

    def test_duplicate_album_rejected(self):
        ring = Keyring("alice")
        ring.create_album("trip")
        with pytest.raises(ValueError):
            ring.create_album("trip")

    def test_share_with(self):
        alice = Keyring("alice")
        bob = Keyring("bob")
        alice.create_album("trip")
        alice.share_with(bob, "trip")
        assert bob.key_for("trip") == alice.key_for("trip")

    def test_missing_album_raises(self):
        with pytest.raises(KeyError):
            Keyring("carol").key_for("nope")

    def test_invalid_key_rejected(self):
        with pytest.raises(ValueError):
            Keyring("dave").add_key("x", b"tiny")

    def test_albums_sorted(self):
        ring = Keyring("eve")
        ring.create_album("zeta")
        ring.create_album("alpha")
        assert ring.albums() == ["alpha", "zeta"]
