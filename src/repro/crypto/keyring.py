"""Out-of-band key distribution simulation.

The paper assumes "the existence of a symmetric shared key between a
sender and one or more recipients... distributed out of band"
(Section 4.1).  :class:`Keyring` models each participant's local key
store; sharing a key with a friend is the out-of-band act.
"""

from __future__ import annotations

import hashlib
import os
import threading


def generate_key(size: int = 16) -> bytes:  # taint: source(secret)
    """Generate a random AES key (16 bytes = AES-128 by default)."""
    if size not in (16, 24, 32):
        raise ValueError(f"key size must be 16, 24 or 32, got {size}")
    return os.urandom(size)


def derive_key(  # taint: source(secret)
    passphrase: str, salt: bytes = b"p3-repro", size: int = 16
) -> bytes:
    """Derive a key from a passphrase (PBKDF2-HMAC-SHA256).

    Deterministic derivation is convenient for reproducible tests and
    examples; interactive use should prefer :func:`generate_key`.
    """
    if size not in (16, 24, 32):
        raise ValueError(f"key size must be 16, 24 or 32, got {size}")
    return hashlib.pbkdf2_hmac(
        "sha256", passphrase.encode("utf-8"), salt, 10_000, dklen=size
    )


class Keyring:
    """A participant's local store of shared album keys: installed under
    a lock, so :meth:`ensure_album` is atomic, and read without it."""

    _GUARDED_BY = {"_keys": "_lock:writes"}

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._keys: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def add_key(self, album: str, key: bytes) -> None:
        """Install a key for an album (the out-of-band share)."""
        if len(key) not in (16, 24, 32):
            raise ValueError("invalid AES key length")
        with self._lock:
            self._keys[album] = key

    def create_album(self, album: str) -> bytes:  # taint: source(secret)
        """Create a fresh key for a new album and install it."""
        with self._lock:
            if album in self._keys:
                raise ValueError(f"album {album!r} already has a key")
            key = generate_key()
            self._keys[album] = key
            return key

    def ensure_album(self, album: str) -> bytes:  # taint: source(secret)
        """The album's key, created on first use: concurrent first
        uploads to a new album all get one key."""
        with self._lock:
            if album not in self._keys:
                self._keys[album] = generate_key()
            return self._keys[album]

    def key_for(self, album: str) -> bytes:  # taint: source(secret)
        """Look up the key for an album; raises KeyError when missing."""
        return self._keys[album]

    def share_with(self, other: "Keyring", album: str) -> None:
        """Give another participant the album key (out-of-band)."""
        other.add_key(album, self.key_for(album))

    def albums(self) -> list[str]:
        return sorted(self._keys)

    def __contains__(self, album: str) -> bool:
        return album in self._keys
