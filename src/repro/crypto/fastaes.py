"""Vectorized AES: whole-message batch rounds on an (n, 16) state stack.

The scalar FIPS-197 round function runs one 16-byte block at a time in
Python; on the P3 hot path (CTR over every secret part) that made
crypto the dominant cost after the codec went vectorized.
:class:`FastAES` keeps the exact same table-driven round structure but
applies each step to *all* blocks of a message at once — see the
design note in :mod:`repro.crypto.aes` for the step-by-step mapping
and why constant-time operation remains out of scope.

It shares :func:`repro.crypto.aes.expand_key`, the S-box and the
GF(2^8) arithmetic with the scalar round function, its test oracle
(``tests/crypto/oracles.py``), and NIST-vector and property tests hold
the two byte-identical (``tests/crypto/test_fastaes.py``).
"""

from __future__ import annotations

import numpy as np

from repro.crypto.aes import ROUNDS_BY_KEY_SIZE, SBOX, _gf_multiply, expand_key

BLOCK = 16

SBOX_U8 = np.array(SBOX, dtype=np.uint8)
#: Multiplication by {02} in GF(2^8), indexed by byte.
XTIME_U8 = np.array(
    [_gf_multiply(value, 2) for value in range(256)], dtype=np.uint8
)

# ShiftRows as a permutation of the flat column-major state: row r of
# column c (state[c*4 + r]) takes its value from column (c + r) % 4.
SHIFT_ROWS = np.array(
    [((c + r) % 4) * 4 + r for c in range(4) for r in range(4)]
)

_U64_MASK = (1 << 64) - 1


class FastAES:
    """Batch AES over ``(n_blocks, 16)`` uint8 stacks.

    One instance per key; :meth:`encrypt_blocks` runs every round step
    across the whole stack.  Single-block calls work but carry numpy
    overhead.
    """

    BLOCK_SIZE = BLOCK

    def __init__(self, key: bytes) -> None:
        self._round_keys = np.array(expand_key(key), dtype=np.uint8)
        self._rounds = ROUNDS_BY_KEY_SIZE[len(key)]

    # -- round steps, lifted to the stack -------------------------------------

    @staticmethod
    def _mix_columns(state: np.ndarray) -> np.ndarray:
        a = state.reshape(-1, 4, 4)  # (blocks, column, row)
        a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
        t0, t1, t2, t3 = XTIME_U8[a0], XTIME_U8[a1], XTIME_U8[a2], XTIME_U8[a3]
        out = np.empty_like(a)
        out[..., 0] = t0 ^ t1 ^ a1 ^ a2 ^ a3
        out[..., 1] = a0 ^ t1 ^ t2 ^ a2 ^ a3
        out[..., 2] = a0 ^ a1 ^ t2 ^ t3 ^ a3
        out[..., 3] = t0 ^ a0 ^ a1 ^ a2 ^ t3
        return out.reshape(-1, BLOCK)

    # -- the ciphers ----------------------------------------------------------

    def encrypt_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Encrypt an ``(n, 16)`` uint8 stack; returns a new stack."""
        state = self._checked(blocks) ^ self._round_keys[0]
        for round_index in range(1, self._rounds):
            state = SBOX_U8[state]
            state = state[:, SHIFT_ROWS]
            state = self._mix_columns(state)
            state ^= self._round_keys[round_index]
        state = SBOX_U8[state]
        state = state[:, SHIFT_ROWS]
        state ^= self._round_keys[self._rounds]
        return state

    @staticmethod
    def _checked(blocks: np.ndarray) -> np.ndarray:
        blocks = np.asarray(blocks)
        if blocks.dtype != np.uint8:
            # Rejecting rather than converting: asarray(dtype=uint8)
            # would silently wrap out-of-range values into plausible
            # but wrong ciphertext.
            raise ValueError(
                f"block stack must be uint8, got {blocks.dtype}"
            )
        if blocks.ndim != 2 or blocks.shape[1] != BLOCK:
            raise ValueError(
                f"expected an (n, {BLOCK}) block stack, got {blocks.shape}"
            )
        return blocks


def counter_blocks(initial: bytes, count: int) -> np.ndarray:
    """The ``count`` CTR counter blocks starting at ``initial``.

    ``initial`` is the full 16-byte first counter block; block ``i`` is
    ``(initial + i) mod 2**128`` big-endian — the whole block is the
    counter, so carries propagate into (and past) any nonce prefix and
    wrap at 2**128, matching the scalar oracle's per-block increment
    exactly.
    Returns a ``(count, 16)`` uint8 array.
    """
    if len(initial) != BLOCK:
        raise ValueError(
            f"initial counter must be {BLOCK} bytes, got {len(initial)}"
        )
    base = int.from_bytes(initial, "big")
    base_hi = np.uint64((base >> 64) & _U64_MASK)
    base_lo = np.uint64(base & _U64_MASK)
    index = np.arange(count, dtype=np.uint64)
    low = base_lo + index  # wraps mod 2**64, as intended
    carry = (low < base_lo).astype(np.uint64)
    high = base_hi + carry  # wraps mod 2**64 => counter wraps mod 2**128
    halves = np.empty((count, 2), dtype=">u8")
    halves[:, 0] = high
    halves[:, 1] = low
    return halves.view(np.uint8).reshape(count, BLOCK)


def ctr_keystream(key: bytes, initial: bytes, num_bytes: int) -> np.ndarray:
    """The first ``num_bytes`` of AES-CTR keystream as a uint8 array."""
    if num_bytes <= 0:
        return np.zeros(0, dtype=np.uint8)
    num_blocks = -(-num_bytes // BLOCK)
    counters = counter_blocks(initial, num_blocks)
    stream = FastAES(key).encrypt_blocks(counters)
    return stream.reshape(-1)[:num_bytes]
