"""AES (FIPS-197) tables and key schedule, for AES-128/192/256.

The S-box, the GF(2^8) arithmetic and the key expansion that the
vectorized cipher :class:`repro.crypto.fastaes.FastAES` runs on.  P3's
one mode of operation, CTR, lives in :mod:`repro.crypto.modes`; it
never runs the inverse cipher, so there is none.

Design note — scalar reference vs batch cipher
----------------------------------------------
The scalar FIPS-197 round function, one 16-byte block per Python call
on a flat state in column-major order, is the batch cipher's test
oracle and lives with the tests (``tests/crypto/oracles.py``), the
same split the JPEG codec uses (scalar T.81 reference vs the native C
entropy kernel).  Both share one key schedule (:func:`expand_key`) and
the same GF(2^8) tables; the batch cipher lifts each round step from a
16-byte state to an ``(n_blocks, 16)`` state stack:

* SubBytes     -> one S-box fancy-index over the whole stack;
* ShiftRows    -> a precomputed 16-entry column permutation;
* MixColumns   -> precomputed xtime / GF-multiple byte tables combined
  with broadcast XORs (no per-byte Python loop);
* AddRoundKey  -> one broadcast XOR with the 16-byte round key.

Ten-ish rounds of whole-stack numpy ops replace ``n_blocks`` trips
through the Python round function, which is where the ~2 orders of
magnitude on CTR throughput come from.

Neither form attempts constant-time operation: the table lookups are
data-dependent (classic cache-timing territory), numpy adds its own
data-dependent allocation behavior, and Python-level timing is
attacker-observable anyway.  That is out of scope here exactly as it
was for the scalar code — this reproduction runs offline on the
photo owner's own machine; treat it as a correctness model, not a
hardened cipher.
"""

from __future__ import annotations


def _build_sbox() -> list[int]:
    """Construct the AES S-box from GF(2^8) arithmetic."""
    # Multiplicative inverse table via exp/log tables over generator 3.
    exp = [0] * 512
    log = [0] * 256
    value = 1
    for exponent in range(255):
        exp[exponent] = value
        log[value] = exponent
        # multiply by generator 0x03 = x + 1
        value ^= (value << 1) ^ (0x11B if value & 0x80 else 0)
        value &= 0xFF
    for exponent in range(255, 512):
        exp[exponent] = exp[exponent - 255]

    sbox = [0] * 256
    for byte in range(256):
        if byte == 0:
            inv = 0
        else:
            inv = exp[255 - log[byte]]
        # Affine transformation.
        result = 0
        for shift in (0, 1, 2, 3, 4):
            result ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        result ^= 0x63
        sbox[byte] = result
    return sbox


SBOX = _build_sbox()


def _xtime(value: int) -> int:
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_multiply(a: int, b: int) -> int:
    """Multiply two bytes in GF(2^8) with the AES polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


#: Round constants for the key schedule.
RCON = [0x01]
while len(RCON) < 14:
    RCON.append(_xtime(RCON[-1]))

#: FIPS-197 round counts by key length.
ROUNDS_BY_KEY_SIZE = {16: 10, 24: 12, 32: 14}


def expand_key(key: bytes) -> list[list[int]]:
    """FIPS-197 key expansion; returns (rounds+1) 16-byte round keys.

    Shared by the batch cipher in :mod:`repro.crypto.fastaes` and the
    scalar test oracle, so the two can never disagree on the schedule.
    """
    if len(key) not in ROUNDS_BY_KEY_SIZE:
        raise ValueError(
            f"AES key must be 16, 24 or 32 bytes, got {len(key)}"
        )
    rounds = ROUNDS_BY_KEY_SIZE[len(key)]
    nk = len(key) // 4
    words = [list(key[i * 4 : i * 4 + 4]) for i in range(nk)]
    total_words = 4 * (rounds + 1)
    for i in range(nk, total_words):
        word = list(words[i - 1])
        if i % nk == 0:
            word = word[1:] + word[:1]  # RotWord
            word = [SBOX[b] for b in word]  # SubWord
            word[0] ^= RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            word = [SBOX[b] for b in word]
        word = [a ^ b for a, b in zip(word, words[i - nk])]
        words.append(word)
    round_keys = []
    for round_index in range(rounds + 1):
        key_bytes: list[int] = []
        for word in words[round_index * 4 : round_index * 4 + 4]:
            key_bytes.extend(word)
        round_keys.append(key_bytes)
    return round_keys
