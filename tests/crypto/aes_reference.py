"""AES-128 transcribed byte-wise from the FIPS-197 specification.

The differential oracle for :mod:`repro.crypto.aes`: the state is a
16-byte column-major list and every step (SubBytes, ShiftRows,
MixColumns via bit-loop ``gf_mul``, AddRoundKey) is written as the
specification states it.  The S-box inverse comes from an exhaustive
``gf_mul`` scan, independent of the production log/antilog derivation,
and the inverse cipher is kept so the production ciphertext can be
decrypted by an independent implementation.  Speed is not a goal here --
correctness and auditability are.
"""

from __future__ import annotations

from typing import List, Sequence

# ---------------------------------------------------------------------------
# GF(2^8) arithmetic and table construction
# ---------------------------------------------------------------------------


def _xtime(a: int) -> int:
    """Multiply by x (i.e. {02}) in GF(2^8) mod x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def gf_mul(a: int, b: int) -> int:
    """Full GF(2^8) multiplication (used by MixColumns and tests)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> List[int]:
    # Multiplicative inverses via exhaustive scan (256 elements, done once).
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if gf_mul(x, y) == 1:
                inverse[x] = y
                break
    sbox = []
    for x in range(256):
        b = inverse[x]
        # Affine transform: b ^ rotl(b,1..4) ^ 0x63.
        value = b
        for shift in range(1, 5):
            value ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox.append(value ^ 0x63)
    return sbox


SBOX: List[int] = _build_sbox()
INV_SBOX: List[int] = [0] * 256
for _i, _v in enumerate(SBOX):
    INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


class AES128:
    """AES with a 128-bit key: ``encrypt_block`` / ``decrypt_block``.

    The state is kept as a 16-byte list in column-major order, as in the
    specification.
    """

    BLOCK_BYTES = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        self.round_keys = self._expand_key(key)

    # ------------------------------------------------------------------
    @staticmethod
    def _expand_key(key: bytes) -> List[List[int]]:
        """FIPS-197 key schedule: 11 round keys of 16 bytes each."""
        words: List[List[int]] = [list(key[4 * i: 4 * i + 4]) for i in range(4)]
        for i in range(4, 44):
            temp = list(words[i - 1])
            if i % 4 == 0:
                temp = temp[1:] + temp[:1]            # RotWord
                temp = [SBOX[b] for b in temp]        # SubWord
                temp[0] ^= _RCON[i // 4 - 1]
            words.append([a ^ b for a, b in zip(words[i - 4], temp)])
        return [
            sum((words[4 * r + c] for c in range(4)), [])
            for r in range(11)
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _add_round_key(state: List[int], rk: Sequence[int]) -> None:
        for i in range(16):
            state[i] ^= rk[i]

    @staticmethod
    def _sub_bytes(state: List[int], box: Sequence[int]) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state: List[int], inverse: bool = False) -> None:
        # state[col*4 + row]; row r rotates left by r (right when inverse).
        for row in range(1, 4):
            values = [state[col * 4 + row] for col in range(4)]
            shift = -row if inverse else row
            values = values[shift % 4:] + values[: shift % 4]
            for col in range(4):
                state[col * 4 + row] = values[col]

    @staticmethod
    def _mix_columns(state: List[int]) -> None:
        for col in range(4):
            a = state[col * 4: col * 4 + 4]
            state[col * 4 + 0] = gf_mul(a[0], 2) ^ gf_mul(a[1], 3) ^ a[2] ^ a[3]
            state[col * 4 + 1] = a[0] ^ gf_mul(a[1], 2) ^ gf_mul(a[2], 3) ^ a[3]
            state[col * 4 + 2] = a[0] ^ a[1] ^ gf_mul(a[2], 2) ^ gf_mul(a[3], 3)
            state[col * 4 + 3] = gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ gf_mul(a[3], 2)

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for col in range(4):
            a = state[col * 4: col * 4 + 4]
            state[col * 4 + 0] = (gf_mul(a[0], 14) ^ gf_mul(a[1], 11)
                                  ^ gf_mul(a[2], 13) ^ gf_mul(a[3], 9))
            state[col * 4 + 1] = (gf_mul(a[0], 9) ^ gf_mul(a[1], 14)
                                  ^ gf_mul(a[2], 11) ^ gf_mul(a[3], 13))
            state[col * 4 + 2] = (gf_mul(a[0], 13) ^ gf_mul(a[1], 9)
                                  ^ gf_mul(a[2], 14) ^ gf_mul(a[3], 11))
            state[col * 4 + 3] = (gf_mul(a[0], 11) ^ gf_mul(a[1], 13)
                                  ^ gf_mul(a[2], 9) ^ gf_mul(a[3], 14))

    # ------------------------------------------------------------------
    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = list(plaintext)
        self._add_round_key(state, self.round_keys[0])
        for round_no in range(1, 10):
            self._sub_bytes(state, SBOX)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self.round_keys[round_no])
        self._sub_bytes(state, SBOX)
        self._shift_rows(state)
        self._add_round_key(state, self.round_keys[10])
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = list(ciphertext)
        self._add_round_key(state, self.round_keys[10])
        for round_no in range(9, 0, -1):
            self._shift_rows(state, inverse=True)
            self._sub_bytes(state, INV_SBOX)
            self._add_round_key(state, self.round_keys[round_no])
            self._inv_mix_columns(state)
        self._shift_rows(state, inverse=True)
        self._sub_bytes(state, INV_SBOX)
        self._add_round_key(state, self.round_keys[0])
        return bytes(state)

    # ------------------------------------------------------------------
    def keystream(self, nonce: int, counter: int, length: int) -> bytes:
        """CTR-mode keystream: AES(K, nonce || counter..) truncated.

        The 16-byte counter block is ``nonce`` (8 bytes, big endian)
        followed by a per-call incrementing 8-byte block counter.
        """
        out = bytearray()
        block_index = 0
        while len(out) < length:
            block = (
                (nonce & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
                + ((counter + block_index) & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
            )
            out.extend(self.encrypt_block(block))
            block_index += 1
        return bytes(out[:length])
