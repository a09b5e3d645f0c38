"""AES-128 block cipher, implemented from the FIPS-197 specification.

Pure Python, using the standard 32-bit T-table formulation: the state is
four big-endian column words, and each of the nine full rounds is sixteen
lookups into four 256-word tables (``Te0..Te3``, one per byte position)
that fold SubBytes, ShiftRows and MixColumns together.  The final round
is a plain S-box pass.  The S-box itself is derived (multiplicative
inverse in GF(2^8) via log/antilog tables, then the affine transform)
rather than transcribed, and the tables are built from it at import.

Only encryption is implemented: the cipher runs in counter mode, which
never decrypts.  ``tests/crypto/aes_reference.py`` keeps a byte-wise
transcription of the specification (with the inverse cipher) as the
differential oracle, and the suite checks the FIPS-197 Appendix C and
NIST SP 800-38A CTR known answers.

This is the cipher behind the paper's Eq. (1) OTP generation.
"""

from __future__ import annotations

import struct
from typing import List

_M64 = 0xFFFFFFFFFFFFFFFF
_BLOCK = struct.Struct(">4I")


def _xtime(a: int) -> int:
    """Multiply by x (i.e. {02}) in GF(2^8) mod x^8+x^4+x^3+x+1."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _build_sbox() -> List[int]:
    # Powers of the generator {03} give log/antilog tables; the inverse
    # of g^i is g^(255 - i).
    exp = [0] * 255
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= _xtime(x)
    sbox = []
    for x in range(256):
        b = exp[-log[x] % 255] if x else 0
        # Affine transform: b ^ rotl(b,1..4) ^ 0x63.
        value = b
        for shift in range(1, 5):
            value ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox.append(value ^ 0x63)
    return sbox


SBOX: List[int] = _build_sbox()


def _ror8(w: int) -> int:
    return (w >> 8) | ((w & 0xFF) << 24)


# Te0[x] is the MixColumns column ({02}s, s, s, {03}s) for s = SBOX[x];
# Te1..Te3 are its byte rotations, one per source row.
_TE0 = [(_xtime(s) << 24) | (s << 16) | (s << 8) | (_xtime(s) ^ s)
        for s in SBOX]
_TE1 = [_ror8(w) for w in _TE0]
_TE2 = [_ror8(w) for w in _TE1]
_TE3 = [_ror8(w) for w in _TE2]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


class AES128:
    """AES with a 128-bit key: ``encrypt_block`` and the CTR ``keystream``."""

    BLOCK_BYTES = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError("AES-128 requires a 16-byte key")
        self.round_keys = self._expand_key(key)

    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        """FIPS-197 key schedule: 44 big-endian words, four per round."""
        words = list(_BLOCK.unpack(key))
        for i in range(4, 44):
            temp = words[i - 1]
            if i % 4 == 0:
                temp = ((SBOX[(temp >> 16) & 0xFF] << 24)      # RotWord +
                        | (SBOX[(temp >> 8) & 0xFF] << 16)     # SubWord
                        | (SBOX[temp & 0xFF] << 8)
                        | SBOX[temp >> 24]) ^ (_RCON[i // 4 - 1] << 24)
            words.append(words[i - 4] ^ temp)
        return words

    def encrypt_block(self, plaintext: bytes) -> bytes:
        if len(plaintext) != 16:
            raise ValueError("AES block must be 16 bytes")
        rk = self.round_keys
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        s0, s1, s2, s3 = _BLOCK.unpack(plaintext)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        for r in range(4, 40, 4):
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[r],
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[r + 1],
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[r + 2],
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[r + 3],
            )
        # Final round (no MixColumns): each T-table holds the bare S-box
        # byte in one lane -- Te2 in the top byte, Te3 next, then Te0, Te1.
        return _BLOCK.pack(
            ((te2[s0 >> 24] & 0xFF000000) ^ (te3[(s1 >> 16) & 0xFF] & 0xFF0000)
             ^ (te0[(s2 >> 8) & 0xFF] & 0xFF00) ^ (te1[s3 & 0xFF] & 0xFF)
             ^ rk[40]),
            ((te2[s1 >> 24] & 0xFF000000) ^ (te3[(s2 >> 16) & 0xFF] & 0xFF0000)
             ^ (te0[(s3 >> 8) & 0xFF] & 0xFF00) ^ (te1[s0 & 0xFF] & 0xFF)
             ^ rk[41]),
            ((te2[s2 >> 24] & 0xFF000000) ^ (te3[(s3 >> 16) & 0xFF] & 0xFF0000)
             ^ (te0[(s0 >> 8) & 0xFF] & 0xFF00) ^ (te1[s1 & 0xFF] & 0xFF)
             ^ rk[42]),
            ((te2[s3 >> 24] & 0xFF000000) ^ (te3[(s0 >> 16) & 0xFF] & 0xFF0000)
             ^ (te0[(s1 >> 8) & 0xFF] & 0xFF00) ^ (te1[s2 & 0xFF] & 0xFF)
             ^ rk[43]),
        )

    def keystream(self, nonce: int, counter: int, length: int) -> bytes:
        """CTR-mode keystream: AES(K, nonce || counter..) truncated.

        The 16-byte counter block is ``nonce`` (8 bytes, big endian)
        followed by a per-call incrementing 8-byte block counter.
        """
        high = (nonce & _M64) << 64
        encrypt = self.encrypt_block
        return b"".join([
            encrypt((high | ((counter + i) & _M64)).to_bytes(16, "big"))
            for i in range(-(-length // 16))
        ])[:length]
