"""AES-128 against FIPS-197, NIST SP 800-38A and the byte-wise oracle.

``aes_reference`` is the specification transcribed step by step; the
T-table cipher in ``repro.crypto.aes`` must agree with it bit for bit.
The GF(2^8) and inverse-cipher checks exercise the reference, whose
``decrypt_block`` then serves as an independent inverse of the
production ``encrypt_block``.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES128, SBOX
from tests.crypto import aes_reference as ref

M64 = 2**64 - 1


class TestGaloisField:
    def test_identity(self):
        assert ref.gf_mul(0x57, 1) == 0x57

    def test_fips_example(self):
        # FIPS-197 Section 4.2: {57} x {83} = {c1}.
        assert ref.gf_mul(0x57, 0x83) == 0xC1

    def test_xtime_chain(self):
        # {57} x {13} = {fe} (FIPS-197 4.2.1 worked example).
        assert ref.gf_mul(0x57, 0x13) == 0xFE

    def test_commutative(self):
        for a, b in [(0x03, 0x09), (0x0E, 0x0B), (0xFF, 0x02)]:
            assert ref.gf_mul(a, b) == ref.gf_mul(b, a)


class TestSbox:
    def test_known_entries(self):
        # FIPS-197 Figure 7 spot checks.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inverse_consistent(self):
        assert all(ref.INV_SBOX[SBOX[i]] == i for i in range(256))

    def test_no_fixed_points(self):
        assert all(SBOX[i] != i for i in range(256))

    def test_matches_exhaustive_scan_sbox(self):
        assert SBOX == ref.SBOX


class TestCipher:
    KEY = bytes(range(16))
    PT = bytes.fromhex("00112233445566778899aabbccddeeff")
    CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")

    def test_fips197_appendix_c(self):
        assert AES128(self.KEY).encrypt_block(self.PT) == self.CT
        assert ref.AES128(self.KEY).encrypt_block(self.PT) == self.CT

    def test_decrypt_inverts(self):
        assert ref.AES128(self.KEY).decrypt_block(self.CT) == self.PT

    def test_round_trip_random_blocks(self):
        import random
        rng = random.Random(1)
        key = bytes(rng.randrange(256) for _ in range(16))
        aes, oracle = AES128(key), ref.AES128(key)
        for _ in range(10):
            block = bytes(rng.randrange(256) for _ in range(16))
            assert oracle.decrypt_block(aes.encrypt_block(block)) == block

    def test_key_sensitivity(self):
        ct1 = AES128(b"\x00" * 16).encrypt_block(self.PT)
        ct2 = AES128(b"\x00" * 15 + b"\x01").encrypt_block(self.PT)
        assert ct1 != ct2

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ValueError):
            AES128(b"short")

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            AES128(self.KEY).encrypt_block(b"tiny")


class TestKeystream:
    def test_length_exact(self):
        aes = AES128(b"k" * 16)
        assert len(aes.keystream(0, 0, 72)) == 72
        assert len(aes.keystream(0, 0, 16)) == 16
        assert len(aes.keystream(0, 0, 1)) == 1

    def test_deterministic(self):
        aes = AES128(b"k" * 16)
        assert aes.keystream(5, 9, 64) == aes.keystream(5, 9, 64)

    def test_counter_separates_streams(self):
        aes = AES128(b"k" * 16)
        assert aes.keystream(0, 0, 32) != aes.keystream(0, 64, 32)

    def test_nonce_separates_streams(self):
        aes = AES128(b"k" * 16)
        assert aes.keystream(1, 0, 32) != aes.keystream(2, 0, 32)

    def test_prefix_property(self):
        aes = AES128(b"k" * 16)
        assert aes.keystream(3, 0, 64)[:32] == aes.keystream(3, 0, 32)

    def test_nist_sp800_38a_f51_ctr_aes128(self):
        # Initial counter block f0f1..feff: nonce is its high 8 bytes,
        # the block counter its low 8.
        aes = AES128(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        plain = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710")
        cipher = bytes.fromhex(
            "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee")
        pad = aes.keystream(0xF0F1F2F3F4F5F6F7, 0xF8F9FAFBFCFDFEFF, 64)
        assert bytes(p ^ k for p, k in zip(plain, pad)) == cipher

    def test_counter_wraps_at_64_bits(self):
        pad = AES128(b"k" * 16).keystream(0x0123456789ABCDEF, 2**64 - 2, 1000)
        assert hashlib.sha256(pad).hexdigest() == (
            "ef854d9aa64ba8d48b25351592bead8031ec6209fb04d798c8b55b749d622796")


class TestDifferential:
    """The T-table cipher agrees with the byte-wise oracle."""

    @settings(max_examples=200, deadline=None)
    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    def test_encrypt_block_matches_reference(self, key, block):
        assert AES128(key).encrypt_block(block) == \
            ref.AES128(key).encrypt_block(block)

    @settings(max_examples=60, deadline=None)
    @given(key=st.binary(min_size=16, max_size=16),
           nonce=st.one_of(st.integers(0, M64),
                           st.integers(M64 + 1, 2**80)),
           counter=st.one_of(st.integers(0, M64),
                             st.integers(M64 - 4, M64)),
           length=st.integers(0, 1100))
    def test_keystream_matches_reference(self, key, nonce, counter, length):
        assert AES128(key).keystream(nonce, counter, length) == \
            ref.AES128(key).keystream(nonce, counter, length)
