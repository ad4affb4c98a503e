"""Fast-path crypto: table-driven AES under the CMAC.

The table-driven cipher exists purely for speed; these tests pin it
bit-for-bit to the reference implementation so the optimization can
never drift from the spec.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.aes import AES, BLOCK_SIZE, TableAES
from repro.crypto.cmac import AesCmac

RFC_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
RFC_TAGS = {
    0: "bb1d6929e95937287fa37d129b756746",
    16: "070a16b46b4d4144f79bdd9dd04a287c",
    40: "dfa66747de9ae63030ca32611497c827",
    64: "51f0bebf7e3b9d92fc49741779363cfe",
}


class TestTableAes:
    def test_fips197_appendix_c(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert TableAES(key).encrypt_block(plaintext) == expected

    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert TableAES(key).encrypt_block(plaintext) == expected

    @given(
        key=st.binary(min_size=16, max_size=16),
        block=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
    )
    def test_matches_reference_aes(self, key, block):
        assert TableAES(key).encrypt_block(block) == AES(key).encrypt_block(block)

    @given(
        key=st.binary(min_size=16, max_size=16),
        block=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
    )
    def test_round_trip_through_reference_decrypt(self, key, block):
        cipher = TableAES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


class TestCmacDefaultCipher:
    def test_rfc4493_vectors_with_table_cipher(self):
        # AesCmac defaults to TableAES; the RFC vectors must still hold.
        for length, expected in RFC_TAGS.items():
            assert AesCmac(RFC_KEY).tag(RFC_MSG[:length]) == bytes.fromhex(expected)

    def test_explicit_reference_cipher_agrees(self):
        table = AesCmac(RFC_KEY)
        reference = AesCmac(RFC_KEY, cipher=AES(RFC_KEY))
        assert table.tag(RFC_MSG) == reference.tag(RFC_MSG)
