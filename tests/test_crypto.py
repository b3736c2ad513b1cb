"""Cryptographic primitives: hashing, AEAD, signatures, TPM."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import CryptoError
from repro.crypto.hashing import hash_pair, hash_value, sha256_hex
from repro.crypto import signatures
from repro.crypto.signatures import Signature, SigningKey
from repro.crypto.symmetric import EncryptedBlob, SymmetricKey
from repro.crypto.tpm import SimulatedTpm


class TestHashing:
    def test_hash_value_canonical(self):
        assert hash_value({"a": 1, "b": 2}) == hash_value({"b": 2, "a": 1})

    def test_sha256_hex_matches_hashlib(self):
        assert sha256_hex(b"x") == hashlib.sha256(b"x").hexdigest()

    def test_hash_pair_order_matters(self):
        assert hash_pair("aa", "bb") != hash_pair("bb", "aa")


class TestSymmetric:
    def test_roundtrip(self):
        key = SymmetricKey.generate(entropy=b"test")
        blob = key.encrypt(b"secret log payload")
        assert key.decrypt(blob) == b"secret log payload"

    def test_ciphertext_differs_from_plaintext(self):
        key = SymmetricKey.generate(entropy=b"test")
        blob = key.encrypt(b"secret")
        assert blob.ciphertext != b"secret"

    def test_tampered_ciphertext_rejected(self):
        key = SymmetricKey.generate(entropy=b"test")
        blob = key.encrypt(b"secret")
        tampered = EncryptedBlob(
            nonce=blob.nonce,
            ciphertext=bytes([blob.ciphertext[0] ^ 1]) + blob.ciphertext[1:],
            tag=blob.tag)
        with pytest.raises(CryptoError):
            key.decrypt(tampered)

    def test_tampered_tag_rejected(self):
        key = SymmetricKey.generate(entropy=b"test")
        blob = key.encrypt(b"secret")
        tampered = EncryptedBlob(nonce=blob.nonce, ciphertext=blob.ciphertext,
                                 tag="0" * 64)
        with pytest.raises(CryptoError):
            key.decrypt(tampered)

    def test_wrong_key_rejected(self):
        blob = SymmetricKey.generate(entropy=b"one").encrypt(b"secret")
        with pytest.raises(CryptoError):
            SymmetricKey.generate(entropy=b"two").decrypt(blob)

    def test_deterministic_generation_from_entropy(self):
        a = SymmetricKey.generate(entropy=b"same")
        b = SymmetricKey.generate(entropy=b"same")
        assert b.decrypt(a.encrypt(b"payload")) == b"payload"

    def test_blob_dict_roundtrip(self):
        key = SymmetricKey.generate(entropy=b"test")
        blob = key.encrypt(b"payload")
        restored = EncryptedBlob.from_dict(blob.to_dict())
        assert key.decrypt(restored) == b"payload"

    def test_malformed_blob_dict_raises(self):
        with pytest.raises(CryptoError):
            EncryptedBlob.from_dict({"nonce": "zz", "ciphertext": "", "tag": ""})

    def test_bad_key_size_rejected(self):
        with pytest.raises(CryptoError):
            SymmetricKey(b"short")

    def test_explicit_nonce_must_be_right_size(self):
        key = SymmetricKey.generate(entropy=b"test")
        with pytest.raises(CryptoError):
            key.encrypt(b"x", nonce=b"tiny")

    @given(st.binary(max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, plaintext):
        key = SymmetricKey.generate(entropy=b"prop")
        assert key.decrypt(key.encrypt(plaintext)) == plaintext

    def test_empty_plaintext(self):
        key = SymmetricKey.generate(entropy=b"test")
        assert key.decrypt(key.encrypt(b"")) == b""

    @given(
        st.one_of(st.sampled_from([0, 1, 31, 32, 33]), st.integers(0, 300)).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)
        ),
        st.binary(min_size=16, max_size=16),
    )
    @settings(max_examples=80, deadline=None)
    def test_stream_xor_matches_the_bytewise_reference(self, plaintext, nonce):
        key = SymmetricKey.generate(entropy=b"xor")
        blocks = range(-(-len(plaintext) // 32))
        stream = b"".join(
            hashlib.sha256(key._enc_key + nonce + i.to_bytes(8, "big")).digest() for i in blocks
        )
        blob = key.encrypt(plaintext, nonce=nonce)
        assert blob.ciphertext == bytes(p ^ s for p, s in zip(plaintext, stream))
        assert len(blob.ciphertext) == len(plaintext)
        assert key.decrypt(blob) == plaintext


class TestSignatures:
    def test_sign_verify(self):
        key = SigningKey.generate(b"alice")
        signature = key.sign(b"message")
        assert key.public.verify(b"message", signature)

    def test_wrong_message_fails(self):
        key = SigningKey.generate(b"alice")
        signature = key.sign(b"message")
        assert not key.public.verify(b"other", signature)

    def test_wrong_key_fails(self):
        alice = SigningKey.generate(b"alice")
        bob = SigningKey.generate(b"bob")
        assert not bob.public.verify(b"message", alice.sign(b"message"))

    def test_signature_is_deterministic(self):
        key = SigningKey.generate(b"alice")
        assert key.sign(b"m") == key.sign(b"m")

    def test_signature_dict_roundtrip(self):
        key = SigningKey.generate(b"alice")
        signature = key.sign(b"m")
        assert Signature.from_dict(signature.to_dict()) == signature

    def test_public_key_is_a_function_of_the_seed(self):
        assert SigningKey.generate(b"alice").public == SigningKey.generate(b"alice").public
        assert SigningKey.generate(b"alice").public != SigningKey.generate(b"bob").public

    def test_out_of_range_signature_rejected(self):
        key = SigningKey.generate(b"alice")
        assert not key.public.verify(b"m", Signature(e=0, s=0))

    def test_malformed_signature_dict(self):
        with pytest.raises(CryptoError):
            Signature.from_dict({"e": "xx"})

    @given(st.binary(min_size=1, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_verify_property(self, message):
        key = SigningKey.generate(b"prop")
        assert key.public.verify(message, key.sign(message))
        assert not key.public.verify(message + b"!", key.sign(message))


_FORGED_E = random.Random(300).getrandbits(300) | (1 << 299)


class TestFixedBaseTables:
    """The windowed tables are an optimisation of ``pow``, bit for bit."""

    KEY = SigningKey.generate(b"fixed-base")

    @pytest.mark.parametrize(
        "exp", [0, 1, signatures._Q - 1, 2**160 - 1, 2**160, _FORGED_E],
        ids=["zero", "one", "q-1", "2^160-1", "2^160", "forged-300-bit"],
    )
    def test_matches_pow(self, exp):
        y = self.KEY.public.y
        assert signatures._g_pow(exp) == pow(signatures._G, exp, signatures._P)
        assert self.KEY.public._y_pow(exp) == pow(y, exp, signatures._P)

    def test_tables_cover_the_group_order(self):
        signatures._g_pow(1)
        self.KEY.public._y_pow(1)
        assert [len(signatures._G_TABLE), len(signatures._G_TABLE[0])] == [20, 256]
        table = signatures._key_table(self.KEY.public.y)
        assert [len(table), len(table[0])] == [40, 16]
        # Shared by value: a key re-derived from the same seed finds the same table.
        again = SigningKey.generate(b"fixed-base").public
        assert again is not self.KEY.public and signatures._key_table(again.y) is table

    def test_signatures_match_a_pow_only_reference(self):
        rng = random.Random(200)
        x = self.KEY._x
        for _ in range(200):
            message = rng.randbytes(rng.randrange(1, 64))
            k = self.KEY._nonce(message)
            r = pow(signatures._G, k, signatures._P)
            e = signatures._hash_to_int(hex(r).encode(), message) % signatures._Q or 1
            expected = Signature(e=e, s=(k - x * e) % signatures._Q)
            assert self.KEY.sign(message) == expected
            assert self.KEY.public.verify(message, expected)


class TestTpm:
    def make(self) -> SimulatedTpm:
        return SimulatedTpm("tpm-1", endorsement_seed=b"seed")

    def test_seal_unseal_under_same_pcr(self):
        tpm = self.make()
        tpm.extend_pcr({"component": "li", "version": 1})
        tpm.seal("K", "key-material")
        assert tpm.unseal("K") == "key-material"

    def test_unseal_refused_after_measurement_change(self):
        tpm = self.make()
        tpm.extend_pcr({"component": "li", "version": 1})
        tpm.seal("K", "key-material")
        tpm.extend_pcr({"malicious": "patch"})
        with pytest.raises(CryptoError):
            tpm.unseal("K")

    def test_unseal_unknown_name(self):
        with pytest.raises(CryptoError):
            self.make().unseal("nothing")

    def test_pcr_extension_is_order_sensitive(self):
        a = self.make()
        b = self.make()
        a.extend_pcr("m1")
        a.extend_pcr("m2")
        b.extend_pcr("m2")
        b.extend_pcr("m1")
        assert a.pcr != b.pcr

    def test_reset_restores_initial_pcr(self):
        tpm = self.make()
        initial = tpm.pcr
        tpm.extend_pcr("m")
        tpm.reset()
        assert tpm.pcr == initial

    def test_attestation_verifies_with_matching_pcr(self):
        tpm = self.make()
        tpm.extend_pcr("m")
        report = tpm.attest("nonce-1")
        assert report.verify(tpm.endorsement_key, tpm.pcr, "nonce-1")

    def test_attestation_fails_on_wrong_nonce(self):
        tpm = self.make()
        report = tpm.attest("nonce-1")
        assert not report.verify(tpm.endorsement_key, tpm.pcr, "nonce-2")

    def test_attestation_fails_on_pcr_drift(self):
        tpm = self.make()
        expected = tpm.pcr
        tpm.extend_pcr("malicious")
        report = tpm.attest("n")
        assert not report.verify(tpm.endorsement_key, expected, "n")

    def test_attestation_fails_with_wrong_endorsement_key(self):
        tpm = self.make()
        other = SimulatedTpm("tpm-2", endorsement_seed=b"other")
        report = tpm.attest("n")
        assert not report.verify(other.endorsement_key, tpm.pcr, "n")
