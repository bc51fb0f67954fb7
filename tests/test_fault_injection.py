"""Fault injection: corrupted payloads must fail loudly or decode
bounded garbage — never hang, crash the interpreter, or read out of
bounds.

Decoders are driven with (a) truncated streams, (b) bit-flipped
payloads and (c) random bytes.  The acceptable outcomes are a Python
exception (EOFError / ValueError / IndexError / struct.error / KeyError)
or a well-formed array of the declared length whose content simply
differs — silent wrong-length results are the only failure.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.baselines.chimp import ChimpEncoded, chimp_compress, chimp_decompress
from repro.baselines.chimp128 import (
    Chimp128Encoded,
    chimp128_compress,
    chimp128_decompress,
)
from repro.baselines.gorilla import (
    GorillaEncoded,
    gorilla_compress,
    gorilla_decompress,
)
from repro.baselines.patas import PatasEncoded, patas_compress, patas_decompress
from repro.baselines.registry import Encoded, get, list_codecs
from repro.core.alp import alp_decode_vector, alp_encode_vector
from repro.encodings.ffor import FforEncoded, ffor_decode
from repro.storage.serializer import deserialize_rowgroup

ACCEPTABLE = (
    EOFError,
    ValueError,
    IndexError,
    KeyError,
    OverflowError,
    struct.error,
)


def _values():
    rng = np.random.default_rng(0)
    return np.round(np.cumsum(rng.normal(0, 0.1, 500)) + 20.0, 2)


class TestTruncatedStreams:
    def test_gorilla_truncated(self):
        encoded = gorilla_compress(_values())
        broken = GorillaEncoded(
            payload=encoded.payload[: len(encoded.payload) // 3],
            count=encoded.count,
        )
        with pytest.raises(ACCEPTABLE):
            gorilla_decompress(broken)

    def test_chimp_truncated(self):
        encoded = chimp_compress(_values())
        broken = ChimpEncoded(
            payload=encoded.payload[: len(encoded.payload) // 3],
            count=encoded.count,
        )
        with pytest.raises(ACCEPTABLE):
            chimp_decompress(broken)

    def test_chimp128_truncated(self):
        encoded = chimp128_compress(_values())
        broken = Chimp128Encoded(
            payload=encoded.payload[: len(encoded.payload) // 3],
            count=encoded.count,
            ring_size=encoded.ring_size,
        )
        with pytest.raises(ACCEPTABLE):
            chimp128_decompress(broken)

    def test_ffor_truncated(self):
        encoded = FforEncoded(payload=b"\x00", reference=0, bit_width=13, count=100)
        with pytest.raises(ACCEPTABLE):
            ffor_decode(encoded)


class TestBitFlips:
    def test_flipped_alp_payload_changes_values_not_shape(self):
        values = _values()
        vector = alp_encode_vector(values, 14, 12)
        payload = bytearray(vector.ffor.payload)
        payload[len(payload) // 2] ^= 0xFF
        from dataclasses import replace

        broken = replace(
            vector, ffor=replace(vector.ffor, payload=bytes(payload))
        )
        decoded = alp_decode_vector(broken)
        assert decoded.shape == values.shape  # framing intact
        assert not np.array_equal(
            decoded.view(np.uint64), values.view(np.uint64)
        )  # corruption visible

    def test_flipped_patas_payload_bounded(self):
        encoded = patas_compress(_values())
        payload = bytearray(encoded.payload)
        if payload:
            payload[0] ^= 0xFF
        broken = PatasEncoded(
            headers=encoded.headers,
            payload=bytes(payload),
            first_value=encoded.first_value,
            count=encoded.count,
        )
        decoded = patas_decompress(broken)
        assert decoded.shape == (encoded.count,)


class TestRandomBytes:
    @pytest.mark.parametrize("seed", range(8))
    def test_gorilla_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        junk = rng.integers(0, 256, 200, dtype=np.uint8).tobytes()
        encoded = GorillaEncoded(payload=junk, count=64)
        try:
            out = gorilla_decompress(encoded)
            assert out.shape == (64,)
        except ACCEPTABLE:
            pass

    @pytest.mark.parametrize("seed", range(8))
    def test_chimp_fuzz(self, seed):
        rng = np.random.default_rng(seed + 100)
        junk = rng.integers(0, 256, 200, dtype=np.uint8).tobytes()
        encoded = ChimpEncoded(payload=junk, count=64)
        try:
            out = chimp_decompress(encoded)
            assert out.shape == (64,)
        except ACCEPTABLE:
            pass

    @pytest.mark.parametrize("seed", range(8))
    def test_rowgroup_deserialize_fuzz(self, seed):
        rng = np.random.default_rng(seed + 300)
        junk = rng.integers(0, 256, 400, dtype=np.uint8).tobytes()
        try:
            rowgroup, consumed = deserialize_rowgroup(junk)
            assert consumed <= len(junk)
        except ACCEPTABLE:
            pass


class TestEveryRegisteredCodec:
    """Registry-driven sweep: no hand-maintained codec list to drift.

    Whatever lands in ``repro.baselines.registry.CODECS`` automatically
    gets a losslessness check and a corruption check here.
    """

    @pytest.mark.parametrize("name", list_codecs())
    def test_roundtrip_and_encoded_contract(self, name):
        codec = get(name)
        values = _values()
        encoded = codec.compress(values)
        assert isinstance(encoded, Encoded)
        assert encoded.count == values.size
        assert encoded.size_bits() > 0
        decoded = codec.decompress(encoded)
        assert np.array_equal(
            decoded.view(np.uint64), values.view(np.uint64)
        )

    @pytest.mark.parametrize("name", list_codecs())
    def test_corrupted_payload_never_silent_garbage(self, name):
        """Flip a byte in whatever payload field the blob carries.

        The contract is detection-or-correct-shape: either a loud
        exception from ``ACCEPTABLE``, or an array of the declared
        length (the corruption then being visible in the values, which
        the storage layer's checksums exist to catch).
        """
        from dataclasses import fields, is_dataclass, replace

        codec = get(name)
        values = _values()
        encoded = codec.compress(values)
        if not is_dataclass(encoded):
            pytest.skip(f"{name} blob is not a dataclass")
        payload_fields = [
            f.name
            for f in fields(encoded)
            if isinstance(getattr(encoded, f.name), bytes)
            and getattr(encoded, f.name)
        ]
        if not payload_fields:
            pytest.skip(f"{name} blob carries no flat bytes payload")
        for field_name in payload_fields:
            payload = bytearray(getattr(encoded, field_name))
            payload[len(payload) // 2] ^= 0x40
            broken = replace(encoded, **{field_name: bytes(payload)})
            try:
                decoded = codec.decompress(broken)
            except ACCEPTABLE:
                continue
            assert decoded.shape == values.shape
