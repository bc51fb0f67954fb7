"""Row-group-at-a-time decode against the per-vector oracles.

``decode_rowgroup_into`` unpacks a row-group's FFOR payloads once per
distinct bit width and ``alprd_decode`` unpacks ALP_rd's left and right
streams once per row-group.  Every result here is compared as
``uint64`` with the per-vector path (``alp_decode_vector`` /
``decode_vector_bits``), so NaN payloads and signed zeros count.
Damaged-but-parseable row-groups must still raise typed errors and
never write into a neighbour vector.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import api
from repro.alputil.bits import bits_to_double
from repro.core.alp import AlpVector, alp_decode_vector, alp_encode_vector
from repro.core.alprd import AlpRdRowGroup, alprd_decode, decode_vector_bits
from repro.core.compressor import (
    AlpRowGroup,
    CompressedRowGroup,
    compress,
    compress_rowgroup,
    decode_rowgroup_into,
    decompress,
)
from repro.data import get_dataset
from repro.encodings.bitpack import pack_bits, unpack_bits
from repro.encodings.ffor import ffor_encode
from repro.storage.errors import CorruptRowGroupError
from repro.storage.schema import Column, Schema
from repro.storage.serializer import serialize_rowgroup
from repro.storage.tablefile import (
    CODEC_FLOAT_ROWGROUP,
    ChunkMeta,
    TableFileWriter,
    _chunk_zone,
    _vector_zones_typed,
    _zone_table,
    chunk_frame,
)


def bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def per_vector(rg: CompressedRowGroup) -> np.ndarray:
    """The oracle: one per-vector decode each, concatenated."""
    if rg.alp is not None:
        parts = [alp_decode_vector(v) for v in rg.alp.vectors]
    else:
        parts = [
            bits_to_double(decode_vector_bits(v, rg.rd.parameters))
            for v in rg.rd.vectors
        ]
    return np.concatenate(parts) if parts else np.empty(0)


def rowgroup_decode(rg: CompressedRowGroup) -> np.ndarray:
    out = np.full(rg.count, np.nan)
    decode_rowgroup_into(rg, out)
    return out


def assert_parity(rg: CompressedRowGroup) -> None:
    expected = bits(per_vector(rg))
    np.testing.assert_array_equal(bits(rowgroup_decode(rg)), expected)


def specials(n: int, seed: int) -> np.ndarray:
    """Decimals sprinkled with every IEEE special and NaN payloads."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(0.0, 100.0, n), 2)
    pool = np.array(
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300]
    )
    picks = rng.random(n) < 0.05
    values[picks] = rng.choice(pool, int(picks.sum()))
    payloads = np.uint64(0x7FF0000000000000) | rng.integers(
        1, 1 << 51, 16, dtype=np.uint64
    )
    values[rng.integers(0, n, 16)] = payloads.view(np.float64)
    return values


def hand_vector(ints: np.ndarray, exponent: int = 2, factor: int = 0):
    """An ALP vector over arbitrary integers (any FFOR width)."""
    ints = np.asarray(ints, dtype=np.int64)
    return AlpVector(
        ffor=ffor_encode(ints),
        exponent=exponent,
        factor=factor,
        exc_values=np.empty(0, dtype=np.float64),
        exc_positions=np.empty(0, dtype=np.uint16),
        count=ints.size,
    )


def alp_rowgroup(vectors) -> CompressedRowGroup:
    vectors = tuple(vectors)
    count = sum(v.count for v in vectors)
    alp = AlpRowGroup(vectors=vectors, candidates=(), count=count)
    return CompressedRowGroup(alp=alp, rd=None, first_level=None, count=count)


class TestUnpackRows:
    """``unpack_bits`` over a list of payloads equals one call each."""

    @pytest.mark.parametrize("width", range(65))
    @pytest.mark.parametrize("count", [1024, 1000, 7])
    def test_every_width(self, width, count):
        rng = np.random.default_rng(width * 1000 + count)
        rows = [
            rng.integers(0, 1 << 63, count, dtype=np.uint64)
            >> np.uint64(64 - width)
            if width
            else np.zeros(count, dtype=np.uint64)
            for _ in range(5)
        ]
        payloads = [pack_bits(row, width) for row in rows]
        got = unpack_bits(payloads, width, count)
        np.testing.assert_array_equal(got, np.concatenate(rows))
        for payload, row in zip(payloads, rows, strict=True):
            single = unpack_bits(payload, width, count)
            np.testing.assert_array_equal(single, row)

    def test_wrong_payload_length_raises(self):
        payloads = [pack_bits(np.arange(1024, dtype=np.uint64) % 8, 3)] * 2
        short, long_ = payloads[0][:-1], payloads[1] + b"\0"
        with pytest.raises(ValueError, match="payload of"):
            unpack_bits([short, long_], 3, 1024)


class TestAlpParity:
    @pytest.mark.parametrize(
        "name",
        ["City-Temp", "Stocks-DE", "Basel-Temp", "NYC/29", "Food-prices"],
    )
    def test_datasets_with_tail(self, name):
        values = get_dataset(name, n=3 * 1024 + 517)
        rg, _, _ = compress_rowgroup(values)
        assert rg.alp is not None
        assert rg.alp.vectors[-1].count == 517
        assert_parity(rg)
        np.testing.assert_array_equal(bits(rowgroup_decode(rg)), bits(values))

    @pytest.mark.parametrize("seed", range(3))
    def test_specials_and_nan_payloads(self, seed):
        values = specials(20 * 1024 + 33, seed)
        rg, _, _ = compress_rowgroup(values, force_scheme="alp")
        assert rg.alp.exception_count() > 0
        assert_parity(rg)
        np.testing.assert_array_equal(bits(rowgroup_decode(rg)), bits(values))

    def test_all_exception_vectors(self):
        rng = np.random.default_rng(1)
        values = np.round(rng.normal(0, 10, 4 * 1024), 1)
        values[1024:2048] = rng.random(1024) * 1e300  # all exceptions
        values[3000:3100] = np.nan
        rg, _, _ = compress_rowgroup(values, force_scheme="alp")
        counts = [v.exception_count for v in rg.alp.vectors]
        assert counts[1] == 1024
        assert_parity(rg)

    def test_widths_zero_and_64_mixed_with_others(self):
        info = np.iinfo(np.int64)
        wide = np.random.default_rng(2).integers(
            info.min, info.max, 1024, dtype=np.int64, endpoint=True
        )
        wide[0], wide[-1] = info.min, info.max
        vectors = [
            hand_vector(np.full(1024, 12345)),  # width 0
            hand_vector(wide),  # width 64
            hand_vector(np.arange(1024) % 1000),  # width 10
            hand_vector(np.full(1024, -7)),  # width 0 again, other ref
            hand_vector(np.arange(1024) % 1000 + 5),  # width 10, apart
            hand_vector(wide[::-1]),
            hand_vector(np.arange(300) * 3),  # short tail
        ]
        widths = [v.ffor.bit_width for v in vectors]
        assert widths[:2] == [0, 64] and widths[2] == widths[4] == 10
        assert_parity(alp_rowgroup(vectors))

    def test_exceptions_in_tail_vector(self):
        values = np.round(np.linspace(-5, 5, 2 * 1024 + 9), 3)
        values[-3:] = [math.nan, -0.0, math.inf]
        rg, _, _ = compress_rowgroup(values, force_scheme="alp")
        assert rg.alp.vectors[-1].exception_count >= 2
        assert_parity(rg)

    @pytest.mark.parametrize("name", ["City-Temp", "POI-lat"])
    def test_vector_size_1000(self, name):
        # 1000-value vectors of most widths do not end on word
        # boundaries, so no two payloads share a 64-bit word.
        values = get_dataset(name, n=10 * 1000 + 250)
        column = compress(values, vector_size=1000)
        for rg in column.rowgroups:
            assert_parity(rg)
        np.testing.assert_array_equal(bits(decompress(column)), bits(values))

    def test_single_short_vector(self):
        values = np.round(np.linspace(0, 1, 77), 2)
        rg, _, _ = compress_rowgroup(values)
        assert_parity(rg)


class TestAlpRdParity:
    def test_poi_with_tail(self):
        values = get_dataset("POI-lat", n=40 * 1024 + 100)
        rg, _, _ = compress_rowgroup(values)
        assert rg.rd is not None
        assert sum(v.exc_positions.size for v in rg.rd.vectors) > 0
        assert_parity(rg)
        np.testing.assert_array_equal(bits(rowgroup_decode(rg)), bits(values))

    @pytest.mark.parametrize("seed", range(3))
    def test_forced_rd_on_specials(self, seed):
        values = specials(8 * 1024 + 3, seed)
        rg, _, _ = compress_rowgroup(values, force_scheme="alprd")
        assert_parity(rg)
        np.testing.assert_array_equal(bits(rowgroup_decode(rg)), bits(values))

    def test_one_entry_dictionary_width_zero_codes(self):
        values = 1.0 + np.random.default_rng(4).random(3 * 1024 + 5) * 1e-3
        rg, _, _ = compress_rowgroup(values, force_scheme="alprd")
        assert_parity(rg)
        np.testing.assert_array_equal(bits(rowgroup_decode(rg)), bits(values))

    def test_alprd_decode_allocates_when_out_is_none(self):
        values = get_dataset("POI-lat", n=2048 + 10)
        rg, _, _ = compress_rowgroup(values)
        np.testing.assert_array_equal(bits(alprd_decode(rg.rd)), bits(values))


# -- damaged but parseable row-groups ---------------------------------


def shifted_alp_payloads(rg: CompressedRowGroup) -> CompressedRowGroup:
    """Vector 0's payload loses its last byte to vector 1's front: both
    lengths are wrong, their total is right."""
    vectors = list(rg.alp.vectors)
    a, b = vectors[0].ffor, vectors[1].ffor
    assert a.bit_width == b.bit_width
    payload_a, payload_b = bytes(a.payload), bytes(b.payload)
    vectors[0] = dataclasses.replace(
        vectors[0], ffor=dataclasses.replace(a, payload=payload_a[:-1])
    )
    vectors[1] = dataclasses.replace(
        vectors[1],
        ffor=dataclasses.replace(b, payload=payload_a[-1:] + payload_b),
    )
    return dataclasses.replace(
        rg, alp=dataclasses.replace(rg.alp, vectors=tuple(vectors))
    )


def shifted_rd_payloads(rg: CompressedRowGroup, side: str):
    """The ALP_rd twin of :func:`shifted_alp_payloads`, on one stream."""
    vectors = list(rg.rd.vectors)
    field = f"{side}_payload"
    first, second = getattr(vectors[0], field), getattr(vectors[1], field)
    vectors[0] = dataclasses.replace(vectors[0], **{field: first[:-1]})
    vectors[1] = dataclasses.replace(
        vectors[1], **{field: first[-1:] + second}
    )
    return dataclasses.replace(
        rg, rd=dataclasses.replace(rg.rd, vectors=tuple(vectors))
    )


def stray_exception(rg: CompressedRowGroup, vector: int) -> CompressedRowGroup:
    """One exception position at its vector's count (one past the end)."""
    if rg.alp is not None:
        vectors = list(rg.alp.vectors)
        v = vectors[vector]
        vectors[vector] = dataclasses.replace(
            v,
            exc_positions=np.array([v.count], dtype=np.uint16),
            exc_values=np.array([1.5]),
        )
        return dataclasses.replace(
            rg, alp=dataclasses.replace(rg.alp, vectors=tuple(vectors))
        )
    vectors = list(rg.rd.vectors)
    v = vectors[vector]
    vectors[vector] = dataclasses.replace(
        v,
        exc_positions=np.array([v.count], dtype=np.uint16),
        exc_values=np.array([1], dtype=np.uint16),
    )
    return dataclasses.replace(
        rg, rd=dataclasses.replace(rg.rd, vectors=tuple(vectors))
    )


def alp_source() -> CompressedRowGroup:
    values = np.round(np.linspace(0, 50, 3 * 1024 + 200), 2)
    rg, _, _ = compress_rowgroup(values, force_scheme="alp")
    return rg


def rd_source() -> CompressedRowGroup:
    rg, _, _ = compress_rowgroup(get_dataset("POI-lat", n=3 * 1024 + 200))
    assert rg.rd is not None
    return rg


DAMAGES = {
    "alp-payload-lengths": lambda: shifted_alp_payloads(alp_source()),
    "alp-exception-position": lambda: stray_exception(alp_source(), 1),
    "alp-exception-position-tail": lambda: stray_exception(alp_source(), 3),
    "rd-right-payload-lengths": (
        lambda: shifted_rd_payloads(rd_source(), "right")
    ),
    "rd-left-payload-lengths": (
        lambda: shifted_rd_payloads(rd_source(), "left")
    ),
    "rd-exception-position": lambda: stray_exception(rd_source(), 1),
    "rd-exception-position-tail": lambda: stray_exception(rd_source(), 3),
}


def column_of(rg: CompressedRowGroup):
    from repro.core.compressor import CompressedRowGroups, CompressionStats

    return CompressedRowGroups(
        rowgroups=(rg,), count=rg.count, vector_size=1024,
        stats=CompressionStats(),
    )


@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_damaged_rowgroup_raises_from_decompress(damage):
    rg = DAMAGES[damage]()
    with pytest.raises((ValueError, IndexError)):
        decompress(column_of(rg))


@pytest.mark.parametrize("damage", sorted(DAMAGES))
def test_damaged_rowgroup_file_raises_corrupt_rowgroup(damage, tmp_path):
    rg = DAMAGES[damage]()
    intact = alp_source() if damage.startswith("alp") else rd_source()
    values = per_vector(intact)
    column = Column("x")
    path = tmp_path / "damaged.alpc"
    meta = ChunkMeta(
        0, 0, 0,
        _chunk_zone(column, values, None),
        _zone_table(column, _vector_zones_typed(column, values, None, 1024)),
    )
    with TableFileWriter(path, Schema((column,))) as writer:
        # Checksums are computed over the damaged bytes: only decoding
        # can find the damage.
        frame = chunk_frame(CODEC_FLOAT_ROWGROUP, serialize_rowgroup(rg))
        writer.append_chunks(rg.count, [(frame, meta)])
    for mmap in (False, True):
        with api.open(path, mmap=mmap) as reader:
            if damage.startswith("alp"):
                # ALP payload lengths and exception positions are
                # checked as the vectors deserialize.
                with pytest.raises(CorruptRowGroupError):
                    reader.read_rowgroup_compressed(0)
            else:
                reader.read_rowgroup_compressed(0)  # the framing parses
            with pytest.raises(CorruptRowGroupError):
                reader.read_rowgroup(0)
            with pytest.raises(CorruptRowGroupError):
                reader.read_all()


def test_irregular_vector_counts_raise():
    vectors = [hand_vector(np.arange(1000)), hand_vector(np.arange(1024))]
    with pytest.raises(ValueError, match="vector counts"):
        decode_rowgroup_into(alp_rowgroup(vectors), np.empty(2024))


def test_vector_and_ffor_counts_must_agree():
    vector = hand_vector(np.arange(1024))
    vector = dataclasses.replace(vector, count=1000)
    with pytest.raises(ValueError):
        decode_rowgroup_into(alp_rowgroup([vector]), np.empty(1000))


def test_rd_rowgroup_vector_counts_must_sum():
    rg = rd_source()
    short = AlpRdRowGroup(
        parameters=rg.rd.parameters, vectors=rg.rd.vectors[:-1],
        count=rg.rd.count,
    )
    with pytest.raises(ValueError):
        alprd_decode(short, out=np.empty(rg.count))


def test_decode_into_caller_buffer_allocates_nothing_large():
    """Decoding a full NYC/29 row-group into the caller's buffer holds
    no fresh ``LARGE_ALLOC_BYTES`` at once: the broadcast reference add
    runs at the kernels' small ufunc buffer, not numpy's 64 KiB one."""
    from repro.bench.harness import traced_large_allocs

    (rg,) = compress(get_dataset("NYC/29", n=102_400)).rowgroups
    assert rg.alp is not None and len(rg.alp.vectors) == 100
    out = np.empty(rg.count)
    assert traced_large_allocs(lambda: decode_rowgroup_into(rg, out)) == 0


def test_alp_encode_vector_round_trip_unchanged():
    values = specials(1024, 9)
    vector = alp_encode_vector(values, 2, 0)
    decoded = alp_decode_vector(vector)
    np.testing.assert_array_equal(bits(decoded), bits(values))
