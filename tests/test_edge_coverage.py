"""Edge-path coverage across modules (cases the main suites skim)."""

import math

import numpy as np

from repro.alputil.bitstream import BitReader, BitWriter
from repro.alputil.decimals import decimal_places
from repro.baselines.chimp import chimp_compress, chimp_decompress
from repro.baselines.gorilla import gorilla_compress, gorilla_decompress
from repro.core.compressor import compress, decompress
from repro.core.sampler import ExponentFactor, second_level_sample
from repro.data import get_dataset
from repro.encodings.dictionary import dictionary_decode, dictionary_encode
from repro.query.sources import (
    FileColumnSource,
    UncompressedSource,
    make_source,
)


class TestXorFastPaths:
    def test_gorilla_reuses_previous_window(self):
        # Values crafted so consecutive XORs share the leading/trailing
        # window: the second non-zero XOR takes the '10' control path.
        base = np.float64(1.0).view(np.uint64)
        values = np.array(
            [
                1.0,
                (base ^ np.uint64(0b1100 << 20)).view(np.float64),
                (base ^ np.uint64(0b1010 << 20)).view(np.float64),
            ]
        )
        encoded = gorilla_compress(values)
        decoded = gorilla_decompress(encoded)
        assert np.array_equal(
            decoded.view(np.uint64), values.view(np.uint64)
        )

    def test_chimp_same_leading_class_path(self):
        base = np.float64(100.0).view(np.uint64)
        xors = [np.uint64(0b1011 << 4), np.uint64(0b1101 << 4)]
        stream = [100.0]
        current = base
        for xor in xors:
            current = current ^ xor
            stream.append(current.view(np.float64))
        values = np.array(stream)
        decoded = chimp_decompress(chimp_compress(values))
        assert np.array_equal(
            decoded.view(np.uint64), values.view(np.uint64)
        )


class TestSamplerTies:
    def test_equal_candidates_keep_first(self):
        values = np.round(np.linspace(0, 10, 256), 1)
        a = ExponentFactor(14, 13)
        b = ExponentFactor(15, 14)  # same d values, same size estimate
        result = second_level_sample(values, (a, b))
        assert result.combination == a  # strict improvement required


class TestTinyInputs:
    def test_compress_two_values(self):
        values = np.array([1.5, 2.5])
        assert np.array_equal(decompress(compress(values)), values)

    def test_compress_single_nan(self):
        values = np.array([math.nan])
        out = decompress(compress(values))
        assert np.array_equal(out.view(np.uint64), values.view(np.uint64))

    def test_dictionary_single(self):
        values = np.array([3], dtype=np.int64)
        assert np.array_equal(
            dictionary_decode(dictionary_encode(values)), values
        )


class TestBitstreamEdges:
    def test_finish_idempotent_via_new_writer(self):
        w = BitWriter()
        w.write(0b1, 1)
        first = w.finish()
        assert first == w.finish()  # flushing twice is stable

    def test_reader_remaining_counts_padding(self):
        w = BitWriter()
        w.write(0b101, 3)
        r = BitReader(w.finish())
        assert r.bits_remaining == 8
        r.read(3)
        assert r.bits_remaining == 5


class TestDecimalsEdges:
    def test_negative_values(self):
        assert decimal_places(-8.0605) == 4
        assert decimal_places(-3.0) == 0

    def test_large_negative_exponent(self):
        assert decimal_places(-1e-7) == 7


class TestSourcePartitionEdges:
    def test_file_source_partition_is_self(self, tmp_path):
        from repro import api

        values = np.round(np.linspace(0, 1, 5000), 2)
        path = tmp_path / "x.alpc"
        api.write(path, values)
        source = FileColumnSource.open(path)
        assert source.partition(4) == [source]

    def test_alp_source_single_partition(self):
        source = make_source("alp", np.round(np.linspace(0, 1, 2000), 2))
        parts = source.partition(1)
        assert len(parts) == 1
        assert parts[0].value_count == 2000

    def test_uncompressed_partition_alignment(self):
        values = np.arange(5000, dtype=np.float64)
        parts = UncompressedSource(values).partition(3)
        sizes = [p.value_count for p in parts]
        assert sum(sizes) == 5000
        # All but the last partition must be vector-aligned.
        assert all(s % 1024 == 0 for s in sizes[:-1])


class TestColumnMetadataEdges:
    def test_candidate_list_survives_in_stats(self):
        values = get_dataset("Basel-Temp", n=20_480)
        column = compress(values)
        for rowgroup in column.rowgroups:
            assert 1 <= len(rowgroup.first_level.candidates) <= 5

    def test_bits_per_value_additive_over_rowgroups(self):
        values = get_dataset("City-Temp", n=204_800)
        column = compress(values)
        total = sum(rg.size_bits() for rg in column.rowgroups)
        assert total == column.size_bits()
