"""Cross-module integration tests.

These tests wire several subsystems together the way a downstream user
would: datasets -> compressor -> serializer -> file -> engine, and check
the invariants that only hold when everything composes correctly:

- the logical size model (``size_bits``) tracks the physical serialized
  size,
- every codec agrees on every dataset (losslessness as a cross-cutting
  property),
- corrupted files fail loudly instead of returning wrong data.
"""

import struct

import numpy as np
import pytest

from repro.baselines.registry import CODECS, get_codec
from repro.core.compressor import compress, compress_rowgroup
from repro.data import DATASET_ORDER, get_dataset
from repro.query.engine import sum_query
from repro.query.sources import FileColumnSource, make_source
from repro import api
from repro.storage.serializer import serialize_rowgroup


class TestSizeModelConsistency:
    @pytest.mark.parametrize(
        "name", ["City-Temp", "Stocks-USA", "POI-lat", "Gov/26", "CMS/25"]
    )
    def test_size_bits_tracks_serialized_bytes(self, name):
        values = get_dataset(name, n=20_000)
        rowgroup, _, _ = compress_rowgroup(values)
        payload = serialize_rowgroup(rowgroup)
        logical_bytes = rowgroup.size_bits() / 8
        physical_bytes = len(payload)
        # The size model counts packed payloads exactly and headers
        # approximately; the two must stay within a few percent + a
        # small constant (per-vector framing).
        slack = 0.08 * physical_bytes + 64 * len(
            rowgroup.alp.vectors if rowgroup.alp else rowgroup.rd.vectors
        )
        assert abs(physical_bytes - logical_bytes) <= slack, (
            name,
            physical_bytes,
            logical_bytes,
        )

    def test_file_size_tracks_column_size(self, tmp_path):
        values = get_dataset("Stocks-USA", n=250_000)
        column = compress(values)
        path = tmp_path / "col.alpc"
        api.write(path, values)
        file_bits = path.stat().st_size * 8
        assert file_bits == pytest.approx(column.size_bits(), rel=0.10)


class TestEveryCodecOnEveryDatasetFamily:
    # One dataset per structural family; the Table 4 bench covers all 30.
    FAMILIES = ("City-Temp", "CMS/9", "Gov/26", "NYC/29", "POI-lat")

    @pytest.mark.parametrize("dataset", FAMILIES)
    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_lossless(self, dataset, codec_name):
        values = get_dataset(dataset, n=6_000)
        bits = get_codec(codec_name).roundtrip_bits_per_value(values)
        assert 0 < bits < 100


class TestFileToEnginePath:
    def test_dataset_to_file_to_sum(self, tmp_path):
        values = get_dataset("Dew-Temp", n=150_000)
        path = tmp_path / "dew.alpc"
        api.write(path, values)
        source = FileColumnSource.open(path)
        assert sum_query(source) == pytest.approx(
            float(values.sum()), rel=1e-9
        )

    def test_in_memory_and_file_sources_agree(self, tmp_path):
        values = get_dataset("Btc-Price", n=120_000)
        path = tmp_path / "btc.alpc"
        api.write(path, values)
        memory = sum_query(make_source("alp", values))
        file_based = sum_query(FileColumnSource.open(path))
        assert memory == pytest.approx(file_based, rel=1e-12)


class TestCorruptionHandling:
    def _write(self, tmp_path):
        values = np.round(np.linspace(0, 10, 5000), 2)
        path = tmp_path / "col.alpc"
        api.write(path, values)
        return path

    def test_truncated_file_rejected(self, tmp_path):
        path = self._write(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises((ValueError, struct.error, IndexError)):
            api.open(path)

    def test_flipped_magic_rejected(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            api.open(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            api.open(path)

    def test_footer_length_mismatch_detected(self, tmp_path):
        path = self._write(tmp_path)
        reader = api.open(path)
        meta = reader.metadata[0]
        # Corrupt the in-memory footer length and verify the framing check.
        from dataclasses import replace

        reader._parent._chunks[0][0] = replace(meta, length=meta.length - 3)
        with pytest.raises(ValueError):
            reader.read_rowgroup(0)


class TestAdaptivityAcrossCorpus:
    def test_rd_only_on_poi(self):
        for name in DATASET_ORDER:
            values = get_dataset(name, n=10_240)
            column = compress(values)
            expects_rd = name in ("POI-lat", "POI-lon")
            assert column.uses_rd == expects_rd, name

    def test_all_datasets_compress_below_raw(self):
        for name in DATASET_ORDER:
            values = get_dataset(name, n=10_240)
            column = compress(values)
            assert column.bits_per_value() < 64, name
