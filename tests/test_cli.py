"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from tests.golden import generate as golden


@pytest.fixture
def doubles_file(tmp_path):
    rng = np.random.default_rng(0)
    values = np.round(rng.uniform(0, 100, 5000), 2)
    path = tmp_path / "input.f64"
    path.write_bytes(values.astype("<f8").tobytes())
    return path, values


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compress_args(self):
        args = build_parser().parse_args(["compress", "a.f64", "b.alpc"])
        assert args.input == "a.f64"
        assert args.output == "b.alpc"


class TestCompressDecompress:
    def test_roundtrip_raw(self, doubles_file, tmp_path, capsys):
        src, values = doubles_file
        alpc = tmp_path / "col.alpc"
        out = tmp_path / "out.f64"
        assert main(["compress", str(src), str(alpc)]) == 0
        assert "bits/value" in capsys.readouterr().out
        assert main(["decompress", str(alpc), str(out)]) == 0
        restored = np.frombuffer(out.read_bytes(), dtype="<f8")
        assert np.array_equal(restored, values)

    def test_roundtrip_npy(self, tmp_path):
        values = np.round(np.linspace(0, 10, 3000), 3)
        src = tmp_path / "input.npy"
        np.save(src, values)
        alpc = tmp_path / "col.alpc"
        out = tmp_path / "out.npy"
        assert main(["compress", str(src), str(alpc)]) == 0
        assert main(["decompress", str(alpc), str(out)]) == 0
        assert np.array_equal(np.load(out), values)

    def test_misaligned_raw_rejected(self, tmp_path):
        bad = tmp_path / "bad.f64"
        bad.write_bytes(b"123")
        with pytest.raises(SystemExit):
            main(["compress", str(bad), str(tmp_path / "x.alpc")])


class TestInspect:
    def test_inspect_lists_rowgroups(self, doubles_file, tmp_path, capsys):
        src, _ = doubles_file
        alpc = tmp_path / "col.alpc"
        main(["compress", str(src), str(alpc)])
        capsys.readouterr()
        assert main(["inspect", str(alpc)]) == 0
        out = capsys.readouterr().out
        assert "row-groups" in out
        assert "alp" in out

    def test_inspect_v3_golden_prints_table_view(self, capsys):
        # Every format version goes through the one table view.
        path = golden.GOLDEN_DIR / "golden_v3.alpc"
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "format v3 table, 4,096 rows x 1 columns in 8 row-groups" in out
        assert "golden_v3: float64" in out
        assert out.count(" golden_v3 ") == 8  # one chunk line per row-group


class TestRatio:
    def test_ratio_single_dataset(self, capsys):
        assert main(["ratio", "--n", "4096", "City-Temp"]) == 0
        out = capsys.readouterr().out
        assert "City-Temp" in out

    def test_ratio_multiple_codecs(self, capsys):
        assert (
            main(
                [
                    "ratio",
                    "--n",
                    "4096",
                    "--codec",
                    "alp",
                    "--codec",
                    "patas",
                    "SD-bench",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "patas" in out

    def test_unknown_codec_rejected(self):
        with pytest.raises(SystemExit):
            main(["ratio", "--codec", "nope", "City-Temp"])


class TestAnalyze:
    def test_analyze_dataset_name(self, capsys):
        assert main(["analyze", "City-Temp", "--n", "4096"]) == 0
        out = capsys.readouterr().out
        assert "Compressibility report" in out
        assert "ALP (decimal encoding)" in out

    def test_analyze_file(self, doubles_file, capsys):
        src, _ = doubles_file
        assert main(["analyze", str(src), "--n", "4096"]) == 0
        assert "prediction" in capsys.readouterr().out


class TestChoose:
    def test_choose_dataset(self, capsys):
        assert main(["choose", "Gov/26", "--n", "30000"]) == 0
        out = capsys.readouterr().out
        assert "chosen codec : lwc+alp" in out

    def test_choose_gps(self, capsys):
        assert main(["choose", "POI-lat-gps", "--n", "20000"]) == 0
        assert "alp-pi" in capsys.readouterr().out


class TestDatasets:
    def test_lists_all_thirty(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "POI-lat" in out and "Gov/26" in out
        assert len(out.strip().splitlines()) == 31  # header + 30
