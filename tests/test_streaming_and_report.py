"""Tests for the analysis report."""

import numpy as np
import pytest

from repro.analysis.report import compressibility_report, diagnose_column
from repro.core.compressor import compress
from repro.data import get_dataset


class TestDiagnosis:
    def test_decimal_column_predicts_alp(self):
        values = get_dataset("City-Temp", n=8192)
        diagnosis = diagnose_column(values)
        assert diagnosis.predicted_scheme == "alp"
        assert diagnosis.decimal_origin
        assert diagnosis.estimated_bits_per_value < 48

    def test_real_doubles_predict_rd(self):
        values = get_dataset("POI-lat", n=8192)
        diagnosis = diagnose_column(values)
        assert diagnosis.predicted_scheme == "alprd"
        assert not diagnosis.decimal_origin

    def test_prediction_matches_compressor(self):
        for name in ("Stocks-USA", "POI-lon", "CMS/9"):
            values = get_dataset(name, n=8192)
            diagnosis = diagnose_column(values)
            column = compress(values)
            assert (
                column.rowgroups[0].scheme == diagnosis.predicted_scheme
            ), name

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            diagnose_column(np.empty(0))


class TestReport:
    def test_report_mentions_scheme(self):
        report = compressibility_report(
            get_dataset("City-Temp", n=8192), name="City-Temp"
        )
        assert "ALP (decimal encoding)" in report
        assert "candidate (e, f)" in report

    def test_report_rd_path(self):
        report = compressibility_report(get_dataset("POI-lat", n=8192))
        assert "real doubles" in report

    def test_report_duplication_hint(self):
        report = compressibility_report(get_dataset("PM10-dust", n=8192))
        assert "cascade" in report
