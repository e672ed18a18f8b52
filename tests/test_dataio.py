import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sofreg import dataio
from sofreg.dataio import read_curves_csv, read_responses_csv
from sofreg.exceptions import CsvFormatError
from sofreg.simulation import CellResult, DgpConfig, McReport

GRID_ROW = "0.0,0.5,1.0"


def write(tmp_path, text, name="curves.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def table(sample):
    return np.vstack([sample.grid.points, sample.values])


class TestAtomicWrite:
    """A failed write leaves the target as it was and no temp file behind."""

    def test_text_that_cannot_be_encoded(self, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            dataio.atomic_write_text(str(target), "\ud800")  # a lone surrogate
        assert target.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    def test_a_target_that_is_a_directory(self, tmp_path):
        (tmp_path / "report.json").mkdir()
        with pytest.raises(IsADirectoryError):
            dataio.atomic_write_text(str(tmp_path / "report.json"), "{}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        assert list((tmp_path / "report.json").iterdir()) == []


class TestErrorLines:
    def test_curves_error_names_the_file_line_after_a_blank_line(self, tmp_path):
        path = write(tmp_path, f"{GRID_ROW}\n\n1,2,3\n4,5,oops\n")
        with pytest.raises(CsvFormatError, match="oops") as err:
            read_curves_csv(Path(path).read_bytes())
        assert err.value.line == 4

    def test_responses_error_names_the_file_line_after_a_blank_line(self, tmp_path):
        path = write(tmp_path, "y,observed\n\n1.5,1\n2.5,yes\n", "responses.csv")
        with pytest.raises(CsvFormatError, match="observed flag") as err:
            read_responses_csv(Path(path).read_bytes())
        assert err.value.line == 4


def _token(value, form):
    return {"repr": repr, "g17": lambda v: "%.17g" % v, "e6": lambda v: "%.6e" % v}[form](value)


class TestCurvesReader:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=3, max_size=3), min_size=1, max_size=5),
           form=st.sampled_from(("repr", "g17", "e6")))
    def test_c_reader_returns_the_bits_of_float(self, tmp_path_factory, values, form):
        rows = [[_token(v, form) for v in row] for row in values]
        path = write(tmp_path_factory.mktemp("csv"),
                     "\n".join([GRID_ROW] + [",".join(r) for r in rows]) + "\n")
        expected = np.array([[float(t) for t in row] for row in rows])
        # the C reader alone: the line parser must not be reached
        with mock.patch.object(dataio, "_read_curves_by_line", side_effect=AssertionError):
            sample = read_curves_csv(Path(path).read_bytes())
        assert sample.values.tobytes() == expected.tobytes()
        assert sample.grid.points.tobytes() == np.array([0.0, 0.5, 1.0]).tobytes()

    @pytest.mark.parametrize("text, first_row", [
        (f"{GRID_ROW}\n1,2,3\n", [1.0, 2.0, 3.0]),
        (f"{GRID_ROW}\n1_0,2,3\n", [10.0, 2.0, 3.0]),
        (f"{GRID_ROW}\n١,٢,3\n", [1.0, 2.0, 3.0]),  # Arabic-Indic digits
        (f"{GRID_ROW}\n +1.5 ,2,3\n", [1.5, 2.0, 3.0]),
        (f"{GRID_ROW}\n   \n1,2,3\n", [1.0, 2.0, 3.0]),  # whitespace-only line
        (f"{GRID_ROW}\n\n1,2,3\n\n", [1.0, 2.0, 3.0]),
        (f"{GRID_ROW}\r\n1,2,3\r\n", [1.0, 2.0, 3.0]),
        (f"{GRID_ROW}\r1,2,3\r", [1.0, 2.0, 3.0]),
        (f"{GRID_ROW}\n1,2,3", [1.0, 2.0, 3.0]),
    ])
    def test_odd_inputs_that_parse(self, tmp_path, text, first_row):
        got = table(read_curves_csv(Path(write(tmp_path, text)).read_bytes()))
        assert got.tobytes() == np.array([[0.0, 0.5, 1.0], first_row]).tobytes()

    @pytest.mark.parametrize("token", ["infinity", "nan", "-inf", "1e500"])
    def test_non_finite_values_are_rejected(self, tmp_path, token):
        with pytest.raises(ValueError, match="finite"):
            read_curves_csv(
                Path(write(tmp_path, f"{GRID_ROW}\n{token},2,3\n")).read_bytes())

    @pytest.mark.parametrize("text, line, message", [
        ("﻿" + f"{GRID_ROW}\n1,2,3\n", 1, "malformed decimal value '\\ufeff0.0'"),
        (f"{GRID_ROW}\n1,2,3,\n", 2, "expected 3 values, found 4"),
        (f"{GRID_ROW},\n1,2,3\n", 1, "malformed decimal value ''"),
        (f"{GRID_ROW}\n1,2\n", 2, "expected 3 values, found 2"),
        (f"{GRID_ROW}\n1, ,3\n", 2, "malformed decimal value ' '"),
        (f"{GRID_ROW}\n\x1c1.5,2,3\n", 2, "malformed decimal value '\\x1c1.5'"),
        (f"{GRID_ROW}\n1,2,3\n0x1p3,2,3\n", 3, "malformed decimal value '0x1p3'"),
        (f"{GRID_ROW}\n", 1, "need a grid row plus at least one curve row"),
        ("", 1, "need a grid row plus at least one curve row"),
        ("\n \n", 1, "need a grid row plus at least one curve row"),
    ])
    def test_odd_inputs_that_fail_name_their_line(self, tmp_path, text, line, message):
        path = write(tmp_path, text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CsvFormatError) as err:
                read_curves_csv(Path(path).read_bytes())
        assert str(err.value) == f"line {line}: {message}"
        assert caught == []


class TestRejectionTables:
    def test_one_table_per_beta_and_eta_of_the_cells_in_their_order(self):
        def cell(beta_id, eta, n, delta, rate):
            return CellResult(DgpConfig(beta_id=beta_id, eta=eta, n=n, delta=delta),
                              failures={"S": 0}, rejection={"S": rate}, msee_mean={},
                              time_mean={}, p_values={}, msee={}, times={},
                              missing_fraction=0.25)

        cells = [cell(3, 0.5, 30, 0.0, 0.0), cell(3, 0.5, 30, 0.03, np.nan),
                 cell(3, None, 30, 0.0, 1.0), cell(1, 0.5, 50, 0.0, 0.5)]
        report = McReport(alpha=0.05, m=1, b=10, seed=1, estimators=("S",), cells=cells)
        tables = dataio.rejection_tables(report)
        assert [name for name, _ in tables] == [
            "rejections_beta3_eta0.5.csv", "rejections_beta3_etanone.csv",
            "rejections_beta1_eta0.5.csv"]
        assert tables[0][1] == ("n,delta,C,CL,S,SL,I,IL,W,WL\n"
                                "30,0.0,,,0.0,,,,,\n"
                                "30,0.03,,,,,,,,\n")
        assert tables[2][1].splitlines()[1] == "50,0.0,,,0.5,,,,,"


class TestMcFileNames:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=2, unique=True))
    def test_property_value_texts_read_back(self, values):
        # six significant digits would print 0.5 and 0.5000001 alike
        texts = [dataio._value_text(v) for v in values]
        assert texts[0] != texts[1]
        assert [float(t) for t in texts] == values

    def test_names_of_the_documented_values_keep_their_form(self):
        assert [dataio._value_text(v) for v in (None, 0.0, 0.03, 0.5, 1.0, 2.0, 0.1234567)] == [
            "none", "0", "0.03", "0.5", "1", "2", "0.1234567"]
        assert dataio.cell_stem(DgpConfig(beta_id=3, eta=1.0, n=100, delta=0.0)) == \
            "beta3_eta1_n100_delta0"
