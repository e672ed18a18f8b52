import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sofreg import dataio
from sofreg.dataio import read_curves_csv, read_responses_csv
from sofreg.exceptions import CsvFormatError

GRID_ROW = "0.0,0.5,1.0"


def write(tmp_path, text, name="curves.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def table(sample):
    return np.vstack([sample.grid.points, sample.values])


class TestErrorLines:
    def test_curves_error_names_the_file_line_after_a_blank_line(self, tmp_path):
        path = write(tmp_path, f"{GRID_ROW}\n\n1,2,3\n4,5,oops\n")
        with pytest.raises(CsvFormatError, match="oops") as err:
            read_curves_csv(path)
        assert err.value.line == 4

    def test_responses_error_names_the_file_line_after_a_blank_line(self, tmp_path):
        path = write(tmp_path, "y,observed\n\n1.5,1\n2.5,yes\n", "responses.csv")
        with pytest.raises(CsvFormatError, match="observed flag") as err:
            read_responses_csv(path)
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
            sample = read_curves_csv(path)
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
        got = table(read_curves_csv(write(tmp_path, text)))
        assert got.tobytes() == np.array([[0.0, 0.5, 1.0], first_row]).tobytes()

    @pytest.mark.parametrize("token", ["infinity", "nan", "-inf", "1e500"])
    def test_non_finite_values_are_rejected(self, tmp_path, token):
        with pytest.raises(ValueError, match="finite"):
            read_curves_csv(write(tmp_path, f"{GRID_ROW}\n{token},2,3\n"))

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
                read_curves_csv(path)
        assert str(err.value) == f"line {line}: {message}"
        assert caught == []
