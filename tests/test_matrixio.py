"""Matrix text format: round trips and parse diagnostics."""

import numpy as np
import pytest

from psdp import MatrixParseError, PsdpSolution, read_matrix, write_matrix
from psdp.matrixio import format_float, read_header, solution_header


def test_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((5, 3)) * np.exp(rng.uniform(-20, 20, (5, 3)))
    path = tmp_path / "m.txt"
    write_matrix(path, M)
    back = read_matrix(path)
    assert np.array_equal(back, M)  # bit-exact round trip


def test_format_has_17_significant_digits():
    assert format_float(1 / 3) == "0.33333333333333331"


def test_file_layout(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix(path, [[1.0, 2.0], [3.0, 4.0]])
    text = path.read_text()
    assert text.splitlines()[0] == "2 2"
    assert "\r" not in text
    assert text.endswith("\n")


def test_header_round_trip(tmp_path):
    path = tmp_path / "s.txt"
    sol = PsdpSolution(A=np.eye(2), objective=1.5, infimum=1.25, attained=False, epsilon=0.5)
    write_matrix(path, sol.A, header=solution_header(sol))
    meta = read_header(path)
    assert float(meta["objective"]) == 1.5
    assert float(meta["infimum"]) == 1.25
    assert meta["attained"] == "false"
    assert float(meta["epsilon"]) == 0.5
    assert np.array_equal(read_matrix(path), np.eye(2))


def test_parse_error_names_line_for_bad_dims(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 two\n1 2\n3 4\n")
    with pytest.raises(MatrixParseError, match="line 1"):
        read_matrix(path)


def test_parse_error_names_line_for_short_row(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n1 2 3\n4 5\n")
    with pytest.raises(MatrixParseError, match="line 3"):
        read_matrix(path)


def test_parse_error_names_line_for_bad_float(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n1.0 oops\n")
    with pytest.raises(MatrixParseError, match="line 2"):
        read_matrix(path)


def test_parse_error_on_missing_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1 2\n3 4\n")
    with pytest.raises(MatrixParseError, match="expected 3 data rows"):
        read_matrix(path)


def test_parse_error_on_nonpositive_dims(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 2\n")
    with pytest.raises(MatrixParseError):
        read_matrix(path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(MatrixParseError, match="no dimension line"):
        read_matrix(path)
