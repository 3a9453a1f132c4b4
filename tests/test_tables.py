import math

import numpy as np

from reliagp.tables import read_table, write_table


def test_floats_survive_a_round_trip_bit_for_bit(tmp_path):
    values = [5e-324, -0.0, 0.1 + 0.2, 1e308, math.inf, math.nan]
    path = tmp_path / "t.csv"
    write_table(path, ["python", "numpy"], [[v, np.float64(v)] for v in values])
    header, table = read_table(path)
    assert header == ["python", "numpy"]
    expected = np.array(values).view(np.uint64)
    for col in table.T:
        np.testing.assert_array_equal(col.view(np.uint64), expected)


def test_int_and_str_cells_are_written_verbatim(tmp_path):
    path = tmp_path / "sub" / "t.csv"
    write_table(path, ["name", "count", "value"], [["X0001", 3, 0.5], ["[1.0, 2]", -7, np.float32(0.25)]])
    assert path.read_text().splitlines() == ["name,count,value", "X0001,3,0.5", '"[1.0, 2]",-7,0.25']


def test_header_only_table_keeps_its_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b", "c"], [])
    header, table = read_table(path)
    assert header == ["a", "b", "c"]
    assert table.shape == (0, 3)
