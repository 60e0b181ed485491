import csv

import numpy as np

from sedlab.csvfile import write_csv


def test_cells_read_back_exactly(tmp_path):
    # numpy scalars go out as repr(float), not as "np.float64(0.1)"
    path = tmp_path / "table.csv"
    rows = [
        (np.float64(0.1), -2.5, np.float64(1e-300)),
        (np.int64(7), 3, "label"),
    ]
    write_csv(path, ["a", "b", "c"], rows)
    lines = path.read_text().splitlines()
    assert lines == ["a,b,c", "0.1,-2.5,1e-300", "7,3,label"]
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    assert [float(v) for v in table[1]] == [0.1, -2.5, 1e-300]
    assert table[2] == ["7", "3", "label"]


def test_float_table_bytes(tmp_path):
    # rows from ndarray.tolist() go to csv.writer as they are; rows of numpy
    # scalars go cell by cell: both give repr(float) text, byte for byte
    table = np.array([[-0.0, 1e-300, 0.1], [1.0 / 3.0, -2.5e17, 5e-324]])
    listed, scalars = tmp_path / "listed.csv", tmp_path / "scalars.csv"
    write_csv(listed, ["id", "a", "b", "c"], ([i, *r] for i, r in enumerate(table.tolist())))
    write_csv(scalars, ["id", "a", "b", "c"], ([np.int64(i), *r] for i, r in enumerate(table)))
    expected = b"id,a,b,c\r\n0,-0.0,1e-300,0.1\r\n1,0.3333333333333333,-2.5e+17,5e-324\r\n"
    assert listed.read_bytes() == scalars.read_bytes() == expected
