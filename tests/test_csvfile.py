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
