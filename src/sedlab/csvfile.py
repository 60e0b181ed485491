"""The one CSV writer behind every table sedlab writes to disk.

Float cells, numpy scalars included, are written as repr(float(value)),
the shortest text that reads back to the same double; every other cell
goes through str, as csv.writer does.
"""

import csv

import numpy as np


def _cell(value):
    return repr(float(value)) if isinstance(value, (float, np.floating)) else value


def write_csv(path, header, rows):
    """Write a header row and then `rows`, an iterable of sequences of cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
