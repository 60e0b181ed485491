"""The one CSV writer behind every table sedlab writes to disk.

Float cells, numpy scalars included, are written as repr(float(value)),
the shortest text that reads back to the same double; every other cell
goes through str, as csv.writer does.
"""

import csv

import numpy as np

# cells csv.writer writes as `_cell` would; rows of them, as from ndarray.tolist(), go as they are
_NATIVE = frozenset((float, int, str))


def _cell(value):
    return repr(float(value)) if isinstance(value, (float, np.floating)) else value


def write_rows(stream, header, rows):
    """Write a header row and then `rows`, an iterable of sequences of cells, to a text stream."""
    writer = csv.writer(stream)
    writer.writerow(header)
    writer.writerows(row if _NATIVE.issuperset(map(type, row)) else [_cell(v) for v in row] for row in rows)


def write_csv(path, header, rows):
    """`write_rows` to a new file at `path`."""
    with open(path, "w", newline="") as fh:
        write_rows(fh, header, rows)
