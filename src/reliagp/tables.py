"""The one on-disk format of every numeric table: CSV with a header row.

A float cell, NumPy floats included, is written as ``repr(float(v))``, which
reads back as the same double bit for bit (signed zero, subnormals, inf and
nan included).  Int and str cells are written as they are.
"""

import csv
from pathlib import Path

import numpy as np

__all__ = ["write_table", "read_table"]


def write_table(path, header, rows) -> None:
    """Write ``header`` then ``rows`` to ``path``, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row] for row in rows
        )


def read_table(path) -> tuple[list[str], np.ndarray]:
    """(header, float array of shape (rows, len(header))) of the table at ``path``."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array([[float(v) for v in row] for row in rows]).reshape(len(rows), len(header))
