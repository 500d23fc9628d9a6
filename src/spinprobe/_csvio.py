"""Column-wise CSV writer shared by every exporter.

Integer columns are written through ``str`` and every other column as the
``repr`` of Python floats, so ``float(text)`` gives back each value bit for
bit (``nan``, ``inf`` and ``-0.0`` included).  Each column is formatted in
one pass and the file is written in one call.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def write_columns(path, header: str, columns) -> None:
    """Write ``header`` then one comma-separated row per index of ``columns``.

    ``columns`` is a sequence of equal-length 1-D array-likes, one per
    header field.
    """
    arrays = [np.asarray(col) for col in columns]
    if len({a.shape for a in arrays}) > 1 or any(a.ndim != 1 for a in arrays):
        raise ValueError("CSV columns must be 1-D and of equal length")
    cells = [map(str, a.tolist()) if a.dtype.kind in "iu"
             else map(repr, np.asarray(a, dtype=float).tolist()) for a in arrays]
    body = "\n".join(map(",".join, zip(*cells)))
    with Path(path).open("w") as fh:
        fh.write(header + "\n" + (body + "\n" if body else ""))
