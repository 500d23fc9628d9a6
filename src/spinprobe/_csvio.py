"""The one output codec: every CSV and JSON file of a run.

A stage hands :func:`write_files` all of its files at once.  A CSV is a
:class:`Csv`: a header and equal-length 1-D columns.  A JSON file is any
object ``json.dump`` takes whose object keys are all ``str``, in which a
1-D integer or float ``ndarray`` stands for the list of its values (any
other array for its ``tolist()``).

* **Each column is formatted once.**  A column that several files of one
  call share (the same memory, shape, strides and dtype) is turned into
  text once.  Integer columns go through ``str`` and every other column
  through ``repr`` of Python floats, so ``float(text)`` gives back each
  value bit for bit (``nan``, ``inf`` and ``-0.0`` included).
* **JSON from the same strings.**  The JSON text is built from those
  strings (``NaN``, ``Infinity`` and ``-Infinity`` for non-finite floats)
  and equals ``json.dump(obj, fh, indent=2, sort_keys=True)`` followed by
  ``"\\n"``, byte for byte.
* **Row blocks.**  Rows are formatted in blocks of :data:`BLOCK_ROWS`.  A
  call with more rows than one block maps its blocks through
  :func:`spinprobe._parallel.submit`, across the run's workers; the main
  process joins the pieces in order and writes each file in one call.
  The bytes depend on neither the block size nor the worker count.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _parallel

__all__ = ["BLOCK_ROWS", "Csv", "write_files"]

BLOCK_ROWS = 1 << 14

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class Csv:
    """One CSV file: ``header`` then one comma-separated row per index of
    ``columns``, a sequence of equal-length 1-D array-likes."""

    header: str
    columns: tuple


def _format(column: np.ndarray):
    """Text of every value of one column slice, as an iterator."""
    if column.dtype.kind in "iu":
        return map(str, column.tolist())
    return map(repr, np.asarray(column, dtype=float).tolist())


def _as_json(column: np.ndarray, cells):
    if column.dtype.kind in "iu" or np.isfinite(column).all():
        return cells
    return (_JSON_NONFINITE.get(s, s) for s in cells)


def _format_block(job) -> list[str | None]:
    """Text of one row range of every table; None where a table has no
    rows in the range."""
    columns, tables = job
    uses = Counter(i for idx, *_ in tables for i in idx)
    # a column that several tables share is formatted once and kept; the
    # rest stream into their table's text
    shared = {i: list(_format(columns[i])) for i, n in uses.items() if n > 1}
    pieces = []
    for idx, cell_sep, row_sep, as_json in tables:
        if not columns[idx[0]].size:
            pieces.append(None)
            continue
        cols = [shared[i] if i in shared else _format(columns[i]) for i in idx]
        if as_json:
            cols = [_as_json(columns[i], c) for i, c in zip(idx, cols)]
        pieces.append(row_sep.join(cols[0]) if len(cols) == 1
                      else row_sep.join(map(cell_sep.join, zip(*cols))))
    return pieces


class _Layout:
    """Files as literal text and row tables over the call's distinct columns."""

    def __init__(self):
        self.columns: list[np.ndarray] = []
        self.tables: list[tuple] = []
        self._seen: dict = {}

    def _column(self, a: np.ndarray) -> int:
        key = (a.__array_interface__["data"][0], a.shape, a.strides, a.dtype.str)
        if key not in self._seen:
            self._seen[key] = len(self.columns)
            self.columns.append(a)
        return self._seen[key]

    def _table(self, arrays, cell_sep: str, row_sep: str, as_json: bool) -> int:
        self.tables.append((tuple(self._column(a) for a in arrays),
                            cell_sep, row_sep, as_json))
        return len(self.tables) - 1

    def csv(self, content: Csv) -> list:
        arrays = [np.asarray(col) for col in content.columns]
        if len({a.shape for a in arrays}) > 1 or any(a.ndim != 1 for a in arrays):
            raise ValueError("CSV columns must be 1-D and of equal length")
        parts = [content.header + "\n"]
        if arrays and arrays[0].size:
            parts += [self._table(arrays, ",", "\n", False), "\n"]
        return parts

    def json(self, obj) -> list:
        parts: list = []
        self._json(obj, 0, parts)
        parts.append("\n")
        return parts

    def _json(self, o, level: int, parts: list) -> None:
        if isinstance(o, (str, int, float)) or o is None:
            parts.append(json.dumps(o))  # scalars as json writes them
        elif isinstance(o, (list, tuple)):
            if not o:
                parts.append("[]")
                return
            inner = "\n" + "  " * (level + 1)
            parts.append("[" + inner)
            sep = "," + inner
            for i, item in enumerate(o):
                if i:
                    parts.append(sep)
                self._json(item, level + 1, parts)
            parts.append("\n" + "  " * level + "]")
        elif isinstance(o, dict):
            if not o:
                parts.append("{}")
                return
            inner = "\n" + "  " * (level + 1)
            parts.append("{" + inner)
            for i, (key, value) in enumerate(sorted(o.items())):
                if not isinstance(key, str):
                    raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
                parts.append(("," + inner if i else "") + json.dumps(key) + ": ")
                self._json(value, level + 1, parts)
            parts.append("\n" + "  " * level + "}")
        elif isinstance(o, np.ndarray):
            if o.dtype.kind not in "iuf" or not o.ndim:
                self._json(o.tolist(), level, parts)
            elif o.ndim > 1:
                self._json(list(o), level, parts)  # rows as 1-D columns
            elif not o.size:
                parts.append("[]")
            else:
                inner = "\n" + "  " * (level + 1)
                parts += ["[" + inner, self._table([o], "", "," + inner, True),
                          "\n" + "  " * level + "]"]
        else:
            raise TypeError(f"Object of type {type(o).__name__} "
                            f"is not JSON serializable")


def write_files(files: dict) -> None:
    """Write each ``path: content`` of ``files``; content is a :class:`Csv`
    or a JSON object (see the module docstring)."""
    layout = _Layout()
    parts_by_path = {path: layout.csv(content) if isinstance(content, Csv)
                     else layout.json(content) for path, content in files.items()}
    n_rows = max((c.size for c in layout.columns), default=0)
    jobs = [([c[start:start + BLOCK_ROWS] for c in layout.columns], layout.tables)
            for start in range(0, n_rows, BLOCK_ROWS)]
    blocks = _parallel.submit(_format_block, jobs)()
    for path, parts in parts_by_path.items():
        text = []
        for part in parts:
            if isinstance(part, str):
                text.append(part)
                continue
            row_sep = layout.tables[part][2]
            for i, piece in enumerate(b[part] for b in blocks if b[part] is not None):
                text += [row_sep, piece] if i else [piece]
        with Path(path).open("w") as fh:
            fh.writelines(text)
