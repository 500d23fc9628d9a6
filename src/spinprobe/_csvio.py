"""The one output codec: every CSV and JSON file of a run, the manifest
included, and the only place the package formats JSON.

A stage hands :func:`write_files` all of its files at once.  A CSV is a
:class:`Csv`: a header and equal-length 1-D columns.  A JSON file is any
object of plain JSON values that ``json.dump`` takes.

* **CSV cells.**  Integer columns go through ``str`` and every other
  column through ``repr`` of Python floats, so ``float(text)`` gives back
  each value bit for bit (``nan``, ``inf`` and ``-0.0`` included).
* **Rows.**  Every file of a call is checked, its CSV columns and its
  JSON text, before the first is written; then a CSV's rows are
  formatted and written :data:`SLICE_ROWS` at a time, in the main
  process, so its text never all lives in memory at once.
* **JSON.**  A JSON file is ``json.dumps(obj, indent=2, sort_keys=True)``
  followed by ``"\\n"`` (``NaN``, ``Infinity`` and ``-Infinity`` for
  non-finite floats).  Any other object ``json`` cannot write, a NumPy
  array or integer scalar included, raises ``TypeError``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["Csv", "write_files"]


@dataclass(frozen=True)
class Csv:
    """One CSV file: ``header`` then one comma-separated row per index of
    ``columns``, a sequence of equal-length 1-D array-likes."""

    header: str
    columns: tuple


# rows of a CSV formatted and written at a time
SLICE_ROWS = 1 << 16


def _format_block(columns: list[np.ndarray]) -> str:
    """The rows of a CSV's columns, each ending in a newline."""
    cells = [map(str if c.dtype.kind in "iu" else repr, c.tolist()) for c in columns]
    return "\n".join([*map(",".join, zip(*cells)), ""])


def _text(content):
    """The pieces of a file's text, in order: a JSON file's whole text, or
    a CSV's header then its rows, :data:`SLICE_ROWS` at a time, each slice
    formatted only when it is written.  The columns are checked here."""
    if not isinstance(content, Csv):
        return [json.dumps(content, indent=2, sort_keys=True) + "\n"]
    columns = [np.asarray(col) for col in content.columns]
    if len({c.shape for c in columns}) > 1 or any(c.ndim != 1 for c in columns):
        raise ValueError("CSV columns must be 1-D and of equal length")
    columns = [c if c.dtype.kind in "iu" else np.asarray(c, dtype=float) for c in columns]
    rows = range(0, columns[0].size if columns else 0, SLICE_ROWS)
    return itertools.chain([content.header + "\n"], (
        _format_block([c[a:a + SLICE_ROWS] for c in columns]) for a in rows))


def write_files(files: dict) -> None:
    """Write each ``path: content`` of ``files``; content is a :class:`Csv`
    or a JSON object (see the module docstring)."""
    texts = {path: _text(content) for path, content in files.items()}
    for path, text in texts.items():
        with Path(path).open("w") as fh:
            fh.writelines(text)
