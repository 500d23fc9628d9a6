"""The one output codec: every CSV and JSON file of a run, the manifest
included, and the only place the package formats JSON.

A stage hands :func:`write_files` all of its files at once.  A CSV is a
:class:`Csv`: a header and equal-length 1-D columns.  A JSON file is any
object ``json.dump`` takes, in which an ``ndarray`` stands for its
``tolist()``.

* **CSV cells.**  Integer columns go through ``str`` and every other
  column through ``repr`` of Python floats, so ``float(text)`` gives back
  each value bit for bit (``nan``, ``inf`` and ``-0.0`` included).
* **Row blocks.**  A CSV's rows are formatted in blocks of
  :data:`BLOCK_ROWS`.  A CSV of more than one block maps its blocks
  through :func:`spinprobe._parallel.submit`, across the run's workers; a
  single block is formatted inline.  The main process joins the pieces in
  order and writes each file in one call, so the bytes depend on neither
  the block size nor the worker count.
* **JSON.**  A JSON file is ``json.dumps(obj, indent=2, sort_keys=True)``
  followed by ``"\\n"`` (``NaN``, ``Infinity`` and ``-Infinity`` for
  non-finite floats).  Any other object ``json`` cannot write, a NumPy
  integer scalar included, raises ``TypeError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _parallel

__all__ = ["BLOCK_ROWS", "Csv", "write_files"]

BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class Csv:
    """One CSV file: ``header`` then one comma-separated row per index of
    ``columns``, a sequence of equal-length 1-D array-likes."""

    header: str
    columns: tuple


def _format_block(columns: list[np.ndarray]) -> str:
    """Rows of one block of a CSV's columns, each ending in a newline."""
    cells = [map(str, c.tolist()) if c.dtype.kind in "iu"
             else map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _submit_csv(content: Csv):
    """Start formatting ``content``'s row blocks; the handle gives its text."""
    columns = [np.asarray(col) for col in content.columns]
    if len({c.shape for c in columns}) > 1 or any(c.ndim != 1 for c in columns):
        raise ValueError("CSV columns must be 1-D and of equal length")
    n_rows = columns[0].size if columns else 0
    blocks = _parallel.submit(_format_block, (
        [c[start:start + BLOCK_ROWS] for c in columns]
        for start in range(0, n_rows, BLOCK_ROWS)))
    return lambda: [content.header + "\n", *blocks()]


def _ndarray_as_list(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def write_files(files: dict) -> None:
    """Write each ``path: content`` of ``files``; content is a :class:`Csv`
    or a JSON object (see the module docstring)."""
    # every CSV's blocks are submitted before any JSON is formatted, so
    # the workers format rows while the main process dumps the JSON
    csv_texts = {path: _submit_csv(content) for path, content in files.items()
                 if isinstance(content, Csv)}
    json_texts = {path: json.dumps(content, indent=2, sort_keys=True,
                                   default=_ndarray_as_list) + "\n"
                  for path, content in files.items() if path not in csv_texts}
    for path in files:
        with Path(path).open("w") as fh:
            fh.writelines(csv_texts[path]() if path in csv_texts
                          else json_texts[path])
