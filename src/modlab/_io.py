"""The report file formats: JSON objects and CSV tables.

Suite determinism (byte-identical output outside `meta`) rests on these two
formats, so every module writes its files through here: JSON with sorted
keys and two-space indent, CSV cells with `repr` floats (shortest round-trip
digits) and empty cells for missing values, both ending in a newline.
"""

from __future__ import annotations

import json
from pathlib import Path


def write_json(data, path):
    """Write data to path (skipped when path is None) and return it."""
    if path is not None:
        Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """One line per row after the header; `header` names the columns."""
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")
