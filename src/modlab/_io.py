"""The file formats. JSON input (experiment configs, map specs, group files)
is read by two rules: `json_number` reads every number and `json_object`
refuses every key its reader does not read. JSON objects and CSV tables are
formatted here (`json_text`, `csv_text`), for files and for stdout alike.

Suite determinism (byte-identical output outside `meta`) rests on these two
formats, so every module writes its files through here: JSON with sorted
keys and two-space indent, CSV cells with `repr` floats (shortest round-trip
digits) and empty cells for missing values, both ending in a newline. JSON
takes numpy values as they are: an array is written as its list and a
scalar as its Python value, so no caller converts for the writer; any other
value JSON has no form for, a complex number included, is a TypeError.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# the cap on every count read from outside input: config grid counts and CLI counts
MAX_COUNT = 4096

# the version of every JSON document modlab writes: records, suite reports, CLI output
SCHEMA_VERSION = 1


def json_number(value, name: str, whole: bool = False, optional: bool = False):
    """A JSON value as a float (an int when `whole`; None stays None when
    `optional`), or a ValueError naming the field unless it is a finite number,
    not a string or a boolean, that converts without overflow and, when
    `whole`, has no fraction."""
    if value is None and optional:
        return None
    wanted = "a whole number" if whole else "a finite number"
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        number = float(value)  # OverflowError for an int beyond the float range
        if not math.isfinite(number) or (whole and not number.is_integer()):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {wanted}, not {value!r}") from None
    return int(value) if whole else number


def spec_argument(text: str):
    """The JSON value a CLI spec's argument spells (3 for winding:3), else the
    text itself ("1_000", " 2"), for `json_number` to refuse by name."""
    try:
        return json.loads(text) if text == text.strip() else text
    except ValueError:
        return text


def json_object(value, name: str, known) -> dict:
    """A JSON object whose keys are all `known`, or a ValueError naming the
    object and, for a key its reader does not read, that key and the known ones."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, not {type(value).__name__}")
    unknown = sorted(set(value) - set(known), key=str)
    if unknown:
        raise ValueError(f"{name} has unknown key {unknown[0]!r}; known keys: {', '.join(sorted(known)) or 'none'}")
    return value


def _json_value(value):
    """The JSON form of a numpy value: an array's list, a real scalar's Python value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic) and not isinstance(value, np.complexfloating):
        return value.item()
    raise TypeError(f"{type(value).__name__} {value!r} has no JSON form")


def json_text(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True, default=_json_value) + "\n"


def write_json(data, path) -> None:
    Path(path).write_text(json_text(data))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_text(header, rows) -> str:
    """One line per row after the header; `header` names the columns."""
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    Path(path).write_text(csv_text(header, rows))
