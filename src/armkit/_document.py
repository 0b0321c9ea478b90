"""The field rule of the outside JSON documents (arm configuration, calibration):
numbers read as floats; entries are objects of known keys with finite numbers."""
from __future__ import annotations

import json
import math


def read_json(text: str, error: type[Exception], what: str):
    """``text`` parsed with every number a float (too-large integers become inf),
    so bools and strings fail the float check; bad or too deep JSON raises ``error``."""
    try:
        return json.loads(text, parse_int=float)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"malformed {what}: {exc}") from exc


def read_numbers(entry, where: str, keys: tuple[str, ...], error: type[Exception], optional=()) -> list[float]:
    """The finite floats ``entry[key]`` for ``keys`` in order, from an object with no field outside
    ``keys`` and ``optional`` (the caller checks those); faults raise ``error`` naming ``where``."""
    if not isinstance(entry, dict):
        raise error(f"{where}: must be an object")
    unknown = set(entry).difference(keys, optional)
    if unknown:
        raise error(f"{where}: unknown fields: {sorted(unknown)}")
    values = []
    for key in keys:
        if key not in entry:
            raise error(f"{where}: missing field '{key}'")
        value = entry[key]
        if not isinstance(value, float) or not math.isfinite(value):
            raise error(f"{where}: '{key}' must be a finite number, got {value!r}")
        values.append(value)
    return values
