"""Canonical JSON and CSV output, shared by every file the pipeline writes.

Keys are emitted in sorted order and floats with 17 significant digits,
which is enough for a float64 to round-trip exactly, so re-reading a file
reproduces the original values bit for bit and hashing the serialization
gives a stable fingerprint.

A float64 ndarray is formatted as a whole: one finiteness check over the
array, then one `%.17g` format string built for its shape and applied to
all of its values at once. The text is the same as formatting each value
with `format(x, ".17g")` inside nested lists; other arrays, lists and
scalars go through the general recursive encoder.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from .autodiff import ContractError


def format_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ContractError("cannot serialize non-finite float")
    return format(x, ".17g")


def _array_format(shape: tuple) -> str:
    """%-format string that renders a C-ordered array of `shape` as nested
    JSON lists of .17g floats."""
    if not shape:
        return "%.17g"
    inner = _array_format(shape[1:])
    return "[" + ",".join([inner] * shape[0]) + "]"


def _float64_array(a: np.ndarray) -> str:
    if not np.isfinite(a).all():
        raise ContractError("cannot serialize non-finite float")
    return _array_format(a.shape) % tuple(a.ravel().tolist())


def _encode(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, np.ndarray):
        if obj.dtype == np.float64:
            out.append(_float64_array(obj))
        else:
            _encode(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ContractError("JSON object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out)
        out.append("]")
    else:
        raise ContractError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Serialize to compact JSON with sorted keys and .17g floats."""
    parts: list = []
    _encode(obj, parts)
    return "".join(parts)


def loads(text: str):
    return json.loads(text)


def require(obj, key: str, path: str = ""):
    """obj[key] of a parsed JSON object, or a ContractError naming the
    dotted path of the missing field."""
    if not isinstance(obj, dict):
        raise ContractError(f"{path or 'document'} must be a JSON object")
    if key not in obj:
        raise ContractError(f"missing field {_dotted(path, key)}")
    return obj[key]


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def require_int(obj, key: str, path: str = "") -> int:
    """obj[key] if it is a JSON integer, else a ContractError naming the
    dotted path of the missing or wrongly typed field."""
    value = require(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ContractError(f"{_dotted(path, key)} must be an integer")
    return value


def require_float(obj, key: str, path: str = "") -> float:
    """obj[key] as a float if it is a JSON number, else a ContractError
    naming the dotted path."""
    value = require(obj, key, path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ContractError(f"{_dotted(path, key)} must be a number")
    return float(value)


def require_bool(obj, key: str, path: str = "") -> bool:
    """obj[key] if it is a JSON boolean, else a ContractError naming the
    dotted path."""
    value = require(obj, key, path)
    if not isinstance(value, bool):
        raise ContractError(f"{_dotted(path, key)} must be true or false")
    return value


def optional(reader):
    """`reader`, except that a null or absent field reads as None."""
    def read(obj: dict, key: str, path: str = ""):
        return None if obj.get(key) is None else reader(obj, key, path)
    return read


_FIELD_READERS = {"int": require_int, "float": require_float,
                  "bool": require_bool, "int | None": optional(require_int)}


def read_dataclass(cls, obj, path: str = "", **given):
    """An instance of dataclass `cls` read from the JSON object `obj`.

    Fields named in `given` take those values; every other field is read
    by its annotation through `_FIELD_READERS`: require_int, require_float,
    require_bool, or require_int with null or absent read as None. A key
    of `obj` that is not a field of `cls` is refused, naming its dotted
    path. The validation errors of `cls` name the bare field and are
    raised here under `path`.
    """
    if not isinstance(obj, dict):
        raise ContractError(f"{path or 'document'} must be a JSON object")
    fields = dataclasses.fields(cls)
    names = {f.name for f in fields}
    for key in obj:
        if key not in names:
            raise ContractError(f"unknown field {_dotted(path, key)}")
    values = {f.name: _FIELD_READERS[f.type](obj, f.name, path)
              for f in fields if f.name not in given}
    try:
        return cls(**values, **given)
    except ContractError as exc:
        raise ContractError(_dotted(path, str(exc))) from exc


def require_array(obj, key: str, path: str = "") -> np.ndarray:
    """obj[key] as a float64 array, else a ContractError naming the dotted
    path of a field that is missing or not numeric."""
    value = require(obj, key, path)
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{_dotted(path, key)} must be numeric "
                            f"({exc})") from exc


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return "" if value is None else str(value)


def write_csv(path, columns, rows, comments=()) -> None:
    """Each comment line after `# `, the header, then one line per row: a
    float cell with 17 significant digits (a non-finite one is refused),
    None as an empty cell, and anything else through `str`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")


def fingerprint(obj) -> str:
    """Stable 16-hex-digit digest of the canonical serialization."""
    digest = hashlib.sha256(dumps_canonical(obj).encode("utf-8")).hexdigest()
    return digest[:16]
