"""The JSON artifacts' one format: reading, writing and checked decoding.

Every JSON input (the counts sidecar, the model, the config) is read by
``read_json``, so each may start with a UTF-8 byte-order mark and each bad
file raises one ``InputError`` naming it.  The ``_checked`` helpers decode a
document field by field, naming the part at fault as ``where``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .errors import InputError, Undecodable


def read_json(path, what: str):
    """The document in the file at ``path``; a missing file, bytes that are
    not UTF-8 or text that is not JSON raise ``InputError`` starting with
    ``what`` and the path."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise InputError(f"{what} {path}: no such file") from None
    except UnicodeDecodeError as exc:
        raise Undecodable(f"{what} {path}", exc) from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer or a nesting past Python's limits
        raise InputError(f"{what} {path}: not valid JSON: {exc}") from None


def write_json(path, doc) -> None:
    """Every JSON artifact's one layout: indented, keys sorted, a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


_REQUIRED = object()
_KIND_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "true or false",
               float: "a finite number"}


def _checked(value, kind: type, where: str):
    """``value`` if it is JSON of ``kind``, else ``InputError``; a ``float``
    is any finite number, returned as a float."""
    if kind is not float and isinstance(value, kind):
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float and number and abs(value) <= sys.float_info.max:  # False for NaN and inf
        return float(value)
    raise InputError(f"{where}: expected {_KIND_NAMES[kind]}, got {value!r:.60}")


def _field(doc: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """``doc[key]`` checked by ``_checked``; ``default`` when the key is
    absent and a default is given."""
    if key not in doc:
        if default is _REQUIRED:
            raise InputError(f"{where}: missing key {key!r}")
        return default
    return _checked(doc[key], kind, f"{where}.{key}")


def _mapping(doc: dict, key: str, kind: type, where: str, default=_REQUIRED) -> dict:
    """The object ``doc[key]`` with every value checked to be of ``kind``."""
    entries = _field(doc, key, dict, where, default)
    return {k: _checked(v, kind, f"{where}.{key}.{k}") for k, v in entries.items()}


def _objects(doc: dict, key: str, where: str) -> list:
    """(object, where) for each entry of the array ``doc[key]``, empty when absent."""
    entries = _field(doc, key, list, where, default=[])
    return [(_checked(e, dict, f"{where}.{key}[{i}]"), f"{where}.{key}[{i}]") for i, e in enumerate(entries)]
