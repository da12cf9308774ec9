"""TOML reading and writing for sweep specifications.

Sweep specs are plain nested mappings of strings, numbers, booleans and
arrays, so only that subset of TOML is needed.  Reading uses the stdlib
:mod:`tomllib`; writing uses the built-in emitter below, since the stdlib has
no TOML writer.
"""

from __future__ import annotations

import re
import tomllib
from typing import Any, Dict, List, Tuple

from repro.utils.validation import ValidationError, require

_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}


def loads(text: str) -> Dict[str, Any]:
    """Parse a TOML document into nested dicts."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise ValidationError(f"invalid TOML: {error}") from None


def dumps(data: Dict[str, Any]) -> str:
    """Render nested dicts as a TOML document (scalars, arrays, tables)."""
    lines: List[str] = []
    _emit_table(data, prefix=(), lines=lines)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- writer
def _emit_table(table: Dict[str, Any], prefix: Tuple[str, ...], lines: List[str]) -> None:
    scalars = {k: v for k, v in table.items() if not isinstance(v, dict)}
    subtables = {k: v for k, v in table.items() if isinstance(v, dict)}
    if prefix and (scalars or not subtables):
        if lines:
            lines.append("")
        lines.append("[" + ".".join(_format_key(part) for part in prefix) + "]")
    for key, value in scalars.items():
        lines.append(f"{_format_key(key)} = {_format_value(value)}")
    for key, value in subtables.items():
        _emit_table(value, prefix + (key,), lines)


def _format_key(key: str) -> str:
    require(isinstance(key, str) and key != "", "TOML keys must be non-empty strings")
    return key if _BARE_KEY.match(key) else _format_string(key)


def _format_string(value: str) -> str:
    escaped = "".join(_ESCAPES.get(ch, ch) for ch in value)
    return f'"{escaped}"'


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        # Guarantee the token reads back as a float, not an integer.
        return text if any(ch in text for ch in ".einf") else text + ".0"
    if isinstance(value, str):
        return _format_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(item) for item in value) + "]"
    raise ValidationError(f"cannot represent {type(value).__name__} in TOML")
