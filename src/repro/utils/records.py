"""Records from their fields: the one codec for stored, hashed and printed data.

A *record* is a dataclass whose plain-data form is exactly its fields, in
declaration order: a scenario spec and each of its sections, a scenario
outcome, a stored result line, a run-metrics line, a load profile, phase or
planned event.  Such a class serialises by naming the writer as its method
(``to_dict = plain``), so a field added to the class is stored, hashed and
printed with no second field list to keep in step.

:func:`plain` writes a record; :func:`parse` reads one back from a mapping
(a TOML table, a JSON object, a sweep axis override).  Classes whose payload
renames, computes or reshapes keys keep a hand-written ``to_dict``.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Any, Dict, Mapping, Optional, Tuple, Type, TypeVar

from repro.utils.validation import ValidationError, require

R = TypeVar("R")

#: Value types :func:`plain` returns as they are (dict fields are not copied).
_LEAVES = frozenset({str, int, float, bool, type(None), dict})


def plain(value: Any) -> Any:
    """``value`` as plain data: a dataclass becomes a dict of its fields.

    Fields keep their declaration order and nested dataclasses are converted
    too; tuples and lists become lists; every other value, dicts included,
    is returned as it is.
    """
    cls = type(value)
    if cls in _LEAVES:
        return value
    names = _field_names(cls)
    if names is None:
        if isinstance(value, (tuple, list)):
            return [item if type(item) in _LEAVES else plain(item) for item in value]
        return value
    record = {}
    for name in names:
        item = getattr(value, name)
        record[name] = item if type(item) in _LEAVES else plain(item)
    return record


def parse(cls: Type[R], data: Mapping[str, Any], context: str) -> R:
    """Build the record ``cls`` from a mapping holding some of its fields.

    A non-mapping or an unknown key is rejected with a message that names
    ``context``, the section's dotted path; a missing field takes its
    default.  Values are normalised onto the annotated field types: an
    integer for a ``float`` field, or inside a ``Tuple[float, ...]``, becomes
    a float, and an array for a tuple field becomes a tuple.  A field that
    holds a nested record is read through that class's ``from_dict`` when it
    has one, so its own checks and normalisations apply, and otherwise
    parsed the same way under ``context.<field>``.  The class's
    ``__post_init__`` checks run as it is built.
    """
    require(isinstance(data, Mapping), f"{context} must be a table/dict")
    kinds = _field_kinds(cls)
    unknown = set(data) - kinds.keys()
    if unknown:
        raise ValidationError(
            f"{context}: unknown field(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(kinds)}"
        )
    kwargs: Dict[str, Any] = {}
    for name, (kind, nested) in kinds.items():
        if name not in data:
            continue
        value = data[name]
        if kind == "float":
            value = _as_float(value)
        elif kind == "floats" and isinstance(value, (list, tuple)):
            value = tuple(_as_float(item) for item in value)
        elif kind == "tuple" and isinstance(value, (list, tuple)):
            value = tuple(value)
        elif kind == "record" and not isinstance(value, nested):
            reader = getattr(nested, "from_dict", None)
            value = reader(value) if reader else parse(nested, value, f"{context}.{name}")
        kwargs[name] = value
    return cls(**kwargs)


@functools.cache
def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """A dataclass's field names in declaration order; None for any other type."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(field.name for field in dataclasses.fields(cls))


def _as_float(value: Any) -> Any:
    """An integer (not a bool) as a float; any other value as it is."""
    return float(value) if type(value) is int else value


@functools.cache
def _field_kinds(cls: type) -> Dict[str, Tuple[str, Optional[type]]]:
    """How :func:`parse` normalises each field of ``cls``: ``(kind, nested class)``.

    The kind is ``"float"``, ``"floats"`` (a tuple of floats), ``"tuple"``,
    ``"record"`` (a nested dataclass) or ``""`` (kept as given).
    """
    hints = typing.get_type_hints(cls)
    kinds: Dict[str, Tuple[str, Optional[type]]] = {}
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        if hint is float:
            kinds[field.name] = ("float", None)
        elif typing.get_origin(hint) is tuple:
            floats = typing.get_args(hint)[:1] == (float,)
            kinds[field.name] = ("floats" if floats else "tuple", None)
        elif isinstance(hint, type) and dataclasses.is_dataclass(hint):
            kinds[field.name] = ("record", hint)
        else:
            kinds[field.name] = ("", None)
    return kinds
