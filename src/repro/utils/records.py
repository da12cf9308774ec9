"""Records from their fields: the one codec for stored, hashed and printed data.

A *record* is a dataclass whose plain-data form is exactly its fields, in
declaration order: a scenario spec and each of its sections, a scenario
outcome, a stored result line, a run-metrics line, a load profile, phase or
planned event.  Such a class serialises by naming the writer as its method
(``to_dict = plain``), so a field added to the class is stored, hashed and
printed with no second field list to keep in step.

:func:`plain` writes a record; :func:`parse` reads one back from a mapping
(a TOML table, a JSON object, a sweep axis override, a population cache
manifest's config).  Classes whose payload renames, computes or reshapes
keys keep a hand-written ``to_dict``.
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

    A non-mapping, an unknown key or a missing field without a default is
    rejected with a :class:`ValidationError` that names ``context``, the
    section's dotted path; any other missing field takes its default.
    Values are normalised onto the annotated field types: an integer for a
    ``float`` field, or inside a ``Tuple[float, ...]``, becomes a float, and
    an array for a tuple field becomes a tuple.  A field that holds a nested
    record, or a ``Tuple[<record>, ...]`` of them, reads each record through
    that class's ``from_dict`` when it has one, so its own checks and
    normalisations apply, and otherwise parses it the same way under
    ``context.<field>`` (``context.<field>[i]`` in a tuple).  The class's
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
    missing = [name for name, (_, _, required) in kinds.items() if required and name not in data]
    if missing:
        raise ValidationError(f"{context}: missing required field(s) {missing}")
    kwargs: Dict[str, Any] = {}
    for name, (kind, nested, _) in kinds.items():
        if name not in data:
            continue
        value = data[name]
        if kind == "float":
            value = _as_float(value)
        elif kind == "floats" and isinstance(value, (list, tuple)):
            value = tuple(_as_float(item) for item in value)
        elif kind == "tuple" and isinstance(value, (list, tuple)):
            value = tuple(value)
        elif kind == "record":
            value = _record(nested, value, f"{context}.{name}")
        elif kind == "records" and isinstance(value, (list, tuple)):
            value = tuple(
                _record(nested, item, f"{context}.{name}[{index}]")
                for index, item in enumerate(value)
            )
        kwargs[name] = value
    return cls(**kwargs)


def _record(cls: type, value: Any, context: str) -> Any:
    """``value`` as a ``cls`` record: as it is, through ``cls.from_dict``, or parsed."""
    if isinstance(value, cls):
        return value
    reader = getattr(cls, "from_dict", None)
    return reader(value) if reader else parse(cls, value, context)


@functools.cache
def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    """A dataclass's field names in declaration order; None for any other type."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(field.name for field in dataclasses.fields(cls))


def _as_float(value: Any) -> Any:
    """An integer (not a bool) as a float; any other value as it is."""
    return float(value) if type(value) is int else value


def _is_record(hint: Any) -> bool:
    """Whether a field annotation names a record (a dataclass)."""
    return isinstance(hint, type) and dataclasses.is_dataclass(hint)


@functools.cache
def _field_kinds(cls: type) -> Dict[str, Tuple[str, Optional[type], bool]]:
    """How :func:`parse` reads each field of ``cls``: ``(kind, nested class, required)``.

    The kind is ``"float"``, ``"floats"`` (a tuple of floats), ``"tuple"``,
    ``"record"`` (a nested dataclass), ``"records"`` (a tuple of them) or
    ``""`` (kept as given).  A field is required when it has no default.
    """
    hints = typing.get_type_hints(cls)
    kinds: Dict[str, Tuple[str, Optional[type], bool]] = {}
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        kind, nested = "", None
        if hint is float:
            kind = "float"
        elif typing.get_origin(hint) is tuple:
            item = typing.get_args(hint)[:1]
            if item == (float,):
                kind = "floats"
            elif item and _is_record(item[0]):
                kind, nested = "records", item[0]
            else:
                kind = "tuple"
        elif _is_record(hint):
            kind, nested = "record", hint
        unset = dataclasses.MISSING
        required = field.default is unset and field.default_factory is unset
        kinds[field.name] = (kind, nested, required)
    return kinds
