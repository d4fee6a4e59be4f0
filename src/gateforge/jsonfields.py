"""Checked reads of the JSON files gateforge takes from outside.

Task packs, store index records, results files, backend scripts and run
configs are written outside the program. Their readers take every field
through `take`, or through `take_all` and a table that `json_fields` reads
off a dataclass. So this module alone decides the type rule (a boolean is
not an integer or a number; an integer is a number) and names each fault
`<where>.<key>: must be <need>`.

A table's rows are compiled once, by `json_field`: each `Field` holds the
Python types a value may have outright (`int` counts for `float`; `bool`
is not an `int`), the string literals it may be, and, per typed
container, the Python types its items may have. `take_all` then tests a
value by set lookups alone; `take` runs only to word a fault, so the
first faulty field in table order and its message are `take`'s.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import NamedTuple

REQUIRED = object()   # `take`'s default: the key must be present
# How a fault names each JSON type a reader asks for.
_NAMES = {dict: "an object", list: "a list", str: "a string",
          int: "an integer", float: "a number", bool: "a boolean",
          None: "null", list[dict]: "a list of objects",
          list[str]: "a list of strings", list[int]: "a list of integers",
          dict[str, float]: "an object of numbers",
          dict[int, float]: "an object of numbers keyed by integers"}
# The JSON types of a dataclass field, by its annotation.
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (float,),
               "bool": (bool,), "str | None": (str, None),
               "int | None": (int, None), "float | None": (float, None),
               "tuple[str, ...]": (list[str],), "tuple[int, ...]": (list[int],),
               "dict[str, float]": (dict[str, float],),
               "dict[int, float]": (dict[int, float],)}


class FieldError(ValueError):
    """A missing, wrong-typed or refused field: `key` of `where`."""

    def __init__(self, where: str, key: str, need: str):
        self.where, self.key, self.need = where, key, need
        self.field = f"{where}.{key}" if where else key
        self.quoted = f"{self.field!r} must be {need}"   # the other form
        super().__init__(f"{self.field}: must be {need}")


def is_json(value, *types) -> bool:
    """Whether `value` holds one of the JSON `types`: dict, list, str, int,
    float, bool, None, a string literal such as "in", or a typed container
    `list[T]`, `dict[str, T]` or `dict[int, T]` (keys spell integers)."""
    if type(value) in types or (value is None or type(value) is str) \
            and value in types or type(value) is int and float in types:
        return True
    for t in types:   # a typed container
        args = getattr(t, "__args__", ())
        if args and type(value) is t.__origin__:
            items = value.values() if type(value) is dict else value
            if all(is_json(v, args[-1]) for v in items) and (
                    len(args) == 1 or args[0] is str
                    or all(map(str.isdecimal, value))):
                return True
    return False


def take(doc: dict, key: str, where: str, *types, default=REQUIRED,
         ok=None, need: str | None = None):
    """`doc[key]` if it holds one of the JSON `types` and passes `ok`;
    `default` if the key is absent and one is given. Else FieldError: the
    field must be `need`, or else one of the types."""
    if key not in doc and default is not REQUIRED:
        return default
    value = doc.get(key, REQUIRED)
    # Cheap test first: most values are of a listed type.
    if (type(value) in types or is_json(value, *types)) \
            and (ok is None or ok(value)):
        return value
    raise FieldError(where, key, need or " or ".join(
        repr(t) if type(t) is str else _NAMES[t] for t in types))


class FieldRule(NamedTuple):
    """What a compiled field admits beyond its plain types, and its JSON
    types as `take` names them."""

    types: tuple
    literals: frozenset  # the string literals among `types`
    # Per typed container's Python type: its items' Python types, and
    # whether its keys must spell integers.
    items: dict

    def admits(self, value) -> bool:
        """Whether `value`, of no plain type, is one of the types."""
        kind = type(value)
        if kind is str:
            return value in self.literals
        if kind not in self.items:
            return False
        held, keyed = self.items[kind]
        return held.issuperset(map(type, value.values() if kind is dict
                                   else value)) \
            and (not keyed or all(map(str.isdecimal, value)))


class Field(NamedTuple):
    """A compiled `take_all` row; `json_field` makes one. `take_all`
    reads `rule` only for a value of no plain type."""

    key: str
    default: object    # the value when absent; REQUIRED if it must be there
    plain: frozenset   # the Python types whose every value is one of the types
    rule: FieldRule


def _plain(types) -> frozenset:
    """The Python types whose every value holds one of the JSON `types`."""
    out = {type(None) if t is None else t for t in types
           if t is None or type(t) is type}
    return frozenset(out | {int} if float in out else out)


def json_field(key: str, types: tuple, default=REQUIRED) -> Field:
    """The compiled `take_all` row of `key`: one of the JSON `types`, or
    `default` when absent. A typed container's items must be plain types."""
    items = {}
    for t in types:
        args = getattr(t, "__args__", ())
        if args:
            held = _plain(args[-1:])
            if not held or t.__origin__ in items:
                raise TypeError(f"no compiled check for {t}")
            items[t.__origin__] = (held, len(args) == 2 and args[0] is not str)
    return Field(key, default, _plain(types), FieldRule(
        types, frozenset(t for t in types if type(t) is str), items))


def take_all(doc: dict, where: str, table) -> dict:
    """`take` of each `Field` of `table`, by key."""
    values = {}
    for key, default, plain, rule in table:
        values[key] = value = doc.get(key, default)
        # Most values are of a plain type.
        if type(value) not in plain and (value is REQUIRED or (
                value is not default and not rule.admits(value))):
            take(doc, key, where, *rule.types)   # raises the field's FieldError
    return values


def json_fields(cls, skip=(), **types) -> tuple:
    """The `take_all` table of dataclass `cls`'s fields but `skip`, in
    declaration order: each field's JSON types by its annotation, or
    `types[name]`, and its default, REQUIRED where it has none."""
    return tuple(json_field(f.name, types.get(f.name) or _JSON_TYPES[f.type],
                            REQUIRED if f.default is MISSING else f.default)
                 for f in fields(cls) if f.name not in skip)
