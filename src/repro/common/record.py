"""The record grammar: one reader for everything that crosses a boundary.

A *record* is a dataclass whose wire form is a JSON-safe dict keyed by
field name — a message body, the Tasklet inside it, a journal line.
Its annotations are its declaration: :func:`compile_fields` turns them,
once per class, into the table :meth:`Record.from_dict` reads against, so
a record is read completely — every field present or defaulted, every
value of its declared type — or not at all, and the reader raises the
record's one ``ERROR`` and nothing else (DESIGN.md, "Wire boundary";
docs/PROTOCOL.md, "Record table").

What an annotation accepts: a ``float`` takes an int, a ``bool`` is never
an int, ``X | None``, ``list[...]`` / ``dict[...]`` by container, ``Any``
unchecked; a field annotated with a record class (or a list of one) is
opened by that class's reader, an ``Enum`` by value.  Keys the class does
not declare are dropped and absent optional fields take their defaults,
which is what lets builds that differ by a field share a cluster — and a
journal.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
import types
import typing
from dataclasses import field
from typing import Any, Callable, ClassVar

from .errors import RecordError, TaskletError

#: name -> class of every record declared with :func:`record` (message
#: bodies are listed in ``transport.message.MESSAGE_TYPES``).
RECORD_TYPES: dict[str, type["Record"]] = {}


class Record:
    """Base of every declared record; the dataclass supplies the fields."""

    #: What error text calls this record.
    WHAT: ClassVar[str] = ""
    #: The one exception type :meth:`from_dict` raises.
    ERROR: ClassVar[type[TaskletError]] = RecordError
    #: Per field read: name, whether it must be present, the exact
    #: runtime types it accepts (None = any) and a reader (or None) that
    #: returns the value to keep or raises a ``TaskletError`` saying what
    #: is wrong with a value of the right type.
    _FIELDS: ClassVar[tuple[tuple[str, bool, tuple | None, Callable | None], ...]] = ()
    #: Read fields the constructor does not take (``init=False``).
    _LATE: ClassVar[tuple[str, ...]] = ()
    #: Per field written: name, the inverse of its reader (or None) and
    #: whether an empty value is left out.
    _DUMPS: ClassVar[tuple[tuple[str, Callable | None, bool], ...]] = ()

    @classmethod
    def from_dict(cls, data: dict[str, Any]):
        """The record ``data`` holds — or ``cls.ERROR``, before anything
        is built."""
        return cls._build(cls._read(data))

    @classmethod
    def _read(cls, data: dict[str, Any]) -> dict[str, Any]:
        """Every field ``data`` holds, read — or ``cls.ERROR``."""
        if type(data) is not dict:
            raise cls.ERROR(f"malformed {cls.WHAT}: is a {type(data).__name__}")
        values = {}
        for name, required, accepted, read in cls._FIELDS:
            if name in data:
                value = data[name]
                if accepted is not None and type(value) not in accepted:
                    problem = f"is a {type(value).__name__}"
                elif read is None:
                    values[name] = value
                    continue
                else:
                    try:
                        values[name] = read(value)
                        continue
                    except TaskletError as exc:
                        problem = str(exc)
            elif required:
                problem = "is missing"
            else:
                continue
            raise cls.ERROR(f"malformed {cls.WHAT}: {name} {problem}")
        return values

    @classmethod
    def _build(cls, values: dict[str, Any]):
        """The record of the read ``values``."""
        if not cls._LATE:
            return cls(**values)
        late = [(name, values.pop(name)) for name in cls._LATE if name in values]
        opened = cls(**values)
        for name, value in late:
            setattr(opened, name, value)
        return opened

    def to_dict(self) -> dict[str, Any]:
        """The wire form :meth:`from_dict` reads back."""
        data = {}
        for name, dump, sparse in self._DUMPS:
            value = getattr(self, name)
            if not sparse or value:
                data[name] = value if dump is None else dump(value)
        return data


def _is_a(annotation, base: type) -> bool:
    return isinstance(annotation, type) and issubclass(annotation, base)


def _accepted_types(annotation) -> tuple[type, ...] | None:
    """The exact runtime types the wire form of a field annotated
    ``annotation`` may have (None = anything)."""
    annotation = getattr(annotation, "__supertype__", annotation)  # NewType
    if annotation is Any:
        return None
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        parts = [_accepted_types(part) for part in typing.get_args(annotation)]
        return None if None in parts else tuple(t for part in parts for t in part)
    if origin is not None:
        return (origin,)
    if _is_a(annotation, Record):
        return (dict,)
    if _is_a(annotation, enum.Enum):
        return tuple({type(member.value) for member in annotation})
    return (float, int) if annotation is float else (annotation,)


def _opened(shape: type[Record]) -> Callable:
    """Reader of a field that holds one ``shape``."""

    def read(value: dict):
        try:
            return shape.from_dict(value)
        except shape.ERROR as exc:
            raise RecordError(f"holds a {exc}") from None

    return read


def _each(shape: type[Record]) -> Callable:
    """Reader of a list field whose items are ``shape`` records."""
    opened = _opened(shape)

    def read(items: list) -> list:
        records = []
        for item in items:
            if type(item) is not dict:
                raise RecordError(f"holds a {type(item).__name__}")
            records.append(opened(item))
        return records

    return read


def _codec(annotation) -> tuple[Callable | None, Callable | None]:
    """Reader and writer of a field whose wire form differs from what the
    record keeps: a nested record, a list of them, an enum member."""
    if _is_a(annotation, Record):
        return _opened(annotation), operator.methodcaller("to_dict")
    if _is_a(annotation, enum.Enum):
        return one_of_values(annotation), operator.attrgetter("value")
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is list and _is_a(args[0], Record):
        return _each(args[0]), lambda items: [item.to_dict() for item in items]
    # A container is written as a copy: the record stays the caller's.
    return None, origin if origin in (list, dict) else None


def compile_fields(cls, what: str, error: type[TaskletError]):
    """Compile, once, what reading and writing ``cls`` needs.  Field
    metadata ``read`` / ``dump`` replace what the annotation implies."""
    cls.WHAT, cls.ERROR = what, error
    hints = typing.get_type_hints(cls)
    wire = [f for f in dataclasses.fields(cls) if not f.name.startswith("_")]
    fields, dumps = [], []
    for f in wire:
        read, dump = _codec(hints[f.name])
        required = (
            f.init
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        accepted = f.metadata.get("accepts") or _accepted_types(hints[f.name])
        fields.append((f.name, required, accepted, f.metadata.get("read", read)))
        dumps.append(
            (f.name, f.metadata.get("dump", dump), f.metadata.get("sparse", False))
        )
    cls._FIELDS, cls._DUMPS = tuple(fields), tuple(dumps)
    cls._LATE = tuple(f.name for f in wire if not f.init)
    return cls


def record(name: str, error: type[TaskletError] = RecordError):
    """Class decorator: declare the dataclass a record called ``name``
    whose reader raises ``error``."""

    def wrap(cls):
        RECORD_TYPES[name] = compile_fields(cls, name, error)
        return cls

    return wrap


# -- field declarations that say more than an annotation can -----------------


def coded(
    read: Callable | None, dump: Callable | None = None, accepts: tuple = (), **kwargs
) -> Any:
    """A field with its own reader (and writer) — and, where its wire form
    is not what its annotation says, the types that form ``accepts``."""
    return field(metadata={"read": read, "dump": dump, "accepts": accepts}, **kwargs)


def sparse(default_factory: Callable) -> Any:
    """An optional field that is left out of the wire form while empty."""
    return field(default_factory=default_factory, metadata={"sparse": True})


def one_of_values(choices) -> Callable:
    """Reader of a value from a closed set: an ``Enum`` (read to its
    member) or plain values (kept as they are)."""
    by_value = (
        {member.value: member for member in choices}
        if _is_a(choices, enum.Enum)
        else {choice: choice for choice in choices}
    )

    def read(value):
        try:
            return by_value[value]
        except KeyError:
            raise RecordError(f"is not one of {sorted(by_value)}") from None

    return read


def one_of(choices) -> Any:
    """A required string field that takes a value of a closed set."""
    return coded(one_of_values(frozenset(choices)))


def _kept(read: Callable) -> Callable:
    """``read`` as a check: the field keeps the plain value it was sent."""

    def check(value):
        read(value)
        return value

    return check


def records_of(shape: type[Record]) -> Any:
    """An optional list field whose items each read as a ``shape`` — and
    stay the plain dicts they are, for whoever opens them."""
    return coded(_kept(_each(shape)), default_factory=list)


def reads_as(shape: type[Record]) -> Any:
    """A required dict field that reads as a ``shape`` and stays plain."""
    return coded(_kept(_opened(shape)))


def identified(key: str) -> Any:
    """A required dict field — a record its owner opens — whose ``key``
    names it with a string, so that whoever refuses the rest can say
    which one was refused."""

    def read(value: dict) -> dict:
        if type(value.get(key)) is not str:
            raise RecordError(f"names no {key}")
        return value

    return coded(read)
