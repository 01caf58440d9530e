"""Schemas: the bridge between object-land and native-land layouts.

The paper's §5 restricts native processing to "arrays of structs without
references" — flat value types with a fixed byte layout.  A
:class:`Schema` describes exactly such a layout: every field maps to a
fixed-width NumPy dtype (the C struct member), and the same schema also
produces the record class used on the managed (plain Python) side, so one
definition covers both worlds and the object↔native mapping of §6.2 is
mechanical.

Supported field kinds and their native representations:

==========  =======================  ============================
kind        Python value             native dtype
==========  =======================  ============================
``int``     int                      int64
``int32``   int                      int32
``float``   float                    float64
``bool``    bool                     bool
``str``     str                      ``S<size>`` fixed-width bytes
``date``    datetime.date            int32 (days since 1970-01-01)
==========  =======================  ============================
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

import numpy as np

from ..errors import SchemaError

__all__ = [
    "EPOCH",
    "Field",
    "Schema",
    "date_to_days",
    "days_to_date",
    "encode_value",
    "decode_value",
]

#: day 0 of the native date encoding (days since the Unix epoch)
EPOCH = datetime.date(1970, 1, 1)

_KIND_DTYPES = {
    "int": np.dtype(np.int64),
    "int32": np.dtype(np.int32),
    "float": np.dtype(np.float64),
    "bool": np.dtype(np.bool_),
    "date": np.dtype(np.int32),
}

_VALID_KINDS = frozenset(_KIND_DTYPES) | {"str"}


def date_to_days(value: datetime.date) -> int:
    """Encode a date as days since the Unix epoch (native representation)."""
    return (value - EPOCH).days


def days_to_date(days: int) -> datetime.date:
    """Decode a days-since-epoch integer back into a date."""
    return EPOCH + datetime.timedelta(days=int(days))


@dataclass(frozen=True)
class Field:
    """One flat struct member.

    ``size`` is required for ``str`` fields (the fixed byte width, like a C
    ``char[size]``) and rejected elsewhere.
    """

    name: str
    kind: str
    size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise SchemaError(
                f"unknown field kind {self.kind!r}; valid: {sorted(_VALID_KINDS)}"
            )
        if self.kind == "str":
            if not self.size or self.size <= 0:
                raise SchemaError(f"str field {self.name!r} requires a positive size")
        elif self.size is not None:
            raise SchemaError(
                f"field {self.name!r} of kind {self.kind!r} takes no size"
            )

    @property
    def dtype(self) -> np.dtype:
        if self.kind == "str":
            return np.dtype(f"S{self.size}")
        return _KIND_DTYPES[self.kind]


def encode_value(field: Field, value: Any) -> Any:
    """Convert one managed-side value to its native representation."""
    if value is None:
        raise SchemaError(f"field {field.name!r} cannot be None")
    if field.kind == "str":
        encoded = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        if len(encoded) > (field.size or 0):
            raise SchemaError(
                f"value for {field.name!r} exceeds declared width "
                f"{field.size}: {value!r}"
            )
        return encoded
    if field.kind == "date":
        if isinstance(value, datetime.date):
            return date_to_days(value)
        return int(value)
    return value


def decode_value(field: Field, value: Any) -> Any:
    """Convert one native value back to its managed-side representation."""
    if field.kind == "str":
        raw = bytes(value)
        return raw.rstrip(b"\x00").decode("utf-8")
    if field.kind == "date":
        return days_to_date(int(value))
    if field.kind in ("int", "int32"):
        return int(value)
    if field.kind == "float":
        return float(value)
    if field.kind == "bool":
        return bool(value)
    return value


class Schema:
    """An ordered collection of flat fields with derived layouts."""

    def __init__(self, fields: Sequence[Field], name: str = "Record"):
        if not fields:
            raise SchemaError("a schema requires at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate field names in schema: {names}")
        self.fields: Tuple[Field, ...] = tuple(fields)
        self.name = name
        self._by_name: Dict[str, Field] = {f.name: f for f in self.fields}

    # -- introspection -------------------------------------------------------

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Field:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no field {name!r}; "
                f"fields: {list(self.field_names)}"
            ) from None

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        parts = ", ".join(f"{f.name}:{f.kind}" for f in self.fields)
        return f"Schema({self.name}: {parts})"

    @property
    def token(self) -> str:
        """Structural identity used in :class:`SourceExpr` schema tokens."""
        parts = ",".join(f"{f.name}:{f.kind}:{f.size or 0}" for f in self.fields)
        return f"{self.name}({parts})"

    # -- derived layouts -----------------------------------------------------

    def numpy_dtype(self) -> np.dtype:
        """The native struct layout (row-store element type)."""
        return np.dtype([(f.name, f.dtype) for f in self.fields])

    def record_type(self) -> type:
        """The managed-side record class (a named tuple, value semantics)."""
        from ..expressions.evaluator import make_record_type

        return make_record_type(self.field_names, self.name)

    def project(self, names: Sequence[str], name: str | None = None) -> "Schema":
        """A schema containing only *names*, in the given order."""
        return Schema([self[n] for n in names], name=name or f"{self.name}_proj")

    # -- row conversion --------------------------------------------------------

    def encode_row(self, obj: Any) -> Tuple:
        """Object (attribute access) → native tuple in field order."""
        return tuple(
            encode_value(f, getattr(obj, f.name)) for f in self.fields
        )

    def encode_values(self, values: Sequence[Any]) -> Tuple:
        """Positional values → native tuple in field order."""
        if len(values) != len(self.fields):
            raise SchemaError(
                f"expected {len(self.fields)} values, got {len(values)}"
            )
        return tuple(encode_value(f, v) for f, v in zip(self.fields, values))

    def decode_row(self, native_row: Any) -> Any:
        """Native struct row → managed record instance."""
        record_type = self.record_type()
        return record_type(
            *(decode_value(f, native_row[f.name]) for f in self.fields)
        )

    def struct_size(self) -> int:
        """Bytes per element in the native layout (used by the cache model)."""
        return self.numpy_dtype().itemsize
