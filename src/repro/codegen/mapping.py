"""Object ↔ native layout mappings — paper §6.2.

The hybrid engine must copy object data into flat native memory.  Three
questions decide what the staging code looks like:

1. **Which fields does the query actually touch?** The shared
   required-fields pass over the plan with scan-adjacent filters stripped
   answers it.  Only those are copied — the paper's *implicit projection*
   driven by the source mapping of Figure 6 — plus a row index when whole
   elements escape.
2. **What are their native types?** (`infer_object_schema`, here) C#
   answers by reflection; Python objects carry no static types, so we
   sample the collection and derive dtypes (string widths are measured
   over the sample with headroom).  Staging checks each string column's
   longest encoded value once per page, before the page is built: a
   value past its width raises :class:`~repro.errors.SchemaError`
   rather than truncating silently.
3. **Which filters run managed-side, before staging?** "We apply all
   filtering operations in C#" — the hybrid backend peels the filters
   sitting directly on each pipeline's scan into the staging loop; the
   remaining plan runs natively over the staged arrays.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import SchemaError
from ..expressions.nodes import Lambda
from ..storage.schema import Field, Schema
from ..storage.struct_array import StructArray

__all__ = [
    "infer_object_schema",
    "StagedSource",
]

#: how many elements to examine when deriving a schema from objects
_SAMPLE_SIZE = 1000
#: headroom multiplier for sampled string widths
_WIDTH_MARGIN = 2
_MIN_WIDTH = 8


def infer_object_schema(
    items: Sequence[Any],
    fields: Optional[Set[str]] = None,
    name: str = "Inferred",
) -> Schema:
    """Derive a flat native schema from a sample of *items*.

    ``fields`` restricts inference to the named attributes (the source
    mapping); None infers every public attribute of the first element.
    """
    iterator = iter(items)
    try:
        first = next(iterator)
    except StopIteration:
        if fields:
            # nothing will ever be staged from an empty collection, so any
            # layout works; C# would know the real one by reflection
            return Schema([Field(n, "float") for n in sorted(fields)], name=name)
        raise SchemaError(
            "cannot infer a schema from an empty collection; supply one "
            "explicitly (QList(items, schema=...))"
        ) from None
    if fields is None:
        fields = {
            n for n in _attribute_names(first) if not n.startswith("_")
        }
    ordered = sorted(fields)
    kinds: Dict[str, str] = {}
    widths: Dict[str, int] = {}
    for name_ in ordered:
        value = _attr(first, name_)
        kinds[name_] = _kind_of(value, name_)
        if kinds[name_] == "str":
            widths[name_] = len(value.encode("utf-8"))
    examined = 1
    for item in iterator:
        if examined >= _SAMPLE_SIZE:
            break
        examined += 1
        for name_ in ordered:
            if kinds[name_] == "str":
                widths[name_] = max(
                    widths[name_], len(_attr(item, name_).encode("utf-8"))
                )
            elif kinds[name_] == "int" and isinstance(_attr(item, name_), float):
                kinds[name_] = "float"
    schema_fields = []
    for name_ in ordered:
        if kinds[name_] == "str":
            width = max(_MIN_WIDTH, widths[name_] * _WIDTH_MARGIN)
            schema_fields.append(Field(name_, "str", width))
        else:
            schema_fields.append(Field(name_, kinds[name_]))
    return Schema(schema_fields, name=name)


def _attribute_names(obj: Any) -> List[str]:
    if hasattr(obj, "_fields"):  # namedtuple
        return list(obj._fields)
    if hasattr(obj, "__dict__"):
        return list(vars(obj))
    if hasattr(obj, "__slots__"):
        return list(obj.__slots__)
    raise SchemaError(f"cannot infer attributes of {type(obj).__name__}")


def _attr(obj: Any, name: str) -> Any:
    try:
        return getattr(obj, name)
    except AttributeError:
        raise SchemaError(
            f"element of type {type(obj).__name__} lacks attribute {name!r} "
            f"required by the query"
        ) from None


def _kind_of(value: Any, name: str) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if isinstance(value, datetime.date):
        return "date"
    raise SchemaError(
        f"attribute {name!r} of type {type(value).__name__} has no flat "
        f"native representation (the §5/§6 value-type restriction)"
    )


# -- staging split ----------------------------------------------------------------


@dataclass
class StagedSource:
    """Everything the staging loop for one source needs to know."""

    ordinal: int
    #: managed-side filters, applied before copying (paper: selection in C#)
    predicates: Tuple[Lambda, ...]
    #: the implicit projection: fields copied to native memory
    fields: Tuple[str, ...]
    #: native layout of the staged rows
    schema: Schema = field(default=None)  # type: ignore[assignment]
    #: whole elements escape: the kept objects are listed managed-side and
    #: their row indexes cross as one more column (Min, §6)
    carries: bool = False


def staged_schema_for(
    source: Any, spec: StagedSource, token: str = ""
) -> Schema:
    """Native layout of one staged source (derived or copied)."""
    if isinstance(source, StructArray):
        base = source.schema
        names = [n for n in spec.fields if n in base]
        missing = [n for n in spec.fields if n not in base]
        if missing:
            raise SchemaError(f"source schema lacks staged fields {missing}")
        return base.project(names, name=f"staged_{spec.ordinal}")
    declared = getattr(source, "schema", None)
    if isinstance(declared, Schema):
        return declared.project(
            [n for n in spec.fields], name=f"staged_{spec.ordinal}"
        )
    return infer_object_schema(
        source, set(spec.fields), name=f"staged_{spec.ordinal}"
    )
