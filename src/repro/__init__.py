"""repro — query compilation for language-integrated query in Python.

A full reproduction of *"Code generation for efficient query processing in
managed runtimes"* (Nagel, Bierman, Viglas — VLDB 2014), transposed from
C#/.NET + C to Python + NumPy.  See DESIGN.md for the system inventory and
the substitution table.

Public surface (stable):

* :class:`~repro.query.queryable.Query` and the source constructors
  :func:`from_iterable` / :func:`from_struct_array` — the LINQ-style API;
* :func:`~repro.expressions.builder.P`, :func:`~repro.expressions.builder.new`,
  :func:`~repro.expressions.builder.if_then_else` — query-building helpers;
* the engine registry in :mod:`repro.query.provider` (``linq``,
  ``compiled``, ``native``, ``hybrid``);
* :class:`~repro.storage.struct_array.StructArray` — the array-of-structs
  row store that unlocks the native engine.
"""

from .errors import (
    AdmissionRejected,
    CodegenError,
    ExecutionError,
    ExpressionError,
    QueryCancelled,
    QueryTimeoutError,
    ReproError,
    SchemaError,
    ServiceError,
    SessionClosed,
    TraceError,
    TranslationError,
    UnsupportedQueryError,
)
from .expressions import P, if_then_else, new

__version__ = "1.0.0"

__all__ = [
    "P",
    "new",
    "if_then_else",
    "ReproError",
    "ExpressionError",
    "TraceError",
    "TranslationError",
    "UnsupportedQueryError",
    "CodegenError",
    "ExecutionError",
    "SchemaError",
    "QueryCancelled",
    "QueryTimeoutError",
    "ServiceError",
    "AdmissionRejected",
    "SessionClosed",
    "__version__",
]


def __getattr__(name):
    # heavier modules are imported lazily so `import repro` stays cheap
    if name in {"Query", "from_iterable", "from_struct_array", "QList"}:
        from . import query as _query

        return getattr(_query, name)
    if name == "StructArray":
        from .storage.struct_array import StructArray

        return StructArray
    if name in {"QueryService", "QuerySession", "PreparedStatement"}:
        from . import service as _service

        return getattr(_service, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
