"""Wire encoding for the distributed tier: artifacts, rows, params.

Everything that crosses the coordinator/worker process boundary goes
through this module, and the encoding is deliberately boring: tagged
tuples plus pickle.  Three kinds of payload exist —

* **namespace specs** — a compiled kernel is broadcast as its generated
  *source* plus a recipe for rebuilding the module globals the printer
  bound (record types, runtime helpers, numpy).  Modules travel by name,
  runtime record types by ``(type_name, fields)`` (rebuilt through the
  shared :func:`~repro.expressions.evaluator.make_record_type` cache so
  both processes agree on row identity), and everything else by pickle.
  Functions *defined by the generated module itself* are skipped — the
  worker's ``exec`` of the source re-creates them.
* **result values** — partial rows may be namedtuple records, plain
  tuples, dates, or numpy scalars.  Every tuple is tagged (``__rec__`` /
  ``__tup__``) so decoding is unambiguous, and the private
  ``_NO_VALUE`` sentinel of the scalar merge travels as its own tag
  (object identity does not survive pickling).  A whole partial is a
  list: when it is a homogeneous run of one flat record type — what a
  rows-mode kernel returns — it travels as a single ``__recs__`` frame
  (type name and fields once, then plain tuples), so neither side pays
  per-row tagging; any other list encodes value by value.
* **params** — the user's parameter dict, minus the reserved morsel
  window keys and the cancellation token (a token holds a lock; the
  coordinator checkpoints cancellation between gather steps instead).

A value that cannot be encoded raises :class:`UnshippableError`; the
provider treats that as "this query does not distribute" and falls back
to the thread tier — never as a query failure.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
from typing import Any, Dict, List, Tuple

from ..errors import DistributedError
from ..expressions.evaluator import make_record_type
from ..runtime.cancellation import CANCEL_PARAM
from ..runtime.parallel import MORSEL_START, MORSEL_STOP, _NO_VALUE

__all__ = [
    "UnshippableError",
    "decode_namespace",
    "decode_value",
    "encode_namespace",
    "encode_params",
    "encode_value",
]


class UnshippableError(DistributedError):
    """A kernel namespace or parameter set cannot cross processes.

    Not a query failure: the provider catches this while planning and
    runs the query on the thread tier instead.
    """


#: namespace names never shipped: rebuilt by ``exec`` / interpreter-local
_SKIP_BINDINGS = frozenset({"__builtins__", "__verifier_report__"})


def encode_namespace(namespace: Dict[str, Any]) -> List[Tuple[Any, ...]]:
    """Recipe for rebuilding a generated module's globals in a worker."""
    spec: List[Tuple[Any, ...]] = []
    for name, value in namespace.items():
        if name in _SKIP_BINDINGS:
            continue
        if getattr(value, "__globals__", None) is namespace:
            # defined by the generated module itself; exec re-creates it
            continue
        if inspect.ismodule(value):
            spec.append((name, "module", value.__name__))
        elif (
            isinstance(value, type)
            and issubclass(value, tuple)
            and hasattr(value, "_fields")
        ):
            spec.append((name, "record", value.__name__, tuple(value._fields)))
        else:
            try:
                spec.append((name, "pickle", pickle.dumps(value)))
            except Exception as exc:
                raise UnshippableError(
                    f"kernel binding {name!r} ({type(value).__name__}) "
                    f"cannot cross the process boundary: {exc}"
                ) from exc
    return spec


def _record_type(type_name: str, fields: Tuple[str, ...]) -> type:
    """The shared record type a ``(type_name, fields)`` pair names."""
    return make_record_type(fields, None if type_name == "Row" else type_name)


def decode_namespace(spec: List[Tuple[Any, ...]]) -> Dict[str, Any]:
    namespace: Dict[str, Any] = {}
    for entry in spec:
        name, kind = entry[0], entry[1]
        if kind == "module":
            namespace[name] = importlib.import_module(entry[2])
        elif kind == "record":
            namespace[name] = _record_type(entry[2], entry[3])
        else:
            namespace[name] = pickle.loads(entry[2])
    return namespace


def _record_frame(rows: list) -> Any:
    """One ``__recs__`` frame for a non-empty list of records of a single
    type whose fields hold nothing :func:`encode_value` would rewrite
    (tuples, lists, ``_NO_VALUE``); None for any other list."""
    record_type = type(rows[0])
    if not (issubclass(record_type, tuple) and hasattr(record_type, "_fields")):
        return None
    if any(type(row) is not record_type for row in rows):
        return None
    value_types = set()
    for column in zip(*rows):
        value_types.update(map(type, column))
    # ``_NO_VALUE`` is the only value here whose type is bare ``object``
    if any(t is object or issubclass(t, (tuple, list)) for t in value_types):
        return None
    return (
        "__recs__",
        record_type.__name__,
        tuple(record_type._fields),
        [tuple(row) for row in rows],
    )


def encode_value(value: Any) -> Any:
    """Tag tuples/records/sentinels so decode is unambiguous; a list
    encodes element-wise, or as one frame when it is all flat records."""
    if value is _NO_VALUE:
        return ("__noval__",)
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):
            return (
                "__rec__",
                type(value).__name__,
                tuple(value._fields),
                tuple(encode_value(v) for v in value),
            )
        return ("__tup__", tuple(encode_value(v) for v in value))
    if isinstance(value, list):
        frame = _record_frame(value) if value else None
        return frame or [encode_value(v) for v in value]
    return value


def decode_value(value: Any) -> Any:
    if isinstance(value, tuple) and value:
        tag = value[0]
        if tag == "__noval__":
            return _NO_VALUE
        if tag == "__rec__":
            record_type = _record_type(value[1], value[2])
            return record_type(*(decode_value(v) for v in value[3]))
        if tag == "__recs__":
            return list(map(_record_type(value[1], value[2])._make, value[3]))
        if tag == "__tup__":
            return tuple(decode_value(v) for v in value[1])
    elif isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def encode_params(params: Dict[str, Any]) -> bytes:
    """Pickle the user params minus process-local reserved keys."""
    shippable = {
        k: v
        for k, v in params.items()
        if k not in (CANCEL_PARAM, MORSEL_START, MORSEL_STOP)
    }
    try:
        return pickle.dumps(shippable)
    except Exception as exc:
        raise UnshippableError(
            f"query parameters cannot cross the process boundary: {exc}"
        ) from exc
