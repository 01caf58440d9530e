"""Seeded query shapes over three small tables, each with its own oracle.

A *shape* is a JSON-able spec drawn from a small grammar (filter+project,
filter+group-aggregate, top-n, two-table join).  One evaluator walks the
spec twice: over expression proxies to build the query, and over plain
Python tuples to compute the reference — so a shape's oracle is a
plain-Python fold over the generated rows, never another engine.

Constants are lifted to parameters by ``canonicalize``, so two specs that
differ only in literals share one compiled artifact; distinctness is
therefore judged on :meth:`Shape.signature` (the spec minus its literals)
and asserted on the canonical cache key by the workloads.

No field is called ``id``: the effect checker flags that name.  Float
columns hold multiples of 0.25 so every sum is exactly representable and
results compare exactly on every engine.
"""

from __future__ import annotations

import json
import operator
import random
from typing import Any, Callable, Dict, List, Sequence

from repro import P, new
from repro.query import from_iterable, from_struct_array
from repro.storage import Field, Schema, StructArray

TABLE_ROWS = 256
TABLES = ("a", "b", "c")
#: column roles, in schema order: unique, join, group, two floats, string
ROLES = ("u", "j", "g", "x", "y", "s")
_GROUPS = {"a": 8, "b": 6, "c": 4}
_VOCAB = ("ab", "cd", "ef", "gh", "ij", "kl")
_NUMERIC = ("u", "j", "g", "x", "y")
_INDEX = {role: i for i, role in enumerate(ROLES)}

#: stands in for the literal of a hot shape's varying atom
HOT = "$c"

_COMPARE: Dict[str, Callable[[Any, Any], Any]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


def _schema(table: str) -> Schema:
    return Schema(
        [
            Field("u" + table, "int"),
            Field("j" + table, "int"),
            Field("g" + table, "int"),
            Field("x" + table, "float"),
            Field("y" + table, "float"),
            Field("s" + table, "str", 4),
        ],
        name="Life" + table.upper(),
    )


class Tables:
    """The three tables in every representation an engine or oracle reads."""

    def __init__(self, seed: int, rows: int = TABLE_ROWS) -> None:
        rng = random.Random(seed)
        self.plain: Dict[str, List[tuple]] = {}
        self.arrays: Dict[str, StructArray] = {}
        self.objects: Dict[str, List[Any]] = {}
        self.schemas: Dict[str, Schema] = {}
        for table in TABLES:
            plain = [
                (
                    i,
                    rng.randrange(64),
                    rng.randrange(_GROUPS[table]),
                    rng.randrange(-200, 200) * 0.25,
                    rng.randrange(0, 100) * 0.25,
                    rng.choice(_VOCAB),
                )
                for i in range(rows)
            ]
            schema = _schema(table)
            self.plain[table] = plain
            self.schemas[table] = schema
            self.arrays[table] = StructArray.from_rows(schema, plain)
            self.objects[table] = self.arrays[table].to_objects()

    def sources(self, engine: str, provider: Any) -> Dict[str, Any]:
        """table → source query for *engine* (native reads the arrays)."""
        if engine == "native":
            return {
                t: from_struct_array(self.arrays[t]).using(engine, provider)
                for t in TABLES
            }
        return {
            t: from_iterable(self.objects[t], schema=self.schemas[t]).using(
                engine, provider
            )
            for t in TABLES
        }


# ---------------------------------------------------------------------------
# The shared evaluator: `get(role)` yields a proxy member or a plain value
# ---------------------------------------------------------------------------


def _const(value: Any, literal: Any) -> Any:
    return literal if value == HOT else value


def _pred(spec: Sequence[Any], get: Callable[[str], Any], literal: Any) -> Any:
    conn, atoms = spec[0], spec[1:]
    result = None
    for role, op, const in atoms:
        term = _COMPARE[op](get(role), _const(const, literal))
        if result is None:
            result = term
        elif conn == "and":
            result = result & term
        else:
            result = result | term
    return result


def _item(spec: Sequence[Any], get: Callable[[str], Any]) -> Any:
    kind = spec[0]
    if kind == "f":
        return get(spec[1])
    if kind == "mul":
        return get(spec[1]) * spec[2]
    if kind == "add":
        return get(spec[1]) + get(spec[2])
    if kind == "sub":
        return get(spec[1]) - get(spec[2])
    raise ValueError(f"unknown projection item {spec!r}")


def _proxy_get(row: Any, table: str) -> Callable[[str], Any]:
    return lambda role: getattr(row, role + table)


def _selector(item: Sequence[Any], table: str) -> Callable[[Any], Any]:
    """A one-argument lambda (tracing reads the argument count)."""
    return lambda r: _item(item, _proxy_get(r, table))


def _plain_get(row: tuple) -> Callable[[str], Any]:
    return lambda role: row[_INDEX[role]]


def _strip(spec: Any) -> Any:
    """The spec with every literal removed (its structure)."""
    if isinstance(spec, dict):
        return {k: _strip(v) for k, v in spec.items() if k != "take"}
    if isinstance(spec, list):
        if len(spec) == 3 and isinstance(spec[1], str) and spec[1] in _COMPARE:
            return [spec[0], spec[1]]
        if spec and spec[0] == "mul":
            return spec[:2]
        return [_strip(v) for v in spec]
    return spec


class Shape:
    """One query shape: builds the query, computes its reference."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.spec = spec
        self.family: str = spec["family"]
        self.ordered = self.family == "topn"

    def signature(self) -> str:
        return json.dumps(_strip(self.spec), sort_keys=True)

    # -- query construction --------------------------------------------------

    def build(self, sources: Dict[str, Any], literal: Any = None) -> Any:
        """The query over *sources*; the hot atom reads ``P("c")`` unless a
        *literal* is given (then it is traced in as a constant)."""
        lit = P("c") if literal is None else literal
        return getattr(self, "_build_" + self.family)(sources, lit)

    def _filtered(self, sources: Dict[str, Any], table: str, pred: Any, lit: Any) -> Any:
        source = sources[table]
        if pred is None:
            return source
        return source.where(lambda r: _pred(pred, _proxy_get(r, table), lit))

    def _build_filter(self, sources: Dict[str, Any], lit: Any) -> Any:
        spec = self.spec
        table, proj = spec["table"], spec["proj"]
        return self._filtered(sources, table, spec["pred"], lit).select(
            lambda r: new(
                **{
                    f"c{i}": _item(item, _proxy_get(r, table))
                    for i, item in enumerate(proj)
                }
            )
        )

    def _build_group(self, sources: Dict[str, Any], lit: Any) -> Any:
        spec = self.spec
        table, keys, aggs = spec["table"], spec["keys"], spec["aggs"]

        def key(r: Any) -> Any:
            if len(keys) == 1:
                return getattr(r, keys[0] + table)
            return new(**{f"k{i}": getattr(r, k + table) for i, k in enumerate(keys)})

        def result(g: Any) -> Any:
            fields = {}
            for i in range(len(keys)):
                fields[f"k{i}"] = g.key if len(keys) == 1 else getattr(g.key, f"k{i}")
            for i, (kind, item) in enumerate(aggs):
                if kind == "count":
                    fields[f"a{i}"] = g.count()
                else:
                    fields[f"a{i}"] = getattr(g, kind)(_selector(item, table))
            return new(**fields)

        return self._filtered(sources, table, spec["pred"], lit).group_by(key, result)

    def _build_topn(self, sources: Dict[str, Any], lit: Any) -> Any:
        spec = self.spec
        table, proj, by = spec["table"], spec["proj"], spec["by"]
        query = self._filtered(sources, table, spec["pred"], lit).select(
            lambda r: new(
                u=getattr(r, "u" + table),
                **{
                    f"c{i}": _item(item, _proxy_get(r, table))
                    for i, item in enumerate(proj)
                },
            )
        )
        column = f"c{by}"
        if spec["desc"]:
            query = query.order_by_desc(lambda p: getattr(p, column))
        else:
            query = query.order_by(lambda p: getattr(p, column))
        return query.then_by(lambda p: p.u).take(spec["take"])

    def _build_join(self, sources: Dict[str, Any], lit: Any) -> Any:
        spec = self.spec
        left, right = spec["left"], spec["right"]
        fields_l, fields_r = spec["proj_l"], spec["proj_r"]
        return self._filtered(sources, left, spec["pred_l"], lit).join(
            self._filtered(sources, right, spec["pred_r"], lit),
            lambda a: getattr(a, "j" + left),
            lambda b: getattr(b, "j" + right),
            lambda a, b: new(
                **{f"l{i}": getattr(a, f + left) for i, f in enumerate(fields_l)},
                **{f"r{i}": getattr(b, f + right) for i, f in enumerate(fields_r)},
            ),
        )

    # -- the plain-Python oracle ------------------------------------------------

    def reference(self, plain: Dict[str, List[tuple]], literal: Any = None) -> List[tuple]:
        return getattr(self, "_ref_" + self.family)(plain, literal)

    @staticmethod
    def _kept(rows: List[tuple], pred: Any, literal: Any) -> List[tuple]:
        if pred is None:
            return rows
        return [r for r in rows if _pred(pred, _plain_get(r), literal)]

    def _ref_filter(self, plain: Dict[str, List[tuple]], literal: Any) -> List[tuple]:
        spec = self.spec
        return [
            tuple(_item(item, _plain_get(r)) for item in spec["proj"])
            for r in self._kept(plain[spec["table"]], spec["pred"], literal)
        ]

    def _ref_group(self, plain: Dict[str, List[tuple]], literal: Any) -> List[tuple]:
        spec = self.spec
        groups: Dict[tuple, List[tuple]] = {}
        for r in self._kept(plain[spec["table"]], spec["pred"], literal):
            groups.setdefault(tuple(r[_INDEX[k]] for k in spec["keys"]), []).append(r)
        out = []
        for key, members in groups.items():
            row = list(key)
            for kind, item in spec["aggs"]:
                if kind == "count":
                    row.append(len(members))
                    continue
                values = [_item(item, _plain_get(r)) for r in members]
                if kind == "sum":
                    row.append(sum(values))
                elif kind == "avg":
                    row.append(sum(values) / len(values))
                else:
                    row.append(min(values) if kind == "min" else max(values))
            out.append(tuple(row))
        return out

    def _ref_topn(self, plain: Dict[str, List[tuple]], literal: Any) -> List[tuple]:
        spec = self.spec
        rows = [
            (r[_INDEX["u"]],) + tuple(_item(item, _plain_get(r)) for item in spec["proj"])
            for r in self._kept(plain[spec["table"]], spec["pred"], literal)
        ]
        rows.sort(key=lambda t: t[0])
        rows.sort(key=lambda t: t[1 + spec["by"]], reverse=spec["desc"])
        return rows[: spec["take"]]

    def _ref_join(self, plain: Dict[str, List[tuple]], literal: Any) -> List[tuple]:
        spec = self.spec
        build: Dict[int, List[tuple]] = {}
        for b in self._kept(plain[spec["right"]], spec["pred_r"], literal):
            build.setdefault(b[_INDEX["j"]], []).append(b)
        out = []
        for a in self._kept(plain[spec["left"]], spec["pred_l"], literal):
            for b in build.get(a[_INDEX["j"]], ()):
                out.append(
                    tuple(a[_INDEX[f]] for f in spec["proj_l"])
                    + tuple(b[_INDEX[f]] for f in spec["proj_r"])
                )
        return out


# ---------------------------------------------------------------------------
# The seeded draw
# ---------------------------------------------------------------------------


def _draw_atom(rng: random.Random) -> List[Any]:
    role = rng.choice(ROLES)
    if role == "s":
        return [role, rng.choice(("==", "!=")), rng.choice(_VOCAB)]
    op = rng.choice(("<", "<=", ">", ">=", "!="))
    const = {
        "u": rng.randrange(TABLE_ROWS),
        "j": rng.randrange(64),
        "g": rng.randrange(4),
        "x": rng.randrange(-120, 120) * 0.25,
        "y": rng.randrange(10, 90) * 0.25,
    }[role]
    return [role, op, const]


def _draw_pred(rng: random.Random, optional: bool = False) -> Any:
    if optional and rng.random() < 0.3:
        return None
    atoms = [_draw_atom(rng) for _ in range(rng.choice((1, 1, 2, 2, 3)))]
    # a lone atom has no connective: "or" would only fake a new structure
    return [rng.choice(("and", "or")) if len(atoms) > 1 else "and"] + atoms


def _draw_item(rng: random.Random, numeric: bool = False) -> List[Any]:
    kind = rng.choice(("f", "f", "mul", "add", "sub"))
    if kind == "f":
        return ["f", rng.choice(_NUMERIC if numeric else ROLES)]
    if kind == "mul":
        return ["mul", rng.choice(_NUMERIC), rng.randrange(1, 9) * 0.25]
    return [kind, rng.choice(_NUMERIC), rng.choice(_NUMERIC)]


def _draw_spec(rng: random.Random) -> Dict[str, Any]:
    family = rng.choice(("filter", "group", "topn", "join"))
    table = rng.choice(TABLES)
    if family == "filter":
        return {
            "family": family,
            "table": table,
            "pred": _draw_pred(rng),
            "proj": [_draw_item(rng) for _ in range(rng.randrange(1, 5))],
        }
    if family == "group":
        aggs = []
        for _ in range(rng.randrange(1, 5)):
            kind = rng.choice(("count", "sum", "min", "max", "avg"))
            aggs.append([kind, None if kind == "count" else _draw_item(rng, True)])
        return {
            "family": family,
            "table": table,
            "pred": _draw_pred(rng, optional=True),
            "keys": rng.choice((["g"], ["s"], ["j"], ["g", "s"], ["s", "g"], ["g", "j"])),
            "aggs": aggs,
        }
    if family == "topn":
        proj = [_draw_item(rng, True) for _ in range(rng.randrange(1, 4))]
        return {
            "family": family,
            "table": table,
            "pred": _draw_pred(rng),
            "proj": proj,
            "by": rng.randrange(len(proj)),
            "desc": rng.random() < 0.5,
            "take": rng.randrange(3, 40),
        }
    right = rng.choice([t for t in TABLES if t != table])
    return {
        "family": family,
        "left": table,
        "right": right,
        "pred_l": _draw_pred(rng, optional=True),
        "pred_r": _draw_pred(rng, optional=True),
        "proj_l": rng.sample(ROLES, rng.randrange(1, 4)),
        "proj_r": rng.sample(ROLES, rng.randrange(1, 4)),
    }


def draw_shapes(seed: int, count: int) -> List[Shape]:
    """*count* shapes, pairwise distinct in structure, from *seed*."""
    rng = random.Random(seed)
    seen = set()
    shapes: List[Shape] = []
    while len(shapes) < count:
        shape = Shape(_draw_spec(rng))
        signature = shape.signature()
        if signature not in seen:
            seen.add(signature)
            shapes.append(shape)
    return shapes


#: the four hot shapes — one per family, fixed structure, so a seed moves
#: the data and the literals but never the amount of work per op
HOT_SHAPES = (
    Shape(
        {
            "family": "filter",
            "table": "a",
            "pred": ["and", ["x", ">", HOT], ["g", "!=", 3]],
            "proj": [["f", "u"], ["mul", "y", 2.0], ["f", "s"]],
        }
    ),
    Shape(
        {
            "family": "group",
            "table": "b",
            "pred": ["and", ["x", "<=", HOT]],
            "keys": ["g"],
            "aggs": [["count", None], ["sum", ["f", "y"]], ["avg", ["f", "x"]]],
        }
    ),
    Shape(
        {
            "family": "topn",
            "table": "c",
            "pred": ["and", ["x", ">", HOT]],
            "proj": [["f", "y"], ["f", "g"]],
            "by": 0,
            "desc": True,
            "take": 10,
        }
    ),
    Shape(
        {
            "family": "join",
            "left": "a",
            "right": "b",
            "pred_l": ["and", ["x", ">", HOT]],
            "pred_r": ["and", ["g", "<", 2]],
            "proj_l": ["u", "x"],
            "proj_r": ["y", "s"],
        }
    ),
)


def hot_literals(seed: int) -> Callable[[], float]:
    """An endless seeded stream of literals near the median of ``x``."""
    rng = random.Random(seed ^ 0x5EED)
    return lambda: rng.randrange(-8, 8) * 0.25
