"""The LINQ-style query surface.

A :class:`Query` is an immutable description of a computation over one or
more in-memory sources.  Every operator method returns a *new* Query whose
expression tree has grown by one ``QueryOp`` — nothing executes until the
application consumes the result (LINQ's *deferred execution*, §2.1).

Consumption (iteration, ``to_list``, terminal aggregates) routes through a
:class:`~repro.query.provider.QueryProvider`, which picks an execution
strategy:

=================  ===========================================================
engine             paper analogue
=================  ===========================================================
``linq``           LINQ-to-objects: interpreted operator-at-a-time pipeline
``compiled``       §4  generated host-language (Python) code
``native``         §5  generated vectorized code over arrays of structs
``hybrid``         §6  managed staging into native buffers; fields are
                   staged (Max), and an element a result returns whole
                   crosses as its row index (Min: the source object)
=================  ===========================================================

Wrapping a collection (``QList``, :func:`from_iterable`,
:func:`from_struct_array`) is the only application-code change required —
the paper's transparency story.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import ExecutionError, TranslationError
from ..expressions.builder import trace_lambda, unwrap
from ..expressions.nodes import Expr, Lambda, New, QueryOp, SourceExpr
from ..expressions.visitor import Transformer
from ..options import NO_OPTIONS, ExecutionOptions
from ..storage.struct_array import StructArray

__all__ = ["Query", "QList", "from_iterable", "from_struct_array"]

DEFAULT_ENGINE = "compiled"


class _OffsetSources(Transformer):
    """Shifts every SourceExpr ordinal by a fixed offset (for query merging)."""

    def __init__(self, offset: int):
        self._offset = offset

    def visit_SourceExpr(self, expr: SourceExpr) -> SourceExpr:
        if self._offset == 0:
            return expr
        return SourceExpr(expr.ordinal + self._offset, expr.schema_token)


def _default_expr(default: Any) -> Expr:
    """The default-element expression for a left outer join.

    A dict describes a record (field → value/param); anything else is a
    scalar element.  Values pass through :func:`unwrap`, so ``P("name")``
    parameters work in either position.
    """
    if isinstance(default, dict):
        return New(tuple((name, unwrap(value)) for name, value in default.items()))
    return unwrap(default)


def _source_token(items: Sequence[Any], explicit: Optional[str]) -> str:
    if explicit:
        return explicit
    if isinstance(items, StructArray):
        return items.schema.token
    for item in items:
        return f"obj:{type(item).__qualname__}"
    return "obj:empty"


class Query:
    """An immutable, composable, lazily-executed query."""

    __slots__ = ("expr", "sources", "engine", "params", "options", "_provider")

    def __init__(
        self,
        expr: Expr,
        sources: tuple,
        engine: str = DEFAULT_ENGINE,
        params: Optional[Dict[str, Any]] = None,
        provider: Any = None,
        options: ExecutionOptions = NO_OPTIONS,
    ):
        self.expr = expr
        self.sources = sources
        self.engine = engine
        self.params = dict(params or {})
        #: the query's own layer of execution options (``using`` /
        #: ``in_parallel`` / ``distributed``); unset fields defer
        self.options = options
        self._provider = provider

    # -- construction helpers ---------------------------------------------------

    def _chain(self, name: str, *args: Expr) -> "Query":
        return self._replace(expr=QueryOp(name, self.expr, tuple(args)))

    def _replace(self, **kw: Any) -> "Query":
        return Query(
            expr=kw.get("expr", self.expr),
            sources=kw.get("sources", self.sources),
            engine=kw.get("engine", self.engine),
            params=kw.get("params", self.params),
            provider=kw.get("provider", self._provider),
            options=kw.get("options", self.options),
        )

    def _merge(self, other: "Query") -> tuple:
        """Renumber *other*'s sources after ours; return its shifted expr."""
        shifted = _OffsetSources(len(self.sources)).visit(other.expr)
        return shifted, self.sources + other.sources, {**other.params, **self.params}

    # -- configuration ------------------------------------------------------------

    def using(
        self,
        engine: str,
        provider: Any = None,
        parallelism: Optional[int] = None,
        trace: Optional[bool] = None,
        adaptive: Any = None,
        distributed: Optional[int] = None,
    ) -> "Query":
        """Select the execution strategy (and optionally a shared provider,
        a worker count for morsel-driven parallel execution, and a
        per-query tracing override).

        ``trace=True`` records lifecycle spans for this query even when
        ``REPRO_TRACE`` is off (inspect them via
        ``repro.observability.TRACER.spans()``); ``trace=False`` silences
        an otherwise-enabled tracer for this query.  ``None`` (default)
        defers to the process-wide switch.

        ``adaptive=True`` lets the provider's profile-driven chooser pick
        engine, parallelism, and morsel size per run (``False`` forces
        the static path even when ``REPRO_ADAPTIVE`` is on; an
        :class:`~repro.adaptive.AdaptiveController` instance scopes the
        profiles to that controller's store).  Answers never change —
        only the execution configuration does.

        ``distributed=N`` (N ≥ 2) runs eligible queries on N worker
        *processes* — sharded multi-process execution (DESIGN.md §16);
        ``distributed=0`` forces in-process execution even when
        ``REPRO_DISTRIBUTED`` is on.  Queries outside the distributable
        fragment fall back to thread/sequential execution unchanged.
        """
        # the retired Min spelling, still passed by the whole-element sort
        # cell at benchmarks/lifecycle/tpch_cells.py:67
        engine = "hybrid" if engine == "hybrid_min" else engine
        options = ExecutionOptions(parallelism, None, adaptive, distributed, trace)
        return self._replace(
            engine=engine,
            provider=provider or self._provider,
            options=options.over(self.options),
        )

    def in_parallel(
        self, workers: int, morsel_size: Optional[int] = None
    ) -> "Query":
        """Execute with *workers* threads over fixed-size morsels.

        Results are exactly those of sequential execution; queries outside
        the parallel-safe fragment silently run sequentially.
        ``workers=1`` restores plain sequential execution.
        """
        return self._replace(
            options=self.options._replace(parallelism=workers, morsel_size=morsel_size)
        )

    def distributed(self, workers: int = 2) -> "Query":
        """Execute on *workers* worker processes over table shards.

        The provider compiles once, broadcasts the artifact, scatters
        contiguous shards of the driving table, and merges the partials
        with the same algebra thread-parallel execution uses — results
        are exactly those of sequential execution.  Queries outside the
        distributable fragment (and non-StructArray sources) silently
        fall back to the thread tier; ``workers=0`` forces in-process
        execution even when ``REPRO_DISTRIBUTED`` is on.
        """
        return self._replace(options=self.options._replace(distributed=workers))

    def with_params(self, **params: Any) -> "Query":
        """Bind values for :func:`~repro.expressions.builder.P` parameters."""
        return self._replace(params={**self.params, **params})

    @property
    def provider(self):
        if self._provider is None:
            from .provider import default_provider

            return default_provider()
        return self._provider

    # -- standard query operators ---------------------------------------------

    def where(self, predicate: Callable) -> "Query":
        """Keep elements for which *predicate* holds."""
        return self._chain("where", trace_lambda(predicate))

    def select(self, selector: Callable) -> "Query":
        """Map each element through *selector*."""
        return self._chain("select", trace_lambda(selector, group_params=(0,)))

    def select_many(
        self, collection: Callable, result: Optional[Callable] = None
    ) -> "Query":
        """Flatten a per-element collection; optional 2-ary result selector."""
        args = [trace_lambda(collection)]
        if result is not None:
            args.append(trace_lambda(result, arity=2))
        return self._chain("select_many", *args)

    def join(
        self,
        inner: "Query",
        outer_key: Callable,
        inner_key: Callable,
        result: Callable,
    ) -> "Query":
        """Hash equi-join with *inner* (build side)."""
        if not isinstance(inner, Query):
            raise TranslationError("join inner source must be a Query")
        inner_expr, sources, params = self._merge(inner)
        expr = QueryOp(
            "join",
            self.expr,
            (
                inner_expr,
                trace_lambda(outer_key),
                trace_lambda(inner_key),
                trace_lambda(result, arity=2),
            ),
        )
        return self._replace(expr=expr, sources=sources, params=params)

    def left_outer_join(
        self,
        inner: "Query",
        outer_key: Callable,
        inner_key: Callable,
        result: Callable,
        default: Any,
    ) -> "Query":
        """Left outer equi-join: unmatched outer elements pair with
        *default* (LINQ's ``GroupJoin``+``DefaultIfEmpty`` idiom).

        The type system has no nulls, so *default* supplies the stand-in
        right element explicitly — a dict of field values for record
        elements (``{"okey": 0}``) or a plain value for scalar elements.
        """
        if not isinstance(inner, Query):
            raise TranslationError("left_outer_join inner source must be a Query")
        inner_expr, sources, params = self._merge(inner)
        expr = QueryOp(
            "left_outer_join",
            self.expr,
            (
                inner_expr,
                trace_lambda(outer_key),
                trace_lambda(inner_key),
                trace_lambda(result, arity=2),
                _default_expr(default),
            ),
        )
        return self._replace(expr=expr, sources=sources, params=params)

    def join_semi(
        self, inner: "Query", outer_key: Callable, inner_key: Callable
    ) -> "Query":
        """Keep outer elements with at least one key match in *inner*
        (``EXISTS``); output elements are the outer elements unchanged."""
        return self._existence_join("join_semi", inner, outer_key, inner_key)

    def join_anti(
        self, inner: "Query", outer_key: Callable, inner_key: Callable
    ) -> "Query":
        """Keep outer elements with *no* key match in *inner*
        (``NOT EXISTS``); output elements are the outer elements unchanged."""
        return self._existence_join("join_anti", inner, outer_key, inner_key)

    def _existence_join(
        self, name: str, inner: "Query", outer_key: Callable, inner_key: Callable
    ) -> "Query":
        if not isinstance(inner, Query):
            raise TranslationError(f"{name} inner source must be a Query")
        inner_expr, sources, params = self._merge(inner)
        expr = QueryOp(
            name,
            self.expr,
            (inner_expr, trace_lambda(outer_key), trace_lambda(inner_key)),
        )
        return self._replace(expr=expr, sources=sources, params=params)

    def group_by(self, key: Callable, result: Optional[Callable] = None) -> "Query":
        """Group by *key*; optional group result selector (sees ``g.key``,
        ``g.sum(...)``, ``g.count()``, ...)."""
        args = [trace_lambda(key)]
        if result is not None:
            args.append(trace_lambda(result, group_params=(0,)))
        return self._chain("group_by", *args)

    def order_by(self, key: Callable) -> "Query":
        return self._chain("order_by", trace_lambda(key))

    def order_by_desc(self, key: Callable) -> "Query":
        return self._chain("order_by_desc", trace_lambda(key))

    def then_by(self, key: Callable) -> "Query":
        return self._chain("then_by", trace_lambda(key))

    def then_by_desc(self, key: Callable) -> "Query":
        return self._chain("then_by_desc", trace_lambda(key))

    def take(self, count: Any) -> "Query":
        return self._chain("take", unwrap(count))

    def skip(self, count: Any) -> "Query":
        return self._chain("skip", unwrap(count))

    def distinct(self) -> "Query":
        return self._chain("distinct")

    def concat(self, other: "Query") -> "Query":
        other_expr, sources, params = self._merge(other)
        expr = QueryOp("concat", self.expr, (other_expr,))
        return self._replace(expr=expr, sources=sources, params=params)

    def union(self, other: "Query") -> "Query":
        """Set union with duplicate elimination (SQL ``UNION``); the bag
        union is :meth:`union_all`."""
        return self._binary_setop("union", other)

    def union_all(self, other: "Query") -> "Query":
        """Bag union (SQL ``UNION ALL``): every element of both inputs,
        duplicates preserved — an alias of :meth:`concat` in LINQ terms."""
        return self._binary_setop("union_all", other)

    def intersect(self, other: "Query") -> "Query":
        """Bag intersection (SQL ``INTERSECT ALL``): each element keeps
        ``min(l, r)`` copies, in this query's order."""
        return self._binary_setop("intersect", other)

    def except_(self, other: "Query") -> "Query":
        """Bag difference (SQL ``EXCEPT ALL``): each element keeps
        ``max(0, l - r)`` copies, in this query's order."""
        return self._binary_setop("except_", other)

    def _binary_setop(self, name: str, other: "Query") -> "Query":
        if not isinstance(other, Query):
            raise TranslationError(f"{name} operand must be a Query")
        other_expr, sources, params = self._merge(other)
        expr = QueryOp(name, self.expr, (other_expr,))
        return self._replace(expr=expr, sources=sources, params=params)

    # -- execution (deferred until here) ------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return self.provider.execute(
            self.expr, list(self.sources), self.engine, self.params, self.options
        )

    def to_list(self) -> List[Any]:
        """Run the query and materialize every result element."""
        return list(self)

    def explain(self) -> str:
        """What *would* run: the optimized logical plan, the chosen
        engine, its capability verdict (compiling, if the artifact is not
        cached yet), and the tier decision with its fallback reasons.
        The first line is the plan root.
        """
        from ..observability.explain import explain_report

        return explain_report(
            self.provider,
            self.expr,
            list(self.sources),
            self.engine,
            self.params,
            self.options,
        ).render()

    def explain_analyze(self) -> Any:
        """What actually ran: **executes the query** and returns an
        :class:`~repro.observability.explain.ExplainAnalysis` — the plan
        annotated with measured per-phase wall times, the result row
        count, compiled-code cache status, and (under parallel
        execution) the morsel dispatch/merge accounting.  ``str()`` it
        for the rendered report.
        """
        from ..observability.explain import explain_analyze

        return explain_analyze(
            self.provider,
            self.expr,
            list(self.sources),
            self.engine,
            self.params,
            self.options,
        )

    # -- terminal scalar aggregates (single compiled pass) -------------------------

    def _scalar(self, name: str, *args: Expr) -> Any:
        return self.provider.execute_scalar(
            QueryOp(name, self.expr, tuple(args)),
            list(self.sources),
            self.engine,
            self.params,
            self.options,
        )

    def count(self, predicate: Optional[Callable] = None) -> int:
        args = (trace_lambda(predicate),) if predicate else ()
        return self._scalar("count", *args)

    def sum(self, selector: Optional[Callable] = None) -> Any:
        args = (trace_lambda(selector),) if selector else ()
        return self._scalar("sum", *args)

    def min(self, selector: Optional[Callable] = None) -> Any:
        args = (trace_lambda(selector),) if selector else ()
        return self._scalar("min", *args)

    def max(self, selector: Optional[Callable] = None) -> Any:
        args = (trace_lambda(selector),) if selector else ()
        return self._scalar("max", *args)

    def average(self, selector: Optional[Callable] = None) -> Any:
        args = (trace_lambda(selector),) if selector else ()
        return self._scalar("average", *args)

    # -- terminal element accessors (pull lazily from the result) -------------------

    def first(self, predicate: Optional[Callable] = None) -> Any:
        """First (matching) element; raises when none exists."""
        source = self.where(predicate) if predicate else self
        for element in source:
            return element
        raise ExecutionError("sequence contains no matching element")

    def first_or_default(
        self, predicate: Optional[Callable] = None, default: Any = None
    ) -> Any:
        source = self.where(predicate) if predicate else self
        for element in source:
            return element
        return default

    def any(self, predicate: Optional[Callable] = None) -> bool:
        source = self.where(predicate) if predicate else self
        for _ in source:
            return True
        return False

    def all(self, predicate: Callable) -> bool:
        inverted = trace_lambda(predicate)
        from ..expressions.nodes import Unary

        negated = Lambda(
            inverted.params, Unary("not", inverted.body), inverted.effects
        )
        return not self._replace(
            expr=QueryOp("where", self.expr, (negated,))
        ).any()

    def contains(self, value: Any) -> bool:
        for element in self:
            if element == value:
                return True
        return False

    def single(self, predicate: Optional[Callable] = None) -> Any:
        """The only (matching) element; raises unless exactly one exists."""
        source = self.where(predicate) if predicate else self
        found = _MISSING
        for element in source:
            if found is not _MISSING:
                raise ExecutionError("sequence contains more than one element")
            found = element
        if found is _MISSING:
            raise ExecutionError("sequence contains no matching element")
        return found

    def element_at(self, index: int) -> Any:
        """The element at *index* (0-based); raises when out of range."""
        if index < 0:
            raise ExecutionError("element_at index must be non-negative")
        for position, element in enumerate(self):
            if position == index:
                return element
        raise ExecutionError(f"sequence has no element at index {index}")

    def reverse(self) -> List[Any]:
        """The materialized result in reverse order (LINQ's Reverse is
        blocking, so this terminal form is equivalent)."""
        materialized = self.to_list()
        materialized.reverse()
        return materialized

    def to_dict(self, key: Callable, value: Optional[Callable] = None) -> Dict:
        """Materialize into a dict; raises on duplicate keys (like LINQ's
        ToDictionary).  *key*/*value* are plain Python callables applied to
        result elements — the query itself has already run."""
        result: Dict[Any, Any] = {}
        for element in self:
            k = key(element)
            if k in result:
                raise ExecutionError(f"duplicate key in to_dict: {k!r}")
            result[k] = value(element) if value else element
        return result

    def aggregate(self, seed: Any, fn: Callable[[Any, Any], Any]) -> Any:
        """Left fold over the result with a plain Python function."""
        accumulator = seed
        for element in self:
            accumulator = fn(accumulator, element)
        return accumulator

    def __repr__(self) -> str:
        return f"Query(engine={self.engine!r}, sources={len(self.sources)})"


_MISSING = object()


class QList(list):
    """A list whose queries route through the compilation provider.

    The paper's ``QList<T>``: "application code does not need to be
    modified more than replacing the C# collection classes with their
    functionally-equivalent wrapper collections" (§3).

    An optional :class:`~repro.storage.schema.Schema` declares the flat
    native layout of the elements, sparing the hybrid engine its sampling
    inference (C# gets this from reflection; Python must be told).
    """

    def __init__(
        self,
        items: Iterable[Any] = (),
        token: Optional[str] = None,
        schema: Any = None,
    ):
        super().__init__(items)
        self.schema = schema
        self._token = token or (schema.token if schema is not None else None)

    def as_query(self, engine: str = DEFAULT_ENGINE) -> Query:
        return from_iterable(self, engine=engine, token=self._token)

    # convenience: start the most common chains directly on the collection
    def where(self, predicate: Callable) -> Query:
        return self.as_query().where(predicate)

    def select(self, selector: Callable) -> Query:
        return self.as_query().select(selector)

    def order_by(self, key: Callable) -> Query:
        return self.as_query().order_by(key)

    def group_by(self, key: Callable, result: Optional[Callable] = None) -> Query:
        return self.as_query().group_by(key, result)


def from_iterable(
    items: Sequence[Any],
    engine: str = DEFAULT_ENGINE,
    token: Optional[str] = None,
    schema: Any = None,
) -> Query:
    """Wrap an in-memory collection as a queryable source.

    *items* must be re-iterable (a list, not a generator): deferred
    execution may consume the source more than once.  An optional *schema*
    declares the elements' flat native layout for the hybrid engine
    (otherwise it is inferred by sampling).
    """
    if iter(items) is items:
        raise ExecutionError(
            "query sources must be re-iterable collections, not one-shot iterators"
        )
    if schema is not None and getattr(items, "schema", None) is not schema:
        items = QList(items, token=token, schema=schema)
    if token is None and schema is not None:
        token = schema.token
    resolved = _source_token(items, token)
    return Query(SourceExpr(0, resolved), (items,), engine=engine)


def from_struct_array(array: StructArray, engine: str = "native") -> Query:
    """Wrap a row-store :class:`StructArray`; unlocks the native engine."""
    return Query(SourceExpr(0, array.schema.token), (array,), engine=engine)
