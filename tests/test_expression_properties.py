"""Property tests over randomly generated expression trees.

Four invariants, each checked on hypothesis-generated trees:

* the interpreter and the printed-then-eval'd source agree (the §4 premise
  that inlined code preserves interpreted semantics);
* constant folding never changes a tree's value;
* parameterization round-trips: evaluating the lifted tree with its
  bindings equals evaluating the original;
* the one-pass canonicalizer equals folding then lifting, and is
  idempotent.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expressions import (
    Binary,
    Conditional,
    Constant,
    Lambda,
    Member,
    New,
    QueryOp,
    ScalarPrinter,
    SourceExpr,
    Unary,
    Var,
    canonicalize,
    fold_constants,
    interpret,
    parameterize,
    structural_key,
)

_ELEMENT = SimpleNamespace(a=3, b=-7, c=12)

_NUMERIC_BINOPS = ("add", "sub", "mul")
_COMPARISONS = ("eq", "ne", "lt", "le", "gt", "ge")


@st.composite
def numeric_expr(draw, depth=3):
    """A random integer-valued expression over Vars and Constants."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return Constant(draw(st.integers(-50, 50)))
        return Member(Var("s"), draw(st.sampled_from(["a", "b", "c"])))
    kind = draw(st.sampled_from(["binary", "unary", "conditional"]))
    if kind == "binary":
        return Binary(
            draw(st.sampled_from(_NUMERIC_BINOPS)),
            draw(numeric_expr(depth=depth - 1)),
            draw(numeric_expr(depth=depth - 1)),
        )
    if kind == "unary":
        return Unary(
            draw(st.sampled_from(["neg", "abs"])),
            draw(numeric_expr(depth=depth - 1)),
        )
    condition = Binary(
        draw(st.sampled_from(_COMPARISONS)),
        draw(numeric_expr(depth=depth - 1)),
        draw(numeric_expr(depth=depth - 1)),
    )
    return Conditional(
        condition,
        draw(numeric_expr(depth=depth - 1)),
        draw(numeric_expr(depth=depth - 1)),
    )


class TestRandomExpressionInvariants:
    @given(numeric_expr())
    @settings(max_examples=150, deadline=None)
    def test_printer_matches_interpreter(self, expr):
        interpreted = interpret(expr, env={"s": _ELEMENT})
        printer = ScalarPrinter(var_map={"s": "element"})
        source = printer.emit(expr)
        scope = dict(printer.namespace)
        scope["element"] = _ELEMENT
        compiled = eval(source, scope)  # noqa: S307 - our own codegen
        assert compiled == interpreted

    @given(numeric_expr())
    @settings(max_examples=150, deadline=None)
    def test_constant_folding_preserves_value(self, expr):
        folded = fold_constants(expr)
        assert interpret(folded, env={"s": _ELEMENT}) == interpret(
            expr, env={"s": _ELEMENT}
        )

    @given(numeric_expr())
    @settings(max_examples=150, deadline=None)
    def test_parameterization_round_trips(self, expr):
        lifted, bindings = parameterize(expr)
        assert interpret(lifted, env={"s": _ELEMENT}, params=bindings) == interpret(
            expr, env={"s": _ELEMENT}
        )

    @given(numeric_expr(), numeric_expr())
    @settings(max_examples=100, deadline=None)
    def test_canonical_keys_respect_structure(self, left, right):
        # two trees share a canonical key iff they differ only in constants;
        # here we only require the cheap direction: equal trees ⇒ equal keys
        assert canonicalize(left).key == canonicalize(left).key
        if left == right:
            assert canonicalize(left).key == canonicalize(right).key

    @given(numeric_expr())
    @settings(max_examples=100, deadline=None)
    def test_variable_free_trees_fold_to_constants(self, expr):
        from repro.expressions import free_vars

        if not free_vars(expr):
            folded = fold_constants(expr)
            assert isinstance(folded, Constant)


@st.composite
def query_expr(draw):
    """A where → select → take query whose lambdas hold numeric_expr
    bodies, some divided by a subtree that may fold to zero (a fold that
    fails and must stay in the tree)."""
    source = SourceExpr(0, "S")
    predicate = Binary("gt", draw(numeric_expr()), draw(numeric_expr()))
    projected = draw(numeric_expr())
    if draw(st.booleans()):
        projected = Binary("floordiv", projected, draw(numeric_expr(depth=1)))
    return QueryOp(
        "take",
        QueryOp(
            "select",
            QueryOp("where", source, (Lambda(("s",), predicate),)),
            (Lambda(("s",), New((("v", projected),))),),
        ),
        (Constant(draw(st.integers(0, 9))),),
    )


class TestOnePassCanonicalizer:
    """``canonicalize`` folds, lifts and keys in one walk; the two-pass
    ``parameterize(fold_constants(e))`` is its oracle."""

    @staticmethod
    def _oracle(expr):
        return parameterize(fold_constants(expr))

    @given(st.one_of(numeric_expr(), query_expr()))
    @settings(max_examples=200, deadline=None)
    def test_matches_fold_then_parameterize(self, expr):
        tree, bindings = self._oracle(expr)
        canonical = canonicalize(expr)
        assert canonical.tree == tree
        assert list(canonical.bindings.items()) == list(bindings.items())
        assert canonical.key == structural_key(tree)

    @given(st.one_of(numeric_expr(), query_expr()))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, expr):
        canonical = canonicalize(expr)
        again = canonicalize(canonical.tree)
        assert again.key == canonical.key
        assert again.bindings == {}

    @given(query_expr())
    @settings(max_examples=50, deadline=None)
    def test_memoised_on_the_tree(self, expr):
        # every constant here is an int: the form is computed once
        assert canonicalize(expr) is canonicalize(expr)


# ---------------------------------------------------------------------------
# Set-operation algebra: engine results vs a collections.Counter oracle
# ---------------------------------------------------------------------------

_rows = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(["aa", "bb"])), max_size=12
)


class TestSetOperationAlgebra:
    """Bag-semantics laws, checked against multiset arithmetic.

    ``union_all`` is concatenation; ``intersect`` keeps the first
    ``min(l, r)`` copies of each row; ``except_`` keeps the copies beyond
    the right count; ``union`` dedups in first-occurrence order.  The
    oracle is ``collections.Counter`` — the ground truth the probe-and-
    decrement multiset build must reproduce, element order included.
    """

    ENGINES = ("linq", "compiled")

    @staticmethod
    def _queries(left_rows, right_rows, engine):
        from repro.query import from_iterable
        from repro.storage import Field, Schema, StructArray

        schema = Schema([Field("a", "int"), Field("s", "str", 2)], name="P")
        left = StructArray.from_rows(schema, left_rows).to_objects()
        right = StructArray.from_rows(schema, right_rows).to_objects()
        return (
            from_iterable(left, schema=schema).using(engine),
            from_iterable(right, schema=schema).using(engine),
        )

    @staticmethod
    def _tuples(rows):
        return [(r.a, r.s) for r in rows]

    @given(_rows, _rows)
    @settings(max_examples=60, deadline=None)
    def test_union_all_is_concatenation(self, lrows, rrows):
        for engine in self.ENGINES:
            left, right = self._queries(lrows, rrows, engine)
            got = self._tuples(left.union_all(right).to_list())
            assert got == lrows + rrows

    @given(_rows, _rows)
    @settings(max_examples=60, deadline=None)
    def test_intersect_matches_counter_min(self, lrows, rrows):
        from collections import Counter

        for engine in self.ENGINES:
            left, right = self._queries(lrows, rrows, engine)
            got = self._tuples(left.intersect(right).to_list())
            assert Counter(got) == Counter(lrows) & Counter(rrows)
            # first-min(l, r)-copies order: got is a subsequence of lrows
            it = iter(lrows)
            assert all(any(x == y for y in it) for x in got)

    @given(_rows, _rows)
    @settings(max_examples=60, deadline=None)
    def test_except_matches_counter_difference(self, lrows, rrows):
        from collections import Counter

        for engine in self.ENGINES:
            left, right = self._queries(lrows, rrows, engine)
            got = self._tuples(left.except_(right).to_list())
            assert Counter(got) == Counter(lrows) - Counter(rrows)

    @given(_rows, _rows)
    @settings(max_examples=60, deadline=None)
    def test_intersect_except_partition_the_left_side(self, lrows, rrows):
        """Every left row lands in exactly one of intersect/except, and
        merging the two back together restores the left side in order."""
        for engine in self.ENGINES:
            left, right = self._queries(lrows, rrows, engine)
            kept = self._tuples(left.intersect(right).to_list())
            dropped = self._tuples(left.except_(right).to_list())
            assert sorted(kept + dropped) == sorted(lrows)

    @given(_rows, _rows)
    @settings(max_examples=60, deadline=None)
    def test_union_dedups_in_first_occurrence_order(self, lrows, rrows):
        for engine in self.ENGINES:
            left, right = self._queries(lrows, rrows, engine)
            got = self._tuples(left.union(right).to_list())
            seen, expected = set(), []
            for row in lrows + rrows:
                if row not in seen:
                    seen.add(row)
                    expected.append(row)
            assert got == expected
