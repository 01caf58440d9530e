"""Static analysis: type inference, plan validation, AST verifier gate.

Malformed queries must fail *before* codegen with a typed
``QueryAnalysisError`` on every engine — never with a raw
``NameError``/``AttributeError``/``TypeError`` escaping generated code —
and every generated module must pass the AST verifier.
"""

import datetime
import time
from collections import namedtuple

import numpy as np
import pytest

import repro.codegen.compiler as compiler_module
from repro.analysis.effects import analyze_callable
from repro.codegen.compiler import compile_source
from repro.codegen.verifier import (
    SAFE_BUILTINS,
    check_generated,
    verify_source,
)
from repro.errors import (
    CodegenError,
    GeneratedCodeViolation,
    QueryAnalysisError,
    ReproError,
    UnsupportedQueryError,
)
from repro.expressions import new
from repro.expressions.analysis import predicate_cost
from repro.expressions.typing import (
    RecordType,
    ScalarType,
    analyze_query,
    kind_resolver,
    type_from_token,
)
from repro.query import QueryProvider, from_iterable, from_struct_array
from repro.storage import Field, Schema, StructArray

ITEM = Schema(
    [
        Field("k", "int"),
        Field("name", "str", 8),
        Field("v", "float"),
        Field("d", "date"),
    ],
    name="Item",
)

Obj = namedtuple("Obj", ["k", "name", "v"])


def make_array():
    return StructArray.from_rows(
        ITEM,
        [
            (1, "aa", 1.5, datetime.date(1995, 1, 1)),
            (2, "bb", 2.5, datetime.date(1996, 1, 1)),
        ],
    )


ENGINES = ("linq", "compiled", "native", "hybrid", "hybrid_buffered")

#: (label, query builder, expected message fragment)
MALFORMED = [
    (
        "unknown_member_select",
        lambda q: q.select(lambda s: s.nope),
        "no member 'nope'",
    ),
    (
        "unknown_member_where",
        lambda q: q.where(lambda s: s.missing > 1),
        "no member 'missing'",
    ),
    (
        "str_field_vs_int",
        lambda q: q.where(lambda s: s.name == 5),
        "mixed-type comparison",
    ),
    (
        "int_field_vs_str",
        lambda q: q.where(lambda s: s.k == "x"),
        "mixed-type comparison",
    ),
    (
        "str_vs_date_field",
        lambda q: q.where(lambda s: s.name == s.d),
        "mixed-type comparison",
    ),
    (
        "arith_minus_on_str",
        lambda q: q.select(lambda s: s.name - 1),
        "not defined on strings",
    ),
    (
        "arith_plus_on_str_fields",
        lambda q: q.select(lambda s: s.name + s.name),
        "not defined on strings",
    ),
    (
        "bare_aggregate",
        lambda q: q.select(lambda g: new(n=g.count())),
        "outside a group selector",
    ),
    (
        "aggregate_in_group_key",
        lambda q: q.group_by(lambda s: s.count(), lambda g: new(k=g.key)),
        "cannot appear in a group_by key",
    ),
    (
        "non_boolean_predicate",
        lambda q: q.where(lambda s: s.name),
        "predicate must produce a boolean",
    ),
    (
        "logical_and_on_str",
        lambda q: q.where(lambda s: s.name & s.name),
        "requires boolean operands",
    ),
    (
        "negate_str",
        lambda q: q.select(lambda s: -s.name),
        "not defined on str",
    ),
    (
        "member_on_scalar",
        lambda q: q.select(lambda s: s.k.year),
        "cannot access member 'year'",
    ),
    (
        "take_non_integer",
        lambda q: q.take("five"),
        "integer count",
    ),
    (
        "group_key_member_unknown",
        lambda q: q.group_by(
            lambda s: s.absent, lambda g: new(k=g.key, n=g.count())
        ),
        "no member 'absent'",
    ),
]


class TestMalformedQueries:
    """~15 ill-typed queries × every engine → QueryAnalysisError pre-codegen."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "label,build,fragment", MALFORMED, ids=[m[0] for m in MALFORMED]
    )
    def test_rejected_before_codegen(self, engine, label, build, fragment):
        q = build(from_struct_array(make_array()).using(engine))
        with pytest.raises(QueryAnalysisError, match=fragment):
            q.to_list()

    @pytest.mark.parametrize("engine", ("linq", "compiled"))
    def test_object_sources_are_sampled(self, engine):
        items = [Obj(1, "aa", 1.5), Obj(2, "bb", 2.5)]
        q = from_iterable(items, token="t:sa").using(engine).select(
            lambda s: s.nope
        )
        with pytest.raises(QueryAnalysisError, match="no member 'nope'"):
            q.to_list()

    def test_scalar_terminal_rejected(self):
        q = from_struct_array(make_array()).using("compiled")
        with pytest.raises(QueryAnalysisError, match="cannot sum"):
            q.sum(lambda s: s.name)

    def test_error_raised_before_backend_exists(self, monkeypatch):
        """Analysis precedes codegen: the backend is never even built."""
        import repro.query.shape as shape_module

        def explode(engine):
            raise AssertionError("backend constructed for an ill-typed query")

        monkeypatch.setattr(shape_module, "_make_backend", explode)
        q = (
            from_struct_array(make_array())
            .using("compiled", QueryProvider())
            .select(lambda s: s.nope)
        )
        with pytest.raises(QueryAnalysisError):
            q.to_list()

    def test_error_carries_path_and_expression(self):
        q = from_struct_array(make_array()).using("compiled").select(
            lambda s: s.nope
        )
        with pytest.raises(QueryAnalysisError) as excinfo:
            q.to_list()
        err = excinfo.value
        assert err.path  # printed path of the offending sub-expression
        assert err.expression is not None
        assert isinstance(err, ReproError)

    def test_well_typed_queries_unaffected(self):
        for engine in ENGINES:
            q = (
                from_struct_array(make_array())
                .using(engine)
                .where(lambda s: s.v > 1.0)
                .select(lambda s: new(k=s.k, v=s.v))
            )
            assert [r.k for r in q.to_list()] == [1, 2]


class TestAnalysisCaching:
    def test_analysis_cached_alongside_compiled(self):
        provider = QueryProvider()
        arr = make_array()

        def run(engine):
            return (
                from_struct_array(arr)
                .using(engine, provider)
                .where(lambda s: s.v > 1.0)
                .to_list()
            )

        run("compiled")
        assert provider.cache.stats.analysis_misses == 1
        # the analysis key is engine-independent: the linq run reuses it
        run("linq")
        assert provider.cache.stats.analysis_hits >= 1
        assert provider.cache.stats.analysis_misses == 1

    def test_compiled_query_carries_analysis(self):
        provider = QueryProvider()
        q = (
            from_struct_array(make_array())
            .using("compiled", provider)
            .where(lambda s: s.v > 1.0)
        )
        compiled = provider.compile_info(q.expr, q.sources, "compiled")
        assert compiled.analysis is not None
        assert compiled.capability is not None and compiled.capability.supported
        assert compiled.verifier_report is not None
        assert compiled.verifier_report.ok


GOOD_SOURCE = '''"""Generated module."""

def execute(sources, _params):
    _param_x = _params['x']
    out_1 = []
    for elem_1 in sources[0]:
        if elem_1 > _param_x:
            out_1.append(elem_1)
    return out_1
'''


class TestVerifier:
    def test_clean_module_passes(self):
        report = verify_source(GOOD_SOURCE, {})
        assert report.ok, report.describe()

    def test_unbound_name(self):
        corrupted = GOOD_SOURCE.replace("_param_x", "_param_y", 1)
        report = verify_source(corrupted, {})
        assert not report.ok
        assert any("unbound name" in v for v in report.violations)

    def test_missing_namespace_binding(self):
        source = GOOD_SOURCE.replace(
            "elem_1 > _param_x", "_helper(elem_1, _param_x)"
        )
        assert not verify_source(source, {}).ok
        # binding the helper in the namespace resolves the load
        assert verify_source(source, {"_helper": max}).ok

    def test_import_forbidden(self):
        source = GOOD_SOURCE.replace(
            "    out_1 = []", "    import os\n    out_1 = []"
        )
        report = verify_source(source, {})
        assert any("import" in v for v in report.violations)

    def test_eval_forbidden(self):
        source = GOOD_SOURCE.replace(
            "elem_1 > _param_x", "eval('elem_1 > _param_x')"
        )
        report = verify_source(source, {})
        assert any("forbidden builtin 'eval'" in v for v in report.violations)

    def test_global_forbidden(self):
        source = GOOD_SOURCE.replace(
            "    out_1 = []", "    global leak_1\n    out_1 = []"
        )
        report = verify_source(source, {})
        assert any("'global'" in v for v in report.violations)

    def test_missing_entry_point(self):
        source = GOOD_SOURCE.replace("def execute", "def run")
        report = verify_source(source, {})
        assert any("entry point" in v for v in report.violations)

    def test_wrong_entry_signature(self):
        source = GOOD_SOURCE.replace(
            "def execute(sources, _params):",
            "def execute(sources, _params, extra):",
        )
        report = verify_source(source, {})
        assert any("exactly (sources, params)" in v for v in report.violations)

    def test_top_level_statement_rejected(self):
        source = GOOD_SOURCE + "\nSTATE = {}\n"
        report = verify_source(source, {})
        assert any("top-level statement" in v for v in report.violations)

    def test_local_shadowing_namespace(self):
        source = GOOD_SOURCE.replace("out_1 = []", "_np = []")
        report = verify_source(source, {"_np": np})
        assert any("shadows a namespace binding" in v for v in report.violations)

    def test_comprehensions_and_nested_defs_resolve(self):
        source = '''"""Generated module."""

def execute(sources, _params):
    def _consume_1(rows_1):
        return [r_1 for r_1 in rows_1 if r_1 > 0]
    page_1 = []
    append_1 = page_1.append
    for elem_1 in sources[0]:
        append_1(elem_1)
        del page_1[:]
    return _consume_1(sorted(sources[0]))
'''
        report = verify_source(source, {})
        assert report.ok, report.describe()

    def test_check_generated_raises_typed_error(self):
        corrupted = GOOD_SOURCE.replace("_param_x", "_param_y", 1)
        with pytest.raises(GeneratedCodeViolation) as excinfo:
            check_generated(corrupted, {})
        err = excinfo.value
        assert err.violations and err.source
        assert isinstance(err, CodegenError) and isinstance(err, ReproError)

    def test_safe_builtins_are_closed(self):
        assert "eval" not in SAFE_BUILTINS
        assert "exec" not in SAFE_BUILTINS
        assert "open" not in SAFE_BUILTINS


class TestCompileGate:
    CORRUPTED = GOOD_SOURCE.replace("_param_x", "_param_y", 1)

    def test_gate_on_by_default(self):
        with pytest.raises(GeneratedCodeViolation):
            compile_source(self.CORRUPTED, {})

    def test_opt_out_per_call(self):
        entry, _ = compile_source(self.CORRUPTED, {}, verify=False)
        assert callable(entry)  # unbound name only explodes when reached

    def test_opt_out_per_process(self):
        compiler_module.VERIFY_GENERATED = False
        try:
            entry, _ = compile_source(self.CORRUPTED, {})
            assert callable(entry)
        finally:
            compiler_module.VERIFY_GENERATED = None
        with pytest.raises(GeneratedCodeViolation):
            compile_source(self.CORRUPTED, {})

    def test_syntax_error_chains_verifier_report(self):
        with pytest.raises(CodegenError, match="does not parse"):
            compile_source("def execute(sources, _params:\n  pass", {})


class TestCapabilityReports:
    def test_provider_uses_capability_for_native_sources(self):
        items = [Obj(1, "aa", 1.5)]
        q = from_iterable(items, token="t:cap").using("native").where(
            lambda s: s.v > 1.0
        )
        with pytest.raises(UnsupportedQueryError, match="StructArray"):
            q.to_list()

    def test_min_staging_shape_rejected(self):
        q = (
            from_struct_array(make_array())
            .using("hybrid_min")
            .group_by(lambda s: s.k, lambda g: new(k=g.key, n=g.count()))
        )
        with pytest.raises(UnsupportedQueryError, match="Min staging"):
            q.to_list()

    def test_supported_plan_reports_clean(self):
        provider = QueryProvider()
        q = (
            from_struct_array(make_array())
            .using("native", provider)
            .where(lambda s: s.v > 1.0)
        )
        compiled = provider.compile_info(q.expr, q.sources, "native")
        assert compiled.capability.engine == "native"
        assert compiled.capability.supported
        assert compiled.capability.describe().startswith("engine 'native'")


class TestInferredKinds:
    def test_schema_token_roundtrip(self):
        element = type_from_token(ITEM.token)
        assert isinstance(element, RecordType)
        assert element.field_type("k") == ScalarType("int")
        assert element.field_type("name") == ScalarType("str")

    def test_kind_resolver_feeds_predicate_cost(self):
        from repro.expressions import trace_lambda

        element = type_from_token(ITEM.token)
        kind_of = kind_resolver(element, "s")
        str_pred = trace_lambda(lambda s: s.name == s.name, arity=1).body
        int_pred = trace_lambda(lambda s: s.k == s.k, arity=1).body
        assert predicate_cost(str_pred, kind_of) > predicate_cost(
            int_pred, kind_of
        )
        # without the resolver the two rank identically (the old bug)
        assert predicate_cost(str_pred) == predicate_cost(int_pred)

    def test_integer_group_sums_are_exact_int64(self):
        from repro.runtime.vectorized import group_aggregate

        codes = np.array([1, 1, 2], dtype=np.int64)
        values = np.array([2**53 + 1, 1, 5], dtype=np.int64)
        _, results = group_aggregate((codes,), [("sum", values)])
        assert results[0].dtype == np.int64
        # float64 accumulation would round 2**53 + 2 down to 2**53
        assert results[0][0] == 2**53 + 2

    def test_analyze_query_result_type(self):
        arr = make_array()
        q = (
            from_struct_array(arr)
            .using("compiled")
            .select(lambda s: new(k=s.k, total=s.v))
        )
        analysis = analyze_query(q.expr, q.sources)
        assert not analysis.scalar
        assert isinstance(analysis.result, RecordType)
        assert analysis.result.field_type("k") == ScalarType("int")
        assert analysis.result.field_type("total") == ScalarType("float")


class TestEffectBinding:
    """Nondeterminism is judged by what a name is *bound* to: ``id``
    counts only as the builtin (a global load), never as a field."""

    def test_field_named_id_is_deterministic(self):
        assert analyze_callable(lambda r: r.id > 3).pure
        assert analyze_callable(lambda r: r.owner.id + r.id).pure

    def test_builtin_id_is_nondeterministic(self):
        report = analyze_callable(lambda r: id(r))
        assert report.nondeterministic
        assert "'id'" in report.reasons[0]
        assert analyze_callable(lambda r: id(r) + r.id).nondeterministic

    def test_clock_reads_are_still_nondeterministic(self):
        assert analyze_callable(lambda r: time.time()).nondeterministic
        assert analyze_callable(
            lambda r: datetime.datetime.now()
        ).nondeterministic
        assert analyze_callable(lambda r: r.x + 1).pure
