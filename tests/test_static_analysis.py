"""Static analysis: type inference, plan validation, the verifier gate.

Malformed queries must fail *before* codegen with a typed
``QueryAnalysisError`` on every engine — never with a raw
``NameError``/``AttributeError``/``TypeError`` escaping generated code —
and every generated module must pass the verifier gate.
"""

import datetime
import time
from collections import namedtuple

import numpy as np
import pytest

from pinned_hybrids import pinned_hybrids  # noqa: F401 - fixture
import repro.analysis.effects as effects_module
import repro.codegen.compiler as compiler_module
import repro.codegen.verifier as verifier_module
from repro.analysis.effects import analyze_callable
from repro.codegen.compiler import compile_source
from repro.codegen.hybrid_backend import HybridBackend
from repro.codegen.native_backend import NativeBackend
from repro.codegen.verifier import SAFE_BUILTINS, check_generated, verify_code
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
from repro.query import ENGINES as REPRO_ENGINES
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


#: every engine, plus the pinned buffered-Max hybrid column
ENGINES = REPRO_ENGINES + ("hybrid_buffered",)

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


@pytest.mark.usefixtures("pinned_hybrids")
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

    def test_compiled_query_carries_analysis(self, monkeypatch):
        gated = _spy_gate(monkeypatch)
        provider = QueryProvider()
        q = (
            from_struct_array(make_array())
            .using("compiled", provider)
            .where(lambda s: s.v > 1.0)
        )
        compiled = provider.compile_info(q.expr, q.sources, "compiled")
        assert compiled.analysis is not None
        assert gated == [()]  # the module compiled under the gate, clean


GOOD_SOURCE = '''"""Generated module."""

def execute(sources, _params):
    _param_x = _params['x']
    out_1 = []
    for elem_1 in sources[0]:
        if elem_1 > _param_x:
            out_1.append(elem_1)
    return out_1
'''


def _spy_gate(monkeypatch):
    """The findings of every module the gate judges from now on."""
    real, seen = verifier_module.verify_code, []

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(verifier_module, "verify_code", spy)
    return seen


def _gate(source, namespace):
    """The gate's findings on *source*, compiled as compile_source does."""
    return verify_code(compile(source, "<t>", "exec"), namespace)


class TestVerifier:
    def test_clean_module_passes(self):
        assert _gate(GOOD_SOURCE, {}) == ()

    def test_unbound_name(self):
        corrupted = GOOD_SOURCE.replace("_param_x", "_param_y", 1)
        findings = _gate(corrupted, {})
        assert any("unbound name" in v for v in findings), findings

    def test_missing_namespace_binding(self):
        source = GOOD_SOURCE.replace(
            "elem_1 > _param_x", "_helper(elem_1, _param_x)"
        )
        assert _gate(source, {}) != ()
        # binding the helper in the namespace resolves the load
        assert _gate(source, {"_helper": max}) == ()

    def test_import_forbidden(self):
        source = GOOD_SOURCE.replace(
            "    out_1 = []", "    import os\n    out_1 = []"
        )
        findings = _gate(source, {})
        assert any("import" in v for v in findings), findings

    def test_eval_forbidden(self):
        source = GOOD_SOURCE.replace(
            "elem_1 > _param_x", "eval('elem_1 > _param_x')"
        )
        findings = _gate(source, {})
        assert any("forbidden builtin 'eval'" in v for v in findings), findings

    def test_global_forbidden(self):
        # a bare declaration compiles to nothing; the write is what runs
        source = GOOD_SOURCE.replace(
            "    out_1 = []", "    global leak_1\n    leak_1 = 1\n    out_1 = []"
        )
        findings = _gate(source, {})
        assert any("'global'" in v for v in findings), findings

    def test_missing_entry_point(self):
        source = GOOD_SOURCE.replace("def execute", "def run")
        findings = _gate(source, {})
        assert any("entry point" in v for v in findings), findings

    def test_wrong_entry_signature(self):
        source = GOOD_SOURCE.replace(
            "def execute(sources, _params):",
            "def execute(sources, _params, extra):",
        )
        findings = _gate(source, {})
        assert any("exactly (sources, params)" in v for v in findings), findings

    def test_top_level_statement_rejected(self):
        source = GOOD_SOURCE + "\nSTATE = {}\n"
        findings = _gate(source, {})
        assert any("top-level code runs" in v for v in findings), findings

    def test_local_shadowing_namespace(self):
        source = GOOD_SOURCE.replace("out_1 = []", "_np = []")
        findings = _gate(source, {"_np": np})
        assert any("shadows a namespace binding" in v for v in findings), findings

    def test_comprehensions_and_nested_defs_resolve(self):
        source = dict(case[:2] for case in CLEAN)["nested_defs_comprehensions_del"]
        assert _gate(source, {}) == ()

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

    def test_syntax_error_raises_codegen_error(self):
        with pytest.raises(CodegenError, match="does not parse"):
            compile_source("def execute(sources, _params:\n  pass", {})


def _in_body(line):
    """GOOD_SOURCE with *line* planted first in execute's body."""
    header = "def execute(sources, _params):\n"
    return GOOD_SOURCE.replace(header, header + line + "\n", 1)


_HELPER_SOURCE = GOOD_SOURCE.replace(
    "elem_1 > _param_x", "_helper(elem_1, _param_x)"
)

#: (label, module, namespace) — modules the gate must accept
CLEAN = [
    ("good_source", GOOD_SOURCE, {}),
    ("namespace_bound_helper", _HELPER_SOURCE, {"_helper": max}),
    (
        "nested_defs_comprehensions_del",
        '''"""Generated module."""

def execute(sources, _params):
    def _consume_1(rows_1):
        return [r_1 for r_1 in rows_1 if r_1 > 0]
    page_1 = []
    append_1 = page_1.append
    for elem_1 in sources[0]:
        append_1(elem_1)
        del page_1[:]
    return _consume_1(sorted(sources[0]))
''',
        {},
    ),
]

#: (label, module, namespace, what the gate's finding says) — one module
#: per violation class, each written so that the violation runs
GATED = [
    (
        "unbound_name",
        GOOD_SOURCE.replace("_param_x", "_param_y", 1),
        {},
        "unbound name '_param_x' at line 7",
    ),
    (
        "missing_namespace_binding",
        _HELPER_SOURCE,
        {},
        "unbound name '_helper' at line 7",
    ),
    ("eval", _in_body("    eval('1')"), {}, "forbidden builtin 'eval' at line 4"),
    ("open_local", _in_body("    open = 1"), {}, "forbidden builtin 'open' at line 4"),
    ("import", _in_body("    import os"), {}, "import statement at line 4"),
    (
        "global_write",
        _in_body("    global leak_1\n    leak_1 = 1"),
        {},
        "'global' declaration at line 5",
    ),
    (
        "nonlocal_write",
        _in_body(
            "    leak_1 = 0\n    def _inner_1():\n"
            "        nonlocal leak_1\n        leak_1 = 1"
        ),
        {},
        "'nonlocal' write to 'leak_1' at line 7",
    ),
    (
        "shadowing",
        _in_body("    _np = []"),
        {"_np": np},
        "local binding '_np' at line 4 shadows a namespace binding",
    ),
    (
        "top_level_statement",
        GOOD_SOURCE + "\nSTATE = {}\n",
        {},
        "top-level code runs BUILD_MAP at line 11",
    ),
    (
        "missing_entry_point",
        GOOD_SOURCE.replace("def execute", "def run"),
        {},
        "defines no 'execute' entry point",
    ),
    (
        "entry_signature",
        GOOD_SOURCE.replace("_params):", "_params, extra):"),
        {},
        "entry point at line 3 must take exactly (sources, params)",
    ),
    (
        "entry_defaults",
        GOOD_SOURCE.replace("_params):", "_params=None):"),
        {},
        "top-level code runs a decorated or defaulted def at line 3",
    ),
    (
        "decorated_entry",
        GOOD_SOURCE.replace(
            "def execute",
            "def _wrap_1(fn_1):\n    return fn_1\n\n@_wrap_1\ndef execute",
        ),
        {},
        "top-level code runs LOAD_NAME at line 6",
    ),
    (
        "class_body",
        _in_body("    class K_1:\n        z_1 = 1"),
        {},
        "class body 'K_1' at line 4",
    ),
]


class TestCodeObjectGate:
    """compile_source judges the code object compile() built, and each
    finding names its line."""

    @pytest.mark.parametrize(
        "source,namespace",
        [case[1:] for case in CLEAN],
        ids=[case[0] for case in CLEAN],
    )
    def test_gate_accepts(self, source, namespace):
        assert verify_code(compile(source, "<t>", "exec"), namespace) == ()

    @pytest.mark.parametrize(
        "source,namespace,says",
        [case[1:] for case in GATED],
        ids=[case[0] for case in GATED],
    )
    def test_gate_rejects_naming_the_line(self, source, namespace, says):
        with pytest.raises(GeneratedCodeViolation) as excinfo:
            compile_source(source, dict(namespace))
        violations = excinfo.value.violations
        assert any(says in v for v in violations), violations
        # only a missing entry point has no instruction to point at
        assert all(" at line " in v or "defines no" in v for v in violations)
        assert excinfo.value.source == source

    def test_code_that_compiles_to_nothing_is_not_judged(self):
        # an unused 'global' runs nothing
        entry, _ = compile_source(_in_body("    global leak_1"), {})
        assert entry([[1, 5]], {"x": 2}) == [5]

    def test_clean_module_compiles_once_and_passes_the_gate(self, monkeypatch):
        compiles = []

        def counted(*args, **kwargs):
            compiles.append(args[1])
            return compile(*args, **kwargs)

        monkeypatch.setattr(compiler_module, "compile", counted, raising=False)
        gated = _spy_gate(monkeypatch)
        provider = QueryProvider()
        for engine in REPRO_ENGINES[1:]:
            # sequential: one module per engine, no morsel kernels
            q = _array(engine, provider).where(lambda s: s.v > 2.0)
            q = q.select(lambda s: s.k).in_parallel(1)
            assert q.to_list() == [2]
        assert compiles == ["<repro-generated>"] * 3
        assert gated == [()] * 3

    def test_check_generated_parses_when_given_no_code(self):
        assert check_generated(GOOD_SOURCE, {}) is None
        with pytest.raises(GeneratedCodeViolation, match="does not parse: "):
            check_generated("def execute(sources, _params:\n  pass", {})

    def test_gate_accepts_every_tpch_module(self):
        """Every TPC-H module each codegen engine emits passes the gate."""
        from repro.tpch import TPCHData, q1, q2, q3, q4, q13, q16, q21, q22

        data = TPCHData(scale=0.002)
        checked = 0
        for engine in REPRO_ENGINES[1:]:
            provider = QueryProvider()
            for builder in (q1, q2, q3, q4, q13, q16, q21, q22):
                q = builder(data, engine, provider=provider)
                try:
                    compiled = provider.compile_info(q.expr, q.sources, engine)
                except UnsupportedQueryError:
                    continue
                code = compile(compiled.source_code, "<t>", "exec")
                assert verify_code(code, compiled.fn.__globals__) == ()
                checked += 1
        assert checked >= 16


def _array(engine, provider):
    return from_struct_array(make_array()).using(engine, provider)


def _objects(engine, provider, token="t:refusal"):
    items = [Obj(1, "aa", 1.5), Obj(2, "bb", 2.5)]
    return from_iterable(items, token=token).using(engine, provider)


def _filter_over_projection(provider):
    return (
        _objects("hybrid", provider)
        .select(lambda s: new(k=s.k, w=s.v * 2))
        .where(lambda r: r.w > 1.0)
        .order_by(lambda r: r.k)
    )


_OUTSIDE_FRAGMENT = (
    "plan node {} is outside the native fragment (§5 restrictions); "
    "use the compiled engine"
)

#: one query per engine restriction, with the exact refusal text users
#: see — the provider passes on the compiling backend's own
REFUSALS = {
    "native-object-list": (
        "native",
        lambda p: _objects("native", p).where(lambda s: s.v > 1.0),
        "the native engine requires StructArray sources; source_0 is list "
        "(use the compiled or hybrid engine for object collections)",
    ),
    "native-select-many": (
        "native",
        lambda p: _array("native", p).select_many(lambda s: [s.k, s.k]),
        _OUTSIDE_FRAGMENT.format("FlatMap"),
    ),
    "native-group-by": (
        "native",
        lambda p: _array("native", p).group_by(lambda s: s.k),
        _OUTSIDE_FRAGMENT.format("GroupBy"),
    ),
    "native-nested-member": (
        "native",
        lambda p: _array("native", p).select(lambda s: s.d.year),
        "nested member access 'year' is not representable in the flat "
        "native layout (the §5 'no references' rule)",
    ),
    "native-whole-record": (
        "native",
        lambda p: _array("native", p).select(lambda r: new(a=r, b=r.k)),
        "native code cannot manipulate whole records as values; access "
        "their fields instead (the §5 'no references' rule)",
    ),
    "native-join-whole-record": (
        "native",
        lambda p: _array("native", p).join(
            _array("native", p),
            lambda a: a.k,
            lambda b: b.k,
            lambda a, b: new(a=a, v=b.v),
        ),
        "native join results cannot embed whole input records (the §5 "
        "'no references' rule); project explicit fields",
    ),
    "hybrid-whole-element": (
        "hybrid",
        # distinct compares the embedded element: no row index stands in
        lambda p: _objects("hybrid", p).select(lambda r: new(a=r, b=r.k)).distinct(),
        "the query uses whole elements of source_0 beyond the staging "
        "boundary; the hybrid engine requires flat field access (use the "
        "compiled engine)",
    ),
    "hybrid-group-by": (
        "hybrid",
        lambda p: _objects("hybrid", p).group_by(lambda s: s.k),
        _OUTSIDE_FRAGMENT.format("GroupBy"),
    ),
}


class TestCapabilityReports:
    def test_provider_uses_capability_for_native_sources(self):
        items = [Obj(1, "aa", 1.5)]
        q = from_iterable(items, token="t:cap").using("native").where(
            lambda s: s.v > 1.0
        )
        with pytest.raises(UnsupportedQueryError, match="StructArray"):
            q.to_list()

    def test_min_staging_shape_rejected(self):
        # minimal staging rejects what Max rejects: an element an operator
        # compares (here distinct) cannot cross as its row index
        q = from_iterable([Obj(1, "aa", 1.5)], token="t:min").using("hybrid").distinct()
        shape = q.provider.shape(q.expr, list(q.sources))
        with pytest.raises(UnsupportedQueryError) as pinned:
            shape.compile_with(HybridBackend(minimal=True))
        with pytest.raises(UnsupportedQueryError) as rule:
            q.to_list()
        assert str(pinned.value) == str(rule.value)
        assert "whole elements of source_0" in str(rule.value)

    @pytest.mark.parametrize(
        "build",
        (
            lambda p: _array("hybrid", p).group_by(
                lambda s: s.k, lambda g: new(k=g.key, n=g.count())
            ),
            _filter_over_projection,
            lambda p: _objects("hybrid", p).left_outer_join(
                _objects("hybrid", p, token="t:inner"),
                lambda a: a.k,
                lambda b: b.k,
                lambda a, b: new(k=a.k, v=b.v),
                {"k": 0, "v": 0.0},
            ),
        ),
        ids=("group-by", "filter-over-projection", "left-outer-join"),
    )
    def test_min_builds_the_plans_it_refused(self, build):
        provider = QueryProvider()
        q = build(provider)
        shape = provider.shape(q.expr, list(q.sources))
        compiled = shape.compile_with(HybridBackend(minimal=True))
        rows = list(compiled.execute(shape.sources, shape.bindings))
        assert rows == q.using("linq", provider).to_list()

    @pytest.mark.parametrize(
        "engine, build, message",
        [pytest.param(*case, id=case_id) for case_id, case in REFUSALS.items()],
    )
    def test_provider_refusal_is_the_backends(self, engine, build, message):
        provider = QueryProvider()
        q = build(provider)
        sources = list(q.sources)
        shape = provider.shape(q.expr, sources)
        backend = NativeBackend() if engine == "native" else HybridBackend()
        with pytest.raises(UnsupportedQueryError) as through_provider:
            q.to_list()
        with pytest.raises(UnsupportedQueryError) as direct:
            backend.compile(shape.plan(), sources)
        assert type(through_provider.value) is UnsupportedQueryError
        assert str(through_provider.value) == str(direct.value) == message


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


_SINK = None


def _writes_global(r):
    global _SINK
    _SINK = r
    return r.x


def _appender(captured):
    """Every closure this makes shares one code object."""
    return lambda r: captured.append(r)


class TestEffectMemo:
    """The bytecode scan is memoised per code object; what a closure
    captures is still judged per closure."""

    def test_closures_of_one_def_are_judged_by_their_own_cells(self):
        over_list, over_tuple = _appender([]), _appender(())
        assert over_list.__code__ is over_tuple.__code__
        for _ in range(2):  # the second round reads the memoised scan
            mutating = analyze_callable(over_list)
            assert mutating.mutates
            assert mutating.describe() == (
                "mutating (captures mutable list 'captured' and calls 'append')"
            )
            assert analyze_callable(over_tuple).pure

    def test_memoised_verdicts_match_the_first_scan(self):
        callables = (
            _writes_global,
            lambda r: id(r),
            lambda r: r.id > 3,
            lambda r: time.time(),
        )
        first = [analyze_callable(fn) for fn in callables]
        hits = effects_module._scan_code.cache_info().hits
        assert [analyze_callable(fn) for fn in callables] == first
        assert effects_module._scan_code.cache_info().hits >= hits + len(callables)
        global_write, builtin_id, field_id, clock = first
        assert global_write.mutates
        assert global_write.reasons == ("writes global '_SINK'",)
        assert builtin_id.nondeterministic and "'id'" in builtin_id.reasons[0]
        assert field_id.pure
        assert clock.nondeterministic

    def test_scan_memo_is_bounded(self):
        bound = effects_module.SCAN_CACHE_SIZE
        assert effects_module._scan_code.cache_parameters()["maxsize"] == bound
        for i in range(bound + 50):
            namespace = {}
            exec(compile(f"fn = lambda r: r.x + {i}", "<memo>", "exec"), namespace)
            assert analyze_callable(namespace["fn"]).pure
        assert effects_module._scan_code.cache_info().currsize <= bound
