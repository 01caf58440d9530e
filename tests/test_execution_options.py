"""One ``ExecutionOptions`` value from environment to tier.

Two halves, matching :mod:`repro.options`:

* **the declarations** — every ``REPRO_*`` variable parses with the one
  grammar of its kind (a table over every declared variable: unset, a
  valid value, the alternate spellings, garbage), every ``REPRO_*``
  literal in ``src/`` is declared, every declaration has a README row,
  and the consuming layers see what the table says (the regressions
  this module was written for: ``off`` / ``FALSE`` spellings ignored,
  ``REPRO_DISTRIBUTED=garbage`` read two ways);
* **the per-query value** — the serving path honours a query's own
  options (``distributed``, ``trace``) exactly like a direct run does.
"""

import multiprocessing
import re
import time
from pathlib import Path

import pytest

import repro.codegen.verifier as verifier
from repro.adaptive import AdaptiveChooser, ProfileStore
from repro.distributed import shutdown_pools
from repro.observability import TRACER
from repro.options import VARIABLES, env
from repro.query import QueryProvider, from_iterable, from_struct_array
from repro.service import QuerySession
from repro.storage import Field, Schema, StructArray

ROOT = Path(__file__).resolve().parents[1]

SCHEMA = Schema(
    [Field("id", "int"), Field("g", "int"), Field("v", "float")], name="Opts"
)


def _array(n=400):
    return StructArray.from_rows(SCHEMA, [(i, i % 5, i * 0.25) for i in range(n)])


@pytest.fixture(scope="module", autouse=True)
def _no_orphan_workers():
    yield
    shutdown_pools()
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


@pytest.fixture
def clean_env(monkeypatch):
    """No ambient ``REPRO_*`` switch (the CI leg sets REPRO_PARALLELISM)."""
    for name in VARIABLES:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


# ---------------------------------------------------------------------------
# One grammar per kind of value
# ---------------------------------------------------------------------------

#: the alternate spellings every variable is probed with
ALTERNATES = ("off", "FALSE", " 0", "no")


def _boolean(name, default):
    return (
        [(name, None, default), (name, "", default), (name, "junk", default)]
        + [(name, raw, True) for raw in ("1", "true", "ON", " yes ")]
        + [(name, raw, False) for raw in ("0",) + ALTERNATES]
    )


def _integer(name, default, valid, minimum):
    return [
        (name, None, default),
        (name, "", default),
        (name, str(valid), valid),
        (name, "0", minimum),
        (name, "junk", default),
        (name, "1.5", default),
        (name, "-3", minimum),
    ] + [(name, raw, minimum if raw == " 0" else default) for raw in ALTERNATES]


GRAMMAR = [
    *_boolean("REPRO_TRACE", False),
    *_boolean("REPRO_ADAPTIVE", False),
    # the two escape hatches: every "off" spelling switches them off
    *_boolean("REPRO_GUARD_ELISION", True),
    *_boolean("REPRO_VERIFY_GENERATED", True),
    *_integer("REPRO_PARALLELISM", 1, 4, minimum=1),
    *_integer("REPRO_DIST_WORKERS", 2, 4, minimum=2),
    *_integer("REPRO_SERVICE_SLOTS", 4, 9, minimum=1),
    *_integer("REPRO_INGEST_SLOTS", 2, 3, minimum=1),
    # int-or-bool: on = REPRO_DIST_WORKERS workers, a number is the count
    ("REPRO_DISTRIBUTED", None, 0),
    ("REPRO_DISTRIBUTED", "1", 2),
    ("REPRO_DISTRIBUTED", "true", 2),
    ("REPRO_DISTRIBUTED", "ON", 2),
    ("REPRO_DISTRIBUTED", "3", 3),
    ("REPRO_DISTRIBUTED", "-2", 0),
    ("REPRO_DISTRIBUTED", "garbage", 0),
    *[("REPRO_DISTRIBUTED", raw, 0) for raw in ALTERNATES],
    # seconds: unset, zero, negative or garbage = no deadline
    ("REPRO_QUERY_TIMEOUT", None, None),
    ("REPRO_QUERY_TIMEOUT", "2.5", 2.5),
    ("REPRO_QUERY_TIMEOUT", "0", None),
    ("REPRO_QUERY_TIMEOUT", "-1", None),
    ("REPRO_QUERY_TIMEOUT", "junk", None),
    *[("REPRO_QUERY_TIMEOUT", raw, None) for raw in ALTERNATES],
    # a rate clamped to [0, 1]
    ("REPRO_ADAPTIVE_EPSILON", None, 0.05),
    ("REPRO_ADAPTIVE_EPSILON", "0.5", 0.5),
    ("REPRO_ADAPTIVE_EPSILON", "7", 1.0),
    ("REPRO_ADAPTIVE_EPSILON", "-1", 0.0),
    ("REPRO_ADAPTIVE_EPSILON", "bogus", 0.05),
    *[
        ("REPRO_ADAPTIVE_EPSILON", raw, 0.0 if raw == " 0" else 0.05)
        for raw in ALTERNATES
    ],
    # a path (every string is one): unset = a per-user temp file
    ("REPRO_ADAPTIVE_STORE", None, VARIABLES["REPRO_ADAPTIVE_STORE"].default),
    ("REPRO_ADAPTIVE_STORE", ":memory:", None),
    ("REPRO_ADAPTIVE_STORE", "/tmp/x.jsonl", "/tmp/x.jsonl"),
    ("REPRO_ADAPTIVE_STORE", " /tmp/y.jsonl ", "/tmp/y.jsonl"),
]


def test_the_table_covers_every_declared_variable():
    assert {name for name, _, _ in GRAMMAR} == set(VARIABLES)


@pytest.mark.parametrize("name, raw, expected", GRAMMAR)
def test_grammar(clean_env, name, raw, expected):
    if raw is not None:
        clean_env.setenv(name, raw)
    assert env(name) == expected
    assert type(env(name)) is type(expected)


def test_distributed_switch_takes_dist_workers(clean_env):
    clean_env.setenv("REPRO_DIST_WORKERS", "4")
    clean_env.setenv("REPRO_DISTRIBUTED", "yes")
    assert env("REPRO_DISTRIBUTED") == 4
    clean_env.setenv("REPRO_DISTRIBUTED", "3")  # a count wins outright
    assert env("REPRO_DISTRIBUTED") == 3


def test_reads_are_live_not_snapshotted(clean_env):
    assert env("REPRO_PARALLELISM") == 1
    clean_env.setenv("REPRO_PARALLELISM", "3")
    assert env("REPRO_PARALLELISM") == 3
    clean_env.delenv("REPRO_PARALLELISM")
    assert env("REPRO_PARALLELISM") == 1


# ---------------------------------------------------------------------------
# The consuming layers see what the table says
# ---------------------------------------------------------------------------

OBJECTS = _array(50).to_objects()


def _dividing_query(provider):
    # the filter proves the divisor nonzero: elision drops the zero-guard
    return (
        from_iterable(OBJECTS, schema=SCHEMA)
        .using("compiled", provider)
        .where(lambda r: r.id > 0)
        .select(lambda r: r.v / r.id)
    )


def _source(provider):
    query = _dividing_query(provider)
    return provider.compile_info(query.expr, list(query.sources), "compiled")


@pytest.mark.parametrize("spelling", ["off", "FALSE"])
def test_guard_elision_off_spellings_keep_every_guard(clean_env, spelling):
    elided = _source(QueryProvider()).source_code
    clean_env.setenv("REPRO_GUARD_ELISION", "0")
    guarded = _source(QueryProvider()).source_code
    assert elided != guarded
    clean_env.setenv("REPRO_GUARD_ELISION", spelling)
    assert _source(QueryProvider()).source_code == guarded


def test_mid_process_elision_flip_recompiles(clean_env):
    provider = QueryProvider()
    query = _dividing_query(provider)
    elided = _source(provider)
    expected = query.to_list()
    clean_env.setenv("REPRO_GUARD_ELISION", "0")
    guarded = _source(provider)
    # the flag is part of the artifact key: no reuse of elided code
    assert guarded is not elided
    assert guarded.source_code != elided.source_code
    assert query.to_list() == expected
    clean_env.setenv("REPRO_GUARD_ELISION", "1")
    assert _source(provider) is elided


def test_verify_generated_off_skips_verification(clean_env):
    real, gated = verifier.verify_code, []

    def counted(*args):
        gated.append(args)
        return real(*args)

    clean_env.setattr(verifier, "verify_code", counted)
    _source(QueryProvider())
    assert len(gated) == 1  # one call per compiled module
    clean_env.setenv("REPRO_VERIFY_GENERATED", "off")
    _source(QueryProvider())
    assert len(gated) == 1


KEY = "0123456789abcdef0123"


@pytest.mark.parametrize(
    "setting, distributed",
    [(None, None), ("garbage", None), ("off", None), ("2", 2), ("on", 2)],
)
def test_chooser_reads_distributed_like_the_provider(
    clean_env, setting, distributed
):
    # one profile where a 2-process run was fastest: the chooser may
    # only revive it when REPRO_DISTRIBUTED means workers to the provider
    if setting is not None:
        clean_env.setenv("REPRO_DISTRIBUTED", setting)
    store = ProfileStore(None)
    store.record_run(KEY, "compiled", 1, 0, 1.0, distributed=2)
    store.record_run(KEY, "compiled", 1, 0, 5.0)
    chooser = AdaptiveChooser(store, epsilon=0.0)
    decision = chooser.decide(KEY, "compiled", ("compiled",), None, 65536)
    assert decision.source == "profile"
    assert decision.distributed == distributed


# ---------------------------------------------------------------------------
# Every REPRO_* name is declared once, and documented
# ---------------------------------------------------------------------------

_NAME = re.compile(r"REPRO_[A-Z_]+")


def test_every_repro_literal_in_src_is_declared():
    undeclared = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in (ROOT / "src").rglob("*.py")
        for name in _NAME.findall(path.read_text(encoding="utf-8"))
        if name not in VARIABLES
    }
    assert not undeclared


def test_every_declared_variable_has_a_readme_row():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", readme, re.MULTILINE))
    # benchmark-only, read outside src/
    assert rows - {"REPRO_TPCH_SCALE"} == set(VARIABLES)


# ---------------------------------------------------------------------------
# The serving path honours the query's own options
# ---------------------------------------------------------------------------


def _spans_named(spans, name):
    return [record for record in spans if record.name == name]


def test_session_runs_a_distributed_query_on_processes(clean_env):
    with QuerySession(provider=QueryProvider()) as session:
        query = (
            from_struct_array(_array())
            .using("native", session.provider)
            .where(lambda r: r.g > 1)
            .select(lambda r: r.v)
        )
        sequential = query.to_list()
        with TRACER.capture() as spans:
            rows = session.execute(query.distributed(2))
    assert len(_spans_named(spans, "dist.execute")) == 1
    assert rows == sequential


def test_session_explain_analyze_reports_the_processes(clean_env):
    with QuerySession(provider=QueryProvider()) as session:
        query = (
            from_struct_array(_array())
            .using("native", session.provider)
            .where(lambda r: r.g > 1)
            .select(lambda r: r.v)
            .distributed(2)
        )
        report = session.explain_analyze(query)
    assert report.distributed.startswith("2 worker processes x ")
    assert report.distributed == query.explain_analyze().distributed
    assert "\ndistributed: 2 worker processes x " in report.render()


def test_session_honours_a_query_trace_override(clean_env):
    TRACER.reset()
    with QuerySession(provider=QueryProvider()) as session:
        query = (
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", session.provider, trace=True)
            .where(lambda r: r.g > 1)
        )
        assert len(session.execute(query)) == 30
    names = {record.name for record in TRACER.spans()}
    TRACER.reset()
    assert {"query.canonicalize", "query.execute"} <= names
    assert not TRACER.enabled  # the override was scoped to the query


def test_session_defaults_sit_beneath_the_query(clean_env):
    with QuerySession(provider=QueryProvider(), parallelism=1) as session:
        query = (
            from_struct_array(_array())
            .using("compiled", session.provider)
            .select(lambda r: r.v)
        )
        assert session.execute(query.in_parallel(3, 64)) == query.to_list()
    # the query's in_parallel(3) beat the session's parallelism=1
    assert ("compiled", "threads") in session.provider.cache.resident()[0]


def test_prepared_statement_runs_on_worker_processes(clean_env):
    with QuerySession(provider=QueryProvider()) as session:
        query = (
            from_struct_array(_array())
            .using("native", session.provider)
            .where(lambda r: r.g > 1)
            .select(lambda r: r.v)
        )
        statement = session.prepare(query.distributed(2))
        with TRACER.capture() as spans:
            rows = statement.execute()
    assert len(_spans_named(spans, "dist.execute")) == 1
    assert rows == query.to_list()


def test_prepared_statement_honours_a_query_trace_override(clean_env):
    TRACER.reset()
    with QuerySession(provider=QueryProvider()) as session:
        statement = session.prepare(
            from_iterable(OBJECTS, schema=SCHEMA)
            .using("compiled", session.provider, trace=True)
            .where(lambda r: r.g > 1)
        )
        assert len(statement.execute()) == 30
    names = {record.name for record in TRACER.spans()}
    TRACER.reset()
    assert "query.execute" in names
    # the held shape skips canonicalization
    assert "query.canonicalize" not in names
