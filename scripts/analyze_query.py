#!/usr/bin/env python3
"""Inspect the dataflow facts the static analyzer derives for a query.

For each query in the built-in corpus (TPC-H Q1 plus small synthetic
shapes that exercise every analysis verdict) this prints

* the purity/effect verdict of its lambdas,
* the derived facts (divisions proven, guards elided/kept, dead
  pipelines, proven filters, value domains), and
* the guards actually present in the generated module.

``--selftest`` additionally cross-checks every derivation against the
verifier's independent re-derivation (:func:`repro.codegen.verifier.
check_facts`) and against the expected verdicts for the corpus; any
disagreement exits non-zero.  CI runs this next to
``python -m repro.codegen.verifier --selftest``.

Environment: ``REPRO_GUARD_ELISION`` gates elision globally (default
on); the selftest flips it both ways itself and restores it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import new  # noqa: E402
from repro.codegen.verifier import check_facts  # noqa: E402
from repro.errors import GeneratedCodeViolation  # noqa: E402
from repro.query import (  # noqa: E402
    QueryProvider,
    from_iterable,
    from_struct_array,
)
from repro.storage import Field, Schema, StructArray  # noqa: E402
from repro.tpch import TPCHData  # noqa: E402
from repro.tpch.queries import q1  # noqa: E402

SCHEMA = Schema([Field("x", "int"), Field("y", "float")], name="Probe")
ARRAY = StructArray.from_rows(SCHEMA, [(i, i * 0.5) for i in range(40)])
OBJECTS = ARRAY.to_objects()

_SINK = 0


def _impure_pred(r):
    # mutating on purpose: the analyzer must downgrade this to sequential
    global _SINK
    _SINK += 1
    return r.x >= 2


def _nondet_sel(r):
    # clock reference flags nondeterminism; the value itself is stable
    return r.y + time.time() * 0.0


def _source(provider, engine):
    if engine == "native":
        return from_struct_array(ARRAY).using(engine, provider)
    return from_iterable(OBJECTS, schema=SCHEMA).using(engine, provider)


# every corpus entry: name, build(provider, engine) -> query, and the
# expected verdicts asserted by --selftest
CORPUS = (
    (
        "tpch_q1",
        lambda provider, engine: q1(
            TPCHData(scale=0.001), engine=engine, provider=provider
        ),
        {"pure": True, "avg_guards": 3},
    ),
    (
        "proven_division",
        lambda provider, engine: _source(provider, engine)
        .where(lambda r: r.x > 0)
        .select(lambda r: r.y / r.x),
        {"pure": True, "division_sites": 1, "divisions_proven": 1},
    ),
    (
        "unproven_division",
        lambda provider, engine: _source(provider, engine).select(
            lambda r: r.y / (r.x - 3)
        ),
        {"pure": True, "division_sites": 1, "divisions_proven": 0},
    ),
    (
        "contradiction",
        lambda provider, engine: _source(provider, engine).where(
            lambda r: (r.x > 5) & (r.x < 3)
        ),
        {"pure": True, "dead_pipelines": True},
    ),
    (
        "proven_filter",
        lambda provider, engine: _source(provider, engine)
        .where(lambda r: r.x > 5)
        .select(lambda r: new(x=r.x, y=r.y))
        .where(lambda p: p.x > 3),
        {"pure": True, "proven_filters": True},
    ),
    (
        "impure_filter",
        lambda provider, engine: _source(provider, engine).where(_impure_pred),
        {"pure": False, "impure": True},
    ),
    (
        "nondet_select",
        lambda provider, engine: _source(provider, engine).select(_nondet_sel),
        {"pure": False, "nondeterministic": True},
    ),
)

#: substrings identifying division guards in generated modules, per engine
_GUARD_MARKERS = ("_guard_truediv", "_guard_floordiv", "_guard_mod", "_nz(")


def _derive(provider, query):
    """(facts, ir, bindings) for one query, via the provider's own record."""
    shape = provider.shape(query.expr, query.sources)
    return shape.facts(), shape.ir(), shape.bindings


def _guard_count(provider, query, engine):
    compiled = provider.compile_info(query.expr, query.sources, engine)
    return sum(compiled.source_code.count(marker) for marker in _GUARD_MARKERS)


def _check_expectations(name, facts, expect):
    failures = []
    if expect.get("pure") is True and not facts.effects.pure:
        failures.append(f"expected pure, got {facts.effects.describe()}")
    if expect.get("impure") and not facts.effects.impure:
        failures.append("expected an impure verdict")
    if expect.get("nondeterministic") and not facts.effects.nondeterministic:
        failures.append("expected a nondeterministic verdict")
    for field_name in ("division_sites", "divisions_proven", "avg_guards"):
        if field_name in expect:
            actual = getattr(facts, field_name)
            if actual != expect[field_name]:
                failures.append(
                    f"{field_name}: expected {expect[field_name]}, got {actual}"
                )
    if expect.get("dead_pipelines") and not facts.dead_pipelines:
        failures.append("expected a statically-dead pipeline")
    if expect.get("proven_filters") and not facts.proven_filters:
        failures.append("expected a proven (stripped) filter")
    return [f"{name}: {message}" for message in failures]


def report(engine: str) -> int:
    provider = QueryProvider()
    for name, build, _ in CORPUS:
        query = build(provider, engine)
        facts, _, _ = _derive(provider, query)
        print(f"{name} × {engine}")
        for line in facts.render_lines(elide=True):
            print(f"  {line}")
        guards = _guard_count(provider, query, engine)
        print(f"  generated guards: {guards}")
    return 0


def selftest(engine: str) -> int:
    failures = []
    saved = os.environ.get("REPRO_GUARD_ELISION")
    try:
        for setting in ("1", "0"):
            os.environ["REPRO_GUARD_ELISION"] = setting
            provider = QueryProvider()
            for name, build, expect in CORPUS:
                label = f"{name} × {engine} (elision={setting})"
                query = build(provider, engine)
                facts, ir, bindings = _derive(provider, query)
                try:
                    # fail-closed cross-check: the verifier re-derives the
                    # facts independently and rejects any disagreement
                    check_facts(
                        ir, bindings, provider.statistics, facts=facts
                    )
                except GeneratedCodeViolation as exc:
                    failures.append(f"{label}: verifier disagrees: {exc}")
                    print(f"{label:<52} FAIL (verifier)")
                    continue
                mismatches = _check_expectations(name, facts, expect)
                failures.extend(mismatches)
                print(f"{label:<52} {'FAIL' if mismatches else 'ok'}")
            # elision on must strip the proven division guard; off must
            # keep it — checked on the generated module itself
            provider = QueryProvider()
            proven_q = CORPUS[1][1](provider, engine)
            guards = _guard_count(provider, proven_q, engine)
            if setting == "1" and guards != 0:
                failures.append(
                    f"proven_division (elision=1): {guards} guard(s) "
                    "survived in the generated module"
                )
            if setting == "0" and guards == 0:
                failures.append(
                    "proven_division (elision=0): expected the guard "
                    "to be kept in the generated module"
                )
            unproven_q = CORPUS[2][1](provider, engine)
            if _guard_count(provider, unproven_q, engine) == 0:
                failures.append(
                    f"unproven_division (elision={setting}): the guard "
                    "must never be elided without a proof"
                )
    finally:
        if saved is None:
            os.environ.pop("REPRO_GUARD_ELISION", None)
        else:
            os.environ["REPRO_GUARD_ELISION"] = saved
    if failures:
        print(f"\nselftest: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nselftest: facts, verifier re-derivation, and emission agree")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--engine",
        choices=("compiled", "native", "hybrid", "hybrid_buffered"),
        default="compiled",
        help="codegen engine to analyze (default: compiled)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="assert the expected verdicts for the corpus and cross-check "
        "every derivation against the verifier; non-zero exit on any "
        "disagreement",
    )
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(args.engine)
    return report(args.engine)


if __name__ == "__main__":
    sys.exit(main())
