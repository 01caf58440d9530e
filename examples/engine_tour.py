"""Engine tour: inspect what each strategy actually generates.

Run with:  python examples/engine_tour.py

For one query, prints the optimized logical plan and the source code each
code-generating engine produces — the artifacts Figures 3 and 4 of the
paper describe.  Useful for understanding (and debugging) the system.
"""

from dataclasses import dataclass

from repro import P, new
from repro.query import QueryProvider, from_iterable, from_struct_array
from repro.storage import Field, Schema, StructArray


@dataclass
class Reading:
    sensor: str
    zone: str
    value: float


READINGS = [
    Reading("s1", "north", 21.5),
    Reading("s2", "south", 19.0),
    Reading("s3", "north", 23.1),
    Reading("s4", "west", 18.4),
    Reading("s5", "north", 22.8),
    Reading("s6", "south", 20.2),
]

SCHEMA = Schema(
    [Field("sensor", "str", 4), Field("zone", "str", 8), Field("value", "float")],
    name="Reading",
)


def banner(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    provider = QueryProvider()

    def build(query):
        return (
            query.where(lambda r: r.value > P("threshold"))
            .group_by(
                lambda r: r.zone,
                lambda g: new(zone=g.key, mean=g.avg(lambda r: r.value), n=g.count()),
            )
            .order_by_desc(lambda r: r.mean)
            .with_params(threshold=19.5)
        )

    object_query = build(from_iterable(READINGS, token="demo:Reading"))
    array_query = build(from_struct_array(StructArray.from_objects(SCHEMA, READINGS)))
    # whole readings come back: the hybrid stages the sort key plus a row
    # index per reading and returns the source objects (Min)
    top_query = (
        from_iterable(READINGS, token="demo:Reading")
        .order_by_desc(lambda r: r.value)
        .take(3)
    )

    banner("optimized logical plan (shared by all code-generating engines)")
    print(object_query.explain())

    for engine, query in (
        ("compiled", object_query),
        ("native", array_query),
        ("hybrid", object_query),
        ("hybrid", top_query),
    ):
        info = provider.compile_info(query.expr, list(query.sources), engine)
        banner(
            f"engine {engine!r}: generated in "
            f"{info.codegen_seconds * 1e3:.2f}ms, "
            f"compiled in {info.compile_seconds * 1e3:.2f}ms"
        )
        print(info.source_code)

    banner("results (all engines agree)")
    rows = object_query.using("compiled", provider).to_list()
    for row in rows:
        print(f"  {row.zone:6s} mean={row.mean:5.2f} from {row.n} readings")
    assert rows == array_query.using("native", provider).to_list()
    assert rows == object_query.using("hybrid", provider).to_list()
    top = top_query.using("hybrid", provider).to_list()
    assert all(any(r is reading for reading in READINGS) for r in top)


if __name__ == "__main__":
    main()
