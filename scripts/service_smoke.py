#!/usr/bin/env python3
"""Smoke-drive the query serving layer under concurrency.

CI's service-stress leg runs this after the pytest stress suite as a
self-contained, human-readable demo: many client threads against a small
slot pool, a mix of healthy and doomed (tight-deadline) requests, then a
consistency check over the outcome counts.

Exit status: 0 = every request accounted for and the pool drained,
non-zero otherwise.

Environment: ``REPRO_SERVICE_SLOTS`` sizes the pool (default here: 2, to
force queueing even on small runners); ``REPRO_QUERY_TIMEOUT`` would set
a default deadline for every request (this script passes explicit ones).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import numpy as np  # noqa: E402

from repro import from_struct_array  # noqa: E402
from repro.errors import (  # noqa: E402
    AdmissionRejected,
    QueryCancelled,
    QueryTimeoutError,
)
from repro.query import QueryProvider  # noqa: E402
from repro.service import AdmissionController, QueryService  # noqa: E402
from repro.storage import Field, Schema, StructArray  # noqa: E402

SCHEMA = Schema([Field("x", "int"), Field("y", "float")], name="Smoke")
CLIENTS = 12
SLOTS = int(os.environ.get("REPRO_SERVICE_SLOTS", "2"))


def _array(n: int) -> StructArray:
    data = np.zeros(n, dtype=SCHEMA.numpy_dtype())
    rng = np.random.default_rng(17)
    data["x"] = rng.integers(0, n, n)
    data["y"] = rng.random(n)
    return StructArray(SCHEMA, data)


FAST = _array(500)
SLOW = _array(80_000)  # row-at-a-time engines take ~0.4s over this


def main() -> int:
    service = QueryService(
        provider=QueryProvider(),
        admission=AdmissionController(slots=SLOTS, max_queue=SLOTS * 2),
    )
    outcomes: Counter = Counter()
    lock = threading.Lock()

    def client(i: int) -> None:
        doomed = i % 3 == 0
        rows = SLOW if doomed else FAST
        timeout = 0.05 if doomed else 30.0
        query = (
            from_struct_array(rows)
            .using("compiled", service.provider)
            .where(lambda r: r.x % 7 > 2)
            .select(lambda r: r.y)
        )
        try:
            with service.session() as session:
                session.execute(query, timeout=timeout, priority=i % 2)
            kind = "completed"
        except QueryTimeoutError:
            kind = "timeout"
        except QueryCancelled:
            kind = "cancelled"
        except AdmissionRejected:
            kind = "rejected"
        with lock:
            outcomes[kind] += 1

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    elapsed = time.perf_counter() - started

    print(
        f"service smoke: {CLIENTS} clients over {SLOTS} slots "
        f"in {elapsed:.2f}s"
    )
    for kind in ("completed", "timeout", "cancelled", "rejected"):
        print(f"  {kind:<10} {outcomes[kind]}")

    failures = []
    if any(t.is_alive() for t in threads):
        failures.append("client thread hung")
    if sum(outcomes.values()) != CLIENTS:
        failures.append(
            f"unaccounted requests: {sum(outcomes.values())}/{CLIENTS}"
        )
    if outcomes["completed"] == 0:
        failures.append("no request completed")
    if service.admission.running != 0 or service.admission.queue_depth != 0:
        failures.append(
            f"pool not drained: running={service.admission.running} "
            f"queued={service.admission.queue_depth}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK: all requests accounted for, pool drained")
    return 0


if __name__ == "__main__":
    sys.exit(main())
