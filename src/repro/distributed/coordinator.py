"""The coordinator: compile once, scatter shards, gather, merge.

A :class:`DistributedQuery` is the distributed twin of
:class:`~repro.runtime.parallel.ParallelQuery` — in fact it *wraps* one.
The provider's one partial-kernel builder compiles the kernels (the same
``build_parallel_query`` decomposition the thread tier uses) and this
module adds only what crosses process boundaries: the broadcast artifact
payload (generated source + namespace recipes per kernel) and the
scatter/gather protocol.

Execution per query:

1. **scatter** (``dist.scatter`` span) — pin every source's
   ``(buffer, length, version)`` snapshot, split the driver into
   ``grant`` contiguous shards (the admission-degraded worker grant),
   and build one task per shard: the driver shard token plus a
   broadcast ``("full",)`` token for every other source — the
   broadcast-build join strategy, where a build side is shipped once
   per worker and stays resident there; the kernel rebuilds its hash
   state from it on every task.
2. **gather** (``dist.gather`` span) — the scheduler places tasks on
   resident workers, detects losses, resubmits; partials come back in
   shard-index order.  Worker-reported kernel seconds are recorded as
   the ``dist.worker`` phase.
3. **merge** (``dist.merge`` span) — the *same*
   :meth:`~repro.runtime.parallel.ParallelQuery.fold` / ``finish`` pair
   the thread tier uses, so a distributed result is bit-identical to the
   sequential one whenever the thread-parallel result is.

Cancellation is checkpointed coordinator-side between gather polls (the
token holds a lock and cannot ship); a cancelled query stops consuming
partials and releases its slot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from ..observability.metrics import METRICS
from ..observability.tracer import TRACER
from ..runtime.cancellation import cancel_check
from ..runtime.parallel import ParallelQuery
from . import shards, wire
from .scheduler import get_pool

__all__ = ["DistributedQuery", "build_distributed_query"]


@dataclass
class DistributedQuery:
    """A broadcastable compiled query: kernels plus the merge recipe.

    Cached by the provider exactly like a :class:`ParallelQuery`; the
    merge specs, output expressions and post-ops stay coordinator-side
    (expressions never cross processes), only ``payload`` ships.
    """

    key: str
    parallel: ParallelQuery
    payload: Dict[str, Any]

    @property
    def mode(self) -> str:
        return self.parallel.mode

    @property
    def scalar(self) -> bool:
        return self.parallel.scalar

    @property
    def morsel_ordinal(self) -> int:
        return self.parallel.morsel_ordinal

    @property
    def source_code(self) -> str:
        return self.parallel.source_code

    def execute(
        self,
        sources: List[Any],
        params: Dict[str, Any],
        workers: int,
        morsel_rows: int = 0,
        redecide: Any = None,
    ) -> Any:
        """Same signature as :meth:`ParallelQuery.execute` — the provider
        dispatches either tier through one call; shards are sized by the
        worker grant, so the morsel knobs do not apply here."""
        pool = get_pool(workers)
        ticket = pool.acquire(workers)
        try:
            grant = max(1, ticket.parallelism or 1)
            METRICS.counter("dist.executions").add()
            with TRACER.span(
                "dist.execute", mode=self.mode, workers=workers, grant=grant
            ):
                with TRACER.span("dist.scatter", shards=grant):
                    pinned = [shards.pin(s) for s in sources]
                    plans, payload_for = self._shard_plans(pinned, grant)
                    params_blob = wire.encode_params(params)
                cancel_check(params)
                with TRACER.span("dist.gather", shards=len(plans)):
                    encoded, worker_seconds = pool.run_tasks(
                        self.key,
                        self.payload,
                        plans,
                        params_blob,
                        payload_for,
                        cancel=lambda: cancel_check(params),
                    )
                now = time.perf_counter()
                TRACER.record(
                    "dist.worker",
                    now - worker_seconds,
                    now,
                    tasks=len(plans),
                    remote=True,
                )
                with TRACER.span("dist.merge", mode=self.mode):
                    partials = [wire.decode_value(part) for part in encoded]
                    return self.parallel.finish(
                        self.parallel.fold(None, partials), params
                    )
        finally:
            ticket.release()

    # -- scatter planning ---------------------------------------------------------

    def _shard_plans(self, pinned: List[Any], grant: int):
        """Token plans per shard task + the payload builder for shipping.

        The builder re-slices from the pinned snapshots on demand, so a
        resubmission after worker loss re-creates byte-identical
        payloads without the coordinator retaining any pickled bytes.
        """
        ordinal = self.morsel_ordinal
        driver = pinned[ordinal]
        bounds = shards.shard_bounds(len(driver), grant)
        recipes: Dict[tuple, Callable[[], Any]] = {}
        broadcast_tokens: List[tuple] = []
        for i, source in enumerate(pinned):
            if i == ordinal:
                broadcast_tokens.append(None)
                continue
            token = shards.table_token(source, ("full",))
            recipes[token] = (
                lambda s=source: shards.shard_payload_full(s)
            )
            broadcast_tokens.append(token)
        plans: List[tuple] = []
        for lo, hi in bounds:
            token = shards.table_token(driver, ("shard", lo, hi))
            recipes[token] = (
                lambda s=driver, a=lo, b=hi: shards.shard_payload(s, a, b)
            )
            plans.append(
                tuple(
                    token if i == ordinal else broadcast_tokens[i]
                    for i in range(len(pinned))
                )
            )

        def payload_for(token: tuple):
            return recipes[token]()

        return plans, payload_for


def build_distributed_query(parallel: ParallelQuery, key: str) -> DistributedQuery:
    """Package already-compiled partial kernels for broadcast.

    Raises :class:`~repro.distributed.wire.UnshippableError` when a
    kernel namespace cannot cross processes — the provider treats that
    as "does not distribute" and falls back to the thread tier.
    """
    kernels_payload = [
        (kernel.source_code, wire.encode_namespace(kernel.fn.__globals__))
        for kernel in parallel.kernels
    ]
    payload = {
        "mode": parallel.mode,
        "morsel_ordinal": parallel.morsel_ordinal,
        "slot_kinds": tuple(
            parallel.scalar_spec.slot_kinds if parallel.scalar_spec else ()
        ),
        "kernels": kernels_payload,
    }
    return DistributedQuery(key=key, parallel=parallel, payload=payload)
