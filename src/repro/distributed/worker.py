"""The long-lived worker process: compile-once, execute per shard.

``worker_main`` is the spawn entry point.  A worker owns two caches:

* **artifacts** — compiled kernel modules keyed by the coordinator's
  artifact key.  The coordinator runs the whole front half of the
  pipeline exactly once (canonicalize → analyze → optimize → lower →
  codegen → verify) and broadcasts the *generated source* plus a
  namespace recipe; the worker only ``exec``-compiles it.  A query
  shape is therefore compiled once per worker process, ever — never
  re-planned.
* **tables** — materialized shards/broadcast tables keyed by their
  ``(uid, version, length, part)`` token.  When a payload with a newer
  watermark for the same table arrives, superseded residents are
  dropped (shard ownership follows the newest snapshot).

The protocol is deliberately small.  Requests on the worker's private
task queue::

    ("artifact", key, payload)        # broadcast compile
    ("table", TableShard)             # shard / broadcast residency
    ("task", task_id, key, tokens, params_blob)
    ("stop",)

Replies on the worker's private result queue (private per worker so a
SIGKILL mid-``put`` can never corrupt a queue another worker shares)::

    ("done", worker_id, task_id, kernel_seconds, encoded_partial)
    ("err",  worker_id, task_id, kernel_seconds, error_type, message)

Kernel failures reply ``err`` with the original error type name: the
coordinator re-raises the sequential error class, so distribution never
changes *what* error a query produces.
"""

from __future__ import annotations

import pickle
import time
from typing import Any, Dict

from ..codegen.compiler import compile_source
from ..errors import ExecutionError
from ..runtime.parallel import (
    MORSEL_START,
    MORSEL_STOP,
    _EMPTY_AGGREGATE_MSG,
    _NO_VALUE,
    rows_partial,
)
from . import shards, wire

__all__ = ["worker_main"]


def _compile_artifact(payload: Dict[str, Any]) -> Dict[str, Any]:
    kernels = []
    for source, ns_spec in payload["kernels"]:
        namespace = wire.decode_namespace(ns_spec)
        # the coordinator's backend already ran the verifier gate on this
        # exact source; the worker trusts the broadcast artifact
        fn, _ = compile_source(source, namespace, verify=False)
        kernels.append(fn)
    return {
        "mode": payload["mode"],
        "morsel_ordinal": payload["morsel_ordinal"],
        "slot_kinds": payload.get("slot_kinds", ()),
        "kernels": kernels,
    }


def _run_task(
    artifact: Dict[str, Any],
    sources: list,
    params: Dict[str, Any],
) -> Any:
    """One kernel invocation over the whole local shard (start=0); the
    partial comes back wire-encoded — a vector kernel's as its columns,
    which only the coordinator's fold decodes."""
    shard_rows = len(sources[artifact["morsel_ordinal"]])
    params = dict(params)
    params[MORSEL_START] = 0
    params[MORSEL_STOP] = shard_rows
    if artifact["mode"] == "scalar":
        partial = []
        for fn, kind in zip(artifact["kernels"], artifact["slot_kinds"]):
            try:
                partial.append(fn(sources, params))
            except ExecutionError as exc:
                # an empty *shard* has no min/max but the whole input
                # may; the coordinator's merge re-raises only when every
                # shard is empty — same rule as the thread tier
                if kind in ("min", "max") and str(exc) == _EMPTY_AGGREGATE_MSG:
                    partial.append(_NO_VALUE)
                else:
                    raise
        return wire.encode_value(partial)
    return wire.encode_value(rows_partial(artifact["kernels"][0](sources, params)))


def worker_main(worker_id: int, tasks: Any, results: Any) -> None:
    artifacts: Dict[str, Any] = {}
    tables: Dict[tuple, Any] = {}
    while True:
        try:
            message = tasks.get()
        except (EOFError, OSError):
            return
        op = message[0]
        if op == "stop":
            return
        if op == "artifact":
            _, key, payload = message
            try:
                artifacts[key] = _compile_artifact(payload)
            except Exception as exc:  # noqa: BLE001 - reported per task
                artifacts[key] = exc
            continue
        if op == "table":
            shard = message[1]
            uid, version, length = shard.token[:3]
            superseded = [
                token
                for token in tables
                if token[0] == uid and (token[1], token[2]) != (version, length)
            ]
            for token in superseded:
                del tables[token]
            tables[shard.token] = shards.materialize(shard)
            continue
        if op == "task":
            _, task_id, key, tokens, params_blob = message
            started = time.perf_counter()
            try:
                artifact = artifacts.get(key)
                if artifact is None:
                    raise ExecutionError(
                        f"worker {worker_id} has no artifact {key!r}"
                    )
                if isinstance(artifact, Exception):
                    raise artifact
                missing = [t for t in tokens if t not in tables]
                if missing:
                    raise ExecutionError(
                        f"worker {worker_id} missing table payloads: {missing}"
                    )
                sources = [tables[t] for t in tokens]
                partial = _run_task(artifact, sources, pickle.loads(params_blob))
                results.put(
                    (
                        "done",
                        worker_id,
                        task_id,
                        time.perf_counter() - started,
                        partial,
                    )
                )
            except Exception as exc:  # noqa: BLE001 - typed reply
                results.put(
                    (
                        "err",
                        worker_id,
                        task_id,
                        time.perf_counter() - started,
                        type(exc).__name__,
                        str(exc),
                    )
                )
