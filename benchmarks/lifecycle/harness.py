"""Measurement core of the lifecycle benchmark.

Everything here is workload-independent: the span recorder the traced
run uses, the closed-loop round driver, per-cell statistics, memory
accounting and the result comparison rule.  The recorder is the
harness's own — it never reads ``repro.observability.TRACER`` — so a
later observability change cannot redefine the per-layer ledger.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import multiprocessing.util
import os
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy

#: the layers of the ledger, named after the packages under ``src/repro``
LAYERS = (
    "expressions",
    "plans",
    "codegen",
    "analysis",
    "query",
    "runtime",
    "service",
    "storage",
    "distributed",
)

#: cells with at least this many samples have ten beyond their p95
TAIL_MIN_SAMPLES = 200

#: busy seconds per window: one throughput sample, one host-speed estimate
RATE_WINDOW = 1.0

#: busy seconds between two host probes (a probe is ~2 ms: < 8 % of a run)
PROBE_EVERY = 0.025

#: what the two halves of a host probe take on this host left alone
#: (seconds; the fastest percent of a 40 s burst).  Constants, not
#: per-run minima, so two runs are corrected to the same speed
PROBE_NOMINAL = (1.40e-3, 0.29e-3)

#: the traced run stops recording (not measuring) past this many spans
MAX_SPANS = 400_000


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One finished interval: name, start, end, the span that caused it,
    and the cell/op it belongs to (spans of one op share ``op``)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    cell: str = ""
    op: int = -1
    #: counts and sub-timings taken at the same boundary
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanTracer:
    """In-memory span recorder for the traced run (single-threaded)."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self._max_spans = max_spans

    @contextmanager
    def span(self, name: str, cell: str = "", op: int = -1) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(
            span_id=self._next_id,
            parent_id=parent.span_id if parent else None,
            name=name,
            start=0.0,
            end=0.0,
            cell=cell or (parent.cell if parent else ""),
            op=op if op >= 0 else (parent.op if parent else -1),
        )
        self._next_id += 1
        self._stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if len(self.spans) < self._max_spans:
                self.spans.append(record)

    def self_times(self) -> Dict[int, float]:
        """span id → duration minus the part its children cover."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        result = {}
        for span in self.spans:
            covered = _covered(
                [(c.start, c.end) for c in children.get(span.span_id, ())]
            )
            result[span.span_id] = span.duration - covered
        return result

    def durations(self, name: str) -> Dict[str, List[float]]:
        """cell → durations (seconds) of every span called *name*."""
        by_cell: Dict[str, List[float]] = defaultdict(list)
        for span in self.spans:
            if span.name == name:
                by_cell[span.cell].append(span.duration)
        return by_cell

    def attr_medians(self, name: str, key: str) -> Dict[str, float]:
        """cell → median of attribute *key* over the spans called *name*."""
        by_cell: Dict[str, List[float]] = defaultdict(list)
        for span in self.spans:
            if span.name == name and key in span.attrs:
                by_cell[span.cell].append(span.attrs[key])
        return {cell: statistics.median(v) for cell, v in by_cell.items()}

    def totals(self) -> Dict[tuple, float]:
        """(cell, span name) → summed self time (seconds)."""
        own = self.self_times()
        sums: Dict[tuple, float] = defaultdict(float)
        for span in self.spans:
            sums[(span.cell, span.name)] += own[span.span_id]
        return sums

    def medians(self, name: str) -> Dict[str, float]:
        """cell → median duration (seconds) of the spans called *name*."""
        return {
            cell: statistics.median(values)
            for cell, values in self.durations(name).items()
        }

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: List[tuple]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


# ---------------------------------------------------------------------------
# Ops and the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One build-or-bind → execute → drain-to-list, with its oracle.

    ``staged`` replays the op as calls into each layer's public function
    under the given tracer; only the traced run invokes it.
    """

    cell: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    staged: Optional[Callable[[SpanTracer], None]] = None


@dataclass
class LoopResult:
    samples: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    #: a traced pass only: samples of the rounds run outside any span
    plain_samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    busy_seconds: float = 0.0
    #: per round: (ops completed, seconds inside them)
    round_log: List[tuple] = field(default_factory=list)
    #: for every sample of ``samples``, its round's index in ``round_log``
    sample_rounds: Dict[str, List[int]] = field(default_factory=lambda: defaultdict(list))
    #: (index in ``round_log``, host factor) of every probe between ops
    probes: List[tuple] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def run_rounds(
    rounds: Iterable[Sequence[Op]],
    seconds: float,
    tracer: Optional[SpanTracer] = None,
    min_rounds: int = 2,
) -> LoopResult:
    """Drive one client through *rounds* until *seconds* have elapsed.

    Closed loop: the next op starts when the previous one has been
    drained and checked.  The deadline is tested between rounds so every
    cell of a workload gets the same number of samples; ``busy_seconds``
    sums the op intervals only (oracle checks are the harness's work, not
    the program's).  Every ``PROBE_EVERY`` busy seconds a host probe runs
    between two ops, outside every interval that is timed.

    Under a *tracer* the rounds rotate through three phases: ops outside
    any span (``plain_samples``), ops inside ``op`` spans (``samples``),
    and the staged replays of the ops.  Rotating, not running one pass
    after another, lets the sandbox's slow phases hit all three alike;
    and a replay that followed its own op would inherit warm caches the
    op never had, whereas a replay round meets each cell as an op round
    does.
    """
    result = LoopResult()
    deadline = time.perf_counter() + seconds
    op_id = 0
    since_probe = 0.0
    for index, round_ops in enumerate(rounds):
        phase = "op" if tracer is None else ("plain", "op", "replay")[index % 3]
        done, busy = 0, 0.0
        for op in round_ops:
            op_id += 1
            if phase == "replay":
                if op.staged is not None:
                    with tracer.span("staged", cell=op.cell, op=op_id):
                        op.staged(tracer)
                continue
            result.attempted += 1
            started = time.perf_counter()
            try:
                if phase == "op" and tracer is not None:
                    with tracer.span("op", cell=op.cell, op=op_id):
                        value = op.run()
                else:
                    value = op.run()
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                result.failed += 1
                _note_failure(result, f"{op.cell}: raised {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - started
            if not op.check(value):
                result.failed += 1
                _note_failure(result, f"{op.cell}: result differs from reference")
                continue
            done += 1
            busy += elapsed
            if phase == "plain":
                result.plain_samples[op.cell].append(elapsed)
            else:
                result.samples[op.cell].append(elapsed)
                result.sample_rounds[op.cell].append(len(result.round_log))
            since_probe += elapsed
            if since_probe >= PROBE_EVERY:
                result.probes.append((len(result.round_log), host_factor()))
                since_probe = 0.0
        result.rounds += 1
        if phase != "replay":
            result.busy_seconds += busy
            result.round_log.append((done, busy))
        whole = tracer is None or phase == "replay"  # finish the rotation
        if whole and result.rounds >= min_rounds and time.perf_counter() >= deadline:
            break
    if not result.probes:
        result.probes.append((0, host_factor()))
    return result


def _note_failure(result: LoopResult, message: str) -> None:
    if len(result.failures) < 20:
        result.failures.append(message[:400])


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values]
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geometric mean needs positive values, got {values!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windows(loop: LoopResult, window: float = RATE_WINDOW) -> List[tuple]:
    """The run cut into stretches of whole rounds holding *window* busy
    seconds each: (first round, end round, ops, busy seconds, host factor).

    A stretch's host factor is the median of the probes taken inside it;
    the rounds left over at the end join the last stretch, and a run too
    short to fill one is one stretch.
    """
    cuts, first, ops, busy = [], 0, 0, 0.0
    for index, (done, seconds) in enumerate(loop.round_log):
        ops += done
        busy += seconds
        if busy >= window:
            cuts.append([first, index + 1, ops, busy])
            first, ops, busy = index + 1, 0, 0.0
    if ops and cuts:
        cuts[-1][1:] = [len(loop.round_log), cuts[-1][2] + ops, cuts[-1][3] + busy]
    elif ops:
        cuts.append([first, len(loop.round_log), ops, busy])
    overall = statistics.median(factor for _, factor in loop.probes)
    result = []
    for start, end, ops, busy in cuts:
        inside = [factor for at, factor in loop.probes if start <= at < end]
        result.append((start, end, ops, busy, statistics.median(inside or [overall])))
    return result


def windowed_rate(loop: LoopResult) -> float:
    """Ops per busy second at the nominal host speed: the median over the
    windows of each one's rate times its host factor.

    A sandbox slows down for seconds at a time; the mean rate of a run
    absorbs every such phase, the median window ignores the minority, and
    the factor takes out what the host did to the window itself.
    """
    return statistics.median(
        ops / busy * factor for _, _, ops, busy, factor in windows(loop)
    )


def end_to_end(loop: LoopResult) -> Dict[str, float]:
    """The caller-visible numbers of one timed section, every duration
    divided by the host factor of the window it falls in.

    Percentiles are taken per cell and combined by geometric mean: the
    median of a mixed op stream can sit in the gap between two op types.
    """
    factor_of: Dict[int, float] = {}
    for start, end, _, _, factor in windows(loop):
        factor_of.update(dict.fromkeys(range(start, end), factor))
    medians = [
        statistics.median(
            seconds / factor_of[at]
            for seconds, at in zip(samples, loop.sample_rounds[cell])
        )
        * 1e3
        for cell, samples in loop.samples.items()
        if samples
    ]
    return {
        "ops_per_s": windowed_rate(loop),
        "cell_ms_geomean": geomean(medians),
    }


def tail_ms(loop: LoopResult) -> float:
    """Geometric mean of the p95 of every cell with ``TAIL_MIN_SAMPLES``
    samples (ten beyond the percentile); a workload none of whose cells
    has that many reports its medians, the highest statistic they support.
    """
    cells = [v for v in loop.samples.values() if v]
    tails = [percentile(v, 95) * 1e3 for v in cells if len(v) >= TAIL_MIN_SAMPLES]
    return geomean(tails or [statistics.median(v) * 1e3 for v in cells])


def shares(layer_seconds: Dict[str, float], op_seconds: float) -> Dict[str, float]:
    """``ledger.share.<layer>`` for every layer (absent layers are 0) and
    ``ledger.share.residual`` for the op time no staged call explains."""
    return {
        f"ledger.share.{layer}": layer_seconds.get(layer, 0.0) / op_seconds
        for layer in LAYERS + ("residual",)
    }


# ---------------------------------------------------------------------------
# The host probe
# ---------------------------------------------------------------------------

_PROBE_IN = numpy.arange(200_000, dtype=numpy.float64)
_PROBE_OUT = numpy.empty_like(_PROBE_IN)


def _probe_once() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    python_seconds = time.perf_counter() - started
    started = time.perf_counter()
    numpy.multiply(_PROBE_IN, 1.0001, out=_PROBE_OUT)
    numpy.add(_PROBE_OUT, 3.0, out=_PROBE_OUT)
    _PROBE_OUT.sum()
    numpy.sort(_PROBE_IN[::-7][:20_000])
    numpy_seconds = time.perf_counter() - started
    return math.sqrt(
        python_seconds / PROBE_NOMINAL[0] * numpy_seconds / PROBE_NOMINAL[1]
    )


def host_factor(repeats: int = 1) -> float:
    """How many times slower than left alone the host runs right now.

    This sandbox shares its cores' caches and clock with other tenants
    and changes speed by up to 1.5x for seconds to minutes at a time —
    longer than a run, so no statistic over a run's own samples is free
    of it, and processor time slows down with the wall clock.  A probe
    is a fixed piece of interpreter work and a fixed piece of NumPy work
    (the two things the program's time is made of); the factor is the
    geometric mean of what each took over its ``PROBE_NOMINAL``.  Probes
    a second apart track an op stream's own speed with a correlation of
    0.9, and dividing by them takes the quartile spread of ten runs from
    7–27 % to 2–8 %.  With *repeats* the median of that many probes.
    """
    return statistics.median(_probe_once() for _ in range(repeats))


# ---------------------------------------------------------------------------
# Process accounting
# ---------------------------------------------------------------------------


def _proc_kib(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Resident high-water mark of this process plus its live children."""
    total = _proc_kib(os.getpid(), "VmHWM:")
    for child in multiprocessing.active_children():
        if child.pid is not None:
            total += _proc_kib(child.pid, "VmHWM:")
    return total / 1024.0


def _children() -> List[tuple]:
    """(pid, state) of every process whose parent is this one; a zombie's
    state is ``Z``."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as stat:
                # pid (comm) state ppid ...; comm may hold spaces and brackets
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append((int(entry), fields[0]))
    return found


def stop_processes() -> List[int]:
    """Stop every process this one started and wait until each has ended.

    The distributed tier's pools first, then any other ``multiprocessing``
    child, then the ``resource_tracker`` the spawn context starts beside
    them: it ends only once every holder of its pipe has, and unless it
    is waited for it outlives this process by a moment.  Before it goes,
    every queue must have let go of its semaphores: whoever unlinks one
    later tells the tracker so, which starts a new tracker that nobody
    waits for.  The pools drop their queues without joining the feeder
    threads (a dead worker's pipe may be full), and a feeder holds the
    last references until it ends, so those threads are joined here and
    ``multiprocessing``'s exit finalizers run now.  Whatever is still a
    child after all that is killed.  Returns the pids that had to be.
    """
    distributed = sys.modules.get("repro.distributed")
    if distributed is not None:
        distributed.shutdown_pools()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    for thread in threading.enumerate():
        if thread.name == "QueueFeederThread":
            thread.join(5.0)
    gc.collect()
    multiprocessing.util._run_finalizers()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()  # closes its pipe, then waitpid()s it
    killed = []
    for pid, state in _children():
        if state != "Z":  # a zombie is owed only the wait
            try:
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return killed


def scrub_environment() -> Dict[str, str]:
    """Remove every ambient ``REPRO_*`` switch; return what was removed."""
    removed = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in removed:
        del os.environ[key]
    return removed


def settle() -> None:
    """Collect once, then freeze what set-up built; the collector stays on.

    The tables are the database: frozen, they sit outside the collector's
    generations like the aged heap of a long-lived process.  Left in, each
    full collection walks ~1 M table objects (~30 ms) and lands on
    whichever op crosses the threshold — deterministically, so one cell
    would carry the pause in most of its samples and which cell it is
    would change with the seed.  Garbage the ops make is still collected.
    """
    gc.collect()
    gc.freeze()


def unsettle() -> None:
    """Return the frozen set-up heap to the collector (before teardown)."""
    gc.unfreeze()


def digest(items: Iterable[Any]) -> str:
    """Stable hash of a JSON-able op list (same seed → same hash)."""
    blob = json.dumps(list(items), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# The oracle's comparison rule
# ---------------------------------------------------------------------------


def values_equal(got: Any, expected: Any, rel: float = 1e-6) -> bool:
    """Keys, ints and strings exact; floats within *rel*."""
    if isinstance(expected, float) or isinstance(got, float):
        try:
            return math.isclose(float(got), float(expected), rel_tol=rel, abs_tol=1e-9)
        except (TypeError, ValueError):
            return False
    if isinstance(expected, tuple):
        return (
            isinstance(got, tuple)
            and len(got) == len(expected)
            and all(values_equal(g, e, rel) for g, e in zip(got, expected))
        )
    return got == expected


def rows_equal(
    got: Sequence[Any], expected: Sequence[Any], ordered: bool, rel: float = 1e-6
) -> bool:
    """The rule ``tests/test_tpch.py`` uses: order is exact when the
    query sorts, otherwise results compare as bags.

    Bags are aligned by sorting both sides; every unordered result here
    leads with its exact fields (group keys, copied columns), so a
    last-digit difference in a float never changes the alignment.
    """
    if len(got) != len(expected):
        return False
    if not ordered:
        got, expected = sorted(got), sorted(expected)
    return all(values_equal(g, e, rel) for g, e in zip(got, expected))


def as_tuples(rows: Iterable[Any]) -> List[Any]:
    """Result rows (records or scalars) as plain tuples/values."""
    return [tuple(r) if isinstance(r, tuple) else r for r in rows]
