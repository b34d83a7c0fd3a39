"""End-to-end serving telemetry: span tracing and a metrics registry.

The ROADMAP's top perf item — "close the end-to-end Amdahl gap" — was
unactionable while ``JobMetrics.seconds`` stayed one opaque number per
job: BENCH_kernels.json shows kernels 16–27x faster batched while the
serving path improved only ~2–2.6x, and nothing said *where* the rest of
``serve_job`` time goes. This module is the measurement substrate:

* **Span tracing** — every job carries a :class:`JobTrace` of
  monotonic-clock phase spans (:data:`PHASES` is the glossary), recorded
  through a context-manager/mark API by the server, scheduler, backends,
  and transport. Tracing defaults **on**; ``REPRO_TRACE=off`` swaps every
  job's trace for the shared :data:`NULL_TRACE` singleton whose ``span``
  returns one preallocated no-op context manager — the submit path then
  pays a single attribute lookup per span site (the overhead-guard test
  holds it under 2% of submit latency).
* **Metrics registry** — named counters, gauges, and fixed-bucket
  latency histograms (p50/p95/p99 derivable from bucket counts without
  storing samples), with optional labels. :meth:`MetricsRegistry.render`
  emits the Prometheus text exposition format that travels in the wire
  ``STATS`` reply; :meth:`MetricsRegistry.snapshot` feeds the
  ``repro-serve --stats-interval`` structured-log line.
* **Phase attribution** — :func:`aggregate_phases` folds many traces
  into the per-phase wall-time table ``tools/profile_serve.py`` prints
  and writes to ``BENCH_serve_phases.json``.

``batch_plan`` is attributed to every job of the batch it formed.
Synchronous backends then run the batch one job at a time, so a job's
execution phases (``execute``, the tower phases, ``keyswitch``) are its
own work only, and the time it spends behind the batch's earlier jobs
is its ``batch_wait``.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from dataclasses import dataclass, field

#: Span-phase glossary, in canonical pipeline order. Not every job has
#: every phase: only chip-native tensors see ``tower_dispatch`` /
#: ``worker_execute`` / ``gather_barrier``, only keyed tensors a
#: ``relin_tail``, and only transport-served jobs a ``reply``.
PHASES = (
    "submit",          # FheServer.submit, end to end (decode/cache children)
    "decode",          # operand + circuit wire-bytes ingest (child of submit)
    "cache_check",     # content address + cache/dedupe lookup (child)
    "queue_wait",      # submit settled -> batch formation began
    "batch_plan",      # scheduler.next_batch for the job's batch
    "batch_wait",      # waiting for the earlier jobs of its batch
    "execute",         # host-side functional execution (the exact math)
    "tower_dispatch",  # planning the per-tower fan-out for a level
    "worker_execute",  # chip workers running a level's tower units
    "gather_barrier",  # settling the level's tower gather
    "crt_recombine",   # CRT recombination of gathered tower outputs
    "keyswitch",       # a raw job's relinearization (key-switch kernel)
    "relin_tail",      # pricing/charging the relinearization tail
    "serialize",       # result -> wire bytes
    "reply",           # transport writing the completion frame
)

_PHASE_ORDER = {name: i for i, name in enumerate(PHASES)}


def tracing_enabled() -> bool:
    """Whether new jobs get a recording trace (``REPRO_TRACE``, default on)."""
    return os.environ.get("REPRO_TRACE", "on").lower() not in (
        "off", "0", "false", "no"
    )


@dataclass
class Span:
    """One recorded phase: ``[start, end]`` on the monotonic clock.

    ``parent`` is the index of the enclosing span within the same trace
    (``-1`` for a top-level phase) — enough to rebuild the span tree
    after a wire round-trip without carrying object references.
    """

    phase: str
    start: float
    end: float
    parent: int = -1

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _SpanCtx:
    """Context manager recording one span (allocated only when tracing)."""

    __slots__ = ("_trace", "_phase", "_index")

    def __init__(self, trace: "JobTrace", phase: str):
        self._trace = trace
        self._phase = phase

    def __enter__(self) -> "_SpanCtx":
        trace = self._trace
        parent = trace._stack[-1] if trace._stack else -1
        self._index = len(trace.spans)
        trace.spans.append(Span(self._phase, time.perf_counter(), 0.0, parent))
        trace._stack.append(self._index)
        return self

    def __exit__(self, *exc_info) -> None:
        trace = self._trace
        trace.spans[self._index].end = time.perf_counter()
        trace._stack.pop()


class _NullSpanCtx:
    """The one preallocated no-op context manager tracing-off jobs share."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanCtx":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_CTX = _NullSpanCtx()


class JobTrace:
    """Phase spans of one job, on one shared monotonic clock.

    Recording API (all near-zero-cost when the job carries
    :data:`NULL_TRACE` instead):

    * ``with trace.span("execute"): ...`` — a live phase; nesting makes
      the inner span a child of the outer.
    * ``trace.mark("queue_wait", t0, t1)`` — a phase whose endpoints
      were computed elsewhere (the scheduler stamps queue wait from the
      submit-settled timestamp it did not own).
    * ``trace.stamp_queued()`` / ``trace.stamp_done()`` — lifecycle
      timestamps: queued marks the submit settling (queue-wait origin),
      done marks job completion (the end-to-end latency denominator the
      profiler uses; serialize/reply happen after it).
    """

    __slots__ = ("spans", "_stack", "queued_at", "done_at")

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.queued_at: float | None = None
        self.done_at: float | None = None

    # -- recording -----------------------------------------------------

    def span(self, phase: str) -> _SpanCtx:
        return _SpanCtx(self, phase)

    def mark(self, phase: str, start: float, end: float,
             parent: int = -1) -> int:
        """Record a completed span; returns its index (for child marks)."""
        index = len(self.spans)
        self.spans.append(Span(phase, start, end, parent))
        return index

    def stamp_queued(self) -> None:
        self.queued_at = time.perf_counter()

    def stamp_done(self) -> None:
        if self.done_at is None:  # first completion wins (dedupe fan-out)
            self.done_at = time.perf_counter()

    # -- reading -------------------------------------------------------

    @property
    def started_at(self) -> float | None:
        return self.spans[0].start if self.spans else None

    @property
    def wall_seconds(self) -> float:
        """Submit start -> job completion (0.0 before either exists)."""
        if not self.spans or self.done_at is None:
            return 0.0
        return max(0.0, self.done_at - self.spans[0].start)

    def phase_seconds(self, until_done: bool = False) -> dict[str, float]:
        """Total seconds per **top-level** phase (children excluded).

        ``until_done`` restricts to spans that started before
        :attr:`done_at` — the serving-latency view the profiler divides
        by :attr:`wall_seconds` (serialize/reply happen after
        completion and would overshoot the denominator).
        """
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.parent != -1:
                continue
            if until_done and self.done_at is not None \
                    and span.start >= self.done_at:
                continue
            totals[span.phase] = totals.get(span.phase, 0.0) + span.seconds
        return totals

    def tree_lines(self) -> list[str]:
        """Render the span tree, one indented line per span."""
        depths: list[int] = []
        for span in self.spans:
            depths.append(0 if span.parent < 0 else depths[span.parent] + 1)
        origin = self.started_at or 0.0
        return [
            f"{'  ' * depth}{span.phase:<16} "
            f"+{(span.start - origin) * 1e6:9.1f}us "
            f"{span.seconds * 1e6:9.1f}us"
            for span, depth in zip(self.spans, depths)
        ]


class _NullTrace:
    """Tracing-off stand-in: every operation is a no-op, nothing allocates."""

    __slots__ = ()

    enabled = False
    spans: tuple = ()
    queued_at = None
    done_at = None

    def span(self, phase: str) -> _NullSpanCtx:
        return _NULL_CTX

    def mark(self, phase: str, start: float, end: float,
             parent: int = -1) -> int:
        return -1

    def stamp_queued(self) -> None:
        pass

    def stamp_done(self) -> None:
        pass

    @property
    def started_at(self) -> None:
        return None

    wall_seconds = 0.0

    def phase_seconds(self, until_done: bool = False) -> dict[str, float]:
        return {}

    def tree_lines(self) -> list[str]:
        return []


NULL_TRACE = _NullTrace()


def new_trace() -> JobTrace | _NullTrace:
    """A recording trace, or the shared null trace when ``REPRO_TRACE=off``."""
    return JobTrace() if tracing_enabled() else NULL_TRACE


#: Top-level phases that constitute a batch's execution window — what a
#: dedupe follower inherits from the primary whose single execution
#: produced its result (see :func:`adopt_batch_spans`).
BATCH_WINDOW_PHASES = frozenset((
    "queue_wait", "batch_plan", "batch_wait", "execute", "tower_dispatch",
    "worker_execute", "gather_barrier", "crt_recombine", "keyswitch",
    "relin_tail",
))


def adopt_batch_spans(follower, primary) -> int:
    """Copy a primary's batch-window spans onto a dedupe follower.

    A follower attached to a deduped execution used to get only
    ``stamp_done``: its wall clock covered the primary's whole batch but
    its trace explained none of it, so the profiler under-attributed the
    follower's latency to ``queue_wait``. This clips the primary's
    top-level :data:`BATCH_WINDOW_PHASES` spans at the follower's own
    ``queued_at`` (spans that ended before the follower existed are not
    its latency) and records them as the follower's top-level spans;
    any remaining gap between queueing and the first adopted span is
    marked ``queue_wait``. Returns the number of spans copied; no-op
    (returning 0) unless both traces are recording.
    """
    if not (follower.enabled and primary.enabled):
        return 0
    origin = follower.queued_at
    copied = 0
    earliest = None
    for span in primary.spans:
        if span.parent != -1 or span.phase not in BATCH_WINDOW_PHASES:
            continue
        start = span.start
        if origin is not None:
            if span.end <= origin:
                continue
            start = max(start, origin)
        follower.mark(span.phase, start, span.end)
        earliest = start if earliest is None else min(earliest, start)
        copied += 1
    if copied and origin is not None and earliest > origin:
        follower.mark("queue_wait", origin, earliest)
    return copied


def aggregate_phases(traces, until_done: bool = True) -> list[dict]:
    """Fold many traces into a per-phase wall-time attribution table.

    Returns one row per observed phase, in canonical :data:`PHASES`
    order: ``{"phase", "seconds", "percent", "spans"}`` where
    ``percent`` is of the summed per-job wall (submit start -> done).
    The final row aggregates everything: phase ``"(total)"`` with
    ``percent`` the coverage — how much of the measured end-to-end
    latency the recorded phases explain.
    """
    seconds: dict[str, float] = {}
    spans: dict[str, int] = {}
    wall = 0.0
    for trace in traces:
        wall += trace.wall_seconds
        for phase, secs in trace.phase_seconds(until_done=until_done).items():
            seconds[phase] = seconds.get(phase, 0.0) + secs
            spans[phase] = spans.get(phase, 0) + 1
    rows = [
        {
            "phase": phase,
            "seconds": seconds[phase],
            "percent": 100.0 * seconds[phase] / wall if wall > 0 else 0.0,
            "spans": spans[phase],
        }
        for phase in sorted(
            seconds, key=lambda p: _PHASE_ORDER.get(p, len(PHASES))
        )
    ]
    covered = sum(r["seconds"] for r in rows)
    rows.append({
        "phase": "(total)",
        "seconds": covered,
        "percent": 100.0 * covered / wall if wall > 0 else 0.0,
        "spans": sum(spans.values()),
    })
    return rows


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

#: Default latency buckets (seconds): micro-benchmark to paper scale.
DEFAULT_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Instantaneous value that can move both ways."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram: percentiles without storing samples.

    ``buckets`` are ascending finite upper bounds; an implicit ``+inf``
    bucket catches the tail. :meth:`quantile` follows the Prometheus
    ``histogram_quantile`` estimate — linear interpolation inside the
    bucket the requested rank falls in (the +inf bucket reports its
    finite lower edge, the most defensible answer available without
    samples).
    """

    __slots__ = ("name", "labels", "bounds", "counts", "total", "count")

    def __init__(self, name: str, labels: tuple = (),
                 buckets: tuple = DEFAULT_BUCKETS):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histograms need at least one bucket bound")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly ascending")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +inf is implicit
            if not bounds:
                raise ValueError("histograms need a finite bucket bound")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + the implicit +inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1); NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile wants q in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if i >= len(self.bounds):  # +inf bucket: its finite edge
                    return self.bounds[-1]
                lower = self.bounds[i - 1] if i else 0.0
                upper = self.bounds[i]
                into = (rank - (cumulative - bucket_count)) / bucket_count
                return lower + (upper - lower) * min(max(into, 0.0), 1.0)
        return self.bounds[-1]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")


_METRIC_TYPES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


def _format_value(value: float) -> str:
    """Prometheus-style number: integers unadorned, floats repr'd."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_text(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{str(val)}"' for key, val in labels
    )
    return "{" + inner + "}"


class MetricsRegistry:
    """Named metrics with optional labels, one instance per server.

    ``registry.counter("jobs_total", tenant="acme").inc()`` creates the
    family on first use and returns the same child on every later call
    with the same labels. A name registered as one type cannot be reused
    as another. All mutation in this repo happens on the server's single
    engine thread; :meth:`render`/:meth:`snapshot` take the registry
    lock so a reader on another thread (the transport's STATS path, the
    periodic stats logger) sees a consistent dump.
    """

    def __init__(self):
        self._metrics: dict[tuple, object] = {}
        self._families: dict[str, tuple[type, str, tuple | None]] = {}
        self._lock = threading.Lock()

    # -- construction --------------------------------------------------

    def _get(self, cls: type, name: str, help_text: str,
             buckets: tuple | None, labels: dict):
        label_key = tuple(sorted(labels.items()))
        key = (name, label_key)
        metric = self._metrics.get(key)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} is a "
                    f"{_METRIC_TYPES[type(metric)]}, not a "
                    f"{_METRIC_TYPES[cls]}"
                )
            return metric
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                family = self._families.get(name)
                if family is not None and family[0] is not cls:
                    raise ValueError(
                        f"metric {name!r} is registered as a "
                        f"{_METRIC_TYPES[family[0]]}, not a "
                        f"{_METRIC_TYPES[cls]}"
                    )
                if family is None:
                    self._families[name] = (cls, help_text, buckets)
                if cls is Histogram:
                    metric = Histogram(
                        name, label_key,
                        buckets or self._families[name][2] or DEFAULT_BUCKETS,
                    )
                else:
                    metric = cls(name, label_key)
                self._metrics[key] = metric
        return metric

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        return self._get(Counter, name, help_text, None, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._get(Gauge, name, help_text, None, labels)

    def histogram(self, name: str, help_text: str = "",
                  buckets: tuple | None = None, **labels) -> Histogram:
        return self._get(Histogram, name, help_text, buckets, labels)

    # -- exposition ----------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition of every registered metric."""
        with self._lock:
            lines: list[str] = []
            for name in sorted(self._families):
                cls, help_text, _ = self._families[name]
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {_METRIC_TYPES[cls]}")
                children = sorted(
                    (m for (n, _), m in self._metrics.items() if n == name),
                    key=lambda m: m.labels,
                )
                for metric in children:
                    if isinstance(metric, Histogram):
                        cumulative = 0
                        for bound, count in zip(
                            metric.bounds + (float("inf"),), metric.counts
                        ):
                            cumulative += count
                            le = "+Inf" if bound == float("inf") else \
                                _format_value(bound)
                            labels = metric.labels + (("le", le),)
                            lines.append(
                                f"{name}_bucket{_label_text(labels)} "
                                f"{cumulative}"
                            )
                        lines.append(
                            f"{name}_sum{_label_text(metric.labels)} "
                            f"{_format_value(metric.total)}"
                        )
                        lines.append(
                            f"{name}_count{_label_text(metric.labels)} "
                            f"{metric.count}"
                        )
                    else:
                        lines.append(
                            f"{name}{_label_text(metric.labels)} "
                            f"{_format_value(metric.value)}"
                        )
            return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict:
        """JSON-ready dump: ``{name: {label_text: value_or_summary}}``.

        Histograms summarize as ``{count, sum, p50, p95, p99}`` — the
        shape the ``--stats-interval`` structured-log line emits.
        """
        with self._lock:
            out: dict[str, dict] = {}
            for (name, _), metric in sorted(
                self._metrics.items(), key=lambda kv: kv[0]
            ):
                family = out.setdefault(name, {})
                label_text = _label_text(metric.labels) or ""
                if isinstance(metric, Histogram):
                    # Empty histograms report null, not NaN — the dump
                    # must stay strict-JSON for log pipelines.
                    empty = metric.count == 0
                    family[label_text] = {
                        "count": metric.count,
                        "sum": metric.total,
                        "p50": None if empty else metric.quantile(0.50),
                        "p95": None if empty else metric.quantile(0.95),
                        "p99": None if empty else metric.quantile(0.99),
                    }
                else:
                    family[label_text] = metric.value
            return out
