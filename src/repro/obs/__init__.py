"""repro.obs — unified instrumentation: metrics, trace spans, run telemetry.

One global :class:`~repro.obs.registry.MetricRegistry` serves the whole
process.  It starts **disabled**: every instrumentation site in the
schedulers goes through the module-level helpers below, which check one
flag and return immediately — the disabled path is a dict-free,
lock-free no-op (``BENCH_obs.json`` records its measured cost on the
PR 1 kernel benchmarks).  Hot inner loops are never instrumented per
iteration; they accumulate plain local counters and fold totals into
the registry once per run / negotiation window.

Enabling::

    from repro import obs

    reg = obs.configure()                     # in-memory sink
    reg = obs.configure(trace="out.jsonl")    # + JSONL file emitter
    ...                                       # run schedulers
    print(obs.format_summary(reg))
    obs.shutdown()                            # flush + close sinks

or from the environment, picked up at import time::

    REPRO_TRACE=1 python ...                  # in-memory registry
    REPRO_TRACE=out.jsonl repro-haste run fig16   # JSONL trace file

(the CLI's ``repro-haste run … --trace out.jsonl`` and ``repro-haste
profile <exp>`` set the same machinery up per invocation).

Instrumented surfaces
---------------------
* ``offline.run`` spans + ``offline.*`` counters — Algorithm 2 runs,
  partitions and candidate scans (:mod:`repro.offline.centralized`);
* ``online.run`` / ``online.arrival`` spans (per-arrival negotiation
  latency histogram) and ``negotiation.*`` counters — messages, rounds,
  broadcasts, commits, proposal-cache hit rates, exactly the
  :class:`~repro.online.messaging.MessageStats` quantities of Fig. 16
  (:mod:`repro.online.runtime`, :mod:`repro.online.distributed`);
* ``sim.execute`` spans + ``sim.*`` counters — ground-truth slot
  execution (:mod:`repro.sim.engine`);
* ``ckernel.*`` events — which negotiation-kernel backend loaded, and a
  one-time ``RuntimeWarning`` when compilation fails and the run
  silently degrades to NumPy (:mod:`repro.online._ckernel`);
* ``serve.*`` counters/gauges — the serving layer's request funnel
  (``serve.requests``/``rejected``/``errors``, ``serve.queue_depth``,
  the ``serve.request_latency`` windowed histogram,
  ``serve.result_cache_hits``/``misses``, ``serve.inflight_dedup``) and
  its resilience machinery (``serve.deadline_expired``/
  ``deadline_timeouts``, ``serve.degraded``, ``serve.worker_crashes``/
  ``worker_restarts``, ``serve.breaker_trips`` + per-spec
  ``serve.breaker_state.<spec>`` gauges with 0/1/2 =
  closed/half-open/open), plus ``prepared.cache_*`` for the shared
  prepared-state LRU (:mod:`repro.serve.engine`,
  :mod:`repro.serve.resilience`, :mod:`repro.solvers.prepared`).
"""

from __future__ import annotations

import atexit
import os
import threading
import warnings

from .registry import Counter, Gauge, Histogram, MetricRegistry
from .sinks import JsonlSink, MemorySink, Sink
from .summary import format_span_tree, format_summary
from .windows import ReservoirSample, WindowedHistogram

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricRegistry",
    "ReservoirSample",
    "Sink",
    "WindowedHistogram",
    "configure",
    "enabled",
    "event",
    "format_span_tree",
    "format_summary",
    "get_registry",
    "inc",
    "observe",
    "observe_windowed",
    "set_gauge",
    "shutdown",
    "span",
    "warn_once",
]

_REGISTRY = MetricRegistry(enabled=False)


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


def get_registry() -> MetricRegistry:
    """The process-global registry (enabled or not)."""
    return _REGISTRY


def enabled() -> bool:
    """True when instrumentation is being recorded."""
    return _REGISTRY.enabled


def configure(
    *,
    trace: str | os.PathLike | None = None,
    sink: Sink | None = None,
    fresh: bool = True,
) -> MetricRegistry:
    """Enable the global registry and attach sinks.

    ``trace`` attaches a :class:`JsonlSink` at that path; ``sink``
    attaches any custom sink; with neither, a :class:`MemorySink` is
    attached so records are retrievable.  ``fresh`` resets previously
    recorded aggregates (the default — each CLI invocation or test gets
    its own numbers).

    Safe to call repeatedly in one process (the traffic harness and its
    tests set up and tear down telemetry once per load point): a fresh
    reconfigure detaches and closes the previous sinks *without* emitting
    a summary — a reconfigure starts a new measurement epoch rather than
    ending the old one — and a non-fresh call never attaches a duplicate
    :class:`JsonlSink` for a path that already has a live one.
    """
    reg = _REGISTRY
    if fresh:
        reg.reset()
        old, reg.sinks = reg.sinks, []
        for s in old:
            s.close()
    if trace is not None:
        trace_path = os.fspath(trace)
        already = any(
            isinstance(s, JsonlSink) and os.fspath(s.path) == trace_path
            for s in reg.sinks
        )
        if not already:
            reg.sinks.append(JsonlSink(trace))
    if sink is not None and sink not in reg.sinks:
        reg.sinks.append(sink)
    if not reg.sinks:
        reg.sinks.append(MemorySink())
    reg.enabled = True
    return reg


def shutdown() -> None:
    """Flush the summary record, close sinks, and disable the registry.

    Idempotent: the registry's :meth:`~MetricRegistry.close` detaches the
    sink set before flushing, so a second ``shutdown()`` — or the
    ``atexit`` hook firing after an explicit one — is a no-op instead of
    a double emit.
    """
    reg = _REGISTRY
    reg.close()
    reg.enabled = False


# ----------------------------------------------------------------------
# Fast-path helpers: one flag check, then out.  These are what the
# schedulers call; never touch the registry object in hot code directly.
# ----------------------------------------------------------------------
def span(name: str, **fields):
    """Timed nested span (no-op context manager when disabled)."""
    reg = _REGISTRY
    if not reg.enabled:
        return _NOOP_SPAN
    return reg.span(name, **fields)


def inc(name: str, n: int | float = 1) -> None:
    reg = _REGISTRY
    if reg.enabled:
        reg.inc(name, n)


def observe(name: str, value: float) -> None:
    reg = _REGISTRY
    if reg.enabled:
        reg.observe(name, value)


def observe_windowed(name: str, value: float, window: str | None = None) -> None:
    """Record into a windowed (per-load-phase) histogram when enabled."""
    reg = _REGISTRY
    if reg.enabled:
        reg.observe_windowed(name, value, window)


def set_gauge(name: str, value: float) -> None:
    reg = _REGISTRY
    if reg.enabled:
        reg.set_gauge(name, value)


def event(name: str, level: str = "info", **fields) -> None:
    reg = _REGISTRY
    if reg.enabled:
        reg.event(name, level=level, **fields)


# ----------------------------------------------------------------------
# One-time warnings: always delivered (via the warnings machinery) even
# when tracing is disabled — silent degradation is what they exist to
# prevent — and mirrored as an event record when tracing is enabled.
# ----------------------------------------------------------------------
_warned: set[str] = set()
_warned_lock = threading.Lock()


def warn_once(key: str, message: str, **fields) -> None:
    """Emit ``message`` as a RuntimeWarning once per ``key`` per process."""
    with _warned_lock:
        if key in _warned:
            return
        _warned.add(key)
    warnings.warn(message, RuntimeWarning, stacklevel=3)
    event(key, level="warning", message=message, **fields)


def _reset_warned() -> None:
    """Clear the one-time-warning memory (test helper)."""
    with _warned_lock:
        _warned.clear()


def _configure_from_env(environ=os.environ) -> MetricRegistry | None:
    """Honour ``REPRO_TRACE`` at import: path → JSONL sink, truthy → memory."""
    value = environ.get("REPRO_TRACE", "").strip()
    if not value or value.lower() in ("0", "false", "off"):
        return None
    if value.lower() in ("1", "true", "on", "mem", "memory"):
        reg = configure()
    else:
        reg = configure(trace=value)
    atexit.register(shutdown)
    return reg


_configure_from_env()
