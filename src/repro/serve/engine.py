"""The warm-state scheduling engine: queue, workers, caches, resilience.

:class:`ScheduleEngine` is the serving core the daemon (and the traffic
harness) sit on.  One engine holds:

* a **bounded request queue** — submissions beyond ``queue_limit`` are
  rejected immediately with :class:`EngineBusy` (the daemon maps that to
  HTTP 503), so a burst degrades to fast refusals instead of unbounded
  memory growth;
* a **worker pool** of threads, each resolving spec strings locally via
  :func:`~repro.solvers.registry.get_solver`, plus a **supervisor**
  thread that detects crashed workers, restarts them, and counts the
  restarts (``serve.worker_restarts``) — a request that kills a worker
  is quarantined instead of wedging the queue, and its worker is
  replaced before the request is requeued for the degradation ladder;
* a **prepared-state cache**: requests for the same
  ``Instance.content_hash`` share one :class:`~repro.solvers.prepared.
  PreparedNetwork` — the process-global :data:`~repro.solvers.prepared.
  PREPARED_CACHE` by default, or a private cache when
  ``prepared_cache_capacity`` is given (so sizing one engine never
  evicts state other components rely on);
* a **result cache** keyed by ``content_hash × canonical spec × seed``
  — the serving layer's idempotency key: an exact repeat of a seeded
  request (a client retry after a lost response, say) is answered
  without solving again, and *concurrent* identical requests collapse
  single-flight onto one execution (``serve.inflight_dedup``).

**One request pipeline** (DESIGN.md §12).  A worker dequeues one item
and, when it may coalesce, drains up to ``coalesce_max - 1`` queued
followers — a group of any size, including 1.  Each request is
*admitted* (spec resolution and content hash, result cache,
single-flight, then the quarantine, deadline and breaker gates; a
tripped gate sends it down the degradation ladder).  The rest are
grouped by (canonical spec, dtype) and each group is *solved* by one
:meth:`~repro.solvers.registry.BoundSolver.solve_prepared_batch` call —
solo requests too, so a batchable spec always runs its batched kernel,
bit-identical at float64 to a per-request solve; if a group of N raises,
each member is retried alone.  One *finish* step stores, records and
answers.  Only solvers with a ``batch_fn`` coalesce; degraded and
skip-primary resubmissions never do, and an active fault injector keeps
every group at one request.  Coalescing shows only in
``ServeResult.coalesced`` and the ``coalesced_*`` counters.  A request
that follows an identical one takes its answer only when that answer is
a primary solve; if the leader failed or degraded, the follower gets its
own attempt under its own gates and budget.  ``submit(dtype=np.float32)``
opts a request into the single-precision batched kernel; float32 results
are cached under a *distinct* result-cache key so they can never answer
a float64 request.

Resilience (DESIGN.md §13) threads through every request:

* **deadlines** — a per-request monotonic :class:`~repro.serve.
  resilience.Deadline` checked cooperatively at phase seams (admit,
  fault injection, prepare), so no request outlives its budget beyond
  the daemon's watchdog grace;
* a per-spec **circuit breaker** (closed/open/half-open) that learns
  which specs are failing and routes around them;
* the **graceful-degradation ladder** — when the deadline, the breaker,
  or a quarantine trips, the request re-resolves to a cheaper registered
  spec (decomposition params stripped, then the greedy baseline) and
  returns a *valid* schedule tagged ``meta["degraded"]`` instead of an
  error;
* an optional seeded **process fault injector**
  (:class:`~repro.faults.process.ProcessFaultModel`) driving the chaos
  suite — a null (or absent) model injects nothing.

Telemetry: the engine always feeds its own
:class:`~repro.obs.windows.WindowedHistogram` of request latency
(windowed per solver, readable via :meth:`ScheduleEngine.stats` and the
daemon's ``/stats``), and mirrors counters/gauges into :mod:`repro.obs`
when the global registry is enabled (``serve.requests``,
``serve.result_cache_hits``/``misses``, ``serve.rejected``,
``serve.queue_depth``, ``serve.request_latency``, ``serve.degraded``,
``serve.worker_restarts``, ``serve.breaker_*``, …).  Every failed
request passes one error step, so ``stats()["errors"]`` and obs
``serve.errors`` always agree.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field, replace

import numpy as np

from .. import obs
from ..faults.process import InjectedWorkerCrash, ProcessFaultModel
from ..obs.windows import WindowedHistogram
from ..solvers.artifact import RunArtifact
from ..solvers.prepared import PREPARED_CACHE, PreparedCache
from ..solvers.registry import get_solver
from .resilience import (
    BreakerOpen,
    CancelToken,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    DegradationLadder,
    RequestQuarantined,
    WorkerCrashed,
    cooperative_sleep,
)

__all__ = ["EngineBusy", "EngineClosed", "ServeResult", "ScheduleEngine"]

#: Windowed request-latency metric (window = solver name).
LATENCY_METRIC = "serve.request_latency"

#: Poll cadence of a follower waiting on an identical in-flight leader —
#: between polls the follower checks its cancel token and deadline.
_FOLLOWER_POLL_S = 0.05

#: Hard bound on how long a *deadline-less* follower waits on a leader
#: before falling through to the degradation ladder — a wedged leader
#: must never pin follower worker threads along with its own.
FOLLOWER_MAX_WAIT_S = 30.0

_SHUTDOWN = object()

#: Lifetime counters, in ``stats()`` order (the daemon's ``/stats``).
_COUNTERS = (
    "requests", "completed", "errors", "rejected", "solves", "degraded",
    "deadline_expired", "deadline_timeouts", "inflight_dedup",
    "coalesced_batches", "coalesced_requests", "worker_crashes",
    "worker_restarts",
)

#: The typed error a trip raises when no degradation rung can answer it.
_TRIP_ERRORS = {
    "deadline": DeadlineExceeded,
    "crash": WorkerCrashed,
    "watchdog": WorkerCrashed,
    "quarantine": RequestQuarantined,
}


class EngineBusy(RuntimeError):
    """The bounded request queue is full (HTTP 503)."""


class EngineClosed(RuntimeError):
    """The engine is closed or draining; no further submissions."""


@dataclass(frozen=True)
class ServeResult:
    """One served solve: the artifact plus its serving provenance."""

    artifact: RunArtifact
    #: canonical spec string that produced the artifact (the degraded
    #: rung's spec when ``degraded``)
    spec: str
    #: ``Instance.content_hash`` of the solved instance
    instance_hash: str
    #: effective rng seed (request seed, else instance provenance seed)
    seed: int | None
    #: answered from the result cache (no solve ran)
    cached: bool
    #: prepared state was already warm for this content hash
    warm: bool
    #: in-worker seconds (0 for result-cache hits)
    solve_s: float
    #: seconds spent waiting in the bounded queue
    queued_s: float
    #: answered by waiting on an identical in-flight request
    deduped: bool = False
    #: the degradation ladder produced this (see ``artifact.meta["degraded"]``)
    degraded: bool = False
    #: the originally requested canonical spec, when ``degraded``
    degraded_from: str | None = None
    #: what tripped: ``deadline`` | ``breaker`` | ``crash`` | ``quarantine``
    #: | ``watchdog``
    degrade_reason: str | None = None
    #: answered by an opportunistic micro-batch (coalesced solve)
    coalesced: bool = False


@dataclass(frozen=True)
class _Job:
    spec: str
    instance: object
    seed: int | None
    config: object
    use_result_cache: bool
    deadline: Deadline | None = None
    token: CancelToken = field(default_factory=CancelToken)
    degrade: bool = True
    skip_primary: bool = False
    degrade_reason: str | None = None
    #: normalized np.dtype (float32) or None (float64 default path)
    dtype: object = None


@dataclass(eq=False)
class _Request:
    """One dequeued request on its way through the pipeline."""

    fut: Future
    job: _Job
    enqueued: float
    queued_s: float
    solver: object = None
    canonical: str = ""
    content: str = ""
    effective: int | None = None
    #: result-cache / single-flight / quarantine key (None until admitted)
    key: tuple | None = None
    cacheable: bool = False
    #: what tripped when a gate sends the request down the ladder
    reason: str | None = None
    #: an identical in-flight request's future this one takes its answer from
    leader: Future | None = None
    prepared: object = None
    warm: bool = False
    #: killed its worker; requeued for the ladder by _note_poison
    poisoned: bool = False


class ScheduleEngine:
    """Long-lived warm-state solver: submit requests, get artifacts."""

    def __init__(
        self,
        *,
        workers: int = 2,
        queue_limit: int = 64,
        result_cache_capacity: int = 256,
        prepared_cache_capacity: int | None = None,
        default_deadline_s: float | None = None,
        degradation=True,
        breaker=None,
        fault_model=None,
        supervise: bool = True,
        supervision_interval_s: float = 0.1,
        quarantine_after: int = 1,
        coalesce_max: int = 4,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if coalesce_max < 0:
            raise ValueError(
                f"coalesce_max must be >= 0, got {coalesce_max}"
            )
        if default_deadline_s is not None and not (default_deadline_s > 0):
            raise ValueError(
                f"default_deadline_s must be > 0, got {default_deadline_s}"
            )
        if quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, got {quarantine_after}"
            )
        self.queue_limit = int(queue_limit)
        self.default_deadline_s = default_deadline_s
        self.quarantine_after = int(quarantine_after)
        #: micro-batch size cap — 0 or 1 disables coalescing entirely
        self.coalesce_max = int(coalesce_max)
        self.supervision_interval_s = float(supervision_interval_s)
        # `prepared_cache_capacity` scopes a *private* PreparedCache to
        # this engine; without it the engine shares the process-global
        # cache.  (Resizing the global here would silently change
        # eviction for every other engine/solver in the process.)
        if prepared_cache_capacity is not None:
            self._prepared_cache = PreparedCache(
                capacity=prepared_cache_capacity
            )
        else:
            self._prepared_cache = PREPARED_CACHE

        # Resilience collaborators.  `degradation=True` builds the default
        # ladder; `breaker=None` the default circuit breaker — pass False
        # to disable either (the PR 8 hot path is untouched either way:
        # a closed breaker and an untriggered ladder cost one dict lookup).
        if degradation is True:
            self._ladder: DegradationLadder | None = DegradationLadder()
        elif degradation in (False, None):
            self._ladder = None
        elif isinstance(degradation, DegradationLadder):
            self._ladder = degradation
        elif callable(degradation):
            self._ladder = DegradationLadder(degradation)
        else:
            raise TypeError(f"bad degradation argument {degradation!r}")
        if breaker is None:
            self._breaker: CircuitBreaker | None = CircuitBreaker()
        elif breaker is False:
            self._breaker = None
        elif isinstance(breaker, CircuitBreaker):
            self._breaker = breaker
        else:
            raise TypeError(f"bad breaker argument {breaker!r}")
        if fault_model is None:
            self._injector = None
        elif isinstance(fault_model, ProcessFaultModel):
            self._injector = (
                None if fault_model.is_null() else fault_model.injector()
            )
        elif hasattr(fault_model, "decide"):
            self._injector = fault_model  # injector (or replay) directly
        else:
            raise TypeError(f"bad fault_model argument {fault_model!r}")

        self._queue: queue.Queue = queue.Queue(maxsize=self.queue_limit)
        self._lock = threading.Lock()
        self._closed = False
        self._draining = False
        self._results: OrderedDict[tuple, RunArtifact] = OrderedDict()
        self._result_capacity = int(result_cache_capacity)
        self._inflight: dict[tuple, Future] = {}
        self._quarantine: dict[tuple, int] = {}
        self._latency = WindowedHistogram(LATENCY_METRIC)
        # Lifetime counters (exported via stats() and the daemon /stats).
        for name in _COUNTERS + ("result_hits", "result_misses", "result_evictions"):
            setattr(self, name, 0)
        self._stop = threading.Event()
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            for i in range(int(workers))
        ]
        for t in self._workers:
            t.start()
        self._supervisor: threading.Thread | None = None
        if supervise:
            self._supervisor = threading.Thread(
                target=self._supervise_loop, name="serve-supervisor", daemon=True
            )
            self._supervisor.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        spec: str,
        instance,
        *,
        seed: int | None = None,
        config=None,
        use_result_cache: bool = True,
        deadline_s: float | None = None,
        degrade: bool = True,
        skip_primary: bool = False,
        degrade_reason: str | None = None,
        dtype=None,
    ) -> Future:
        """Enqueue one solve; returns a :class:`concurrent.futures.Future`.

        Raises :class:`EngineBusy` when the bounded queue is full and
        :class:`EngineClosed` after :meth:`close` or during
        :meth:`drain` — both *before* any work is done, which is what
        makes the backpressure cheap.  ``deadline_s`` starts this
        request's monotonic budget **now** (queueing time counts);
        ``None`` falls back to the engine's ``default_deadline_s``.
        ``skip_primary`` jumps straight to the degradation ladder (the
        daemon uses it to re-route a request whose primary execution
        crashed a worker or tripped the watchdog).  ``dtype=np.float32``
        opts into the single-precision batched kernel (batched solvers
        only; see DESIGN.md §14) — float32 results live under a distinct
        result-cache key, never answering a float64 request.
        """
        if self._closed or self._draining:
            raise EngineClosed(
                "engine is draining" if self._draining else "engine is closed"
            )
        if dtype is not None:
            dtype = np.dtype(dtype)
            if dtype == np.dtype(np.float64):
                dtype = None  # the default path — one cache key, not two
            elif dtype != np.dtype(np.float32):
                raise ValueError(
                    f"dtype must be float64 or float32, got {dtype}"
                )
        budget = deadline_s if deadline_s is not None else self.default_deadline_s
        deadline = Deadline(budget) if budget is not None else None
        fut: Future = Future()
        token = CancelToken()
        fut.cancel_token = token  # cooperative-cancel handle for the daemon
        job = _Job(
            spec=spec,
            instance=instance,
            seed=seed,
            config=config,
            use_result_cache=use_result_cache,
            deadline=deadline,
            token=token,
            degrade=degrade,
            skip_primary=skip_primary,
            degrade_reason=degrade_reason,
            dtype=dtype,
        )
        try:
            self._queue.put_nowait((fut, job, time.perf_counter()))
        except queue.Full:
            self._count("rejected")
            raise EngineBusy(
                f"request queue is full ({self.queue_limit} pending)"
            ) from None
        self._count("requests")
        if obs.enabled():
            obs.set_gauge("serve.queue_depth", self._queue.qsize())
        return fut

    def solve(
        self,
        spec: str,
        instance,
        *,
        seed: int | None = None,
        config=None,
        use_result_cache: bool = True,
        timeout: float | None = None,
        deadline_s: float | None = None,
        degrade: bool = True,
        dtype=None,
    ) -> ServeResult:
        """Submit and wait — the synchronous convenience path."""
        return self.submit(
            spec,
            instance,
            seed=seed,
            config=config,
            use_result_cache=use_result_cache,
            deadline_s=deadline_s,
            degrade=degrade,
            dtype=dtype,
        ).result(timeout=timeout)

    def note_deadline_timeout(self, spec: str) -> None:
        """Record a daemon-side watchdog expiry against ``spec``.

        The stuck worker cannot be interrupted (threads), but the breaker
        learns: enough watchdog trips open the circuit and subsequent
        requests for the spec degrade immediately instead of queueing
        behind a pathological solve.
        """
        try:
            canonical = get_solver(spec).canonical()
        except Exception:
            canonical = str(spec)
        self._count("deadline_timeouts")
        if self._breaker is not None:
            self._breaker.record_failure(canonical)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            exit_after = True
            try:
                if item is not _SHUTDOWN:
                    exit_after = self._serve(item)
            finally:
                self._queue.task_done()
                if obs.enabled():
                    obs.set_gauge("serve.queue_depth", self._queue.qsize())
            if exit_after:
                return

    def _note_poison(self, req: _Request, exc: BaseException) -> None:
        """Quarantine a worker-killing request, replace the worker, answer."""
        job, key = req.job, req.key
        self._count("worker_crashes")
        self._count("errors")
        with self._lock:
            quarantined = False
            if key is not None:
                self._quarantine[key] = self._quarantine.get(key, 0) + 1
                quarantined = self._quarantine[key] >= self.quarantine_after
        if obs.enabled():
            obs.event(
                "serve.worker_crash",
                level="error",
                spec=job.spec,
                error=repr(exc),
                quarantined=quarantined,
            )
        crash_error = WorkerCrashed(
            f"worker died executing {job.spec!r}: {type(exc).__name__}: {exc}"
        )
        # Replace the dying worker first: the pool is whole by the time
        # anything can answer the requeued request.
        if self._supervisor is not None:
            self._restart(threading.current_thread())
        if job.degrade and self._ladder is not None and not job.skip_primary:
            # Re-route the poisoned request to the degradation ladder on a
            # fresh future bridged back onto the caller's — the restarted
            # pool answers it degraded instead of 500.
            retry_fut: Future = Future()
            retry_fut.cancel_token = job.token
            retry_job = replace(
                job, degrade=True, skip_primary=True, degrade_reason="crash"
            )

            def _bridge(done: Future) -> None:
                err = done.exception()
                if err is not None:
                    req.fut.set_exception(err)
                else:
                    req.fut.set_result(done.result())

            retry_fut.add_done_callback(_bridge)
            try:
                self._queue.put_nowait((retry_fut, retry_job, req.enqueued))
                return
            except queue.Full:
                pass
        req.fut.set_exception(crash_error)

    def _supervise_loop(self) -> None:
        interval = max(0.01, self.supervision_interval_s)
        while not self._stop.wait(interval):
            if self._closed:
                return
            with self._lock:
                snapshot = list(self._workers)
            for t in snapshot:
                if not t.is_alive():
                    self._restart(t)

    def _restart(self, t: threading.Thread) -> None:
        """Replace worker ``t`` with a fresh thread (no-op once replaced)."""
        replacement = threading.Thread(
            target=self._worker_loop, name=t.name, daemon=True
        )
        with self._lock:
            if self._closed or t not in self._workers:
                return
            self._workers[self._workers.index(t)] = replacement
        replacement.start()
        self._count("worker_restarts")
        if obs.enabled():
            obs.event("serve.worker_restart", level="warning", worker=t.name)

    # ------------------------------------------------------------------
    # The request pipeline: admit → solve (grouped) → finish
    # ------------------------------------------------------------------
    def _serve(self, item) -> bool:
        """Answer one dequeued item plus any followers it coalesces.

        Returns ``True`` when this worker must exit after the group: the
        drain consumed a ``_SHUTDOWN`` (close() is tearing down), or a
        worker-killing crash (a ``BaseException``) struck — the request
        that raised it is requeued by :meth:`_step` once its worker is
        replaced, and the rest of its group get :class:`WorkerCrashed`.
        """
        reqs: list[_Request] = []
        drained: list[tuple] = []
        shutdown = False
        try:
            reqs = self._claim([item])
            if reqs:
                self._step(reqs[0], self._admit, reqs[0])
                if self._solvable(reqs[0]) and self._coalesceable(reqs[0]):
                    drained, shutdown = self._drain_followers()
                    followers = self._claim(drained)
                    reqs += followers
                    for req in followers:
                        self._step(req, self._admit, req)
            self._run(reqs)
        except BaseException as exc:
            for req in reqs:
                if not (req.fut.done() or req.poisoned):
                    self._fail(req, WorkerCrashed(
                        f"worker died serving {req.job.spec!r}: {exc!r}"
                    ))
            return True
        finally:
            # In-flight cleanup for every request, and one task_done per
            # drained item (the dequeued item is the worker loop's).
            with self._lock:
                for req in reqs:
                    if req.key is not None and self._inflight.get(req.key) is req.fut:
                        del self._inflight[req.key]
            for _ in drained:
                self._queue.task_done()
        return shutdown

    def _run(self, reqs: list[_Request]) -> None:
        """Solve, degrade or follow admitted requests.

        Solvable requests are grouped by (canonical spec, dtype) — each
        non-coalesceable one alone — and each group is prepared and
        solved in one call.
        """
        groups: dict = {}
        for req in reqs:
            if self._solvable(req):
                key = (req.canonical, req.job.dtype) if self._coalesceable(req) else req
                groups.setdefault(key, []).append(req)
        for group in groups.values():
            start = time.perf_counter()
            ready = [
                req for req in group
                if self._step(req, self._prepare, req) and req.reason is None
            ]
            if ready:
                self._step(ready[0], self._solve_group, ready, start)

        # Tripped gates degrade and followers take their leader's
        # answer, in admission order: a leader inside this group was
        # admitted, so answered, before its followers.
        for req in reqs:
            if req.reason is not None:
                self._step(req, self._solve_degraded, req, req.reason)
            elif req.leader is not None:
                self._step(req, self._await_leader, req)

    @staticmethod
    def _claim(items) -> list[_Request]:
        """Requests for the dequeued items whose callers did not cancel."""
        now = time.perf_counter()
        return [
            _Request(fut, job, enqueued, now - enqueued)
            for fut, job, enqueued in items
            if fut.set_running_or_notify_cancel()
        ]

    def _step(self, req: _Request, fn, *args) -> bool:
        """Run one pipeline step for ``req``.

        An ordinary failure answers ``req`` with it; a worker-killing one
        quarantines and requeues ``req`` (:meth:`_note_poison`), then
        propagates so the worker dies.
        """
        try:
            fn(*args)
        except Exception as exc:
            self._fail(req, exc)
            return False
        except BaseException as exc:
            if not (req.fut.done() or req.poisoned):
                req.poisoned = True
                self._note_poison(req, exc)
            raise
        return True

    def _count(self, name: str, n: int = 1) -> None:
        """Bump a lifetime counter and its obs mirror ``serve.<name>``."""
        with self._lock:
            setattr(self, name, getattr(self, name) + n)
        if obs.enabled():
            obs.inc(f"serve.{name}", n)

    def _fail(self, req: _Request, exc: Exception) -> None:
        self._count("errors")
        req.fut.set_exception(exc)

    def _answer(self, req: _Request, window: str, latency_s: float, **fields) -> None:
        with self._lock:
            self.completed += 1
        self._observe_latency(window, latency_s)
        req.fut.set_result(ServeResult(
            instance_hash=req.content, seed=req.effective,
            queued_s=req.queued_s, **fields,
        ))

    @staticmethod
    def _solvable(req: _Request) -> bool:
        """Admitted, and neither answered, degrading nor following."""
        return not req.fut.done() and req.reason is None and req.leader is None

    def _coalesceable(self, req: _Request) -> bool:
        """Whether a solvable ``req`` may share a batched solve.

        Chaos runs (an active fault injector) never coalesce, so faults
        are injected per request; degraded and skip-primary resubmissions
        never reach a solve at all.
        """
        return (
            self.coalesce_max >= 2
            and self._injector is None
            and req.solver._batchable()
        )

    def _drain_followers(self) -> tuple[list[tuple], bool]:
        """Non-blockingly drain up to ``coalesce_max - 1`` queued items.

        Every drained item is *owned* by the caller — answered in
        :meth:`_serve` and matched with one ``task_done`` there.  Nothing
        is ever put back, so a full queue can never deadlock the drain.
        A drained ``_SHUTDOWN`` sentinel stops the drain; the flag tells
        the caller to exit after the current group.
        """
        drained: list[tuple] = []
        limit = self.coalesce_max - 1
        while len(drained) < limit:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                self._queue.task_done()
                return drained, True
            drained.append(item)
        return drained, False

    def _admit(self, req: _Request) -> None:
        """Resolve, hash and gate one request: answer it from the result
        cache, attach it to an identical in-flight leader (``req.leader``),
        set the reason of a tripped gate (``req.reason``), or leave it to
        solve."""
        job = req.job
        # Spec strings resolve in the worker (sim/runner.py's pattern) —
        # the canonical form is also the result-cache key component.
        req.solver = get_solver(job.spec)
        req.canonical = canonical = req.solver.canonical()
        req.content = job.instance.content_hash()
        req.effective = job.seed if job.seed is not None else job.instance.seed
        # The float64 key keeps its historical three-component shape;
        # float32 requests get a fourth component so a single-precision
        # artifact can never answer (or be answered by) a float64 request.
        req.key = key = (req.content, canonical, req.effective) + (
            ("float32",) if job.dtype is not None else ()
        )
        # A degrade-only resubmission (worker crash / daemon watchdog)
        # bypasses the result cache *and* single-flight dedup: its key is
        # the very request it replaces, so following that (possibly
        # wedged) leader would block instead of degrading.
        req.cacheable = (
            job.use_result_cache and req.effective is not None
            and not job.skip_primary
        )
        if req.cacheable:
            with self._lock:
                hit = self._results.get(key)
                if hit is not None:
                    self._results.move_to_end(key)
                    self.result_hits += 1
                else:
                    self.result_misses += 1
            if obs.enabled():
                obs.inc(
                    "serve.result_cache_hits" if hit is not None
                    else "serve.result_cache_misses"
                )
            if hit is not None:
                self._answer(
                    req, req.solver.name, req.queued_s, artifact=hit,
                    spec=canonical, cached=True, warm=True, solve_s=0.0,
                )
                return
            # Single-flight: concurrent identical seeded requests collapse
            # onto one execution — the idempotency guarantee retrying
            # clients rely on (no request is ever double-executed).  An
            # earlier member of this group is a leader like any other.
            with self._lock:
                leader = self._inflight.get(key)
                if leader is None or leader.done():
                    self._inflight[key] = req.fut
                    leader = None
            if leader is not None:
                req.leader = leader
                return
        self._gate(req)

    def _gate(self, req: _Request) -> None:
        """Quarantine, deadline and breaker: set the reason of a tripped
        gate, or raise when the request may not degrade."""
        job, key, canonical = req.job, req.key, req.canonical
        degradable = job.degrade and self._ladder is not None
        with self._lock:
            quarantined = self._quarantine.get(key, 0) >= self.quarantine_after
        if job.skip_primary:
            req.reason = job.degrade_reason or "crash"
        elif quarantined:
            if not degradable:
                raise RequestQuarantined(
                    f"request {req.content[:12]}×{canonical} previously "
                    f"crashed a worker and is quarantined"
                )
            req.reason = "quarantine"
        elif job.deadline is not None and job.deadline.expired():
            self._count("deadline_expired")
            if not degradable:
                job.deadline.check(canonical)  # raises DeadlineExceeded
            req.reason = "deadline"
        elif self._breaker is not None and not self._breaker.allow(canonical):
            if not degradable:
                raise BreakerOpen(f"circuit breaker open for {canonical}")
            req.reason = "breaker"

    def _prepare(self, req: _Request) -> None:
        """Fault injection, then prepared state, at deadline seams; a
        deadline that runs out charges the breaker, then degrades the
        request (``req.reason``) or raises when it may not degrade."""
        deadline, canonical = req.job.deadline, req.canonical
        try:
            if deadline is not None:
                deadline.check(canonical)
            if self._injector is not None:
                self._inject(req)
            req.prepared, req.warm = self._prepared_cache.get_or_prepare(
                req.job.instance
            )
            if deadline is not None:
                deadline.check(canonical)
        except DeadlineExceeded:
            if self._breaker is not None:
                self._breaker.record_failure(canonical)
            self._count("deadline_expired")
            if not (req.job.degrade and self._ladder is not None):
                raise
            req.reason = "deadline"
        except BaseException:
            if self._breaker is not None:
                self._breaker.record_failure(canonical)
            raise

    def _inject(self, req: _Request) -> None:
        """Apply the fault injector's decision for one request."""
        canonical = req.canonical
        fault = self._injector.decide(canonical, req.content)
        if fault.kind == "crash":
            raise InjectedWorkerCrash(
                f"injected crash for {canonical} on {req.content[:12]}"
            )
        if fault.kind in ("slow", "stall"):
            finished = cooperative_sleep(
                fault.seconds, token=req.job.token, deadline=req.job.deadline
            )
            if fault.kind == "stall" and not finished:
                # The stall ate the budget down to the degradation
                # reserve (or the daemon cancelled): degrade now.
                raise DeadlineExceeded(
                    f"injected {fault.seconds:g}s stall interrupted for "
                    f"{canonical}"
                )
        if req.job.deadline is not None:
            req.job.deadline.check(canonical)

    def _solve_group(self, ready: list[_Request], start: float) -> None:
        """One batched solve for prepared same-spec requests, then finish.

        If a group of N > 1 raises, the breaker is charged once and each
        member is retried alone; a group of one raises to its request.
        """
        lead = ready[0]
        try:
            artifacts = self._kernel(lead.solver, ready, dtype=lead.job.dtype)
        except BaseException as exc:
            if self._breaker is not None:
                self._breaker.record_failure(lead.canonical)
            if len(ready) == 1 or not isinstance(exc, Exception):
                raise
            if obs.enabled():
                obs.event(
                    "serve.coalesce_fallback", level="warning",
                    spec=lead.canonical, batch=len(ready), error=repr(exc),
                )
            for req in ready:
                self._step(req, self._solve_group, [req], time.perf_counter())
            return
        solve_s = time.perf_counter() - start
        coalesced = len(ready) > 1
        if coalesced:
            self._count("coalesced_batches")
            self._count("coalesced_requests", len(ready))
        for req, artifact in zip(ready, artifacts):
            if self._breaker is not None:
                self._breaker.record_success(req.canonical)
            if req.cacheable:
                with self._lock:
                    self._results[req.key] = artifact
                    while len(self._results) > self._result_capacity:
                        self._results.popitem(last=False)
                        self.result_evictions += 1
            self._answer(
                req, req.solver.name, req.queued_s + solve_s,
                artifact=artifact, spec=req.canonical, cached=False,
                warm=req.warm, solve_s=solve_s, coalesced=coalesced,
            )

    def _kernel(self, solver, reqs, *, dtype=None) -> list[RunArtifact]:
        """The engine's one solve call (``solve_prepared`` per request
        inside it for solvers without a batched kernel)."""
        artifacts = solver.solve_prepared_batch(
            [req.prepared for req in reqs],
            [np.random.default_rng(req.effective) for req in reqs],
            [
                req.job.config if req.job.config is not None
                else req.job.instance.config
                for req in reqs
            ],
            dtype=dtype,
        )
        with self._lock:
            self.solves += len(reqs)
        return artifacts

    def _await_leader(self, req: _Request) -> None:
        """Take an identical in-flight request's answer — waiting *bounded*.

        The wait polls instead of blocking: between polls the follower
        checks its cancel token and deadline, and a deadline-less
        follower gives up after :data:`FOLLOWER_MAX_WAIT_S`, so a wedged
        leader never pins follower worker threads along with its own.
        A stuck or cancelled wait falls through to the degradation
        ladder (typed :class:`DeadlineExceeded` when degradation is
        off).  Only a primary answer is shared.
        """
        self._count("inflight_dedup")
        deadline, token = req.job.deadline, req.job.token
        budget = (
            max(deadline.remaining(), 0.01)
            if deadline is not None
            else FOLLOWER_MAX_WAIT_S
        )
        limit = time.monotonic() + budget
        while True:
            try:
                lead: ServeResult = req.leader.result(
                    timeout=min(
                        _FOLLOWER_POLL_S,
                        max(limit - time.monotonic(), 0.001),
                    )
                )
                break
            except FutureTimeout:
                if not token.cancelled and time.monotonic() < limit:
                    continue
                reason = "watchdog" if token.cancelled else "deadline"
                if req.job.degrade and self._ladder is not None:
                    return self._solve_degraded(req, reason)
                raise DeadlineExceeded(
                    f"gave up waiting on an identical in-flight request "
                    f"for {req.canonical} after {budget:.3f}s"
                ) from None
            except Exception:
                lead = None  # the leader failed
                break
        if lead is None or lead.degraded:
            # The leader failed, or degraded on its own deadline, breaker
            # or quarantine: this request gets its own attempt under its
            # own gates and budget rather than inheriting that outcome.
            req.leader = None
            self._gate(req)
            return self._run([req])
        self._answer(
            req, req.solver.name, req.queued_s, artifact=lead.artifact,
            spec=lead.spec, cached=True, warm=True, solve_s=0.0,
            deduped=True, coalesced=lead.coalesced,
        )

    def _solve_degraded(self, req: _Request, reason: str) -> None:
        """Walk the ladder below the requested spec until a rung answers.

        Degraded rungs run **without** deadline checks or fault injection
        — the whole point is to return a valid schedule rather than fail,
        and the fallback rungs are cheap by construction.
        """
        canonical = req.canonical
        fallbacks = (
            self._ladder.fallbacks(canonical) if self._ladder is not None else ()
        )
        last_error: Exception | None = None
        start = time.perf_counter()
        for rung_spec in fallbacks:
            rung = get_solver(rung_spec)
            rcanon = rung.canonical()
            if self._breaker is not None and not self._breaker.allow(rcanon):
                continue
            try:
                req.prepared, warm = self._prepared_cache.get_or_prepare(
                    req.job.instance
                )
                artifact = self._kernel(rung, [req])[0]
            except Exception as exc:
                if self._breaker is not None:
                    self._breaker.record_failure(rcanon)
                last_error = exc
                continue
            if self._breaker is not None:
                self._breaker.record_success(rcanon)
            solve_s = time.perf_counter() - start
            artifact.meta["degraded"] = {
                "from": canonical,
                "to": rcanon,
                "reason": reason,
                "utility": float(artifact.total_utility),
            }
            self._count("degraded")
            if obs.enabled():
                obs.event(
                    "serve.degraded",
                    level="warning",
                    from_spec=canonical,
                    to_spec=rcanon,
                    reason=reason,
                )
            self._answer(
                req, rung.name, req.queued_s + solve_s, artifact=artifact,
                spec=rcanon, cached=False, warm=warm, solve_s=solve_s,
                degraded=True, degraded_from=canonical, degrade_reason=reason,
            )
            return
        # Ladder exhausted (or absent): surface the trip as a typed error.
        if last_error is not None:
            raise last_error
        raise _TRIP_ERRORS.get(reason, BreakerOpen)(
            f"{reason} tripped for request {req.content[:12]}×{canonical} "
            f"and no degradation rung was available"
        )

    def _observe_latency(self, window: str, seconds: float) -> None:
        with self._lock:
            self._latency.observe(seconds, window=window)
        if obs.enabled():
            obs.observe_windowed(LATENCY_METRIC, seconds, window=window)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Everything the daemon's ``/stats`` endpoint reports."""
        with self._lock:
            latency = self._latency.snapshot()
            result_cache = {
                "size": len(self._results),
                "capacity": self._result_capacity,
                "hits": self.result_hits,
                "misses": self.result_misses,
                "evictions": self.result_evictions,
            }
            counters = {name: getattr(self, name) for name in _COUNTERS}
            counters["quarantined"] = len(
                [
                    1
                    for count in self._quarantine.values()
                    if count >= self.quarantine_after
                ]
            )
            workers_alive = sum(1 for t in self._workers if t.is_alive())
        stats = {
            **counters,
            "queue_depth": self._queue.qsize(),
            "queue_limit": self.queue_limit,
            "coalesce_max": self.coalesce_max,
            "workers": len(self._workers),
            "workers_alive": workers_alive,
            "default_deadline_s": self.default_deadline_s,
            "degradation": self._ladder is not None,
            "result_cache": result_cache,
            "prepared_cache": self._prepared_cache.info(),
            "latency": latency,
        }
        if self._breaker is not None:
            stats["breaker"] = self._breaker.snapshot()
        if self._injector is not None:
            stats["faults"] = self._injector.stats()
        return stats

    def clear_result_cache(self) -> None:
        with self._lock:
            self._results.clear()

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Stop accepting new work; wait for queued + in-flight requests.

        Returns ``True`` when everything finished inside ``timeout_s``.
        The engine stays alive (stats remain readable) — call
        :meth:`close` afterwards for the final teardown.  The graceful
        SIGTERM path of ``repro-haste serve`` is: stop the listener,
        ``drain(deadline)``, ``close()``, exit 0.
        """
        self._draining = True
        end = time.monotonic() + max(0.0, float(timeout_s))
        # `unfinished_tasks` counts puts not yet matched by task_done(),
        # which workers call only after fully answering a request — so a
        # dequeued-but-executing item still counts, with no window where
        # the engine looks idle mid-request.
        q = self._queue
        with q.all_tasks_done:
            while q.unfinished_tasks:
                remaining = end - time.monotonic()
                if remaining <= 0.0:
                    return False
                q.all_tasks_done.wait(remaining)
        return True

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the workers."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._supervisor is not None and wait:
            self._supervisor.join(timeout=5)
        with self._lock:
            workers = list(self._workers)
        for _ in workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for t in workers:
                t.join(timeout=30)

    def __enter__(self) -> "ScheduleEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
