"""The sweep service: a deduplicating job queue over ``run_sweep``.

:class:`SweepService` owns a bounded queue of sweep records keyed by
content identity (:func:`~repro.obs.sweep_id_for`) and a small pool of
worker threads that drain it through the ordinary orchestrator.  The
HTTP front-end (:mod:`repro.serve.http`) is a thin shell over this
class; tests drive it directly.

Dedup and replay semantics:

* Submitting a spec that is already queued or running *attaches* to the
  existing record — no second execution, both submitters poll the same
  sweep id.
* Submitting a spec whose record already completed is a *replay*: the
  service answers from the record (and, transitively, the result
  store) with zero jobs executed — ``executed=0``,
  ``cache_hits=total``, the same digest.  After a service restart the
  record is gone but the store is not: the sweep re-runs and every job
  cache-hits, reporting the same numbers the replay would.
* A failed record re-queues on resubmission.

Store safety: every run opens a *fresh* :class:`~repro.exp.ResultStore`
instance, so concurrent worker threads never share one in-memory index;
the store's sidecar flock plus the reconcile-on-put path make
interleaved appends safe and visible.

Warm pool: each worker thread owns at most one
:class:`~concurrent.futures.ProcessPoolExecutor` of ``jobs`` processes
and hands it to every ``pool`` request it runs (and every ``auto``
request with ``jobs > 1``), so consecutive sweeps skip the fork and
find the workers' trace and inert-run memos warm.  The executor is
created on the thread's first such request and replaced when a request
asks for a different ``jobs`` or after its pool broke (a worker died);
a broken pool fails only the sweep it was running.  Pool workers
run in their own process group with default signal handlers, so a
SIGTERM to one worker ends it, and a signal to the service's group
drains the service without killing its workers.  At most
``workers x jobs`` pool processes exist at once, and :meth:`stop`
shuts every executor down and waits for its processes, so none outlives
the service; a worker of a service killed outright exits within a
second.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from repro.errors import ReproError
from repro.obs import sweep_id_for
from repro.obs.metrics import ServiceMetrics, fleet_backend_metrics
from repro.serve.protocol import SweepRequest

#: Terminal record states.
DONE_STATES = frozenset({"done", "failed"})


@dataclass
class SweepRecord:
    """One sweep the service knows about, keyed by content identity."""

    sweep_id: str
    request: SweepRequest
    total_jobs: int
    state: str = "queued"  # queued | running | done | failed
    submissions: int = 1
    completed: int = 0
    cached_so_far: int = 0
    executed: int = 0
    cache_hits: int = 0
    digest: str | None = None
    error: str | None = None
    trace_path: str | None = None
    metrics: dict | None = None
    aggregates: list | None = None
    created_s: float = dc_field(default_factory=time.time)
    finished_s: float | None = None
    #: Structured job events (run_sweep's EventsFn dicts), seq = index.
    events: list = dc_field(default_factory=list)

    def snapshot(self, replay: bool = False) -> dict:
        """JSON-able status view; ``replay=True`` reports the
        zero-execution answer a duplicate submission gets."""
        fleet = fleet_backend_metrics(self.metrics) if self.metrics else None
        payload = {
            "sweep_id": self.sweep_id,
            "state": self.state,
            "total_jobs": self.total_jobs,
            "completed": self.completed,
            "executed": 0 if replay else self.executed,
            "cache_hits": self.total_jobs if replay else self.cache_hits,
            "submissions": self.submissions,
            "replay": replay,
            "digest": self.digest,
            "error": self.error,
            "trace_path": self.trace_path,
            "request": self.request.to_payload(),
            "events_seq": len(self.events),
        }
        if self.aggregates is not None:
            payload["aggregates"] = self.aggregates
        if fleet is not None:
            payload["fleet"] = {"hosts": fleet.get("hosts")}
        if self.finished_s is not None:
            payload["elapsed_s"] = round(self.finished_s - self.created_s, 3)
        return payload


def _exit_with_parent(parent_pid: int) -> None:
    """Warm-pool worker initializer: leave signals to the service, and
    exit once the service is gone.

    A forked worker inherits the service's SIGTERM/SIGINT drain handler
    (:func:`repro.serve.http.serve`), which would run ``stop()`` on the
    worker's copy of the service instead of ending it.  So the worker
    restores the default handlers, and a SIGTERM sent to it ends it;
    the next request then gets a fresh pool.  It also leaves the
    service's process group, so a signal to the whole group (Ctrl-C,
    ``kill -TERM -<pgid>``) reaches only the service, which drains the
    sweep these workers are running and then shuts them down.

    :meth:`SweepService.stop` shuts the pools down, but a service killed
    outright (SIGKILL) never gets there, and its idle workers would
    wait on their task queue for good.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    os.setpgid(0, 0)

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


class SweepService:
    """Bounded, deduplicating sweep queue with graceful drain.

    Parameters
    ----------
    cache_dir:
        Result-cache directory every run's fresh store opens (``None``
        resolves like the CLI: ``$REPRO_CACHE_DIR`` or the default).
    workers:
        Concurrent sweep executions (each is one ``run_sweep`` call;
        parallelism *within* a sweep is the request's ``jobs``/backend).
    queue_limit:
        Maximum queued-not-yet-running sweeps; beyond it submissions
        are rejected (HTTP 429) rather than buffered without bound.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        workers: int = 1,
        queue_limit: int = 8,
    ) -> None:
        from repro.exp import default_cache_dir

        self.cache_dir = Path(
            default_cache_dir() if cache_dir is None else cache_dir
        )
        self.workers = max(1, workers)
        self.queue_limit = max(1, queue_limit)
        self.metrics = ServiceMetrics()
        self._records: dict[str, SweepRecord] = {}
        self._queue: deque[str] = deque()
        self._cond = threading.Condition()
        self._threads: list[threading.Thread] = []
        #: ``(jobs, executor)`` of each worker thread's warm pool, by
        #: thread name.
        self._pools: dict[str, tuple[int, ProcessPoolExecutor]] = {}
        self._draining = False
        self._stopped = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "SweepService":
        for n in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"sweep-worker-{n}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def drain(self, timeout: float | None = None) -> bool:
        """Stop accepting work, finish what is queued/running.

        Returns ``True`` when everything reached a terminal state
        within ``timeout`` (``None`` waits indefinitely).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._draining = True
            self._cond.notify_all()
            while True:
                busy = bool(self._queue) or any(
                    r.state == "running" for r in self._records.values()
                )
                if not busy:
                    return True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(timeout=remaining)

    def stop(self, timeout: float | None = 10.0) -> bool:
        """Drain, terminate the worker threads, then shut every warm
        pool down and wait for its processes to exit."""
        drained = self.drain(timeout=timeout)
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        with self._cond:
            pools = [pool for _, pool in self._pools.values()]
            self._pools.clear()
        for pool in pools:
            pool.shutdown(wait=True)
        return drained

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission ----------------------------------------------------
    def submit(self, payload: dict) -> tuple[dict, int]:
        """Accept one submission; returns ``(status_payload, http_code)``.

        Codes mirror the HTTP front-end: 202 queued/attached, 200
        replayed-from-store, 400 invalid, 429 queue full, 503 draining.
        """
        with self._cond:
            self.metrics.submissions += 1
            if self._draining:
                self.metrics.rejected += 1
                return {"error": "service is draining"}, 503
        try:
            request = SweepRequest.from_payload(payload)
            spec = request.spec()
            total = len(spec.expand())
        except ReproError as exc:
            with self._cond:
                self.metrics.rejected += 1
            return {"error": str(exc)}, 400
        sweep_id = sweep_id_for(spec)
        with self._cond:
            record = self._records.get(sweep_id)
            if record is not None:
                record.submissions += 1
                if record.state == "done":
                    self.metrics.replays += 1
                    return record.snapshot(replay=True), 200
                if record.state == "failed":
                    # A failed sweep re-queues: the store kept whatever
                    # completed, so the retry resumes from there.
                    record.state = "queued"
                    record.error = None
                    record.completed = 0
                    record.request = request
                    self._queue.append(sweep_id)
                    self._cond.notify_all()
                    return record.snapshot(), 202
                self.metrics.attached += 1
                return record.snapshot(), 202
            if len(self._queue) >= self.queue_limit:
                self.metrics.rejected += 1
                return {"error": "submission queue is full"}, 429
            record = SweepRecord(
                sweep_id=sweep_id, request=request, total_jobs=total
            )
            self._records[sweep_id] = record
            self._queue.append(sweep_id)
            self._cond.notify_all()
            return record.snapshot(), 202

    # -- status --------------------------------------------------------
    def status(self, sweep_id: str, wait_s: float = 0.0) -> dict | None:
        """Status snapshot by (prefix of a) sweep id; ``wait_s`` blocks
        until the record is terminal or the wait expires."""
        deadline = time.monotonic() + max(0.0, wait_s)
        with self._cond:
            self.metrics.status_requests += 1
            record = self._lookup(sweep_id)
            if record is None:
                return None
            while record.state not in DONE_STATES:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            return record.snapshot()

    def list_sweeps(self) -> list[dict]:
        with self._cond:
            return [
                self._records[sid].snapshot()
                for sid in sorted(self._records)
            ]

    def events_since(self, sweep_id: str, seq: int,
                     wait_s: float = 0.0) -> tuple[list, int, bool] | None:
        """Job events after ``seq`` for one sweep: ``(events, next_seq,
        terminal)``; blocks up to ``wait_s`` for news.  ``None`` for an
        unknown id."""
        deadline = time.monotonic() + max(0.0, wait_s)
        with self._cond:
            record = self._lookup(sweep_id)
            if record is None:
                return None
            while (
                len(record.events) <= seq
                and record.state not in DONE_STATES
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            fresh = list(record.events[seq:])
            return fresh, seq + len(fresh), record.state in DONE_STATES

    def _lookup(self, sweep_id: str) -> SweepRecord | None:
        """Exact match first, then unambiguous prefix (CLI ergonomics)."""
        record = self._records.get(sweep_id)
        if record is not None or not sweep_id:
            return record
        matches = [
            r for sid, r in self._records.items()
            if sid.startswith(sweep_id)
        ]
        return matches[0] if len(matches) == 1 else None

    # -- execution -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if self._stopped and not self._queue:
                    return
                sweep_id = self._queue.popleft()
                record = self._records[sweep_id]
                record.state = "running"
                self._cond.notify_all()
            try:
                self._run(record)
            except BaseException as exc:  # never kill the worker thread
                with self._cond:
                    record.state = "failed"
                    record.error = f"{type(exc).__name__}: {exc}"
                    record.finished_s = time.time()
                    self.metrics.failed += 1
                    self._cond.notify_all()
            else:
                with self._cond:
                    self._cond.notify_all()

    def _warm_pool(self, jobs: int) -> ProcessPoolExecutor:
        """The calling worker thread's executor of ``jobs`` processes,
        replacing one of another size or one whose pool broke."""
        name = threading.current_thread().name
        with self._cond:
            size, pool = self._pools.get(name, (jobs, None))
        # ``_broken`` is the executor's own verdict (a worker died): it
        # refuses every later submission, so the pool is replaced.
        if pool is not None and (size != jobs or pool._broken):
            pool.shutdown(wait=True)
            pool = None
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=jobs, initializer=_exit_with_parent,
                initargs=(os.getpid(),),
            )
            with self._cond:
                self._pools[name] = (jobs, pool)
        return pool

    def _build_backend(self, request: SweepRequest):
        """Run options -> backend argument for ``run_sweep``.

        A local multi-process request (``pool``, or ``auto`` with
        ``jobs > 1``) gets a ``pool`` backend over the thread's warm
        executor.  Fault injection builds the fleet backend *instance*
        with an explicit plan (thread-safe, unlike the
        ``REPRO_FLEET_FAULTS`` process environment the CLI uses);
        everything else passes the registry name through.  The fleet
        spools under the service's cache dir so ``repro cache
        info``/``gc`` see its leavings.
        """
        if not request.hosts and (
            request.backend == "pool"
            or (request.backend == "auto" and request.jobs > 1)
        ):
            from repro.exp.backend import PoolBackend

            return PoolBackend(
                jobs=request.jobs, executor=self._warm_pool(request.jobs)
            )
        if request.faults is None:
            return request.backend
        from repro.fleet.coordinator import RemoteFleetBackend
        from repro.fleet.faults import FleetFaultPlan

        return RemoteFleetBackend(
            jobs=request.jobs,
            hosts=request.hosts,
            fault_plan=FleetFaultPlan.parse(request.faults),
            spool_root=self.cache_dir,
        )

    def _run(self, record: SweepRecord) -> None:
        from repro.exp import ResultStore, run_sweep, sweep_digest

        request = record.request
        spec = request.spec()
        store = ResultStore(self.cache_dir)

        def on_event(event: dict) -> None:
            with self._cond:
                record.events.append(event)
                record.completed = event.get("completed", record.completed)
                if event.get("cached"):
                    record.cached_so_far += 1
                self._cond.notify_all()

        sweep = run_sweep(
            spec,
            jobs=request.jobs,
            store=store,
            backend=self._build_backend(request),
            hosts=request.hosts,
            telemetry=request.trace,
            events=on_event,
        )
        digest = sweep_digest(sweep)
        aggregates = None
        try:
            comparison = sweep.comparison()
            aggregates = [
                {
                    "workload": name,
                    "defense": label,
                    "slowdown_pct": round(
                        comparison.slowdown_pct(label, name), 4
                    ),
                    "alerts_per_trefi": round(
                        comparison.results[label][name].alerts_per_trefi, 6
                    ),
                }
                for name in comparison.workloads
                for label in comparison.results
            ]
        except Exception:
            # Multi-override or baseline-less grids have no single
            # comparison table; the digest is still the full answer.
            aggregates = None
        with self._cond:
            record.state = "done"
            record.executed = sweep.executed
            record.cache_hits = sweep.cache_hits
            record.completed = sweep.total_jobs
            record.digest = digest
            record.trace_path = sweep.trace_path
            record.metrics = (
                sweep.metrics.to_dict() if sweep.metrics else None
            )
            record.aggregates = aggregates
            record.finished_s = time.time()
            self.metrics.completed += 1
            self._cond.notify_all()
