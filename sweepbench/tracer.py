"""Outside-in layer tracer of the sweep benchmark.

The tracer wraps the public entry point of every layer of the ``repro``
package from the benchmark's own files; the program itself is not
edited.  Each wrapper times its call and keeps the layer's *self* time
(the call's duration minus the part of it spent in nested wrapped
calls), the number of calls, and the layer's deterministic work counts.

Two kinds of layers:

* **Span layers** (sweeps, backend dispatch, store open/append, engine
  replays, trace generation, LLC stream preparation, serialization):
  each call is also kept as a span record -- name, start, end, self
  time, parent span and the id of the sweep or request it serves (the
  sweep id).  Spans stay in memory until :meth:`Tracer.write_spans`.
* **Hot layers** (``PriorityServiceQueue.observe`` and the per-bank
  defense callbacks, called hundreds of thousands of times per sweep):
  counted and timed, but not recorded call by call.

Wrappers are installed on the classes and module attributes the program
looks names up in, so they must be installed before the first system
is built (QPRAC binds ``psq.observe`` when a bank is constructed).
Forked ``pool`` workers inherit the wrappers, but their accounting
stays in the child and is lost: engine layers are measured only where
the sweep runs in process.

``inject`` maps a layer name to a fixed delay added to every call of
that layer: pure-Python work that takes that many seconds on the
reference host (``hostspeed.spin``), so it slows with the host the way
program code does.  The attribution self-test uses it to check that a
slowdown lands in the layer it was put in.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing.process
import sys
import threading
import time
from collections import defaultdict

from hostspeed import spin

perf = time.perf_counter


class _ThreadState:
    """Accounting of one thread; merged when the report is taken."""

    __slots__ = ("stack", "self_s", "calls", "counts", "trace_id")

    def __init__(self) -> None:
        #: One ``[child_seconds, span_id]`` frame per open wrapped call.
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.trace_id: str | None = None


class Tracer:
    """Layer wrappers plus their in-memory accounting."""

    def __init__(self, inject: dict[str, float] | None = None) -> None:
        self.inject = dict(inject or {})
        self.spans: list[dict] = []
        #: Wall-clock durations of ``run_sweep`` calls, by sweep id.
        self.sweep_durations: dict[str, float] = {}
        #: perf_counter stamps at which the service queued a sweep and
        #: at which ``run_sweep`` was entered for it, by sweep id.
        self._accepted: dict[str, float] = {}
        self._entered: dict[str, float] = {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def report(self) -> dict:
        """Self time and calls per layer, plus work counts, summed over
        every thread that ran a wrapped call."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, float] = defaultdict(float)
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for key, value in state.self_s.items():
                self_s[key] += value
            for key, value in state.calls.items():
                calls[key] += value
            for key, value in state.counts.items():
                counts[key] += value
        return {"self_s": dict(self_s), "calls": dict(calls),
                "counts": dict(counts)}

    def queue_wait_s(self) -> float:
        """Summed wait from a submission being queued to its
        ``run_sweep`` call.  Stamps are matched by sweep id after the
        fact: the service's worker may enter the sweep before the
        submitting thread returns, and that wait counts as zero."""
        return sum(
            max(0.0, self._entered[sweep_id] - queued_at)
            for sweep_id, queued_at in self._accepted.items()
            if sweep_id in self._entered
        )

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")

    # -- wrappers ------------------------------------------------------
    def _hot(self, fn, layer: str):
        """Timed and counted, no span record and no hooks."""
        state_of = self._state
        local = self._local
        delay = self.inject.get(layer, 0.0)

        def wrapper(*args, **kwargs):
            state = getattr(local, "state", None) or state_of()
            stack = state.stack
            frame = [0.0, None]
            start = perf()
            stack.append(frame)
            try:
                if delay:
                    spin(delay)
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                state.self_s[layer] += duration - frame[0]
                state.calls[layer] += 1
                if stack:
                    stack[-1][0] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, fn, layer: str, before=None, after=None,
              record: bool = True):
        """Timed call kept as a span; ``before(state, args, kwargs)``
        returns ``(args, kwargs, token)`` and ``after(state, args,
        kwargs, result, token, start, duration)`` records work counts.
        Hook time is charged to ``tracer`` self time, not to the caller."""
        spans = self.spans
        ids = self._ids
        delay = self.inject.get(layer, 0.0)

        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            token = None
            if before is not None:
                hook_started = perf()
                args, kwargs, token = before(state, args, kwargs)
                self._charge_hook(state, perf() - hook_started)
            parent = stack[-1][1] if stack else None
            # Unrecorded calls pass their nearest recorded ancestor on
            # as the parent of spans nested in them.
            frame = [0.0, next(ids) if record else parent]
            start = perf()
            stack.append(frame)
            try:
                if delay:
                    spin(delay)
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                state.self_s[layer] += duration - frame[0]
                state.calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if record:
                    spans.append({
                        "id": frame[1], "parent": parent,
                        "trace": state.trace_id, "name": layer,
                        "start": start, "end": end,
                        "self_s": duration - frame[0],
                        "thread": threading.current_thread().name,
                    })
            if after is not None:
                hook_started = perf()
                after(state, args, kwargs, result, token, start, duration)
                self._charge_hook(state, perf() - hook_started)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` of benchmark work done inside the current
        call out of its layer's self time."""
        self._charge_hook(self._state(), seconds)

    @staticmethod
    def _charge_hook(state: _ThreadState, seconds: float) -> None:
        state.self_s["tracer"] += seconds
        if state.stack:
            state.stack[-1][0] += seconds

    def request_span(self, trace_id: str | None, start: float,
                     end: float) -> None:
        """Record one client-side request span (benchmark code)."""
        self.spans.append({
            "id": next(self._ids), "parent": None, "trace": trace_id,
            "name": "serve.request", "start": start, "end": end,
            "self_s": end - start,
            "thread": threading.current_thread().name,
        })

    # -- installation --------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper) -> None:
        """Point every ``repro`` module-level name bound to ``original``
        at ``wrapper`` (modules import functions by name)."""
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _wrap_methods(self, base: type, names, layer: str) -> None:
        """Wrap ``names`` on ``base`` and every subclass defining them."""
        seen = set()
        pending = [base]
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            for name in names:
                method = cls.__dict__.get(name)
                if callable(method):
                    self._set(cls, name, self._hot(method, layer))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> "Tracer":
        """Wrap every layer's entry point.  Call before the first
        simulation, store or service is created."""
        import pkgutil

        import repro.core
        import repro.defenses  # noqa: F401  (registers every defense)
        import repro.exp
        import repro.exp.runner
        import repro.mitigations
        import repro.serve.service
        import repro.sim.engines.epoch as epoch_mod
        import repro.sim.engines.event as event_mod
        import repro.workloads.synthetic as synthetic
        from repro.core.defense import BankDefense
        from repro.core.psq import PriorityServiceQueue
        from repro.exp import serialize
        from repro.exp.backend import SweepBackend
        from repro.exp.cache import ResultStore
        from repro.obs import sweep_id_for

        for package in (repro.core, repro.mitigations):
            for info in pkgutil.iter_modules(package.__path__):
                __import__(f"{package.__name__}.{info.name}")

        # core.psq and the defenses: hot per-activation callbacks.
        self._wrap_methods(PriorityServiceQueue, ("observe",), "psq.observe")
        self._wrap_methods(
            BankDefense, ("on_activation", "wants_alert", "on_rfm", "on_ref"),
            "defense.callback",
        )

        # workloads: trace generation, looked up by name in both engines.
        trace_memo = synthetic._generate_trace_cached

        def trace_before(state, args, kwargs):
            return args, kwargs, trace_memo.cache_info().misses

        def trace_after(state, args, kwargs, result, misses, start, dur):
            if trace_memo.cache_info().misses > misses:
                state.counts["workloads.trace_entries"] += len(result)

        self._rebind(synthetic.generate_trace, self._span(
            synthetic.generate_trace, "workloads.trace_gen",
            trace_before, trace_after,
        ))

        # LLC filter: the epoch engine's memoized stream preparation.
        stream_memo = epoch_mod._prepare_stream

        def stream_before(state, args, kwargs):
            return args, kwargs, stream_memo.cache_info().misses

        def stream_after(state, args, kwargs, result, misses, start, dur):
            if stream_memo.cache_info().misses > misses:
                state.counts["llc.lookups"] += result.llc_total
                state.counts["llc.hits"] += result.llc_hits

        self._set(epoch_mod, "_prepare_stream", self._span(
            stream_memo, "llc.prepare", stream_before, stream_after,
        ))

        # sim.engines: one replay per executed job.
        def engine_after(state, args, kwargs, result, token, start, dur):
            engine = args[0]
            counts = state.counts
            counts["engine.work_units"] += engine.work_units
            counts["sim.instructions"] += result.instructions
            counts["controller.activations"] += result.acts
            counts["controller.alerts"] += result.alerts
            counts["controller.rfm_commands"] += result.rfm_commands
            counts["controller.refs"] += result.refs
            counts["defense.mitigations"] += sum(result.mitigations.values())
            if isinstance(engine, event_mod.EventEngine):
                # The event engine filters through its own LLC model;
                # every trace entry of every core is one lookup.
                config = args[2] if len(args) > 2 else kwargs["config"]
                n_entries = args[4] if len(args) > 4 else kwargs["n_entries"]
                lookups = n_entries * config.cpu.cores
                counts["llc.lookups"] += lookups
                counts["llc.hits"] += round(result.llc_hit_rate * lookups)

        for engine_cls in (event_mod.EventEngine, epoch_mod.EpochEngine):
            self._set(engine_cls, "simulate", self._span(
                engine_cls.__dict__["simulate"], "engine.simulate",
                after=engine_after,
            ))

        # exp.serialize: result <-> canonical dict.
        def to_dict_after(state, args, kwargs, result, token, start, dur):
            state.counts["serialize.bytes"] += len(
                json.dumps(result, sort_keys=True, separators=(",", ":"))
            )

        self._rebind(serialize.result_to_dict, self._span(
            serialize.result_to_dict, "serialize.to_dict",
            after=to_dict_after, record=False,
        ))
        self._rebind(serialize.result_from_dict, self._span(
            serialize.result_from_dict, "serialize.from_dict", record=False,
        ))

        # exp.cache: store open (load), append (put), lookup (get).
        def load_after(state, args, kwargs, result, token, start, dur):
            store = args[0]
            if store.path.exists():
                state.counts["store.load_bytes"] += store.path.stat().st_size

        def put_before(state, args, kwargs):
            store = args[0]
            size = store.path.stat().st_size if store.path.exists() else 0
            return args, kwargs, (size, store.fsync_count)

        def put_after(state, args, kwargs, result, token, start, dur):
            store = args[0]
            size, fsyncs = token
            state.counts["store.put_bytes"] += store.path.stat().st_size - size
            state.counts["store.fsyncs"] += store.fsync_count - fsyncs

        def get_after(state, args, kwargs, result, token, start, dur):
            key = "store.hits" if result is not None else "store.misses"
            state.counts[key] += 1

        self._set(ResultStore, "__init__", self._span(
            ResultStore.__dict__["__init__"], "store.load", after=load_after,
        ))
        self._set(ResultStore, "put", self._span(
            ResultStore.__dict__["put"], "store.put", put_before, put_after,
        ))
        self._set(ResultStore, "get", self._span(
            ResultStore.__dict__["get"], "store.get", after=get_after,
            record=False,
        ))

        # exp.backend: dispatch, time to first result, worker spawns.
        def execute_before(state, args, kwargs):
            token = {"start": perf(), "first": None}
            emit = args[3] if len(args) > 3 else kwargs.pop("emit")

            def first_emit(index, payload):
                if token["first"] is None:
                    token["first"] = perf()
                return emit(index, payload)

            return (*args[:3], first_emit), kwargs, token

        def execute_after(state, args, kwargs, result, token, start, dur):
            if token["first"] is not None:
                state.counts["backend.first_result_s"] += (
                    token["first"] - token["start"]
                )

        for backend_cls in _subclasses(SweepBackend):
            if "execute" in backend_cls.__dict__:
                self._set(backend_cls, "execute", self._span(
                    backend_cls.__dict__["execute"], "backend.execute",
                    execute_before, execute_after,
                ))

        original_start = multiprocessing.process.BaseProcess.start

        def counting_start(process, *args, **kwargs):
            self._state().counts["backend.workers_spawned"] += 1
            return original_start(process, *args, **kwargs)

        self._set(multiprocessing.process.BaseProcess, "start", counting_start)

        # exp.runner: one span per sweep; its id names every nested span.
        accepted = self._accepted
        entered = self._entered
        durations = self.sweep_durations

        def sweep_before(state, args, kwargs):
            spec = args[0] if args else kwargs["spec"]
            sweep_id = sweep_id_for(spec)
            entered.setdefault(sweep_id, perf())
            previous = state.trace_id
            state.trace_id = sweep_id
            return args, kwargs, (sweep_id, previous)

        def sweep_after(state, args, kwargs, result, token, start, dur):
            sweep_id, previous = token
            durations[sweep_id] = durations.get(sweep_id, 0.0) + dur
            state.trace_id = previous

        self._rebind(repro.exp.runner.run_sweep, self._span(
            repro.exp.runner.run_sweep, "runner.run_sweep",
            sweep_before, sweep_after,
        ))

        # serve: stamp the moment a submission is queued.
        def submit_after(state, args, kwargs, result, token, start, dur):
            snapshot, code = result
            if code == 202 and snapshot.get("state") == "queued":
                accepted.setdefault(snapshot["sweep_id"], start + dur)

        service_cls = repro.serve.service.SweepService
        self._set(service_cls, "submit", self._span(
            service_cls.__dict__["submit"], "serve.submit",
            after=submit_after,
        ))
        return self


def _subclasses(base: type) -> list[type]:
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found
