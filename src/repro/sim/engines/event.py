"""The ``event`` engine: the nanosecond event-driven reference simulator.

This is the original execution path — four :class:`~repro.cpu.core.TraceCore`
instances through a shared LLC into the
:class:`~repro.controller.memctrl.MemorySystem`, driven by
:class:`~repro.engine.EventQueue` — extracted behind the
:class:`~repro.sim.engines.base.SimEngine` seam.  It is the *reference*
engine: its results are pinned byte-for-byte by the golden-hash tests,
and every other engine's aggregates are judged against it.

**Timing-inert runs are replayed, not re-simulated.**  A PRAC defense
steers the controller only through ABO Alerts and cadence RFMs.  A run
that ends with ``alerts == rfm_commands == cadence_rfms == 0`` (and no
telemetry) is *inert*: its timing is that of any defense that would
also never have asked for either.  Inert runs are kept, with the
ordered defense-hook log the controller records
(:attr:`~repro.controller.memctrl.MemorySystem.hook_log`), in a bounded
in-process LRU keyed by everything the controller and cores read —
workload spec, entries, seed and the configuration (which names no
defense, so jobs of every defense share a key).  A later job with the
same key builds its own defenses and replays the log through them:
``on_activation(row)`` per ACT, ``on_ref()`` per bank of the refreshed
rank, in the recorded order.

The replay is exact.  Until a defense first answers ``True`` from
``on_activation``, every hook the controller calls returns what it
returned in the recorded run (``on_ref``'s return is ignored), so by
induction over the event loop every scheduling decision, and hence the
hook sequence itself, is the recorded one.  The first ``True`` would
have raised an Alert at that ACT — no Alert was raised before it, so
neither the ABO delay nor a busy RFM window can hold it back — so the
replay stops there and the job is simulated in full.  Defenses with a
``rfm_cadence_acts`` are always simulated in full.  A served job
returns the stored result with its own ``variant`` label and its own
defenses' mitigation counts, byte-identical to a full simulation.

**A simulated system is freed before** :meth:`EventEngine.simulate`
**returns.**  A finished :class:`~repro.cpu.system.MulticoreSystem` is a
reference cycle (system -> cores -> bound ``_issue_access`` -> system)
holding its LLC, one ``OrderedDict`` per set, about 5 MB.  Left to the
cyclic collector, several of them pile up in a process that runs many
jobs (a warm ``pool`` worker, a serial sweep).  ``simulate`` breaks the
cycle (:meth:`~repro.cpu.system.MulticoreSystem.release`) once the
result, the event count and the hook log are taken, so reference
counting frees the system at once.
"""

from __future__ import annotations

import threading
from array import array
from collections import OrderedDict
from dataclasses import replace
from typing import NamedTuple

from repro.controller.memctrl import DefenseFactory
from repro.core.defense import BankDefense, mitigation_totals
from repro.cpu.system import MulticoreSystem, SystemResult
from repro.obs.telemetry import active_telemetry
from repro.params import SystemConfig
from repro.sim.engines.base import SimEngine, register_engine
from repro.workloads.synthetic import WorkloadSpec, generate_trace

#: Inert runs kept for replay (the epoch stream memo's size).
INERT_RUNS_MAXSIZE = 8


class InertRunInfo(NamedTuple):
    """Counters of the inert-run memo, on the model of ``CacheInfo``.

    ``hits`` jobs were served by replay; ``diverged`` found a stored
    run but were simulated in full (a replayed ACT requested an Alert,
    or a defense has an RFM cadence); ``misses`` found none.
    """

    hits: int
    misses: int
    diverged: int
    maxsize: int
    currsize: int


_inert_runs: "OrderedDict[tuple, tuple[SystemResult, array]]" = OrderedDict()
_inert_counts = {"hits": 0, "misses": 0, "diverged": 0}
_inert_lock = threading.Lock()


def inert_run_info() -> InertRunInfo:
    """Hit/miss/diverged counts and size of the inert-run memo."""
    with _inert_lock:
        return InertRunInfo(
            maxsize=INERT_RUNS_MAXSIZE, currsize=len(_inert_runs),
            **_inert_counts,
        )


def clear_inert_runs() -> None:
    """Empty the inert-run memo and reset its counters, so the next
    simulations run the full event loop (benchmarks, differential
    tests)."""
    with _inert_lock:
        _inert_runs.clear()
        _inert_counts.update(hits=0, misses=0, diverged=0)


def _replay_hooks(
    hook_log: array, config: SystemConfig, defense_factory: DefenseFactory,
) -> list[BankDefense] | None:
    """The job's defenses after answering ``hook_log``, or ``None`` when
    they would have steered the run (cadence RFMs or an Alert)."""
    n_banks = config.org.total_banks
    defenses = [defense_factory(index, config) for index in range(n_banks)]
    if any(d.rfm_cadence_acts is not None for d in defenses):
        return None
    on_activation = [d.on_activation for d in defenses]
    per_rank = config.org.banks_per_rank
    on_ref = [
        tuple(d.on_ref for d in defenses[start:start + per_rank])
        for start in range(0, n_banks, per_rank)
    ]
    for entry in hook_log:
        if entry >= 0:
            row, bank = divmod(entry, n_banks)
            if on_activation[bank](row):
                return None
        else:
            for hook in on_ref[~entry]:
                hook()
    return defenses


def build_event_system(
    workload: WorkloadSpec,
    config: SystemConfig,
    defense_factory: DefenseFactory,
    n_entries: int,
    seed: int = 0,
    telemetry=None,
) -> MulticoreSystem:
    """Construct (but do not run) the event-driven system for one job.

    The paper's methodology: ``config.cpu.cores`` homogeneous copies of
    the workload with per-core seeds.  Shared with
    :func:`repro.sim.runner.build_system` (the public wrapper) and the
    bench harness, which needs the system handle for its event counter.
    """
    traces = [
        generate_trace(workload, n_entries, config.org, seed=seed * 1000 + core)
        for core in range(config.cpu.cores)
    ]
    return MulticoreSystem(
        config, traces, defense_factory, workload_name=workload.name,
        telemetry=telemetry,
    )


@register_engine(
    "event",
    summary="event-driven reference simulator (nanosecond fidelity, "
    "byte-identical golden path)",
)
class EventEngine(SimEngine):
    """Reference engine: full event-loop fidelity, pinned golden hashes."""

    #: Events popped from the queue.  A job served by inert-run replay
    #: (see the module docstring) processes none and reports 0, so the
    #: summed ``work_units`` of a sweep counts the events actually run.
    work_unit_name = "events"

    def simulate(
        self,
        workload: WorkloadSpec,
        config: SystemConfig,
        defense_factory: DefenseFactory,
        n_entries: int,
        seed: int = 0,
        variant_name: str = "custom",
        telemetry=None,
    ) -> SystemResult:
        key = None
        if active_telemetry(telemetry) is None:
            key = (workload, n_entries, seed, config)
            served = self._serve_inert(key, config, defense_factory,
                                       variant_name)
            if served is not None:
                self.work_units = 0
                return served
        system = build_event_system(
            workload, config, defense_factory, n_entries, seed,
            telemetry=telemetry,
        )
        result = system.run(variant_name=variant_name)
        self.work_units = system.events.events_processed
        memory = system.memory
        # Free the finished system (and its LLC) here, by refcount,
        # rather than at some later gen-2 collection.
        system.release()
        del system
        # The controller normalized the designator; observed runs carry
        # their summary out-of-band of the canonical payload.
        if memory.telemetry is not None:
            result.latency = memory.telemetry.summary_dict()
        elif result.alerts == result.rfm_commands == result.cadence_rfms == 0:
            stored = replace(result, core_ipcs=list(result.core_ipcs))
            with _inert_lock:
                _inert_runs[key] = (stored, memory.hook_log)
                _inert_runs.move_to_end(key)
                if len(_inert_runs) > INERT_RUNS_MAXSIZE:
                    _inert_runs.popitem(last=False)
        return result

    @staticmethod
    def _serve_inert(
        key: tuple,
        config: SystemConfig,
        defense_factory: DefenseFactory,
        variant_name: str,
    ) -> SystemResult | None:
        """The job's result by replay of a stored inert run, or ``None``."""
        with _inert_lock:
            entry = _inert_runs.get(key)
            if entry is None:
                _inert_counts["misses"] += 1
                return None
            _inert_runs.move_to_end(key)
        stored, hook_log = entry
        defenses = _replay_hooks(hook_log, config, defense_factory)
        with _inert_lock:
            _inert_counts["diverged" if defenses is None else "hits"] += 1
        if defenses is None:
            return None
        return replace(
            stored,
            variant=variant_name,
            core_ipcs=list(stored.core_ipcs),
            mitigations=mitigation_totals(defenses),
        )
