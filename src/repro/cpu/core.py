"""Trace-driven out-of-order core proxy.

The model captures the three CPU-side effects the paper's results depend
on, without simulating a pipeline cycle by cycle:

* **Front-end rate**: non-memory instructions issue at ``issue_width``
  per cycle (4-wide at 4 GHz, Table II).
* **Memory-level parallelism**: loads issue into the memory system as
  soon as they enter the ROB; up to ``max_outstanding_misses`` may be in
  flight (MSHR cap), and the ROB bounds how far the front end can run
  ahead of the oldest incomplete load (352 entries).
* **In-order retirement**: a load blocks retirement until its data
  returns; once the ROB fills behind it the core stalls — exactly how
  DRAM blackouts (RFM/REF/Alert service) turn into slowdown.

Writes are posted: they consume a write-buffer slot and DRAM bandwidth
but never block retirement.

Hot-path layout: the trace's numpy columns are converted to plain Python
lists once at construction (no per-entry numpy-scalar boxing in the issue
loop), the posted-write callback is bound once per core, and each
in-flight load *is* its own completion callback (``_OutstandingLoad`` is
callable) so issuing a load allocates no closure.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.cpu.trace import Trace
from repro.params import CPUConfig

#: Posted-write buffer depth (industry-typical; not in Table II).
WRITE_BUFFER_DEPTH = 32

IssueFn = Callable[[int, int, bool, float, Callable[[float], None] | None], None]

_new_load = object.__new__


class _OutstandingLoad:
    """One in-flight load: its position in program order and completion.

    The instance doubles as its own completion callback — the memory
    system calls it with the done-timestamp — so no per-load closure is
    ever allocated.
    """

    __slots__ = ("core", "inst_count", "complete_time")

    def __init__(self, core: "TraceCore", inst_count: int) -> None:
        self.core = core
        self.inst_count = inst_count
        self.complete_time: float | None = None

    def __call__(self, done_ns: float) -> None:
        # The completion handler body lives here (not in a TraceCore
        # method) to keep the per-completion call depth at one frame.
        self.complete_time = done_ns
        core = self.core
        if done_ns > core._last_complete:
            core._last_complete = done_ns
        outstanding = core._outstanding
        if outstanding[0].complete_time is None:
            # Out-of-order completion behind an in-flight ROB head: no
            # retirement, no freed MSHR slot, no new issue capacity — the
            # stall that halted the front end still holds, so running the
            # issue loop is a provable no-op.  Record the completion (and
            # the front-end time floor) and return.
            if done_ns > core._t_front:
                core._t_front = done_ns
            return
        # In-order retirement: drain completed loads from the head.
        while outstanding and outstanding[0].complete_time is not None:
            head = outstanding.popleft()
            core._inst_retired = head.inst_count
        if not outstanding:
            core._inst_retired = core._inst_issued
        # A stalled front end resumes no earlier than the unblocking
        # completion.
        if done_ns > core._t_front:
            core._t_front = done_ns
        core._advance(done_ns)


class TraceCore:
    """One core executing a :class:`Trace` against the memory hierarchy.

    ``issue_fn(core_id, addr, is_write, time, callback)`` is provided by
    :class:`repro.cpu.system.MulticoreSystem` and routes the access through
    the shared LLC into DRAM.  ``on_finish`` (optional) fires exactly once
    when the core retires its last instruction — the system driver counts
    finished cores instead of polling every core per event.
    """

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        cfg: CPUConfig,
        issue_fn: IssueFn,
        on_finish: Callable[[], None] | None = None,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.cfg = cfg
        self._issue_fn = issue_fn
        self._on_finish = on_finish
        # Plain-list trace columns: indexing numpy arrays per entry boxes
        # a numpy scalar per access, which dominates the issue loop.
        # ``needs`` carries the +1 (one memory op per entry) up front.
        self._needs: list[int] = trace.instruction_needs().tolist()
        self._addresses: list[int] = trace.addresses.tolist()
        self._writes: list[bool] = trace.is_write.tolist()
        self._n = len(trace)
        self._per_inst_ns = cfg.cycle_ns / cfg.issue_width
        self._rob_entries = cfg.rob_entries
        self._max_misses = cfg.max_outstanding_misses
        self._write_done_cb = self._on_write_done
        #: Issue-loop constants, packed so _advance pays one attribute
        #: load plus a tuple unpack instead of nine attribute loads.
        self._hot = (
            self._needs,
            self._addresses,
            self._writes,
            self._n,
            self._per_inst_ns,
            self._rob_entries,
            self._max_misses,
            issue_fn,
            core_id,
            self._write_done_cb,
        )
        self._idx = 0
        self._inst_issued = 0
        self._inst_retired = 0
        self._t_front = 0.0
        self._outstanding: deque[_OutstandingLoad] = deque()
        self._writes_in_flight = 0
        self.done = False
        self.finish_time = 0.0
        self.loads_issued = 0
        self.stores_issued = 0
        self._last_complete = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> int:
        """Instructions retired so far."""
        return self._inst_retired

    @property
    def total_instructions(self) -> int:
        return self.trace.total_instructions

    def ipc(self, freq_ghz: float | None = None) -> float:
        """Retired-instruction IPC over the core's completion time."""
        if not self.done or self.finish_time <= 0:
            return 0.0
        freq = freq_ghz if freq_ghz is not None else self.cfg.freq_ghz
        cycles = self.finish_time * freq
        return self.total_instructions / cycles if cycles else 0.0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Kick off execution at t=0 (issue until the first stall)."""
        self._advance(0.0)

    def _advance(self, now: float) -> None:
        """Issue trace entries until a structural stall or trace end."""
        (
            needs, addresses, writes, n, per_inst_ns, rob_entries,
            max_misses, issue, core_id, write_cb,
        ) = self._hot
        idx = self._idx
        outstanding = self._outstanding
        issued = self._inst_issued
        if outstanding:
            retired = self._inst_retired
        else:
            # No incomplete load blocks the ROB head: bubbles and posted
            # writes retire as the front end moves past them.
            retired = issued
        stalled = False
        if idx < n:
            t_front = self._t_front
            writes_in_flight = self._writes_in_flight
            loads_issued = 0
            stores_issued = 0
            space = rob_entries - issued + retired
            while idx < n:
                need = needs[idx]
                if need > space:
                    if need <= rob_entries or outstanding:
                        stalled = True
                        break  # ROB full: resume on oldest-load completion
                    # A bubble block larger than the whole ROB streams
                    # through an otherwise-empty ROB instead of
                    # deadlocking.
                is_write = writes[idx]
                if is_write:
                    if writes_in_flight >= WRITE_BUFFER_DEPTH:
                        stalled = True
                        break  # write buffer full
                elif len(outstanding) >= max_misses:
                    stalled = True
                    break  # MSHRs full
                addr = addresses[idx]
                t_front += need * per_inst_ns
                issued += need
                space -= need
                idx += 1
                if is_write:
                    stores_issued += 1
                    writes_in_flight += 1
                    issue(core_id, addr, True, t_front, write_cb)
                else:
                    loads_issued += 1
                    # Field-by-field construction (no __init__ frame).
                    load = _new_load(_OutstandingLoad)
                    load.core = self
                    load.inst_count = issued
                    load.complete_time = None
                    outstanding.append(load)
                    issue(core_id, addr, False, t_front, load)
            self._t_front = t_front
            self._writes_in_flight = writes_in_flight
            self.loads_issued += loads_issued
            self.stores_issued += stores_issued
        self._idx = idx
        self._inst_issued = issued
        self._inst_retired = retired
        if not stalled and not outstanding:
            self._inst_retired = issued
            self._finish()

    def detach(self) -> None:
        """Drop the issue and finish callbacks, so a finished core no
        longer keeps the system that built it alive.  The core cannot
        issue again afterwards."""
        self._issue_fn = self._on_finish = self._hot = None

    def _on_write_done(self, done_ns: float) -> None:
        was_full = self._writes_in_flight >= WRITE_BUFFER_DEPTH
        self._writes_in_flight -= 1
        if done_ns > self._last_complete:
            self._last_complete = done_ns
        if was_full or not self._outstanding:
            self._advance(done_ns)
        # Otherwise the skip is a provable no-op: the buffer was not the
        # binding constraint, and with loads outstanding retirement is
        # governed solely by head-of-ROB load completions — a posted
        # write changes nothing else the issue loop reads.  (With *no*
        # loads outstanding _advance must run: its retired-catches-up
        # rule is what retires issued bubbles and posted writes, which
        # can itself clear an ROB stall or finish the trace.)

    def _finish(self) -> None:
        if self.done:
            return
        if self._idx < self._n or self._outstanding:
            return
        self.done = True
        self.finish_time = max(self._t_front, self._last_complete)
        if self._on_finish is not None:
            self._on_finish()
