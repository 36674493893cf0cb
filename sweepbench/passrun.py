"""One pass of a sweep-benchmark workload, in a fresh interpreter.

Started by ``run.py`` once per pass, so every pass starts the way a CLI
invocation does: empty ``generate_trace`` and epoch-stream memos, a
fresh cache directory, a fresh service.  Prints one JSON object with the
pass's raw measurements as the last line of stdout.

    python3 sweepbench/passrun.py --workload event-fig14 --seed 0 \\
        --work .bench_work/x --reference ref.json [--trace 1 --spans F]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (the benchmark's own modules)
from hostspeed import StepClock, probe  # noqa: E402
from reference import payload_hash, payloads_digest  # noqa: E402

perf = time.perf_counter


def _grid_pass(name: str, seed: int, work: Path, ref: dict, tracer) -> dict:
    from repro.exp import ResultStore, run_sweep
    from repro.serve.protocol import build_spec

    store = ResultStore(work / "cache")
    spec = build_spec(**wl.grid(name, seed))
    clock = StepClock(on_probe=tracer and tracer.exclude)
    ready_wall = time.time()
    clock.start()
    sweep = run_sweep(spec, store=store, backend="serial",
                      events=lambda event: clock.mark())
    sweep_s = clock.elapsed()
    if tracer is not None:
        tracer.uninstall()

    from repro.exp.serialize import result_to_dict

    payloads = [result_to_dict(o.result) for o in sweep.outcomes]
    expected = ref["jobs"]
    failed = sum(
        payload_hash(p) != want for p, want in zip(payloads, expected)
    ) + abs(len(payloads) - len(expected))
    if failed == 0 and payloads_digest(payloads) != ref["digest"]:
        failed = len(expected)
    comparison = sweep.comparison()
    slowdowns = {
        wl.cell(workload, label): comparison.slowdown_pct(label, workload)
        for workload in comparison.workloads
        for label in comparison.results
        if label != "baseline"
    }
    return {
        "ready_wall": ready_wall,
        "sweep_s": sweep_s,
        "instructions": sum(
            o.result.instructions for o in sweep.outcomes if not o.from_cache
        ),
        # Every job is submitted by the run_sweep call: its latency is
        # its completion time.
        "latencies": clock.marks,
        "marks": clock.marks,
        "probes": clock.probes,
        "attempted": len(expected),
        "failed": failed,
        "slowdowns": slowdowns,
        "service": None,
    }


def _service_pass(seed: int, work: Path, ref: dict, tracer) -> dict:
    from repro.errors import ReproError
    from repro.serve import client
    from repro.serve.http import SweepHTTPServer
    from repro.serve.service import SweepService

    service = SweepService(cache_dir=str(work / "cache"), workers=1)
    service.start()
    server = SweepHTTPServer(("127.0.0.1", 0), service)
    serving = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        name="http-server", daemon=True,
    )
    serving.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    requests = wl.service_requests(seed)
    latencies: list[float] = []
    clock = StepClock(on_probe=tracer and tracer.exclude)
    failed = 0
    try:
        ready_wall = time.time()
        clock.start()
        for request, expected in zip(requests, ref["requests"]):
            sent = perf()
            sweep_id = None
            try:
                snapshot = client.submit(base, request)
                sweep_id = snapshot.get("sweep_id")
                if snapshot.get("state") not in ("done", "failed"):
                    snapshot = client.wait_done(
                        base, sweep_id, poll_s=10.0, timeout=120.0
                    )
            except ReproError:
                snapshot = {}
            done = perf()
            latencies.append(done - sent)
            clock.mark()
            if tracer is not None:
                tracer.request_span(sweep_id, sent, done)
            if (
                snapshot.get("state") != "done"
                or snapshot.get("digest") != expected
            ):
                failed += 1
        sweep_s = clock.elapsed()
    finally:
        server.shutdown()
        server.server_close()
        service.stop(timeout=60.0)
        serving.join(timeout=10.0)
    if tracer is not None:
        tracer.uninstall()
    rows = (work / "cache" / "results.jsonl").read_text().splitlines()
    return {
        "ready_wall": ready_wall,
        "sweep_s": sweep_s,
        # Every executed job is appended to the store exactly once.
        "instructions": sum(
            json.loads(row)["payload"]["instructions"] for row in rows
            if row.strip()
        ),
        "latencies": latencies,
        "marks": clock.marks,
        "probes": clock.probes,
        "attempted": len(requests),
        "failed": failed,
        # Engines run in pool workers here: no fidelity measurement.
        "slowdowns": {},
        "service": {
            "replays": service.metrics.replays,
            "rejected": service.metrics.rejected,
        },
    }


def _ratio(hits: float, attempts: float) -> float:
    return hits / attempts if attempts else 0.0


def _layers(tracer, result: dict, memos: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    report = tracer.report()
    self_s, calls, counts = report["self_s"], report["calls"], report["counts"]
    sweep_s = result["sweep_s"]
    trace_hits, trace_misses = memos["trace"]
    stream_hits, stream_misses = memos["stream"]
    replay_s = sum(
        self_s.get(k, 0.0)
        for k in ("engine.simulate", "psq.observe", "defense.callback")
    )
    service = result["service"] or {}
    # serve.http_s: request latency outside the run_sweep call it
    # caused (every sweep the service ran was submitted in this pass).
    http_s = 0.0
    if result["service"] is not None:
        http_s = (sum(result["latencies"])
                  - sum(tracer.sweep_durations.values()))
    work_units = counts.get("engine.work_units", 0)
    return {
        "workloads.trace_gen_s": self_s.get("workloads.trace_gen", 0.0),
        "workloads.trace_entries": counts.get("workloads.trace_entries", 0),
        "workloads.trace_memo_hit_ratio": _ratio(
            trace_hits, trace_hits + trace_misses),
        "workloads.trace_gen_pct": 100 * self_s.get(
            "workloads.trace_gen", 0.0) / sweep_s,
        "llc.prepare_s": self_s.get("llc.prepare", 0.0),
        "llc.prepare_pct": 100 * self_s.get("llc.prepare", 0.0) / sweep_s,
        "llc.lookups": counts.get("llc.lookups", 0),
        "llc.hit_rate": _ratio(counts.get("llc.hits", 0),
                               counts.get("llc.lookups", 0)),
        "llc.stream_memo_hit_ratio": _ratio(
            stream_hits, stream_hits + stream_misses),
        "engine.simulate_s": self_s.get("engine.simulate", 0.0),
        "engine.work_units": work_units,
        "engine.ns_per_work_unit": (
            1e9 * self_s.get("engine.simulate", 0.0) / work_units
            if work_units else 0.0
        ),
        "engine.replay_pct": 100 * replay_s / sweep_s,
        "psq.observe_calls": calls.get("psq.observe", 0),
        "psq.observe_s": self_s.get("psq.observe", 0.0),
        "defense.callbacks": calls.get("defense.callback", 0),
        "defense.callback_s": self_s.get("defense.callback", 0.0),
        "controller.activations": counts.get("controller.activations", 0),
        "controller.alerts": counts.get("controller.alerts", 0),
        "controller.rfm_commands": counts.get("controller.rfm_commands", 0),
        "controller.refs": counts.get("controller.refs", 0),
        "defense.mitigations": counts.get("defense.mitigations", 0),
        "serialize.to_dict_s": self_s.get("serialize.to_dict", 0.0),
        "serialize.from_dict_s": self_s.get("serialize.from_dict", 0.0),
        "serialize.bytes": counts.get("serialize.bytes", 0),
        "store.load_s": self_s.get("store.load", 0.0),
        "store.load_bytes": counts.get("store.load_bytes", 0),
        "store.put_calls": calls.get("store.put", 0),
        "store.put_s": self_s.get("store.put", 0.0),
        "store.put_bytes": counts.get("store.put_bytes", 0),
        "store.fsyncs": counts.get("store.fsyncs", 0),
        "store.hit_ratio": _ratio(
            counts.get("store.hits", 0),
            counts.get("store.hits", 0) + counts.get("store.misses", 0)),
        "backend.execute_s": self_s.get("backend.execute", 0.0),
        "backend.first_result_s": counts.get("backend.first_result_s", 0.0),
        "backend.workers_spawned": counts.get("backend.workers_spawned", 0),
        "runner.overhead_s": self_s.get("runner.run_sweep", 0.0),
        "serve.queue_wait_s": tracer.queue_wait_s(),
        "serve.http_s": http_s,
        "serve.replays": service.get("replays", 0),
        "serve.rejected": service.get("rejected", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spans", help="write the pass's spans here")
    parser.add_argument("--inject", action="append", default=[],
                        metavar="LAYER=SECONDS",
                        help="traced passes: add this much reference-host "
                        "work to every "
                        "call of LAYER")
    args = parser.parse_args(argv)
    # Host speed while the interpreter sets up, for scaling setup_s.
    probe_started = perf()
    setup_probe = probe()
    setup_probe_s = perf() - probe_started
    work = Path(args.work)
    ref = json.loads(Path(args.reference).read_text())

    import repro.sim.engines.epoch as epoch_mod
    import repro.workloads.synthetic as synthetic

    trace_memo = synthetic._generate_trace_cached
    stream_memo = epoch_mod._prepare_stream
    tracer = None
    if args.trace:
        from tracer import Tracer

        inject = {}
        for item in args.inject:
            layer, _, seconds = item.partition("=")
            inject[layer] = float(seconds)
        tracer = Tracer(inject=inject).install()

    if args.workload == "service-mixed":
        result = _service_pass(args.seed, work, ref, tracer)
    else:
        result = _grid_pass(args.workload, args.seed, work, ref, tracer)

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = max(usage_self, usage_children) / 1024.0
    trace_info, stream_info = trace_memo.cache_info(), stream_memo.cache_info()
    memos = {"trace": [trace_info.hits, trace_info.misses],
             "stream": [stream_info.hits, stream_info.misses]}
    result["memos"] = memos
    result["setup_probe"] = setup_probe
    result["setup_probe_s"] = setup_probe_s
    if tracer is not None:
        result["layers"] = _layers(tracer, result, memos)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
