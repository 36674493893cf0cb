"""Sweep benchmark of the QPRAC reproduction: three workloads, end to
end and layer by layer.

    python3 sweepbench/run.py --workload event-fig14 --seed 0 \\
        --seconds 25 --trace 0
    python3 sweepbench/run.py --workload all      # every workload, one table

Run from the root of a checkout; the program is imported from ``src/``.
Each run repeats *passes* of the workload -- each a fresh interpreter
(``passrun.py``) with a fresh cache directory -- until ``--seconds`` have
passed and at least ``MIN_PASSES`` passes ran, then reports medians.
With ``--trace 1`` untraced and traced passes alternate: the traced ones
give the per-layer metrics (``tracer.py``), both together give the
tracing overhead.

Every result is checked against the pinned references
(``reference.py``); a wrong digest counts as a failed job or request.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end ones with ``--trace 0``,
per-layer ones with ``--trace 1``).  Lines before it give the host
fingerprint and a readable table; the full record of the run is written
to ``.bench_work/<workload>-<seed>/result.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (the benchmark's own modules)
from hostspeed import PROBE_REF_S, scaled_steps, step_factors  # noqa: E402

MIN_PASSES = 3
#: A run must end within 180 s; no pass starts that could end later
#: than this.
RUN_BUDGET_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "sim_minst_per_s": "Minst/s",
    "request_s_p50": "s",
    "request_s_p90": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "_s": "s", "_pct": "%", "_ratio": "ratio", "_rate": "ratio",
    "_bytes": "bytes", "bytes": "bytes", "_pp": "pp",
    "ns_per_work_unit": "ns",
}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``repro.obs.percentile``'s rule)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        # Passes run with every REPRO_* variable unset: fsync on.
        "repro_store_fsync": "default (on)",
        "loadavg_start": list(os.getloadavg()),
    }


def pass_env(work: Path) -> dict:
    """Environment of a pass: the checkout's ``src`` first, every
    ``REPRO_*`` knob at its default, temporary files in the work dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def reference_for(name: str, seed: int, work_root: Path) -> Path:
    """Path of the reference entry a run checks against: the committed
    pin when there is one, else one computed now (outside the measured
    passes) and kept for later runs of the same seed."""
    from reference import identity_hash, pinned

    entry = pinned(name, seed)
    path = work_root / "reference" / f"{name}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if entry is not None:
        path.write_text(json.dumps(entry))
        return path
    # Computed entries are kept per input identity.
    path = path.with_name(f"{name}-{seed}-{identity_hash(name, seed)}.json")
    if path.exists():
        return path
    partial = path.with_suffix(".partial")
    returncode, _, stderr = run_group(
        [sys.executable, str(HERE / "reference.py"), "--workload", name,
         "--seed", str(seed), "--out", str(partial)],
        env=pass_env(work_root / "reference"), timeout=RUN_BUDGET_S,
    )
    if returncode != 0:
        raise RuntimeError(
            f"reference run exited {returncode}:\n{stderr[-2000:]}")
    partial.replace(path)
    return path


def run_group(command: list[str], env: dict, timeout: float):
    """Run ``command`` in its own process group; on timeout kill the
    whole group (the pass's pool workers too) and wait for it."""
    proc = subprocess.Popen(command, env=env, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, stdout, stderr


def run_pass(name: str, seed: int, work: Path, ref: Path, traced: bool,
             index: int, timeout: float, inject: tuple[str, ...] = ()) -> dict:
    pass_dir = work / f"pass-{index}"
    pass_dir.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "passrun.py"), "--workload", name,
        "--seed", str(seed), "--work", str(pass_dir),
        "--reference", str(ref), "--trace", str(int(traced)),
    ]
    if traced:
        command += ["--spans", str(work / f"spans-{index}.jsonl")]
        for item in inject:
            command += ["--inject", item]
    spawned = time.time()
    returncode, stdout, stderr = run_group(
        command, env=pass_env(pass_dir), timeout=timeout)
    shutil.rmtree(pass_dir, ignore_errors=True)
    if returncode != 0:
        raise RuntimeError(
            f"pass {index} of {name} exited {returncode}:\n{stderr[-2000:]}"
        )
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_s"] = (result.pop("ready_wall") - spawned
                         - result.pop("setup_probe_s"))
    result["traced"] = traced
    return result


def fidelity_err_pp(passes: list[dict], ref: dict) -> float:
    """Mean |epoch - event| slowdown (pp) over the grid's cells, against
    the pinned event-engine numbers.  Only ``epoch-suite`` has them; 0
    elsewhere."""
    if "event" not in ref:
        return 0.0
    event = ref["event"]["slowdown_pct"]
    return statistics.fmean(abs(v - event[k])
                            for k, v in passes[0]["slowdowns"].items())


def scaled_timings(passes: list[dict]) -> tuple[float, list[float]]:
    """``sweep_s`` and request latencies of ``passes``, scaled to the
    reference host.

    Every pass runs the same steps (one per job or request, in order).
    Each step's wall time is scaled by the probes around it
    (``hostspeed.py``); ``sweep_s`` sums the per-step medians across
    passes, so a burst of host slowness moves only the steps it
    overlaps, in the passes it overlaps.  Request latencies are one
    sample per request, its median over passes.  In the in-process grids
    every job is submitted by the one ``run_sweep`` call, so a job's
    latency is its completion time, from the median steps.  A service
    request's latency is scaled by the probes around it: request ``i``
    is step ``i``.  Per-request medians keep one slow pass of one request
    from deciding a percentile that falls between two requests."""
    steps = [scaled_steps(p["marks"], p["probes"], p["sweep_s"])
             for p in passes]
    medians = [statistics.median(col) for col in zip(*steps)]
    sweep_s = sum(medians)
    if passes[0]["service"] is None:
        return sweep_s, list(itertools.accumulate(medians[:-1]))
    scaled = [
        [x * f for x, f in zip(p["latencies"],
                               step_factors(p["probes"], len(p["latencies"])))]
        for p in passes
    ]
    return sweep_s, [statistics.median(col) for col in zip(*scaled)]


def end_to_end(passes: list[dict]) -> dict:
    """End-to-end metrics over the untraced passes."""
    plain = [p for p in passes if not p["traced"]]
    sweep_s, latencies = scaled_timings(plain)
    return {
        # Set-up scaled by the probes at interpreter start and just
        # before the first step.
        "setup_s": statistics.median(
            p["setup_s"] * PROBE_REF_S
            / statistics.fmean((p["setup_probe"], p["probes"][0]))
            for p in plain),
        "sweep_s": sweep_s,
        "sim_minst_per_s": statistics.median(
            p["instructions"] for p in plain) / sweep_s / 1e6,
        "request_s_p50": statistics.median(latencies),
        "request_s_p90": percentile(latencies, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def scaled_layer(p: dict, name: str) -> float:
    """Layer metric ``name`` of traced pass ``p``; times are scaled to
    the reference host by the pass's median probe."""
    if layer_unit(name) in ("s", "ns"):
        return p["layers"][name] * PROBE_REF_S / statistics.median(
            p["probes"])
    return p["layers"][name]


def per_layer(passes: list[dict], ref: dict) -> dict:
    """Per-layer metrics: medians over the traced passes, times scaled to
    the reference host by each pass's median probe."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {
        name: statistics.median(scaled_layer(p, name) for p in traced)
        for name in traced[0]["layers"]
    }
    metrics["fidelity_err_pp"] = fidelity_err_pp(passes, ref)
    metrics["trace.overhead_pct"] = 100 * (
        scaled_timings(traced)[0] / scaled_timings(plain)[0] - 1)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    host = host_fingerprint()
    work_root = ROOT / ".bench_work"
    work = work_root / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ref_path = reference_for(name, seed, work_root)
    ref = json.loads(ref_path.read_text())

    passes: list[dict] = []
    failures: list[str] = []
    measure_started = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - measure_started
        enough = elapsed >= seconds and len(passes) >= MIN_PASSES * (
            2 if trace else 1)
        spent = time.perf_counter() - started
        if enough or spent + 1.5 * longest > RUN_BUDGET_S:
            break
        traced = trace and len(passes) % 2 == 1
        pass_started = time.perf_counter()
        try:
            passes.append(run_pass(
                name, seed, work, ref_path, traced,
                index=len(passes) + len(failures),
                timeout=max(1.0, RUN_BUDGET_S + 25.0 - spent),
            ))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            failures.append(str(exc))
            print(f"error: {exc}", file=sys.stderr)
            if not passes:
                break
        longest = max(longest, time.perf_counter() - pass_started)

    if not passes or (trace and not any(p["traced"] for p in passes)):
        raise RuntimeError(f"no usable pass of {name}")
    per_pass_attempts = passes[0]["attempted"]
    attempted = sum(p["attempted"] for p in passes) + (
        len(failures) * per_pass_attempts)
    failed = sum(p["failed"] for p in passes) + (
        len(failures) * per_pass_attempts)
    if trace:
        metrics = per_layer(passes, ref)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end(passes)
        units = END_TO_END
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "host": host,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "passes": len(passes), "pass_failures": failures,
        "request_samples": len(scaled_timings(
            [p for p in passes if not p["traced"]])[1]),
        "metrics": metrics, "units": units,
        "raw": passes,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_table(record: dict) -> None:
    print(f"== {record['workload']} seed {record['seed']}: "
          f"{record['passes']} passes, {record['request_samples']} "
          f"request samples ==")
    for name, value in record["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {record['units'][name]}")
    print(f"  {'error_rate':34s} {record['error_rate']:14.6g} fraction "
          f"({record['failed']}/{record['attempted']})")


def result_line(records: list[dict], prefix: bool) -> str:
    metrics = {}
    for record in records:
        for name, value in record["metrics"].items():
            key = f"{record['workload']}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": record["units"][name]}
    failed = sum(r["failed"] for r in records)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    parser.add_argument("--workload", required=True,
                        choices=(*wl.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = wl.NAMES if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
            records.append(record)
            print_table(record)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("host " + json.dumps(records[0]["host"], sort_keys=True))
    print(result_line(records, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
