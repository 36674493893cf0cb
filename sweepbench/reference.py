"""Reference outputs the sweep benchmark checks every run against.

``sweepbench/reference/pins.json`` holds, for each workload and each
pinned seed, what a correct program outputs, computed by this script
with in-process ``serial`` runs:

* ``event-fig14``, ``epoch-suite``: the ``sweep_digest`` of the grid
  and the digest of every job's result payload.
* ``epoch-suite`` also: the fidelity reference, the ``event`` engine's
  slowdowns and alerts/tREFI per grid cell.  ``fidelity_err_pp`` reads
  them from here and never runs the event engine while the benchmark
  measures.
* ``service-mixed``: the digest of every request of the sequence.

Each entry records a hash of the inputs it was made for
(``workloads.identity``) and is ignored once they change.  A seed
without a valid pin is computed the same way before the measured
passes, by ``python3 sweepbench/reference.py --workload W --seed S
--out FILE``.

Regenerate the committed file (about five minutes on two cores) with::

    PYTHONPATH=src python3 sweepbench/reference.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (the benchmark's own module)

REFERENCE_DIR = HERE / "reference"
PINS_PATH = REFERENCE_DIR / "pins.json"
PINNED_SEEDS = range(24)


def canonical(obj) -> str:
    """``repro.exp.serialize.canonical_json`` for plain JSON values."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_hash(payload: dict) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def payloads_digest(payloads: list[dict]) -> str:
    """``sweep_digest`` of a sweep whose results are ``payloads``."""
    return payload_hash(payloads)


def _cells(comparison):
    """``{cell: (slowdown_pct, alerts_per_trefi)}`` of every defended
    cell of a comparison."""
    return {
        wl.cell(workload, label): (
            comparison.slowdown_pct(label, workload),
            comparison.results[label][workload].alerts_per_trefi,
        )
        for workload in comparison.workloads
        for label in comparison.results
        if label != "baseline"
    }


def identity_hash(name: str, seed: int) -> str:
    return payload_hash(wl.identity(name, seed))[:16]


def grid_reference(name: str, seed: int) -> dict:
    """Pins of one in-process workload at one seed."""
    from repro.exp import result_to_dict, run_sweep
    from repro.serve.protocol import build_spec

    kwargs = wl.grid(name, seed)
    sweep = run_sweep(build_spec(**kwargs), backend="serial")
    payloads = [result_to_dict(o.result) for o in sweep.outcomes]
    entry = {
        "identity": identity_hash(name, seed),
        "digest": payloads_digest(payloads),
        "jobs": [payload_hash(p) for p in payloads],
    }
    if name == "epoch-suite":
        event = run_sweep(build_spec(**dict(kwargs, engine="event")),
                          backend="serial")
        cells = _cells(event.comparison())
        entry["event"] = {
            "slowdown_pct": {k: v[0] for k, v in cells.items()},
            "alerts_per_trefi": {k: v[1] for k, v in cells.items()},
        }
    return entry


def service_reference(seed: int) -> dict:
    """Digest of every ``service-mixed`` request at one seed, from one
    serial run of every job the requests can name."""
    from repro.exp import result_to_dict, run_sweep
    from repro.serve.protocol import build_spec

    payloads = {}
    for trace_seed in wl.service_trace_seeds(seed):
        grid = {"workloads": list(wl.SERVICE_WORKLOADS),
                "defenses": list(wl.SERVICE_DEFENSES),
                "entries": wl.SERVICE_ENTRIES, "seed": trace_seed}
        sweep = run_sweep(build_spec(**grid, engine="event"),
                          backend="serial")
        order = wl.expansion(wl.SERVICE_WORKLOADS, wl.SERVICE_DEFENSES)
        for (workload, defense), outcome in zip(order, sweep.outcomes):
            if outcome.job.defense.label != defense:
                raise RuntimeError(
                    f"defense {defense!r} is labelled "
                    f"{outcome.job.defense.label!r}; the benchmark keys "
                    "cells by the submitted name"
                )
            payloads[wl.cell(workload, defense, trace_seed)] = (
                result_to_dict(outcome.result)
            )
    digests = [
        payloads_digest([
            payloads[wl.cell(workload, defense, request["seed"])]
            for workload, defense in wl.expansion(
                request["workloads"], request["defenses"])
        ])
        for request in wl.service_requests(seed)
    ]
    return {
        "identity": identity_hash("service-mixed", seed),
        "requests": digests,
    }


def compute(name: str, seed: int) -> dict:
    if name == "service-mixed":
        return service_reference(seed)
    return grid_reference(name, seed)


def pinned(name: str, seed: int) -> dict | None:
    """The committed pins of ``name`` at ``seed``, if the workload's
    inputs are still the ones they were made for."""
    if not PINS_PATH.exists():
        return None
    entry = json.loads(PINS_PATH.read_text()).get(name, {}).get(str(seed))
    if entry is None or entry.get("identity") != identity_hash(name, seed):
        return None
    return entry


def _pin_task(task: tuple[str, int]) -> tuple[str, int, dict]:
    name, seed = task
    return name, seed, compute(name, seed)


def write_committed() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    tasks = [(name, seed) for seed in PINNED_SEEDS for name in wl.NAMES]
    pins: dict = {name: {} for name in wl.NAMES}
    with ProcessPoolExecutor(max_workers=2,
                             mp_context=get_context("spawn")) as pool:
        for name, seed, entry in pool.map(_pin_task, tasks):
            pins[name][str(seed)] = entry
            print(f"pinned {name} seed {seed}", file=sys.stderr)
    PINS_PATH.write_text(json.dumps(pins, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the committed reference file")
    parser.add_argument("--workload", choices=wl.NAMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="write one reference entry here")
    args = parser.parse_args(argv)
    if args.write:
        write_committed()
        return 0
    if args.workload is None or args.seed is None or args.out is None:
        parser.error("give --write, or --workload, --seed and --out")
    entry = compute(args.workload, args.seed)
    Path(args.out).write_text(json.dumps(entry, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
