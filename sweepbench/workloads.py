"""The three workloads of the sweep benchmark, as plain data.

Importable without the ``repro`` package, so ``run.py`` can validate
names and build inputs before any interpreter imports the program.

* ``event-fig14`` -- the paper's headline experiment (Fig 14): 429.mcf
  and 470.lbm under the baseline, the five QPRAC variants and MOAT on
  the ``event`` engine, ``serial`` backend.  Engine replay, PSQ and
  defense calls dominate; trace generation is memoized per workload.
* ``epoch-suite`` -- the 12 representative workloads under the baseline
  and QPRAC on the ``epoch`` engine, ``serial`` backend.  Every
  workload has its own trace and footprints range from 8 MB to 256 MB
  against the 8 MB LLC, so trace generation and the LLC filter take a
  large share; the only workload that measures engine fidelity
  (against pinned event-engine numbers).
* ``service-mixed`` -- a ``SweepService`` (one worker) behind its HTTP
  server on 127.0.0.1, driven by one closed-loop client: submit, wait
  for the terminal status, submit the next.  40 small overlapping grids
  on the ``pool`` backend (``jobs=2``), so store writes run beside store
  reads and some sweeps are served entirely from the store.

The benchmark seed is the trace seed of the two in-process grids; the
requests of ``service-mixed`` use trace seeds ``2 * seed`` and
``2 * seed + 1``.
"""

from __future__ import annotations

import random

NAMES = ("event-fig14", "epoch-suite", "service-mixed")

FIG14_WORKLOADS = ("429.mcf", "470.lbm")
#: The five evaluated QPRAC variants (paper order) plus MOAT.
FIG14_DEFENSES = (
    "qprac-noop", "qprac", "qprac+proactive", "qprac+proactive-ea",
    "qprac-ideal", "moat",
)
FIG14_ENTRIES = 6000

#: ``repro.workloads.REPRESENTATIVE_WORKLOADS``, fixed here so the
#: benchmark's grid cannot drift with the program.
SUITE_WORKLOADS = (
    "429.mcf", "482.sphinx3", "510.parest", "470.lbm", "471.omnetpp",
    "tpcc64", "hadoop-sort", "ycsb-a", "403.gcc", "525.x264",
    "541.leela", "mb-adpcm",
)
SUITE_DEFENSES = ("qprac",)
SUITE_ENTRIES = 8000

SERVICE_WORKLOADS = (
    "429.mcf", "470.lbm", "510.parest", "ycsb-a", "403.gcc", "541.leela",
)
SERVICE_DEFENSES = (
    "qprac", "qprac-noop", "qprac+proactive", "qprac+proactive-ea",
    "moat", "panopticon",
)
SERVICE_ENTRIES = 1500
SERVICE_REQUESTS = 40
SERVICE_BACKEND = "pool"
SERVICE_JOBS = 2
#: Seed of the request *shapes* (which workloads and defenses each
#: request names).  Fixed, so that every benchmark seed runs the same
#: mix of store hits and misses; the benchmark seed picks the trace
#: seeds.  Shapes drawn from the benchmark seed would change the number
#: of requests that run any job (23 to 30 over seeds 0-7), and with it
#: ``sweep_s``, by more than a run's noise.
SERVICE_SHAPE_SEED = 2025


def grid(name: str, seed: int) -> dict:
    """``build_spec`` keyword arguments of an in-process workload."""
    if name == "event-fig14":
        return {"workloads": list(FIG14_WORKLOADS),
                "defenses": list(FIG14_DEFENSES),
                "entries": FIG14_ENTRIES, "seed": seed, "engine": "event"}
    if name == "epoch-suite":
        return {"workloads": list(SUITE_WORKLOADS),
                "defenses": list(SUITE_DEFENSES),
                "entries": SUITE_ENTRIES, "seed": seed, "engine": "epoch"}
    raise ValueError(f"{name!r} is not an in-process workload")


def service_trace_seeds(seed: int) -> tuple[int, int]:
    """The two trace seeds ``service-mixed`` requests draw from."""
    return (2 * seed, 2 * seed + 1)


def service_requests(seed: int) -> list[dict]:
    """The closed-loop request sequence of ``service-mixed``.

    Each request names 1-3 of the workloads, 1-3 of the defenses and one
    of the two trace seeds.  The grids overlap: at the fixed shape seed
    about 70% of the named jobs are already in the store when their
    request arrives, 18 of the 40 requests find every job there and one
    repeats an earlier request exactly (the service replays it from its
    record)."""
    rng = random.Random(SERVICE_SHAPE_SEED)
    trace_seeds = service_trace_seeds(seed)
    return [
        {
            "workloads": rng.sample(SERVICE_WORKLOADS, rng.randint(1, 3)),
            "defenses": rng.sample(SERVICE_DEFENSES, rng.randint(1, 3)),
            "entries": SERVICE_ENTRIES,
            "seed": trace_seeds[rng.randrange(2)],
            "engine": "event",
            "backend": SERVICE_BACKEND,
            "jobs": SERVICE_JOBS,
        }
        for _ in range(SERVICE_REQUESTS)
    ]


def identity(name: str, seed: int) -> dict:
    """Everything a workload's reference outputs depend on; a pinned
    reference is used only while this is unchanged."""
    if name == "service-mixed":
        return {"requests": service_requests(seed)}
    return grid(name, seed)


def cell(workload: str, defense: str, seed: int | None = None) -> str:
    """Key of one grid cell (of one trace seed) in the reference file."""
    key = f"{workload}|{defense}"
    return key if seed is None else f"{key}|{seed}"


def expansion(workloads, defenses) -> list[tuple[str, str]]:
    """Job order of a grid: per workload, its baseline then each defense
    (``SweepSpec.expand`` order, on which sweep digests depend)."""
    return [
        (workload, defense)
        for workload in workloads
        for defense in ("baseline", *defenses)
    ]
