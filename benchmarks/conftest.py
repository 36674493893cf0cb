"""Shared infrastructure for the benchmark harness.

Every file in benchmarks/ regenerates one of the paper's tables or
figures.  Results are printed (run with ``-s`` to see them live) and also
written to ``benchmarks/results/<name>.txt`` so a full
``pytest benchmarks/ --benchmark-only`` leaves a reviewable record.

Environment knobs:

* ``REPRO_BENCH_WORKLOADS`` — comma-separated workload names, or ``all``
  for the full 57-workload sweep (slow).  Default: a 6-workload
  representative mix (the paper's call-outs plus a quiet workload).
* ``REPRO_BENCH_ENTRIES`` — trace length per core (default 6000).
* ``REPRO_BENCH_JOBS`` — worker processes for the simulation sweeps
  (default 1; the sweeps are deterministic at any value).
* ``REPRO_BENCH_ENGINE`` — simulation engine for every sweep (default
  ``event``, the byte-identical reference; ``epoch`` runs the batched
  approximate engine, several times faster — see ``repro engines``).
  Cache rows are engine-keyed, so switching engines never mixes results.
* ``REPRO_BENCH_CACHE`` — directory for the orchestrator's result cache.
  Unset (the default) disables caching so every benchmark run simulates
  honestly; point it somewhere persistent to iterate on figure code
  without re-simulating.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.report import render_series, render_table
from repro.exp import ResultStore, SweepSpec, run_sweep
from repro.params import SystemConfig, default_config
from repro.workloads.suites import ALL_WORKLOADS

RESULTS_DIR = Path(__file__).parent / "results"

DEFAULT_WORKLOADS = (
    "429.mcf",
    "482.sphinx3",
    "510.parest",
    "471.omnetpp",
    "ycsb-a",
    "541.leela",
)


def bench_workloads() -> tuple[str, ...]:
    raw = os.environ.get("REPRO_BENCH_WORKLOADS", "")
    if raw == "all":
        return tuple(w.name for w in ALL_WORKLOADS)
    if raw:
        return tuple(name.strip() for name in raw.split(",") if name.strip())
    return DEFAULT_WORKLOADS


def bench_entries() -> int:
    return int(os.environ.get("REPRO_BENCH_ENTRIES", "6000"))


def bench_jobs() -> int:
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def bench_engine() -> str:
    """Simulation engine every figure sweep runs on (see module docs)."""
    return os.environ.get("REPRO_BENCH_ENGINE", "event")


@lru_cache(maxsize=1)
def bench_store() -> ResultStore | None:
    """Result cache for the simulation sweeps (None = disabled).

    Memoized: one JSONL load per session, shared by every sweep.
    """
    cache_dir = os.environ.get("REPRO_BENCH_CACHE", "")
    return ResultStore(cache_dir) if cache_dir else None


def bench_sweep(spec: SweepSpec):
    """Run a sweep with the harness-wide jobs/cache settings."""
    return run_sweep(spec, jobs=bench_jobs(), store=bench_store())


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def emit_table(name: str, title: str, headers, rows) -> None:
    emit(name, render_table(title, headers, rows))


def emit_series(name: str, title: str, x_label: str, series) -> None:
    emit(name, render_series(title, x_label, series))


@pytest.fixture(scope="session")
def config() -> SystemConfig:
    return default_config()


@pytest.fixture(scope="session")
def baselines(config):
    """Insecure-baseline runs shared by all performance figures.

    A baseline-only sweep, so sensitivity benchmarks that need nothing
    else never pay for the five-variant grid below.
    """
    from repro.exp import BASELINE

    spec = SweepSpec(
        workloads=bench_workloads(),
        defenses=(),
        config=config,
        include_baseline=True,
        n_entries=bench_entries(),
        engine=bench_engine(),
    )
    return bench_sweep(spec).results_by_variant()[BASELINE]


@pytest.fixture(scope="session")
def variant_runs(config):
    """All five evaluated variants over the bench workloads
    (shared by Figures 14 and 15)."""
    from repro.sim import EVALUATED_VARIANTS

    spec = SweepSpec(
        workloads=bench_workloads(),
        defenses=EVALUATED_VARIANTS,
        config=config,
        include_baseline=False,
        n_entries=bench_entries(),
        engine=bench_engine(),
    )
    return bench_sweep(spec).results_by_variant()
