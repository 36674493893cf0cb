#!/usr/bin/env python3
"""Datacenter workload study: QPRAC on server-class memory traffic.

The paper's introduction motivates in-DRAM Rowhammer mitigation with
server consolidation: database (TPC), key-value (YCSB) and analytics
(Hadoop) tenants hammering shared DDR5.  This example runs those three
suites through the evaluated QPRAC variants and reports the three
numbers an operator cares about: slowdown, Alert rate, and mitigation
energy.

The whole study is one declarative sweep through the experiment
orchestrator, so it parallelises (``--jobs 4``) and re-runs hit the
result cache (``--cache-dir``) instead of re-simulating.

Run:  python examples/datacenter_workload_study.py [--jobs N]
"""

from __future__ import annotations

import argparse

from repro.analysis.report import render_table
from repro.energy import mitigation_energy_pct
from repro.exp import ResultStore, SweepSpec, run_sweep, stderr_progress
from repro.params import default_config
from repro.workloads import workloads_by_suite

ENTRIES = 5000
SUITES = ("tpc", "ycsb", "hadoop")
VARIANTS = (
    "qprac-noop",
    "qprac",
    "qprac+proactive-ea",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory "
                        "(default: ~/.cache/qprac-repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always simulate; do not touch the cache")
    parser.add_argument("--engine", default="event",
                        help="simulation engine (see `repro engines`): "
                        "event = reference fidelity, epoch = batched, "
                        "several times faster")
    args = parser.parse_args()

    config = default_config()
    # Two representative applications per suite keep runtime short;
    # extend the slices for a full sweep — the cache makes that cheap.
    specs = [
        spec for suite in SUITES for spec in workloads_by_suite(suite)[:2]
    ]
    sweep = run_sweep(
        SweepSpec(
            workloads=tuple(specs),
            defenses=VARIANTS,
            config=config,
            include_baseline=True,
            n_entries=ENTRIES,
            engine=args.engine,
        ),
        jobs=args.jobs,
        store=None if args.no_cache else ResultStore(args.cache_dir),
        progress=stderr_progress,
    )
    comparison = sweep.comparison()
    rows = []
    for spec in specs:
        for variant in VARIANTS:
            run = comparison.results[variant][spec.name]
            rows.append([
                spec.suite,
                spec.name,
                variant,
                round(comparison.slowdown_pct(variant, spec.name), 2),
                round(run.alerts_per_trefi, 3),
                round(mitigation_energy_pct(run, config), 2),
            ])
    print(render_table(
        "Datacenter study: QPRAC variants on server suites "
        "(N_BO=32, PRAC-1)",
        ["suite", "workload", "variant", "slowdown %",
         "alerts/tREFI", "energy %"],
        rows,
    ))
    print()
    print(f"{sweep.total_jobs} jobs: {sweep.executed} simulated, "
          f"{sweep.cache_hits} from cache in {sweep.elapsed_s:.1f}s")
    print()
    print("Reading the table:")
    print(" * qprac-noop shows why opportunistic mitigation matters —")
    print("   every bank alerts on its own and the rank stalls repeatedly.")
    print(" * qprac cuts Alerts by an order of magnitude at <1% slowdown.")
    print(" * qprac+proactive-ea removes Alerts entirely in the REF shadow")
    print("   while staying within ~2% mitigation energy (paper Table III).")


if __name__ == "__main__":
    main()
