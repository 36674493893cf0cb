"""Figure 17: sensitivity to the PSQ size (1..5 entries).

Paper: QPRAC stays under 1% slowdown at every queue size, slightly
better at larger sizes; the energy-aware proactive variants stay at ~0%
across proactive cadences (1 per 1/2/4 tREFI).
"""

from __future__ import annotations

from conftest import (
    bench_engine,
    bench_entries,
    bench_sweep,
    bench_workloads,
    emit_table,
)

from repro.exp import SweepSpec, mean_slowdown_by_override


def test_fig17_psq_size_sensitivity(benchmark, config, baselines):
    names = list(bench_workloads())[:3]
    entries = bench_entries()
    sizes = (1, 2, 3, 4, 5)
    cadences = (1, 2, 4)
    # Two orchestrated grids sharing the fixture baselines (overrides only
    # alter the defense, so the insecure baseline is unaffected by them).
    size_spec = SweepSpec.build(
        names, ("qprac",),
        overrides=tuple({"psq_size": s} for s in sizes),
        config=config, include_baseline=False, n_entries=entries,
        engine=bench_engine(),
    )
    cadence_spec = SweepSpec.build(
        names, ("qprac+proactive-ea",),
        overrides=tuple({"proactive_every_n_refs": c} for c in cadences),
        config=config, include_baseline=False, n_entries=entries,
        engine=bench_engine(),
    )

    def build():
        rows = []
        size_means = mean_slowdown_by_override(
            bench_sweep(size_spec), "qprac", baselines
        )
        qprac_by_size = {
            size: size_means[(("psq_size", size),)] for size in sizes
        }
        for size in sizes:
            rows.append([size, "qprac", round(qprac_by_size[size], 2)])
        cadence_means = mean_slowdown_by_override(
            bench_sweep(cadence_spec),
            "qprac+proactive-ea", baselines,
        )
        for cadence in cadences:
            mean = cadence_means[(("proactive_every_n_refs", cadence),)]
            rows.append([5, f"ea 1-per-{cadence}-tREFI", round(mean, 2)])
        return rows, qprac_by_size

    rows, qprac_by_size = benchmark.pedantic(build, rounds=1, iterations=1)
    emit_table(
        "fig17",
        "Figure 17: slowdown %% vs PSQ size (paper: <1%% everywhere)",
        ["PSQ size", "variant", "mean slowdown %"],
        rows,
    )
    # All sizes stay small; the 5-entry default is no worse than 1-entry.
    assert all(v < 2.5 for v in qprac_by_size.values())
    assert qprac_by_size[5] <= qprac_by_size[1] + 0.3
    ea_rows = [r for r in rows if str(r[1]).startswith("ea")]
    assert all(r[2] < 0.8 for r in ea_rows)
