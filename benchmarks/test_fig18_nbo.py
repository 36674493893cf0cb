"""Figure 18: sensitivity to the Back-Off threshold N_BO.

Paper: QPRAC 2.3% at N_BO=16 falling to <=0.8% at 32+; the proactive
variants <=0.3% at 16 and 0% at 32+.

Routed through the :mod:`repro.exp` orchestrator: one DefenseSpec-keyed
sweep over variants x N_BO override sets, parallel with
``REPRO_BENCH_JOBS`` and fully cached under ``REPRO_BENCH_CACHE``.
"""

from __future__ import annotations

from conftest import bench_engine, bench_entries, bench_workloads, bench_sweep, emit_table

from repro.exp import SweepSpec, mean_slowdown_by_override

VARIANTS = (
    "qprac",
    "qprac+proactive",
    "qprac+proactive-ea",
)

NBO_VALUES = (16, 32, 64, 128)


def test_fig18_nbo_sensitivity(benchmark, config, baselines):
    names = list(bench_workloads())[:3]
    entries = bench_entries()

    def build():
        spec = SweepSpec(
            workloads=tuple(names),
            defenses=VARIANTS,
            overrides=tuple({"n_bo": n_bo} for n_bo in NBO_VALUES),
            config=config,
            include_baseline=False,
            n_entries=entries,
            engine=bench_engine(),
        )
        sweep = bench_sweep(spec)
        table = {}
        for variant in VARIANTS:
            means = mean_slowdown_by_override(sweep, variant, baselines)
            for overrides, mean in means.items():
                n_bo = dict(overrides)["n_bo"]
                table[(n_bo, variant)] = mean
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [
        [n_bo] + [round(table[(n_bo, v)], 2) for v in VARIANTS]
        for n_bo in NBO_VALUES
    ]
    emit_table(
        "fig18",
        "Figure 18: slowdown %% vs N_BO (paper: 2.3%% @16 -> <=0.8%% @32+)",
        ["N_BO"] + list(VARIANTS),
        rows,
    )
    qprac = {n_bo: table[(n_bo, "qprac")] for n_bo in NBO_VALUES}
    # Lower thresholds cost more; >=32 is cheap.
    assert qprac[16] >= qprac[32] - 0.1
    assert qprac[32] < 1.5 and qprac[64] < 1.0 and qprac[128] < 1.0
    for n_bo in (32, 64, 128):
        assert table[(n_bo, "qprac+proactive")] < 0.5
        assert table[(n_bo, "qprac+proactive-ea")] < 0.5
    assert table[(16, "qprac+proactive")] < qprac[16] + 0.2
