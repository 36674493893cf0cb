"""Figure 20: QPRAC vs Mithril vs PrIDE across Rowhammer thresholds.

Paper: at T_RH <= 512 both baselines degrade badly (Mithril 69%..10%,
PrIDE 54%..7% slowdown from T_RH 64..512) while QPRAC+Proactive-EA stays
at ~0% everywhere; all schemes converge near zero at T_RH = 1024.
Mithril additionally needs a ~5300-entry CAM per bank vs QPRAC's 5.

One :mod:`repro.exp` sweep over a mixed defense grid: every
``mithril:t_rh=N`` / ``pride:t_rh=N`` point and the QPRAC reference are
DefenseSpec-labeled jobs in the same cached, parallel run.
"""

from __future__ import annotations

from conftest import (
    bench_engine,
    bench_entries,
    bench_sweep,
    bench_workloads,
    emit_series,
)

from repro.defenses import DefenseSpec
from repro.exp import SweepSpec, mean_slowdown_by_override

TRH_VALUES = (64, 256, 1024)

QPRAC_EA = "qprac+proactive-ea"


def test_fig20_vs_mithril_and_pride(benchmark, config, baselines):
    names = list(bench_workloads())[:3]
    entries = bench_entries()
    defenses = tuple(
        DefenseSpec.of(kind, t_rh=t_rh)
        for t_rh in TRH_VALUES
        for kind in ("mithril", "pride")
    ) + (QPRAC_EA,)

    def build():
        spec = SweepSpec(
            workloads=tuple(names),
            defenses=defenses,
            config=config,
            include_baseline=False,
            n_entries=entries,
            engine=bench_engine(),
        )
        sweep = bench_sweep(spec)

        def mean_slowdown(label: str) -> float:
            return mean_slowdown_by_override(sweep, label, baselines)[()]

        # QPRAC's N_BO=32 config defends T_RH 66+ regardless of the sweep
        # value; its cost is flat across the T_RH axis.
        ea_mean = mean_slowdown(QPRAC_EA)
        series = {"Mithril": [], "PrIDE": [], "QPRAC+Pro-EA": []}
        for t_rh in TRH_VALUES:
            series["Mithril"].append(
                (t_rh, round(mean_slowdown(f"mithril:t_rh={t_rh}"), 1))
            )
            series["PrIDE"].append(
                (t_rh, round(mean_slowdown(f"pride:t_rh={t_rh}"), 1))
            )
            series["QPRAC+Pro-EA"].append((t_rh, round(ea_mean, 1)))
        return series

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    emit_series(
        "fig20",
        "Figure 20: slowdown %% vs T_RH "
        "(paper @64: Mithril 69, PrIDE 54, QPRAC 0)",
        "T_RH",
        series,
    )
    mithril = dict(series["Mithril"])
    pride = dict(series["PrIDE"])
    qprac = dict(series["QPRAC+Pro-EA"])
    for t_rh in TRH_VALUES:
        assert mithril[t_rh] >= pride[t_rh] - 1.0, t_rh
        assert qprac[t_rh] < 1.0, t_rh
    assert mithril[64] > 25.0
    assert pride[64] > 15.0
    assert mithril[64] > mithril[1024]
    assert pride[64] > pride[1024]
