"""Figure 15: Alert Back-Off occurrences per tREFI.

Paper: QPRAC-NoOp ~1.1 Alerts/tREFI on average (over 2 for the worst
workloads); QPRAC with opportunistic mitigation 0.07; the proactive
variants essentially zero.
"""

from __future__ import annotations

from conftest import bench_workloads, emit_table

from repro.sim import EVALUATED_VARIANTS


def test_fig15_alerts_per_trefi(benchmark, variant_runs):
    def build():
        headers = ["workload"] + list(EVALUATED_VARIANTS)
        rows = []
        for name in bench_workloads():
            rows.append(
                [name]
                + [
                    round(variant_runs[v][name].alerts_per_trefi, 3)
                    for v in EVALUATED_VARIANTS
                ]
            )
        means = ["MEAN"]
        for variant in EVALUATED_VARIANTS:
            values = [
                variant_runs[variant][n].alerts_per_trefi
                for n in bench_workloads()
            ]
            means.append(round(sum(values) / len(values), 3))
        rows.append(means)
        return headers, rows

    headers, rows = benchmark.pedantic(build, rounds=1, iterations=1)
    emit_table(
        "fig15",
        "Figure 15: Alerts per tREFI (paper means: ~1.1 / 0.07 / 0 / 0 / 0)",
        headers,
        rows,
    )
    means = dict(zip(headers[1:], rows[-1][1:]))
    noop = means["qprac-noop"]
    qprac = means["qprac"]
    assert noop > 0.3
    assert qprac < noop / 4
    assert means["qprac+proactive"] <= 0.02
    assert means["qprac+proactive-ea"] <= 0.05
