"""Figure 14: normalized performance of the QPRAC variants.

Paper (57 workloads, N_BO=32, PRAC-1): QPRAC-NoOp 12.4% average
slowdown; QPRAC 0.8%; QPRAC+Proactive / +Proactive-EA / Ideal ~0%.
Our synthetic-workload averages differ in magnitude but must keep the
ordering and the near-zero proactive results.
"""

from __future__ import annotations

from conftest import bench_workloads, emit_table

from repro.sim import EVALUATED_VARIANTS


def test_fig14_variant_slowdowns(benchmark, baselines, variant_runs):
    def build():
        headers = ["workload"] + list(EVALUATED_VARIANTS)
        rows = []
        for name in bench_workloads():
            row = [name]
            for variant in EVALUATED_VARIANTS:
                slowdown = variant_runs[variant][name].slowdown_pct_vs(
                    baselines[name]
                )
                row.append(round(slowdown, 2))
            rows.append(row)
        means = ["MEAN"]
        for variant in EVALUATED_VARIANTS:
            values = [
                variant_runs[variant][n].slowdown_pct_vs(baselines[n])
                for n in bench_workloads()
            ]
            means.append(round(sum(values) / len(values), 2))
        rows.append(means)
        return headers, rows

    headers, rows = benchmark.pedantic(build, rounds=1, iterations=1)
    emit_table(
        "fig14",
        "Figure 14: slowdown %% vs insecure baseline "
        "(paper means: 12.4 / 0.8 / 0 / 0 / 0)",
        headers,
        rows,
    )
    means = dict(zip(headers[1:], rows[-1][1:]))
    noop = means["qprac-noop"]
    qprac = means["qprac"]
    # Short traces dilute the paper's 12.4% NoOp mean (counters accrue
    # over far fewer tREFI); the ordering is what must hold — under
    # both simulation engines.
    assert noop > 2.0, "NoOp must show a substantial slowdown"
    assert qprac < 1.0, "opportunistic QPRAC must be ~1% or below"
    assert noop > 4 * max(qprac, 0.3)
    for variant in (
        "qprac+proactive",
        "qprac+proactive-ea",
        "qprac-ideal",
    ):
        assert means[variant] < 0.8, variant
