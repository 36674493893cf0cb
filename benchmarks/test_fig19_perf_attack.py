"""Figure 19: DRAM activation-bandwidth loss under performance attacks.

Two complementary reproductions:

* the paper's worst-case **analytical** attacker
  (:func:`repro.sim.analytical_bandwidth_reduction`), which reproduces
  the reported RFMab points (93%/62% plain at N_BO 16/128; 91%/77%/~10%/0%
  with proactive mitigation at 16/32/64/128);
* the **event-driven simulation** of a pool attacker against the real
  QPRAC state machines, which is more favourable to QPRAC because the
  attacker honestly pays for opportunistically-mitigated pool rows.

The simulated attacks are routed through :mod:`repro.exp`'s
content-addressed :class:`~repro.exp.AttackJob` layer, so they replay
from the same cache (``REPRO_BENCH_CACHE``) as the workload sweeps.
"""

from __future__ import annotations

from conftest import bench_store, emit, emit_series

from repro.analysis.report import render_series
from repro.exp import attack_job, run_attack_jobs
from repro.params import RfmScope
from repro.sim import analytical_bandwidth_reduction

NBO_VALUES = (16, 32, 64, 128)


def test_fig19_analytical_model(benchmark):
    def build():
        return {
            "RFMab": [
                (n, round(analytical_bandwidth_reduction(n) * 100))
                for n in NBO_VALUES
            ],
            "RFMab+Pro": [
                (n, round(analytical_bandwidth_reduction(n, proactive=True) * 100))
                for n in NBO_VALUES
            ],
            "RFMsb+Pro": [
                (n, round(analytical_bandwidth_reduction(
                    n, RfmScope.SAME_BANK, True) * 100))
                for n in NBO_VALUES
            ],
            "RFMpb+Pro": [
                (n, round(analytical_bandwidth_reduction(
                    n, RfmScope.PER_BANK, True) * 100))
                for n in NBO_VALUES
            ],
        }

    series = benchmark.pedantic(build, rounds=1, iterations=1)
    emit_series(
        "fig19_analytical",
        "Figure 19 (analytical): bandwidth reduction %% "
        "(paper ab: 93..62 plain; 91/77/10/0 +Pro)",
        "N_BO",
        series,
    )
    ab = dict(series["RFMab"])
    ab_pro = dict(series["RFMab+Pro"])
    assert ab[16] == 93 and ab[128] == 62
    assert ab_pro[16] == 91
    assert abs(ab_pro[32] - 77) <= 3
    assert ab_pro[64] <= 15
    assert ab_pro[128] == 0
    for n in NBO_VALUES:  # scope ordering: ab >= sb >= pb
        assert ab_pro[n] >= dict(series["RFMsb+Pro"])[n] >= dict(series["RFMpb+Pro"])[n]


def test_fig19_simulated_attack(benchmark, config):
    params = dict(measure_ns=120_000, warmup_ns=40_000, pool_rows_per_bank=8)
    grid = [
        (label, n_bo, variant)
        for n_bo in (16, 64)
        for variant, label in (
            ("qprac", "QPRAC"),
            ("qprac+proactive", "QPRAC+Pro"),
        )
    ]

    def build():
        jobs = [attack_job("baseline", config, **params)] + [
            attack_job(variant, config.with_prac(n_bo=n_bo), **params)
            for _label, n_bo, variant in grid
        ]
        results = run_attack_jobs(jobs, store=bench_store())
        base = results[0]
        return {
            (label, n_bo): (
                round(run.reduction_vs(base) * 100, 1), run.alerts
            )
            for (label, n_bo, _variant), run in zip(grid, results[1:])
        }

    points = benchmark.pedantic(build, rounds=1, iterations=1)
    series = {
        label: [(n_bo, points[(label, n_bo)][0]) for n_bo in (16, 64)]
        for label in ("QPRAC", "QPRAC+Pro")
    }
    emit(
        "fig19_simulated",
        render_series(
            "Figure 19 (simulated pool attacker): bandwidth reduction %",
            "N_BO",
            series,
        ),
    )
    plain = dict(series["QPRAC"])
    pro = dict(series["QPRAC+Pro"])
    assert plain[16] > plain[64] - 0.5  # loss grows as N_BO falls
    assert plain[16] > 2.0  # the attack visibly hurts at N_BO = 16
    assert pro[64] <= plain[16]  # proactive + high N_BO is the safe corner
