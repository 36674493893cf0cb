"""Figure 22: QPRAC vs MOAT mitigation-energy overhead as N_BO varies.

Paper: both under ~2% at N_BO >= 32 (MOAT via its dual threshold, QPRAC
via energy-aware proactive mitigation); rising at N_BO = 16 (MOAT 5.7%,
QPRAC 4.1% in the paper's traces) with QPRAC at or below MOAT.

Routed through the :mod:`repro.exp` orchestrator: one DefenseSpec-keyed
sweep (MOAT selected by registry name, with its proactive cadence as a
spec parameter) over N_BO override sets, parallel with
``REPRO_BENCH_JOBS`` and fully cached under ``REPRO_BENCH_CACHE``.
"""

from __future__ import annotations

from conftest import bench_engine, bench_entries, bench_sweep, bench_workloads, emit_table

from repro.energy import mitigation_energy_pct
from repro.exp import SweepSpec

DEFENSES = (
    "moat",
    "moat:proactive_every_n_refs=1",
    "qprac",
    "qprac+proactive-ea",
)

LABELS = ("MOAT", "MOAT+Pro", "QPRAC", "QPRAC+Pro-EA")

NBO_VALUES = (16, 32, 64)


def test_fig22_moat_vs_qprac_energy(benchmark, config):
    names = list(bench_workloads())[:2]
    entries = bench_entries()

    def build():
        spec = SweepSpec(
            workloads=tuple(names),
            defenses=DEFENSES,
            overrides=tuple({"n_bo": n_bo} for n_bo in NBO_VALUES),
            config=config,
            include_baseline=False,
            n_entries=entries,
            engine=bench_engine(),
        )
        sweep = bench_sweep(spec)
        table = {}
        for overrides in sweep.spec.overrides:
            n_bo = dict(overrides)["n_bo"]
            cfg = config.with_prac(n_bo=n_bo)
            results = sweep.results_by_variant(overrides=overrides)
            for label, defense in zip(LABELS, sweep.spec.defenses):
                runs = results[defense.label]
                values = [
                    mitigation_energy_pct(runs[name], cfg) for name in names
                ]
                table[(label, n_bo)] = sum(values) / len(values)
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    rows = [
        [n_bo] + [round(table[(label, n_bo)], 2) for label in LABELS]
        for n_bo in NBO_VALUES
    ]
    emit_table(
        "fig22",
        "Figure 22: mitigation energy overhead %% vs N_BO "
        "(paper: <2%% @32+, rising @16)",
        ["N_BO"] + list(LABELS),
        rows,
    )
    for n_bo in (32, 64):
        assert table[("QPRAC", n_bo)] < 2.5
        assert table[("MOAT", n_bo)] < 2.5
    # Energy grows (or at worst stays flat) as N_BO shrinks.
    assert table[("QPRAC", 16)] >= table[("QPRAC", 64)] - 0.1
    # The EA design spends more than plain QPRAC but far less than
    # mitigate-on-every-REF behaviour.
    assert table[("QPRAC+Pro-EA", 32)] < 6.0
