"""Experiment façade: one-call simulation of workloads and defense sweeps.

This is the API the benchmarks and examples use::

    from repro.sim import simulate_workload, run_variant_comparison

    result = simulate_workload("429.mcf", defense="qprac")
    result = simulate_workload("429.mcf", defense="moat:proactive_every_n_refs=4")
    table = run_variant_comparison(["429.mcf", "470.lbm"], n_entries=20_000)

Every defense is named by a :class:`~repro.defenses.DefenseSpec` or its
string form, resolved against the defense registry; runs that name none
use :data:`~repro.defenses.DEFAULT_DEFENSE`.  Results carry the resolved
spec's label, so distinct defenses are never conflated in tables or
cache rows.

Execution is equally pluggable: ``engine=`` selects a registered
:class:`~repro.sim.engines.SimEngine` by
:class:`~repro.sim.engines.EngineSpec` (``"event"`` — the byte-identical
reference — by default; ``"epoch"`` or ``"epoch:trefi_chunk=4"`` for the
batched tier).  Every run builds four homogeneous copies of the named
workload (the paper's methodology) with per-core seeds, executes them to
completion on the selected engine, and reports a
:class:`~repro.cpu.system.SystemResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.system import MulticoreSystem, SystemResult
from repro.defenses import DEFAULT_DEFENSE, DefenseSpec, resolve_defense
from repro.errors import ConfigError
from repro.params import SystemConfig, default_config
from repro.sim.engines import EngineSpec, build_event_system, resolve_engine
from repro.workloads.suites import workload as lookup_workload
from repro.workloads.synthetic import WorkloadSpec

#: Trace length (memory accesses per core) used when none is requested.
#: Long enough to span dozens of tREFI intervals at memory-intensive rates.
DEFAULT_ENTRIES = 20_000

#: The five evaluated designs of Section V, in the paper's order.
EVALUATED_VARIANTS: tuple[str, ...] = (
    "qprac-noop",
    "qprac",
    "qprac+proactive",
    "qprac+proactive-ea",
    "qprac-ideal",
)


def _resolve_spec(workload: str | WorkloadSpec) -> WorkloadSpec:
    if isinstance(workload, WorkloadSpec):
        return workload
    return lookup_workload(workload)


def _resolve_workload_or_attack(workload, attack) -> WorkloadSpec:
    """Exactly one of ``workload``/``attack`` selects the trace source.

    ``attack`` resolves through the attack registry to an
    :class:`~repro.attacks.AttackWorkload`, which the engines execute
    through the ordinary workload path.
    """
    if (workload is None) == (attack is None):
        raise ConfigError("pass exactly one of workload= or attack=")
    if attack is not None:
        from repro.attacks import attack_workload

        return attack_workload(attack)
    return _resolve_spec(workload)


def build_system(
    workload: str | WorkloadSpec,
    config: SystemConfig | None = None,
    defense: DefenseSpec | str = DEFAULT_DEFENSE,
    n_entries: int = DEFAULT_ENTRIES,
    seed: int = 0,
    telemetry=None,
) -> MulticoreSystem:
    """Construct (but do not run) a four-copy homogeneous event system.

    This is inherently an ``event``-engine helper — the handle it
    returns *is* the event-driven system; batched engines have no
    equivalent object.  Kept public for the bench harness and tests;
    label its result with ``system.run(variant_name=spec.label)``.
    """
    factory = resolve_defense(defense).factory()
    return build_event_system(
        _resolve_spec(workload), config or default_config(), factory,
        n_entries, seed, telemetry=telemetry,
    )


def simulate_workload(
    workload: str | WorkloadSpec | None = None,
    config: SystemConfig | None = None,
    defense: DefenseSpec | str = DEFAULT_DEFENSE,
    n_entries: int = DEFAULT_ENTRIES,
    seed: int = 0,
    engine: EngineSpec | str | None = None,
    telemetry=None,
    attack=None,
) -> SystemResult:
    """Simulate one workload — or one attack pattern — under one defense.

    ``defense`` selects any registered defense — a
    :class:`~repro.defenses.DefenseSpec` or its ``"name:key=value"``
    string form — and labels the result.  Unregistered designs plug in
    through :func:`~repro.defenses.register_defense`.

    ``attack`` names a registered attack pattern (an
    :class:`~repro.attacks.AttackSpec` or ``"name:k=v"`` string) to run
    *instead of* a workload: the pattern's deterministic trace flows
    through the selected engine exactly like a workload trace.  Exactly
    one of ``workload``/``attack`` must be given.

    ``engine`` selects the simulation engine by
    :class:`~repro.sim.engines.EngineSpec` (or its string form); ``None``
    runs the byte-identical ``event`` reference.

    ``telemetry`` attaches a :class:`~repro.obs.Telemetry` recorder to
    the run (see :mod:`repro.obs`); results are byte-identical with or
    without one.  The keyword is only forwarded when a recorder is
    enabled, so externally registered engines that predate the seam
    keep working untouched.
    """
    spec = resolve_defense(defense)
    sim = resolve_engine(engine).build()
    kwargs = {}
    if telemetry is not None and getattr(telemetry, "enabled", False):
        kwargs["telemetry"] = telemetry
    return sim.simulate(
        _resolve_workload_or_attack(workload, attack),
        config or default_config(),
        spec.factory(),
        n_entries=n_entries,
        seed=seed,
        variant_name=spec.label,
        **kwargs,
    )


def simulate_baseline(
    workload: str | WorkloadSpec,
    config: SystemConfig | None = None,
    n_entries: int = DEFAULT_ENTRIES,
    seed: int = 0,
    engine: EngineSpec | str | None = None,
) -> SystemResult:
    """The paper's non-secure baseline (PRAC timings, no ABO)."""
    return simulate_workload(
        workload,
        config=config,
        defense="baseline",
        n_entries=n_entries,
        seed=seed,
        engine=engine,
    )


@dataclass
class VariantComparison:
    """Per-workload slowdowns of each defense against the shared baseline.

    Keys of ``results`` are defense labels
    (:attr:`~repro.defenses.DefenseSpec.label`): QPRAC variants keep
    their historical names (``"qprac"``, ``"qprac+proactive"``, ...) and
    parameterized defenses read like ``"mithril:t_rh=256"``.
    """

    workloads: list[str]
    baseline: dict[str, SystemResult]
    results: dict[str, dict[str, SystemResult]] = field(default_factory=dict)

    def slowdown_pct(self, variant: str, workload: str) -> float:
        return self.results[variant][workload].slowdown_pct_vs(
            self.baseline[workload]
        )

    def mean_slowdown_pct(self, variant: str) -> float:
        values = [
            self.slowdown_pct(variant, w) for w in self.workloads
        ]
        return sum(values) / len(values) if values else 0.0

    def mean_alerts_per_trefi(self, variant: str) -> float:
        values = [
            self.results[variant][w].alerts_per_trefi for w in self.workloads
        ]
        return sum(values) / len(values) if values else 0.0


def run_variant_comparison(
    workloads: list[str | WorkloadSpec],
    variants: tuple[DefenseSpec | str, ...] = EVALUATED_VARIANTS,
    config: SystemConfig | None = None,
    n_entries: int = DEFAULT_ENTRIES,
    seed: int = 0,
    jobs: int = 1,
    store=None,
    backend: str = "auto",
    hosts=None,
    engine: EngineSpec | str | None = None,
) -> VariantComparison:
    """Figure 14/15 style sweep: defenses over a workload list.

    ``variants`` accepts any mix of defense designators (QPRAC variants,
    ``"moat"``, ``DefenseSpec.of("pride", t_rh=256)``, ...).  Routed
    through the :mod:`repro.exp` orchestrator: ``jobs`` fans the grid out
    over worker processes, and passing a
    :class:`~repro.exp.cache.ResultStore` as ``store`` reuses (and
    persists) results across invocations.  Output is identical at every
    ``jobs`` value.  ``engine`` selects the simulation engine for every
    job in the grid (cache rows from different engines never mix).
    """
    # Imported here: repro.exp builds on this module's simulate_* calls.
    from repro.exp import SweepSpec, run_sweep

    spec = SweepSpec(
        workloads=tuple(_resolve_spec(w) for w in workloads),
        defenses=tuple(variants),
        config=config or default_config(),
        include_baseline=True,
        n_entries=n_entries,
        seed=seed,
        engine=resolve_engine(engine),
    )
    return run_sweep(spec, jobs=jobs, store=store, backend=backend,
                     hosts=hosts).comparison()
