"""Simulation façade: pluggable engines and experiment runners.

Every entry point names its defense by a
:class:`~repro.defenses.DefenseSpec` or its string form
(``"qprac"``, ``"moat:eth=8"``); the default is
:data:`~repro.defenses.DEFAULT_DEFENSE`.
"""

from repro.sim.bandwidth import (
    BandwidthResult,
    analytical_bandwidth_reduction,
    bandwidth_reduction,
    run_bandwidth_attack,
)
from repro.engine import EventQueue
from repro.sim.engines import (
    DEFAULT_ENGINE,
    EngineSpec,
    SimEngine,
    register_engine,
    registered_engines,
    resolve_engine,
)
from repro.sim.runner import (
    DEFAULT_ENTRIES,
    EVALUATED_VARIANTS,
    VariantComparison,
    build_system,
    run_variant_comparison,
    simulate_baseline,
    simulate_workload,
)

__all__ = [
    "BandwidthResult",
    "analytical_bandwidth_reduction",
    "bandwidth_reduction",
    "run_bandwidth_attack",
    "DEFAULT_ENGINE",
    "EngineSpec",
    "EventQueue",
    "SimEngine",
    "register_engine",
    "registered_engines",
    "resolve_engine",
    "DEFAULT_ENTRIES",
    "EVALUATED_VARIANTS",
    "VariantComparison",
    "build_system",
    "run_variant_comparison",
    "simulate_baseline",
    "simulate_workload",
]
