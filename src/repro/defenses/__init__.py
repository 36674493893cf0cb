"""Unified defense registry: every mitigation addressable by name.

The public surface of the defense subsystem::

    from repro.defenses import DefenseSpec, register_defense, resolve_defense

    spec = DefenseSpec.from_string("moat:proactive_every_n_refs=4")
    factory = spec.factory()             # per-bank engine factory
    simulate_workload("429.mcf", defense=spec)

Importing this package registers the built-in defenses (the paper's
baseline, the five QPRAC variants, MOAT, Panopticon, PrIDE, Mithril and
UPRAC); :func:`register_defense` is the one-decorator plugin point for
new PRAC designs.
"""

from repro.defenses.registry import (
    BASELINE_NAME,
    DEFAULT_DEFENSE,
    DefenseParam,
    DefenseRegistry,
    DefenseSpec,
    REGISTRY,
    RegisteredDefense,
    register_defense,
    registered_defenses,
    resolve_defense,
)

# Importing the module registers every built-in defense as a side effect.
import repro.defenses.builtin  # noqa: E402,F401  (registration import)

__all__ = [
    "BASELINE_NAME",
    "DEFAULT_DEFENSE",
    "DefenseParam",
    "DefenseRegistry",
    "DefenseSpec",
    "REGISTRY",
    "RegisteredDefense",
    "register_defense",
    "registered_defenses",
    "resolve_defense",
]
