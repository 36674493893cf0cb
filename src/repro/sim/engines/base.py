"""The simulation-engine registry: named, serializable execution tiers.

A *simulation engine* is one way of executing a workload × defense job:
the ``event`` engine drives the nanosecond event loop (the reference —
byte-identical to the pre-registry simulator), the ``epoch`` engine
advances whole tREFI windows at a time (approximate timing, several
times faster).  Engines are the third registry next to defenses
(:mod:`repro.defenses`) and sweep backends (:mod:`repro.exp.backend`):
everything that can run a simulation is addressable by name, so every
figure chooses its fidelity/throughput point with a string.

An :class:`EngineSpec` is the serializable selection — ``"event"``,
``"epoch"``, ``"epoch:trefi_chunk=4"`` — with the same grammar, the same
registry-independent identity and the same fail-fast validation as
:class:`~repro.defenses.DefenseSpec`.  Specs join
:class:`~repro.exp.spec.Job` cache keys, so cached rows produced by
different engines can never collide.

External code plugs in new engines with one decorator::

    from repro.sim.engines import SimEngine, register_engine

    @register_engine("my-engine", summary="compiled event core")
    class MyEngine(SimEngine):
        def __init__(self, *, chunk: int = 1): ...
        def simulate(self, workload, config, defense_factory,
                     n_entries, seed, variant_name="custom"): ...

    simulate_workload("429.mcf", engine="my-engine:chunk=8")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import ConfigError, ReproError
from repro.specs import (
    SpecParam,
    check_params,
    introspect_params,
    parse_name_params,
    render_value,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.controller.memctrl import DefenseFactory
    from repro.cpu.system import SystemResult
    from repro.params import SystemConfig
    from repro.workloads.synthetic import WorkloadSpec

#: Name of the reference engine (the event-driven simulator).
DEFAULT_ENGINE = "event"


class SimEngine:
    """One execution tier for workload simulations.

    Subclasses are registered with :func:`register_engine`; instances are
    built per job from an :class:`EngineSpec` (``spec.build()``), so they
    may keep per-run state.  :meth:`simulate` receives everything a job
    resolves — workload spec, effective configuration, per-bank defense
    factory — and returns a :class:`~repro.cpu.system.SystemResult`.
    """

    #: Registry name (set by :func:`register_engine`).
    name: str = "?"
    #: Work-unit count of the most recent :meth:`simulate` call, for
    #: throughput reporting.  The *meaning* is engine-defined (simulator
    #: events for ``event``, consumed trace accesses for ``epoch``) and
    #: named by :attr:`work_unit_name`; cross-engine comparisons must use
    #: wall time, never work-unit rates.
    work_units: int = 0
    work_unit_name: str = "events"

    def simulate(
        self,
        workload: "WorkloadSpec",
        config: "SystemConfig",
        defense_factory: "DefenseFactory",
        n_entries: int,
        seed: int = 0,
        variant_name: str = "custom",
        telemetry=None,
    ) -> "SystemResult":
        """Run one fully-resolved simulation job to completion.

        ``variant_name`` is the result's label, the
        :attr:`~repro.defenses.DefenseSpec.label` of the defense whose
        ``factory()`` is ``defense_factory``.

        ``telemetry`` is an optional :class:`~repro.obs.Telemetry`
        recorder.  Engines MUST produce byte-identical results with it
        enabled, disabled, or absent — it observes the simulated clock,
        never steers it — and should attach the summary to the result's
        ``latency`` field when enabled.  Callers only pass the keyword
        when telemetry is enabled, so engines predating the seam keep
        working.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class EngineSpec:
    """A serializable description of one engine: name + parameters.

    Same contract as :class:`~repro.defenses.DefenseSpec`: params are a
    sorted ``(key, value)`` tuple, so equal configurations hash, compare
    and serialize identically regardless of construction order, and the
    serialized form (hence every cache key) is independent of what else
    is registered.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("engine name must be non-empty")
        object.__setattr__(
            self, "params", tuple(sorted(dict(self.params).items()))
        )

    # -- construction --------------------------------------------------
    @classmethod
    def of(cls, name: str, **params: object) -> "EngineSpec":
        """Convenience constructor: ``EngineSpec.of("epoch", trefi_chunk=4)``."""
        return cls(name=name, params=tuple(params.items()))

    @classmethod
    def from_string(cls, text: str) -> "EngineSpec":
        """Parse the CLI syntax ``name`` or ``name:key=value,key=value``
        (the shared :mod:`repro.specs` grammar — identical for defenses
        and engines)."""
        name, params = parse_name_params(text, "engine")
        return cls.of(name, **params)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EngineSpec":
        """Inverse of :meth:`to_dict`."""
        name = payload.get("name")
        params = payload.get("params", {})
        if not isinstance(name, str) or not isinstance(params, Mapping):
            raise ConfigError(f"malformed engine payload: {payload!r}")
        return cls.of(name, **dict(params))

    # -- identity ------------------------------------------------------
    @property
    def params_dict(self) -> dict[str, object]:
        return dict(self.params)

    @property
    def label(self) -> str:
        """Canonical human/cache label: ``name[:k=v,...]`` (sorted keys)."""
        if not self.params:
            return self.name
        rendered = ",".join(
            f"{k}={render_value(v)}" for k, v in self.params
        )
        return f"{self.name}:{rendered}"

    def to_string(self) -> str:
        return self.label

    def to_dict(self) -> dict:
        """JSON-able form; feeds cache keys, so registry-independent."""
        return {"name": self.name, "params": self.params_dict}

    @property
    def is_reference(self) -> bool:
        """True for the byte-identical reference engine (``event``)."""
        return self.name == DEFAULT_ENGINE

    # -- resolution ----------------------------------------------------
    def validate(self, registry: "EngineRegistry | None" = None) -> None:
        """Check name and params against the registry; raise otherwise."""
        (registry or REGISTRY).entry(self.name).check_params(self.params_dict)

    def build(self, registry: "EngineRegistry | None" = None) -> SimEngine:
        """Resolve to a ready :class:`SimEngine` instance (validated)."""
        entry = (registry or REGISTRY).entry(self.name)
        entry.check_params(self.params_dict)
        engine = entry.cls(**self.params_dict)
        engine.spec = self  # type: ignore[attr-defined]
        return engine


#: The spec every un-specified simulation resolves to.
DEFAULT_ENGINE_SPEC = EngineSpec(DEFAULT_ENGINE)


#: One keyword parameter a registered engine's constructor accepts —
#: the shared :class:`~repro.specs.SpecParam` (same table the defense
#: registry uses, so listings and validation can never diverge).
EngineParam = SpecParam


@dataclass(frozen=True)
class RegisteredEngine:
    """Registry entry: the engine class plus its parameter table."""

    name: str
    cls: type[SimEngine]
    summary: str = ""
    params: tuple[EngineParam, ...] = field(default=())

    def check_params(self, params: Mapping[str, object]) -> None:
        check_params("engine", self.name, self.params, params)


def _introspect_params(cls: type[SimEngine]) -> tuple[EngineParam, ...]:
    """Parameter table from the engine constructor (skipping ``self``)."""
    if cls.__init__ is object.__init__:
        return ()  # parameterless engine: no constructor declared
    return introspect_params(
        cls.__init__, skip=1, kind="engine", owner=repr(cls)
    )


class EngineRegistry:
    """Name → :class:`RegisteredEngine` map with duplicate rejection."""

    def __init__(self) -> None:
        self._entries: dict[str, RegisteredEngine] = {}

    def register(
        self, name: str, summary: str = ""
    ) -> Callable[[type[SimEngine]], type[SimEngine]]:
        """Class decorator registering a :class:`SimEngine` under ``name``.

        Constructor keyword parameters (introspected from ``__init__``)
        become the spec's valid params.
        """
        if not name:
            raise ConfigError("engine name must be non-empty")

        def decorator(cls: type[SimEngine]) -> type[SimEngine]:
            if name in self._entries:
                raise ConfigError(
                    f"engine {name!r} is already registered "
                    f"(by {self._entries[name].cls!r})"
                )
            if not (isinstance(cls, type) and issubclass(cls, SimEngine)):
                raise ConfigError(
                    f"@register_engine({name!r}) needs a SimEngine "
                    f"subclass, got {cls!r}"
                )
            cls.name = name
            self._entries[name] = RegisteredEngine(
                name=name,
                cls=cls,
                summary=summary,
                params=_introspect_params(cls),
            )
            return cls

        return decorator

    def entry(self, name: str) -> RegisteredEngine:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none)"
            raise ReproError(
                f"unknown engine {name!r}; registered engines: {known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def entries(self) -> tuple[RegisteredEngine, ...]:
        return tuple(self._entries[name] for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide registry every un-scoped resolution consults.
REGISTRY = EngineRegistry()

#: Module-level decorator bound to the global registry (the public API).
register_engine = REGISTRY.register


def registered_engines() -> tuple[RegisteredEngine, ...]:
    """All globally registered engines, sorted by name."""
    return REGISTRY.entries()


def resolve_engine(
    engine: "EngineSpec | str | None",
    registry: EngineRegistry | None = None,
) -> EngineSpec:
    """Normalize any engine designator to a validated :class:`EngineSpec`.

    ``None`` resolves to the reference :data:`DEFAULT_ENGINE_SPEC`;
    strings use the ``name[:k=v,...]`` CLI syntax.
    """
    if engine is None:
        spec = DEFAULT_ENGINE_SPEC
    elif isinstance(engine, EngineSpec):
        spec = engine
    elif isinstance(engine, str):
        spec = EngineSpec.from_string(engine)
    else:
        raise ConfigError(
            f"cannot resolve {engine!r} to an engine; pass an EngineSpec "
            "or a 'name:key=value' string"
        )
    spec.validate(registry)
    return spec
