"""The defense registry: named, serializable, pluggable mitigations.

Every mitigation the simulator can run is described by a
:class:`DefenseSpec` — a plain ``(name, params)`` value that is hashable,
picklable, byte-stably serializable, and resolvable to a per-bank engine
factory through a process-wide :class:`DefenseRegistry`.  The spec is the
unit the experiment orchestrator sweeps, caches and labels by; the
registry is the single place a defense's construction logic lives.  A
spec and its string form (``"moat:eth=8"``) are the only two ways to
name a defense; runs that name none use :data:`DEFAULT_DEFENSE`.

Two properties are load-bearing:

* **Registry-independent identity.**  A spec's serialized form (and hence
  every cache key derived from it) depends only on its own ``name`` and
  ``params`` — never on what else is registered or in which order.
  Registering a new defense can never invalidate cached results of
  existing ones.
* **Fail-fast validation.**  Resolution (``spec.factory()`` or
  :func:`resolve_defense`) checks the name against the registry and the
  params against the builder's signature, so a sweep over a typo'd
  defense dies before any simulation runs, with the registered
  alternatives in the error message.

External code plugs in new designs with one decorator::

    from repro.defenses import register_defense

    @register_defense("my-prac", summary="my follow-on PRAC design")
    def build_my_prac(bank_index, config, *, knob: int = 4):
        return MyPRACBank(config.prac, knob=knob)

    simulate_workload("429.mcf", defense="my-prac:knob=8")

For parallel sweeps (``run_sweep(..., jobs>1)``) register at import time
— the top level of an importable module, not under ``if __name__ ==
"__main__":`` or in a REPL cell.  Worker processes re-import the code
and rebuild the registry from those imports; with the ``spawn`` start
method (the default on macOS/Windows) a registration that only happened
in the parent's main block is invisible to workers and the sweep fails
with "unknown defense".
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.errors import ConfigError, ReproError
from repro.params import SystemConfig
from repro.specs import (
    SpecParam,
    check_params,
    introspect_params,
    parse_name_params,
    render_value as _render_value,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.defense import BankDefense

#: Builder signature: positional (bank_index, config) plus keyword params.
DefenseBuilder = Callable[..., "BankDefense"]

#: Canonical name of the paper's non-secure baseline defense.
BASELINE_NAME = "baseline"

#: The defense a simulation runs when none is named: the paper's default
#: evaluated design, QPRAC with energy-aware proactive mitigation.
DEFAULT_DEFENSE = "qprac+proactive-ea"


@dataclass(frozen=True)
class DefenseSpec:
    """A serializable description of one defense: name + parameters.

    Params are stored as a sorted tuple of ``(key, value)`` pairs so two
    specs naming the same configuration always compare (and hash, and
    serialize) identically regardless of construction order.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("defense name must be non-empty")
        object.__setattr__(
            self, "params", tuple(sorted(dict(self.params).items()))
        )

    # -- construction --------------------------------------------------
    @classmethod
    def of(cls, name: str, **params: object) -> "DefenseSpec":
        """Convenience constructor: ``DefenseSpec.of("moat", eth=8)``."""
        return cls(name=name, params=tuple(params.items()))

    @classmethod
    def from_string(cls, text: str) -> "DefenseSpec":
        """Parse the CLI syntax ``name`` or ``name:key=value,key=value``.

        Values are coerced (int/float/bool/None) by the shared grammar
        in :mod:`repro.specs` — identical for defenses and engines.
        """
        name, params = parse_name_params(text, "defense")
        return cls.of(name, **params)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "DefenseSpec":
        """Inverse of :meth:`to_dict`."""
        name = payload.get("name")
        params = payload.get("params", {})
        if not isinstance(name, str) or not isinstance(params, Mapping):
            raise ConfigError(f"malformed defense payload: {payload!r}")
        return cls.of(name, **dict(params))

    # -- identity ------------------------------------------------------
    @property
    def params_dict(self) -> dict[str, object]:
        return dict(self.params)

    @property
    def label(self) -> str:
        """Canonical human/cache label: ``name[:k=v,...]`` (sorted keys).

        String values that would parse back as a different type are
        quoted (``mode='8'``), keeping the label loss-free.
        """
        if not self.params:
            return self.name
        rendered = ",".join(
            f"{k}={_render_value(v)}" for k, v in self.params
        )
        return f"{self.name}:{rendered}"

    def to_string(self) -> str:
        """CLI-syntax form; ``from_string(to_string())`` round-trips for
        every value the syntax can express — scalars, and strings without
        commas or quotes (build exotic specs with :meth:`of` instead)."""
        return self.label

    def to_dict(self) -> dict:
        """JSON-able form; feeds cache keys, so registry-independent."""
        return {"name": self.name, "params": self.params_dict}

    @property
    def is_baseline(self) -> bool:
        return self.name == BASELINE_NAME

    # -- resolution ----------------------------------------------------
    def validate(self, registry: "DefenseRegistry | None" = None) -> None:
        """Check name and params against the registry; raise otherwise."""
        (registry or REGISTRY).entry(self.name).check_params(self.params_dict)

    def factory(self, registry: "DefenseRegistry | None" = None):
        """Resolve to a per-bank :data:`DefenseFactory` (validated).

        The returned callable carries this spec as a ``spec`` attribute so
        downstream code (e.g. result labeling) can recover the name.
        """
        entry = (registry or REGISTRY).entry(self.name)
        entry.check_params(self.params_dict)
        params = self.params_dict

        def make(bank_index: int, config: SystemConfig):
            return entry.builder(bank_index, config, **params)

        make.spec = self  # type: ignore[attr-defined]
        return make


#: One keyword parameter a registered builder accepts — the shared
#: :class:`~repro.specs.SpecParam` (same table the engine registry
#: uses, so listings and validation can never diverge).
DefenseParam = SpecParam


@dataclass(frozen=True)
class RegisteredDefense:
    """Registry entry: the builder plus its introspected parameter table."""

    name: str
    builder: DefenseBuilder
    summary: str = ""
    params: tuple[DefenseParam, ...] = field(default=())

    def check_params(self, params: Mapping[str, object]) -> None:
        check_params("defense", self.name, self.params, params)


def _introspect_params(builder: DefenseBuilder) -> tuple[DefenseParam, ...]:
    """Parameter table from a builder's signature (skipping bank/config)."""
    if len(inspect.signature(builder).parameters) < 2:
        raise ConfigError(
            "a defense builder must accept (bank_index, config) plus "
            "keyword parameters"
        )
    return introspect_params(
        builder, skip=2, kind="defense builder", owner=repr(builder)
    )


class DefenseRegistry:
    """Name → :class:`RegisteredDefense` map with duplicate rejection."""

    def __init__(self) -> None:
        self._entries: dict[str, RegisteredDefense] = {}

    def register(
        self, name: str, summary: str = ""
    ) -> Callable[[DefenseBuilder], DefenseBuilder]:
        """Decorator registering ``builder`` under ``name``.

        The builder is called as ``builder(bank_index, config, **params)``
        once per bank; its keyword parameters (introspected from the
        signature) become the spec's valid params.
        """
        if not name:
            raise ConfigError("defense name must be non-empty")

        def decorator(builder: DefenseBuilder) -> DefenseBuilder:
            if name in self._entries:
                raise ConfigError(
                    f"defense {name!r} is already registered "
                    f"(by {self._entries[name].builder!r})"
                )
            self._entries[name] = RegisteredDefense(
                name=name,
                builder=builder,
                summary=summary,
                params=_introspect_params(builder),
            )
            return builder

        return decorator

    def entry(self, name: str) -> RegisteredDefense:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none)"
            raise ReproError(
                f"unknown defense {name!r}; registered defenses: {known}"
            ) from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def entries(self) -> tuple[RegisteredDefense, ...]:
        return tuple(self._entries[name] for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide registry every un-scoped resolution consults.
REGISTRY = DefenseRegistry()

#: Module-level decorator bound to the global registry (the public API).
register_defense = REGISTRY.register


def registered_defenses() -> tuple[RegisteredDefense, ...]:
    """All globally registered defenses, sorted by name."""
    return REGISTRY.entries()


def resolve_defense(
    defense: "DefenseSpec | str",
    registry: DefenseRegistry | None = None,
) -> DefenseSpec:
    """Normalize a defense designator to a validated :class:`DefenseSpec`.

    Accepts a spec or a string in the ``name[:k=v,...]`` CLI syntax —
    the only two ways to name a defense.
    """
    if isinstance(defense, DefenseSpec):
        spec = defense
    elif isinstance(defense, str):
        spec = DefenseSpec.from_string(defense)
    else:
        raise ConfigError(
            f"cannot resolve {defense!r} to a defense; pass a DefenseSpec "
            "or a 'name:key=value' string"
        )
    spec.validate(registry)
    return spec
