"""The shared ``name[:key=value,...]`` spec grammar and param machinery.

Three registries address pluggable components by name plus parameters:
defenses (:mod:`repro.defenses`), sweep-execution backends
(:mod:`repro.exp.backend`) and simulation engines
(:mod:`repro.sim.engines`).  The first and last accept parameterized
selections from the CLI and from serialized sweep grids, and they must
agree on the grammar — a value that round-trips through a defense label
must round-trip identically through an engine label, because both feed
canonical cache keys.  This module is that single grammar, plus the
shared parameter machinery both registries validate against:
:func:`parse_name_params` (the ``name:k=v,...`` parser),
:class:`SpecParam` / :func:`introspect_params` (a callable's keyword
parameters as a validated table) and :func:`check_params` (fail-fast
unknown/missing/type errors, worded per registry ``kind``).

Values are coerced on parse (``"4"`` → 4, ``"2.5"`` → 2.5,
``"true"``/``"false"`` → bool, ``"none"`` → None); anything else stays a
string, and quoting (``mode='8'``) keeps a string verbatim.
:func:`render_value` is the loss-free inverse used by canonical labels.
"""

from __future__ import annotations

import inspect
import types
import typing
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ConfigError, ReproError


def parse_value(raw: str) -> object:
    """Coerce one CLI parameter string to a Python value.

    ``"4"`` → 4, ``"2.5"`` → 2.5, ``"true"``/``"false"`` → bool,
    ``"none"`` → None; anything else stays a string.  Quote a value
    (``mode='8'``) to keep it a string verbatim.
    """
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in ("'", '"'):
        return raw[1:-1]
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def render_value(value: object) -> str:
    """Inverse of :func:`parse_value`: quote strings that would
    otherwise coerce to a different value — or split differently —
    when parsed back (numeric-looking values, separators, quotes)."""
    if isinstance(value, str) and (
        parse_value(value) != value
        or any(ch in value for ch in ",=:'\"")
    ):
        quote = '"' if "'" in value else "'"
        return f"{quote}{value}{quote}"
    return str(value)


def split_params(text: str) -> list[str]:
    """Split ``k=v,k=v`` on commas, honouring quoted values."""
    items: list[str] = []
    buffer: list[str] = []
    quote: str | None = None
    for ch in text:
        if quote is not None:
            buffer.append(ch)
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
            buffer.append(ch)
        elif ch == ",":
            items.append("".join(buffer))
            buffer = []
        else:
            buffer.append(ch)
    items.append("".join(buffer))
    return items


def parse_name_params(text: str, kind: str) -> tuple[str, dict]:
    """Parse the CLI syntax ``name`` or ``name:key=value,key=value``.

    ``kind`` names the registry ("defense", "engine", ...) in error
    messages.  Values are coerced by :func:`parse_value`.
    """
    text = text.strip()
    name, _, param_text = text.partition(":")
    name = name.strip()
    if not name:
        raise ConfigError(f"{kind} spec {text!r} has no name")
    params: dict[str, object] = {}
    if param_text.strip():
        for item in split_params(param_text):
            key, sep, raw = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(
                    f"malformed {kind} parameter {item!r} in {text!r}; "
                    "expected key=value"
                )
            if key in params:
                raise ConfigError(
                    f"duplicate {kind} parameter {key!r} in {text!r}"
                )
            params[key] = parse_value(raw.strip())
    return name, params


def annotation_accepts(annotation: object, value: object) -> bool:
    """True when ``value`` fits a simple annotation (lenient otherwise).

    Understands the scalar types and PEP 604 / ``Optional`` unions over
    them; ints are accepted for float params (standard numeric widening).
    """
    if isinstance(annotation, (types.UnionType,)) or \
            typing.get_origin(annotation) is typing.Union:
        return any(
            annotation_accepts(member, value)
            for member in typing.get_args(annotation)
        )
    if annotation is type(None):
        return value is None
    if annotation is bool:
        return isinstance(value, bool)
    if annotation is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if annotation is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if annotation is str:
        return isinstance(value, str)
    return True  # unknown/complex annotation: no opinion


@dataclass(frozen=True)
class SpecParam:
    """One keyword parameter a registered builder/constructor accepts."""

    name: str
    default: object = None
    required: bool = False
    #: Resolved type annotation, or None when the signature left it off.
    annotation: object = None

    @property
    def human(self) -> str:
        return f"{self.name} (required)" if self.required \
            else f"{self.name}={self.default}"

    def accepts(self, value: object) -> bool:
        if self.annotation is None:
            return True
        return annotation_accepts(self.annotation, value)


def introspect_params(
    func: Callable, skip: int, kind: str, owner: str | None = None
) -> tuple[SpecParam, ...]:
    """A callable's keyword parameters as a :class:`SpecParam` table.

    ``skip`` positional parameters are ignored (2 for defense builders'
    ``(bank_index, config)``, 1 for engine constructors' ``self``);
    ``*args``/``**kwargs`` are rejected so every valid parameter is
    nameable in errors and listings.
    """
    signature = inspect.signature(func)
    try:
        hints = typing.get_type_hints(func)
    except Exception:
        hints = {}  # unresolvable annotations: skip value validation
    params = []
    for parameter in list(signature.parameters.values())[skip:]:
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD
        ):
            raise ConfigError(
                f"{kind} {owner or func!r} must declare explicit "
                "keyword parameters (no *args/**kwargs)"
            )
        required = parameter.default is inspect.Parameter.empty
        params.append(SpecParam(
            name=parameter.name,
            default=None if required else parameter.default,
            required=required,
            annotation=hints.get(parameter.name),
        ))
    return tuple(params)


def check_params(
    kind: str,
    name: str,
    known: tuple[SpecParam, ...],
    params: Mapping[str, object],
) -> None:
    """Fail fast on unknown/missing/mistyped parameters.

    The single wording both registries raise with, so a typo'd defense
    and a typo'd engine die with the same shape of message.
    """
    known_names = {p.name for p in known}
    unknown = sorted(set(params) - known_names)
    if unknown:
        valid = ", ".join(sorted(known_names)) or "(none)"
        raise ReproError(
            f"unknown parameter(s) {', '.join(unknown)} for {kind} "
            f"{name!r}; valid parameters: {valid}"
        )
    missing = sorted(
        p.name for p in known if p.required and p.name not in params
    )
    if missing:
        raise ReproError(
            f"{kind} {name!r} requires parameter(s): {', '.join(missing)}"
        )
    for param in known:
        if param.name in params and not param.accepts(params[param.name]):
            value = params[param.name]
            expected = getattr(
                param.annotation, "__name__", str(param.annotation)
            )
            raise ReproError(
                f"{kind} {name!r} parameter {param.name}="
                f"{value!r} has the wrong type "
                f"({type(value).__name__}; expected {expected})"
            )
